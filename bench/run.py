"""Stdlib benchmark for the convexsplit CLI.

    python3 bench/run.py --workload curve --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Load is a closed loop with one client: every repetition is a
fresh child interpreter (bench/child.py) that calls
``convexsplit.cli.main(argv)`` once per request, one request after
another, over the workload's n-ladder.  Repetitions continue until
``--seconds`` is used up (at least three), each after two probe children
that run only the smallest rung; with several comma-separated workloads
(or ``all``) they run round-robin, so drifting host speed hits every
workload alike.  Each end-to-end metric is the interquartile mean (the
mean of the middle half) of its samples in the run.

Workloads (inputs come from ``--seed``; point inputs are moment-curve
points at distinct seeded rationals t in (0,1), so in general position):

  curve  decompose-curve --curve quintic at eps 1/25, 1/50, 1/100
         (n = 100/200/400); 4 pieces.  Sampler, general-position check
         and planar greedy; sign cache and crossing oracle idle.
  homog  homog, planar, n = 45/90/180; homogeneous with sign +1.  The
         sign cache is write-only: every triple computed once.
  flip   flip, planar, n = 30/60/120; flip true.  The same cache,
         read-heavy: every triple read three times.
  space  crossings, decompose and ramsey in R^3, n = 10/20/30; 3
         crossings (also re-evaluated from the witness), 1 piece,
         homogeneous input kept whole.  4x4 determinants, crossing
         oracle, generic k-sequence extension and ramsey.

End-to-end metrics (``--trace 0``): setup_s (import convexsplit.cli plus
build_parser() in a fresh child, ladder and probe children alike),
wall_s (the whole ladder), top_s (the largest-n rung), small_s (the
smallest rung, mostly fixed per-request cost; ladder and probe
children), peak_rss_mb (the ladder child's ru_maxrss) and ok_rate
(requests whose exit code and answer check out, over requests
attempted).

``--trace 1`` alternates untraced and traced children and prints the
per-layer metrics of bench/layers.py, plus cli.report_bytes,
cli.scaling_exp (slope of log rung seconds on log n, untraced) and
trace.overhead (traced over untraced wall_s).

Every answer is checked against the expected values above and against a
digest of the first repetition's exit code and ``result``/``error``
objects (``config`` and ``timing`` are left out).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
``--out FILE`` also writes a results file with the machine description
and every repetition.  Numbers compare only within one machine.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_REPS = 3
PROBES_PER_ROUND = 2
DEADLINE_S = 170         # every run ends well inside the 180 s limit
DENOM = 1_000_003        # prime: every t = r/DENOM has the same size


def moment_input(tmp, name, seed, n, dim):
    """Write n moment-curve points in R^dim as exact rational strings."""
    rng = random.Random(f"{name}:{n}:{seed}")
    ts = sorted(Fraction(r, DENOM) for r in rng.sample(range(1, DENOM), n))
    rows = [[str(t ** k) for k in range(1, dim + 1)] for t in ts]
    path = os.path.join(tmp, f"{name}-{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": dim, "points": rows}, fh)
    return path


def check_curve(n, r):
    return r["n"] == n and r["pieces"] == 4


def check_homog(n, r):
    return r["n"] == n and r["homogeneous"] is True and r["sign"] == 1


def check_flip(n, r):
    return r["n"] == n and r["flip"] is True


def check_crossings(n, r):
    return r["n"] == n and r["max_crossings"] == r["witness_crossings"] == 3


def check_decompose(n, r):
    return r["n"] == n and r["pieces"] == 1


def check_ramsey(n, r):
    return (r["n"] == n and r["homogeneous_input"] is True
            and r["final"]["length"] == n)


def curve_requests(tmp, seed, n):
    return [(["decompose-curve", "--curve", "quintic",
              "--eps", f"1/{n // 4}", "--seed", str(seed)], check_curve)]


def homog_requests(tmp, seed, n):
    return [(["homog", "--input", moment_input(tmp, "homog", seed, n, 2)],
             check_homog)]


def flip_requests(tmp, seed, n):
    return [(["flip", "--input", moment_input(tmp, "flip", seed, n, 2)],
             check_flip)]


def space_requests(tmp, seed, n):
    path = moment_input(tmp, "space", seed, n, 3)
    return [(["crossings", "--input", path], check_crossings),
            (["decompose", "--input", path], check_decompose),
            (["ramsey", "--input", path], check_ramsey)]


# name -> (n-ladder, requests for one rung)
WORKLOADS = {
    "curve": ((100, 200, 400), curve_requests),
    "homog": ((45, 90, 180), homog_requests),
    "flip": ((30, 60, 120), flip_requests),
    "space": ((10, 20, 30), space_requests),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "top_s": "s",
                    "small_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio"}


class Workload:
    """One workload's requests, answers and repetitions in this run."""

    def __init__(self, name, seed, tmp):
        self.name = name
        ladder, make = WORKLOADS[name]
        self.requests = []       # (rung index, n, argv, check)
        for rung, n in enumerate(ladder):
            for argv, check in make(tmp, seed, n):
                self.requests.append((rung, n, argv, check))
        self.ladder = ladder
        self.spec = os.path.join(tmp, f"{name}-spec.json")
        self.small_spec = os.path.join(tmp, f"{name}-small-spec.json")
        self.digests = []        # answer digests of the first repetition
        self.reps = []           # per ladder child: measurements
        self.probes = []         # per smallest-rung child: measurements
        self.traced = []         # per traced ladder child: its trace
        self.attempted = self.failed = 0
        self.problems = []

    def write_specs(self, with_spans):
        small = [r[2] for r in self.requests if r[0] == 0]
        for path, requests in ((self.spec, [r[2] for r in self.requests]),
                               (self.small_spec, small)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"requests": requests, "spans": with_spans}, fh)

    def record(self, child, traced=False, probe=False):
        """Check one child's answers; keep its measurements.  A probe
        child runs only the smallest rung, a prefix of the ladder."""
        requests = [r for r in self.requests if r[0] == 0 or not probe]
        self.attempted += len(requests)
        if child is None:
            self.failed += len(requests)
            return
        answers = []
        for (rung, n, argv, check), req in zip(requests, child["requests"]):
            report = req["report"] or {}
            answer = {"code": req["code"], "result": report.get("result"),
                      "error": report.get("error")}
            digest = hashlib.sha256(json.dumps(
                answer, sort_keys=True).encode()).hexdigest()
            answers.append((argv, n, check, req, answer, digest))
        self.digests += [a[-1] for a in answers[len(self.digests):]]
        for (argv, n, check, req, answer, digest), first in zip(
                answers, self.digests):
            problem = None
            try:
                if req["error"] is not None or req["code"] != 0:
                    problem = req["error"] or json.dumps(answer)[:300]
                elif not check(n, answer["result"]):
                    problem = "wrong answer " + json.dumps(answer)[:300]
                elif digest != first:
                    problem = "answer differs from the first repetition"
            except (KeyError, TypeError) as exc:
                problem = f"malformed answer ({exc!r})"
            if problem:
                self.failed += 1
                self.problems.append(
                    f"{self.name}: {' '.join(argv)}: exit {req['code']}, "
                    f"{problem}")
        rungs = [0.0] * len(self.ladder)
        for (rung, *_), req in zip(requests, child["requests"]):
            rungs[rung] += req["seconds"]
        if probe:
            self.probes.append({"setup_s": child["setup_s"],
                                "small_s": rungs[0]})
            return
        self.reps.append({
            "traced": traced, "setup_s": child["setup_s"],
            "peak_rss_mb": child["peak_rss_mb"], "rung_s": rungs,
            "wall_s": sum(rungs),
            "report_bytes": sum(r["report_bytes"] for r in child["requests"])})
        if traced:
            self.traced.append(child["trace"])


def run_child(args, deadline):
    """Run bench/child.py; its JSON output, or None if it failed."""
    env = {k: v for k, v in os.environ.items()
           if k != "CONVEXSPLIT_THREADS"}
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), str(SRC)] + args
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s: {args}",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        print(f"child printed no result: {proc.stdout[-500:]}",
              file=sys.stderr)
        return None


def median(values):
    return statistics.median(values) if values else None


def iq_mean(values):
    """Mean of the middle half of the values.  Robust to outliers like a
    median, but smooth where a median jumps: a short request runs wholly
    in one of the host's speed states, so its times split into two modes
    whose mix varies from run to run."""
    values = sorted(values)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k]) if values else None


def scaling_exponent(ladder, rung_seconds):
    """Least-squares slope of log(seconds) on log(n)."""
    xs = [math.log(n) for n in ladder]
    ys = [math.log(s) for s in rung_seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def end_to_end(w):
    reps, probes = w.reps, w.probes
    return {
        "setup_s": iq_mean([r["setup_s"] for r in reps + probes]),
        "wall_s": iq_mean([r["wall_s"] for r in reps]),
        "top_s": iq_mean([r["rung_s"][-1] for r in reps]),
        "small_s": iq_mean([r["rung_s"][0] for r in reps]
                           + [p["small_s"] for p in probes]),
        "peak_rss_mb": iq_mean([r["peak_rss_mb"] for r in reps]),
        "ok_rate": (w.attempted - w.failed) / w.attempted,
    }


def per_layer(w):
    """Medians of the traced repetitions, plus the untraced-run figures."""
    plain = [r for r in w.reps if not r["traced"]]
    traced = [r for r in w.reps if r["traced"]]
    out = {}
    for name, (_, unit, note) in w.traced[0]["metrics"].items():
        values = [t["metrics"][name][0] for t in w.traced]
        value = None if None in values else statistics.median_low(values)
        out[name] = {"value": value, "unit": unit}
        if note:
            out[name]["note"] = note
    out["cli.report_bytes"] = {
        "value": statistics.median_low([r["report_bytes"] for r in w.reps]),
        "unit": "bytes"}
    rung_medians = [median([r["rung_s"][i] for r in plain])
                    for i in range(len(w.ladder))]
    out["cli.scaling_exp"] = {
        "value": scaling_exponent(w.ladder, rung_medians), "unit": "slope"}
    out["trace.overhead"] = {
        "value": (median([r["wall_s"] for r in traced])
                  / median([r["wall_s"] for r in plain])),
        "unit": "ratio"}
    return out


def self_time_table(w):
    """Median self seconds by span name over the traced repetitions."""
    names = sorted({n for t in w.traced for n in t["self_s"]})
    table = {n: median([t["self_s"].get(n, 0.0) for t in w.traced])
             for n in names}
    total = sum(table.values())
    return {n: {"self_s": s, "share": s / total if total else 0.0}
            for n, s in sorted(table.items(), key=lambda kv: -kv[1])}


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine():
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc, "platform": platform.platform(),
            "note": "numbers compare only within one machine"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="one of %s, a comma-separated list, or all"
                        % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time (at least three repetitions run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write a results file here")
    args = p.parse_args(argv)
    names = (list(WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or len(set(names)) != len(names):
        p.error(f"bad --workload {args.workload!r}")
    args.names = names
    return args


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps the
    # running child, and the input directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "convexsplit" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'convexsplit'}; "
              f"run from a convexsplit checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tmp = tempfile.mkdtemp(prefix=".bench-inputs-", dir=ROOT)
    try:
        workloads = [Workload(n, args.seed, tmp) for n in args.names]
        for w in workloads:
            w.write_specs(with_spans=bool(args.out and args.trace))
        # A discarded first child compiles the bytecode cache, which a user
        # pays once per install, not per run.
        if run_child(["-", "0"], deadline) is None:
            return 3
        start = time.monotonic()
        rounds = 0
        # untraced only, or an untraced then a traced child per round
        modes = (False, True) if args.trace else (False,)
        need = 1 if args.trace else MIN_REPS
        while True:
            for w in workloads:
                for _ in range(0 if args.trace else PROBES_PER_ROUND):
                    w.record(run_child([w.small_spec, "0"], deadline),
                             probe=True)
                for traced in modes:
                    child = run_child([w.spec, "1" if traced else "0"],
                                      deadline)
                    w.record(child, traced)
            rounds += 1
            elapsed = time.monotonic() - start
            per_round = elapsed / rounds
            if rounds >= need and elapsed + per_round > args.seconds:
                break
            if time.monotonic() + per_round > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = machine()
    results = {"machine": info, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    metrics = {}
    for w in workloads:
        plain = [r for r in w.reps if not r["traced"]]
        if plain and (w.traced or not args.trace):
            values = (per_layer(w) if args.trace else
                      {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end(w).items()})
        else:
            values = {}
        entry = {"metrics": values, "reps": w.reps, "probes": w.probes,
                 "attempted": w.attempted, "failed": w.failed,
                 "problems": w.problems}
        if args.trace and w.traced:
            entry["self_time"] = self_time_table(w)
            if args.out:
                entry["spans"] = w.traced[-1].get("spans")
        results["workloads"][w.name] = entry
        prefix = "" if len(workloads) == 1 else w.name + "."
        metrics.update({prefix + k: v for k, v in values.items()})
        print(f"== {w.name}: {len(w.reps)} children, {w.attempted} "
              f"requests, {w.failed} failed")
        for problem in w.problems[:10]:
            print("   FAIL", problem)
        for name, m in values.items():
            print(f"   {name:28s} {m['value']!r:>22} {m['unit']}"
                  + (f"  ({m['note']})" if m.get("note") else ""))
        for name, row in entry.get("self_time", {}).items():
            print(f"   self {name:42s} {row['self_s']:10.4f} s "
                  f"{100 * row['share']:5.1f}%")
    print("# " + json.dumps(info, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    attempted = sum(w.attempted for w in workloads)
    failed = sum(w.failed for w in workloads)
    complete = all(w.reps for w in workloads)
    print(json.dumps({"correct": failed == 0 and complete and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
