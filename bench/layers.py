"""Layer tracing for the benchmark's traced run (``--trace 1``).

Nothing here runs in the timed end-to-end runs: bench/child.py imports
this module only when tracing, after set-up has been timed.

Spans wrap each module's public entry points under the name callers look
them up by (``cli.decompose_curve``, ``crossing.span_hyperplane``, ...),
so a call is seen exactly where the package makes it.  Each span records
its name, start, end, parent span and request.  A layer's self time is its
span minus its child spans; ``cli.self_s`` is request time outside every
library span.

Hot paths get counters instead of spans.  ``PointSeq.orientation_of`` and
``KSequence.sign_at`` are public; ``_det_sign``, ``_direction``,
``_extend`` and ``PointSeq._sign_cache`` are private hooks that later
refactors may rename or delete.  A missing hook is noted and the metrics
that need it read null; it never stops the traced run.
"""

import time
from collections import Counter
from functools import cached_property, wraps

from convexsplit import cli, crossing, curves, exactgeom, kseq, ramsey

# (owner, attribute, key): a span named "<owner>.<attribute>" around what
# ``owner.attribute`` resolves to.  Spans sharing a key are one entry point
# seen from different callers; only the outermost of nested same-key spans
# counts towards that key's calls and seconds.
SPANS = (
    ("cli", "decompose_curve", "decompose_curve"),
    ("cli", "epsilon_sample", "sample"),
    ("curves", "epsilon_sample", "sample"),
    ("IncrementalGeneralPosition", "try_add", "try_add"),
    ("PolyPath", "__post_init__", "polypath"),
    ("cli", "is_general_position", "gp"),
    ("crossing", "is_general_position", "gp"),
    ("ramsey", "is_general_position", "gp"),
    ("crossing", "span_hyperplane", "span"),
    ("cli", "is_order_type_homogeneous", "homog"),
    ("crossing", "is_order_type_homogeneous", "homog"),
    ("ramsey", "is_order_type_homogeneous", "homog"),
    ("cli", "is_flip", "flip"),
    ("cli", "decompose", "decompose"),
    ("curves", "decompose", "decompose"),
    ("ramsey", "decompose", "decompose"),
    ("kseq", "greedy_partition", "greedy"),
    ("cli", "max_crossings", "oracle"),
    ("curves", "max_crossings", "oracle"),
    ("cli", "witness_crossings", "witness"),
    ("cli", "longest_ot_homogeneous", "longest"),
    ("cli", "super_extract", "extract"),
)

OWNERS = {
    "cli": cli, "curves": curves, "crossing": crossing, "kseq": kseq,
    "ramsey": ramsey,
    "IncrementalGeneralPosition": getattr(
        exactgeom, "IncrementalGeneralPosition", None),
    "PolyPath": getattr(crossing, "PolyPath", None),
}

# Span record fields.
NAME, KEY, PARENT, REQUEST, START, END, PROBE0, PROBE1, EXTRA = range(9)


def _sample_counts(sample):
    return {"points": len(sample.path.seq), "retries": sample.retries}


def _try_add_counts(witness):
    return {"rejects": int(witness is not None)}


# Counts read off an entry point's return value.
RESULT_COUNTS = {"sample": _sample_counts, "try_add": _try_add_counts}

# metric -> (unit, hooks it needs, function of the Stats)
METRICS = {
    "cli.self_s": ("s", (), lambda s: s.cli_self),
    "curves.sample_s": ("s", ("sample",), lambda s: s.seconds["sample"]),
    "curves.points": ("count", ("sample",),
                      lambda s: s.extra["sample"]["points"]),
    "curves.retries": ("count", ("sample",),
                       lambda s: s.extra["sample"]["retries"]),
    "exactgeom.try_add_calls": ("count", ("try_add",),
                                lambda s: s.calls["try_add"]),
    "exactgeom.try_add_s": ("s", ("try_add",),
                            lambda s: s.seconds["try_add"]),
    "exactgeom.try_add_rejects": ("count", ("try_add",),
                                  lambda s: s.extra["try_add"]["rejects"]),
    "exactgeom.direction_evals": ("count", ("_direction",),
                                  lambda s: s.counts["direction"]),
    "exactgeom.gp_calls": ("count", ("gp",), lambda s: s.calls["gp"]),
    "exactgeom.gp_s": ("s", ("gp",), lambda s: s.seconds["gp"]),
    "exactgeom.orient_calls": ("count", ("orientation_of",),
                               lambda s: sum(s.orient)),
    "exactgeom.det_evals_d2": ("count", ("_det_sign",),
                               lambda s: s.dets[3]),
    "exactgeom.det_evals_d3": ("count", ("_det_sign",),
                               lambda s: s.dets[4]),
    "exactgeom.cache_hit_ratio": ("ratio", ("_sign_cache",),
                                  lambda s: s.cache[1] / s.cache[0]
                                  if s.cache[0] else 0.0),
    "exactgeom.cache_entries": ("count", ("_sign_cache",),
                                lambda s: s.cache[2]),
    "exactgeom.orient_rate_d2": ("1/s", ("orientation_of", "homog"),
                                 lambda s: s.orient_rate(2)),
    "exactgeom.orient_rate_d3": ("1/s", ("orientation_of", "homog"),
                                 lambda s: s.orient_rate(3)),
    "exactgeom.span_calls": ("count", ("span",), lambda s: s.calls["span"]),
    "exactgeom.span_s": ("s", ("span",), lambda s: s.seconds["span"]),
    "ordertype.homog_calls": ("count", ("homog",),
                              lambda s: s.calls["homog"]),
    "ordertype.homog_s": ("s", ("homog",), lambda s: s.seconds["homog"]),
    "ordertype.flip_s": ("s", ("flip",), lambda s: s.seconds["flip"]),
    "kseq.greedy_calls": ("count", ("greedy",), lambda s: s.calls["greedy"]),
    "kseq.greedy_s": ("s", ("greedy",), lambda s: s.seconds["greedy"]),
    "kseq.extensions": ("count", ("_extend",),
                        lambda s: s.counts["extend"]),
    "kseq.sign_at_calls": ("count", ("sign_at",),
                           lambda s: s.counts["sign_at"]),
    "crossing.polypath_calls": ("count", ("polypath",),
                                lambda s: s.calls["polypath"]),
    "crossing.oracle_s": ("s", ("oracle",), lambda s: s.seconds["oracle"]),
    "crossing.oracle_subsets": ("count", ("oracle", "span"),
                                lambda s: s.oracle_subsets),
    "crossing.witness_s": ("s", ("witness",),
                           lambda s: s.seconds["witness"]),
    "ramsey.extract_s": ("s", ("extract",), lambda s: s.seconds["extract"]),
    "ramsey.longest_s": ("s", ("longest",), lambda s: s.seconds["longest"]),
}


class Tracer:
    """Spans and counters for one child process; install() patches the
    package in place for the rest of the process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.missing = {}            # hook -> note
        self.orient = [0] * 32       # orientation_of calls by tuple length
        self.dets = [0] * 32         # _det_sign evaluations by matrix size
        self.cache = [0, 0, 0]       # sign-cache lookups, hits, inserts
        self.counts = Counter()

    def install(self):
        found, absent = set(), {}
        for owner_name, attr, key in SPANS:
            owner = OWNERS[owner_name]
            fn = getattr(owner, attr, None)
            if not callable(fn):
                absent.setdefault(key, []).append(f"{owner_name}.{attr}")
                continue
            found.add(key)
            probe = self._orient_probe if key == "homog" else None
            setattr(owner, attr, self._span(f"{owner_name}.{attr}", key, fn,
                                            probe, RESULT_COUNTS.get(key)))
        # A key still seen from some caller keeps its metrics.
        for key, names in absent.items():
            if key not in found:
                self.missing[key] = ", ".join(names) + " not found"
        self._count_orientation()
        self._count_det_sign()
        self._count_calls(exactgeom, "_direction", "direction")
        self._count_calls(kseq, "_extend", "extend")
        self._count_calls(getattr(kseq, "KSequence", None), "sign_at",
                          "sign_at")
        self._count_sign_cache()

    def _orient_probe(self):
        return tuple(self.orient)

    def _span(self, name, key, fn, probe, result_counts):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            rec = [name, key, stack[-1] if stack else -1, self.request,
                   0.0, 0.0, probe() if probe else None, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
            if probe:
                rec[PROBE1] = probe()
            if result_counts:
                try:
                    rec[EXTRA] = result_counts(out)
                except (AttributeError, TypeError) as exc:
                    self.missing.setdefault(
                        key, f"{name} result changed shape: {exc}")
            return out

        return span

    def _count_calls(self, owner, attr, key):
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing[attr] = \
                f"{getattr(owner, '__name__', owner)}.{attr} not found"
            return
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def _count_orientation(self):
        seq_cls = getattr(exactgeom, "PointSeq", None)
        fn = getattr(seq_cls, "orientation_of", None)
        if not callable(fn):
            self.missing["orientation_of"] = \
                "PointSeq.orientation_of not found"
            return
        orient = self.orient

        @wraps(fn)
        def orientation_of(seq, idx):
            orient[len(idx)] += 1
            return fn(seq, idx)

        seq_cls.orientation_of = orientation_of

    def _count_det_sign(self):
        fn = getattr(exactgeom, "_det_sign", None)
        if not callable(fn):
            self.missing["_det_sign"] = "exactgeom._det_sign not found"
            return
        dets = self.dets

        @wraps(fn)
        def _det_sign(rows):
            dets[len(rows)] += 1
            return fn(rows)

        exactgeom._det_sign = _det_sign

    def _count_sign_cache(self):
        seq_cls = getattr(exactgeom, "PointSeq", None)
        if not isinstance(vars(seq_cls).get("_sign_cache") if seq_cls
                          else None, cached_property):
            self.missing["_sign_cache"] = \
                "PointSeq._sign_cache is not a cached_property dict"
            return
        stats = self.cache

        class CountingDict(dict):
            __slots__ = ()

            def get(self, key, default=None):
                stats[0] += 1
                value = dict.get(self, key, default)
                if value is not None:
                    stats[1] += 1
                return value

            def __setitem__(self, key, value):
                stats[2] += 1
                dict.__setitem__(self, key, value)

        prop = cached_property(lambda seq: CountingDict())
        prop.__set_name__(seq_cls, "_sign_cache")
        seq_cls._sign_cache = prop

    def summary(self, request_seconds, with_spans=False):
        """Per-layer metrics ({name: [value or None, unit, note]}), self
        time by span name, and optionally the raw spans."""
        stats = Stats(self, request_seconds)
        metrics = {}
        for name, (unit, needs, fn) in METRICS.items():
            notes = [self.missing[h] for h in needs if h in self.missing]
            metrics[name] = ([None, unit, "; ".join(notes)] if notes
                             else [fn(stats), unit, None])
        out = {"metrics": metrics, "self_s": dict(stats.self_by_name)}
        if with_spans:
            out["spans"] = [rec[:EXTRA] for rec in self.spans]
        return out


class Stats:
    """Aggregates of one traced ladder."""

    def __init__(self, tracer, request_seconds):
        spans = tracer.spans
        self.orient, self.dets, self.cache = \
            tracer.orient, tracer.dets, tracer.cache
        self.counts = tracer.counts
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self.self_by_name = Counter()
        self.calls, self.seconds = Counter(), Counter()
        self.extra = {"sample": Counter(), "try_add": Counter()}
        self.outer_homog = []
        self.oracle_subsets = 0
        top_level = 0.0
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            self.self_by_name[rec[NAME]] += dur - child[i]
            if rec[PARENT] < 0:
                top_level += dur
            ancestors = set()
            p = rec[PARENT]
            while p >= 0:
                ancestors.add(spans[p][KEY])
                p = spans[p][PARENT]
            if rec[KEY] == "span" and "oracle" in ancestors:
                self.oracle_subsets += 1
            if rec[KEY] in ancestors:
                continue
            self.calls[rec[KEY]] += 1
            self.seconds[rec[KEY]] += dur
            if rec[EXTRA]:
                self.extra[rec[KEY]].update(rec[EXTRA])
            if rec[KEY] == "homog":
                self.outer_homog.append(rec)
        self.cli_self = sum(request_seconds) - top_level

    def orient_rate(self, d):
        """Orientation calls on d-dimensional points per second of the
        order-type homogeneity checks that made them."""
        calls = seconds = 0
        for rec in self.outer_homog:
            if rec[PROBE1] is None:      # the check raised
                continue
            delta = rec[PROBE1][d + 1] - rec[PROBE0][d + 1]
            if delta:
                calls += delta
                seconds += rec[END] - rec[START]
        return calls / seconds if seconds else 0.0
