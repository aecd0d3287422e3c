"""One benchmark repetition, run in a fresh interpreter by bench/run.py.

Usage: python3 -I bench/child.py SRC_DIR SPEC_FILE|- TRACE(0|1)

Times the import of ``convexsplit.cli`` plus ``build_parser()`` (the
set-up cost), then, unless SPEC_FILE is ``-``, calls
``convexsplit.cli.main(argv)`` once per request in the spec, one after
another, capturing each report.  With TRACE=1 the layer hooks of
bench/layers.py are installed after set-up.  Prints one JSON object.

Only ``sys`` and ``time`` are imported before set-up is timed, so the
modules the package pulls in (argparse, fractions, json, ...) count
towards set-up as they would for a user.
"""

import sys
import time


def main() -> int:
    src, spec_file, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import convexsplit.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import os
    import resource

    # A stray installed copy must not stand in for the checkout's source.
    if not os.path.abspath(cli.__file__).startswith(
            os.path.abspath(src) + os.sep):
        print(f"convexsplit imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    out = {"setup_s": setup_s}
    if spec_file == "-":
        print(json.dumps(out))
        return 0
    with open(spec_file, encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers
        tracer = layers.Tracer()
        tracer.install()

    requests = []
    for i, argv in enumerate(spec["requests"]):
        if tracer is not None:
            tracer.request = i
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not ours
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        text = stdout.getvalue()
        report = None
        if error is None:
            try:
                report = json.loads(text)
            except ValueError:
                error = "report is not JSON: " + stderr.getvalue()[-300:]
        requests.append({"seconds": seconds, "code": code, "error": error,
                         "report_bytes": len(text.encode("utf-8")),
                         "report": report})
    out["requests"] = requests
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.summary([r["seconds"] for r in requests],
                                      spec.get("spans", False))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
