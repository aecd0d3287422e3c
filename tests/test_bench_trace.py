"""The benchmark's traced pass, end to end.

``bench/run.py --trace 1`` prints per-layer metrics that reach into the
package's private hooks (bench/layers.py).  A refactor that renames or
deletes a hook leaves the run exiting 0 with a null metric; this test
runs the traced pass at its smallest setting and requires a correct run
whose every metric is a finite number.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_pass_reports_finite_metrics():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    metrics = summary["metrics"]
    assert metrics
    bad = {name: m["value"] for name, m in metrics.items()
           if isinstance(m["value"], bool)
           or not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])}
    assert bad == {}
