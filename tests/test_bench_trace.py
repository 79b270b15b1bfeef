"""The traced benchmark run reports every per-layer metric BENCHMARK.json lists.

bench/tracing.py wraps the stage functions and the solver's methods by name
from outside the package.  A solver change that removes or renames one of
those boundaries makes the tracer drop the metrics it feeds; this runs the
traced benchmark on its smallest workload and checks that nothing is
dropped.  It reads bench/ and writes nothing there, not even bytecode.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_bench_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert "trace: dropped" not in proc.stderr, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
