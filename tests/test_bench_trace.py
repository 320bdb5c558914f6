"""Smoke test of the traced benchmark run.

``bench/tracing.py`` wraps ``paracap`` functions and methods by the names
their callers look up, so a refactor of those callers can break
``bench/run.py --trace 1`` while every unit test passes. This runs one
short traced run and requires it to finish, to pass the benchmark's own
checks, and to report a finite value for every per-layer metric that
``BENCHMARK.json`` declares.
"""

import json
import math
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.slow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_train_overfit_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "train-overfit",
         "--seed", "1", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    metrics = result["metrics"]
    bad = [n for n in names if n not in metrics or not math.isfinite(metrics[n]["value"])]
    assert not bad, f"missing or non-finite per-layer metrics: {bad}"
