"""The benchmark's self-test and one traced run, both with the suite: an
engine change that breaks the benchmark's output checks, its operation
counts or the functions its tracer wraps by name fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_exits_0():
    # no bytecode files are left under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_traced_run_reports_every_declared_layer_metric():
    # perfbench/spans.py wraps solvlab functions by name, and the self-test
    # never installs the tracer: a renamed function drops its span's metrics
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "sweep-soluble",
            "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - set(summary["metrics"])
    assert not missing
