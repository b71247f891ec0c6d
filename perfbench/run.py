"""The solvlab benchmark: one command per workload, metrics as one JSON line.

    python3 perfbench/run.py --workload sweep-insoluble --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload, each in a fresh interpreter
(workload.py), until --seconds have passed, then checks every round's
output (outputs.py) and prints, as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: the medians over the
rounds of setup_s, run_s, peak_rss_mib and verdicts.  With --trace 1,
untraced and traced rounds alternate on the same inputs, and the metrics
are the per-layer ones (medians over the traced rounds) plus the tracing
overhead.  attempted and failed count operations (groups swept or table2
rows validated) over all rounds.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import time

import outputs

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-soluble", "sweep-insoluble", "classify-table2")
ROUND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": ("setup_s", "s"),
    "run_s": ("run_s", "s"),
    "peak_rss_mib": ("rss_mib", "MiB"),
    "verdicts": ("verdicts", "count"),
}


def layer_unit(name: str) -> str:
    if name.startswith("perm."):
        return "1/s"
    if name.endswith(".calls") or name.endswith(".builds"):
        return "count"
    return "s"


class BenchmarkError(Exception):
    """The benchmark could not run: no result is printed."""


def run_round(workload: str, seed: int, round_index: int, trace: int) -> dict:
    src = ROOT / "src"
    if not (src / "solvlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no solvlab sources under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--round", str(round_index),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"round {round_index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_round(workload: str, seed: int, round_index: int, result: dict) -> list[str]:
    if workload == "classify-table2":
        golden = json.loads(outputs.GOLDEN.read_text(encoding="utf-8"))
        return outputs.check_classify(result, golden)
    reference = json.loads(outputs.REFERENCE.read_text(encoding="utf-8"))
    rng = random.Random(f"solvlab-perfbench/check/{seed}/{round_index}")
    return outputs.check_sweep(result, reference, rng)


def run_rounds(workload: str, seed: int, seconds: float, trace: int) -> list:
    """(round index, traced, result) for whole rounds until `seconds` have passed.

    With tracing, each untraced round is followed by a traced one on the same
    inputs, so their run times give the tracing overhead.
    """
    rounds = []
    start = time.monotonic()
    k = 0
    while True:
        rounds.append((k, 0, run_round(workload, seed, k, 0)))
        if trace:
            rounds.append((k, 1, run_round(workload, seed, k, 1)))
        k += 1
        if time.monotonic() - start >= seconds:
            return rounds


def summarize(workload: str, seed: int, rounds: list, trace: int) -> dict:
    """Check every round's output and reduce the rounds to the result line."""
    problems: list[str] = []
    for index, _, result in rounds:
        problems += [f"round {index}: {p}" for p in check_round(workload, seed, index, result)]
    for problem in problems:
        print(f"output check failed: {problem}", file=sys.stderr)

    median = statistics.median_low
    untraced = [r for _, traced, r in rounds if not traced]
    metrics: dict[str, dict] = {}
    if trace:
        traced = [r for _, t, r in rounds if t]
        for name in traced[0]["layers"]:
            value = median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        overhead = median(100.0 * (t["run_s"] / u["run_s"] - 1.0) for u, t in zip(untraced, traced))
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        for name, (key, unit) in END_TO_END.items():
            metrics[name] = {"value": median(r[key] for r in untraced), "unit": unit}

    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for _, _, r in rounds),
        "failed": sum(len(r["failures"]) for _, _, r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        rounds = run_rounds(ns.workload, ns.seed, ns.seconds, ns.trace)
        result = summarize(ns.workload, ns.seed, rounds, ns.trace)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
