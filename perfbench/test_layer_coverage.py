#!/usr/bin/env python3
"""Layer-coverage and ledger test for the planner benchmark.

Runs every workload of perfbench/run.py traced, then asserts that
  * each run is correct with no failed job;
  * each workload's dominant layer takes >= 50% of its job time and <= 5%
    of at least one other workload's job time (a benchmark whose workloads
    all spend their time in the same place cannot isolate a layer);
  * a second traced run of the same seed reproduces every exact count.

    python3 perfbench/test_layer_coverage.py [--seconds 6] [--seed 1]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import LAYERS, WORKLOADS  # noqa: E402

EXACT = ["core.search_moves", "core.search_candidates", "lp.iterations",
         "lp.refactorizations", "core.iterative_rounds", "core.iterative_lp_iterations",
         "sim.requests_simulated", "sim.retry_ratio", "sim.degraded_p99_ms"]


def traced_run(workload, seed, seconds):
    run_py = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    errors = []
    shares = {}
    for workload in WORKLOADS:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload}: correct={result['correct']} "
                              f"failed={result['failed']}")
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} differs between runs ({a} != {b})")
        shares[workload] = {layer: first["metrics"][f"layer.{layer}_pct"]["value"]
                            for layer in LAYERS}
        print(f"{workload}: " + ", ".join(f"{k} {v:.1f}%" for k, v in shares[workload].items()))

    for workload, info in WORKLOADS.items():
        layer = info["dominant"]
        own = shares[workload][layer]
        if own < 50.0:
            errors.append(f"{workload}: dominant layer {layer} is only {own:.1f}% of job time")
        others = {w: s[layer] for w, s in shares.items() if w != workload}
        if min(others.values()) > 5.0:
            errors.append(f"{workload}: layer {layer} exceeds 5% in every other workload "
                          f"({others})")
        for idle in info["idle"]:
            if shares[workload][idle] > 5.0:
                errors.append(f"{workload}: idle layer {idle} takes "
                              f"{shares[workload][idle]:.1f}% of job time")

    for error in errors:
        print("FAIL " + error)
    print("layer coverage: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
