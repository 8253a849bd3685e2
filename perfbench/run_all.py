"""Run every workload once, each in a fresh process, and print its metrics.

    python3 perfbench/run_all.py [--seed 7] [--seconds 20] [--trace 0]

Prints one line per metric: workload, name, value and unit, plus each
workload's failed_ratio (failed queries over queries attempted). Exits 1
if any workload's outputs were not all correct.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        print(f"{workload:18s} {'failed_ratio':42s} "
              f"{result['failed'] / result['attempted']:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']} queries)")
        for name, metric in result["metrics"].items():
            print(f"{workload:18s} {name:42s} {metric['value']:>14.6g} {metric['unit']}")
        sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
