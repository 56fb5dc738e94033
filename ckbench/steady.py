"""Steadiness check: rerun the benchmark on one checkout with several seeds
and print, per workload and end-to-end metric, the median and quartiles of
the normalised values next to the raw wall-clock ones.

    python3 ckbench/steady.py --runs 10 complex-chain nc-leray

With no workload named it runs all three; with --runs 1 it just prints each
workload's metrics, attempted and failed counts.  The spread column is
(q3 - q1) / median, the figure the bounds in BENCHMARK.json are checked
against.  Runs go one at a time, on seeds first-seed, first-seed + 1, ...,
each as long as BENCHMARK.json's `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output: "
                         f"{details['incorrect'][:3]}")
    return result, details


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(wl.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = wl.run_seconds()
    for workload in args.workloads:
        norm: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, details = one_run(workload, seed, seconds)
            for name, m in result["metrics"].items():
                norm.setdefault(name, []).append(m["value"])
                if name in details["raw"]:
                    raw.setdefault(name, []).append(details["raw"][name])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g} {m['unit']}"
                for k, m in result["metrics"].items())
                + f"  attempted={result['attempted']}"
                + f" failed={result['failed']}", flush=True)
        if args.runs < 2:
            continue
        print(f"{workload}: {args.runs} runs")
        print(f"  {'metric':<18}{'median':>11}{'q1':>11}{'q3':>11}"
              f"{'spread':>8}"
              f"   {'raw median':>11}{'raw spread':>11}")
        for name, values in norm.items():
            med, q1, q3, sp = spread(values)
            line = f"  {name:<18}{med:>11.5g}{q1:>11.5g}{q3:>11.5g}{sp:>8.2%}"
            if name in raw:
                rmed, _, _, rsp = spread(raw[name])
                line += f"   {rmed:>11.5g}{rsp:>11.2%}"
            print(line, flush=True)


if __name__ == "__main__":
    main()
