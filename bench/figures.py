#!/usr/bin/env python3
"""Regenerate the reference figures of bench/README.md.

Run from the root of a gdrq checkout:

    python3 bench/figures.py --seeds 1-10 --seconds 40

For every workload it runs bench/run.py once per seed, untraced and one after
another, and prints the median and quartiles of each end-to-end metric with
its spread (quartile distance over median) and the failed share; then one
traced run per workload at the first seed, as a per-layer table.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ("ensemble", "exact-scan", "protocol")  # those of BENCHMARK.json


def run(workload, seed, seconds, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: checks failed:\n{done.stderr}", file=sys.stderr)
    return result


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    seeds = seeds_of(args.seeds)
    workloads = args.workloads.split(",")

    print(f"| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        results = [run(workload, seed, args.seconds, 0) for seed in seeds]
        shares = {r["failed"] / r["attempted"] for r in results}
        share = f"{shares.pop():.4f} in every run" if len(shares) == 1 else "DIFFERS between runs"
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"| {workload} | {name} ({first['unit']}) | {median:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / median:.3f} | {share} |")
        sys.stdout.flush()

    for workload in workloads:
        metrics = run(workload, seeds[0], args.seconds, 1)["metrics"]
        print(f"\n{workload}, traced at seed {seeds[0]}:\n")
        print("| layer | calls | self ms |")
        print("| --- | --- | --- |")
        layers = [m[: -len(".calls")] for m in metrics if m.endswith(".calls")]
        layers.sort(key=lambda layer: -metrics[f"{layer}.self_ms"]["value"])
        for layer in layers:
            calls = metrics[f"{layer}.calls"]["value"]
            if calls:
                print(f"| {layer} | {calls} | {metrics[f'{layer}.self_ms']['value']:.1f} |")
        for name, metric in metrics.items():
            if not name.endswith((".calls", ".self_ms")):
                print(f"| {name} ({metric['unit']}) | {metric['value']:.4g} | |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
