#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

For every workload and end-to-end metric it prints the median over the
seeds, the interquartile range as a share of the median (the exclusive
method of statistics.quantiles, n=4), and whether that spread stays
under a third of the metric's bound in BENCHMARK.json. Raw results are
kept one JSON line per run in .bench_work/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_work", exist_ok=True)
    log = open(os.path.join(".bench_work", "spread.jsonl"), "a")
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            log.flush()
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect, {result['failed']} failed")
            runs.append(result["metrics"])
        print(f"== {workload} ({len(runs)} seeds)")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            if any(v is None for v in values):
                print(f"  {name:28s} unmeasured in some run")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, share / bound)
                verdict = "ok" if share < bound / 3 else f"OVER bound/3 ({bound / 3:.4f})"
            print(f"  {name:28s} median {med:<14.6g} iqr/median {share:.4f} {verdict}")
    print(f"worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
