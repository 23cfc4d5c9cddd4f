#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload with alternating pairs.

Usage:

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload reorder-rules \\
        --seeds 8001-8010 [--trace 0|1] [--log pairs.jsonl] [--show m1,m2]

Each directory is the root of a checkout of this repository. The script
builds each checkout's perfbench, then runs one pair per seed: both sides
on the same seed, from their own root, for BENCHMARK.json's run_seconds,
the parent first on even pairs and the change first on odd ones. Every
run's result line is appended to the log (default
CHANGE_DIR/.bench_work/pairs.jsonl).

For each metric it prints each side's median and quartiles (the exclusive
method of statistics.quantiles, n=4), the change's median over the
parent's, and the change's wins out of the pairs (ties count for neither
side). End-to-end metrics also get a verdict by the paired claim rule:

  gain            the change wins at least 9 pairs in 10 and the medians
                  differ by more than the parent's quartile distance
  unresolved      either side's quartile distance is wider than the bound
                  (as a share of its median), unless every change run
                  reads better than every parent run
  within bound    the change's median is worse by at most the bound
  beyond bound    the change's median is worse by more than the bound

`--show` lists the named metrics pair by pair after the summary. The
script exits 1 if any run reports an incorrect answer.
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


def build(root):
    cmd = ["cargo", "build", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml"]
    if subprocess.run(cmd, cwd=root).returncode != 0:
        sys.exit(f"{root}: perfbench does not build")


def run(root, bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{root} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def better(a, b, direction):
    """Is value `a` better than `b`?"""
    return a < b if direction == "lower" else a > b


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return statistics.median(values), q1, q3


def verdict(parent, change, direction, bound):
    n = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    if bound is None:
        return wins, ""
    pm, pq1, pq3 = summary(parent)
    cm, cq1, cq3 = summary(change)
    if wins * 10 >= 9 * n and better(cm, pm, direction) and abs(cm - pm) > pq3 - pq1:
        return wins, "gain"
    spread = max((pq3 - pq1) / pm if pm else 0.0, (cq3 - cq1) / cm if cm else 0.0)
    dominates = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not dominates:
        return wins, "unresolved"
    worse = (cm - pm if direction == "lower" else pm - cm) / pm if pm else 0.0
    return wins, "within bound" if worse <= bound else "beyond bound"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--log")
    parser.add_argument("--show", default="",
                        help="comma-separated metrics to list pair by pair")
    args = parser.parse_args()
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    bench = json.load(open(os.path.join(change, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    log_path = args.log or os.path.join(change, ".bench_work", "pairs.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    log = open(log_path, "a")

    build(parent)
    build(change)
    results = {"parent": [], "change": []}
    incorrect = 0
    seeds = seeds_of(args.seeds)
    for i, seed in enumerate(seeds):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for side, root in order:
            result = run(root, bench, args.workload, seed, args.trace)
            log.write(json.dumps({"side": side, "workload": args.workload, "seed": seed,
                                  "trace": args.trace, "result": result}) + "\n")
            log.flush()
            if not result["correct"]:
                incorrect += 1
                print(f"{side} seed {seed}: incorrect, {result['failed']} failed")
            results[side].append(result["metrics"])
        print(f"pair {i + 1} (seed {seed}) done", file=sys.stderr)

    n = len(results["parent"])
    print(f"== {args.workload}, {n} pairs, seeds {args.seeds}, trace {args.trace}")
    print(f"  {'metric':28s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'ratio':>7s} {'wins':>6s}  verdict")
    for name in results["parent"][0]:
        p = [r[name]["value"] for r in results["parent"]]
        c = [r.get(name, {}).get("value") for r in results["change"]]
        if any(v is None for v in p + c):
            print(f"  {name:28s} unmeasured in some run")
            continue
        meta = metrics.get(name, {})
        wins, v = verdict(p, c, meta.get("better", "lower"), meta.get("bound"))
        pm, cm = statistics.median(p), statistics.median(c)
        sides = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]" for m, q1, q3 in (summary(p), summary(c))]
        ratio = f"{cm / pm:.3f}" if pm else "-"
        print(f"  {name:28s} {sides[0]:34s} {sides[1]:34s} {ratio:>7s} {wins:>3d}/{n:<2d}  {v}")
    shown = [m for m in args.show.split(",") if m]
    if shown:
        print("  seed | first | " + " | ".join(f"{m} parent | change" for m in shown))
        for i, seed in enumerate(seeds):
            values = [results[side][i].get(m, {}).get("value")
                      for m in shown for side in ("parent", "change")]
            cells = ["-" if v is None else f"{v:.6g}" for v in values]
            print(f"  {seed} | {'change' if i % 2 else 'parent'} | " + " | ".join(cells))
    if incorrect:
        sys.exit(1)


if __name__ == "__main__":
    main()
