#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 campbench/study.py [--workloads hunt,reduce,bisect] [--seeds 1-10]
                               [--trace 0] [--out results.json]
    python3 campbench/study.py --compare first.json second.json

For each workload and metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), the figure the bounds in BENCHMARK.json
are chosen against, plus the attempted and failed item counts.  --compare
reads two saved sets and prints each set's spread, the change of the
median from the first set to the second, and the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("nan"))


def compare(first, second):
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    sets = []
    for path in (first, second):
        with open(path) as f:
            sets.append(json.load(f))
    for workload, runs_a in sets[0].items():
        runs_b = sets[1][workload]
        print(f"\n{workload} ({len(runs_a)} + {len(runs_b)} runs)")
        print(f"  {'metric':<16} {'median 1':>12} {'spread 1':>9} {'median 2':>12} {'spread 2':>9} "
              f"{'change':>8} {'bound':>6}")
        for name in runs_a[0]["metrics"]:
            med_a, sp_a = spread([r["metrics"][name]["value"] for r in runs_a])
            med_b, sp_b = spread([r["metrics"][name]["value"] for r in runs_b])
            change = (med_b - med_a) / med_a if med_a else float("nan")
            bound = bounds.get(name)
            print(f"  {name:<16} {med_a:>12.6g} {sp_a:>9.2%} {med_b:>12.6g} {sp_b:>9.2%} "
                  f"{change:>+8.2%} {bound if bound is not None else '':>6}")
        shares = {r["failed"] / r["attempted"] for r in runs_a + runs_b}
        print(f"  failed share over both sets: {sorted(shares)}")


def main():
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        return compare(sys.argv[2], sys.argv[3])
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="hunt,reduce,bisect")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t0 = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            result["wall_s"] = time.time() - t0
            result["report"] = out.strip().splitlines()[:-1]
            runs.append(result)
            timing = [line.strip() for line in result["report"] if "raw s" in line]
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}; " + "; ".join(timing),
                  file=sys.stderr)
        results[workload] = runs
        print(f"\n{workload} ({len(runs)} runs, {max(r['wall_s'] for r in runs):.0f} s longest)")
        print(f"  {'metric':<34} {'median':>14} {'spread':>8}  unit")
        wall = runs[0]["metrics"].get("trace.untraced_s")
        wall = wall and statistics.median(r["metrics"]["trace.untraced_s"]["value"] for r in runs)
        for name, m in runs[0]["metrics"].items():
            med, sp = spread([r["metrics"][name]["value"] for r in runs])
            # per-layer times also as a share of the untraced wall time
            share = f"  {med / wall:6.1%} of wall" if wall and m["unit"] == "ref_s" else ""
            print(f"  {name:<34} {med:>14.6g} {sp:>8.2%}  {m['unit']}{share}")
        failed = [r["failed"] / r["attempted"] for r in runs]
        print(f"  failed share: {sorted(set(failed))}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())
