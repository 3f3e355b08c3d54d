#!/usr/bin/env python3
"""Steadiness self-check: repeat workloads and print each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/steady.py --runs 10 --first-seed 1 --second-seed 101 [--workload build-cold ...]

Each run of a set uses its own seed (first-seed, first-seed+1, ...). For
every end-to-end metric the script prints, per set, the median, the
quartiles from statistics.quantiles(values, n=4) and the interquartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json and the target of a third of it. With --second-seed it runs
a second set right after the first and also prints how far each median
moved from the first set's, as a share of it, where a move in the
metric's worse direction is held to its bound. Exits 1 if any run fails,
any spread exceeds its bound, or any median got worse by more than it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_set(bench, name, runs, first_seed):
    """Runs one workload once per seed; returns metric -> values, ok."""
    values, ok = {}, True
    for seed in range(first_seed, first_seed + runs):
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.time()
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        wall = time.time() - t0
        lines = done.stdout.decode().strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr.decode(errors="replace")[-3000:])
            print("%s seed %d: exit %d" % (name, seed, done.returncode))
            ok = False
            continue
        res = json.loads(lines[-1])
        print("%s seed %d: %.1fs correct=%s attempted=%d" % (name, seed, wall, res["correct"], res["attempted"]),
              flush=True)
        ok = ok and res["correct"]
        for metric, v in res["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    return values, ok


def summarize(values):
    """metric -> (median, q1, q3, spread) for metrics with two or more values."""
    out = {}
    for metric, vs in values.items():
        if len(vs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        out[metric] = (med, q1, q3, (q3 - q1) / med if med else float("inf"))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int, help="first seed of a second set, compared with the first")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = [args.first_seed] + ([args.second_seed] if args.second_seed is not None else [])
    ok = True
    for name in names:
        sets = []
        for first in seeds:
            values, set_ok = run_set(bench, name, args.runs, first)
            ok = ok and set_ok
            sets.append(summarize(values))
        for k, stats in enumerate(sets):
            print("\n%s, %d runs from seed %d" % (name, args.runs, seeds[k]))
            print("  %-22s %12s %12s %12s %8s %8s %8s %9s" % (
                "metric", "median", "q1", "q3", "spread", "bound", "bound/3", "vs set 1"))
            for metric in sorted(stats):
                med, q1, q3, spread = stats[metric]
                bound = metrics[metric]["bound"] if metric in metrics else None
                flags, moved = [], ""
                if bound is not None:
                    if spread > bound:
                        flags.append("SPREAD OVER BOUND")
                        ok = False
                    elif spread > bound / 3:
                        flags.append("spread over bound/3")
                    if k > 0 and metric in sets[0]:
                        base = sets[0][metric][0]
                        change = (med - base) / base if base else 0.0
                        moved = "%+.4f" % change
                        worse = change if metrics[metric]["better"] == "lower" else -change
                        if worse > bound:
                            flags.append("MEDIAN WORSE BY MORE THAN BOUND")
                            ok = False
                print("  %-22s %12.6g %12.6g %12.6g %8.4f %8s %8s %9s  %s" % (
                    metric, med, q1, q3, spread,
                    "-" if bound is None else "%.3f" % bound,
                    "-" if bound is None else "%.3f" % (bound / 3), moved, ", ".join(flags)), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
