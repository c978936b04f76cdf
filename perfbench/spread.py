#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the workloads in alternation (each workload once per seed, then
the next seed), so a slow stretch of the machine falls on every
workload alike.  For each workload and end-to-end metric it reports the
median over the runs and the spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.  A spread above
a third of its bound is flagged (setup_s is reported only).

--seeds gives each run another seed, as an acceptance check across
inputs does; --repeat-seed N --runs R runs seed N R times, which shows
how repeatable one input is, as a comparison of two builds on the same
seed needs.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--workloads shard-hit,cold-solve] --seeds 1-10
    python3 perfbench/spread.py --repeat-seed 1 --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat-seed", type=int)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = ([args.repeat_seed] * args.runs if args.repeat_seed is not None
             else seeds_of(args.seeds))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {name: [] for name in bounds} for w in workloads}
    for seed in seeds:
        for w in workloads:
            result = run_once(w, seed, bench["run_seconds"])
            for name in bounds:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds),
                flush=True)
    steady = True
    for w in workloads:
        for name, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"{w:11s} {name:16s} median {med:12.4f}  "
                  f"spread {spread:7.2%}  bound {bounds[name]:.0%}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
