#!/usr/bin/env python3
"""Build the analysis service and the benchmark program from source, then
run one workload, or every workload in turn when --workload is omitted.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload shard-hit|routed-mix|cold-solve]
        [--seed N] [--seconds S] [--trace 0|1]

Build output goes to stderr; the last stdout line of each workload's
report is its JSON result.  Exits nonzero when any answer was wrong, and
without a result when the checkout does not hold the program's sources.

The benchmark and the processes it starts run on one CPU.  On the
2-vCPU virtual machine the benchmark was defined on, spreading them over
both CPUs made each request pay cross-CPU wake-ups whose cost swung
from run to run: one-connection hit throughput moved 2x between runs of
the same seed, and every workload ran slower than on one CPU.  Pinned,
the swings that remain follow the host's own speed, which moves all
workloads at once.  Gains from running on more CPUs at once do not show
here.
"""

import os
import subprocess
import sys

TARGETS = ["./bin/bi.exe", "./perfbench/bench.exe"]
WORKLOADS = ["shard-hit", "routed-mix", "cold-solve"]
DEFAULTS = ["--seed", "1", "--seconds", "30", "--trace", "0"]


def main():
    for needed in ("dune-project", "bin/bi.ml", "lib"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a "
                  "checkout of the program", file=sys.stderr)
            return 2
    build = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    bi = os.path.join("_build", "default", "bin", "bi.exe")
    args = [bench, "--bi", bi, "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
    args += DEFAULTS + sys.argv[1:]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.stdout.flush()
    if "--workload" in sys.argv:
        os.execv(bench, args)
    worst = 0
    for workload in WORKLOADS:
        code = subprocess.run(args + ["--workload", workload]).returncode
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
