#!/usr/bin/env python3
"""Build and run the atomrep benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, then runs it. The benchmark's report
goes to standard output and ends with one JSON result line; build output
goes to standard error.
"""

import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no dune-project and lib/ here; run from the root of an "
              "atomrep source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark did not finish in 170 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
