#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload <name> ... --canary 1   # compare.py's canary
  python3 perfbench/run.py --unit-tests

The first call configures and builds the benchmark and the repository's
libraries under .bench_build/perfbench (build output goes to stderr); later
calls only rebuild what changed. The last line of standard output is the
run's JSON result. With --workload all, each workload's three lines follow
one another and the last line is the last workload's result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["train_dar_beer", "serve_unique_mixed", "serve_repeat_short"]


def build():
    """Configures and builds; returns False (after printing why) on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_unit_tests"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--canary", choices=["0", "1"], default="0")
    parser.add_argument("--unit-tests", action="store_true")
    args = parser.parse_args()
    if not args.unit_tests and args.workload is None:
        parser.error("--workload or --unit-tests is required")
    if not build():
        return 1
    if args.unit_tests:
        return subprocess.run([os.path.join(BUILD, "perfbench_unit_tests")]).returncode

    workdir = os.path.join(BUILD, "tmp")
    os.makedirs(workdir, exist_ok=True)
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        sys.stdout.flush()
        code = subprocess.run([
            os.path.join(BUILD, "perfbench"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", args.trace, "--canary", args.canary,
            "--workdir", workdir, "--git-sha", sha]).returncode
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
