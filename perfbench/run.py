#!/usr/bin/env python3
"""Builds and runs the voice-query benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/CMakeLists.txt (the engine library from
src/ plus voice_bench) in $CARGO_TARGET_DIR, default .bench_build, then
runs voice_bench with the same arguments. Build output goes to stderr, so
its JSON result stays the last line of stdout. The exit code is
voice_bench's: 0 when every answer matched its reference.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("warm_hits", "cold_misses", "onboard_under_load")


def build(root, build_dir):
    """Configures once, then rebuilds incrementally. Returns the binary path."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "serve", "router.h")):
        sys.exit("perfbench: engine sources (src/) not found under " + root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "voice_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    sys.stdout.flush()
    completed = subprocess.run([binary, "--workload", args.workload,
                                "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
