#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the root of the repository. The benchmark is built from source into
.bench_build/perfbench (CMake, Release) on first use; later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. `--test` builds and runs the benchmark's own tests.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["inspect_corr", "inspect_logreg", "serve_mix", "cluster_sliced"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, target):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no repository to build around perfbench/ (missing CMakeLists.txt or src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    work_dir = os.path.join(root, ".bench_build", "work")
    build(root, build_dir, "perfbench_test" if args.test else "perfbench")
    os.makedirs(work_dir, exist_ok=True)
    # Anything the library writes to a temporary directory stays in the tree.
    env = dict(os.environ, TMPDIR=work_dir)

    if args.test:
        binary = os.path.join(build_dir, "perfbench_test")
        return subprocess.run([binary], cwd=work_dir, env=env).returncode

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
