#!/usr/bin/env python3
"""Build p2pcash_bench from source and run one workload.

Usage (from the root of a checkout):
  python3 p2pcash_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds p2pcash_bench/ (a CMake project over the
repository's src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs the benchmark binary.  Build output goes to stderr; the
binary's output is passed through, so the last line on stdout is its JSON
summary.  Results and traces land in <build dir>/results/.  Exits non-zero
when the sources are missing, the build fails, a gate fails, or the run
exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no p2pcash sources next to p2pcash_bench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "p2pcash_bench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "p2pcash_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}",
           f"--out={os.path.join(build_dir, 'results')}"]
    if args.trace:
        cmd.append("--trace")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {args.workload} exceeded {RUN_LIMIT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
