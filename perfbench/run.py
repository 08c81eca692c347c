#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # the benchmark's own tests

The model libraries and the benchmark are compiled from this checkout
into $CARGO_TARGET_DIR (default .bench_build); a later run only rebuilds
what changed.  Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result.  Exits non-zero, printing no result,
when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    testing = argv == ["--test"]
    target = "perfbench_tests" if testing else "perfbench"
    if not build(build_dir, target):
        return 1
    # Ambient MCPAT_* switches must not change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCPAT_")}
    cmd = [os.path.join(build_dir, target)] + ([] if testing else argv)
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
