#!/usr/bin/env python3
"""Builds the SMR benchmark from source and runs one workload.

    python3 smrbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 smrbench/run.py --self-test

The first form configures and builds `smrbench` (a Release build of the
library in ../src plus the benchmark program in src/) under .bench_build/
at the repository root, then runs it. The program prints a stamp line and,
as the last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; its exit status is non-zero when any
correctness check failed. Build output goes to standard error. With
--trace 1 the kept spans are written to .bench_build/traces/.

--self-test builds and runs the unit tests of the benchmark's own
arithmetic (needs GoogleTest).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "smrbench")
WORKLOADS = ("sim-minbft-batch", "sim-pbft-failover")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("smrbench: the library sources (src/) are missing next to "
                 "this directory; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    for cmd in (configure, ["cmake", "--build", BUILD, "--target", target, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("smrbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if a.self_test:
        return subprocess.run([build("smrbench_arith_test")]).returncode
    if a.workload is None or a.seed is None or a.seconds is None or a.seconds <= 0:
        p.error("--workload, --seed and a positive --seconds are required")

    binary = build("smrbench")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("smrbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
