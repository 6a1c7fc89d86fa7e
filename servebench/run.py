#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0

Run from the repository root. The build (CMake, Release flags) goes to
.bench_build/servebench and happens before anything is timed; the store
and scratch files of a run live in .bench_build/servebench-run/<pid> and
are removed when it ends; a traced run writes its Chrome trace to
.bench_build/servebench-trace/<workload>.json. The last line of stdout is
the JSON result; build output and progress go to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.hpp")):
        print("servebench: no src/ next to the benchmark; nothing to build",
              file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("servebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "servebench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        print("servebench: checker self-test failed", file=sys.stderr)
        return 1

    work = os.path.join(ROOT, ".bench_build", "servebench-run", str(os.getpid()))
    cmd = [os.path.join(BUILD, "servebench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--dir", work]
    if a.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "servebench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, a.workload + ".json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode or not lines:
        print("servebench: run failed (exit %d)" % r.returncode, file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
