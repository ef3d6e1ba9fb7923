#!/usr/bin/env python3
"""Builds and runs the planner benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload grid-measure --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
planner library and the benchmark binary under .bench_build/perfbench
(minutes); later runs only re-check the build. The benchmark binary prints
its human-readable summary on stderr and, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is the binary's: 0 only when every answer check passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "p2_perfbench")
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def run_logged(cmd, log_path, timeout):
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    with open(log_path, "ab") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False, env=env)
    return proc.returncode


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    generated = [os.path.join(BUILD_DIR, name)
                 for name in ("Makefile", "build.ninja")]
    if not any(os.path.exists(path) for path in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            code = run_logged(cmd, log_path, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.stderr.write("perfbench: build step failed: %s\n" % err)
            return False
        if code != 0:
            with open(log_path, "rb") as log:
                tail = log.read()[-4000:].decode("utf-8", "replace")
            sys.stderr.write("perfbench: build failed (%s):\n%s\n"
                             % (" ".join(cmd), tail))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 1
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, timeout=170, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: benchmark run timed out\n")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
