#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload guided-racked --seeds 1-5 [--trace 0]

For every metric: the median of the runs and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. Exits 1 when a run
fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [median] * 3
        spread = (q[2] - q[0]) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print("%-28s median %14.6g  spread %7.4f  bound %s%s"
              % (name, median, spread, bound, flag))
        print("    " + " ".join("%.5g" % v for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
