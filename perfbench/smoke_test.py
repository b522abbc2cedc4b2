#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at --size smoke, untraced and
traced, and checks that each run exits 0, reports correct, and prints
exactly the metrics BENCHMARK.json declares, each a finite number with
its declared unit. Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload, trace, expected):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    label = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        return "%s: exit code %d" % (label, done.returncode)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "%s: unexpected keys %s" % (label, sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        return "%s: correct=%s attempted=%s" % (label, result["correct"],
                                               result["attempted"])
    if sorted(result["metrics"]) != sorted(expected):
        return "%s: metrics %s, declared %s" % (label, sorted(result["metrics"]),
                                               sorted(expected))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s: %s is %r" % (label, name, value)
        if metric["unit"] != expected[name]:
            return "%s: %s has unit %s, declared %s" % (label, name, metric["unit"],
                                                       expected[name])
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            error = check_run(workload, trace, expected[trace])
            if error:
                print("FAIL " + error)
                return 1
            print("ok   %s --trace %d" % (workload, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
