#!/usr/bin/env python3
"""Self-test of the hetsched benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its smallest size (run.py
--smoke, 1-second window) in both modes and asserts that:
  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, with a clean run (correct, 0 failed);
  * every metric BENCHMARK.json names for that mode is printed with its
    declared unit and a finite number, and no other metric is;
  * a deliberately mismatched reference (--inject-mismatch) is counted as
    a failed run, so the digest/energy checks are live;
  * in a directory holding only BENCHMARK.json and perfbench/ the command
    exits non-zero without printing a result.
Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    if proc.returncode != 0:
        sys.exit("run.py exited %d:\n%s" % (proc.returncode,
                                             proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        sys.exit("selftest FAILED: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sections = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in sections.items():
            tag = "%s --trace %d" % (workload, trace)
            result = result_of(run(ROOT, "--workload", workload, "--trace",
                                   str(trace), "--smoke"))
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, tag + ": result keys")
            check(result["correct"] and result["failed"] == 0,
                  tag + ": clean run reported failures")
            check(result["attempted"] >= 1, tag + ": nothing attempted")
            want = {m["name"]: m["unit"] for m in section}
            check(set(result["metrics"]) == set(want),
                  tag + ": metric names %s" % sorted(result["metrics"]))
            for name, unit in want.items():
                metric = result["metrics"][name]
                check(metric["unit"] == unit, tag + ": unit of " + name)
                check(isinstance(metric["value"], (int, float)) and
                      math.isfinite(metric["value"]),
                      tag + ": value of " + name)

            bad = result_of(run(ROOT, "--workload", workload, "--trace",
                                str(trace), "--smoke", "--inject-mismatch"))
            check(not bad["correct"] and bad["failed"] >= 1,
                  tag + ": mismatched reference not counted as failed")
            print("ok  %s (%d runs; mismatch -> %d of %d failed)" % (
                tag, result["attempted"], bad["failed"], bad["attempted"]))

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"],
                   "--trace", "0")
        check(proc.returncode != 0, "bare directory: exit code 0")
        check('"metrics"' not in proc.stdout, "bare directory: printed a "
              "result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory exits %d without a result" % proc.returncode)


if __name__ == "__main__":
    main()
