#!/usr/bin/env python3
"""Smoke test for the end-to-end benchmark.

    python3 perfbench/smoke_test.py

Runs every workload the benchmark knows (BENCHMARK.json's, plus paper-drl,
which is runnable but not in BENCHMARK.json) at tiny scale (`--scale tiny`),
untraced and traced, and checks:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct, nothing failed;
  * the metric names and units are exactly BENCHMARK.json's end_to_end
    (untraced) or per_layer (traced) lists, every value a finite number;
  * the traced run reports that it reproduced the untraced run bit for bit;
  * an unknown workload exits non-zero without printing a result.
Takes well under a minute once the benchmark is built.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ("paper-hier", "paper-drl", "fleet-faulty")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)


def check_result(proc, spec, label):
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit status {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{label}: last line is not JSON: {lines[-1]!r}"]
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')!r}")
    if result.get("failed") != 0:
        errors.append(f"failed = {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(expected):
        errors.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(entry)}")
            continue
        if name in expected and entry["unit"] != expected[name]:
            errors.append(f"{name}: unit {entry['unit']!r}, expected {expected[name]!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return [f"{label}: {e}" for e in errors]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = [f"BENCHMARK.json names unknown workload {w['name']}"
              for w in bench["workloads"] if w["name"] not in WORKLOADS]
    for workload in WORKLOADS:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = run(workload, trace)
            found = check_result(proc, spec, label)
            if trace == 1 and "traced vs untraced: bit-identical" not in proc.stdout:
                found.append(f"{label}: traced run did not report bit-identical results")
            print(f"{'FAIL' if found else 'ok  '} {label}")
            errors += found

    proc = run("no-such-workload", 0)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    if proc.returncode == 0 or last.startswith("{"):
        errors.append("unknown workload: expected a non-zero exit and no result")
    print(f"{'FAIL' if errors and errors[-1].startswith('unknown') else 'ok  '} unknown workload")

    for e in errors:
        print(f"  {e}")
    print("smoke test " + ("FAILED" if errors else "passed"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
