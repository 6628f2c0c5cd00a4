#!/usr/bin/env python3
"""Run the benchmark over several seeds and report medians, quartiles and spreads.

    python3 perfbench/spread.py --seeds 1-10 [--workloads paper-hier,fleet-faulty]
                                [--trace 0|1] [--out perfbench/baseline_runs.json]

For every workload and seed it runs `perfbench/run.py` once (with
BENCHMARK.json's run_seconds), then prints, per metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. End-to-end metrics are
flagged when the spread exceeds a third of their bound in BENCHMARK.json
(setup_s excepted: only its median is compared between runs). `--out`
writes every run's result and the summary as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": int(args.trace), "workloads": {}}
    unsteady = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", args.trace]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - t0
            lines = proc.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            detail = next((json.loads(l[len("detail "):]) for l in lines
                           if l.startswith("detail ")), None)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values, "detail": detail})
            print(f"{workload} seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
                  f"{elapsed:.1f} s", flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = f"  SPREAD ABOVE BOUND/3 ({bounds[name]})"
                unsteady.append(f"{workload}/{name}")
            print(f"  {name:26s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print("unsteady: " + (", ".join(unsteady) if unsteady else "none"))


if __name__ == "__main__":
    main()
