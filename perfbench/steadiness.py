#!/usr/bin/env python3
"""Repeats the benchmark on one commit and reports how steady it is.

Run from the checkout root:

    python3 perfbench/steadiness.py --runs 10 [--workloads query,ingest]

For every workload it runs `bash perfbench/run.sh` once per seed (1..runs),
then prints, for each end-to-end metric, the median, the first and third
quartiles (statistics.quantiles, n=4), and the spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json, as a Markdown table.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not line:
                sys.exit(f"{name} seed {seed} failed (exit {out.returncode}):\n{out.stderr}")
            res = json.loads(line)
            if not res["correct"]:
                sys.exit(f"{name} seed {seed}: output check failed:\n{out.stderr}")
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={res['metrics'][m]['value']:.6g}" for m in bounds), file=sys.stderr, flush=True)
        print(f"\n### {name} ({args.runs} runs, seeds {args.first_seed}-{args.first_seed + args.runs - 1})\n")
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for m, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(f"| {m} | {med:.6g} | {q1:.6g} | {q3:.6g} | {(q3 - q1) / med:.3f} | {bounds[m]} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
