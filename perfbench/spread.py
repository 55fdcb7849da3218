#!/usr/bin/env python3
"""Spread report for the derive -> serve benchmark.

Collect results, one run per seed, into a JSON-lines file:

    python3 perfbench/spread.py run --workload serve_read --seeds 1 2 3 4 5 --out a.jsonl

Report each end-to-end metric's median and quartile spread next to its bound
from BENCHMARK.json; with a second file, also compare the two medians:

    python3 perfbench/spread.py report a.jsonl [b.jsonl]

The spread is (Q3 - Q1) / median over the runs of one workload, with the
quartiles of statistics.quantiles(values, n=4). A spread is steady when it
is below a third of the metric's bound (setup_s is exempt); a second set of
runs agrees when its median is not worse than the first's by more than the
bound. Exits with code 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    bench = load_bench()
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit(f"seed {seed}: run.py exited with code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            out.write(json.dumps({"workload": args.workload, "seed": seed, "result": result}) + "\n")
            out.flush()
            metrics = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{args.workload} seed {seed}: correct={result['correct']} {metrics}", flush=True)


def read_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def report(args):
    bench = load_bench()
    first = read_runs(args.first)
    second = read_runs(args.second) if args.second else {}
    ok = True
    for workload, runs in first.items():
        print(f"\n{workload}: {len(runs)} runs, {sum(r['correct'] for r in runs)} correct")
        print(f"  {'metric':<18} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}  verdict"
              + (f" {'2nd median':>14} {'worse by':>9}  verdict" if workload in second else ""))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, spread = summary(values)
            if name == "setup_s":
                verdict = "exempt"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            line = f"  {name:<18} {median:>14.6g} {spread:>8.2%} {bound:>6.2f} {bound / 3:>8.3f}  {verdict:<12}"
            if workload in second:
                other = statistics.median(r["metrics"][name]["value"] for r in second[workload])
                sign = 1 if metric["better"] == "lower" else -1
                worse = sign * (other - median) / abs(median) if median else 0.0
                agree = worse <= bound
                ok &= agree
                line += f" {other:>14.6g} {worse:>9.2%}  {'agrees' if agree else 'WORSE'}"
            print(line)
        if not all(r["correct"] for r in runs):
            ok = False
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload on several seeds")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", required=True, type=int, nargs="+")
    run.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="median and spread per metric")
    rep.add_argument("first")
    rep.add_argument("second", nargs="?")
    args = parser.parse_args()
    if args.command == "run":
        collect(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
