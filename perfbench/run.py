#!/usr/bin/env python3
"""Build and run the derive -> serve benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The first form builds the benchmark package (perfbench/Cargo.toml) into
$CARGO_TARGET_DIR (default .bench_build) and runs one workload in its own
process; the last line of stdout is the result JSON. With --trace 1 the
spans are written to <target dir>/perfbench/spans-<workload>-<seed>.json.

The second form runs the four workloads one after another, each in its own
process, and prints the eleven workload-specific end-to-end metrics by name
and unit; each is gated as one of the generic metrics of BENCHMARK.json
(see perfbench/WORKLOADS.json).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["derive_dag", "derive_ensemble", "serve_read", "serve_ingest"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700

# The eleven workload-specific end-to-end metrics: name, unit, and where a
# run reports it ("metrics" = the gated result JSON, "named" = the
# workload-metrics line).
ELEVEN = [
    ("setup_s", "s", "metrics"),
    ("derive_tuples_per_s", "tuples/s", "named"),
    ("derive_kl", "nats", "named"),
    ("read_p50_ms", "ms", "named"),
    ("read_p99_ms", "ms", "named"),
    ("read_qps", "1/s", "named"),
    ("publish_p50_ms", "ms", "named"),
    ("fresh_read_p50_ms", "ms", "named"),
    ("ingest_ops_per_s", "1/s", "named"),
    ("ok_frac", "fraction", "metrics"),
    ("peak_rss_mb", "MB", "metrics"),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml or crates/)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its stdout lines."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(target_dir(), "perfbench", f"spans-{workload}-{seed}.json")
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing")
    return lines


def run_all(binary, seed, seconds):
    results = {}
    for workload in WORKLOADS:
        lines = run_one(binary, workload, seed, seconds, 0)
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        named = {}
        for line in lines:
            if line.startswith("# workload-metrics "):
                named = json.loads(line[len("# workload-metrics "):])
        results[workload] = (result, named)
        print(lines[-1])
    print()
    header = f"{'metric':<20} {'unit':<9}" + "".join(f" {w:>16}" for w in WORKLOADS)
    print(header)
    for name, unit, source in ELEVEN:
        row = f"{name:<20} {unit:<9}"
        for workload in WORKLOADS:
            result, named = results[workload]
            table = result["metrics"] if source == "metrics" else named
            value = table.get(name, {}).get("value")
            row += f" {value:>16.6g}" if value is not None else f" {'-':>16}"
        print(row)
    if not all(r["correct"] for r, _ in results.values()):
        fail("some outputs were wrong")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    binary = build()
    if args.workload == "all":
        run_all(binary, args.seed, args.seconds)
        return
    for line in run_one(binary, args.workload, args.seed, args.seconds, args.trace):
        print(line)


if __name__ == "__main__":
    main()
