#!/usr/bin/env python3
"""Bench-regression gate: committed reports vs .github/bench-baselines.json.

The bench reporters are self-timed and write their JSON only on full
(non-smoke) runs, so the committed BENCH_*.json files are the record of
what the code actually delivers. This gate keeps that record honest: a PR
that regenerates a report below a floor fails CI, and a PR that slows the
code without regenerating the report is caught the next time the report
is refreshed. Floors live in bench-baselines.json with generous headroom;
see the _comment there.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(name):
    path = ROOT / name
    if not path.exists():
        print(f"FAIL: {name} is missing (run the full bench to regenerate it)")
        sys.exit(1)
    with open(path) as f:
        return json.load(f)


def main():
    baselines = load(".github/bench-baselines.json")
    shard = load("BENCH_shard.json")
    serve = load("BENCH_serve.json")
    learn = load("BENCH_learn.json")
    failures = []

    def check(label, value, floor, at_least=True):
        ok = value >= floor if at_least else value <= floor
        op = ">=" if at_least else "<="
        status = "ok  " if ok else "FAIL"
        print(f"{status} {label}: {value:g} ({op} {floor:g})")
        if not ok:
            failures.append(label)

    # Warm-hit throughput of the hierarchical join probability: the
    # sequential fold over the 100k-block catalog, memoized registers hot.
    check(
        "join_probability.sequential.warm_qps",
        shard["join_probability"]["sequential"]["warm_qps"],
        baselines["join_probability_warm_qps_min"],
    )

    # Warm expected_count hits reuse memoized mass tables and must stay
    # ahead of a cold call that builds them from scratch (the
    # join_2k_blocks 0.98x regression).
    check(
        "expected_count.speedup",
        shard["expected_count"]["speedup"],
        baselines["expected_count_speedup_min"],
    )

    # Auto sharding on a sub-threshold binding must track the sequential
    # fold, not the forced fan-out (the 1.4us -> 393us regression).
    auto = shard["auto_small_binding"]
    check(
        "auto_small_binding warm_p50 slowdown vs sequential",
        auto["auto_8_threads"]["warm_p50_ns"] / auto["sequential"]["warm_p50_ns"],
        baselines["auto_small_binding_max_slowdown_vs_sequential"],
        at_least=False,
    )

    # Serving throughput with a live writer publishing generations: every
    # client-thread rung must stay above the floor.
    for key, row in sorted(serve["read_while_ingest"].items()):
        check(
            f"serve.read_while_ingest.{key}.qps",
            row["qps"],
            baselines["serve_read_while_ingest_qps_min"],
        )

    # Overload scenario: the identical-shape storm must actually share
    # evaluations, admission control must actually reject past the bound,
    # and the client-side wait_timeout must come back near its deadline.
    overload = serve["overload"]
    check(
        "serve.overload.storm.coalesced_share",
        overload["storm"]["coalesced_share"],
        baselines["serve_overload_coalesced_share_min"],
    )
    check(
        "serve.overload.admission.rejected_total",
        overload["admission"]["rejected_total"],
        baselines["serve_overload_rejected_min"],
    )
    check(
        "serve.overload.deadline.overshoot_p99_ms",
        overload["deadline"]["overshoot_p99_ms"],
        baselines["serve_overload_deadline_overshoot_ms_max"],
        at_least=False,
    )

    # The reverse sweep revisits each safe-plan node a constant number of
    # times, so probability_with_gradient must stay within a small factor
    # of the forward-only evaluation (both on cold engines).
    for key in ("gradient_selection", "gradient_join"):
        check(
            f"learn.{key}.overhead",
            learn[key]["overhead"],
            baselines["learn_gradient_overhead_max"],
            at_least=False,
        )

    # EM weight fitting over the four engines is a closed-form loop on
    # pre-scored holdout instances; it must stay interactive.
    check(
        "learn.weight_fit.fit_ms_p50",
        learn["weight_fit"]["fit_ms_p50"],
        baselines["learn_weight_fit_ms_max"],
        at_least=False,
    )

    if failures:
        print(f"\n{len(failures)} bench floor(s) violated")
        sys.exit(1)
    print("\nall bench floors hold")


if __name__ == "__main__":
    main()
