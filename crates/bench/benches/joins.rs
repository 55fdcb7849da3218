//! Bench: exact extensional joins vs multi-relation Monte Carlo, and
//! dissociation bounds vs sampling on unsafe shapes.
//!
//! A hierarchical two-relation join (sensors ⨝ readings on the station
//! key, with a selection on each side) is evaluated through the
//! [`CatalogEngine`] on both physical paths: the exact safe plan — key
//! partition with per-block products — and the forced joint-world sampler.
//! The gap is the price of sampling where lifting is possible; the
//! expected-count rows additionally measure the mass-table join that stays
//! exact for every shape.
//!
//! The `dissociation` group runs the non-hierarchical chain
//! `R(x), S(x,y), T(y)`: `bounds_probability` computes the deterministic
//! dissociation bracket on the exact path (no sampling — tolerance 1.0),
//! `mc_probability` is the joint-world sampler the same query takes for
//! the point statistic. The bracket should be exact-path fast while the
//! sampler pays per-world join costs.
//!
//! The `cold_*` rows clear the plan cache before every call, so each one
//! plans, compiles and binds from scratch; their warm counterparts reuse
//! the cached program and its memoized registers.
//!
//! The self-timed cold-versus-warm report (`joins/plan_report`) is
//! written to `BENCH_plan.json` on full runs only. Under `--test` (CI
//! smoke) its fixtures shrink to a fraction of a second and the committed
//! JSON is left untouched; a positional filter that `joins/plan_report`
//! does not contain skips it (`-- plan_report` runs the report alone).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrsl_bench::{
    chain_query, join_query, reporter_selected, smoke_mode, synthetic_chain_catalog,
    synthetic_join_catalog, vm_config,
};
use mrsl_probdb::{CatalogEngine, Query, QueryEngineConfig, Statistic};
use std::fmt::Write as _;
use std::time::Instant;

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("joins");
    group.sample_size(15);
    for &(stations, certain, blocks) in &[(64usize, 2_000usize, 1_000usize), (256, 10_000, 5_000)] {
        let catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
        let query = join_query();
        let size = certain + blocks;
        // `exact_probability` reuses one engine: the first iteration
        // compiles and caches, the rest are warm VM hits.
        group.bench_with_input(
            BenchmarkId::new("exact_probability", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::new(catalog);
                b.iter(|| std::hint::black_box(engine.probability(&query).expect("exact")))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cold_probability", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::new(catalog);
                b.iter(|| {
                    engine.plan_cache().clear();
                    std::hint::black_box(engine.probability(&query).expect("cold"))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mc_probability", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::with_config(
                    catalog,
                    QueryEngineConfig {
                        force_monte_carlo: true,
                        mc_samples: 500,
                        ..QueryEngineConfig::default()
                    },
                );
                b.iter(|| {
                    std::hint::black_box(
                        engine.evaluate(&query, Statistic::Probability).expect("mc"),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact_expected_count", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::new(catalog);
                b.iter(|| std::hint::black_box(engine.expected_count(&query).expect("exact")))
            },
        );
    }
    group.finish();
}

fn bench_dissociation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dissociation");
    group.sample_size(15);
    for &(keys, blocks) in &[(16usize, 500usize), (64, 2_500)] {
        let catalog = synthetic_chain_catalog(keys, blocks, 42);
        let query = chain_query();
        let size = 4 * blocks; // r + t + 2·blocks in s
        group.bench_with_input(
            BenchmarkId::new("bounds_probability", size),
            &catalog,
            |b, catalog| {
                // Tolerance 1.0: the bracket is never refined, so this
                // row measures the pure exact-path dissociation cost
                // (warm compiled plans after the first iteration).
                let engine = CatalogEngine::with_config(catalog, vm_config());
                b.iter(|| std::hint::black_box(engine.probability_bounds(&query).expect("bounds")))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cold_bounds_probability", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::with_config(catalog, vm_config());
                b.iter(|| {
                    engine.plan_cache().clear();
                    std::hint::black_box(engine.probability_bounds(&query).expect("bounds"))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mc_probability", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::with_config(
                    catalog,
                    QueryEngineConfig {
                        mc_samples: 500,
                        ..QueryEngineConfig::default()
                    },
                );
                b.iter(|| {
                    std::hint::black_box(
                        engine.evaluate(&query, Statistic::Probability).expect("mc"),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Mean wall-clock nanoseconds per call of `f` over `iters` timed
/// iterations (after one untimed warm-up call).
fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// One cold-vs-warm comparison row for the JSON report.
struct PlanRow {
    name: &'static str,
    cold_ns: f64,
    warm_ns: f64,
}

/// Times `stat` cold (cache cleared before every call: plan, compile,
/// bind, fold) and warm (cached program, memoized registers) on one
/// engine, whose cache counters the report sums.
fn plan_row(engine: &CatalogEngine, query: &Query, stat: Statistic, iters: u32) -> PlanRow {
    let name = match stat {
        Statistic::Probability => "probability",
        Statistic::ExpectedCount => "expected_count",
        Statistic::ProbabilityBounds => "bounds_probability",
        _ => "other",
    };
    let cold_ns = time_ns(iters, || {
        engine.plan_cache().clear();
        std::hint::black_box(engine.evaluate(query, stat).expect("cold"));
    });
    let warm_ns = time_ns(iters, || {
        std::hint::black_box(engine.evaluate(query, stat).expect("warm"));
    });
    PlanRow {
        name,
        cold_ns,
        warm_ns,
    }
}

fn write_rows(out: &mut String, fixture: &str, rows: &[PlanRow]) {
    let _ = writeln!(out, "  \"{fixture}\": {{");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"cold_ns\": {:.0}, \"warm_ns\": {:.0}, \"speedup\": {:.2}}}{}",
            row.name,
            row.cold_ns,
            row.warm_ns,
            row.cold_ns / row.warm_ns,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  }},");
}

/// Self-timed cold-vs-warm report, written to `BENCH_plan.json` at the
/// repo root. The vendored criterion shim has no programmatic timing
/// hooks, so this measures with [`Instant`] directly: per-statistic cold
/// (plan + compile + bind + fold) vs warm-hit nanoseconds, and the cache
/// hit/miss counters of the engines that ran them. `host_cores` records
/// the machine the report came from.
fn emit_plan_report(_c: &mut Criterion) {
    if !reporter_selected("joins/plan_report") {
        return;
    }
    let smoke = smoke_mode();
    let (stations, certain, blocks) = if smoke {
        (16, 500, 300)
    } else {
        (256, 10_000, 5_000)
    };
    let (chain_keys, chain_blocks) = if smoke { (16, 200) } else { (64, 2_500) };
    let iters = if smoke { 1 } else { 12 };

    let mut out = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"host_cores\": {cores},");

    // Join fixture: hierarchical, exact path.
    let join_catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
    let join = join_query();
    let engine = CatalogEngine::new(&join_catalog);
    let rows = [
        plan_row(&engine, &join, Statistic::Probability, iters),
        plan_row(&engine, &join, Statistic::ExpectedCount, iters),
    ];
    // Warm hits reuse memoized mass tables; falling behind a cold call
    // here is a regression, not noise.
    if !smoke {
        assert!(
            rows[1].warm_ns < rows[1].cold_ns,
            "warm expected_count regressed vs cold: {:.0}ns vs {:.0}ns",
            rows[1].warm_ns,
            rows[1].cold_ns
        );
    }
    write_rows(&mut out, &format!("join_{blocks}_blocks"), &rows);
    let stats = engine.plan_cache().stats();

    // Dissociable chain: both bounds are compiled programs.
    let chain_catalog = synthetic_chain_catalog(chain_keys, chain_blocks, 42);
    let chain = chain_query();
    let engine = CatalogEngine::with_config(&chain_catalog, vm_config());
    let rows = [plan_row(
        &engine,
        &chain,
        Statistic::ProbabilityBounds,
        iters,
    )];
    write_rows(&mut out, &format!("chain_{chain_blocks}_blocks"), &rows);
    let chain_stats = engine.plan_cache().stats();

    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}}}\n}}",
        stats.hits + chain_stats.hits,
        stats.misses + chain_stats.misses
    );

    if smoke {
        println!("joins bench smoke mode: BENCH_plan.json left untouched");
        print!("{out}");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan.json");
    if let Err(err) = std::fs::write(path, &out) {
        eprintln!("BENCH_plan.json not written: {err}");
    } else {
        println!("wrote {path}");
        print!("{out}");
    }
}

criterion_group!(benches, bench_joins, bench_dissociation, emit_plan_report);
criterion_main!(benches);
