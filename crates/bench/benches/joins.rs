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

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrsl_bench::{synthetic_chain_catalog, synthetic_join_catalog};
use mrsl_probdb::{CatalogEngine, Predicate, Query, QueryEngineConfig, Statistic};
use mrsl_relation::{AttrId, ValueId};
use std::fmt::Write as _;
use std::time::Instant;

/// VM configuration: compiled plans on (the default), brackets never
/// refined so the bounds rows measure the pure deterministic path.
fn vm_config() -> QueryEngineConfig {
    QueryEngineConfig {
        bounds_tolerance: 1.0,
        ..QueryEngineConfig::default()
    }
}

/// σ[kind ∈ {0,1}](sensors) ⨝ σ[level ≥ 2](readings) on the station.
fn join_query() -> Query {
    Query::scan("sensors")
        .filter(Predicate::is_in(AttrId(1), [ValueId(0), ValueId(1)]))
        .join_on(
            Query::scan("readings").filter(Predicate::range(AttrId(1), ValueId(2), ValueId(3))),
            [(AttrId(0), AttrId(0))],
        )
}

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

/// `σ[ok] R(x) ⨝ σ[ok] S(x,y) ⨝ σ[ok] T(y)` — unsafe, dissociable.
fn chain_query() -> Query {
    let ok2 = Predicate::eq(AttrId(1), ValueId(1));
    let ok3 = Predicate::eq(AttrId(2), ValueId(1));
    Query::scan("r")
        .filter(ok2.clone())
        .join_on(Query::scan("s").filter(ok3), [(AttrId(0), AttrId(0))])
        .join_on_rel("s", Query::scan("t").filter(ok2), [(AttrId(1), AttrId(0))])
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
/// hit/miss counters of the engines that ran them.
fn emit_plan_report(_c: &mut Criterion) {
    let mut out = String::from("{\n");

    // Join fixture at ≥2k uncertain blocks: hierarchical, exact path.
    let join_catalog = synthetic_join_catalog(256, 10_000, 5_000, 3, 42);
    let join = join_query();
    let engine = CatalogEngine::new(&join_catalog);
    let rows = [
        plan_row(&engine, &join, Statistic::Probability, 12),
        plan_row(&engine, &join, Statistic::ExpectedCount, 12),
    ];
    // Warm hits reuse memoized mass tables; falling behind a cold call
    // here is a regression, not noise.
    assert!(
        rows[1].warm_ns < rows[1].cold_ns,
        "warm expected_count regressed vs cold: {:.0}ns vs {:.0}ns",
        rows[1].warm_ns,
        rows[1].cold_ns
    );
    write_rows(&mut out, "join_2k_blocks", &rows);
    let stats = engine.plan_cache().stats();

    // Dissociable chain: both bounds are compiled programs.
    let chain_catalog = synthetic_chain_catalog(64, 2_500, 42);
    let chain = chain_query();
    let engine = CatalogEngine::with_config(&chain_catalog, vm_config());
    let rows = [plan_row(&engine, &chain, Statistic::ProbabilityBounds, 12)];
    write_rows(&mut out, "chain_2500_blocks", &rows);
    let chain_stats = engine.plan_cache().stats();

    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}}}\n}}",
        stats.hits + chain_stats.hits,
        stats.misses + chain_stats.misses
    );

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
