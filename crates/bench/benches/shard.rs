//! Bench: sharded parallel plan execution.
//!
//! Self-timed reporter (the vendored criterion shim has no programmatic
//! timing hooks) written to `BENCH_shard.json` at the repo root:
//!
//! - warm/cold p50/p99 latency and warm queries/sec for the hierarchical
//!   join probability at 1/2/4/8 rayon threads on a 100k-block catalog,
//!   plus a pure-sequential row (`shards = 1`, no pool) so the
//!   sequential-vs-1-thread-rayon sharding overhead is visible;
//! - the dissociation bracket on a 100k-block chain at the same thread
//!   counts;
//! - warm expected_count versus a cold call that plans and builds the
//!   mass tables from scratch (the memoized mass tables must keep warm
//!   hits ahead — asserted, satellite of the `join_2k_blocks` 0.98x
//!   regression fix);
//! - incremental maintenance: warm latency after a single-block upsert
//!   (register patch) versus a cold bind, with the cache's
//!   `reg_patches`/`reg_rebinds` counters.
//!
//! `host_cores` records the machine's parallelism: thread counts above it
//! time the scheduling overhead honestly rather than projecting speedups.
//! Under `--test` (CI smoke) the fixtures shrink to seconds of work and
//! the JSON is not rewritten.

use criterion::{criterion_group, criterion_main, Criterion};
use mrsl_bench::{synthetic_chain_catalog, synthetic_join_catalog};
use mrsl_probdb::{Catalog, CatalogEngine, Predicate, Query, QueryEngineConfig, Statistic};
use mrsl_relation::{AttrId, ValueId};
use std::fmt::Write as _;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--list")
}

fn vm_config(shards: usize) -> QueryEngineConfig {
    QueryEngineConfig {
        bounds_tolerance: 1.0,
        shards,
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

/// `σ[ok] R(x) ⨝ σ[ok] S(x,y) ⨝ σ[ok] T(y)` — unsafe, dissociable.
fn chain_query() -> Query {
    let ok2 = Predicate::eq(AttrId(1), ValueId(1));
    let ok3 = Predicate::eq(AttrId(2), ValueId(1));
    Query::scan("r")
        .filter(ok2.clone())
        .join_on(Query::scan("s").filter(ok3), [(AttrId(0), AttrId(0))])
        .join_on_rel("s", Query::scan("t").filter(ok2), [(AttrId(1), AttrId(0))])
}

/// Sorted per-iteration wall-clock nanoseconds of `f` (after one untimed
/// warm-up call).
fn sample_ns<F: FnMut()>(iters: usize, mut f: F) -> Vec<f64> {
    f();
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct LatencyRow {
    cold_p50_ns: f64,
    cold_p99_ns: f64,
    warm_p50_ns: f64,
    warm_p99_ns: f64,
    warm_qps: f64,
}

/// Times one (catalog, query, statistic) pair: cold = fresh engine per
/// call (plan + bind + fold), warm = shared engine cache hits.
fn latency_row(
    catalog: &Catalog,
    query: &Query,
    stat: Statistic,
    config: QueryEngineConfig,
    warm_iters: usize,
    cold_iters: usize,
) -> LatencyRow {
    let warm_engine = CatalogEngine::with_config(catalog, config);
    let warm = sample_ns(warm_iters, || {
        std::hint::black_box(warm_engine.evaluate(query, stat).expect("warm"));
    });
    let cold = sample_ns(cold_iters, || {
        let engine = CatalogEngine::with_config(catalog, config);
        std::hint::black_box(engine.evaluate(query, stat).expect("cold"));
    });
    let warm_mean = warm.iter().sum::<f64>() / warm.len() as f64;
    LatencyRow {
        cold_p50_ns: percentile(&cold, 0.5),
        cold_p99_ns: percentile(&cold, 0.99),
        warm_p50_ns: percentile(&warm, 0.5),
        warm_p99_ns: percentile(&warm, 0.99),
        warm_qps: 1e9 / warm_mean,
    }
}

fn write_row(out: &mut String, key: &str, row: &LatencyRow, last: bool) {
    let _ = writeln!(
        out,
        "    \"{key}\": {{\"cold_p50_ns\": {:.0}, \"cold_p99_ns\": {:.0}, \
         \"warm_p50_ns\": {:.0}, \"warm_p99_ns\": {:.0}, \"warm_qps\": {:.1}}}{}",
        row.cold_p50_ns,
        row.cold_p99_ns,
        row.warm_p50_ns,
        row.warm_p99_ns,
        row.warm_qps,
        if last { "" } else { "," }
    );
}

fn in_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

/// Per-thread-count latency section: a pure-sequential baseline
/// (`shards = 1`, no pool) and the sharded fold at each pool size.
fn thread_section(
    out: &mut String,
    name: &str,
    catalog: &Catalog,
    query: &Query,
    stat: Statistic,
    warm_iters: usize,
    cold_iters: usize,
) {
    let _ = writeln!(out, "  \"{name}\": {{");
    let seq = latency_row(catalog, query, stat, vm_config(1), warm_iters, cold_iters);
    write_row(out, "sequential", &seq, false);
    for (i, &threads) in THREADS.iter().enumerate() {
        let row = in_pool(threads, || {
            latency_row(catalog, query, stat, vm_config(16), warm_iters, cold_iters)
        });
        write_row(
            out,
            &format!("threads_{threads}"),
            &row,
            i + 1 == THREADS.len(),
        );
    }
    let _ = writeln!(out, "  }},");
}

fn emit_shard_report(_c: &mut Criterion) {
    let smoke = smoke_mode();
    // 100k uncertain blocks (3 alternatives each) plus certain rows in
    // the join catalog; the chain splits 100k blocks over r/s/t.
    let (stations, certain, blocks) = if smoke {
        (16, 500, 300)
    } else {
        (512, 20_000, 100_000)
    };
    let (chain_keys, chain_blocks) = if smoke { (16, 200) } else { (256, 25_000) };
    let (warm_iters, cold_iters) = if smoke { (2, 1) } else { (30, 8) };

    let join_catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
    let join = join_query();
    let chain_catalog = synthetic_chain_catalog(chain_keys, chain_blocks, 42);
    let chain = chain_query();

    let mut out = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    let _ = writeln!(
        out,
        "  \"fixture\": {{\"stations\": {stations}, \"certain\": {certain}, \
         \"blocks\": {blocks}, \"chain_blocks\": {}}},",
        4 * chain_blocks
    );

    thread_section(
        &mut out,
        "join_probability",
        &join_catalog,
        &join,
        Statistic::Probability,
        warm_iters,
        cold_iters,
    );
    thread_section(
        &mut out,
        "chain_bounds",
        &chain_catalog,
        &chain,
        Statistic::ProbabilityBounds,
        warm_iters,
        cold_iters,
    );

    // Warm expected_count: the memoized mass tables must beat a cold
    // call, which plans and builds them from scratch (the join_2k_blocks
    // regression). Both legs share one engine; the cold leg clears its
    // cache before every sample.
    let engine = CatalogEngine::with_config(&join_catalog, vm_config(0));
    let cold_ec = sample_ns(warm_iters, || {
        engine.plan_cache().clear();
        std::hint::black_box(
            engine
                .evaluate(&join, Statistic::ExpectedCount)
                .expect("cold"),
        );
    });
    let warm_ec = sample_ns(warm_iters, || {
        std::hint::black_box(
            engine
                .evaluate(&join, Statistic::ExpectedCount)
                .expect("warm"),
        );
    });
    let cold_p50 = percentile(&cold_ec, 0.5);
    let warm_p50 = percentile(&warm_ec, 0.5);
    let speedup = cold_p50 / warm_p50;
    let _ = writeln!(
        out,
        "  \"expected_count\": {{\"cold_p50_ns\": {cold_p50:.0}, \
         \"warm_p50_ns\": {warm_p50:.0}, \"speedup\": {speedup:.2}}},"
    );
    if !smoke {
        assert!(
            speedup > 1.0,
            "warm expected_count regressed vs a cold call: {speedup:.2}x"
        );
    }

    // Auto-shard heuristic on a sub-threshold binding: `shards = 0` must
    // stay sequential inside a wide pool instead of paying the fan-out
    // (the 1.4µs → 393µs regression this section guards). Measured on a
    // dedicated small catalog so the binding sits under the auto-shard
    // row threshold.
    let (small_stations, small_certain, small_blocks) =
        if smoke { (8, 50, 60) } else { (64, 500, 1_000) };
    let small_catalog = synthetic_join_catalog(small_stations, small_certain, small_blocks, 3, 42);
    let small_seq = latency_row(
        &small_catalog,
        &join,
        Statistic::Probability,
        vm_config(1),
        warm_iters,
        cold_iters,
    );
    let (small_auto, small_forced) = in_pool(8, || {
        (
            latency_row(
                &small_catalog,
                &join,
                Statistic::Probability,
                vm_config(0),
                warm_iters,
                cold_iters,
            ),
            latency_row(
                &small_catalog,
                &join,
                Statistic::Probability,
                vm_config(16),
                warm_iters,
                cold_iters,
            ),
        )
    });
    let _ = writeln!(out, "  \"auto_small_binding\": {{");
    write_row(&mut out, "sequential", &small_seq, false);
    write_row(&mut out, "auto_8_threads", &small_auto, false);
    write_row(&mut out, "forced_16_shards_8_threads", &small_forced, true);
    let _ = writeln!(out, "  }},");
    if !smoke {
        // Generous margin: auto must track the sequential fold, not the
        // forced fan-out (historically ~300x slower here).
        assert!(
            small_auto.warm_p50_ns <= small_seq.warm_p50_ns * 20.0,
            "auto sharding regressed on a small binding: auto {:.0}ns vs sequential {:.0}ns",
            small_auto.warm_p50_ns,
            small_seq.warm_p50_ns
        );
    }

    // Incremental maintenance: a one-block upsert patches one shard of
    // one term; a cold engine re-binds everything from scratch.
    let mut patched_catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
    let engine = CatalogEngine::with_config(&patched_catalog, vm_config(16));
    // The cold call memoizes the registers the upserts below patch.
    engine.probability(&join).expect("cold");
    let cache = engine.plan_cache().clone();
    drop(engine);
    let mut next_key = blocks;
    let patched = sample_ns(warm_iters.min(10), || {
        use mrsl_probdb::{Alternative, Block};
        use mrsl_relation::CompleteTuple;
        let station = (next_key % stations) as u16;
        let block = Block::normalized(
            next_key,
            vec![
                Alternative {
                    tuple: CompleteTuple::from_values(vec![station, 0, 0]),
                    prob: 1.0,
                },
                Alternative {
                    tuple: CompleteTuple::from_values(vec![station, 1, 1]),
                    prob: 1.0,
                },
            ],
        )
        .expect("valid block");
        next_key += 1;
        patched_catalog
            .get_mut("sensors")
            .expect("sensors")
            .push_block(block)
            .expect("arity ok");
        let warm = CatalogEngine::with_plan_cache(&patched_catalog, vm_config(16), cache.clone());
        std::hint::black_box(warm.probability(&join).expect("patched warm"));
    });
    let cold_bind = sample_ns(warm_iters.min(10), || {
        let engine = CatalogEngine::with_config(&patched_catalog, vm_config(16));
        std::hint::black_box(engine.probability(&join).expect("cold bind"));
    });
    let stats = cache.stats();
    let _ = writeln!(
        out,
        "  \"incremental\": {{\"patched_warm_p50_ns\": {:.0}, \"cold_bind_p50_ns\": {:.0}, \
         \"reg_patches\": {}, \"reg_rebinds\": {}}}\n}}",
        percentile(&patched, 0.5),
        percentile(&cold_bind, 0.5),
        stats.reg_patches,
        stats.reg_rebinds
    );

    if smoke {
        println!("shard bench smoke mode: BENCH_shard.json left untouched");
        print!("{out}");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    if let Err(err) = std::fs::write(path, &out) {
        eprintln!("BENCH_shard.json not written: {err}");
    } else {
        println!("wrote {path}");
        print!("{out}");
    }
}

criterion_group!(benches, emit_shard_report);
criterion_main!(benches);
