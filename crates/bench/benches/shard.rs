//! Bench: warm and cold plan execution, and incremental register
//! maintenance.
//!
//! Self-timed reporter (the vendored criterion shim has no programmatic
//! timing hooks) written to `BENCH_shard.json` at the repo root. Every
//! row runs the default engine config (brackets never refined) on the
//! caller's thread: every plan fold, bracket candidate, register bind and
//! mass table is sequential, so one ambient `sequential` row per fixture
//! times all of it:
//!
//! - warm/cold p50/p99 latency and warm queries/sec for the hierarchical
//!   join probability on a 100k-block catalog;
//! - the dissociation bracket on a 100k-block chain;
//! - warm expected_count versus a cold call that plans and builds the
//!   mass tables from scratch (the memoized mass tables must keep warm
//!   hits ahead — asserted, satellite of the `join_2k_blocks` 0.98x
//!   regression fix);
//! - incremental maintenance: warm latency after a single-block append
//!   (one storage segment re-scanned, its rows merged into the memoized
//!   registers) versus a cold bind, with the cache's
//!   `reg_patches`/`reg_rebinds` counters, for the probability
//!   (`patched_over_cold`) and for the expected count, whose mass tables
//!   fold in only the tail segment (`count_patched_over_cold`); each
//!   patched hit must cost at most 0.02 (probability) or 0.25 (expected
//!   count) of the cold call in the same run (asserted, and gated on the
//!   committed ratios).
//!
//! `host_cores` records the machine the report came from. Under `--test`
//! (CI smoke) the fixtures shrink to seconds of work and the JSON is not
//! rewritten; a positional filter that `shard_report` does not contain
//! skips the report.

use criterion::{criterion_group, criterion_main, Criterion};
use mrsl_bench::{
    chain_query, join_query, percentile, reporter_selected, sample_ns, smoke_mode,
    synthetic_chain_catalog, synthetic_join_catalog, vm_config,
};
use mrsl_probdb::{Catalog, CatalogEngine, Query, Statistic};
use std::fmt::Write as _;

/// Times one (catalog, query, statistic) fixture — cold = fresh engine
/// per call (plan + bind + fold), warm = shared engine cache hits — and
/// writes its section: the single ambient row, keyed `sequential`.
fn latency_section(
    out: &mut String,
    name: &str,
    (catalog, query, stat): (&Catalog, &Query, Statistic),
    warm_iters: usize,
    cold_iters: usize,
) {
    let warm_engine = CatalogEngine::with_config(catalog, vm_config());
    let warm = sample_ns(warm_iters, || {
        std::hint::black_box(warm_engine.evaluate(query, stat).expect("warm"));
    });
    let cold = sample_ns(cold_iters, || {
        let engine = CatalogEngine::with_config(catalog, vm_config());
        std::hint::black_box(engine.evaluate(query, stat).expect("cold"));
    });
    let warm_qps = 1e9 * warm.len() as f64 / warm.iter().sum::<f64>();
    let _ = writeln!(
        out,
        "  \"{name}\": {{\"sequential\": {{\"cold_p50_ns\": {:.0}, \"cold_p99_ns\": {:.0}, \
         \"warm_p50_ns\": {:.0}, \"warm_p99_ns\": {:.0}, \"warm_qps\": {warm_qps:.1}}}}},",
        percentile(&cold, 0.5),
        percentile(&cold, 0.99),
        percentile(&warm, 0.5),
        percentile(&warm, 0.99),
    );
}

fn emit_shard_report(_c: &mut Criterion) {
    if !reporter_selected("shard_report") {
        return;
    }
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

    let join_fixture = (&join_catalog, &join, Statistic::Probability);
    latency_section(
        &mut out,
        "join_probability",
        join_fixture,
        warm_iters,
        cold_iters,
    );
    let chain_fixture = (&chain_catalog, &chain, Statistic::ProbabilityBounds);
    latency_section(
        &mut out,
        "chain_bounds",
        chain_fixture,
        warm_iters,
        cold_iters,
    );

    // Warm expected_count: the memoized mass tables must beat a cold
    // call, which plans and builds them from scratch (the join_2k_blocks
    // regression). Both legs share one engine; the cold leg clears its
    // cache before every sample.
    let engine = CatalogEngine::with_config(&join_catalog, vm_config());
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

    // Incremental maintenance: a one-block append merges one segment's
    // rows into one term's memo; a cold engine binds everything from
    // scratch.
    let mut patched_catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
    let engine = CatalogEngine::with_config(&patched_catalog, vm_config());
    // The cold calls memoize the registers and mass tables the appends
    // below extend.
    engine.probability(&join).expect("cold");
    engine
        .evaluate(&join, Statistic::ExpectedCount)
        .expect("cold");
    let cache = engine.plan_cache().clone();
    drop(engine);
    let mut next_key = blocks;
    let mut patched_sample = |stat: Statistic| {
        sample_ns(warm_iters.min(10), || {
            push_block(&mut patched_catalog, next_key, stations);
            next_key += 1;
            let warm = CatalogEngine::with_plan_cache(&patched_catalog, vm_config(), cache.clone());
            std::hint::black_box(warm.evaluate(&join, stat).expect("patched warm"));
        })
    };
    let patched = patched_sample(Statistic::Probability);
    let count_patched = patched_sample(Statistic::ExpectedCount);
    let cold_sample = |stat: Statistic| {
        sample_ns(warm_iters.min(10), || {
            let engine = CatalogEngine::with_config(&patched_catalog, vm_config());
            std::hint::black_box(engine.evaluate(&join, stat).expect("cold bind"));
        })
    };
    let cold_bind = cold_sample(Statistic::Probability);
    let count_cold = cold_sample(Statistic::ExpectedCount);
    let stats = cache.stats();
    let (patched_p50, cold_bind_p50) = (percentile(&patched, 0.5), percentile(&cold_bind, 0.5));
    let patched_over_cold = patched_p50 / cold_bind_p50;
    let (count_patched_p50, count_cold_p50) = (
        percentile(&count_patched, 0.5),
        percentile(&count_cold, 0.5),
    );
    let count_patched_over_cold = count_patched_p50 / count_cold_p50;
    let _ = writeln!(
        out,
        "  \"incremental\": {{\"patched_warm_p50_ns\": {patched_p50:.0}, \
         \"cold_bind_p50_ns\": {cold_bind_p50:.0}, \"patched_over_cold\": {patched_over_cold:.3}, \
         \"count_patched_warm_p50_ns\": {count_patched_p50:.0}, \
         \"count_cold_p50_ns\": {count_cold_p50:.0}, \
         \"count_patched_over_cold\": {count_patched_over_cold:.3}, \
         \"reg_patches\": {}, \"reg_rebinds\": {}}}\n}}",
        stats.reg_patches, stats.reg_rebinds
    );
    if !smoke {
        // A one-block append re-scans one segment of one term and merges
        // its rows in; only the merge's moves stay linear.
        assert!(
            patched_over_cold <= 0.02,
            "patched warm hit costs {patched_over_cold:.2}x a cold bind"
        );
        assert!(
            count_patched_over_cold <= 0.25,
            "patched expected count costs {count_patched_over_cold:.2}x a cold call"
        );
    }

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

/// Appends one two-alternative block at station `key % stations` to
/// `sensors`.
fn push_block(catalog: &mut Catalog, key: usize, stations: usize) {
    use mrsl_probdb::{Alternative, Block};
    use mrsl_relation::CompleteTuple;
    let station = (key % stations) as u16;
    let alternative = |values: Vec<u16>| Alternative {
        tuple: CompleteTuple::from_values(values),
        prob: 1.0,
    };
    let block = Block::normalized(
        key,
        vec![
            alternative(vec![station, 0, 0]),
            alternative(vec![station, 1, 1]),
        ],
    )
    .expect("valid block");
    catalog
        .get_mut("sensors")
        .expect("sensors")
        .push_block(block)
        .expect("arity ok");
}

criterion_group!(benches, emit_shard_report);
criterion_main!(benches);
