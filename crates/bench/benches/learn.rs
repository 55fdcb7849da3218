//! Bench: the learning subsystem.
//!
//! Self-timed reporter (the vendored criterion shim has no programmatic
//! timing hooks) written to `BENCH_learn.json` at the repo root:
//!
//! - **weight fit**: wall time of [`fit_ensemble_weights`] (EM over the
//!   four paper engines) on attribute-masked held-out tuples, with the
//!   instance count so the per-instance cost is recoverable;
//! - **gradient pass**: `probability_with_gradient` versus the
//!   forward-only `probability` on the same fresh engine, for a
//!   single-relation selection and a hierarchical join — the reverse
//!   sweep must stay within a small constant factor of the forward
//!   evaluation it mirrors (floored in `.github/bench-baselines.json`);
//! - **mass fit**: per-epoch wall time of [`fit_block_masses`] on a
//!   labeled training set.
//!
//! Under `--test` (CI smoke) the fixtures shrink to seconds of work and
//! the JSON is not rewritten; a positional filter that `learn_report`
//! does not contain skips the report.

use criterion::{criterion_group, criterion_main, Criterion};
use mrsl_bench::{
    join_query, learned_model, percentile, reporter_selected, sample_ns, smoke_mode,
    synthetic_join_catalog,
};
use mrsl_core::{GibbsConfig, VotingConfig};
use mrsl_learn::{
    fit_block_masses, fit_ensemble_weights, standard_members, LabeledQuery, MassFitConfig,
    WeightStrategy,
};
use mrsl_probdb::{Catalog, CatalogEngine, Predicate, Query};
use mrsl_relation::{AttrId, ValueId};
use mrsl_util::derive_seed;
use std::fmt::Write as _;

/// Forward-vs-gradient latencies on a fresh engine per call (the gradient
/// path plans from scratch; so must its baseline for an honest ratio).
fn gradient_section(
    out: &mut String,
    name: &str,
    catalog: &Catalog,
    q: &Query,
    iters: usize,
) -> f64 {
    let forward = sample_ns(iters, || {
        let engine = CatalogEngine::new(catalog);
        std::hint::black_box(engine.probability(q).expect("forward"));
    });
    let gradient = sample_ns(iters, || {
        let engine = CatalogEngine::new(catalog);
        std::hint::black_box(engine.probability_with_gradient(q).expect("gradient"));
    });
    let forward_p50 = percentile(&forward, 0.5);
    let gradient_p50 = percentile(&gradient, 0.5);
    let overhead = gradient_p50 / forward_p50;
    let _ = writeln!(
        out,
        "  \"{name}\": {{\"forward_p50_ns\": {forward_p50:.0}, \
         \"gradient_p50_ns\": {gradient_p50:.0}, \"overhead\": {overhead:.2}}},"
    );
    overhead
}

fn emit_learn_report(_c: &mut Criterion) {
    if !reporter_selected("learn_report") {
        return;
    }
    let smoke = smoke_mode();
    let (train_n, holdout_n, fit_iters) = if smoke { (300, 6, 1) } else { (4_000, 60, 5) };
    let (stations, certain, blocks, grad_iters) = if smoke {
        (8, 40, 60, 2)
    } else {
        (64, 2_000, 4_000, 20)
    };
    let (epochs, epoch_iters) = if smoke { (3, 1) } else { (20, 5) };

    let mut out = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    let _ = writeln!(
        out,
        "  \"fixture\": {{\"train\": {train_n}, \"holdout\": {holdout_n}, \
         \"blocks\": {blocks}, \"mass_fit_epochs\": {epochs}}},"
    );

    // --- Weight fitting wall time. ------------------------------------
    let (bn, model) = learned_model("BN9", train_n, 0.005, 42);
    let holdout = mrsl_bayesnet::sampler::sample_dataset(&bn, holdout_n, derive_seed(42, &[2]));
    let gibbs = GibbsConfig {
        burn_in: 30,
        samples: 300,
        voting: VotingConfig::best_averaged(),
    };
    let mut instances = 0;
    let mut em_iterations = 0;
    let fit_times = sample_ns(fit_iters, || {
        let (_, report) = fit_ensemble_weights(
            &model,
            &holdout,
            VotingConfig::best_averaged(),
            standard_members(&gibbs),
            WeightStrategy::Em {
                max_iters: 100,
                tol: 1e-9,
            },
            9,
        )
        .expect("holdout non-empty");
        instances = report.instances;
        em_iterations = report.em_iterations;
    });
    let _ = writeln!(
        out,
        "  \"weight_fit\": {{\"fit_ms_p50\": {:.2}, \"instances\": {instances}, \
         \"members\": 4, \"em_iterations\": {em_iterations}}},",
        percentile(&fit_times, 0.5) / 1e6
    );

    // --- Gradient-pass overhead vs forward-only evaluation. -----------
    let catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
    let selection = Query::scan("sensors").filter(Predicate::eq(AttrId(1), ValueId(0)));
    let sel_overhead = gradient_section(
        &mut out,
        "gradient_selection",
        &catalog,
        &selection,
        grad_iters,
    );
    let join_overhead = gradient_section(
        &mut out,
        "gradient_join",
        &catalog,
        &join_query(),
        grad_iters,
    );

    // --- Mass-fit epoch wall time. ------------------------------------
    let labeled: Vec<LabeledQuery> = (0..3u16)
        .map(|v| {
            let q = Query::scan("sensors").filter(Predicate::eq(AttrId(1), ValueId(v)));
            let target = CatalogEngine::new(&catalog)
                .probability(&q)
                .expect("liftable")
                .0;
            LabeledQuery::new(q, (target - 0.05).max(0.01))
        })
        .collect();
    let epoch_times = sample_ns(epoch_iters, || {
        let mut fit_catalog = catalog.clone();
        let report = fit_block_masses(
            &mut fit_catalog,
            &labeled,
            &[],
            &MassFitConfig {
                epochs,
                learning_rate: 0.02,
                ..MassFitConfig::default()
            },
        )
        .expect("selections are liftable");
        std::hint::black_box(report.final_train_loss());
    });
    let _ = writeln!(
        out,
        "  \"mass_fit\": {{\"epoch_ms_p50\": {:.2}, \"train_queries\": {}, \"epochs\": {epochs}}}\n}}",
        percentile(&epoch_times, 0.5) / 1e6 / epochs as f64,
        labeled.len()
    );

    println!(
        "gradient overhead: selection {sel_overhead:.2}x, join {join_overhead:.2}x (vs forward-only)"
    );
    if smoke {
        println!("learn bench smoke mode: BENCH_learn.json left untouched");
        print!("{out}");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_learn.json");
    if let Err(err) = std::fs::write(path, &out) {
        eprintln!("BENCH_learn.json not written: {err}");
    } else {
        println!("wrote {path}");
        print!("{out}");
    }
}

criterion_group!(benches, emit_learn_report);
criterion_main!(benches);
