//! Bench: multi-attribute Gibbs inference per tuple (supports Fig. 10's
//! cost axis — sampling cost grows linearly in samples per tuple — and
//! ablates the number of missing attributes), plus both sides of the
//! chain-local CPD table's size bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrsl_bayesnet::BayesianNetwork;
use mrsl_bench::{learned_model, workload};
use mrsl_core::{GibbsSampler, InferContext, InferenceEngine, VotingConfig};
use mrsl_relation::{JointIndexer, PartialTuple};

/// Estimates every tuple on one warm context, tuple `i` with seed `i`.
fn estimate_all(engine: &GibbsSampler, ctx: &mut InferContext<'_>, tuples: &[PartialTuple]) {
    for (i, t) in tuples.iter().enumerate() {
        std::hint::black_box(engine.estimate(ctx, t, i as u64));
    }
}

/// Five tuples of `bn` (BN18: binary attributes) with exactly `k`
/// attributes missing, so |joint| = 2^k.
fn missing_exactly(bn: &BayesianNetwork, k: usize) -> Vec<PartialTuple> {
    workload(bn, 200, k, k as u64)
        .into_iter()
        .filter(|t| t.missing_mask().count() == k)
        .take(5)
        .collect()
}

fn bench_samples_per_tuple(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs_samples_per_tuple");
    group.sample_size(10);
    let (bn, model) = learned_model("BN9", 8_000, 0.005, 5);
    let tuples = workload(&bn, 8, 3, 1);
    for &n in &[100usize, 500, 2_000] {
        let engine = GibbsSampler {
            burn_in: 100,
            samples: n,
        };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &engine, |b, engine| {
            let mut ctx = InferContext::new(&model, VotingConfig::best_averaged());
            b.iter(|| estimate_all(engine, &mut ctx, &tuples))
        });
    }
    group.finish();
}

fn bench_missing_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs_vs_missing_attrs");
    group.sample_size(10);
    let (bn, model) = learned_model("BN18", 8_000, 0.005, 5);
    let engine = GibbsSampler {
        burn_in: 100,
        samples: 500,
    };
    for &k in &[2usize, 4, 6] {
        let tuples = missing_exactly(&bn, k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &tuples, |b, tuples| {
            let mut ctx = InferContext::new(&model, VotingConfig::best_averaged());
            b.iter(|| estimate_all(&engine, &mut ctx, tuples))
        });
    }
    group.finish();
}

/// A chain keeps a local CPD table only when its joint has at most B + N
/// cells. Six missing BN18 attributes give |joint| = 64, so B + N = 64
/// sits at the bound (`table/64`: every step reads the table once it is
/// filled) and B + N = 50 puts the joint over it (`shared/50`: every step
/// probes the context's shared cache). Throughput counts sweeps, so the
/// two arms compare per sweep.
fn bench_table_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs_table_bound");
    group.sample_size(10);
    let (bn, model) = learned_model("BN18", 8_000, 0.005, 5);
    let tuples = missing_exactly(&bn, 6);
    let joint = |t: &PartialTuple| JointIndexer::new(model.schema(), t.missing_mask()).size();
    assert!(
        tuples.iter().all(|t| joint(t) == 64),
        "six binary attributes"
    );
    for (arm, burn_in, samples) in [("table", 14usize, 50usize), ("shared", 10, 40)] {
        let engine = GibbsSampler { burn_in, samples };
        let sweeps = burn_in + samples;
        group.throughput(Throughput::Elements((sweeps * tuples.len()) as u64));
        group.bench_with_input(BenchmarkId::new(arm, sweeps), &engine, |b, engine| {
            let mut ctx = InferContext::new(&model, VotingConfig::best_averaged());
            b.iter(|| estimate_all(engine, &mut ctx, &tuples))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_samples_per_tuple,
    bench_missing_count,
    bench_table_bound
);
criterion_main!(benches);
