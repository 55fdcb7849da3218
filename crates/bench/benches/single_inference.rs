//! Bench: single-attribute inference (regenerates the Fig. 9 trend —
//! per-tuple inference time as a function of model size — and ablates the
//! voter choice / voting scheme, which the paper found to have "no
//! measurable effect" on inference time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrsl_bench::{learned_model, workload};
use mrsl_core::{InferContext, VotingConfig};

fn bench_vs_model_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_inference_vs_model_size");
    group.sample_size(20);
    // Networks of increasing model size at θ = 0.002.
    for name in ["BN8", "BN9", "BN14", "BN17"] {
        let (bn, model) = learned_model(name, 10_000, 0.002, 11);
        let tuples = workload(&bn, 500, 1, 3);
        group.throughput(Throughput::Elements(tuples.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{name}_size_{}", model.size())),
            &tuples,
            |b, tuples| {
                let mut ctx = InferContext::new(&model, VotingConfig::best_averaged());
                b.iter(|| {
                    for t in tuples {
                        let attr = t.missing_mask().iter().next().expect("one missing");
                        std::hint::black_box(ctx.vote_single(t, attr));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_voting_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("voting_method_ablation");
    group.sample_size(20);
    let (bn, model) = learned_model("BN9", 10_000, 0.002, 11);
    let tuples = workload(&bn, 500, 1, 3);
    for voting in VotingConfig::table2_order() {
        group.bench_with_input(
            BenchmarkId::from_parameter(voting.label().replace(' ', "_")),
            &voting,
            |b, voting| {
                let mut ctx = InferContext::new(&model, *voting);
                b.iter(|| {
                    for t in &tuples {
                        let attr = t.missing_mask().iter().next().expect("one missing");
                        std::hint::black_box(ctx.vote_single(t, attr));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_vs_model_size, bench_voting_methods);
criterion_main!(benches);
