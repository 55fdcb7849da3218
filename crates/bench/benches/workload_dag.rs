//! Bench: tuple-DAG vs tuple-at-a-time workload sampling (Fig. 11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrsl_bench::{learned_model, workload};
use mrsl_core::{
    infer_batch, GibbsConfig, GibbsSampler, InferenceEngine, TupleDag, TupleDagWorkload,
    VotingConfig,
};

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_workload_strategies");
    group.sample_size(10);
    let (bn, model) = learned_model("BN9", 6_000, 0.005, 9);
    let config = GibbsConfig {
        burn_in: 100,
        samples: 500,
        voting: VotingConfig::best_averaged(),
    };
    let engines: [(&str, &dyn InferenceEngine); 2] = [
        ("tuple_at_a_time", &GibbsSampler::from_config(&config)),
        ("tuple_dag", &TupleDagWorkload::from_config(&config)),
    ];
    for &size in &[100usize, 300] {
        let tuples = workload(&bn, size, 5, 17);
        group.throughput(Throughput::Elements(size as u64));
        for (name, engine) in engines {
            let label = format!("{name}_{size}");
            group.bench_with_input(BenchmarkId::from_parameter(label), &tuples, |b, tuples| {
                b.iter(|| {
                    std::hint::black_box(infer_batch(&model, tuples, engine, config.voting, 3))
                })
            });
        }
    }
    group.finish();
}

fn bench_dag_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuple_dag_construction");
    group.sample_size(20);
    let (bn, _model) = learned_model("BN18", 1_000, 0.05, 9);
    for &size in &[200usize, 1_000] {
        let tuples = workload(&bn, size, 9, 23);
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &tuples, |b, tuples| {
            b.iter(|| std::hint::black_box(TupleDag::build(tuples)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_dag_construction);
criterion_main!(benches);
