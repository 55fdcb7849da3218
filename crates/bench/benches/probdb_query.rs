//! Bench: single-relation statistics through `CatalogEngine` — exact BID
//! evaluation vs forced Monte-Carlo world sampling, on a derived database
//! and on a wide synthetic one.
//!
//! The wide database is built directly (no model derivation) so those
//! rows isolate query evaluation: many certain rows, many blocks, and a
//! compound `Or`/`Range`/`Not` predicate.
//!
//! Run with `cargo bench -p mrsl_bench --bench probdb_query`; `-- --test`
//! runs every row once as a smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrsl_bench::{network, wide_synthetic_db, workload};
use mrsl_core::{derive_probabilistic_db, DeriveConfig, GibbsConfig, LearnConfig};
use mrsl_probdb::{Catalog, CatalogEngine, Predicate, ProbDb, Query, QueryEngineConfig, Statistic};
use mrsl_relation::{AttrId, Relation, ValueId};

fn derived_db(blocks: usize) -> ProbDb {
    let bn = network("BN9", 5);
    let mut rel = Relation::new(bn.schema().clone());
    for p in mrsl_bayesnet::sampler::sample_dataset(&bn, 2_000, 1) {
        rel.push_complete(p).expect("arity ok");
    }
    for t in workload(&bn, blocks, 2, 3) {
        rel.push(t).expect("arity ok");
    }
    let config = DeriveConfig {
        learn: LearnConfig {
            support_threshold: 0.01,
            max_itemsets: 1000,
        },
        gibbs: GibbsConfig {
            burn_in: 50,
            samples: 300,
            ..GibbsConfig::default()
        },
        ..DeriveConfig::default()
    };
    derive_probabilistic_db(&rel, &config).db
}

/// `db` as the one relation `db` of a fresh catalog.
fn single(db: ProbDb) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add("db", db).expect("fresh catalog");
    catalog
}

/// Sampling forced for every estimable statistic.
fn forced(samples: usize, seed: u64) -> QueryEngineConfig {
    QueryEngineConfig {
        force_monte_carlo: true,
        mc_samples: samples,
        mc_seed: seed,
        ..QueryEngineConfig::default()
    }
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("probdb_queries");
    group.sample_size(20);
    let catalog = single(derived_db(500));
    let query = Query::scan("db").filter(Predicate::any().and_eq(AttrId(0), ValueId(1)));
    let engine = CatalogEngine::new(&catalog);

    group.bench_function("exact_expected_count", |b| {
        b.iter(|| std::hint::black_box(engine.expected_count(&query).expect("exact")))
    });
    group.bench_function("exact_count_distribution", |b| {
        b.iter(|| std::hint::black_box(engine.count_distribution(&query).expect("exact")))
    });
    for &samples in &[1_000usize, 10_000] {
        let engine = CatalogEngine::with_config(&catalog, forced(samples, 3));
        group.bench_with_input(
            BenchmarkId::new("monte_carlo_expected_count", samples),
            &samples,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        engine
                            .evaluate(&query, Statistic::ExpectedCount)
                            .expect("n > 0"),
                    )
                })
            },
        );
    }
    group.finish();
}

/// A compound predicate touching three attributes:
/// `(a0 ∈ {1,3,5} ∨ 2 ≤ a1 ≤ 5) ∧ ¬(a2 = 0)`.
fn wide_predicate() -> Predicate {
    Predicate::is_in(AttrId(0), [ValueId(1), ValueId(3), ValueId(5)])
        .or(Predicate::range(AttrId(1), ValueId(2), ValueId(5)))
        .and(Predicate::eq(AttrId(2), ValueId(0)).negate())
}

fn bench_wide(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_engine");
    group.sample_size(20);
    for &(certain, blocks) in &[(20_000usize, 2_000usize), (50_000, 10_000)] {
        let catalog = single(wide_synthetic_db(8, 8, certain, blocks, 3, 42));
        let query = Query::scan("db").filter(wide_predicate());
        group.bench_with_input(
            BenchmarkId::new("planned_expected_count", certain + blocks),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::new(catalog);
                b.iter(|| std::hint::black_box(engine.expected_count(&query).expect("exact")))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("planned_count_distribution_mc", certain + blocks),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::with_config(catalog, forced(1_000, 0x5eed));
                b.iter(|| std::hint::black_box(engine.count_distribution(&query).expect("mc")))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_queries, bench_wide);
criterion_main!(benches);
