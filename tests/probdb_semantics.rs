//! Possible-world semantics of derived databases: exact query evaluation
//! must agree with both world enumeration and Monte-Carlo estimation.

use mrsl_repro::core::{derive_probabilistic_db, DeriveConfig, GibbsConfig, LearnConfig};
use mrsl_repro::probdb::testutil::oracle;
use mrsl_repro::probdb::world::enumerate_worlds;
use mrsl_repro::probdb::{
    Catalog, CatalogEngine, Predicate, ProbDb, Query, QueryAnswer, QueryEngineConfig, Statistic,
};
use mrsl_repro::relation::relation::fig1_relation;
use mrsl_repro::relation::{AttrId, ValueId};

fn derived() -> ProbDb {
    let rel = fig1_relation();
    let config = DeriveConfig {
        learn: LearnConfig {
            support_threshold: 0.05,
            max_itemsets: 1000,
        },
        gibbs: GibbsConfig {
            burn_in: 50,
            samples: 400,
            ..GibbsConfig::default()
        },
        ..DeriveConfig::default()
    };
    derive_probabilistic_db(&rel, &config).db
}

/// `db` as the one relation `db` of a fresh catalog.
fn single(db: ProbDb) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add("db", db).unwrap();
    catalog
}

/// A forced-Monte-Carlo engine: 30,000 worlds drawn from `seed`.
fn forced(catalog: &Catalog, seed: u64) -> CatalogEngine<'_> {
    CatalogEngine::with_config(
        catalog,
        QueryEngineConfig {
            force_monte_carlo: true,
            mc_samples: 30_000,
            mc_seed: seed,
            ..QueryEngineConfig::default()
        },
    )
}

#[test]
fn world_probabilities_of_derived_db_sum_to_one() {
    let db = derived();
    // Fig. 1 derives 9 blocks; enumerate a capped sub-database to keep the
    // world count tractable: take the first 5 blocks only.
    let mut small = ProbDb::new(db.schema().clone());
    for t in db.certain() {
        small.push_certain(t).unwrap();
    }
    for b in db.blocks().take(5) {
        small.push_block(b).unwrap();
    }
    let worlds = enumerate_worlds(&small, 2_000_000);
    let total: f64 = worlds.iter().map(|w| w.prob).sum();
    assert!((total - 1.0).abs() < 1e-9, "total world mass {total}");
}

#[test]
fn exact_count_distribution_matches_enumeration_on_derived_db() {
    let db = derived();
    let mut small = ProbDb::new(db.schema().clone());
    for b in db.blocks().take(6) {
        small.push_block(b).unwrap();
    }
    let pred = Predicate::any().and_eq(AttrId(2), ValueId(0)); // inc = 50K
                                                               // The shared joint-world oracle is the ground truth: wrap the capped
                                                               // database in a one-relation catalog and compare.
    let catalog = single(small);
    let query = Query::scan("db").filter(pred);
    let (exact, _) = CatalogEngine::new(&catalog)
        .count_distribution(&query)
        .unwrap();
    let brute = oracle(&catalog, &query, 5_000_000)
        .unwrap()
        .count_distribution;
    // Compare over the longer support so mass beyond either vector's
    // length is caught, not silently skipped.
    for k in 0..exact.len().max(brute.len()) {
        let a = exact.get(k).copied().unwrap_or(0.0);
        let b = brute.get(k).copied().unwrap_or(0.0);
        assert!((a - b).abs() < 1e-9, "count {k}: {a} vs {b}");
    }
}

#[test]
fn monte_carlo_agrees_with_exact_on_derived_db() {
    let catalog = single(derived());
    let query = Query::scan("db").filter(Predicate::any().and_eq(AttrId(0), ValueId(0))); // age = 20
    let engine = CatalogEngine::new(&catalog);
    let (exact, _) = engine.expected_count(&query).unwrap();
    let (answer, _) = forced(&catalog, 3)
        .evaluate(&query, Statistic::ExpectedCount)
        .unwrap();
    let QueryAnswer::Count {
        mean: mc,
        std_error,
    } = answer
    else {
        panic!("count expected");
    };
    let se = std_error.expect("MC std error");
    assert!(
        (mc - exact).abs() < 4.0 * se + 0.05,
        "mc {mc} vs exact {exact} (se {se})"
    );
    let (exact_dist, _) = engine.count_distribution(&query).unwrap();
    let (mc_dist, _) = forced(&catalog, 4).count_distribution(&query).unwrap();
    assert_eq!(mc_dist.len(), exact_dist.len());
    for (k, &e) in exact_dist.iter().enumerate() {
        assert!(
            (mc_dist[k] - e).abs() < 0.02,
            "k={k}: {} vs {e}",
            mc_dist[k]
        );
    }
}

#[test]
fn top_k_is_consistent_with_block_contents() {
    let catalog = single(derived());
    let db = catalog.get("db").unwrap();
    let (ranked, _) = CatalogEngine::new(&catalog)
        .top_k(&Query::scan("db"), 1000)
        .unwrap();
    // Certain tuples rank first with probability 1.
    assert!(ranked[..db.certain().len()].iter().all(|r| r.prob == 1.0));
    // Every ranked block tuple exists in its block with that probability.
    for r in ranked.iter().filter(|r| r.block.is_some()) {
        let block = db
            .blocks()
            .find(|b| b.key() == r.block.unwrap())
            .expect("block exists");
        assert!(block
            .alternatives()
            .iter()
            .any(|a| a.tuple == r.tuple && (a.prob - r.prob).abs() < 1e-12));
    }
}
