//! End-to-end pipeline tests: generate → learn → infer → derive → query.

use mrsl_repro::bayesnet::catalog::by_name;
use mrsl_repro::bayesnet::{conditional, BayesianNetwork};
use mrsl_repro::core::{
    derive_probabilistic_db, DeriveConfig, GibbsConfig, LearnConfig, VotingConfig,
};
use mrsl_repro::eval::kl_divergence;
use mrsl_repro::probdb::{Catalog, CatalogEngine, Predicate, Query};
use mrsl_repro::relation::{AttrId, Relation, ValueId};
use mrsl_repro::util::seeded_rng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Builds an incomplete relation by sampling a catalog network and hiding
/// 1–2 attributes in the last `incomplete` tuples.
fn synthetic_relation(
    name: &str,
    complete: usize,
    incomplete: usize,
    seed: u64,
) -> (BayesianNetwork, Relation) {
    let net = by_name(name).expect("catalog network").topology;
    let bn = BayesianNetwork::instantiate(&net, 0.5, seed);
    let points = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, complete + incomplete, seed);
    let mut rel = Relation::new(bn.schema().clone());
    let arity = bn.schema().attr_count();
    let mut rng = seeded_rng(seed ^ 0xfe);
    for (i, p) in points.into_iter().enumerate() {
        if i < complete {
            rel.push_complete(p).unwrap();
        } else {
            let hide = rng.gen_range(1..=2usize);
            let mut attrs: Vec<u16> = (0..arity as u16).collect();
            attrs.shuffle(&mut rng);
            let mut t = p.to_partial();
            for &a in &attrs[..hide] {
                t = t.without_attr(AttrId(a));
            }
            rel.push(t).unwrap();
        }
    }
    (bn, rel)
}

fn quick_derive_config() -> DeriveConfig {
    DeriveConfig {
        learn: LearnConfig {
            support_threshold: 0.005,
            max_itemsets: 1000,
        },
        gibbs: GibbsConfig {
            burn_in: 100,
            samples: 800,
            voting: VotingConfig::best_averaged(),
        },
        ..DeriveConfig::default()
    }
}

#[test]
fn derived_blocks_are_valid_distributions_matching_observations() {
    let (_bn, rel) = synthetic_relation("BN9", 4000, 150, 7);
    let out = derive_probabilistic_db(&rel, &quick_derive_config());
    assert_eq!(out.db.blocks().len(), 150);
    for (block, t) in out.db.blocks().zip(rel.incomplete_part()) {
        let total: f64 = block.alternatives().iter().map(|a| a.prob).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for alt in block.alternatives() {
            assert!(
                t.matches_point(&alt.tuple),
                "alternative contradicts observations"
            );
            assert!(alt.prob > 0.0);
        }
    }
}

#[test]
fn derived_estimates_track_true_conditionals() {
    // The average KL between Δt and the generating network's exact
    // conditional should be small on an easy binary network.
    let (bn, rel) = synthetic_relation("BN8", 5000, 120, 3);
    let out = derive_probabilistic_db(&rel, &quick_derive_config());
    let mut kl_sum = 0.0;
    let mut n = 0usize;
    for (t, est) in rel.incomplete_part().iter().zip(&out.estimates) {
        let Some(truth) = conditional(&bn, t.missing_mask(), t) else {
            continue;
        };
        kl_sum += kl_divergence(&truth, &est.probs);
        n += 1;
    }
    let avg = kl_sum / n as f64;
    assert!(n >= 100);
    assert!(
        avg < 0.15,
        "average KL {avg} too high for BN8 at 5k training"
    );
}

#[test]
fn expected_counts_are_consistent_with_block_marginals() {
    let (_bn, rel) = synthetic_relation("BN13", 3000, 100, 11);
    let out = derive_probabilistic_db(&rel, &quick_derive_config());
    let attr = AttrId(0);
    // Sum of expected counts over all values of one attribute equals the
    // total number of tuples (every tuple has exactly one value).
    let card = rel.schema().cardinality(attr);
    let db_tuples = (out.db.certain().len() + out.db.blocks().len()) as f64;
    let mut catalog = Catalog::new();
    catalog.add("derived", out.db).expect("fresh catalog");
    let engine = CatalogEngine::new(&catalog);
    let mut total = 0.0;
    for v in 0..card as u16 {
        let query = Query::scan("derived").filter(Predicate::any().and_eq(attr, ValueId(v)));
        total += engine.expected_count(&query).expect("exact").0;
    }
    assert!((total - db_tuples).abs() < 1e-6, "{total} vs {db_tuples}");
}

#[test]
fn derivation_strategies_agree_end_to_end() {
    use mrsl_repro::core::{derive_probabilistic_db_with_engine, GibbsSampler};
    let (_bn, rel) = synthetic_relation("BN9", 2000, 60, 19);
    let mut config = quick_derive_config();
    config.gibbs.samples = 2500;
    let base = derive_probabilistic_db_with_engine(
        &rel,
        &config,
        &GibbsSampler::from_config(&config.gibbs),
    );
    let dag = derive_probabilistic_db(&rel, &config);
    // Same model, same block keys; estimates agree within MC noise.
    assert_eq!(base.db.blocks().len(), dag.db.blocks().len());
    for (a, b) in base.estimates.iter().zip(&dag.estimates) {
        for (pa, pb) in a.probs.iter().zip(&b.probs) {
            assert!((pa - pb).abs() < 0.12, "{pa} vs {pb}");
        }
    }
}

#[test]
fn larger_training_sets_do_not_hurt_accuracy() {
    let score = |train: usize| {
        let (bn, rel) = synthetic_relation("BN13", train, 80, 23);
        let out = derive_probabilistic_db(&rel, &quick_derive_config());
        let mut kl = 0.0;
        let mut n = 0;
        for (t, est) in rel.incomplete_part().iter().zip(&out.estimates) {
            if let Some(truth) = conditional(&bn, t.missing_mask(), t) {
                kl += kl_divergence(&truth, &est.probs);
                n += 1;
            }
        }
        kl / n as f64
    };
    let small = score(400);
    let large = score(6000);
    assert!(
        large <= small + 0.05,
        "more data should not hurt: {small} -> {large}"
    );
}
