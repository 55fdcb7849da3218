//! The learning subsystem end to end: fit ensemble weights on held-out
//! tuples, derive a probabilistic database with the learned ensemble,
//! then gradient-tune its block masses against audited query answers.
//!
//! A sensor fleet again loses readings, but this time we *learn how much
//! to trust each inference strategy* instead of picking one up front:
//!
//! 1. [`fit_ensemble_weights`] masks each attribute of a held-out slice
//!    of clean readings, scores all four engines on recovering the true
//!    values, and EM-fits mixture weights — the fitted
//!    [`EnsembleEngine`] is a drop-in engine for the whole pipeline.
//! 2. [`derive_probabilistic_db_with_engine`] derives the probabilistic
//!    database under that learned mixture; the relation records the
//!    ensemble as its provenance.
//! 3. An auditor supplies the true probabilities of a few selection
//!    queries (here computed from the generating network);
//!    [`fit_block_masses`] descends the exact safe-plan gradients to pull
//!    the block masses toward masses consistent with those answers,
//!    reporting train/validation loss per epoch.
//!
//! Run with: `cargo run --release --example learning`

use mrsl_repro::bayesnet::{conditional, BayesianNetwork, NodeSpec, TopologySpec};
use mrsl_repro::core::{
    derive_probabilistic_db_with_engine, DeriveConfig, GibbsConfig, LearnConfig, MrslModel,
    VotingConfig,
};
use mrsl_repro::learn::{
    fit_block_masses, fit_ensemble_weights, standard_members, LabeledQuery, MassFitConfig,
    WeightStrategy,
};
use mrsl_repro::probdb::{Catalog, CatalogEngine, Predicate, ProbDb, Query};
use mrsl_repro::relation::{AttrId, JointIndexer, Relation, ValueId};
use mrsl_repro::util::seeded_rng;
use rand::Rng;

/// front → (temp, humidity); temp → sky; (humidity, sky) → visibility.
fn weather_network() -> TopologySpec {
    TopologySpec::new(
        "weather",
        vec![
            NodeSpec {
                name: "front".into(),
                cardinality: 3,
                parents: vec![],
            },
            NodeSpec {
                name: "temp".into(),
                cardinality: 3,
                parents: vec![0],
            },
            NodeSpec {
                name: "humidity".into(),
                cardinality: 3,
                parents: vec![0],
            },
            NodeSpec {
                name: "sky".into(),
                cardinality: 3,
                parents: vec![1, 2],
            },
        ],
    )
    .expect("valid topology")
}

fn gibbs() -> GibbsConfig {
    GibbsConfig {
        burn_in: 60,
        samples: 600,
        voting: VotingConfig::best_averaged(),
    }
}

/// A copy of the derived database whose block masses are the generating
/// network's true conditionals — the "auditor" who labels query answers.
fn gold_catalog(derived: &ProbDb, rel: &Relation, bn: &BayesianNetwork) -> Catalog {
    let mut db = derived.clone();
    for (b, t) in rel.incomplete_part().iter().enumerate() {
        let truth = conditional(bn, t.missing_mask(), t).expect("network covers every evidence");
        let indexer = JointIndexer::new(bn.schema(), t.missing_mask());
        let mut probs: Vec<f64> = db
            .block(b)
            .alternatives()
            .iter()
            .map(|a| {
                let combo: Vec<ValueId> = indexer
                    .attrs()
                    .iter()
                    .map(|&attr| ValueId(a.tuple.raw()[attr.0 as usize]))
                    .collect();
                truth[indexer.index_of(&combo)].max(1e-6)
            })
            .collect();
        let sum: f64 = probs.iter().sum();
        probs.iter_mut().for_each(|p| *p /= sum);
        db.set_block_masses(b, &probs)
            .expect("renormalized truth is a valid distribution");
    }
    let mut catalog = Catalog::new();
    catalog.add("weather", db).expect("fresh catalog");
    catalog
}

fn main() {
    let bn = BayesianNetwork::instantiate(&weather_network(), 0.5, 41);

    // 3000 clean readings to learn the model, 40 more held out for
    // weight fitting.
    let train = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 3000, 1);
    let holdout = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 40, 2);
    let learn_config = LearnConfig {
        support_threshold: 0.005,
        max_itemsets: 1000,
    };
    let model = MrslModel::learn(bn.schema(), &train, &learn_config);
    println!(
        "learned MRSL model from {} readings: {} meta-rules",
        train.len(),
        model.size()
    );

    // --- 1. Fit ensemble weights on the held-out slice. ---------------
    let (ensemble, report) = fit_ensemble_weights(
        &model,
        &holdout,
        VotingConfig::best_averaged(),
        standard_members(&gibbs()),
        WeightStrategy::Em {
            max_iters: 200,
            tol: 1e-9,
        },
        7,
    )
    .expect("holdout is non-empty");
    println!(
        "\nfitted ensemble weights on {} masked instances ({} EM iterations):",
        report.instances, report.em_iterations
    );
    for ((name, w), acc) in report
        .members
        .iter()
        .zip(&report.weights)
        .zip(&report.member_accuracy)
    {
        println!("  {name:<14} weight {w:.3}   top-1 {:.1}%", 100.0 * acc);
    }
    println!(
        "  weighted mixture top-1 {:.1}%  (uniform voting {:.1}%)",
        100.0 * report.ensemble_accuracy,
        100.0 * report.uniform_accuracy
    );

    // --- 2. Derive a probabilistic database under the mixture. --------
    let fresh = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 120, 3);
    let mut rel = Relation::new(bn.schema().clone());
    let mut rng = seeded_rng(17);
    for (i, point) in fresh.iter().enumerate() {
        if i % 2 == 0 {
            rel.push_complete(point.clone()).unwrap();
        } else {
            // Each incomplete reading loses one attribute.
            let drop = AttrId(rng.gen_range(0..4u16));
            rel.push(point.to_partial().without_attr(drop)).unwrap();
        }
    }
    let derive_config = DeriveConfig {
        learn: learn_config,
        gibbs: gibbs(),
        seed: 23,
        ..DeriveConfig::default()
    };
    let out = derive_probabilistic_db_with_engine(&rel, &derive_config, &ensemble);
    println!(
        "\nderived {} blocks + {} certain tuples under provenance {:?} ({})",
        out.db.blocks().len(),
        out.db.certain().len(),
        out.db.provenance().unwrap_or("?"),
        ensemble.describe()
    );

    // --- 3. Gradient-tune the masses against audited answers. ---------
    let gold = gold_catalog(&out.db, &rel, &bn);
    let auditor = CatalogEngine::new(&gold);
    let mut labeled: Vec<LabeledQuery> = Vec::new();
    for attr in 0..4u16 {
        for value in 0..3u16 {
            let q = Query::scan("weather").filter(
                Predicate::eq(AttrId(attr), ValueId(value))
                    .and_eq(AttrId((attr + 1) % 4), ValueId(value % 3)),
            );
            let target = auditor.probability(&q).expect("liftable selection").0;
            labeled.push(LabeledQuery::new(q, target));
        }
    }
    let validation = labeled.split_off(9);

    let mut catalog = Catalog::new();
    catalog.add("weather", out.db).expect("fresh catalog");
    let fit_config = MassFitConfig {
        epochs: 120,
        learning_rate: 0.01,
        ..MassFitConfig::default()
    };
    let fit = fit_block_masses(&mut catalog, &labeled, &validation, &fit_config)
        .expect("selection queries are liftable");
    println!(
        "\nfitted block masses to {} audited answers over {} epochs:",
        labeled.len(),
        fit.epochs
    );
    println!(
        "  train MSE      {:.2e} -> {:.2e}",
        fit.initial_train_loss(),
        fit.final_train_loss()
    );
    println!(
        "  validation MSE {:.2e} -> {:.2e}",
        fit.validation_loss.first().unwrap(),
        fit.validation_loss.last().unwrap()
    );
    println!(
        "  provenance now {:?}",
        catalog.get("weather").unwrap().provenance().unwrap_or("?")
    );
    assert!(fit.final_train_loss() < fit.initial_train_loss());
}
