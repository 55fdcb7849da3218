//! Learning-subsystem self-check: weighted ensembles and mass fitting.
//!
//! Beyond the paper's own tables, this experiment validates the two
//! halves of `mrsl_learn` end to end on a synthetic sensor network:
//!
//! 1. **Ensemble weights** — [`fit_ensemble_weights`] EM-fits per-engine
//!    weights on held-out observed tuples; the report compares each
//!    member's held-out top-1 accuracy with the learned mixture's and
//!    with uniform (unweighted) voting. The learned mixture must match
//!    or beat uniform voting.
//! 2. **Tuple-probability learning** — the fitted ensemble derives a
//!    probabilistic database, an oracle (the generating network's true
//!    conditionals) labels a handful of selection queries, and
//!    [`fit_block_masses`] descends the exact safe-plan gradients; the
//!    report shows the train and validation MSE shrinking.

use crate::experiments::ExpOptions;
use crate::report::Report;
use mrsl_bayesnet::{conditional, BayesianNetwork, NodeSpec, TopologySpec};
use mrsl_core::{
    derive_probabilistic_db_with_engine, DeriveConfig, GibbsConfig, LearnConfig, MrslModel,
    VotingConfig,
};
use mrsl_learn::{
    fit_block_masses, fit_ensemble_weights, standard_members, EnsembleEngine, EnsembleFitReport,
    LabeledQuery, MassFitConfig, MassFitReport, WeightStrategy,
};
use mrsl_probdb::{Catalog, CatalogEngine, Predicate, ProbDb, Query};
use mrsl_relation::{AttrId, JointIndexer, Relation, ValueId};
use mrsl_util::table::fmt_f;
use mrsl_util::{derive_seed, seeded_rng, Table};
use rand::Rng;

fn params(opts: &ExpOptions) -> (usize, usize, usize, usize, usize) {
    // (train, holdout, catalog complete, catalog incomplete, fit epochs).
    // The audited slice stays small: `P(σ non-empty)` over n blocks is
    // `1 − Π(1 − matched mass)`, which saturates to 1 (zero gradient,
    // zero residual) once dozens of blocks can match a selection.
    if opts.full {
        (10_000, 120, 1_000, 24, 300)
    } else {
        (3_000, 48, 400, 12, 120)
    }
}

/// front → (temp, humidity); (temp, humidity) → sky.
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

struct Fitted {
    ensemble: EnsembleEngine,
    weights: EnsembleFitReport,
    masses: MassFitReport,
}

/// A copy of the derived database re-massed with the generating
/// network's true conditionals: the labeling oracle.
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

fn fit(opts: &ExpOptions) -> Fitted {
    let (train_n, holdout_n, complete_n, incomplete_n, epochs) = params(opts);
    let bn = BayesianNetwork::instantiate(&weather_network(), 0.5, opts.seed);
    let train = mrsl_bayesnet::sampler::sample_dataset(&bn, train_n, derive_seed(opts.seed, &[1]));
    let holdout =
        mrsl_bayesnet::sampler::sample_dataset(&bn, holdout_n, derive_seed(opts.seed, &[2]));
    let learn_config = LearnConfig {
        support_threshold: 0.005,
        max_itemsets: 1000,
    };
    let model = MrslModel::learn(bn.schema(), &train, &learn_config);

    let (ensemble, weights) = fit_ensemble_weights(
        &model,
        &holdout,
        VotingConfig::best_averaged(),
        standard_members(&gibbs()),
        WeightStrategy::Em {
            max_iters: 200,
            tol: 1e-9,
        },
        derive_seed(opts.seed, &[3]),
    )
    .expect("holdout is non-empty");

    // Derive a catalog under the fitted mixture: a well-observed history
    // plus a small slice of readings that each lost one attribute.
    let fresh = mrsl_bayesnet::sampler::sample_dataset(
        &bn,
        complete_n + incomplete_n,
        derive_seed(opts.seed, &[4]),
    );
    let mut rel = Relation::new(bn.schema().clone());
    let mut rng = seeded_rng(derive_seed(opts.seed, &[5]));
    for (i, point) in fresh.iter().enumerate() {
        if i < complete_n {
            rel.push_complete(point.clone()).expect("arity ok");
        } else {
            let drop = AttrId(rng.gen_range(0..4u16));
            rel.push(point.to_partial().without_attr(drop))
                .expect("arity ok");
        }
    }
    let derive_config = DeriveConfig {
        learn: learn_config,
        gibbs: gibbs(),
        seed: derive_seed(opts.seed, &[6]),
        ..DeriveConfig::default()
    };
    let out = derive_probabilistic_db_with_engine(&rel, &derive_config, &ensemble);

    // Audit only the uncertain readings: a certain tuple matching a
    // selection saturates `P = 1` no matter the masses, which would zero
    // every gradient (and every residual) for that query.
    let mut uncertain = ProbDb::new(out.db.schema().clone());
    uncertain.set_provenance(out.db.provenance().unwrap_or("ensemble"));
    for b in out.db.blocks() {
        uncertain.push_block(b).expect("derived blocks stay valid");
    }

    // Label selection queries with the oracle and fit the masses.
    let gold = gold_catalog(&uncertain, &rel, &bn);
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
    catalog.add("weather", uncertain).expect("fresh catalog");
    let masses = fit_block_masses(
        &mut catalog,
        &labeled,
        &validation,
        &MassFitConfig {
            epochs,
            learning_rate: 0.01,
            ..MassFitConfig::default()
        },
    )
    .expect("selection queries are liftable");

    Fitted {
        ensemble,
        weights,
        masses,
    }
}

/// Learned ensemble weights + gradient mass fitting, one summary table.
pub fn run(opts: &ExpOptions) -> Report {
    let fitted = fit(opts);
    let mut table = Table::new(["quantity", "value"]);
    for ((name, w), acc) in fitted
        .weights
        .members
        .iter()
        .zip(&fitted.weights.weights)
        .zip(&fitted.weights.member_accuracy)
    {
        table.push_row([
            format!("{name} weight / top-1"),
            format!("{} / {}%", fmt_f(*w, 3), fmt_f(100.0 * acc, 1)),
        ]);
    }
    table.push_row([
        "ensemble top-1 (uniform)".into(),
        format!(
            "{}% ({}%)",
            fmt_f(100.0 * fitted.weights.ensemble_accuracy, 1),
            fmt_f(100.0 * fitted.weights.uniform_accuracy, 1)
        ),
    ]);
    table.push_row([
        "ensemble held-out LL (uniform)".into(),
        format!(
            "{} ({})",
            fmt_f(fitted.weights.ensemble_log_likelihood, 2),
            fmt_f(fitted.weights.uniform_log_likelihood, 2)
        ),
    ]);
    table.push_row([
        "mass-fit train MSE".into(),
        format!(
            "{:.2e} -> {:.2e}",
            fitted.masses.initial_train_loss(),
            fitted.masses.final_train_loss()
        ),
    ]);
    table.push_row([
        "mass-fit validation MSE".into(),
        format!(
            "{:.2e} -> {:.2e}",
            fitted
                .masses
                .validation_loss
                .first()
                .expect("validation set"),
            fitted
                .masses
                .validation_loss
                .last()
                .expect("validation set")
        ),
    ]);
    Report::new(
        "learn",
        "Learning subsystem: EM ensemble weights on held-out tuples + gradient mass fitting on labeled answers",
        table,
    )
    .note(format!(
        "fitted mixture {}; {} held-out instances, {} EM iterations; mass fit over {} epochs",
        fitted.ensemble.describe(),
        fitted.weights.instances,
        fitted.weights.em_iterations,
        fitted.masses.epochs
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learned_weights_hold_their_own_and_mass_fit_converges() {
        let opts = ExpOptions {
            seed: 11,
            ..ExpOptions::default()
        };
        let fitted = fit(&opts);
        // EM starts from uniform weights and ascends the held-out mixture
        // likelihood monotonically, so the fitted mixture never scores
        // below uniform voting on its objective...
        assert!(
            fitted.weights.ensemble_log_likelihood >= fitted.weights.uniform_log_likelihood - 1e-9,
            "learned LL {} vs uniform {}",
            fitted.weights.ensemble_log_likelihood,
            fitted.weights.uniform_log_likelihood
        );
        // ...and top-1 accuracy tracks it to within a single flipped
        // instance.
        assert!(
            fitted.weights.ensemble_accuracy
                >= fitted.weights.uniform_accuracy - 1.0 / fitted.weights.instances as f64 - 1e-9,
            "learned {} vs uniform {}",
            fitted.weights.ensemble_accuracy,
            fitted.weights.uniform_accuracy
        );
        // Gradient fitting fits the labeled answers...
        assert!(fitted.masses.final_train_loss() < fitted.masses.initial_train_loss() / 10.0);
        // ...and generalizes to held-out labels rather than overfitting.
        assert!(
            fitted.masses.validation_loss.last().unwrap()
                <= fitted.masses.validation_loss.first().unwrap()
        );
    }
}
