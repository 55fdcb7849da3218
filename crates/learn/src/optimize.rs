//! Tuple-probability learning: gradient descent on block masses.
//!
//! A derived catalog's block-alternative masses are estimates; when some
//! query answers are *known* (audited counts, gold labels), the masses can
//! be adjusted to fit them. [`fit_block_masses`] descends the squared
//! error
//!
//! ```text
//!     L = (1/|T|) Σ_q  (P(q) − target_q)²
//! ```
//!
//! using the exact reverse-mode safe-plan gradients of
//! [`CatalogEngine::probability_with_gradient`]: each epoch accumulates
//! `∂L/∂m` over every labeled training query, takes one Adam step per
//! alternative mass, and projects every block back onto its probability
//! simplex (clamp to a mass floor, renormalize to sum 1) before applying
//! it through [`ProbDb::set_block_masses`] — so the catalog stays a valid
//! BID database after every epoch and live readers see each epoch as one
//! atomic version bump per relation.
//!
//! Non-liftable queries surface as
//! [`ProbDbError::NotDifferentiable`](mrsl_probdb::ProbDbError) from the
//! first epoch rather than silently skewing the fit.
//!
//! [`CatalogEngine::probability_with_gradient`]: mrsl_probdb::CatalogEngine::probability_with_gradient
//! [`ProbDb::set_block_masses`]: mrsl_probdb::ProbDb::set_block_masses

use mrsl_probdb::{Catalog, CatalogEngine, ProbDbError, Query};
use std::collections::BTreeMap;

/// A query whose boolean probability has a known target value.
#[derive(Debug, Clone)]
pub struct LabeledQuery {
    /// The (safe, liftable) boolean query.
    pub query: Query,
    /// The target `P(query)` in `[0, 1]`.
    pub target: f64,
}

impl LabeledQuery {
    /// Convenience constructor.
    pub fn new(query: Query, target: f64) -> Self {
        Self { query, target }
    }
}

/// Hyper-parameters for [`fit_block_masses`].
#[derive(Debug, Clone, Copy)]
pub struct MassFitConfig {
    /// Full passes over the training labels.
    pub epochs: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// Adam first-moment decay.
    pub beta1: f64,
    /// Adam second-moment decay.
    pub beta2: f64,
    /// Adam denominator stabilizer.
    pub adam_eps: f64,
    /// Mass floor applied before renormalizing each block: keeps every
    /// alternative strictly positive so no world is ever ruled out
    /// irreversibly (a zero mass has zero gradient forever).
    pub min_mass: f64,
}

impl Default for MassFitConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            learning_rate: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            adam_eps: 1e-8,
            min_mass: 1e-4,
        }
    }
}

/// Loss trajectory of a [`fit_block_masses`] run.
#[derive(Debug, Clone)]
pub struct MassFitReport {
    /// Mean squared training error, one entry per epoch boundary:
    /// `train_loss[0]` is the pre-fit loss, `train_loss[epochs]` the final
    /// loss (`epochs + 1` entries).
    pub train_loss: Vec<f64>,
    /// Mean squared validation error on the same boundaries; empty when
    /// no validation labels were supplied.
    pub validation_loss: Vec<f64>,
    /// Epochs actually run.
    pub epochs: usize,
    /// Relations whose masses were updated, sorted by name.
    pub relations: Vec<String>,
}

impl MassFitReport {
    /// Pre-fit mean squared training error.
    pub fn initial_train_loss(&self) -> f64 {
        self.train_loss.first().copied().unwrap_or(0.0)
    }

    /// Post-fit mean squared training error.
    pub fn final_train_loss(&self) -> f64 {
        self.train_loss.last().copied().unwrap_or(0.0)
    }
}

/// Per-relation Adam state, one slot per flattened alternative row.
struct AdamState {
    m1: Vec<f64>,
    m2: Vec<f64>,
}

/// Fits the block-alternative masses of `catalog` to labeled query
/// answers by projected Adam on the exact safe-plan gradients.
///
/// Every epoch evaluates each training query with
/// [`CatalogEngine::probability_with_gradient`], accumulates
/// `2 (P − target) ∂P/∂m` per alternative row, steps every touched
/// relation's masses with Adam, clamps each mass to `config.min_mass`,
/// renormalizes each block to sum 1 and applies the result through
/// [`ProbDb::set_block_masses`]. Updated relations get `+mass-fit`
/// appended to their provenance.
///
/// Returns the per-epoch train (and, when `validation` is non-empty,
/// validation) mean-squared-error trajectory; index 0 is the pre-fit
/// loss, the last index the post-fit loss.
///
/// # Errors
/// Propagates planner errors: unknown relations, unsafe plans, and
/// non-liftable (hence non-differentiable) safe plans.
///
/// [`CatalogEngine::probability_with_gradient`]: mrsl_probdb::CatalogEngine::probability_with_gradient
/// [`ProbDb::set_block_masses`]: mrsl_probdb::ProbDb::set_block_masses
pub fn fit_block_masses(
    catalog: &mut Catalog,
    train: &[LabeledQuery],
    validation: &[LabeledQuery],
    config: &MassFitConfig,
) -> Result<MassFitReport, ProbDbError> {
    let mut adam: BTreeMap<String, AdamState> = BTreeMap::new();
    let mut train_loss = Vec::with_capacity(config.epochs + 1);
    let mut validation_loss = Vec::with_capacity(config.epochs + 1);
    let mut touched: BTreeMap<String, bool> = BTreeMap::new();

    for step in 0..=config.epochs {
        // Forward + backward pass under an immutable borrow of the
        // catalog; the mutable mass update happens after the engine is
        // dropped.
        let mut grad_acc: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut mse = 0.0;
        {
            let engine = CatalogEngine::new(catalog);
            for lq in train {
                let (p, grads) = engine.probability_with_gradient(&lq.query)?;
                let residual = p - lq.target;
                mse += residual * residual;
                for (rel, g) in grads.relations {
                    let acc = grad_acc.entry(rel).or_insert_with(|| vec![0.0; g.len()]);
                    for (a, &d) in acc.iter_mut().zip(&g) {
                        *a += 2.0 * residual * d;
                    }
                }
            }
            if !train.is_empty() {
                mse /= train.len() as f64;
            }
            train_loss.push(mse);
            if !validation.is_empty() {
                let mut vmse = 0.0;
                for lq in validation {
                    let (p, _) = engine.probability(&lq.query)?;
                    let residual = p - lq.target;
                    vmse += residual * residual;
                }
                validation_loss.push(vmse / validation.len() as f64);
            }
        }
        // The final iteration only records the post-fit losses.
        if step == config.epochs {
            break;
        }

        let t = (step + 1) as i32;
        for (rel, mut grad) in grad_acc {
            let Some(db) = catalog.get_mut(&rel) else {
                continue;
            };
            if grad.is_empty() {
                continue;
            }
            // Project the gradient onto each block's simplex tangent
            // space (zero-sum within the block) *before* Adam: the
            // common-mode component is unrealizable under the sum-to-1
            // constraint, and Adam's per-coordinate rescaling would
            // otherwise amplify it into identical steps the final
            // renormalization cancels.
            let cols = db.columns();
            for b in 0..cols.block_count() {
                let slice = &mut grad[cols.block_range(b)];
                let mean = slice.iter().sum::<f64>() / slice.len() as f64;
                slice.iter_mut().for_each(|g| *g -= mean);
            }
            let state = adam.entry(rel.clone()).or_insert_with(|| AdamState {
                m1: vec![0.0; grad.len()],
                m2: vec![0.0; grad.len()],
            });
            // Current masses in the same flattened block order the
            // gradient uses.
            let mut masses = cols.alt_probs().to_vec();
            debug_assert_eq!(masses.len(), grad.len());
            let c1 = 1.0 - config.beta1.powi(t);
            let c2 = 1.0 - config.beta2.powi(t);
            for i in 0..grad.len() {
                state.m1[i] = config.beta1 * state.m1[i] + (1.0 - config.beta1) * grad[i];
                state.m2[i] = config.beta2 * state.m2[i] + (1.0 - config.beta2) * grad[i] * grad[i];
                let mhat = state.m1[i] / c1;
                let vhat = state.m2[i] / c2;
                masses[i] -= config.learning_rate * mhat / (vhat.sqrt() + config.adam_eps);
            }
            // Project each block back onto its floored simplex and
            // apply: reserve `min_mass` per alternative, then scale the
            // excess above the floor to spend the remaining budget — so
            // every mass ends exactly `≥ min_mass` and the block sums
            // to 1.
            for b in 0..db.columns().block_count() {
                let rows = db.columns().block_range(b);
                let len = rows.len();
                let slice = &mut masses[rows.clone()];
                let budget = 1.0 - config.min_mass * len as f64;
                let excess: f64 = slice.iter().map(|m| (m - config.min_mass).max(0.0)).sum();
                for m in slice.iter_mut() {
                    let over = (*m - config.min_mass).max(0.0);
                    *m = if excess > 0.0 {
                        config.min_mass + over * budget / excess
                    } else {
                        1.0 / len as f64
                    };
                }
                db.set_block_masses(b, &masses[rows])
                    .expect("projected masses form a valid distribution");
            }
            touched.insert(rel, true);
        }
    }

    for rel in touched.keys() {
        if let Some(db) = catalog.get_mut(rel) {
            let provenance = match db.provenance() {
                Some(p) if p.ends_with("+mass-fit") => p.to_string(),
                Some(p) => format!("{p}+mass-fit"),
                None => "mass-fit".to_string(),
            };
            db.set_provenance(provenance);
        }
    }

    Ok(MassFitReport {
        train_loss,
        validation_loss,
        epochs: config.epochs,
        relations: touched.into_keys().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsl_probdb::{Alternative, Block, Predicate, ProbDb};
    use mrsl_relation::{AttrId, CompleteTuple, Schema, ValueId};
    use std::sync::Arc;

    fn alt(values: Vec<u16>, prob: f64) -> Alternative {
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    }

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .attribute("k", ["a", "b", "c"])
            .attribute("v", ["x", "y", "z"])
            .build()
            .unwrap()
    }

    /// One relation, two blocks over attribute `v`.
    fn db_with(masses: [[f64; 2]; 2]) -> ProbDb {
        let mut db = ProbDb::new(schema());
        db.push_block(
            Block::new(
                0,
                vec![alt(vec![0, 0], masses[0][0]), alt(vec![0, 1], masses[0][1])],
            )
            .unwrap(),
        )
        .unwrap();
        db.push_block(
            Block::new(
                1,
                vec![alt(vec![1, 0], masses[1][0]), alt(vec![1, 1], masses[1][1])],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn labels(catalog: &Catalog) -> Vec<LabeledQuery> {
        // Selection probabilities of each value of `v`, plus one key
        // slice: enough signal to pin down both blocks.
        let engine = CatalogEngine::new(catalog);
        [
            Predicate::eq(AttrId(1), ValueId(0)),
            Predicate::eq(AttrId(1), ValueId(1)),
            Predicate::eq(AttrId(0), ValueId(0)).and_eq(AttrId(1), ValueId(0)),
            Predicate::eq(AttrId(0), ValueId(1)).and_eq(AttrId(1), ValueId(1)),
        ]
        .into_iter()
        .map(|pred| {
            let q = Query::scan("r").filter(pred);
            let target = engine.probability(&q).unwrap().0;
            LabeledQuery::new(q, target)
        })
        .collect()
    }

    #[test]
    fn gradient_descent_recovers_planted_masses() {
        // Targets computed from the planted masses...
        let planted = [[0.8, 0.2], [0.3, 0.7]];
        let mut truth = Catalog::new();
        truth.add("r", db_with(planted)).unwrap();
        let train = labels(&truth);
        let validation = train[2..].to_vec();

        // ...fit from a deliberately wrong start.
        let mut catalog = Catalog::new();
        catalog.add("r", db_with([[0.5, 0.5], [0.5, 0.5]])).unwrap();
        let config = MassFitConfig {
            epochs: 400,
            learning_rate: 0.02,
            ..MassFitConfig::default()
        };
        let report = fit_block_masses(&mut catalog, &train[..], &validation, &config).unwrap();

        assert_eq!(report.train_loss.len(), config.epochs + 1);
        assert_eq!(report.validation_loss.len(), config.epochs + 1);
        assert_eq!(report.relations, vec!["r".to_string()]);
        assert!(report.final_train_loss() < report.initial_train_loss() / 100.0);
        assert!(
            report.validation_loss.last().unwrap() < report.validation_loss.first().unwrap(),
            "validation loss must shrink"
        );
        let fitted = catalog.get("r").unwrap();
        for (b, want) in planted.iter().enumerate() {
            for (j, &m) in want.iter().enumerate() {
                let got = fitted.block(b).alternatives()[j].prob;
                assert!(
                    (got - m).abs() < 0.02,
                    "block {b} alt {j}: fitted {got}, planted {m}"
                );
            }
        }
        assert_eq!(fitted.provenance(), Some("mass-fit"));
    }

    #[test]
    fn fitting_keeps_blocks_on_the_simplex_every_epoch() {
        let mut catalog = Catalog::new();
        catalog.add("r", db_with([[0.6, 0.4], [0.5, 0.5]])).unwrap();
        // An extreme target drives masses toward the boundary; the floor
        // must keep every alternative alive.
        let train = vec![LabeledQuery::new(
            Query::scan("r").filter(Predicate::eq(AttrId(1), ValueId(0))),
            0.0,
        )];
        let config = MassFitConfig {
            epochs: 50,
            learning_rate: 0.2,
            ..MassFitConfig::default()
        };
        fit_block_masses(&mut catalog, &train, &[], &config).unwrap();
        let db = catalog.get("r").unwrap();
        for b in db.blocks() {
            let sum: f64 = b.alternatives().iter().map(|a| a.prob).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(b.alternatives().iter().all(|a| a.prob >= config.min_mass));
        }
    }

    #[test]
    fn provenance_gains_the_mass_fit_suffix_once() {
        let mut catalog = Catalog::new();
        let mut db = db_with([[0.6, 0.4], [0.5, 0.5]]);
        db.set_provenance("gibbs");
        catalog.add("r", db).unwrap();
        let train = labels(&{
            let mut c = Catalog::new();
            c.add("r", db_with([[0.7, 0.3], [0.4, 0.6]])).unwrap();
            c
        });
        let config = MassFitConfig {
            epochs: 3,
            ..MassFitConfig::default()
        };
        fit_block_masses(&mut catalog, &train, &[], &config).unwrap();
        fit_block_masses(&mut catalog, &train, &[], &config).unwrap();
        assert_eq!(
            catalog.get("r").unwrap().provenance(),
            Some("gibbs+mass-fit")
        );
    }

    #[test]
    fn planner_errors_propagate() {
        let mut catalog = Catalog::new();
        catalog.add("r", db_with([[0.6, 0.4], [0.5, 0.5]])).unwrap();
        let train = vec![LabeledQuery::new(Query::scan("missing"), 0.5)];
        let err = fit_block_masses(&mut catalog, &train, &[], &MassFitConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn empty_training_set_is_a_no_op() {
        let mut catalog = Catalog::new();
        catalog.add("r", db_with([[0.6, 0.4], [0.5, 0.5]])).unwrap();
        let before = catalog.get("r").unwrap().version();
        let report = fit_block_masses(&mut catalog, &[], &[], &MassFitConfig::default()).unwrap();
        assert!(report.relations.is_empty());
        assert_eq!(catalog.get("r").unwrap().version(), before);
    }
}
