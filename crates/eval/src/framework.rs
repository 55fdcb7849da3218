//! The per-cell evaluation pipeline (§VI-A).
//!
//! A *cell* is one (network topology, instance, split) combination with
//! fixed dataset and mining parameters. The paper averages each reported
//! number over 3 random instances × 3 random splits; the experiment
//! modules assemble grids of [`CellSpec`]s and average the outcomes.

use mrsl_bayesnet::{conditional, BayesianNetwork, TopologySpec};
use mrsl_core::{infer_batch, InferContext, InferenceEngine, LearnConfig, MrslModel, VotingConfig};
use mrsl_relation::CompleteTuple;
use mrsl_util::{derive_seed, seeded_rng, Stopwatch};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::metrics::{kl_divergence, top1_match};
use crate::missing::inject_missing;

/// Dirichlet concentration used when instantiating CPTs. Mildly skewed
/// rows (α < 1) give every network a meaningful most-probable value, which
/// makes top-1 accuracy informative — near-uniform CPDs would turn top-1
/// into a coin flip (a sensitivity the paper itself notes in §VI-A).
pub const DEFAULT_ALPHA: f64 = 0.5;

/// One evaluation cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellSpec {
    /// Network topology.
    pub topology: TopologySpec,
    /// Instance index (new CPTs per instance).
    pub instance: u64,
    /// Split index (new train/test shuffle per split).
    pub split: u64,
    /// Training set size.
    pub train_size: usize,
    /// Test set size.
    pub test_size: usize,
    /// Mining support threshold θ.
    pub support: f64,
    /// Apriori level cap.
    pub max_itemsets: usize,
    /// Dirichlet concentration for CPT instantiation.
    pub alpha: f64,
    /// Master seed.
    pub seed: u64,
}

impl CellSpec {
    /// A cell with the common defaults; experiments override fields.
    pub fn new(topology: TopologySpec, train_size: usize, test_size: usize) -> Self {
        Self {
            topology,
            instance: 0,
            split: 0,
            train_size,
            test_size,
            support: 0.01,
            max_itemsets: 1000,
            alpha: DEFAULT_ALPHA,
            seed: 0x9d1e,
        }
    }

    /// Runs the learning phase of the pipeline: instantiate → sample →
    /// split → learn.
    pub fn build(&self) -> EvalContext {
        let instance_seed =
            derive_seed(self.seed, &[hash_name(self.topology.name()), self.instance]);
        let bn = BayesianNetwork::instantiate(&self.topology, self.alpha, instance_seed);

        // One dataset per instance; the split only reshuffles it.
        let total = self.train_size + self.test_size;
        let mut data = mrsl_bayesnet::sampler::sample_dataset(&bn, total, instance_seed);
        let mut rng = seeded_rng(derive_seed(instance_seed, &[0x5711, self.split]));
        data.shuffle(&mut rng);
        let test_points = data.split_off(self.train_size);
        let train = data;

        let sw = Stopwatch::start();
        let model = MrslModel::learn(
            bn.schema(),
            &train,
            &LearnConfig {
                support_threshold: self.support,
                max_itemsets: self.max_itemsets,
            },
        );
        let learn_secs = sw.elapsed_secs();
        EvalContext {
            spec: self.clone(),
            bn,
            model,
            test_points,
            learn_secs,
        }
    }
}

const fn hash_name_seed() -> u64 {
    0xbeef
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(hash_name_seed(), |acc, b| {
        acc.wrapping_mul(31).wrapping_add(b as u64)
    })
}

/// A built cell: the generating network, the learned model and the
/// held-out test points.
#[derive(Debug)]
pub struct EvalContext {
    /// The cell parameters.
    pub spec: CellSpec,
    /// The generating network (ground truth).
    pub bn: BayesianNetwork,
    /// The learned MRSL model.
    pub model: MrslModel,
    /// Held-out complete test tuples (missing values injected per task).
    pub test_points: Vec<CompleteTuple>,
    /// Wall-clock learning time in seconds (Fig. 4).
    pub learn_secs: f64,
}

/// Averaged accuracy over a batch of inference tasks.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Score {
    /// Mean KL divergence `KL(true ‖ estimate)`.
    pub kl: f64,
    /// Fraction of correct top-1 guesses.
    pub top1: f64,
    /// Number of scored tuples.
    pub n: usize,
}

/// Learn-phase outcome of a cell (the Fig. 4 quantities).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Learning wall-clock seconds.
    pub learn_secs: f64,
    /// Total meta-rules.
    pub model_size: usize,
}

impl EvalContext {
    /// Learn-phase outcome.
    pub fn outcome(&self) -> CellOutcome {
        CellOutcome {
            learn_secs: self.learn_secs,
            model_size: self.model.size(),
        }
    }

    /// Scores single-attribute inference (§VI-C): hides one uniformly
    /// chosen attribute per test tuple, estimates its CPD by voting and
    /// compares against the network's exact conditional.
    pub fn eval_single(&self, voting: &VotingConfig) -> Score {
        let injected = inject_missing(
            &self.test_points,
            1,
            derive_seed(self.spec.seed, &[0x1, self.spec.instance, self.spec.split]),
        );
        let mut ctx = InferContext::new(&self.model, *voting, 0);
        let mut kl_sum = 0.0;
        let mut hits = 0usize;
        let mut n = 0usize;
        for t in &injected {
            let attr = t.missing_mask().iter().next().expect("one attr hidden");
            let est = ctx.vote_single(t, attr);
            let Some(truth) = conditional(&self.bn, t.missing_mask(), t) else {
                continue; // impossible evidence cannot arise from sampling
            };
            kl_sum += kl_divergence(&truth, &est);
            hits += top1_match(&truth, &est) as usize;
            n += 1;
        }
        finalize(kl_sum, hits, n)
    }

    /// Wall-clock seconds to run single-attribute inference over the whole
    /// injected test batch (Fig. 9), without scoring.
    pub fn time_single_batch(&self, voting: &VotingConfig) -> f64 {
        let injected = inject_missing(
            &self.test_points,
            1,
            derive_seed(self.spec.seed, &[0x2, self.spec.instance]),
        );
        let mut ctx = InferContext::new(&self.model, *voting, 0);
        let sw = Stopwatch::start();
        for t in &injected {
            let attr = t.missing_mask().iter().next().expect("one attr hidden");
            std::hint::black_box(ctx.vote_single(t, attr));
        }
        sw.elapsed_secs()
    }

    /// Scores multi-attribute inference (§VI-D): hides `k` attributes per
    /// test tuple, estimates the joint with `engine` (e.g. optimized Gibbs
    /// sampling) and compares against the exact joint conditional.
    pub fn eval_multi(
        &self,
        k: usize,
        engine: &dyn InferenceEngine,
        voting: VotingConfig,
    ) -> Score {
        let injected = inject_missing(
            &self.test_points,
            k,
            derive_seed(self.spec.seed, &[0x3, self.spec.instance, self.spec.split]),
        );
        let result = infer_batch(
            &self.model,
            &injected,
            engine,
            voting,
            derive_seed(self.spec.seed, &[0x4, k as u64]),
        );
        let mut kl_sum = 0.0;
        let mut hits = 0usize;
        let mut n = 0usize;
        for (t, est) in injected.iter().zip(&result.estimates) {
            let Some(truth) = conditional(&self.bn, t.missing_mask(), t) else {
                continue;
            };
            kl_sum += kl_divergence(&truth, &est.probs);
            hits += top1_match(&truth, &est.probs) as usize;
            n += 1;
        }
        finalize(kl_sum, hits, n)
    }
}

fn finalize(kl_sum: f64, hits: usize, n: usize) -> Score {
    if n == 0 {
        return Score::default();
    }
    Score {
        kl: kl_sum / n as f64,
        top1: hits as f64 / n as f64,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsl_bayesnet::builders::{chain, crown};
    use mrsl_core::{GibbsConfig, TupleDagWorkload};

    fn quick_cell() -> CellSpec {
        let mut spec = CellSpec::new(crown("test-crown", &[2, 2, 2, 2]), 2000, 200);
        spec.support = 0.005;
        spec
    }

    #[test]
    fn build_produces_consistent_context() {
        let ctx = quick_cell().build();
        assert_eq!(ctx.test_points.len(), 200);
        assert!(ctx.model.size() >= 4);
        assert!(ctx.learn_secs >= 0.0);
        assert_eq!(ctx.outcome().model_size, ctx.model.size());
    }

    #[test]
    fn build_is_deterministic() {
        let a = quick_cell().build();
        let b = quick_cell().build();
        assert_eq!(a.test_points, b.test_points);
        assert_eq!(a.model.size(), b.model.size());
    }

    #[test]
    fn different_instances_differ() {
        let mut spec = quick_cell();
        let a = spec.build();
        spec.instance = 1;
        let b = spec.build();
        // Different CPTs → different sampled data (with overwhelming prob).
        assert_ne!(a.test_points, b.test_points);
    }

    #[test]
    fn different_splits_share_instance_but_reshuffle() {
        let mut spec = quick_cell();
        let a = spec.build();
        spec.split = 1;
        let b = spec.build();
        assert_ne!(a.test_points, b.test_points);
        // Same network instance → same CPTs.
        assert_eq!(a.bn.cpt(0).raw_rows(), b.bn.cpt(0).raw_rows());
    }

    #[test]
    fn single_attr_eval_beats_chance_on_easy_network() {
        // A 4-node binary crown with 2000 training tuples is easy; the
        // ensemble must clearly beat random guessing (0.5 top-1, KL ~ O(1)).
        let ctx = quick_cell().build();
        let score = ctx.eval_single(&VotingConfig::best_averaged());
        assert_eq!(score.n, 200);
        assert!(score.top1 > 0.7, "top-1 {}", score.top1);
        assert!(score.kl < 0.2, "KL {}", score.kl);
    }

    #[test]
    fn multi_attr_eval_scores_reasonably() {
        let mut spec = CellSpec::new(chain("test-chain", &[2, 2, 2, 2]), 3000, 60);
        spec.support = 0.005;
        let ctx = spec.build();
        let gibbs = GibbsConfig {
            burn_in: 100,
            samples: 1500,
            voting: VotingConfig::best_averaged(),
        };
        let score = ctx.eval_multi(2, &TupleDagWorkload::from_config(&gibbs), gibbs.voting);
        assert_eq!(score.n, 60);
        assert!(score.kl < 0.5, "KL {}", score.kl);
        assert!(score.top1 > 0.4, "top-1 {}", score.top1);
    }

    #[test]
    fn timing_returns_positive_duration() {
        let ctx = quick_cell().build();
        let secs = ctx.time_single_batch(&VotingConfig::best_averaged());
        assert!(secs > 0.0);
    }
}
