//! Weighted inference ensembles with learned per-engine weights.
//!
//! The paper's "inference ensemble" is one model queried through several
//! strategies; [`EnsembleEngine`] takes the next step and *mixes* the
//! strategies' estimates under per-engine weights,
//!
//! ```text
//!     Δt = Σ_m  w_m · Δt_m        (w on the simplex)
//! ```
//!
//! with the weights fit on held-out **observed** tuples: each held-out
//! tuple has one attribute masked, every member scores the probability it
//! assigns the true value, and [`fit_ensemble_weights`] turns that score
//! matrix into weights by mixture EM over per-instance responsibilities
//! ([`WeightStrategy::Em`]).
//!
//! Scoring runs through [`infer_batch`], so fitting inherits its
//! determinism guarantee: weights are bit-identical for any worker-thread
//! count.

use mrsl_core::{
    infer_batch, GibbsConfig, GibbsSampler, IndependentBaseline, InferContext, InferenceEngine,
    JointEstimate, MrslModel, SingleVoting, TupleDagWorkload, VotingConfig,
};
use mrsl_relation::{CompleteTuple, JointIndexer, PartialTuple, ValueId};
use mrsl_util::derive_seed;
use std::fmt;

/// Probability floor used when taking logarithms of member scores.
const SCORE_FLOOR: f64 = 1e-12;

/// Errors reported by the learning subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// An ensemble needs at least one member engine.
    NoMembers,
    /// The weight vector's length does not match the member count.
    WeightCountMismatch {
        /// Number of member engines.
        members: usize,
        /// Number of weights supplied.
        weights: usize,
    },
    /// A weight is negative, non-finite, or the weights sum to zero.
    BadWeights,
    /// Weight fitting needs at least one held-out tuple.
    NoHoldout,
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoMembers => write!(f, "ensemble needs at least one member engine"),
            Self::WeightCountMismatch { members, weights } => {
                write!(f, "{weights} weights supplied for {members} members")
            }
            Self::BadWeights => write!(f, "weights must be non-negative, finite and not all zero"),
            Self::NoHoldout => write!(f, "weight fitting needs at least one held-out tuple"),
        }
    }
}

impl std::error::Error for LearnError {}

/// How [`fit_ensemble_weights`] turns the held-out score matrix into
/// member weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightStrategy {
    /// Mixture EM: iterate responsibilities `r_im ∝ w_m p_im` and weight
    /// updates `w_m = mean_i r_im` until the weights move less than `tol`.
    Em {
        /// Iteration cap.
        max_iters: usize,
        /// Convergence threshold on the max absolute weight change.
        tol: f64,
    },
}

/// What [`fit_ensemble_weights`] learned, alongside the fitted engine.
#[derive(Debug, Clone)]
pub struct EnsembleFitReport {
    /// Fitted weights, aligned with `members` and summing to 1.
    pub weights: Vec<f64>,
    /// Member engine names, in ensemble order.
    pub members: Vec<&'static str>,
    /// Per-member total log-likelihood of the held-out true values.
    pub log_likelihoods: Vec<f64>,
    /// Number of held-out (tuple, masked attribute) instances scored.
    pub instances: usize,
    /// Per-member top-1 accuracy on the held-out instances.
    pub member_accuracy: Vec<f64>,
    /// Top-1 accuracy of the fitted weighted mixture.
    pub ensemble_accuracy: f64,
    /// Top-1 accuracy of the uniform (unweighted voting) mixture — the
    /// baseline the learned weights must match or beat.
    pub uniform_accuracy: f64,
    /// Held-out log-likelihood of the fitted mixture. EM starts from
    /// uniform weights and ascends this objective monotonically, so it is
    /// never below [`EnsembleFitReport::uniform_log_likelihood`].
    pub ensemble_log_likelihood: f64,
    /// Held-out log-likelihood of the uniform mixture.
    pub uniform_log_likelihood: f64,
    /// EM iterations actually run.
    pub em_iterations: usize,
}

/// A weighted mixture of [`InferenceEngine`]s, itself an engine.
///
/// `estimate` runs every positively-weighted member `i` with seed
/// `derive_seed(seed, [i])` on the caller's context, so the context's
/// sampling cost counts every chain the members run, and returns the
/// weighted sum of the members' distributions. [`SingleVoting`] members
/// are skipped on tuples with two or more missing attributes
/// (single-attribute voting cannot represent their correlations); the
/// remaining weights renormalize for that tuple.
pub struct EnsembleEngine {
    members: Vec<Box<dyn InferenceEngine>>,
    weights: Vec<f64>,
}

impl EnsembleEngine {
    /// Builds an ensemble from members and (not necessarily normalized)
    /// non-negative weights; the weights are normalized to sum to 1.
    pub fn new(
        members: Vec<Box<dyn InferenceEngine>>,
        weights: Vec<f64>,
    ) -> Result<Self, LearnError> {
        if members.is_empty() {
            return Err(LearnError::NoMembers);
        }
        if members.len() != weights.len() {
            return Err(LearnError::WeightCountMismatch {
                members: members.len(),
                weights: weights.len(),
            });
        }
        let sum: f64 = weights.iter().sum();
        if weights.iter().any(|&w| !w.is_finite() || w < 0.0) || sum <= 0.0 {
            return Err(LearnError::BadWeights);
        }
        let weights = weights.into_iter().map(|w| w / sum).collect();
        Ok(Self { members, weights })
    }

    /// An ensemble voting uniformly over its members.
    pub fn uniform(members: Vec<Box<dyn InferenceEngine>>) -> Result<Self, LearnError> {
        let n = members.len();
        Self::new(members, vec![1.0; n.max(1)])
    }

    /// The paper's four engines under uniform weights: `single-voting`,
    /// `gibbs`, `independent`, `tuple-dag` (sampling members configured
    /// from `gibbs`).
    pub fn standard(gibbs: &GibbsConfig) -> Self {
        Self::uniform(standard_members(gibbs)).expect("four members")
    }

    /// The normalized member weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Member names, in ensemble order.
    pub fn member_names(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.name()).collect()
    }

    /// FNV-1a digest of the member names and exact weight bits — a stable
    /// fingerprint of *which* learned mixture derived a database, carried
    /// into serving statistics as the catalog provenance.
    pub fn weights_digest(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                acc = (acc ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (m, &w) in self.members.iter().zip(&self.weights) {
            eat(m.name().as_bytes());
            eat(&w.to_bits().to_le_bytes());
        }
        acc
    }

    /// Human-readable provenance string, e.g.
    /// `ensemble[single-voting:0.42,gibbs:0.18,...]#1a2b3c4d5e6f7788`.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .members
            .iter()
            .zip(&self.weights)
            .map(|(m, w)| format!("{}:{:.3}", m.name(), w))
            .collect();
        format!(
            "ensemble[{}]#{:016x}",
            parts.join(","),
            self.weights_digest()
        )
    }
}

impl fmt::Debug for EnsembleEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnsembleEngine")
            .field("members", &self.member_names())
            .field("weights", &self.weights)
            .finish()
    }
}

impl InferenceEngine for EnsembleEngine {
    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple, seed: u64) -> JointEstimate {
        let indexer = JointIndexer::new(ctx.model().schema(), t.missing_mask());
        if indexer.size() == 1 {
            return JointEstimate {
                indexer,
                probs: vec![1.0],
                sample_count: 0,
            };
        }
        let multi = t.missing_mask().count() > 1;
        let mut probs = vec![0.0f64; indexer.size()];
        let mut sample_count = 0;
        let mut used = 0.0;
        for (i, (member, &w)) in self.members.iter().zip(&self.weights).enumerate() {
            if w == 0.0 || (multi && member.name() == SingleVoting.name()) {
                continue;
            }
            // Distinct per-member seeds keep sampling members' chains
            // independent of each other while staying a pure function of
            // the per-tuple seed the batch layer assigned.
            let est = member.estimate(ctx, t, derive_seed(seed, &[i as u64]));
            for (acc, &p) in probs.iter_mut().zip(&est.probs) {
                *acc += w * p;
            }
            sample_count += est.sample_count;
            used += w;
        }
        if used == 0.0 {
            // Every member was skipped (e.g. a single-voting-only ensemble
            // on a multi-missing tuple): fall back to uniform.
            probs.fill(1.0 / indexer.size() as f64);
        } else {
            // The members' distributions are normalized, so the mixture's
            // mass is `used`; renormalize it (and floating drift) away.
            let total: f64 = probs.iter().sum();
            probs.iter_mut().for_each(|p| *p /= total);
        }
        JointEstimate {
            indexer,
            probs,
            sample_count,
        }
    }
}

/// The paper's four engines, boxed for [`EnsembleEngine`] membership.
pub fn standard_members(gibbs: &GibbsConfig) -> Vec<Box<dyn InferenceEngine>> {
    vec![
        Box::new(SingleVoting),
        Box::new(GibbsSampler::from_config(gibbs)),
        Box::new(IndependentBaseline),
        Box::new(TupleDagWorkload::from_config(gibbs)),
    ]
}

/// One held-out scoring instance: an observed tuple with one attribute
/// masked, and the index of the true value in the masked joint.
struct Instance {
    masked: PartialTuple,
    truth: usize,
}

/// Fits ensemble weights on held-out observed tuples.
///
/// Every tuple of `holdout` contributes one instance per attribute: the
/// attribute is masked, each member estimates the resulting
/// single-attribute joint through [`infer_batch`] (deterministic for any
/// thread count), and the probability it assigns the true value becomes
/// that member's score. `strategy` then turns the score matrix into
/// weights. Returns the fitted engine plus an [`EnsembleFitReport`] with
/// per-member log-likelihoods and held-out accuracies.
pub fn fit_ensemble_weights(
    model: &MrslModel,
    holdout: &[CompleteTuple],
    voting: VotingConfig,
    members: Vec<Box<dyn InferenceEngine>>,
    strategy: WeightStrategy,
    seed: u64,
) -> Result<(EnsembleEngine, EnsembleFitReport), LearnError> {
    if members.is_empty() {
        return Err(LearnError::NoMembers);
    }
    if holdout.is_empty() {
        return Err(LearnError::NoHoldout);
    }
    let instances = build_instances(model, holdout);
    let workload: Vec<PartialTuple> = instances.iter().map(|i| i.masked.clone()).collect();

    // Score matrix: scores[m][i] = p_m(true value of instance i), plus the
    // full distributions for accuracy bookkeeping.
    let mut scores: Vec<Vec<f64>> = Vec::with_capacity(members.len());
    let mut dists: Vec<Vec<Vec<f64>>> = Vec::with_capacity(members.len());
    for (m, member) in members.iter().enumerate() {
        let result = infer_batch(
            model,
            &workload,
            member.as_ref(),
            voting,
            derive_seed(seed, &[m as u64]),
        );
        let mut member_scores = Vec::with_capacity(instances.len());
        let mut member_dists = Vec::with_capacity(instances.len());
        for (inst, est) in instances.iter().zip(&result.estimates) {
            member_scores.push(est.probs[inst.truth].max(SCORE_FLOOR));
            member_dists.push(est.probs.clone());
        }
        scores.push(member_scores);
        dists.push(member_dists);
    }

    let log_likelihoods: Vec<f64> = scores
        .iter()
        .map(|s| s.iter().map(|p| p.ln()).sum())
        .collect();

    let WeightStrategy::Em { max_iters, tol } = strategy;
    let (weights, em_iterations) = em_weights(&scores, max_iters, tol);

    let member_accuracy: Vec<f64> = dists
        .iter()
        .map(|d| top1_accuracy(&instances, |i| d[i].clone()))
        .collect();
    let mix = |w: &[f64], i: usize| -> Vec<f64> {
        let size = dists[0][i].len();
        let mut out = vec![0.0; size];
        for (m, d) in dists.iter().enumerate() {
            for (acc, &p) in out.iter_mut().zip(&d[i]) {
                *acc += w[m] * p;
            }
        }
        out
    };
    let ensemble_accuracy = top1_accuracy(&instances, |i| mix(&weights, i));
    let uniform = vec![1.0 / members.len() as f64; members.len()];
    let uniform_accuracy = top1_accuracy(&instances, |i| mix(&uniform, i));
    let mixture_ll = |w: &[f64]| -> f64 {
        (0..instances.len())
            .map(|i| {
                scores
                    .iter()
                    .enumerate()
                    .map(|(m, s)| w[m] * s[i])
                    .sum::<f64>()
                    .max(SCORE_FLOOR)
                    .ln()
            })
            .sum()
    };
    let ensemble_log_likelihood = mixture_ll(&weights);
    let uniform_log_likelihood = mixture_ll(&uniform);

    let engine = EnsembleEngine::new(members, weights)?;
    let report = EnsembleFitReport {
        // Read back from the engine so report and engine agree to the
        // last bit after the constructor's renormalization.
        weights: engine.weights().to_vec(),
        members: engine.member_names(),
        log_likelihoods,
        instances: instances.len(),
        member_accuracy,
        ensemble_accuracy,
        uniform_accuracy,
        ensemble_log_likelihood,
        uniform_log_likelihood,
        em_iterations,
    };
    Ok((engine, report))
}

/// Masks every attribute of every held-out tuple in turn.
fn build_instances(model: &MrslModel, holdout: &[CompleteTuple]) -> Vec<Instance> {
    let schema = model.schema();
    let mut instances = Vec::with_capacity(holdout.len() * schema.attr_count());
    for t in holdout {
        for (a, &true_value) in t.raw().iter().enumerate() {
            let slots: Vec<Option<u16>> = t
                .raw()
                .iter()
                .enumerate()
                .map(|(j, &v)| (j != a).then_some(v))
                .collect();
            let masked = PartialTuple::from_options(&slots);
            let indexer = JointIndexer::new(schema, masked.missing_mask());
            let truth = indexer.index_of(&[ValueId(true_value)]);
            instances.push(Instance { masked, truth });
        }
    }
    instances
}

fn top1_accuracy(instances: &[Instance], dist: impl Fn(usize) -> Vec<f64>) -> f64 {
    let hits = instances
        .iter()
        .enumerate()
        .filter(|(i, inst)| argmax(&dist(*i)) == inst.truth)
        .count();
    hits as f64 / instances.len() as f64
}

fn argmax(probs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &p) in probs.iter().enumerate() {
        if p > probs[best] {
            best = i;
        }
    }
    best
}

/// Mixture EM on the score matrix, from uniform weights. Returns the
/// converged weights and the iterations run.
fn em_weights(scores: &[Vec<f64>], max_iters: usize, tol: f64) -> (Vec<f64>, usize) {
    let members = scores.len();
    let instances = scores[0].len();
    let mut weights = vec![1.0 / members as f64; members];
    let mut iters = 0;
    for _ in 0..max_iters {
        iters += 1;
        let mut next = vec![0.0f64; members];
        #[allow(clippy::needless_range_loop)] // `i` indexes every member's column.
        for i in 0..instances {
            let denom: f64 = (0..members).map(|m| weights[m] * scores[m][i]).sum();
            if denom <= 0.0 {
                continue;
            }
            for (m, slot) in next.iter_mut().enumerate() {
                *slot += weights[m] * scores[m][i] / denom;
            }
        }
        next.iter_mut().for_each(|w| *w /= instances as f64);
        let delta = weights
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        weights = next;
        if delta < tol {
            break;
        }
    }
    (weights, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsl_core::{LearnConfig, MrslModel};
    use mrsl_relation::relation::fig1_relation;

    fn quick_gibbs() -> GibbsConfig {
        GibbsConfig {
            burn_in: 20,
            samples: 200,
            voting: VotingConfig::best_averaged(),
        }
    }

    fn model() -> MrslModel {
        let rel = fig1_relation();
        MrslModel::learn(
            rel.schema(),
            rel.complete_part(),
            &LearnConfig {
                support_threshold: 0.01,
                max_itemsets: 1000,
            },
        )
    }

    fn fit(strategy: WeightStrategy, seed: u64) -> (EnsembleEngine, EnsembleFitReport) {
        let rel = fig1_relation();
        let m = model();
        fit_ensemble_weights(
            &m,
            rel.complete_part(),
            VotingConfig::best_averaged(),
            standard_members(&quick_gibbs()),
            strategy,
            seed,
        )
        .expect("holdout is non-empty")
    }

    #[test]
    fn ensemble_estimate_is_a_normalized_mixture() {
        let m = model();
        let ensemble = EnsembleEngine::standard(&quick_gibbs());
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        for t in [
            PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]),
            PartialTuple::from_options(&[None, None, Some(0), Some(1)]),
        ] {
            let est = ensemble.estimate(&mut ctx, &t, 5);
            assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(est.probs.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn degenerate_weights_reproduce_the_single_member() {
        let m = model();
        // All weight on the deterministic independent baseline.
        let ensemble = EnsembleEngine::new(
            vec![Box::new(IndependentBaseline), Box::new(SingleVoting)],
            vec![1.0, 0.0],
        )
        .unwrap();
        let t = PartialTuple::from_options(&[None, None, Some(0), Some(1)]);
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let mixed = ensemble.estimate(&mut ctx, &t, 3);
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let alone = IndependentBaseline.estimate(&mut ctx, &t, 3);
        for (a, b) in mixed.probs.iter().zip(&alone.probs) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn single_voting_member_is_skipped_on_multi_missing_tuples() {
        let m = model();
        // single-voting alone would panic on a two-missing tuple; inside
        // the ensemble it must be skipped and the rest renormalized.
        let ensemble = EnsembleEngine::new(
            vec![Box::new(SingleVoting), Box::new(IndependentBaseline)],
            vec![0.7, 0.3],
        )
        .unwrap();
        let t = PartialTuple::from_options(&[None, None, Some(0), Some(1)]);
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let est = ensemble.estimate(&mut ctx, &t, 3);
        assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Only the baseline contributed, so the mixture equals it.
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let alone = IndependentBaseline.estimate(&mut ctx, &t, derive_seed(3, &[1]));
        for (a, b) in est.probs.iter().zip(&alone.probs) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn bad_ensembles_are_typed_errors() {
        assert_eq!(
            EnsembleEngine::uniform(vec![]).unwrap_err(),
            LearnError::NoMembers
        );
        let e = EnsembleEngine::new(vec![Box::new(SingleVoting)], vec![0.5, 0.5]).unwrap_err();
        assert!(matches!(e, LearnError::WeightCountMismatch { .. }));
        let e = EnsembleEngine::new(vec![Box::new(SingleVoting)], vec![-1.0]).unwrap_err();
        assert_eq!(e, LearnError::BadWeights);
        let e = EnsembleEngine::new(vec![Box::new(SingleVoting)], vec![0.0]).unwrap_err();
        assert_eq!(e, LearnError::BadWeights);
    }

    #[test]
    fn all_strategies_fit_normalized_weights() {
        let (engine, report) = fit(
            WeightStrategy::Em {
                max_iters: 100,
                tol: 1e-9,
            },
            11,
        );
        assert_eq!(report.weights.len(), 4);
        assert!((report.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(report.weights.iter().all(|&w| w >= 0.0));
        assert_eq!(engine.weights(), report.weights.as_slice());
        assert_eq!(
            report.members,
            vec!["single-voting", "gibbs", "independent", "tuple-dag"]
        );
        assert!(report.instances > 0);
        assert!((0.0..=1.0).contains(&report.ensemble_accuracy));
        // EM starts at uniform and ascends the held-out mixture
        // likelihood monotonically.
        assert!(
            report.ensemble_log_likelihood >= report.uniform_log_likelihood - 1e-9,
            "EM mixture LL {} below uniform {}",
            report.ensemble_log_likelihood,
            report.uniform_log_likelihood
        );
    }

    #[test]
    fn em_weights_are_bit_identical_across_thread_pools() {
        let strategy = WeightStrategy::Em {
            max_iters: 60,
            tol: 1e-12,
        };
        let runs: Vec<Vec<u64>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| {
                        let (_, report) = fit(strategy, 17);
                        report.weights.iter().map(|w| w.to_bits()).collect()
                    })
            })
            .collect();
        assert_eq!(runs[0], runs[1], "1 vs 2 threads");
        assert_eq!(runs[0], runs[2], "1 vs 8 threads");
    }

    #[test]
    fn digest_and_description_depend_on_weights() {
        let a = EnsembleEngine::new(
            vec![Box::new(SingleVoting), Box::new(IndependentBaseline)],
            vec![0.5, 0.5],
        )
        .unwrap();
        let b = EnsembleEngine::new(
            vec![Box::new(SingleVoting), Box::new(IndependentBaseline)],
            vec![0.9, 0.1],
        )
        .unwrap();
        assert_ne!(a.weights_digest(), b.weights_digest());
        assert_eq!(a.weights_digest(), a.weights_digest());
        assert!(a.describe().starts_with("ensemble[single-voting:0.500"));
        assert!(a
            .describe()
            .contains(&format!("{:016x}", a.weights_digest())));
    }

    #[test]
    fn ensemble_drives_the_full_derivation_path() {
        use mrsl_core::{derive_probabilistic_db_with_engine, DeriveConfig, SamplingCost};

        let rel = fig1_relation();
        let config = DeriveConfig {
            gibbs: quick_gibbs(),
            seed: 7,
            ..DeriveConfig::default()
        };
        let ensemble = EnsembleEngine::standard(&quick_gibbs());
        let out = derive_probabilistic_db_with_engine(&rel, &config, &ensemble);
        assert_eq!(out.db.provenance(), Some("ensemble"));
        assert_eq!(out.db.certain().len(), rel.complete_part().len());
        assert!(!out.db.blocks().is_empty());
        for b in out.db.blocks() {
            let sum: f64 = b.alternatives().iter().map(|a| a.prob).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Each multi-missing tuple runs one unshared chain per sampling
        // member (`gibbs` and the singleton `tuple-dag`): the ensemble's
        // cost is exactly twice a Gibbs derivation's.
        let gibbs = derive_probabilistic_db_with_engine(
            &rel,
            &config,
            &GibbsSampler::from_config(&config.gibbs),
        );
        let counters =
            |c: &SamplingCost| [c.chains, c.burn_in_draws, c.total_draws, c.shared_samples];
        let [chains, burn_in, total, shared] = counters(&gibbs.sampling_cost);
        assert!(chains > 0);
        assert_eq!(
            counters(&out.sampling_cost),
            [2 * chains, 2 * burn_in, 2 * total, shared]
        );
    }

    #[test]
    fn fitting_requires_holdout_and_members() {
        let m = model();
        let e = fit_ensemble_weights(
            &m,
            &[],
            VotingConfig::best_averaged(),
            standard_members(&quick_gibbs()),
            WeightStrategy::Em {
                max_iters: 10,
                tol: 1e-9,
            },
            0,
        )
        .unwrap_err();
        assert_eq!(e, LearnError::NoHoldout);
        let rel = fig1_relation();
        let e = fit_ensemble_weights(
            &m,
            rel.complete_part(),
            VotingConfig::best_averaged(),
            vec![],
            WeightStrategy::Em {
                max_iters: 10,
                tol: 1e-9,
            },
            0,
        )
        .unwrap_err();
        assert_eq!(e, LearnError::NoMembers);
    }
}
