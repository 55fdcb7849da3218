//! Ordered Gibbs sampling for multiple missing attributes (§V-A).
//!
//! Estimating each missing attribute independently "would rely on
//! independence assumptions that are not warranted"; instead the sampler
//! cycles through the missing attributes, resampling each from its MRSL's
//! voted CPD with **all other attributes as evidence** (observed attributes
//! stay clamped — the paper's fix for wasting samples on irrelevant parts
//! of the space). Meta-rule smoothing keeps every local CPD strictly
//! positive, so the chain is irreducible and converges to a unique
//! stationary joint.
//!
//! The voted-CPD cache — "caching of the results of partial computations"
//! in the paper's words — lives in the
//! [`InferContext`] the chain sweeps
//! against, so it is shared across every chain (and tuple) the context
//! serves. The engine wrapper for this module is
//! [`crate::infer::engine::GibbsSampler`].

use crate::infer::engine::InferContext;
use crate::model::MrslModel;
use mrsl_relation::{AttrId, AttrMask, JointIndexer, PartialTuple};
use mrsl_util::{derive_seed, seeded_rng};
use rand::rngs::StdRng;
use rand::Rng;

/// An estimated joint distribution `Δt` over a tuple's missing attributes.
#[derive(Debug, Clone)]
pub struct JointEstimate {
    /// Maps value combinations of the missing attributes to indices.
    pub indexer: JointIndexer,
    /// Estimated probabilities, aligned with `indexer` (sum 1).
    pub probs: Vec<f64>,
    /// Number of recorded samples behind the estimate (0 for exact /
    /// degenerate estimates).
    pub sample_count: usize,
}

impl JointEstimate {
    /// Index of the most probable combination.
    pub fn top1(&self) -> usize {
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
            .map(|(i, _)| i)
            .expect("distributions are non-empty")
    }

    /// Additively smoothed copy (every entry ≥ ε > 0, renormalized); used
    /// before KL scoring of empirical histograms that may contain zeros.
    pub fn smoothed(&self, epsilon: f64) -> Vec<f64> {
        assert!(epsilon > 0.0);
        let k = self.probs.len() as f64;
        let denom = 1.0 + epsilon * k;
        self.probs.iter().map(|&p| (p + epsilon) / denom).collect()
    }
}

/// One Gibbs chain for a single incomplete tuple. The chain owns only its
/// Markov state and RNG; voting scratch and the CPD cache come from the
/// [`InferContext`] passed to [`GibbsChain::sweep`], so many chains (the
/// tuple-DAG scheduler interleaves dozens) share one cache.
pub(crate) struct GibbsChain {
    /// Current full assignment; observed attributes never change.
    state: Vec<u16>,
    /// The missing attributes, ascending.
    missing: Vec<AttrId>,
    /// Evidence mask per missing attribute: everything except itself.
    evidence_masks: Vec<AttrMask>,
    rng: StdRng,
}

impl GibbsChain {
    /// Starts a chain for `tuple` "with a valid random assignment" of the
    /// missing attributes (uniform init, as any positive initialization is
    /// valid given smoothed CPDs).
    pub fn new(model: &MrslModel, tuple: &PartialTuple, seed: u64) -> Self {
        let schema = model.schema();
        let n = schema.attr_count();
        debug_assert_eq!(tuple.arity(), n);
        let mut rng = seeded_rng(derive_seed(seed, &[0x61bb5]));
        let mut state = vec![0u16; n];
        for asg in tuple.assignments() {
            state[asg.attr.index()] = asg.value.0;
        }
        let missing: Vec<AttrId> = tuple.missing_mask().iter().collect();
        for &a in &missing {
            state[a.index()] = rng.gen_range(0..schema.cardinality(a)) as u16;
        }
        let full = AttrMask::full(n);
        let evidence_masks = missing.iter().map(|&a| full.without(a)).collect();
        Self {
            state,
            missing,
            evidence_masks,
            rng,
        }
    }

    /// The missing attributes, ascending.
    pub fn missing(&self) -> &[AttrId] {
        &self.missing
    }

    /// The current full assignment.
    pub fn state(&self) -> &[u16] {
        &self.state
    }

    /// Performs one ordered sweep (resamples every missing attribute once)
    /// and returns the updated full state.
    pub fn sweep(&mut self, ctx: &mut InferContext<'_>) -> &[u16] {
        for (k, &attr) in self.missing.iter().enumerate() {
            let mask = self.evidence_masks[k];
            let cpd = ctx.voted_cpd(attr, &self.state, mask);
            self.state[attr.index()] = sample_categorical(&cpd, &mut self.rng);
        }
        &self.state
    }
}

/// Samples an index from a normalized CPD. Local copy of the categorical
/// sampler to keep `mrsl-core` independent of the Bayesian-network crate.
#[inline]
fn sample_categorical<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> u16 {
    let mut u: f64 = rng.gen::<f64>();
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i as u16;
        }
        u -= w;
    }
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("smoothed CPDs are strictly positive") as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LearnConfig, VotingConfig};
    use crate::infer::engine::{GibbsSampler, InferenceEngine};
    use mrsl_relation::relation::fig1_relation;
    use mrsl_relation::ValueId;

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

    fn sampler(burn: usize, n: usize) -> GibbsSampler {
        GibbsSampler {
            burn_in: burn,
            samples: n,
        }
    }

    fn ctx(m: &MrslModel, seed: u64) -> InferContext<'_> {
        InferContext::new(m, VotingConfig::best_averaged(), seed)
    }

    #[test]
    fn estimates_are_distributions() {
        let m = model();
        // t12 = ⟨30, MS, ?, ?⟩ from Fig. 1.
        let t = PartialTuple::from_options(&[Some(1), Some(2), None, None]);
        let est = sampler(50, 500).estimate(&mut ctx(&m, 1), &t);
        assert_eq!(est.indexer.size(), 4); // inc × nw = 2 × 2
        assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(est.probs.iter().all(|&p| p >= 0.0));
        assert_eq!(est.sample_count, 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        let a = sampler(20, 200).estimate(&mut ctx(&m, 7), &t);
        let b = sampler(20, 200).estimate(&mut ctx(&m, 7), &t);
        let c = sampler(20, 200).estimate(&mut ctx(&m, 8), &t);
        assert_eq!(a.probs, b.probs);
        assert_ne!(a.probs, c.probs);
    }

    #[test]
    fn complete_tuple_is_trivial() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), Some(0), Some(0), Some(0)]);
        let est = sampler(10, 100).estimate(&mut ctx(&m, 0), &t);
        assert_eq!(est.probs, vec![1.0]);
        assert_eq!(est.sample_count, 0);
    }

    #[test]
    fn single_missing_gibbs_approaches_single_inference() {
        // With one missing attribute the chain samples i.i.d. from the
        // voted CPD, so the histogram converges to the voted estimate.
        let m = model();
        let t = PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]);
        let mut c = ctx(&m, 3);
        let est = sampler(10, 30_000).estimate(&mut c, &t);
        let direct = c.vote_single(&t, AttrId(0));
        for (g, d) in est.probs.iter().zip(&direct) {
            assert!((g - d).abs() < 0.02, "{g} vs {d}");
        }
    }

    #[test]
    fn clamped_evidence_never_changes() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(1), Some(2), None, None]);
        let mut c = ctx(&m, 5);
        let mut chain = GibbsChain::new(&m, &t, 5);
        for _ in 0..50 {
            let state = chain.sweep(&mut c);
            assert_eq!(state[0], 1);
            assert_eq!(state[1], 2);
        }
    }

    #[test]
    fn top1_and_smoothed() {
        let est = JointEstimate {
            indexer: JointIndexer::new(
                &fig1_relation().schema().clone(),
                AttrMask::single(AttrId(2)),
            ),
            probs: vec![0.3, 0.7],
            sample_count: 10,
        };
        assert_eq!(est.top1(), 1);
        let sm = est.smoothed(0.01);
        assert!((sm.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(sm.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn cache_hits_accumulate() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        let mut c = ctx(&m, 9);
        let mut chain = GibbsChain::new(&m, &t, 9);
        for _ in 0..200 {
            chain.sweep(&mut c);
        }
        // The state space is tiny (3·2·2 = 12 combos × 3 attrs), so the
        // cache must be hitting after 200 sweeps.
        let (hits, misses) = c.cache_stats();
        assert!(hits > misses, "hits {hits} vs misses {misses}");
    }

    #[test]
    fn estimate_reflects_evidence_correlations() {
        // Fig. 1's Rc: points matching ⟨20, HS⟩ are t4 (100K, 500K),
        // t6 (50K, 100K) and t7 (50K, 500K) — inc=50K on 2 of 3. The Gibbs
        // estimate over (inc, nw) must put more mass on inc=50K.
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), Some(0), None, None]);
        let est = sampler(200, 6000).estimate(&mut ctx(&m, 11), &t);
        let ix = &est.indexer;
        let p_inc50: f64 = (0..ix.size())
            .filter(|&i| ix.decode(i)[0].1 == ValueId(0))
            .map(|i| est.probs[i])
            .sum();
        assert!(p_inc50 > 0.55, "P(inc=50K) = {p_inc50}");
    }
}
