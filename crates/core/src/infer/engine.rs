//! The unified inference engine abstraction.
//!
//! The paper's "inference ensemble" is one learned [`MrslModel`] queried
//! through several strategies. This module puts them behind one trait,
//! [`InferenceEngine`], with one implementation per strategy:
//!
//! * [`SingleVoting`] — Algorithm 2: voting inference for a tuple with (at
//!   most) one missing attribute; exact given the ensemble.
//! * [`GibbsSampler`] — §V-A: ordered Gibbs sampling of the joint over
//!   multiple missing attributes, one dedicated chain per tuple.
//! * [`IndependentBaseline`] — the §V product-of-marginals baseline the
//!   paper argues against, kept for ablations.
//! * [`TupleDagWorkload`] — §V-B / Algorithm 3: subsumption-driven sample
//!   sharing across a workload of tuples.
//!
//! All engines run against an [`InferContext`], which owns everything an
//! estimate needs besides the tuple itself: the model reference, the
//! [`VotingConfig`], reusable match scratch, the voted-CPD cache, and the
//! seed used for sampling engines. Contexts make scratch/cache reuse the
//! engine layer's problem instead of each caller's, and they are the unit
//! of thread ownership in [`crate::infer::batch::infer_batch`]: one
//! context per worker, never shared.

use crate::config::{GibbsConfig, VotingConfig};
use crate::infer::batch;
use crate::infer::dag::{
    run_workload_dag, sample_component, SamplingCost, TupleDag, WorkloadResult,
};
use crate::infer::gibbs::{GibbsChain, JointEstimate};
use crate::infer::single::vote;
use crate::model::MrslModel;
use mrsl_relation::{AttrId, AttrMask, JointIndexer, PartialTuple};
use mrsl_util::{derive_seed, FxHashMap};
use std::rc::Rc;

/// Everything inference needs besides the tuple: model, voting policy,
/// scratch buffers, the voted-CPD cache and the sampling seed.
///
/// A context is cheap to create (allocation happens lazily as buffers
/// grow) and is **not** thread-safe by design: parallel callers create one
/// context per worker. Reusing one context across many tuples amortizes
/// both the match scratch and the CPD cache — the cache is keyed only by
/// (attribute, evidence state), so it stays valid across tuples of the
/// same model and voting configuration.
pub struct InferContext<'m> {
    model: &'m MrslModel,
    voting: VotingConfig,
    /// Seed configured at construction; the reference point for
    /// [`InferContext::reseed_for_index`].
    base_seed: u64,
    /// Seed the next estimate will use.
    seed: u64,
    cache: CpdCache,
    scratch: mrsl_core_scratch::Scratch,
}

/// Private scratch bundle (kept in a nested module so field additions stay
/// out of the public surface).
mod mrsl_core_scratch {
    use crate::lattice::MatchScratch;

    #[derive(Default)]
    pub struct Scratch {
        pub matching: MatchScratch,
        pub cpd: Vec<f64>,
        pub values: Vec<u16>,
    }
}

impl<'m> InferContext<'m> {
    /// Creates a context over `model` with the given voting policy and
    /// master seed.
    pub fn new(model: &'m MrslModel, voting: VotingConfig, seed: u64) -> Self {
        Self {
            model,
            voting,
            base_seed: seed,
            seed,
            cache: CpdCache::new(model),
            scratch: Default::default(),
        }
    }

    /// The model under inference.
    pub fn model(&self) -> &'m MrslModel {
        self.model
    }

    /// The voting configuration engines must use.
    pub fn voting(&self) -> VotingConfig {
        self.voting
    }

    /// The seed the next estimate will use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the seed for the next estimate directly (an ensemble uses this
    /// to give each member its own stream for the same tuple).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Derives the per-tuple seed for workload position `index` from the
    /// context's base seed. Deterministic and schedule-independent: batch
    /// executors call this so results do not depend on thread count.
    pub fn reseed_for_index(&mut self, index: usize) {
        self.seed = derive_seed(self.base_seed, &[index as u64]);
    }

    /// Cache hit/miss counters (diagnostics). A read a Gibbs chain serves
    /// from its local CPD table counts as a hit, so the counters do not
    /// depend on whether a chain keeps one.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// Counts a voted CPD a chain read from its local table.
    pub(crate) fn count_local_hit(&mut self) {
        self.cache.hits += 1;
    }

    /// The voted CPD of `attr` given the evidence `state` restricted to
    /// `evidence_mask`, memoized per (attribute, evidence state).
    pub(crate) fn voted_cpd(
        &mut self,
        attr: AttrId,
        state: &[u16],
        evidence_mask: AttrMask,
    ) -> Rc<[f64]> {
        self.cache.lookup(
            attr,
            state,
            evidence_mask,
            self.model,
            &self.voting,
            &mut self.scratch.matching,
            &mut self.scratch.cpd,
        )
    }

    /// Algorithm 2 through the context's scratch: the voted CPD over the
    /// values of `attr`, with the assigned portion of `t` as evidence.
    ///
    /// # Panics
    /// Panics if `attr` is assigned in `t`.
    pub fn vote_single(&mut self, t: &PartialTuple, attr: AttrId) -> Vec<f64> {
        assert!(
            t.get(attr).is_none(),
            "attribute {attr:?} is not missing in the tuple"
        );
        let values = &mut self.scratch.values;
        values.clear();
        values.resize(t.arity(), 0);
        for asg in t.assignments() {
            values[asg.attr.index()] = asg.value.0;
        }
        vote(
            self.model.mrsl(attr),
            values,
            t.mask(),
            &self.voting,
            &mut self.scratch.matching,
            &mut self.scratch.cpd,
        );
        self.scratch.cpd.clone()
    }
}

/// One strategy for estimating `Δt`, the joint distribution over a tuple's
/// missing attributes.
///
/// Engines are cheap, immutable descriptions of a strategy (what to run);
/// every mutable resource lives in the [`InferContext`] (how to run it).
/// That split is what lets the batch layer fan one engine out over many
/// worker-local contexts.
pub trait InferenceEngine: Sync {
    /// Short stable name, used in reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Estimates `Δt` for one tuple. Sampling engines draw their
    /// randomness from `ctx.seed()`; deterministic engines ignore it.
    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple) -> JointEstimate;

    /// Sampling-cost bookkeeping for one completed estimate, aggregated by
    /// the batch layer. Exact engines cost nothing.
    fn tuple_cost(&self, est: &JointEstimate) -> SamplingCost {
        let _ = est;
        SamplingCost::default()
    }

    /// Estimates `Δt` for every tuple of a workload.
    ///
    /// The default implementation deduplicates the workload and fans the
    /// distinct tuples out over the shared rayon executor with
    /// deterministic per-tuple seeds (`derive_seed(seed, [distinct
    /// index])`), so results are bit-identical regardless of thread count.
    /// Engines that share work *between* tuples (the tuple DAG) override
    /// this.
    fn estimate_batch(
        &self,
        model: &MrslModel,
        voting: VotingConfig,
        tuples: &[PartialTuple],
        seed: u64,
    ) -> WorkloadResult {
        batch::data_parallel_batch(self, model, voting, tuples, seed)
    }
}

/// Algorithm 2: voting inference for a tuple with at most one missing
/// attribute. Exact given the ensemble — no sampling, no seed use.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleVoting;

impl InferenceEngine for SingleVoting {
    fn name(&self) -> &'static str {
        "single-voting"
    }

    /// # Panics
    /// Panics when `t` has two or more missing attributes — single-
    /// attribute voting cannot represent their correlations; use
    /// [`GibbsSampler`] or [`TupleDagWorkload`] instead.
    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple) -> JointEstimate {
        let indexer = JointIndexer::new(ctx.model().schema(), t.missing_mask());
        if indexer.size() == 1 {
            return trivial_estimate(indexer);
        }
        assert_eq!(
            t.missing_mask().count(),
            1,
            "SingleVoting handles at most one missing attribute"
        );
        let attr = t
            .missing_mask()
            .iter()
            .next()
            .expect("one missing attribute");
        let probs = ctx.vote_single(t, attr);
        JointEstimate {
            indexer,
            probs,
            sample_count: 0,
        }
    }
}

/// §V-A: one dedicated ordered-Gibbs chain per tuple (burn-in `B`, then
/// `N` recorded sweeps).
#[derive(Debug, Clone, Copy)]
pub struct GibbsSampler {
    /// Sweeps discarded before recording (`B`).
    pub burn_in: usize,
    /// Recorded sweeps per tuple (`N`).
    pub samples: usize,
}

impl GibbsSampler {
    /// Engine matching a [`GibbsConfig`]'s chain parameters (the config's
    /// voting is carried by the [`InferContext`]).
    pub fn from_config(config: &GibbsConfig) -> Self {
        Self {
            burn_in: config.burn_in,
            samples: config.samples,
        }
    }
}

impl InferenceEngine for GibbsSampler {
    fn name(&self) -> &'static str {
        "gibbs"
    }

    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple) -> JointEstimate {
        let indexer = JointIndexer::new(ctx.model().schema(), t.missing_mask());
        if indexer.size() == 1 {
            return trivial_estimate(indexer);
        }
        let mut chain =
            GibbsChain::new(ctx.model(), t, ctx.seed()).with_sweeps(self.burn_in + self.samples);
        for _ in 0..self.burn_in {
            chain.sweep(ctx);
        }
        let mut counts = vec![0u32; indexer.size()];
        for _ in 0..self.samples {
            chain.sweep(ctx);
            counts[chain.joint_index()] += 1;
        }
        let probs = if self.samples == 0 {
            // Degenerate configuration: no recorded sweeps. Fall back to
            // uniform (matching the workload sampler) instead of an
            // all-zero non-distribution.
            vec![1.0 / indexer.size() as f64; indexer.size()]
        } else {
            let n = self.samples as f64;
            counts.into_iter().map(|c| c as f64 / n).collect()
        };
        JointEstimate {
            indexer,
            probs,
            sample_count: self.samples,
        }
    }

    fn tuple_cost(&self, est: &JointEstimate) -> SamplingCost {
        // Trivial estimates (nothing missing) never started a chain.
        // `sample_count == 0` is NOT the right discriminator here: a
        // `samples: 0` configuration still burns a chain in.
        if est.indexer.size() <= 1 {
            return SamplingCost::default();
        }
        SamplingCost {
            total_draws: self.burn_in + self.samples,
            burn_in_draws: self.burn_in,
            shared_samples: 0,
            chains: 1,
            elapsed: Default::default(),
        }
    }
}

/// The §V independence baseline: the joint as the product of per-attribute
/// voted CPDs. Exact given the ensemble, wrong whenever missing attributes
/// correlate — which is precisely what the ablation experiments measure.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndependentBaseline;

impl InferenceEngine for IndependentBaseline {
    fn name(&self) -> &'static str {
        "independent"
    }

    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple) -> JointEstimate {
        let indexer = JointIndexer::new(ctx.model().schema(), t.missing_mask());
        if indexer.size() == 1 {
            return trivial_estimate(indexer);
        }
        let cpds: Vec<Vec<f64>> = indexer
            .attrs()
            .iter()
            .map(|&a| ctx.vote_single(t, a))
            .collect();
        let mut probs = vec![1.0f64; indexer.size()];
        for (idx, p) in probs.iter_mut().enumerate() {
            for (k, &(_, v)) in indexer.decode(idx).iter().enumerate() {
                *p *= cpds[k][v.index()];
            }
        }
        // Product of normalized factors is normalized; renormalize to
        // absorb floating drift.
        let total: f64 = probs.iter().sum();
        probs.iter_mut().for_each(|p| *p /= total);
        JointEstimate {
            indexer,
            probs,
            sample_count: 0,
        }
    }
}

/// §V-B / Algorithm 3: workload sampling over the tuple DAG, sharing
/// samples from subsumers to subsumees.
#[derive(Debug, Clone, Copy)]
pub struct TupleDagWorkload {
    /// Sweeps discarded before recording (`B`).
    pub burn_in: usize,
    /// Recorded samples per distinct tuple (`N`).
    pub samples: usize,
}

impl TupleDagWorkload {
    /// Engine matching a [`GibbsConfig`]'s chain parameters.
    pub fn from_config(config: &GibbsConfig) -> Self {
        Self {
            burn_in: config.burn_in,
            samples: config.samples,
        }
    }
}

impl InferenceEngine for TupleDagWorkload {
    fn name(&self) -> &'static str {
        "tuple-dag"
    }

    /// A single tuple is a singleton workload: one chain, no sharing, run
    /// on the caller's context and its warm CPD cache.
    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple) -> JointEstimate {
        let dag = TupleDag::build(std::slice::from_ref(t));
        let (mut estimates, _) = sample_component(ctx, self.burn_in, self.samples, &dag, &[0]);
        estimates
            .pop()
            .expect("singleton workload yields one estimate")
            .1
    }

    /// Algorithm 3 proper. Independent DAG components run in parallel on
    /// the shared executor; within a component the paper's round-robin
    /// root schedule runs sequentially (sharing is inherently ordered).
    /// Chain seeds derive from global node indices, so results are
    /// bit-identical regardless of thread count.
    fn estimate_batch(
        &self,
        model: &MrslModel,
        voting: VotingConfig,
        tuples: &[PartialTuple],
        seed: u64,
    ) -> WorkloadResult {
        run_workload_dag(model, voting, self.burn_in, self.samples, tuples, seed)
    }
}

/// The single-combination estimate of a tuple with nothing missing.
pub(crate) fn trivial_estimate(indexer: JointIndexer) -> JointEstimate {
    JointEstimate {
        indexer,
        probs: vec![1.0],
        sample_count: 0,
    }
}

/// Memoizes voted CPDs per (attribute, evidence state): the context-wide
/// level of the CPD cache, behind each Gibbs chain's local table.
///
/// The key packs the full state in mixed radix (with the target attribute's
/// slot zeroed) plus the attribute index. Packing requires the product of
/// domain sizes × attribute count to fit in `u64`; on wider schemas this
/// level votes on every lookup and memoizes nothing (correctness is
/// unaffected, and chain-local tables still memoize within each chain).
struct CpdCache {
    entries: FxHashMap<u64, Rc<[f64]>>,
    strides: Option<Vec<u64>>,
    /// Product of all domain cardinalities; the attribute's key stride.
    domain_product: u64,
    hits: u64,
    misses: u64,
}

impl CpdCache {
    fn new(model: &MrslModel) -> Self {
        let schema = model.schema();
        let mut strides = Vec::with_capacity(schema.attr_count());
        let mut acc: u128 = 1;
        for a in schema.attr_ids() {
            strides.push(acc as u64);
            acc = acc.saturating_mul(schema.cardinality(a) as u128);
        }
        let packable = acc.saturating_mul(schema.attr_count().max(1) as u128) < u64::MAX as u128;
        Self {
            entries: FxHashMap::default(),
            strides: packable.then_some(strides),
            domain_product: if packable { acc as u64 } else { 0 },
            hits: 0,
            misses: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lookup(
        &mut self,
        attr: AttrId,
        state: &[u16],
        evidence_mask: AttrMask,
        model: &MrslModel,
        voting: &VotingConfig,
        scratch: &mut crate::lattice::MatchScratch,
        buf: &mut Vec<f64>,
    ) -> Rc<[f64]> {
        let Some(strides) = &self.strides else {
            // Unpackable schema: compute directly.
            self.misses += 1;
            vote(model.mrsl(attr), state, evidence_mask, voting, scratch, buf);
            return Rc::from(buf.as_slice());
        };
        let mut key = 0u64;
        for (i, &v) in state.iter().enumerate() {
            if i != attr.index() {
                key = key.wrapping_add(strides[i].wrapping_mul(v as u64));
            }
        }
        // Mix the attribute in with the domain product as its stride: the
        // packed state is < domain_product, so the per-attribute key
        // ranges [attr·P, attr·P + P) are disjoint and the `packable`
        // guard (P · attr_count < 2^64) rules out overflow — collisions
        // are impossible, not merely unlikely.
        key += (attr.0 as u64) * self.domain_product;
        if let Some(cpd) = self.entries.get(&key) {
            self.hits += 1;
            return cpd.clone();
        }
        self.misses += 1;
        vote(model.mrsl(attr), state, evidence_mask, voting, scratch, buf);
        let cpd: Rc<[f64]> = Rc::from(buf.as_slice());
        self.entries.insert(key, cpd.clone());
        cpd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearnConfig;
    use mrsl_relation::relation::fig1_relation;

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

    #[test]
    fn single_voting_matches_direct_vote() {
        let m = model();
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 0);
        let t = PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]);
        let est = SingleVoting.estimate(&mut ctx, &t);
        assert_eq!(est.probs.len(), 3);
        assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(est.sample_count, 0);
        let direct = ctx.vote_single(&t, AttrId(0));
        assert_eq!(est.probs, direct);
    }

    #[test]
    #[should_panic(expected = "at most one missing attribute")]
    fn single_voting_rejects_multi_missing() {
        let m = model();
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 0);
        let t = PartialTuple::from_options(&[None, None, Some(0), Some(1)]);
        SingleVoting.estimate(&mut ctx, &t);
    }

    #[test]
    fn engines_agree_on_complete_tuples() {
        let m = model();
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 3);
        let t = PartialTuple::from_options(&[Some(0), Some(0), Some(0), Some(0)]);
        let gibbs = GibbsSampler {
            burn_in: 10,
            samples: 50,
        };
        let dag = TupleDagWorkload {
            burn_in: 10,
            samples: 50,
        };
        for est in [
            SingleVoting.estimate(&mut ctx, &t),
            gibbs.estimate(&mut ctx, &t),
            IndependentBaseline.estimate(&mut ctx, &t),
            dag.estimate(&mut ctx, &t),
        ] {
            assert_eq!(est.probs, vec![1.0]);
            assert_eq!(est.sample_count, 0);
        }
    }

    #[test]
    fn context_cache_is_reused_across_tuples() {
        let m = model();
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 7);
        let gibbs = GibbsSampler {
            burn_in: 20,
            samples: 100,
        };
        let a = PartialTuple::from_options(&[Some(0), None, None, None]);
        let b = PartialTuple::from_options(&[Some(0), None, None, None]);
        gibbs.estimate(&mut ctx, &a);
        let (hits_before, _) = ctx.cache_stats();
        gibbs.estimate(&mut ctx, &b);
        let (hits_after, _) = ctx.cache_stats();
        assert!(
            hits_after > hits_before,
            "second tuple reuses the first tuple's CPD cache"
        );
    }

    #[test]
    fn gibbs_engine_is_deterministic_per_seed() {
        let m = model();
        let gibbs = GibbsSampler {
            burn_in: 20,
            samples: 200,
        };
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 7);
        let a = gibbs.estimate(&mut ctx, &t);
        let b = gibbs.estimate(&mut ctx, &t);
        ctx.set_seed(8);
        let c = gibbs.estimate(&mut ctx, &t);
        assert_eq!(a.probs, b.probs);
        assert_ne!(a.probs, c.probs);
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(SingleVoting.name(), "single-voting");
        assert_eq!(
            GibbsSampler {
                burn_in: 1,
                samples: 1
            }
            .name(),
            "gibbs"
        );
        assert_eq!(IndependentBaseline.name(), "independent");
        assert_eq!(
            TupleDagWorkload {
                burn_in: 1,
                samples: 1
            }
            .name(),
            "tuple-dag"
        );
    }

    #[test]
    fn reseed_for_index_is_stable_and_index_sensitive() {
        let m = model();
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 42);
        ctx.reseed_for_index(3);
        let s3 = ctx.seed();
        ctx.reseed_for_index(4);
        let s4 = ctx.seed();
        ctx.reseed_for_index(3);
        assert_eq!(ctx.seed(), s3);
        assert_ne!(s3, s4);
        assert_eq!(s3, derive_seed(42, &[3]));
    }
}
