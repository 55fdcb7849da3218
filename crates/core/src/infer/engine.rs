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
//! estimate needs besides the tuple and its seed: the model reference, the
//! [`VotingConfig`], reusable match scratch, the voted-CPD cache, and the
//! [`SamplingCost`] the chains run on it add up. Contexts make scratch and
//! cache reuse the engine layer's problem instead of each caller's, and
//! they are the unit of thread ownership in the batch executor
//! ([`crate::infer::batch`]): one context per unit of work, never shared.
//! The seed is an argument of [`InferenceEngine::estimate`], so an engine
//! that runs other engines (an ensemble) hands each its own seed.

use crate::config::{GibbsConfig, VotingConfig};
use crate::infer::batch::{self, SamplingCost, WorkloadResult};
use crate::infer::dag::{sample_component, TupleDag};
use crate::infer::gibbs::{run_chain, JointEstimate};
use crate::infer::single::vote;
use crate::model::MrslModel;
use mrsl_relation::{AttrId, AttrMask, JointIndexer, PartialTuple};
use mrsl_util::{FxHashMap, Stopwatch};
use std::rc::Rc;

/// Everything inference needs besides the tuple and its seed: model,
/// voting policy, scratch buffers, the voted-CPD cache and the sampling
/// cost of the estimates run on it.
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
    cache: CpdCache,
    scratch: mrsl_core_scratch::Scratch,
    /// Chains, draws and shared samples of every estimate run so far.
    cost: SamplingCost,
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
    /// Creates a context over `model` with the given voting policy.
    pub fn new(model: &'m MrslModel, voting: VotingConfig) -> Self {
        Self {
            model,
            voting,
            cache: CpdCache::new(model),
            scratch: Default::default(),
            cost: SamplingCost::default(),
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

    /// The sampling cost of every estimate run on this context so far:
    /// each chain adds its own draws, each DAG share its sample. `elapsed`
    /// stays zero; batches time themselves.
    pub fn cost(&self) -> SamplingCost {
        self.cost
    }

    /// The counters chains and DAG shares add to.
    pub(crate) fn cost_mut(&mut self) -> &mut SamplingCost {
        &mut self.cost
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
    /// randomness from `seed` and add the chains they run to `ctx`'s
    /// [`InferContext::cost`]; deterministic engines ignore the seed and
    /// add nothing.
    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple, seed: u64) -> JointEstimate;

    /// Estimates `Δt` for every tuple of a workload.
    ///
    /// The default implementation deduplicates the workload and estimates
    /// each distinct tuple `i` on its own with seed `derive_seed(seed,
    /// [i])`, in chunks over the batch executor, so results are
    /// bit-identical regardless of thread count. Engines that share work
    /// *between* tuples (the tuple DAG) override this with their own units
    /// on the same executor.
    fn estimate_batch(
        &self,
        model: &MrslModel,
        voting: VotingConfig,
        tuples: &[PartialTuple],
        seed: u64,
    ) -> WorkloadResult {
        batch::tuple_at_a_time(self, model, voting, tuples, seed)
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
    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple, _seed: u64) -> JointEstimate {
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

    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple, seed: u64) -> JointEstimate {
        let indexer = JointIndexer::new(ctx.model().schema(), t.missing_mask());
        if indexer.size() == 1 {
            return trivial_estimate(indexer);
        }
        let mut counts = vec![0u32; indexer.size()];
        run_chain(ctx, t, seed, self.burn_in, self.samples, |joint, _| {
            counts[joint] += 1;
        });
        JointEstimate::from_counts(indexer, &counts)
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

    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple, _seed: u64) -> JointEstimate {
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
    fn estimate(&self, ctx: &mut InferContext<'_>, t: &PartialTuple, seed: u64) -> JointEstimate {
        let dag = TupleDag::build(std::slice::from_ref(t));
        sample_component(ctx, self.burn_in, self.samples, &dag, &[0], seed)
            .pop()
            .expect("singleton workload yields one estimate")
    }

    /// Algorithm 3 proper: the DAG is built once, and its connected
    /// components are the batch executor's units. Within a component the
    /// paper's round-robin root schedule runs sequentially (sharing is
    /// inherently ordered). Chain seeds derive from global node indices,
    /// so results are bit-identical regardless of thread count.
    fn estimate_batch(
        &self,
        model: &MrslModel,
        voting: VotingConfig,
        tuples: &[PartialTuple],
        seed: u64,
    ) -> WorkloadResult {
        let started = Stopwatch::start();
        let dag = TupleDag::build(tuples);
        let units = dag.components();
        batch::fan_out(
            started,
            model,
            voting,
            units,
            dag.workload_nodes(),
            |ctx, nodes| sample_component(ctx, self.burn_in, self.samples, &dag, nodes, seed),
        )
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
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let t = PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]);
        let est = SingleVoting.estimate(&mut ctx, &t, 0);
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
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let t = PartialTuple::from_options(&[None, None, Some(0), Some(1)]);
        SingleVoting.estimate(&mut ctx, &t, 0);
    }

    #[test]
    fn engines_agree_on_complete_tuples() {
        let m = model();
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
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
            SingleVoting.estimate(&mut ctx, &t, 0),
            gibbs.estimate(&mut ctx, &t, 3),
            IndependentBaseline.estimate(&mut ctx, &t, 3),
            dag.estimate(&mut ctx, &t, 3),
        ] {
            assert_eq!(est.probs, vec![1.0]);
            assert_eq!(est.sample_count, 0);
        }
    }

    #[test]
    fn context_cache_is_reused_across_tuples() {
        let m = model();
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let gibbs = GibbsSampler {
            burn_in: 20,
            samples: 100,
        };
        let a = PartialTuple::from_options(&[Some(0), None, None, None]);
        let b = PartialTuple::from_options(&[Some(0), None, None, None]);
        gibbs.estimate(&mut ctx, &a, 7);
        let (hits_before, _) = ctx.cache_stats();
        gibbs.estimate(&mut ctx, &b, 7);
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
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let a = gibbs.estimate(&mut ctx, &t, 7);
        let b = gibbs.estimate(&mut ctx, &t, 7);
        let c = gibbs.estimate(&mut ctx, &t, 8);
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
    fn chains_count_their_draws_on_the_context() {
        let m = model();
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged());
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        let complete = PartialTuple::from_options(&[Some(0), Some(0), Some(0), Some(0)]);
        GibbsSampler {
            burn_in: 20,
            samples: 100,
        }
        .estimate(&mut ctx, &t, 1);
        TupleDagWorkload {
            burn_in: 10,
            samples: 50,
        }
        .estimate(&mut ctx, &t, 1);
        IndependentBaseline.estimate(&mut ctx, &t, 1);
        GibbsSampler {
            burn_in: 20,
            samples: 100,
        }
        .estimate(&mut ctx, &complete, 1);
        let cost = ctx.cost();
        assert_eq!(cost.chains, 2);
        assert_eq!(cost.burn_in_draws, 20 + 10);
        assert_eq!(cost.total_draws, 120 + 60);
        assert_eq!(cost.shared_samples, 0);
    }
}
