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
//! in the paper's words — has two levels. The shared level lives in the
//! [`InferContext`] the chain sweeps against, keyed by (attribute,
//! evidence state), so it serves every chain (and tuple) of that context.
//! In front of it each chain keeps a local table indexed by its joint
//! index over the missing attributes (see `GibbsChain`): after the first
//! read of a slot, every step is one array index instead of a key pack, a
//! hash probe and an `Rc` clone.
//!
//! `run_chain` is the one way a chain is run: the per-tuple engine
//! ([`crate::infer::engine::GibbsSampler`]) and the tuple DAG
//! ([`crate::infer::dag`]) both call it, and it adds the chain and its
//! sweeps to the context's [`crate::infer::batch::SamplingCost`]. Both
//! turn their recorded counts into an estimate with
//! `JointEstimate::from_counts`.

use crate::infer::engine::InferContext;
use crate::model::MrslModel;
use mrsl_relation::{AttrMask, JointIndexer, PartialTuple};
use mrsl_util::{derive_seed, seeded_rng};
use rand::rngs::StdRng;
use rand::Rng;
use std::rc::Rc;

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

    /// The empirical distribution of recorded `counts` over `indexer`'s
    /// joint. With nothing recorded (a `samples: 0` configuration) it is
    /// uniform instead of an all-zero non-distribution.
    pub(crate) fn from_counts(indexer: JointIndexer, counts: &[u32]) -> Self {
        let n: u32 = counts.iter().sum();
        let probs = if n == 0 {
            vec![1.0 / counts.len() as f64; counts.len()]
        } else {
            counts.iter().map(|&c| c as f64 / n as f64).collect()
        };
        Self {
            indexer,
            probs,
            sample_count: n as usize,
        }
    }
}

/// Runs one chain for `tuple` from `seed`: `burn_in` sweeps, then `draws`
/// sweeps, each passed to `record` with the chain's joint index over the
/// missing attributes and its full state. Adds the chain, its sweeps and
/// its burn-in to `ctx`'s sampling cost.
pub(crate) fn run_chain(
    ctx: &mut InferContext<'_>,
    tuple: &PartialTuple,
    seed: u64,
    burn_in: usize,
    draws: usize,
    mut record: impl FnMut(usize, &[u16]),
) {
    let mut chain = GibbsChain::new(ctx.model(), tuple, seed).with_sweeps(burn_in + draws);
    for _ in 0..burn_in {
        chain.sweep(ctx);
    }
    for _ in 0..draws {
        chain.sweep(ctx);
        record(chain.joint_index(), chain.state());
    }
    let cost = ctx.cost_mut();
    cost.chains += 1;
    cost.burn_in_draws += burn_in;
    cost.total_draws += burn_in + draws;
}

/// One Gibbs chain for a single incomplete tuple. The chain owns its
/// Markov state, its RNG and a table of the CPDs it has read; voting
/// scratch and the shared CPD cache come from the [`InferContext`] passed
/// to [`GibbsChain::sweep`], so many chains (the tuple-DAG scheduler
/// interleaves dozens) share one cache.
///
/// **Chain-local CPD table.** The chain tracks `j`, the joint index of its
/// missing attributes' current values in [`JointIndexer`] order. Resampling
/// the k-th missing attribute reads the CPD conditioned on everything else,
/// which is `j` with digit k zeroed (`j − stride_k · value_k`); slot
/// `k · |joint| + that` of the table holds it. The first read of a slot
/// fills it from the context's shared cache; later reads are one array
/// index, counted as cache hits so [`InferContext::cache_stats`] reads the
/// same as without the table. CPDs are pure functions of (attribute,
/// evidence), so the table changes when a CPD is fetched, never which one:
/// draws are bit-identical to reading the shared cache on every step.
///
/// The table has `m · |joint|` slots for `m` missing attributes, and pays
/// only when the chain reads at least that many CPDs. A chain run for `s`
/// sweeps reads `s · m`, so [`GibbsChain::with_sweeps`] allocates the table
/// only when `|joint| ≤ s`; a chain without a table reads the shared cache
/// on every step.
pub(crate) struct GibbsChain {
    /// Current full assignment; observed attributes never change.
    state: Vec<u16>,
    /// The missing attributes, ascending, with their joint-index strides.
    indexer: JointIndexer,
    /// Evidence mask per missing attribute: everything except itself.
    evidence_masks: Vec<AttrMask>,
    /// Joint index of the missing attributes' values in `state`.
    joint: usize,
    /// Chain-local CPD table (`m · |joint|` slots); empty when the chain
    /// reads the shared cache on every step.
    table: Vec<Option<Rc<[f64]>>>,
    rng: StdRng,
}

impl GibbsChain {
    /// Starts a chain for `tuple` "with a valid random assignment" of the
    /// missing attributes (uniform init, as any positive initialization is
    /// valid given smoothed CPDs). The chain has no local CPD table until
    /// [`GibbsChain::with_sweeps`] sizes one.
    pub fn new(model: &MrslModel, tuple: &PartialTuple, seed: u64) -> Self {
        let schema = model.schema();
        let n = schema.attr_count();
        debug_assert_eq!(tuple.arity(), n);
        let mut rng = seeded_rng(derive_seed(seed, &[0x61bb5]));
        let mut state = vec![0u16; n];
        for asg in tuple.assignments() {
            state[asg.attr.index()] = asg.value.0;
        }
        let indexer = JointIndexer::new(schema, tuple.missing_mask());
        for &a in indexer.attrs() {
            state[a.index()] = rng.gen_range(0..schema.cardinality(a)) as u16;
        }
        let full = AttrMask::full(n);
        let evidence_masks = indexer.attrs().iter().map(|&a| full.without(a)).collect();
        let joint = indexer.index_of_state(&state);
        Self {
            state,
            indexer,
            evidence_masks,
            joint,
            table: Vec::new(),
            rng,
        }
    }

    /// Allocates the chain-local CPD table when the chain, run for
    /// `sweeps` sweeps, reads at least as many CPDs as the table has
    /// slots: `m · |joint| ≤ sweeps · m`.
    pub fn with_sweeps(mut self, sweeps: usize) -> Self {
        let size = self.indexer.size();
        if size <= sweeps {
            self.table.resize(self.indexer.attrs().len() * size, None);
        }
        self
    }

    /// Performs one ordered sweep (resamples every missing attribute once)
    /// and returns the updated full state.
    pub fn sweep(&mut self, ctx: &mut InferContext<'_>) -> &[u16] {
        let size = self.indexer.size();
        let attrs = self.indexer.attrs().iter();
        for (k, (&attr, &stride)) in attrs.zip(self.indexer.strides()).enumerate() {
            let mask = self.evidence_masks[k];
            // The joint index with attribute k's digit zeroed: the rest of
            // the missing values, i.e. the evidence k is resampled under.
            let rest = self.joint - stride * self.state[attr.index()] as usize;
            let value = if self.table.is_empty() {
                let cpd = ctx.voted_cpd(attr, &self.state, mask);
                sample_categorical(&cpd, &mut self.rng)
            } else {
                let slot = &mut self.table[k * size + rest];
                if slot.is_some() {
                    ctx.count_local_hit();
                } else {
                    *slot = Some(ctx.voted_cpd(attr, &self.state, mask));
                }
                let cpd = slot.as_deref().expect("slot filled above");
                sample_categorical(cpd, &mut self.rng)
            };
            self.state[attr.index()] = value;
            self.joint = rest + stride * value as usize;
        }
        &self.state
    }

    /// The current full state.
    pub fn state(&self) -> &[u16] {
        &self.state
    }

    /// The current joint index over the missing attributes, in
    /// [`JointIndexer`] order: where the last sweep's draw is recorded.
    pub fn joint_index(&self) -> usize {
        self.joint
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
    use mrsl_relation::{AttrId, ValueId};

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

    fn ctx(m: &MrslModel) -> InferContext<'_> {
        InferContext::new(m, VotingConfig::best_averaged())
    }

    #[test]
    fn estimates_are_distributions() {
        let m = model();
        // t12 = ⟨30, MS, ?, ?⟩ from Fig. 1.
        let t = PartialTuple::from_options(&[Some(1), Some(2), None, None]);
        let est = sampler(50, 500).estimate(&mut ctx(&m), &t, 1);
        assert_eq!(est.indexer.size(), 4); // inc × nw = 2 × 2
        assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(est.probs.iter().all(|&p| p >= 0.0));
        assert_eq!(est.sample_count, 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        let a = sampler(20, 200).estimate(&mut ctx(&m), &t, 7);
        let b = sampler(20, 200).estimate(&mut ctx(&m), &t, 7);
        let c = sampler(20, 200).estimate(&mut ctx(&m), &t, 8);
        assert_eq!(a.probs, b.probs);
        assert_ne!(a.probs, c.probs);
    }

    #[test]
    fn complete_tuple_is_trivial() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), Some(0), Some(0), Some(0)]);
        let est = sampler(10, 100).estimate(&mut ctx(&m), &t, 0);
        assert_eq!(est.probs, vec![1.0]);
        assert_eq!(est.sample_count, 0);
    }

    #[test]
    fn single_missing_gibbs_approaches_single_inference() {
        // With one missing attribute the chain samples i.i.d. from the
        // voted CPD, so the histogram converges to the voted estimate.
        let m = model();
        let t = PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]);
        let mut c = ctx(&m);
        let est = sampler(10, 30_000).estimate(&mut c, &t, 3);
        let direct = c.vote_single(&t, AttrId(0));
        for (g, d) in est.probs.iter().zip(&direct) {
            assert!((g - d).abs() < 0.02, "{g} vs {d}");
        }
    }

    #[test]
    fn clamped_evidence_never_changes() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(1), Some(2), None, None]);
        let mut c = ctx(&m);
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
    fn from_counts_is_the_empirical_distribution() {
        let indexer = || {
            JointIndexer::new(
                &fig1_relation().schema().clone(),
                AttrMask::single(AttrId(2)),
            )
        };
        let est = JointEstimate::from_counts(indexer(), &[1, 3]);
        assert_eq!(est.probs, vec![0.25, 0.75]);
        assert_eq!(est.sample_count, 4);
        // Nothing recorded: uniform, not all-zero.
        let est = JointEstimate::from_counts(indexer(), &[0, 0]);
        assert_eq!(est.probs, vec![0.5, 0.5]);
        assert_eq!(est.sample_count, 0);
    }

    #[test]
    fn cache_hits_accumulate() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        let mut c = ctx(&m);
        let mut chain = GibbsChain::new(&m, &t, 9);
        for _ in 0..200 {
            chain.sweep(&mut c);
        }
        // The state space is tiny (3·2·2 = 12 combos × 3 attrs), so the
        // cache must be hitting after 200 sweeps.
        let (hits, misses) = c.cache_stats();
        assert!(hits > misses, "hits {hits} vs misses {misses}");
    }

    /// The sweep without a local table or a joint index: one shared-cache
    /// lookup per step, as every step read before chains kept tables.
    fn reference_sweep(chain: &mut GibbsChain, ctx: &mut InferContext<'_>) {
        for (k, &attr) in chain.indexer.attrs().iter().enumerate() {
            let cpd = ctx.voted_cpd(attr, &chain.state, chain.evidence_masks[k]);
            chain.state[attr.index()] = sample_categorical(&cpd, &mut chain.rng);
        }
    }

    /// Runs a chain sized for `planned` sweeps next to the reference sweep
    /// for `sweeps` sweeps, each on a fresh context. Asserts equal states
    /// after every sweep, the tracked joint index against a re-indexed
    /// state, and equal cache counters. Returns whether the chain kept a
    /// local table.
    fn assert_matches_reference(
        m: &MrslModel,
        t: &PartialTuple,
        planned: usize,
        sweeps: usize,
        seed: u64,
    ) -> bool {
        let mut chain = GibbsChain::new(m, t, seed).with_sweeps(planned);
        let mut reference = GibbsChain::new(m, t, seed);
        let (mut a, mut b) = (ctx(m), ctx(m));
        let indexer = JointIndexer::new(m.schema(), t.missing_mask());
        for step in 0..sweeps {
            chain.sweep(&mut a);
            reference_sweep(&mut reference, &mut b);
            assert_eq!(chain.state(), reference.state(), "sweep {step}");
            assert_eq!(
                chain.joint_index(),
                indexer.index_of_state(reference.state()),
                "sweep {step}"
            );
        }
        assert_eq!(a.cache_stats(), b.cache_stats(), "cache counters");
        !chain.table.is_empty()
    }

    #[test]
    fn table_is_sized_by_the_sweep_count() {
        let m = model();
        // ⟨20, ?, ?, ?⟩: |joint| = 3 · 2 · 2 = 12.
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        assert!(assert_matches_reference(&m, &t, 12, 40, 4), "at the bound");
        assert!(!assert_matches_reference(&m, &t, 11, 40, 4), "over it");
        assert!(!assert_matches_reference(&m, &t, 0, 40, 4), "unplanned");
        let chain = GibbsChain::new(&m, &t, 4).with_sweeps(12);
        assert_eq!(chain.table.len(), 3 * 12);
    }

    #[test]
    fn table_reads_count_as_cache_hits() {
        // 200 sweeps × 3 attributes read 600 CPDs; with a table, all but
        // the first read of each slot come from it, and still count.
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        let mut c = ctx(&m);
        let mut chain = GibbsChain::new(&m, &t, 9).with_sweeps(200);
        for _ in 0..200 {
            chain.sweep(&mut c);
        }
        let (hits, misses) = c.cache_stats();
        assert_eq!(hits + misses, 600);
        assert!(misses <= 3 * 12, "misses {misses}");
    }

    /// A BN18 tuple with six hidden binary attributes (|joint| = 64), at
    /// the size bound, over it, and at a derivation's B + N.
    #[test]
    fn bn18_six_missing_matches_reference() {
        use mrsl_bayesnet::{catalog, sampler, BayesianNetwork};

        let topology = catalog::by_name("BN18").expect("BN18").topology;
        let bn = BayesianNetwork::instantiate(&topology, 0.5, 18);
        let train = sampler::sample_dataset(&bn, 3_000, 1);
        let m = MrslModel::learn(
            bn.schema(),
            &train,
            &LearnConfig {
                support_threshold: 0.005,
                max_itemsets: 1000,
            },
        );
        let point = &sampler::sample_dataset(&bn, 1, 2)[0];
        let t = [1u16, 2, 4, 5, 7, 9]
            .iter()
            .fold(point.to_partial(), |t, &a| t.without_attr(AttrId(a)));
        assert_eq!(t.missing_mask().count(), 6);
        assert!(assert_matches_reference(&m, &t, 64, 80, 3), "at the bound");
        assert!(!assert_matches_reference(&m, &t, 63, 80, 3), "over it");
        assert!(assert_matches_reference(&m, &t, 2_100, 300, 5));
    }

    mod properties {
        use super::*;
        use mrsl_relation::{CompleteTuple, Schema, SchemaBuilder};
        use proptest::prelude::*;
        use std::sync::Arc;

        /// A random schema (2–5 attributes of cardinality 2–4), 10–30
        /// complete points to learn from, and one partial tuple over it.
        fn arb_case() -> impl Strategy<Value = (Arc<Schema>, Vec<CompleteTuple>, Vec<Option<u16>>)>
        {
            prop::collection::vec(2u16..=4, 2..=5).prop_flat_map(|cards| {
                let mut b = SchemaBuilder::default();
                for (i, &card) in cards.iter().enumerate() {
                    b = b.attribute(format!("a{i}"), (0..card).map(|v| format!("v{v}")));
                }
                let schema = b.build().expect("valid schema");
                let point = cards.iter().map(|&c| 0..c).collect::<Vec<_>>();
                let partial = cards
                    .iter()
                    .map(|&c| prop::option::of(0..c))
                    .collect::<Vec<_>>();
                (
                    Just(schema),
                    prop::collection::vec(point.prop_map(CompleteTuple::from_values), 10..30),
                    partial,
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The table chain reproduces the per-step shared-cache sweep
            /// draw for draw: with one missing attribute, at the size
            /// bound, and over it (the fallback).
            #[test]
            fn table_chain_matches_reference_sweep(
                (schema, points, slots) in arb_case(),
                sweeps in 1usize..60,
                seed in 0u64..1_000,
            ) {
                prop_assume!(slots.iter().any(Option::is_none));
                let m = MrslModel::learn(
                    &schema,
                    &points,
                    &LearnConfig { support_threshold: 0.05, max_itemsets: 200 },
                );
                let t = PartialTuple::from_options(&slots);
                let size = JointIndexer::new(&schema, t.missing_mask()).size();
                prop_assert!(assert_matches_reference(&m, &t, size, sweeps, seed));
                prop_assert!(!assert_matches_reference(&m, &t, size - 1, sweeps, seed));
                // Keep only the first missing attribute missing.
                let first = slots.iter().position(Option::is_none).expect("assumed");
                let one: Vec<Option<u16>> = slots
                    .iter()
                    .enumerate()
                    .map(|(i, v)| if i == first { None } else { Some(v.unwrap_or(0)) })
                    .collect();
                let t = PartialTuple::from_options(&one);
                assert_matches_reference(&m, &t, sweeps, sweeps, seed);
            }
        }
    }

    #[test]
    fn estimate_reflects_evidence_correlations() {
        // Fig. 1's Rc: points matching ⟨20, HS⟩ are t4 (100K, 500K),
        // t6 (50K, 100K) and t7 (50K, 500K) — inc=50K on 2 of 3. The Gibbs
        // estimate over (inc, nw) must put more mass on inc=50K.
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), Some(0), None, None]);
        let est = sampler(200, 6000).estimate(&mut ctx(&m), &t, 11);
        let ix = &est.indexer;
        let p_inc50: f64 = (0..ix.size())
            .filter(|&i| ix.decode(i)[0].1 == ValueId(0))
            .map(|i| est.probs[i])
            .sum();
        assert!(p_inc50 > 0.55, "P(inc=50K) = {p_inc50}");
    }
}
