//! The batch layer: one engine, many tuples, many workers.
//!
//! [`infer_batch`] is the single entry point every workload in the
//! workspace funnels through — eager and lazy derivation (both through
//! one router that sends each tuple to voting or to an engine), weight
//! fitting, and the evaluation harness. It delegates to the engine's
//! `estimate_batch`, and every engine's batch ends in the one executor
//! here:
//!
//! 1. **Deduplicate** the workload in first-appearance order (`dedup`;
//!    the tuple DAG builds its nodes with it too), so duplicates share one
//!    estimate and one chain.
//! 2. **Split** the distinct tuples into independent units: contiguous
//!    chunks for engines that estimate each tuple on its own, connected
//!    DAG components for Algorithm 3.
//! 3. **Fan out** the units over the shared rayon executor (`fan_out`).
//!    Each unit runs on its own [`InferContext`], so the match scratch and
//!    voted-CPD cache amortize across the unit, and every chain counts its
//!    own draws into that context's [`SamplingCost`]. The batch cost is the
//!    sum over the contexts.
//! 4. **Seed by position**: a tuple estimated on its own uses
//!    `derive_seed(seed, [distinct index])`, a DAG chain
//!    `derive_seed(seed, [node])`. Seeds are arguments, never context
//!    state, so the result is bit-identical no matter how many threads ran
//!    — caching and splitting only change *when* a CPD is computed, never
//!    its value.

use crate::config::VotingConfig;
use crate::infer::engine::{InferContext, InferenceEngine};
use crate::infer::gibbs::JointEstimate;
use crate::model::MrslModel;
use mrsl_relation::PartialTuple;
use mrsl_util::{derive_seed, FxHashMap, Stopwatch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Sampling-cost counters for the Fig. 11 comparison.
///
/// Every counter is added by the chain that drew it (or, for shared
/// samples, by the DAG step that shared it) to the [`InferContext`] it ran
/// on, and a batch sums its contexts. The cost of an engine that runs
/// other engines — an ensemble — therefore includes every chain its
/// members ran. Exact engines add nothing.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SamplingCost {
    /// Gibbs sweeps the chains performed, including burn-in — the paper's
    /// "sample size: the total number of sampled points".
    pub total_draws: usize,
    /// Sweeps the chains spent on burn-in.
    pub burn_in_draws: usize,
    /// Samples obtained for free by sharing along DAG edges.
    pub shared_samples: usize,
    /// Number of chains run.
    pub chains: usize,
    /// Wall-clock time of the batch (zero on a context's own counters).
    pub elapsed: Duration,
}

impl SamplingCost {
    /// Adds `other`'s counters into `self` (elapsed times add too; the
    /// batch layer overwrites `elapsed` with the wall-clock afterwards).
    pub fn absorb(&mut self, other: &SamplingCost) {
        self.total_draws += other.total_draws;
        self.burn_in_draws += other.burn_in_draws;
        self.shared_samples += other.shared_samples;
        self.chains += other.chains;
        self.elapsed += other.elapsed;
    }
}

/// Result of estimating a workload: one estimate per workload entry plus
/// aggregate sampling cost. This is the output type of every batch path
/// (`infer_batch` and the engines' `estimate_batch`).
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// One estimate per workload entry (duplicates share the estimate).
    pub estimates: Vec<JointEstimate>,
    /// Cost counters.
    pub cost: SamplingCost,
}

/// Estimates `Δt` for every tuple of `tuples` with `engine`, in parallel.
///
/// Returns one estimate per input tuple (duplicates share their estimate)
/// plus aggregate sampling cost. Deterministic per `seed` regardless of
/// the executor's thread count.
pub fn infer_batch<E: InferenceEngine + ?Sized>(
    model: &MrslModel,
    tuples: &[PartialTuple],
    engine: &E,
    voting: VotingConfig,
    seed: u64,
) -> WorkloadResult {
    engine.estimate_batch(model, voting, tuples, seed)
}

/// Deduplicates `workload` in first-appearance order: the distinct tuples,
/// and the index among them of every entry. The order fixes each distinct
/// tuple's seed, so it must not depend on scheduling.
pub(crate) fn dedup(workload: &[PartialTuple]) -> (Vec<&PartialTuple>, Vec<usize>) {
    let mut node_of: FxHashMap<&PartialTuple, usize> = FxHashMap::default();
    let mut distinct: Vec<&PartialTuple> = Vec::new();
    let entry_nodes = workload
        .iter()
        .map(|t| {
            *node_of.entry(t).or_insert_with(|| {
                distinct.push(t);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, entry_nodes)
}

/// The default `estimate_batch`: every distinct tuple `i` is estimated on
/// its own with seed `derive_seed(seed, [i])`, in contiguous chunks.
pub(crate) fn tuple_at_a_time<E: InferenceEngine + ?Sized>(
    engine: &E,
    model: &MrslModel,
    voting: VotingConfig,
    tuples: &[PartialTuple],
    seed: u64,
) -> WorkloadResult {
    let started = Stopwatch::start();
    let (distinct, entry_nodes) = dedup(tuples);
    // Oversplit (4× threads) so a slow chunk cannot straggle the whole
    // batch; chunk boundaries do not affect results, only cache locality.
    let threads = rayon::current_num_threads().max(1);
    let chunk_len = distinct.len().div_ceil(threads * 4).max(1);
    let units = (0..distinct.len())
        .step_by(chunk_len)
        .map(|start| (start..distinct.len().min(start + chunk_len)).collect())
        .collect();
    fan_out(started, model, voting, units, &entry_nodes, |ctx, nodes| {
        nodes
            .iter()
            .map(|&i| engine.estimate(ctx, distinct[i], derive_seed(seed, &[i as u64])))
            .collect()
    })
}

/// The batch executor: runs each unit (a list of distinct-tuple indices)
/// on its own fresh [`InferContext`] over the shared rayon executor,
/// scatters the estimates `run` returns (aligned with the unit) to the
/// workload entries `entry_nodes` maps to them, and sums the contexts'
/// sampling costs. `elapsed` is the wall-clock since `started`.
///
/// Every distinct index must lie in exactly one unit.
pub(crate) fn fan_out(
    started: Stopwatch,
    model: &MrslModel,
    voting: VotingConfig,
    units: Vec<Vec<usize>>,
    entry_nodes: &[usize],
    run: impl Fn(&mut InferContext<'_>, &[usize]) -> Vec<JointEstimate> + Sync,
) -> WorkloadResult {
    let per_unit: Vec<(Vec<usize>, Vec<JointEstimate>, SamplingCost)> = units
        .into_par_iter()
        .map(|nodes| {
            let mut ctx = InferContext::new(model, voting);
            let estimates = run(&mut ctx, &nodes);
            (nodes, estimates, ctx.cost())
        })
        .collect();

    let distinct = per_unit.iter().map(|(nodes, _, _)| nodes.len()).sum();
    let mut node_estimates: Vec<Option<JointEstimate>> = vec![None; distinct];
    let mut cost = SamplingCost::default();
    for (nodes, estimates, unit_cost) in per_unit {
        cost.absorb(&unit_cost);
        debug_assert_eq!(nodes.len(), estimates.len());
        for (node, est) in nodes.into_iter().zip(estimates) {
            node_estimates[node] = Some(est);
        }
    }
    let estimates = entry_nodes
        .iter()
        .map(|&node| {
            node_estimates[node]
                .clone()
                .expect("every distinct tuple belongs to exactly one unit")
        })
        .collect();
    cost.elapsed = started.elapsed();
    WorkloadResult { estimates, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearnConfig;
    use crate::infer::engine::{GibbsSampler, IndependentBaseline, SingleVoting};
    use mrsl_relation::relation::fig1_relation;

    fn model() -> crate::model::MrslModel {
        let rel = fig1_relation();
        crate::model::MrslModel::learn(
            rel.schema(),
            rel.complete_part(),
            &LearnConfig {
                support_threshold: 0.01,
                max_itemsets: 1000,
            },
        )
    }

    fn multi_workload() -> Vec<PartialTuple> {
        vec![
            PartialTuple::from_options(&[Some(0), Some(0), None, None]),
            PartialTuple::from_options(&[Some(0), None, Some(0), None]),
            PartialTuple::from_options(&[Some(1), Some(2), None, None]),
            PartialTuple::from_options(&[Some(0), Some(0), None, None]), // dup of [0]
            PartialTuple::from_options(&[None, Some(0), None, None]),
        ]
    }

    #[test]
    fn batch_covers_every_entry_and_dedups() {
        let m = model();
        let gibbs = GibbsSampler {
            burn_in: 20,
            samples: 100,
        };
        let workload = multi_workload();
        let res = infer_batch(&m, &workload, &gibbs, Default::default(), 1);
        assert_eq!(res.estimates.len(), workload.len());
        // Entry 3 duplicates entry 0: identical estimate, one chain.
        assert_eq!(res.estimates[0].probs, res.estimates[3].probs);
        assert_eq!(res.cost.chains, 4, "4 distinct tuples → 4 chains");
        assert_eq!(res.cost.total_draws, 4 * 120);
        assert_eq!(res.cost.burn_in_draws, 4 * 20);
    }

    #[test]
    fn single_voting_batch_costs_nothing() {
        let m = model();
        let workload = vec![
            PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]),
            PartialTuple::from_options(&[Some(0), None, Some(0), Some(1)]),
        ];
        let res = infer_batch(&m, &workload, &SingleVoting, Default::default(), 0);
        assert_eq!(res.estimates.len(), 2);
        assert_eq!(res.cost.total_draws, 0);
        assert_eq!(res.cost.chains, 0);
        for est in &res.estimates {
            assert_eq!(est.sample_count, 0);
            assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_engines_are_exact_in_batch() {
        let m = model();
        let workload = multi_workload();
        let a = infer_batch(&m, &workload, &IndependentBaseline, Default::default(), 1);
        let b = infer_batch(&m, &workload, &IndependentBaseline, Default::default(), 99);
        for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
            assert_eq!(ea.probs, eb.probs, "independent estimates ignore the seed");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let m = model();
        let res = infer_batch(
            &m,
            &[],
            &GibbsSampler {
                burn_in: 5,
                samples: 10,
            },
            Default::default(),
            4,
        );
        assert!(res.estimates.is_empty());
        assert_eq!(res.cost.total_draws, 0);
    }

    #[test]
    fn default_batch_matches_per_tuple_estimates_with_documented_seeds() {
        // Non-vacuous reference for the batch plumbing: reimplement the
        // documented contract (dedup in first-appearance order, tuple `i`
        // seeded `derive_seed(seed, [i])`, duplicates scattered) with
        // direct per-tuple engine calls and fresh contexts, and require
        // bit-identical output. Catches regressions in dedup order, seed
        // derivation, chunking and scatter independently of
        // `estimate_batch` itself.
        let m = model();
        let gibbs = GibbsSampler {
            burn_in: 20,
            samples: 150,
        };
        let workload = multi_workload();
        let batch = infer_batch(&m, &workload, &gibbs, Default::default(), 31);
        let mut seen: Vec<&PartialTuple> = Vec::new();
        for (entry, t) in workload.iter().enumerate() {
            let node = seen.iter().position(|&s| s == t).unwrap_or_else(|| {
                seen.push(t);
                seen.len() - 1
            });
            let mut ctx = crate::infer::engine::InferContext::new(&m, Default::default());
            let direct = gibbs.estimate(&mut ctx, t, mrsl_util::derive_seed(31, &[node as u64]));
            assert_eq!(batch.estimates[entry].probs, direct.probs, "entry {entry}");
        }
    }

    #[test]
    fn batch_results_are_bit_identical_across_thread_counts() {
        let m = model();
        let gibbs = GibbsSampler {
            burn_in: 30,
            samples: 200,
        };
        let workload = multi_workload();
        let reference = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool")
            .install(|| infer_batch(&m, &workload, &gibbs, Default::default(), 21));
        for threads in [2, 3, 8] {
            let run = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| infer_batch(&m, &workload, &gibbs, Default::default(), 21));
            for (a, b) in reference.estimates.iter().zip(&run.estimates) {
                assert_eq!(a.probs, b.probs, "{threads} threads");
            }
            assert_eq!(reference.cost.total_draws, run.cost.total_draws);
        }
    }
}
