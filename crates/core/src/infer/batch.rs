//! The parallel batch layer: one engine, many tuples, many workers.
//!
//! [`infer_batch`] is the single entry point every workload in the
//! workspace funnels through — eager and lazy derivation (both through
//! one router that sends each tuple to voting or to an engine), weight
//! fitting, and the evaluation harness. It delegates to the engine's
//! `estimate_batch`, whose default implementation lives here:
//!
//! 1. **Deduplicate** the workload (duplicates share one estimate — and
//!    one chain — exactly like the tuple-DAG path).
//! 2. **Fan out** the distinct tuples in contiguous chunks over the shared
//!    rayon executor. Each worker owns one [`InferContext`], so the match
//!    scratch and voted-CPD cache amortize across its whole chunk.
//! 3. **Seed deterministically**: tuple `i` (distinct order) always uses
//!    `derive_seed(seed, [i])`, so the result is bit-identical no matter
//!    how many threads ran — caching and chunking only change *when* a CPD
//!    is computed, never its value.

use crate::config::VotingConfig;
use crate::infer::dag::{SamplingCost, WorkloadResult};
use crate::infer::engine::{InferContext, InferenceEngine};
use crate::infer::gibbs::JointEstimate;
use crate::model::MrslModel;
use mrsl_relation::PartialTuple;
use mrsl_util::{FxHashMap, Stopwatch};
use rayon::prelude::*;

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

/// The default `estimate_batch`: dedup → chunked parallel map → scatter.
pub(crate) fn data_parallel_batch<E: InferenceEngine + ?Sized>(
    engine: &E,
    model: &MrslModel,
    voting: VotingConfig,
    tuples: &[PartialTuple],
    seed: u64,
) -> WorkloadResult {
    let sw = Stopwatch::start();
    if tuples.is_empty() {
        return WorkloadResult {
            estimates: Vec::new(),
            cost: SamplingCost::default(),
        };
    }

    // Deduplicate in first-appearance order (the order fixes each distinct
    // tuple's seed, so it must not depend on scheduling).
    let mut node_of: FxHashMap<&PartialTuple, usize> = FxHashMap::default();
    let mut distinct: Vec<&PartialTuple> = Vec::new();
    let mut entry_nodes: Vec<usize> = Vec::with_capacity(tuples.len());
    for t in tuples {
        let idx = *node_of.entry(t).or_insert_with(|| {
            distinct.push(t);
            distinct.len() - 1
        });
        entry_nodes.push(idx);
    }

    // Contiguous chunks, one context per chunk. Oversplit (4× threads) so
    // a slow chunk cannot straggle the whole batch; chunk boundaries do
    // not affect results, only cache locality.
    let threads = rayon::current_num_threads().max(1);
    let chunk_len = distinct.len().div_ceil(threads * 4).max(1);
    let chunks: Vec<(usize, Vec<&PartialTuple>)> = distinct
        .chunks(chunk_len)
        .enumerate()
        .map(|(k, chunk)| (k * chunk_len, chunk.to_vec()))
        .collect();

    let per_chunk: Vec<Vec<(JointEstimate, SamplingCost)>> = chunks
        .into_par_iter()
        .map(|(offset, items)| {
            let mut ctx = InferContext::new(model, voting, seed);
            items
                .into_iter()
                .enumerate()
                .map(|(j, t)| {
                    ctx.reseed_for_index(offset + j);
                    let est = engine.estimate(&mut ctx, t);
                    let cost = engine.tuple_cost(&est);
                    (est, cost)
                })
                .collect()
        })
        .collect();

    let mut node_estimates: Vec<JointEstimate> = Vec::with_capacity(distinct.len());
    let mut cost = SamplingCost::default();
    for chunk in per_chunk {
        for (est, tuple_cost) in chunk {
            cost.absorb(&tuple_cost);
            node_estimates.push(est);
        }
    }
    let estimates = entry_nodes
        .iter()
        .map(|&node| node_estimates[node].clone())
        .collect();
    cost.elapsed = sw.elapsed();
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
            let mut ctx = crate::infer::engine::InferContext::new(&m, Default::default(), 0);
            ctx.set_seed(mrsl_util::derive_seed(31, &[node as u64]));
            let direct = gibbs.estimate(&mut ctx, t);
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
