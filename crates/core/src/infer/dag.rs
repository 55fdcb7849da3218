//! Workload-driven sampling with the tuple DAG (§V-B, Algorithm 3).
//!
//! Tuples related by subsumption can reuse each other's samples: when `r`
//! subsumes `s` (`s ≺ r`), every point sampled for `r` that agrees with
//! `s`'s assignments is also a valid sample for `s`. The tuple DAG orders
//! the distinct workload tuples by subsumption (cover edges only); roots —
//! tuples subsumed by no other — are sampled round-robin, and on completion
//! their samples propagate to subsumees. Subsumees left short of `N`
//! samples after all their parents complete are promoted to roots and top
//! up with their own chains.
//!
//! Sample sharing only ever crosses cover edges, so the *connected
//! components* of the DAG are independent sampling problems. The workload
//! runner exploits that: components fan out over the shared rayon executor
//! while the round-robin schedule inside each component stays sequential.
//! Chain seeds derive from global node indices, making results
//! bit-identical for any thread count. The engine wrapper is
//! [`crate::infer::engine::TupleDagWorkload`].

use crate::config::{GibbsConfig, VotingConfig};
use crate::infer::engine::{GibbsSampler, InferContext, InferenceEngine, TupleDagWorkload};
use crate::infer::gibbs::{GibbsChain, JointEstimate};
use crate::model::MrslModel;
use mrsl_relation::{JointIndexer, PartialTuple};
use mrsl_util::{derive_seed, FxHashMap, Stopwatch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::Duration;

/// How a workload of incomplete tuples is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadStrategy {
    /// One independent chain per distinct tuple (the paper's baseline).
    TupleAtATime,
    /// Algorithm 3: subsumption-driven sample sharing.
    TupleDag,
}

/// Sampling-cost counters for the Fig. 11 comparison.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SamplingCost {
    /// Gibbs sweeps performed, including burn-in — the paper's
    /// "sample size: the total number of sampled points".
    pub total_draws: usize,
    /// Sweeps spent on burn-in.
    pub burn_in_draws: usize,
    /// Samples obtained for free by sharing along DAG edges.
    pub shared_samples: usize,
    /// Number of chains started.
    pub chains: usize,
    /// Wall-clock time of the sampling phase.
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

/// The tuple DAG over a deduplicated workload.
#[derive(Debug, Clone)]
pub struct TupleDag {
    nodes: Vec<PartialTuple>,
    parents: Vec<Vec<usize>>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
    /// Maps each workload entry to its node.
    workload_nodes: Vec<usize>,
}

impl TupleDag {
    /// Builds the DAG: deduplicates the workload, computes subsumption and
    /// keeps only cover edges (a parent is a maximal subsumer).
    pub fn build(workload: &[PartialTuple]) -> Self {
        let mut node_of: FxHashMap<&PartialTuple, usize> = FxHashMap::default();
        let mut nodes: Vec<PartialTuple> = Vec::new();
        let mut workload_nodes = Vec::with_capacity(workload.len());
        for t in workload {
            let idx = *node_of.entry(t).or_insert_with(|| {
                nodes.push(t.clone());
                nodes.len() - 1
            });
            workload_nodes.push(idx);
        }

        let n = nodes.len();
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for s in 0..n {
            // All subsumers of s…
            let subsumers: Vec<usize> = (0..n)
                .filter(|&r| r != s && nodes[r].subsumes(&nodes[s]))
                .collect();
            // …of which the maximal ones (not themselves subsuming another
            // subsumer… i.e. not subsumed-by-larger: r is a cover parent iff
            // no other subsumer m of s is subsumed by r).
            for &r in &subsumers {
                let covered = subsumers
                    .iter()
                    .any(|&m| m != r && nodes[r].subsumes(&nodes[m]));
                if !covered {
                    parents[s].push(r);
                    children[r].push(s);
                }
            }
        }
        let roots = (0..n).filter(|&i| parents[i].is_empty()).collect();
        Self {
            nodes,
            parents,
            children,
            roots,
            workload_nodes,
        }
    }

    /// Number of distinct tuples (DAG nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the workload was empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The distinct tuples.
    pub fn nodes(&self) -> &[PartialTuple] {
        &self.nodes
    }

    /// Initial roots: nodes not subsumed by any other node.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Cover parents of a node.
    pub fn parents(&self, i: usize) -> &[usize] {
        &self.parents[i]
    }

    /// Cover children of a node.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Node index of each workload entry.
    pub fn workload_nodes(&self) -> &[usize] {
        &self.workload_nodes
    }

    /// Connected components of the cover-edge graph, each ascending by
    /// node index; components ordered by their smallest node. Sample
    /// sharing never crosses components, so they are independent sampling
    /// problems.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut component = vec![usize::MAX; n];
        let mut components = Vec::new();
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let id = components.len();
            let mut members = vec![start];
            component[start] = id;
            let mut stack = vec![start];
            while let Some(i) = stack.pop() {
                for &j in self.parents(i).iter().chain(self.children(i)) {
                    if component[j] == usize::MAX {
                        component[j] = id;
                        members.push(j);
                        stack.push(j);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }
}

/// Per-node sampling state.
struct NodeState {
    indexer: JointIndexer,
    counts: Vec<u32>,
    /// Recorded full-arity points (kept for sharing with children).
    points: Vec<Box<[u16]>>,
    completed: bool,
    pending_parents: usize,
}

impl NodeState {
    fn samples(&self) -> usize {
        self.points.len()
    }

    fn record(&mut self, point: &[u16]) {
        let combo: Vec<mrsl_relation::ValueId> = self
            .indexer
            .attrs()
            .iter()
            .map(|a| mrsl_relation::ValueId(point[a.index()]))
            .collect();
        self.counts[self.indexer.index_of(&combo)] += 1;
        self.points.push(point.into());
    }
}

/// Runs Algorithm 3 over a workload: builds the tuple DAG once, then
/// samples its connected components in parallel on the shared executor.
///
/// Deterministic for a given `seed` regardless of thread count: chain
/// seeds derive from global node indices and components are independent.
pub(crate) fn run_workload_dag(
    model: &MrslModel,
    voting: VotingConfig,
    burn_in: usize,
    samples: usize,
    workload: &[PartialTuple],
    seed: u64,
) -> WorkloadResult {
    let sw = Stopwatch::start();
    let dag = TupleDag::build(workload);
    let components = dag.components();

    let per_component: Vec<(Vec<(usize, JointEstimate)>, SamplingCost)> = components
        .into_par_iter()
        .map(|nodes| sample_component(model, voting, burn_in, samples, &dag, &nodes, seed))
        .collect();

    let mut node_estimates: Vec<Option<JointEstimate>> = vec![None; dag.len()];
    let mut cost = SamplingCost::default();
    for (estimates, component_cost) in per_component {
        cost.absorb(&component_cost);
        for (node, est) in estimates {
            node_estimates[node] = Some(est);
        }
    }
    let estimates = dag
        .workload_nodes()
        .iter()
        .map(|&node| {
            node_estimates[node]
                .clone()
                .expect("every node belongs to exactly one component")
        })
        .collect();
    cost.elapsed = sw.elapsed();
    WorkloadResult { estimates, cost }
}

/// The round-robin root schedule of Algorithm 3, restricted to one
/// connected component (`nodes`, ascending). Returns the estimates of the
/// component's nodes and the component's sampling cost.
fn sample_component(
    model: &MrslModel,
    voting: VotingConfig,
    burn_in: usize,
    samples: usize,
    dag: &TupleDag,
    nodes: &[usize],
    seed: u64,
) -> (Vec<(usize, JointEstimate)>, SamplingCost) {
    let mut ctx = InferContext::new(model, voting, seed);
    let mut cost = SamplingCost::default();
    let mut states: FxHashMap<usize, NodeState> = nodes
        .iter()
        .map(|&i| {
            let tuple = &dag.nodes()[i];
            let indexer = JointIndexer::new(model.schema(), tuple.missing_mask());
            let state = NodeState {
                counts: vec![0u32; indexer.size()],
                indexer,
                points: Vec::new(),
                completed: tuple.is_complete(),
                pending_parents: dag.parents(i).len(),
            };
            (i, state)
        })
        .collect();

    // Roots first (ascending, matching the global schedule's visit order);
    // trivially-completed nodes propagate before any sampling happens.
    let mut active: VecDeque<usize> = nodes
        .iter()
        .copied()
        .filter(|&i| dag.parents(i).is_empty() && !states[&i].completed)
        .collect();
    let mut chains: FxHashMap<usize, GibbsChain> = FxHashMap::default();
    let mut done_queue: Vec<usize> = nodes
        .iter()
        .copied()
        .filter(|&i| states[&i].completed)
        .collect();
    propagate_completions(
        dag,
        &mut states,
        samples,
        &mut cost,
        &mut active,
        &mut done_queue,
    );

    while let Some(r) = active.pop_front() {
        if states[&r].completed {
            continue;
        }
        let chain = chains.entry(r).or_insert_with(|| {
            cost.chains += 1;
            let mut chain = GibbsChain::new(model, &dag.nodes()[r], derive_seed(seed, &[r as u64]));
            // Lines 6–8: burn-in on first visit, samples discarded.
            for _ in 0..burn_in {
                chain.sweep(&mut ctx);
            }
            cost.burn_in_draws += burn_in;
            cost.total_draws += burn_in;
            chain
        });
        // Line 9: one recorded sample per visit.
        let point = chain.sweep(&mut ctx).to_vec().into_boxed_slice();
        cost.total_draws += 1;
        let state = states.get_mut(&r).expect("active node is in the component");
        state.record(&point);
        if state.samples() >= samples {
            // Lines 10–21: completion and sample sharing.
            state.completed = true;
            chains.remove(&r);
            done_queue.push(r);
            propagate_completions(
                dag,
                &mut states,
                samples,
                &mut cost,
                &mut active,
                &mut done_queue,
            );
        } else {
            active.push_back(r);
        }
    }

    let estimates = nodes
        .iter()
        .map(|&i| (i, make_estimate(&states[&i])))
        .collect();
    (estimates, cost)
}

/// `ShareSamples` + root promotion: drains the completion worklist,
/// sharing each completed node's points with its children.
fn propagate_completions(
    dag: &TupleDag,
    states: &mut FxHashMap<usize, NodeState>,
    samples: usize,
    cost: &mut SamplingCost,
    active: &mut VecDeque<usize>,
    done_queue: &mut Vec<usize>,
) {
    while let Some(r) = done_queue.pop() {
        for &s in dag.children(r) {
            if states[&s].completed {
                continue;
            }
            // Share matching samples (only as many as still needed).
            let child_tuple = &dag.nodes()[s];
            let needed = samples.saturating_sub(states[&s].samples());
            if needed > 0 {
                let parent_points: Vec<Box<[u16]>> = states[&r]
                    .points
                    .iter()
                    .filter(|p| point_matches(p, child_tuple))
                    .take(needed)
                    .cloned()
                    .collect();
                let child = states.get_mut(&s).expect("child is in the component");
                for p in parent_points {
                    child.record(&p);
                    cost.shared_samples += 1;
                }
            }
            let child = states.get_mut(&s).expect("child is in the component");
            child.pending_parents = child.pending_parents.saturating_sub(1);
            if child.samples() >= samples {
                child.completed = true;
                done_queue.push(s);
            } else if child.pending_parents == 0 {
                // Promotion to root: tops up with its own chain.
                active.push_back(s);
            }
        }
    }
}

/// Does the full point agree with the tuple's assignments?
#[inline]
fn point_matches(point: &[u16], t: &PartialTuple) -> bool {
    t.assignments()
        .all(|asg| point[asg.attr.index()] == asg.value.0)
}

fn make_estimate(state: &NodeState) -> JointEstimate {
    let n: u32 = state.counts.iter().sum();
    let probs = if state.indexer.size() == 1 {
        vec![1.0]
    } else if n == 0 {
        // Unreachable through the public API; keep a sane fallback.
        vec![1.0 / state.counts.len() as f64; state.counts.len()]
    } else {
        state.counts.iter().map(|&c| c as f64 / n as f64).collect()
    };
    JointEstimate {
        indexer: state.indexer.clone(),
        probs,
        sample_count: n as usize,
    }
}

/// The engine implementing a [`WorkloadStrategy`] with a
/// [`GibbsConfig`]'s chain parameters.
pub fn workload_engine(
    strategy: WorkloadStrategy,
    config: &GibbsConfig,
) -> Box<dyn InferenceEngine> {
    match strategy {
        WorkloadStrategy::TupleAtATime => Box::new(GibbsSampler::from_config(config)),
        WorkloadStrategy::TupleDag => Box::new(TupleDagWorkload::from_config(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearnConfig;
    use crate::infer::batch::infer_batch;

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

    use mrsl_relation::relation::fig1_relation;

    fn run(
        m: &MrslModel,
        workload: &[PartialTuple],
        burn: usize,
        n: usize,
        strategy: WorkloadStrategy,
        seed: u64,
    ) -> WorkloadResult {
        let config = GibbsConfig {
            burn_in: burn,
            samples: n,
            voting: VotingConfig::best_averaged(),
        };
        let engine = workload_engine(strategy, &config);
        infer_batch(m, workload, engine.as_ref(), config.voting, seed)
    }

    /// The Fig. 3 workload: t1, t3, t5, t8, t11, t12.
    fn fig3_workload() -> Vec<PartialTuple> {
        vec![
            PartialTuple::from_options(&[Some(0), Some(0), None, None]), // t1 ⟨20,HS,?,?⟩
            PartialTuple::from_options(&[Some(0), None, Some(0), None]), // t3 ⟨20,?,50K,?⟩
            PartialTuple::from_options(&[Some(0), None, None, None]),    // t5 ⟨20,?,?,?⟩
            PartialTuple::from_options(&[None, Some(0), None, None]),    // t8 ⟨?,HS,?,?⟩
            PartialTuple::from_options(&[Some(1), Some(0), None, None]), // t11 ⟨30,HS,?,?⟩
            PartialTuple::from_options(&[Some(1), Some(2), None, None]), // t12 ⟨30,MS,?,?⟩
        ]
    }

    #[test]
    fn dag_matches_fig3_structure() {
        let dag = TupleDag::build(&fig3_workload());
        assert_eq!(dag.len(), 6);
        // Roots: t5, t8 and t12 (t12's portion ⟨30, MS⟩ is subsumed by
        // neither t5 ⟨20⟩ nor t8 ⟨HS⟩).
        let mut roots: Vec<usize> = dag.roots().to_vec();
        roots.sort_unstable();
        assert_eq!(roots, vec![2, 3, 5]);
        // t1 has parents t5 and t8; t3 only t5; t11 only t8.
        let mut t1_parents = dag.parents(0).to_vec();
        t1_parents.sort_unstable();
        assert_eq!(t1_parents, vec![2, 3]);
        assert_eq!(dag.parents(1), &[2]);
        assert_eq!(dag.parents(4), &[3]);
    }

    #[test]
    fn fig3_components_split_t12_from_the_rest() {
        let dag = TupleDag::build(&fig3_workload());
        let components = dag.components();
        assert_eq!(components.len(), 2);
        assert_eq!(components[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(components[1], vec![5]);
    }

    #[test]
    fn dag_keeps_only_cover_edges() {
        // a ⟨?,?,?,?⟩ subsumes b ⟨20,?,?,?⟩ subsumes c ⟨20,HS,?,?⟩;
        // a → c must not be a direct edge.
        let a = PartialTuple::all_missing(4);
        let b = PartialTuple::from_options(&[Some(0), None, None, None]);
        let c = PartialTuple::from_options(&[Some(0), Some(0), None, None]);
        let dag = TupleDag::build(&[a, b, c]);
        assert_eq!(dag.roots(), &[0]);
        assert_eq!(dag.children(0), &[1]);
        assert_eq!(dag.children(1), &[2]);
        assert_eq!(dag.parents(2), &[1]);
        assert_eq!(dag.components(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn dag_deduplicates_workload() {
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        let dag = TupleDag::build(&[t.clone(), t.clone(), t]);
        assert_eq!(dag.len(), 1);
        assert_eq!(dag.workload_nodes(), &[0, 0, 0]);
    }

    #[test]
    fn both_strategies_yield_full_sample_counts() {
        let m = model();
        let workload = fig3_workload();
        for strategy in [WorkloadStrategy::TupleAtATime, WorkloadStrategy::TupleDag] {
            let res = run(&m, &workload, 20, 100, strategy, 3);
            assert_eq!(res.estimates.len(), workload.len());
            for (i, est) in res.estimates.iter().enumerate() {
                assert_eq!(est.sample_count, 100, "tuple {i} under {strategy:?}");
                assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dag_reduces_sampling_cost() {
        let m = model();
        let workload = fig3_workload();
        let base = run(&m, &workload, 50, 200, WorkloadStrategy::TupleAtATime, 3);
        let dag = run(&m, &workload, 50, 200, WorkloadStrategy::TupleDag, 3);
        assert!(
            dag.cost.total_draws < base.cost.total_draws,
            "dag {} vs baseline {}",
            dag.cost.total_draws,
            base.cost.total_draws
        );
        assert!(dag.cost.shared_samples > 0);
        assert!(dag.cost.chains < base.cost.chains);
        // Baseline cost is exactly |distinct| × (B + N).
        assert_eq!(base.cost.total_draws, 6 * 250);
        assert_eq!(base.cost.burn_in_draws, 6 * 50);
    }

    #[test]
    fn shared_samples_respect_subsumee_assignments() {
        // After sampling, estimates for t1 ⟨20,HS,?,?⟩ must only weigh
        // combinations over {inc, nw} — its indexer has 4 cells.
        let m = model();
        let res = run(&m, &fig3_workload(), 20, 150, WorkloadStrategy::TupleDag, 9);
        assert_eq!(res.estimates[0].indexer.size(), 4);
        assert_eq!(res.estimates[2].indexer.size(), 12); // t5: edu×inc×nw
    }

    #[test]
    fn duplicate_tuples_share_one_estimate() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), None, Some(0), None]);
        let res = run(&m, &[t.clone(), t], 10, 80, WorkloadStrategy::TupleDag, 1);
        assert_eq!(res.estimates[0].probs, res.estimates[1].probs);
        // Only one chain ran.
        assert_eq!(res.cost.chains, 1);
    }

    #[test]
    fn empty_workload_is_fine() {
        let m = model();
        let res = run(&m, &[], 10, 50, WorkloadStrategy::TupleDag, 0);
        assert!(res.estimates.is_empty());
        assert_eq!(res.cost.total_draws, 0);
    }

    #[test]
    fn complete_tuples_get_trivial_estimates() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), Some(0), Some(0), Some(0)]);
        let res = run(&m, &[t], 10, 50, WorkloadStrategy::TupleDag, 0);
        assert_eq!(res.estimates[0].probs, vec![1.0]);
        assert_eq!(res.cost.chains, 0);
    }

    #[test]
    fn strategies_agree_on_estimates_within_tolerance() {
        // "We compared the accuracy of tuple-DAG to tuple-at-a-time, and,
        // as expected, found no difference" — estimates must agree up to
        // Monte-Carlo noise.
        let m = model();
        let workload = vec![
            PartialTuple::from_options(&[Some(0), Some(0), None, None]),
            PartialTuple::from_options(&[Some(0), None, None, None]),
        ];
        let a = run(&m, &workload, 100, 3000, WorkloadStrategy::TupleAtATime, 5);
        let b = run(&m, &workload, 100, 3000, WorkloadStrategy::TupleDag, 5);
        for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
            for (pa, pb) in ea.probs.iter().zip(&eb.probs) {
                assert!((pa - pb).abs() < 0.06, "{pa} vs {pb}");
            }
        }
    }
}
