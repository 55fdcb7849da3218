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
//! **Counter round-robin.** The paper's schedule visits the active roots
//! in turn and draws one sweep per visit. Here a visit only counts the
//! draw it owes; when a node's recorded plus owed samples reach `N`, its
//! chain is created (seed `derive_seed(seed, [global node])`), burnt in
//! and run for all owed sweeps in one tight loop, and the node completes.
//! That is exactly the per-visit schedule, draw for draw, because:
//!
//! * each chain has its own RNG, so when its sweeps run does not change
//!   them;
//! * voted CPDs are pure functions of (attribute, evidence), so the
//!   context's shared CPD cache and each chain's local CPD table only
//!   decide *when* a value is computed, never what it is;
//! * an active node completes only through its own draws: a root has no
//!   parents, and a promoted node is promoted after its last parent has
//!   shared, so no share can arrive while it owes draws.
//!
//! Completions therefore happen in the same order, with the same recorded
//! points and the same shares. Each node keeps its points in one flat
//! `u16` arena, only if it has children, and only until its children have
//! been served: a node completes once and shares in that one pass.
//!
//! Sample sharing only ever crosses cover edges, so the *connected
//! components* of the DAG are independent sampling problems. They are the
//! units [`crate::infer::engine::TupleDagWorkload`] hands the batch
//! executor ([`crate::infer::batch`]), one context each, while the
//! schedule inside each component stays sequential. Chains run through
//! `gibbs::run_chain` and count their own draws; shares are counted on
//! the same context. Chain seeds derive from global node indices, making
//! results bit-identical for any thread count.

use crate::infer::batch::{dedup, SamplingCost};
use crate::infer::engine::InferContext;
use crate::infer::gibbs::{run_chain, JointEstimate};
use mrsl_relation::{JointIndexer, PartialTuple};
use mrsl_util::derive_seed;
use std::collections::VecDeque;

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
        let (distinct, workload_nodes) = dedup(workload);
        let nodes: Vec<PartialTuple> = distinct.into_iter().cloned().collect();

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

/// Per-node sampling state of one component, indexed by the node's
/// position in the component.
struct NodeState {
    indexer: JointIndexer,
    counts: Vec<u32>,
    /// Recorded samples, own draws and shared ones alike.
    samples: usize,
    /// Recorded full-arity points, one row after another. Kept only for a
    /// node with children, and only until it has shared them.
    points: Vec<u16>,
    keeps_points: bool,
    completed: bool,
    pending_parents: usize,
    /// Round-robin visits not yet drawn: one sweep each.
    owed: usize,
}

impl NodeState {
    /// Records `point`, whose joint index over this node's missing
    /// attributes is `index`.
    fn record(&mut self, index: usize, point: &[u16]) {
        self.counts[index] += 1;
        self.samples += 1;
        if self.keeps_points {
            self.points.extend_from_slice(point);
        }
    }
}

/// The round-robin root schedule of Algorithm 3, restricted to one
/// connected component (`nodes`, ascending), on `ctx`'s model, voting and
/// warm CPD cache. Chain seeds derive from `seed` and each node's global
/// index. Returns the estimates of the component's nodes, in `nodes`
/// order; the chains and shares are counted on `ctx`.
///
/// The round-robin runs on counters: a visit owes the node one draw. When
/// a node's samples plus owed draws reach `N`, its chain is created,
/// burnt in and run for all owed sweeps in one loop, and the node then
/// completes and shares exactly as if each visit had drawn in turn (see
/// the module documentation for why the two are the same).
pub(crate) fn sample_component(
    ctx: &mut InferContext<'_>,
    burn_in: usize,
    samples: usize,
    dag: &TupleDag,
    nodes: &[usize],
    seed: u64,
) -> Vec<JointEstimate> {
    let schema = ctx.model().schema();
    let mut states: Vec<NodeState> = nodes
        .iter()
        .map(|&i| {
            let tuple = &dag.nodes()[i];
            let indexer = JointIndexer::new(schema, tuple.missing_mask());
            NodeState {
                counts: vec![0u32; indexer.size()],
                indexer,
                samples: 0,
                points: Vec::new(),
                keeps_points: !dag.children(i).is_empty(),
                completed: tuple.is_complete(),
                pending_parents: dag.parents(i).len(),
                owed: 0,
            }
        })
        .collect();

    // Roots first (ascending, matching the global schedule's visit order);
    // trivially-completed nodes propagate before any sampling happens.
    let mut active: VecDeque<usize> = (0..nodes.len())
        .filter(|&k| dag.parents(nodes[k]).is_empty() && !states[k].completed)
        .collect();
    let mut done_queue: Vec<usize> = (0..nodes.len()).filter(|&k| states[k].completed).collect();
    propagate_completions(
        dag,
        nodes,
        &mut states,
        samples,
        ctx.cost_mut(),
        &mut active,
        &mut done_queue,
    );

    while let Some(r) = active.pop_front() {
        let state = &mut states[r];
        debug_assert!(
            !state.completed,
            "only its own draws complete an active node"
        );
        // Line 9: this visit owes one recorded sample.
        state.owed += 1;
        if state.samples + state.owed < samples {
            active.push_back(r);
            continue;
        }
        // Lines 6–9 for every visit at once: burn-in, then the owed draws.
        let node = nodes[r];
        let owed = std::mem::take(&mut state.owed);
        // The chain's joint index is over this node's missing attributes,
        // so an own draw is recorded without re-indexing the state.
        let (tuple, seed) = (&dag.nodes()[node], derive_seed(seed, &[node as u64]));
        run_chain(ctx, tuple, seed, burn_in, owed, |joint, point| {
            state.record(joint, point)
        });
        // Lines 10–21: completion and sample sharing.
        state.completed = true;
        done_queue.push(r);
        propagate_completions(
            dag,
            nodes,
            &mut states,
            samples,
            ctx.cost_mut(),
            &mut active,
            &mut done_queue,
        );
    }

    states
        .into_iter()
        .map(|state| JointEstimate::from_counts(state.indexer, &state.counts))
        .collect()
}

/// `ShareSamples` + root promotion: drains the completion worklist,
/// sharing each completed node's points with its children. A node
/// completes once, so this is the only pass that reads its points; the
/// arena is dropped at the end of it.
fn propagate_completions(
    dag: &TupleDag,
    nodes: &[usize],
    states: &mut [NodeState],
    samples: usize,
    cost: &mut SamplingCost,
    active: &mut VecDeque<usize>,
    done_queue: &mut Vec<usize>,
) {
    while let Some(r) = done_queue.pop() {
        let points = std::mem::take(&mut states[r].points);
        let parent_tuple = &dag.nodes()[nodes[r]];
        for &child in dag.children(nodes[r]) {
            let s = nodes
                .binary_search(&child)
                .expect("child is in the component");
            let state = &mut states[s];
            if state.completed {
                continue;
            }
            // Share matching samples (only as many as still needed). Every
            // point agrees with the parent's assignments, which the child
            // shares, so only the child's further assignments are checked.
            let child_tuple = &dag.nodes()[child];
            let further: Vec<(usize, u16)> = child_tuple
                .mask()
                .difference(parent_tuple.mask())
                .iter()
                .map(|a| (a.index(), child_tuple.value_unchecked(a).0))
                .collect();
            let needed = samples.saturating_sub(state.samples);
            for point in points
                .chunks_exact(parent_tuple.arity())
                .filter(|p| further.iter().all(|&(a, v)| p[a] == v))
                .take(needed)
            {
                state.record(state.indexer.index_of_state(point), point);
                cost.shared_samples += 1;
            }
            state.pending_parents = state.pending_parents.saturating_sub(1);
            if state.samples >= samples {
                state.completed = true;
                done_queue.push(s);
            } else if state.pending_parents == 0 {
                // Promotion to root: tops up with its own chain.
                active.push_back(s);
            }
        }
    }
}

/// The per-visit round-robin of Algorithm 3 exactly as the paper states
/// it: one sweep per visit, every chain kept alive between visits, every
/// point boxed and kept. The tests hold the counter scheduler to it bit
/// for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::config::VotingConfig;
    use crate::infer::batch::WorkloadResult;
    use crate::infer::gibbs::GibbsChain;
    use crate::model::MrslModel;
    use mrsl_util::FxHashMap;

    struct NodeState {
        indexer: JointIndexer,
        counts: Vec<u32>,
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

    /// Does the full point agree with the tuple's assignments?
    fn point_matches(point: &[u16], t: &PartialTuple) -> bool {
        t.assignments()
            .all(|asg| point[asg.attr.index()] == asg.value.0)
    }

    /// Algorithm 3 over a workload, one component after another.
    pub(crate) fn run_workload_dag(
        model: &MrslModel,
        voting: VotingConfig,
        burn_in: usize,
        samples: usize,
        workload: &[PartialTuple],
        seed: u64,
    ) -> WorkloadResult {
        let dag = TupleDag::build(workload);
        let mut node_estimates: Vec<Option<JointEstimate>> = vec![None; dag.len()];
        let mut cost = SamplingCost::default();
        for nodes in dag.components() {
            let (estimates, component_cost) =
                sample_component(model, voting, burn_in, samples, &dag, &nodes, seed);
            cost.absorb(&component_cost);
            for (node, est) in estimates {
                node_estimates[node] = Some(est);
            }
        }
        let estimates = dag
            .workload_nodes()
            .iter()
            .map(|&node| node_estimates[node].clone().expect("sampled"))
            .collect();
        WorkloadResult { estimates, cost }
    }

    fn sample_component(
        model: &MrslModel,
        voting: VotingConfig,
        burn_in: usize,
        samples: usize,
        dag: &TupleDag,
        nodes: &[usize],
        seed: u64,
    ) -> (Vec<(usize, JointEstimate)>, SamplingCost) {
        let mut ctx = InferContext::new(model, voting);
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
                let mut chain =
                    GibbsChain::new(model, &dag.nodes()[r], derive_seed(seed, &[r as u64]));
                for _ in 0..burn_in {
                    chain.sweep(&mut ctx);
                }
                cost.burn_in_draws += burn_in;
                cost.total_draws += burn_in;
                chain
            });
            let point = chain.sweep(&mut ctx).to_vec().into_boxed_slice();
            cost.total_draws += 1;
            let state = states.get_mut(&r).expect("active node is in the component");
            state.record(&point);
            if state.samples() >= samples {
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
            .map(|&i| {
                (
                    i,
                    JointEstimate::from_counts(states[&i].indexer.clone(), &states[&i].counts),
                )
            })
            .collect();
        (estimates, cost)
    }

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
                    active.push_back(s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LearnConfig, VotingConfig};
    use crate::infer::batch::{infer_batch, WorkloadResult};
    use crate::infer::engine::{GibbsSampler, InferenceEngine, TupleDagWorkload};
    use crate::model::MrslModel;

    fn model() -> MrslModel {
        let rel = fig1_relation();
        MrslModel::learn(rel.schema(), rel.complete_part(), &LearnConfig::default())
    }

    use mrsl_relation::relation::fig1_relation;

    /// The paper's tuple-at-a-time baseline: one chain per distinct tuple.
    fn baseline(burn_in: usize, samples: usize) -> GibbsSampler {
        GibbsSampler { burn_in, samples }
    }

    /// Algorithm 3.
    fn dag(burn_in: usize, samples: usize) -> TupleDagWorkload {
        TupleDagWorkload { burn_in, samples }
    }

    fn run(
        m: &MrslModel,
        workload: &[PartialTuple],
        engine: &dyn InferenceEngine,
        seed: u64,
    ) -> WorkloadResult {
        infer_batch(m, workload, engine, VotingConfig::best_averaged(), seed)
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
        let engines: [&dyn InferenceEngine; 2] = [&baseline(20, 100), &dag(20, 100)];
        for engine in engines {
            let res = run(&m, &workload, engine, 3);
            assert_eq!(res.estimates.len(), workload.len());
            for (i, est) in res.estimates.iter().enumerate() {
                assert_eq!(est.sample_count, 100, "tuple {i} under {}", engine.name());
                assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dag_reduces_sampling_cost() {
        let m = model();
        let workload = fig3_workload();
        let base = run(&m, &workload, &baseline(50, 200), 3);
        let dag = run(&m, &workload, &dag(50, 200), 3);
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
        let res = run(&m, &fig3_workload(), &dag(20, 150), 9);
        assert_eq!(res.estimates[0].indexer.size(), 4);
        assert_eq!(res.estimates[2].indexer.size(), 12); // t5: edu×inc×nw
    }

    #[test]
    fn duplicate_tuples_share_one_estimate() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), None, Some(0), None]);
        let res = run(&m, &[t.clone(), t], &dag(10, 80), 1);
        assert_eq!(res.estimates[0].probs, res.estimates[1].probs);
        // Only one chain ran.
        assert_eq!(res.cost.chains, 1);
    }

    #[test]
    fn empty_workload_is_fine() {
        let m = model();
        let res = run(&m, &[], &dag(10, 50), 0);
        assert!(res.estimates.is_empty());
        assert_eq!(res.cost.total_draws, 0);
    }

    #[test]
    fn complete_tuples_get_trivial_estimates() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), Some(0), Some(0), Some(0)]);
        let res = run(&m, &[t], &dag(10, 50), 0);
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
        let a = run(&m, &workload, &baseline(100, 3000), 5);
        let b = run(&m, &workload, &dag(100, 3000), 5);
        for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
            for (pa, pb) in ea.probs.iter().zip(&eb.probs) {
                assert!((pa - pb).abs() < 0.06, "{pa} vs {pb}");
            }
        }
    }

    /// Every estimate's bits and sample count, then every cost counter
    /// except the wall-clock time.
    type Fingerprint = (Vec<(Vec<u64>, usize)>, [usize; 4]);

    fn fingerprint(result: &WorkloadResult) -> Fingerprint {
        let estimates = result
            .estimates
            .iter()
            .map(|e| {
                (
                    e.probs.iter().map(|p| p.to_bits()).collect(),
                    e.sample_count,
                )
            })
            .collect();
        let c = &result.cost;
        let counters = [c.total_draws, c.burn_in_draws, c.shared_samples, c.chains];
        (estimates, counters)
    }

    /// The counter scheduler against the per-visit reference, on one
    /// thread and on four.
    fn assert_matches_reference(
        m: &MrslModel,
        workload: &[PartialTuple],
        burn: usize,
        n: usize,
        seed: u64,
    ) {
        let voting = VotingConfig::best_averaged();
        let expected = fingerprint(&reference::run_workload_dag(
            m, voting, burn, n, workload, seed,
        ));
        for threads in [1, 4] {
            let got = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| dag(burn, n).estimate_batch(m, voting, workload, seed));
            assert_eq!(fingerprint(&got), expected, "{threads} threads");
        }
    }

    /// BN8 at the scale of the Fig. 11 unit test: 3,000 training points,
    /// 150 tuples with one to three hidden attributes.
    #[test]
    fn bn8_workload_matches_reference() {
        use mrsl_bayesnet::{catalog, sampler, BayesianNetwork};
        use rand::seq::SliceRandom;
        use rand::Rng;

        let topology = catalog::by_name("BN8").expect("BN8").topology;
        let bn = BayesianNetwork::instantiate(&topology, 0.5, 8);
        let train = sampler::sample_dataset(&bn, 3_000, 1);
        let m = MrslModel::learn(
            bn.schema(),
            &train,
            &LearnConfig {
                support_threshold: 0.005,
                max_itemsets: 1000,
            },
        );
        let arity = bn.schema().attr_count();
        let mut rng = mrsl_util::seeded_rng(5);
        let workload: Vec<PartialTuple> = sampler::sample_dataset(&bn, 150, 2)
            .iter()
            .map(|p| {
                let mut attrs: Vec<u16> = (0..arity as u16).collect();
                attrs.shuffle(&mut rng);
                let hidden = rng.gen_range(1..=3);
                attrs[..hidden].iter().fold(p.to_partial(), |t, &a| {
                    t.without_attr(mrsl_relation::AttrId(a))
                })
            })
            .collect();
        let res = run(&m, &workload, &dag(50, 200), 1);
        assert!(res.cost.shared_samples > 0, "the workload shares samples");
        assert_matches_reference(&m, &workload, 50, 200, 1);
    }

    mod properties {
        use super::*;
        use mrsl_relation::{CompleteTuple, Schema, SchemaBuilder};
        use proptest::prelude::*;
        use std::sync::Arc;

        /// A random small schema (2–4 attributes of cardinality 2–3), 10–30
        /// complete points to learn from, and a workload of up to 12
        /// partial tuples over it.
        fn arb_case() -> impl Strategy<Value = (Arc<Schema>, Vec<CompleteTuple>, Vec<PartialTuple>)>
        {
            prop::collection::vec(2u16..=3, 2..=4).prop_flat_map(|cards| {
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
                    prop::collection::vec(
                        partial.prop_map(|opts| PartialTuple::from_options(&opts)),
                        0..12,
                    ),
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The counter scheduler reproduces the per-visit reference
            /// bit for bit on random workloads, burn-ins and sample sizes.
            #[test]
            fn counter_schedule_matches_reference(
                (schema, points, workload) in arb_case(),
                burn in 0usize..20,
                n in 0usize..60,
                seed in 0u64..1_000,
            ) {
                let m = MrslModel::learn(
                    &schema,
                    &points,
                    &LearnConfig { support_threshold: 0.05, max_itemsets: 200 },
                );
                assert_matches_reference(&m, &workload, burn, n, seed);
            }
        }
    }
}
