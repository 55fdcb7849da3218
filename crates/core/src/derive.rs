//! End-to-end derivation of a probabilistic database (the paper's title).
//!
//! Ties the phases together: learn the MRSL model from `Rc`, estimate `Δt`
//! for every incomplete tuple in `Ri` (single-attribute voting when one
//! value is missing, an inference engine otherwise), and emit a
//! disjoint-independent probabilistic database: the complete tuples are
//! certain, and each incomplete tuple becomes a block of mutually exclusive
//! completions weighted by `Δt`.

use crate::config::{GibbsConfig, LearnConfig, VotingConfig};
use crate::infer::batch::{infer_batch, SamplingCost, WorkloadResult};
use crate::infer::engine::{InferenceEngine, SingleVoting, TupleDagWorkload};
use crate::infer::gibbs::JointEstimate;
use crate::model::MrslModel;
use mrsl_probdb::{Alternative, Block, ProbDb};
use mrsl_relation::{CompleteTuple, PartialTuple, Relation};
use mrsl_util::Stopwatch;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Configuration of the full derivation pipeline.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeriveConfig {
    /// Learning-phase parameters (Algorithm 1).
    pub learn: LearnConfig,
    /// Chain parameters for tuples with multiple missing values, and the
    /// voting every tuple's `Δt` is computed with.
    pub gibbs: GibbsConfig,
    /// Completions with estimated probability at or below this are dropped
    /// from the emitted block (the rest renormalize). 0 keeps everything
    /// with non-zero mass.
    pub min_block_prob: f64,
    /// Master seed for the sampling phase.
    pub seed: u64,
}

/// Output of [`derive_probabilistic_db`].
#[derive(Debug)]
pub struct DeriveOutput {
    /// The derived disjoint-independent database.
    pub db: ProbDb,
    /// The learned model (reusable for further inference).
    pub model: MrslModel,
    /// Per-incomplete-tuple estimates, aligned with
    /// `relation.incomplete_part()`.
    pub estimates: Vec<JointEstimate>,
    /// Cost of the multi-attribute sampling phase.
    pub sampling_cost: SamplingCost,
    /// Wall-clock time of the whole derivation.
    pub elapsed: Duration,
}

/// Runs the full pipeline on `relation`, sampling tuples with two or more
/// missing values by Algorithm 3 ([`TupleDagWorkload`] over
/// `config.gibbs`).
pub fn derive_probabilistic_db(relation: &Relation, config: &DeriveConfig) -> DeriveOutput {
    derive_probabilistic_db_with_engine(
        relation,
        config,
        &TupleDagWorkload::from_config(&config.gibbs),
    )
}

/// [`derive_probabilistic_db`] with an explicit multi-attribute engine.
///
/// Every tuple with two or more missing values goes through `engine`;
/// single-missing tuples still use Algorithm 2 directly. This is how a
/// learned [`InferenceEngine`] — e.g. `mrsl_learn`'s weighted ensemble —
/// drives the whole derivation path. The emitted database records
/// `engine.name()` as its provenance
/// ([`ProbDb::provenance`](mrsl_probdb::ProbDb::provenance)).
pub fn derive_probabilistic_db_with_engine(
    relation: &Relation,
    config: &DeriveConfig,
    engine: &dyn InferenceEngine,
) -> DeriveOutput {
    let sw = Stopwatch::start();
    let schema = relation.schema();
    let model = MrslModel::learn(schema, relation.complete_part(), &config.learn);

    let incomplete = relation.incomplete_part();
    let routed = estimate_routed(&model, incomplete, engine, config.gibbs.voting, config.seed);

    // Assemble the probabilistic database.
    let mut db = ProbDb::new(schema.clone());
    db.set_provenance(engine.name());
    for point in relation.complete_part() {
        db.push_certain(point.clone())
            .expect("schema arity verified by the relation");
    }
    for (key, (t, est)) in incomplete.iter().zip(&routed.estimates).enumerate() {
        let block = estimate_to_block(key, t, est, config.min_block_prob);
        db.push_block(block).expect("blocks validated on build");
    }

    DeriveOutput {
        db,
        model,
        estimates: routed.estimates,
        sampling_cost: routed.cost,
        elapsed: sw.elapsed(),
    }
}

/// Estimates `Δt` for every tuple of `tuples`: the one place that decides
/// how a tuple's distribution is computed, for eager and lazy derivation
/// alike.
///
/// Tuples with at most one missing value use Algorithm 2 directly (their
/// `Δt` *is* the voted CPD); tuples with two or more go through `engine`.
/// Both partitions run on the shared rayon batch executor
/// ([`infer_batch`]) with deterministic per-tuple seeding, so the output
/// is identical for any worker-thread count. The returned estimates align
/// with `tuples`; the cost is the engine partition's.
pub(crate) fn estimate_routed(
    model: &MrslModel,
    tuples: &[PartialTuple],
    engine: &dyn InferenceEngine,
    voting: VotingConfig,
    seed: u64,
) -> WorkloadResult {
    let mut estimates: Vec<Option<JointEstimate>> = vec![None; tuples.len()];
    let mut run = |engine: &dyn InferenceEngine, multi: bool| -> SamplingCost {
        let (slots, workload): (Vec<usize>, Vec<PartialTuple>) = tuples
            .iter()
            .enumerate()
            .filter(|(_, t)| (t.missing_mask().count() > 1) == multi)
            .map(|(i, t)| (i, t.clone()))
            .unzip();
        if workload.is_empty() {
            return SamplingCost::default();
        }
        let result = infer_batch(model, &workload, engine, voting, seed);
        for (slot, est) in slots.into_iter().zip(result.estimates) {
            estimates[slot] = Some(est);
        }
        result.cost
    };
    run(&SingleVoting, false);
    let cost = run(engine, true);
    WorkloadResult {
        estimates: estimates
            .into_iter()
            .map(|e| e.expect("every tuple received an estimate"))
            .collect(),
        cost,
    }
}

/// Converts `Δt` into a block of complete alternatives.
pub(crate) fn estimate_to_block(
    key: usize,
    t: &PartialTuple,
    est: &JointEstimate,
    min_prob: f64,
) -> Block {
    let mut base = vec![0u16; t.arity()];
    for asg in t.assignments() {
        base[asg.attr.index()] = asg.value.0;
    }
    let indexer = &est.indexer;
    let completion = |idx: usize, prob: f64| {
        // Mixed-radix digits of `idx`, last attribute least significant.
        let mut values = base.clone();
        let mut rest = idx;
        for (attr, &card) in indexer.attrs().iter().zip(indexer.cards()).rev() {
            values[attr.index()] = (rest % card) as u16;
            rest /= card;
        }
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    };
    let mut alternatives: Vec<Alternative> = (est.probs.iter().enumerate())
        .filter(|&(_, &p)| p > min_prob && p > 0.0)
        .map(|(idx, &p)| completion(idx, p))
        .collect();
    if alternatives.is_empty() {
        // Pruning removed everything (extreme min_prob): fall back to the
        // most probable completion with probability 1.
        alternatives.push(completion(est.top1(), 1.0));
    }
    Block::normalized(key, alternatives).expect("non-empty alternatives")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsl_relation::relation::fig1_relation;
    use mrsl_relation::AttrId;

    fn quick_config() -> DeriveConfig {
        DeriveConfig {
            gibbs: GibbsConfig {
                burn_in: 30,
                samples: 300,
                voting: VotingConfig::best_averaged(),
            },
            ..DeriveConfig::default()
        }
    }

    #[test]
    fn derives_block_per_incomplete_tuple() {
        let rel = fig1_relation();
        let out = derive_probabilistic_db(&rel, &quick_config());
        assert_eq!(out.db.certain().len(), 8);
        assert_eq!(out.db.blocks().len(), 9);
        assert_eq!(out.estimates.len(), 9);
        // Every block's alternatives agree with its source tuple's
        // observed values.
        for (block, t) in out.db.blocks().iter().zip(rel.incomplete_part()) {
            for alt in block.alternatives() {
                assert!(t.matches_point(&alt.tuple));
            }
            let total: f64 = block.alternatives().iter().map(|a| a.prob).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_missing_tuples_use_voting_not_sampling() {
        let rel = fig1_relation();
        let out = derive_probabilistic_db(&rel, &quick_config());
        // t3 = ⟨20, ?, 50K, ?⟩ has two missing; t16 = ⟨40, HS, ?, 500K⟩ one.
        let t16_idx = rel
            .incomplete_part()
            .iter()
            .position(|t| t.missing_mask().count() == 1)
            .expect("fig1 has single-missing tuples");
        assert_eq!(out.estimates[t16_idx].sample_count, 0, "exact, not sampled");
        let multi_idx = rel
            .incomplete_part()
            .iter()
            .position(|t| t.missing_mask().count() >= 2)
            .unwrap();
        assert!(out.estimates[multi_idx].sample_count > 0);
    }

    #[test]
    fn engine_choice_reaches_only_multi_missing_tuples() {
        let (rel, config) = (fig1_relation(), quick_config());
        let dag = derive_probabilistic_db(&rel, &config);
        let baseline = crate::infer::engine::GibbsSampler::from_config(&config.gibbs);
        let gibbs = derive_probabilistic_db_with_engine(&rel, &config, &baseline);
        assert_eq!(gibbs.db.provenance(), Some("gibbs"));
        // One missing value is voted whatever the engine; only tuples
        // missing several reach it (the DAG shares samples, Gibbs cannot).
        let incomplete = rel.incomplete_part().iter();
        for (t, (a, b)) in incomplete.zip(dag.estimates.iter().zip(&gibbs.estimates)) {
            if t.missing_mask().count() <= 1 {
                assert_eq!(a.probs, b.probs);
            }
        }
        assert!(dag.sampling_cost.shared_samples > 0);
        assert_eq!(gibbs.sampling_cost.shared_samples, 0);
    }

    #[test]
    fn derived_db_answers_queries() {
        use mrsl_probdb::{Catalog, CatalogEngine, Predicate, Query};
        let rel = fig1_relation();
        let out = derive_probabilistic_db(&rel, &quick_config());
        // Expected number of profiles with age=20 lies between the certain
        // matches (4) and certain + all possibly-20 blocks.
        let pred = Predicate::any().and_eq(AttrId(0), mrsl_relation::ValueId(0));
        let mut catalog = Catalog::new();
        catalog.add("profiles", out.db).unwrap();
        let (e, _) = CatalogEngine::new(&catalog)
            .expected_count(&Query::scan("profiles").filter(pred))
            .unwrap();
        assert!((4.0..=4.0 + 9.0).contains(&e), "expected count {e}");
        // Tuples observed as age=20 contribute ~1 each: t1, t3, t5 are
        // age=20 blocks.
        assert!(e > 6.5, "expected count {e}");
    }

    #[test]
    fn min_block_prob_prunes_alternatives() {
        let rel = fig1_relation();
        let loose = derive_probabilistic_db(&rel, &quick_config());
        let mut strict_cfg = quick_config();
        strict_cfg.min_block_prob = 0.2;
        let strict = derive_probabilistic_db(&rel, &strict_cfg);
        assert!(strict.db.alternative_count() <= loose.db.alternative_count());
        for block in strict.db.blocks() {
            let total: f64 = block.alternatives().iter().map(|a| a.prob).sum();
            assert!((total - 1.0).abs() < 1e-9, "pruned blocks renormalize");
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        let rel = fig1_relation();
        let a = derive_probabilistic_db(&rel, &quick_config());
        let b = derive_probabilistic_db(&rel, &quick_config());
        for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
            assert_eq!(ea.probs, eb.probs);
        }
    }

    #[test]
    fn block_completions_follow_the_indexer() {
        use mrsl_relation::{JointIndexer, ValueId};
        let rel = fig1_relation();
        let t = PartialTuple::from_options(&[None, Some(2), None, None]);
        let indexer = JointIndexer::new(rel.schema(), t.missing_mask());
        let n = indexer.size();
        let est = JointEstimate {
            indexer: indexer.clone(),
            probs: vec![1.0 / n as f64; n],
            sample_count: 0,
        };
        let block = estimate_to_block(0, &t, &est, 0.0);
        assert_eq!(block.len(), n);
        for (idx, alt) in block.alternatives().iter().enumerate() {
            let mut expected = vec![0u16; t.arity()];
            expected[1] = 2;
            for (attr, ValueId(v)) in indexer.decode(idx) {
                expected[attr.index()] = v;
            }
            assert_eq!(alt.tuple.raw(), expected.as_slice(), "index {idx}");
        }
    }

    #[test]
    fn relation_without_incomplete_tuples_yields_certain_db() {
        let rel = fig1_relation();
        let mut complete_only = Relation::new(rel.schema().clone());
        for p in rel.complete_part() {
            complete_only.push_complete(p.clone()).unwrap();
        }
        let out = derive_probabilistic_db(&complete_only, &quick_config());
        assert_eq!(out.db.blocks().len(), 0);
        assert_eq!(out.db.world_count(), 1);
        assert_eq!(out.sampling_cost.total_draws, 0);
    }
}
