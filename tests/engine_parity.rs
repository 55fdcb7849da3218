//! Engine-layer guarantees across the refactored inference stack:
//!
//! * the `GibbsSampler` engine reproduces an independent reimplementation
//!   of the pre-refactor Gibbs sampler bit-for-bit under a fixed seed (the
//!   refactor changed the plumbing, not the chain);
//! * the `IndependentBaseline` measurably diverges from Gibbs on a
//!   correlated two-attribute tuple (the paper's §V ablation claim);
//! * `infer_batch` and `derive_probabilistic_db` yield bit-identical
//!   results regardless of the executor's thread count.

use mrsl_repro::core::{
    derive_probabilistic_db, infer_batch, DeriveConfig, GibbsConfig, GibbsSampler,
    IndependentBaseline, InferContext, InferenceEngine, LearnConfig, MrslModel, TupleDagWorkload,
    VotingConfig,
};
use mrsl_repro::relation::relation::fig1_relation;
use mrsl_repro::relation::{AttrId, JointIndexer, PartialTuple, ValueId};
use mrsl_repro::util::{derive_seed, seeded_rng};
use rand::Rng;

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

fn gibbs_config(burn_in: usize, samples: usize) -> GibbsConfig {
    GibbsConfig {
        burn_in,
        samples,
        voting: VotingConfig::best_averaged(),
    }
}

/// An independent reimplementation of the pre-refactor tuple-at-a-time
/// Gibbs sampler, built only from public primitives (per-attribute
/// voting, no CPD cache, no engine plumbing). It proves the engine
/// preserved the chain (seed expansion, uniform init, ordered sweeps,
/// categorical draws) and that the context's CPD cache is
/// value-transparent.
fn reference_infer_joint(
    m: &MrslModel,
    t: &PartialTuple,
    burn_in: usize,
    samples: usize,
    voting: VotingConfig,
    seed: u64,
) -> Vec<f64> {
    let schema = m.schema();
    let mut rng = seeded_rng(derive_seed(seed, &[0x61bb5]));
    let mut state = vec![0u16; schema.attr_count()];
    for asg in t.assignments() {
        state[asg.attr.index()] = asg.value.0;
    }
    let missing: Vec<AttrId> = t.missing_mask().iter().collect();
    for &a in &missing {
        state[a.index()] = rng.gen_range(0..schema.cardinality(a)) as u16;
    }
    let mut ctx = InferContext::new(m, voting, 0);
    let mut sweep = |state: &mut Vec<u16>, rng: &mut rand::rngs::StdRng| {
        for &attr in &missing {
            // Voting evidence: every attribute except the one resampled,
            // clamped to the current chain state.
            let mut slots: Vec<Option<u16>> = state.iter().map(|&v| Some(v)).collect();
            slots[attr.index()] = None;
            let evidence = PartialTuple::from_options(&slots);
            let cpd = ctx.vote_single(&evidence, attr);
            let mut u: f64 = rng.gen::<f64>();
            let mut chosen = cpd.iter().rposition(|&w| w > 0.0).expect("positive CPD") as u16;
            for (i, &w) in cpd.iter().enumerate() {
                if u < w {
                    chosen = i as u16;
                    break;
                }
                u -= w;
            }
            state[attr.index()] = chosen;
        }
    };
    for _ in 0..burn_in {
        sweep(&mut state, &mut rng);
    }
    let indexer = JointIndexer::new(schema, t.missing_mask());
    let mut counts = vec![0u32; indexer.size()];
    for _ in 0..samples {
        sweep(&mut state, &mut rng);
        let combo: Vec<ValueId> = indexer
            .attrs()
            .iter()
            .map(|a| ValueId(state[a.index()]))
            .collect();
        counts[indexer.index_of(&combo)] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / samples as f64)
        .collect()
}

#[test]
fn gibbs_engine_reproduces_legacy_sampler_exactly() {
    let m = model();
    let config = gibbs_config(60, 800);
    // Every incomplete-tuple shape of Fig. 1, several seeds.
    let tuples = [
        PartialTuple::from_options(&[Some(0), Some(0), None, None]),
        PartialTuple::from_options(&[Some(0), None, Some(0), None]),
        PartialTuple::from_options(&[Some(0), None, None, None]),
        PartialTuple::from_options(&[None, Some(0), None, None]),
        PartialTuple::from_options(&[None, None, None, None]),
    ];
    for (i, t) in tuples.iter().enumerate() {
        for seed in [0u64, 7, 0xdead_beef] {
            let reference =
                reference_infer_joint(&m, t, config.burn_in, config.samples, config.voting, seed);
            let mut ctx = InferContext::new(&m, config.voting, seed);
            let engine = GibbsSampler::from_config(&config).estimate(&mut ctx, t);
            assert_eq!(reference, engine.probs, "tuple {i}, seed {seed}");
            assert_eq!(engine.sample_count, config.samples);
        }
    }
}

#[test]
fn independent_baseline_diverges_from_gibbs_on_correlated_tuple() {
    // Fig. 1's Rc strongly correlates inc and nw given ⟨20, HS⟩ (§V's
    // motivating example): the Gibbs joint captures that, the product
    // baseline cannot. Total variation between the two must be visible.
    let m = model();
    let t = PartialTuple::from_options(&[Some(0), Some(0), None, None]);
    let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 11);
    let gibbs = GibbsSampler {
        burn_in: 300,
        samples: 20_000,
    }
    .estimate(&mut ctx, &t);
    let independent = IndependentBaseline.estimate(&mut ctx, &t);
    assert_eq!(gibbs.probs.len(), independent.probs.len());
    let total_variation: f64 = gibbs
        .probs
        .iter()
        .zip(&independent.probs)
        .map(|(g, i)| (g - i).abs())
        .sum::<f64>()
        / 2.0;
    assert!(
        total_variation > 0.05,
        "expected a visible gap on a correlated tuple, got TV {total_variation}"
    );
    // Sanity: both are distributions over the same 2×2 joint.
    assert!((gibbs.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!((independent.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn infer_batch_is_bit_identical_across_thread_counts() {
    let m = model();
    let workload: Vec<PartialTuple> = fig1_relation().incomplete_part().to_vec();
    let config = gibbs_config(50, 400);
    let engines: [&dyn InferenceEngine; 2] = [
        &GibbsSampler::from_config(&config),
        &TupleDagWorkload::from_config(&config),
    ];
    for engine in engines {
        let name = engine.name();
        let reference = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool")
            .install(|| infer_batch(&m, &workload, engine, config.voting, 5));
        for threads in [2, 4, 16] {
            let run = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| infer_batch(&m, &workload, engine, config.voting, 5));
            assert_eq!(reference.estimates.len(), run.estimates.len());
            for (a, b) in reference.estimates.iter().zip(&run.estimates) {
                assert_eq!(a.probs, b.probs, "{name} with {threads} threads");
            }
            assert_eq!(
                reference.cost.total_draws, run.cost.total_draws,
                "{name} with {threads} threads"
            );
            assert_eq!(reference.cost.shared_samples, run.cost.shared_samples);
        }
    }
}

#[test]
fn derivation_is_bit_identical_across_thread_counts() {
    let rel = fig1_relation();
    let config = DeriveConfig {
        learn: LearnConfig {
            support_threshold: 0.01,
            max_itemsets: 1000,
        },
        gibbs: gibbs_config(30, 300),
        ..DeriveConfig::default()
    };
    let reference = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(|| derive_probabilistic_db(&rel, &config));
    for threads in [2, 8] {
        let run = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(|| derive_probabilistic_db(&rel, &config));
        for (a, b) in reference.estimates.iter().zip(&run.estimates) {
            assert_eq!(a.probs, b.probs, "{threads} threads");
        }
        assert_eq!(
            reference.db.alternative_count(),
            run.db.alternative_count(),
            "{threads} threads"
        );
    }
}

#[test]
fn singleton_dag_engine_matches_its_batch_path() {
    // TupleDagWorkload::estimate is defined as the singleton workload; the
    // two entry points must agree exactly.
    let m = model();
    let t = PartialTuple::from_options(&[Some(0), None, None, None]);
    let engine = TupleDagWorkload {
        burn_in: 25,
        samples: 250,
    };
    let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 9);
    let single = engine.estimate(&mut ctx, &t);
    let batch = infer_batch(
        &m,
        std::slice::from_ref(&t),
        &engine,
        VotingConfig::best_averaged(),
        9,
    );
    assert_eq!(single.probs, batch.estimates[0].probs);
}
