//! Statistical recovery tests: the MRSL ensemble must converge to the
//! generating network's conditionals as data grows (the premise behind the
//! paper's Table II / Fig. 5 results).

use mrsl_repro::bayesnet::builders::{chain, crown, independent};
use mrsl_repro::bayesnet::{conditional, BayesianNetwork};
use mrsl_repro::core::{InferContext, LearnConfig, MrslModel, VotingConfig};
use mrsl_repro::eval::{kl_divergence, total_variation};
use mrsl_repro::relation::{AttrId, AttrMask, PartialTuple};

fn learn(bn: &BayesianNetwork, n: usize, theta: f64, seed: u64) -> MrslModel {
    let data = mrsl_repro::bayesnet::sampler::sample_dataset(bn, n, seed);
    MrslModel::learn(
        bn.schema(),
        &data,
        &LearnConfig {
            support_threshold: theta,
            max_itemsets: 1000,
        },
    )
}

#[test]
fn root_meta_rule_converges_to_marginal() {
    let spec = crown("crown", &[2, 3, 2, 3]);
    let bn = BayesianNetwork::instantiate(&spec, 0.8, 5);
    let model = learn(&bn, 30_000, 0.001, 1);
    for attr in bn.schema().attr_ids() {
        let mrsl = model.mrsl(attr);
        let root_cpd = mrsl.rule(mrsl.root()).cpd();
        let truth = bn.marginal(attr);
        let tv = total_variation(root_cpd, &truth);
        assert!(tv < 0.02, "attr {attr:?}: TV {tv}");
    }
}

#[test]
fn conditional_estimates_converge_on_chain() {
    // On a chain, P(x1 | x0, x2) is the textbook conditional; the ensemble
    // with full evidence must approach it.
    let spec = chain("chain", &[2, 3, 2]);
    let bn = BayesianNetwork::instantiate(&spec, 0.7, 9);
    let model = learn(&bn, 40_000, 0.001, 2);
    let mut worst: f64 = 0.0;
    for x0 in 0..2u16 {
        for x2 in 0..2u16 {
            let t = PartialTuple::from_options(&[Some(x0), None, Some(x2)]);
            let Some(truth) = conditional(&bn, AttrMask::single(AttrId(1)), &t) else {
                continue;
            };
            let est =
                InferContext::new(&model, VotingConfig::best_averaged()).vote_single(&t, AttrId(1));
            worst = worst.max(kl_divergence(&truth, &est));
        }
    }
    assert!(worst < 0.05, "worst-case KL {worst}");
}

#[test]
fn independent_network_estimates_ignore_irrelevant_evidence() {
    // For independent attributes the target's marginal is the truth no
    // matter the evidence; the ensemble should stay close to it.
    let spec = independent("ind", &[3, 2, 2]);
    let bn = BayesianNetwork::instantiate(&spec, 0.6, 4);
    let model = learn(&bn, 60_000, 0.001, 7);
    let truth = bn.marginal(AttrId(0));
    for e1 in 0..2u16 {
        for e2 in 0..2u16 {
            let t = PartialTuple::from_options(&[None, Some(e1), Some(e2)]);
            let est =
                InferContext::new(&model, VotingConfig::best_averaged()).vote_single(&t, AttrId(0));
            let kl = kl_divergence(&truth, &est);
            assert!(kl < 0.05, "evidence ({e1},{e2}): KL {kl}");
        }
    }
}

#[test]
fn best_voting_beats_all_voting_at_scale() {
    // The paper's headline (Table II): with enough data the most specific
    // voters model the space more closely (lower bias).
    let spec = chain("chain", &[2, 2, 2, 2]);
    let bn = BayesianNetwork::instantiate(&spec, 0.4, 21);
    let model = learn(&bn, 50_000, 0.001, 3);
    let mut kl_best = 0.0;
    let mut kl_all = 0.0;
    let mut n = 0;
    let test = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 300, 77);
    for p in &test {
        let t = p.to_partial().without_attr(AttrId(2));
        let Some(truth) = conditional(&bn, AttrMask::single(AttrId(2)), &t) else {
            continue;
        };
        kl_best += kl_divergence(
            &truth,
            &InferContext::new(&model, VotingConfig::best_averaged()).vote_single(&t, AttrId(2)),
        );
        kl_all += kl_divergence(
            &truth,
            &InferContext::new(&model, VotingConfig::all_averaged()).vote_single(&t, AttrId(2)),
        );
        n += 1;
    }
    assert!(n > 200);
    assert!(
        kl_best < kl_all,
        "best {kl_best} should beat all {kl_all} over {n} tuples"
    );
}

#[test]
fn truncated_mining_still_yields_usable_model() {
    // Cap maxItemsets aggressively: the model shrinks but inference still
    // works and stays normalized.
    let spec = crown("crown", &[3, 3, 3, 3, 3, 3]);
    let bn = BayesianNetwork::instantiate(&spec, 0.5, 31);
    let data = mrsl_repro::bayesnet::sampler::sample_dataset(&bn, 5_000, 1);
    let full = MrslModel::learn(
        bn.schema(),
        &data,
        &LearnConfig {
            support_threshold: 0.002,
            max_itemsets: 1000,
        },
    );
    let truncated = MrslModel::learn(
        bn.schema(),
        &data,
        &LearnConfig {
            support_threshold: 0.002,
            max_itemsets: 10,
        },
    );
    assert!(truncated.size() < full.size());
    assert!(truncated.stats().mining.truncated);
    let t = PartialTuple::from_options(&[None, Some(0), Some(1), None, None, Some(2)]);
    let cpd =
        InferContext::new(&truncated, VotingConfig::best_averaged()).vote_single(&t, AttrId(0));
    assert!((cpd.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(cpd.iter().all(|&p| p > 0.0));
}
