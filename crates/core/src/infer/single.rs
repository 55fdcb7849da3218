//! Single-attribute voting (Algorithm 2).
//!
//! Given an incomplete tuple `t` with attribute `a` missing, the matching
//! meta-rules of `MRSL_a` vote on the CPD estimate: either all matches or
//! only the most specific ones (`vChoice`), combined position-wise by plain
//! or support-weighted averaging (`vScheme`).
//!
//! The engine wrapper is [`crate::infer::engine::SingleVoting`]; the
//! allocation-light entry point for callers that already hold a context is
//! [`crate::infer::engine::InferContext::vote_single`]. This module keeps
//! the voting core itself.

use crate::config::{VotingConfig, VotingScheme};
use crate::lattice::{MatchScratch, MetaRuleId, Mrsl};
use mrsl_relation::AttrMask;

/// Allocation-light voting core shared by the context and the Gibbs
/// sampler: matches voters against a raw evidence assignment and writes
/// the combined CPD into `out`.
pub(crate) fn vote(
    mrsl: &Mrsl,
    values: &[u16],
    evidence_mask: AttrMask,
    voting: &VotingConfig,
    scratch: &mut MatchScratch,
    out: &mut Vec<f64>,
) {
    mrsl.collect_matches(values, evidence_mask, voting.choice, scratch);
    combine(mrsl, &scratch.matches, voting.scheme, out);
}

/// Combines the voters' CPDs per the voting scheme.
fn combine(mrsl: &Mrsl, voters: &[u32], scheme: VotingScheme, out: &mut Vec<f64>) {
    let k = mrsl.cardinality();
    out.clear();
    out.resize(k, 0.0);
    debug_assert!(!voters.is_empty(), "the root always matches");
    let mut total_weight = 0.0f64;
    for &id in voters {
        let rule = mrsl.rule(MetaRuleId(id));
        let w = match scheme {
            VotingScheme::Averaged => 1.0,
            VotingScheme::Weighted => rule.weight(),
        };
        total_weight += w;
        for (acc, &p) in out.iter_mut().zip(rule.cpd()) {
            *acc += w * p;
        }
    }
    // Voters' CPDs are normalized, so dividing by the total weight
    // renormalizes; a final pass guards against floating-point drift.
    let norm: f64 = out.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    debug_assert!(total_weight > 0.0);
    out.iter_mut().for_each(|p| *p /= norm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearnConfig;
    use crate::infer::engine::InferContext;
    use crate::model::MrslModel;
    use mrsl_relation::relation::fig1_relation;
    use mrsl_relation::{AttrId, PartialTuple};

    fn model(theta: f64) -> MrslModel {
        let rel = fig1_relation();
        MrslModel::learn(
            rel.schema(),
            rel.complete_part(),
            &LearnConfig {
                support_threshold: theta,
                max_itemsets: 1000,
            },
        )
    }

    fn single(m: &MrslModel, t: &PartialTuple, attr: AttrId, voting: VotingConfig) -> Vec<f64> {
        InferContext::new(m, voting).vote_single(t, attr)
    }

    #[test]
    fn produces_positive_normalized_cpds() {
        let m = model(0.01);
        let t = PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]);
        for voting in VotingConfig::table2_order() {
            let cpd = single(&m, &t, AttrId(0), voting);
            assert_eq!(cpd.len(), 3);
            assert!((cpd.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{voting:?}");
            assert!(cpd.iter().all(|&p| p > 0.0), "{voting:?}");
        }
    }

    #[test]
    fn no_evidence_returns_root_cpd() {
        let m = model(0.01);
        let t = PartialTuple::all_missing(4);
        let cpd = single(&m, &t, AttrId(0), VotingConfig::best_averaged());
        let mrsl = m.mrsl(AttrId(0));
        let root = mrsl.rule(mrsl.root());
        for (got, want) in cpd.iter().zip(root.cpd()) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn evidence_moves_the_estimate() {
        // On Fig. 1's Rc, P(age | edu=BS) is flatter in "20" than the
        // marginal: BS co-occurs with ages 20/30/40 once, once, twice.
        let m = model(0.01);
        let marginal = single(
            &m,
            &PartialTuple::all_missing(4),
            AttrId(0),
            VotingConfig::best_averaged(),
        );
        let with_bs = single(
            &m,
            &PartialTuple::from_options(&[None, Some(1), None, None]),
            AttrId(0),
            VotingConfig::best_averaged(),
        );
        assert!(with_bs[0] < marginal[0], "{with_bs:?} vs {marginal:?}");
        // With a single best voter P(age|edu=BS), the estimate follows the
        // mined confidences 1/4, 1/4, 2/4 (before smoothing nudges).
        assert!((with_bs[2] - 0.5).abs() < 0.01, "{with_bs:?}");
    }

    #[test]
    fn voting_methods_differ_when_voters_disagree() {
        let m = model(0.01);
        let t = PartialTuple::from_options(&[None, Some(0), Some(0), Some(1)]);
        let all_avg = single(&m, &t, AttrId(0), VotingConfig::all_averaged());
        let best_avg = single(&m, &t, AttrId(0), VotingConfig::best_averaged());
        let all_w = single(&m, &t, AttrId(0), VotingConfig::all_weighted());
        // The sets of voters differ (5 vs fewer), so generally the CPDs do.
        let diff: f64 = all_avg
            .iter()
            .zip(&best_avg)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let diff_w: f64 = all_avg.iter().zip(&all_w).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6 || diff_w > 1e-6, "voting had no effect at all");
    }

    #[test]
    #[should_panic(expected = "not missing")]
    fn rejects_assigned_attribute() {
        let m = model(0.01);
        let t = PartialTuple::from_options(&[Some(0), None, None, None]);
        single(&m, &t, AttrId(0), VotingConfig::default());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn weighted_voting_respects_weights() {
        // Weighted average must lie between min and max voter CPD values
        // and lean toward the heavier voter.
        let m = model(0.01);
        let t = PartialTuple::from_options(&[None, Some(0), None, None]);
        let mrsl = m.mrsl(AttrId(0));
        let voters = mrsl.matching(&t, crate::config::VoterChoice::All);
        assert!(voters.len() >= 2);
        let weighted = single(&m, &t, AttrId(0), VotingConfig::all_weighted());
        for v in 0..3 {
            let lo = voters
                .iter()
                .map(|&id| mrsl.rule(id).cpd()[v])
                .fold(f64::INFINITY, f64::min);
            let hi = voters
                .iter()
                .map(|&id| mrsl.rule(id).cpd()[v])
                .fold(0.0, f64::max);
            assert!(weighted[v] >= lo - 1e-9 && weighted[v] <= hi + 1e-9);
        }
    }
}
