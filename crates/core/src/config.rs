//! Configuration types shared by learning and inference.

use mrsl_itemset::AprioriConfig;
use serde::{Deserialize, Serialize};

/// Learning-phase parameters of Algorithm 1.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LearnConfig {
    /// Support threshold θ for frequent itemset mining.
    pub support_threshold: f64,
    /// Level cap `maxItemsets` (paper default: 1000).
    pub max_itemsets: usize,
}

impl Default for LearnConfig {
    fn default() -> Self {
        Self {
            support_threshold: 0.01,
            max_itemsets: 1000,
        }
    }
}

impl LearnConfig {
    /// The equivalent miner configuration.
    pub fn apriori(&self) -> AprioriConfig {
        AprioriConfig {
            support_threshold: self.support_threshold,
            max_itemsets: self.max_itemsets,
        }
    }
}

/// Voter selection mechanism `vChoice` of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VoterChoice {
    /// Use every matching meta-rule.
    All,
    /// Use only the most specific matches — those that do not subsume any
    /// other match.
    Best,
}

/// Voting scheme `vScheme` of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VotingScheme {
    /// Plain position-wise average of the voters' CPDs.
    Averaged,
    /// Weighted average, with each meta-rule's support as its weight.
    Weighted,
}

/// A voter-choice / voting-scheme pair; the paper evaluates all four
/// combinations in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VotingConfig {
    /// Which meta-rules vote.
    pub choice: VoterChoice,
    /// How the votes are combined.
    pub scheme: VotingScheme,
}

impl VotingConfig {
    /// `best averaged` — the paper's most accurate setting at scale.
    pub fn best_averaged() -> Self {
        Self {
            choice: VoterChoice::Best,
            scheme: VotingScheme::Averaged,
        }
    }

    /// `best weighted`.
    pub fn best_weighted() -> Self {
        Self {
            choice: VoterChoice::Best,
            scheme: VotingScheme::Weighted,
        }
    }

    /// `all averaged`.
    pub fn all_averaged() -> Self {
        Self {
            choice: VoterChoice::All,
            scheme: VotingScheme::Averaged,
        }
    }

    /// `all weighted`.
    pub fn all_weighted() -> Self {
        Self {
            choice: VoterChoice::All,
            scheme: VotingScheme::Weighted,
        }
    }

    /// All four combinations, in the column order of Table II.
    pub fn table2_order() -> [VotingConfig; 4] {
        [
            Self::all_averaged(),
            Self::all_weighted(),
            Self::best_averaged(),
            Self::best_weighted(),
        ]
    }

    /// Short display name as used in the paper's tables ("best averaged" …).
    pub fn label(&self) -> &'static str {
        match (self.choice, self.scheme) {
            (VoterChoice::All, VotingScheme::Averaged) => "all averaged",
            (VoterChoice::All, VotingScheme::Weighted) => "all weighted",
            (VoterChoice::Best, VotingScheme::Averaged) => "best averaged",
            (VoterChoice::Best, VotingScheme::Weighted) => "best weighted",
        }
    }
}

impl Default for VotingConfig {
    fn default() -> Self {
        Self::best_averaged()
    }
}

/// Gibbs sampling parameters (§V-A): burn-in length `B` and recorded
/// samples `N`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GibbsConfig {
    /// Sweeps discarded before recording (`B`).
    pub burn_in: usize,
    /// Recorded sweeps per tuple (`N`).
    pub samples: usize,
    /// Voting configuration: Algorithm 2 on tuples missing one value, and
    /// the per-attribute CPDs inside the sampler for the rest.
    pub voting: VotingConfig,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        Self {
            burn_in: 100,
            samples: 2000,
            voting: VotingConfig::best_averaged(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_order_matches_paper_columns() {
        let labels: Vec<&str> = VotingConfig::table2_order()
            .iter()
            .map(|v| v.label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "all averaged",
                "all weighted",
                "best averaged",
                "best weighted"
            ]
        );
    }

    #[test]
    fn defaults_are_papers_best() {
        let v = VotingConfig::default();
        assert_eq!(v.choice, VoterChoice::Best);
        assert_eq!(v.scheme, VotingScheme::Averaged);
        let g = GibbsConfig::default();
        assert_eq!(g.samples, 2000); // "about 2000 sampling points per tuple"
        let l = LearnConfig::default();
        assert_eq!(l.max_itemsets, 1000);
    }

    #[test]
    fn learn_config_converts_to_apriori() {
        let l = LearnConfig {
            support_threshold: 0.05,
            max_itemsets: 42,
        };
        let a = l.apriori();
        assert_eq!(a.support_threshold, 0.05);
        assert_eq!(a.max_itemsets, 42);
    }
}
