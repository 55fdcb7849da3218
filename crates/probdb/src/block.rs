//! Blocks: distributions over mutually exclusive complete tuples.

use mrsl_relation::CompleteTuple;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One possible completion of an incomplete tuple, with its probability.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Alternative {
    /// The complete tuple.
    pub tuple: CompleteTuple,
    /// Probability of this alternative being the true completion.
    pub prob: f64,
}

/// Errors detected while building a block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockError {
    /// The block has no alternatives.
    Empty,
    /// An alternative has a non-positive or non-finite probability.
    BadProbability(f64),
    /// Probabilities sum to something far from 1.
    NotNormalized(f64),
    /// Two alternatives are the same tuple.
    DuplicateAlternative,
    /// An alternative's arity does not match the database schema.
    ///
    /// Reported by [`ProbDb::push_block`](crate::ProbDb::push_block): the
    /// column store requires every row to have exactly one value per
    /// schema attribute, so mismatches are a hard error rather than a
    /// debug assertion.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Arity of the offending alternative.
        got: usize,
    },
    /// A mass update supplied the wrong number of probabilities for the
    /// block (see [`ProbDb::set_block_masses`](crate::ProbDb::set_block_masses)).
    AlternativeCountMismatch {
        /// Number of alternatives in the block.
        expected: usize,
        /// Number of probabilities supplied.
        got: usize,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "block has no alternatives"),
            Self::BadProbability(p) => write!(f, "bad alternative probability {p}"),
            Self::NotNormalized(s) => write!(f, "block probabilities sum to {s}, expected 1"),
            Self::DuplicateAlternative => write!(f, "duplicate alternative tuple in block"),
            Self::ArityMismatch { expected, got } => {
                write!(f, "alternative has arity {got}, schema expects {expected}")
            }
            Self::AlternativeCountMismatch { expected, got } => {
                write!(
                    f,
                    "mass update has {got} probabilities, block has {expected}"
                )
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// A block (x-tuple): mutually exclusive alternatives summing to 1.
///
/// `key` identifies the source incomplete tuple the block was derived from
/// (its index within the source relation's incomplete part).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Block {
    key: usize,
    alternatives: Vec<Alternative>,
}

impl Block {
    /// Tolerance for the sum-to-1 check.
    const NORM_TOL: f64 = 1e-6;

    /// Builds a validated block.
    pub fn new(key: usize, alternatives: Vec<Alternative>) -> Result<Self, BlockError> {
        if alternatives.is_empty() {
            return Err(BlockError::Empty);
        }
        let mut sum = 0.0;
        for a in &alternatives {
            if !(a.prob > 0.0 && a.prob.is_finite()) {
                return Err(BlockError::BadProbability(a.prob));
            }
            sum += a.prob;
        }
        if (sum - 1.0).abs() > Self::NORM_TOL {
            return Err(BlockError::NotNormalized(sum));
        }
        if Self::has_duplicate(&alternatives) {
            return Err(BlockError::DuplicateAlternative);
        }
        Ok(Self { key, alternatives })
    }

    /// Do two alternatives carry the same tuple? Small blocks compare every
    /// pair without allocating; larger ones sort the rows so equal tuples
    /// are neighbours, O(k log k).
    fn has_duplicate(alternatives: &[Alternative]) -> bool {
        const PAIRWISE_MAX: usize = 16;
        if alternatives.len() <= PAIRWISE_MAX {
            return alternatives
                .iter()
                .enumerate()
                .any(|(i, a)| alternatives[i + 1..].iter().any(|b| a.tuple == b.tuple));
        }
        let mut rows: Vec<&[u16]> = alternatives.iter().map(|a| a.tuple.raw()).collect();
        rows.sort_unstable();
        rows.windows(2).any(|w| w[0] == w[1])
    }

    /// Builds a block, dropping zero-probability alternatives and
    /// renormalizing; convenient for estimates with floating-point dust.
    pub fn normalized(key: usize, alternatives: Vec<Alternative>) -> Result<Self, BlockError> {
        let mut kept: Vec<Alternative> = alternatives
            .into_iter()
            .filter(|a| a.prob > 0.0 && a.prob.is_finite())
            .collect();
        let sum: f64 = kept.iter().map(|a| a.prob).sum();
        if kept.is_empty() || sum <= 0.0 {
            return Err(BlockError::Empty);
        }
        kept.iter_mut().for_each(|a| a.prob /= sum);
        Self::new(key, kept)
    }

    /// A block from parts that passed [`Block::new`] before: a pushed
    /// block read back from its relation's columns.
    pub(crate) fn from_parts(key: usize, alternatives: Vec<Alternative>) -> Self {
        Self { key, alternatives }
    }

    /// Checks that `probs` may replace the alternative probabilities of a
    /// block of `len` alternatives: validates like [`Block::new`] — every
    /// probability positive and finite, the sum within tolerance of 1 —
    /// and requires exactly one probability per alternative.
    pub(crate) fn check_probs(len: usize, probs: &[f64]) -> Result<(), BlockError> {
        if probs.len() != len {
            return Err(BlockError::AlternativeCountMismatch {
                expected: len,
                got: probs.len(),
            });
        }
        let mut sum = 0.0;
        for &p in probs {
            if !(p > 0.0 && p.is_finite()) {
                return Err(BlockError::BadProbability(p));
            }
            sum += p;
        }
        if (sum - 1.0).abs() > Self::NORM_TOL {
            return Err(BlockError::NotNormalized(sum));
        }
        Ok(())
    }

    /// The source incomplete-tuple key.
    pub fn key(&self) -> usize {
        self.key
    }

    /// The alternatives.
    pub fn alternatives(&self) -> &[Alternative] {
        &self.alternatives
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.alternatives.len()
    }

    /// Blocks are never empty; kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The most probable alternative (ties broken by first occurrence).
    pub fn most_probable(&self) -> &Alternative {
        self.alternatives
            .iter()
            .max_by(|a, b| a.prob.partial_cmp(&b.prob).expect("finite probs"))
            .expect("blocks are non-empty")
    }

    /// Probability that the block's true tuple satisfies `pred`.
    pub fn prob_satisfies(&self, pred: impl Fn(&CompleteTuple) -> bool) -> f64 {
        self.alternatives
            .iter()
            .filter(|a| pred(&a.tuple))
            .map(|a| a.prob)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn alt(values: Vec<u16>, prob: f64) -> Alternative {
        Alternative {
            tuple: CompleteTuple::from_values(values),
            prob,
        }
    }

    #[test]
    fn builds_valid_block() {
        let b = Block::new(3, vec![alt(vec![0, 0], 0.25), alt(vec![0, 1], 0.75)]).unwrap();
        assert_eq!(b.key(), 3);
        assert_eq!(b.len(), 2);
        assert_eq!(b.most_probable().tuple.raw(), &[0, 1]);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Block::new(0, vec![]).unwrap_err(), BlockError::Empty);
    }

    #[test]
    fn rejects_bad_probability() {
        let e = Block::new(0, vec![alt(vec![0], 0.0), alt(vec![1], 1.0)]).unwrap_err();
        assert!(matches!(e, BlockError::BadProbability(_)));
        let e = Block::new(0, vec![alt(vec![0], f64::NAN)]).unwrap_err();
        assert!(matches!(e, BlockError::BadProbability(_)));
    }

    #[test]
    fn rejects_unnormalized() {
        let e = Block::new(0, vec![alt(vec![0], 0.4), alt(vec![1], 0.4)]).unwrap_err();
        assert!(matches!(e, BlockError::NotNormalized(_)));
    }

    #[test]
    fn rejects_duplicates() {
        let e = Block::new(0, vec![alt(vec![0], 0.5), alt(vec![0], 0.5)]).unwrap_err();
        assert_eq!(e, BlockError::DuplicateAlternative);
    }

    /// The pairwise duplicate check, for blocks of any size.
    fn has_duplicate_pairwise(alternatives: &[Alternative]) -> bool {
        (0..alternatives.len()).any(|i| {
            ((i + 1)..alternatives.len()).any(|j| alternatives[i].tuple == alternatives[j].tuple)
        })
    }

    proptest::proptest! {
        /// Random rows (arity 1–4, values 0–2, so natural repeats are
        /// common) on both sides of the pairwise/sorted cut-over, plus an
        /// optionally planted copy of one row over another.
        #[test]
        fn duplicate_check_matches_pairwise_reference(
            rows in (1usize..=4).prop_flat_map(|arity| {
                prop::collection::vec(prop::collection::vec(0u16..3, arity), 1..40)
            }),
            plant in prop::option::of((0usize..40, 0usize..40)),
        ) {
            let mut rows = rows;
            if let Some((from, to)) = plant {
                let n = rows.len();
                rows[to % n] = rows[from % n].clone();
            }
            let p = 1.0 / rows.len() as f64;
            let alternatives: Vec<Alternative> = rows.into_iter().map(|r| alt(r, p)).collect();
            let expected = has_duplicate_pairwise(&alternatives);
            match Block::new(0, alternatives) {
                Ok(_) => prop_assert!(!expected),
                Err(e) => {
                    prop_assert_eq!(e, BlockError::DuplicateAlternative);
                    prop_assert!(expected);
                }
            }
        }
    }

    #[test]
    fn normalized_drops_zeros_and_rescales() {
        let b = Block::normalized(
            1,
            vec![alt(vec![0], 0.2), alt(vec![1], 0.0), alt(vec![2], 0.6)],
        )
        .unwrap();
        assert_eq!(b.len(), 2);
        assert!((b.alternatives()[0].prob - 0.25).abs() < 1e-12);
        assert!((b.alternatives()[1].prob - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalized_rejects_all_zero() {
        let e = Block::normalized(0, vec![alt(vec![0], 0.0)]).unwrap_err();
        assert_eq!(e, BlockError::Empty);
    }

    #[test]
    fn prob_satisfies_sums_matching() {
        let b = Block::new(
            0,
            vec![
                alt(vec![0, 0], 0.3),
                alt(vec![0, 1], 0.45),
                alt(vec![1, 1], 0.25),
            ],
        )
        .unwrap();
        let p = b.prob_satisfies(|t| t.raw()[1] == 1);
        assert!((p - 0.7).abs() < 1e-12);
        assert_eq!(b.prob_satisfies(|_| false), 0.0);
        assert!((b.prob_satisfies(|_| true) - 1.0).abs() < 1e-12);
    }
}
