//! Frequent itemset mining substrate (paper §III, first step of Alg. 1).
//!
//! The MRSL learning algorithm mines *frequent itemsets of attribute-value
//! pairs* from the complete part of the relation with Apriori, modified with
//! a second termination condition: stop after round `k` when either no new
//! frequent itemsets are found or more than `max_itemsets` are found at that
//! round (the paper uses `max_itemsets = 1000`).
//!
//! * [`item`] — packed `(attribute, value)` items and sorted [`Itemset`]s.
//!   An itemset here is the complete part of a tuple (footnote 1 of the
//!   paper): at most one value per attribute.
//! * [`tidset`] — transaction-id bitsets; candidate support is the popcount
//!   of the AND of the joined parents' tidsets.
//! * [`apriori`] — the level-wise miner and the [`FrequentItemsets`]
//!   collection it produces.

#![forbid(unsafe_code)]

pub mod apriori;
pub mod item;
pub mod tidset;

pub use apriori::{AprioriConfig, FrequentItemset, FrequentItemsets, ItemsetId, MiningStats};
pub use item::{Item, Itemset};
pub use tidset::TidSet;
