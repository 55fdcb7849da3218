//! Columnar block storage: dictionary-encoded columns plus row bitmaps.
//!
//! [`ProbDb`](crate::ProbDb) keeps, next to its row-oriented tuples, a
//! [`ColumnStore`]: one `u16` column per attribute for the certain tuples
//! and one per attribute for the flattened block alternatives, with the
//! alternative probabilities and block boundaries alongside. Predicate
//! evaluation then runs as tight loops over contiguous `u16` slices into a
//! [`Bitmap`] (one bit per row) instead of per-tuple pointer chasing —
//! the vectorized path behind the exact query evaluators.
//!
//! The store is append-only and kept in sync by the `ProbDb` push paths;
//! it is never serialized (it is rebuilt when a database is deserialized).

use crate::block::Block;
use mrsl_relation::AttrId;
use std::ops::Range;

/// Number of value-range shards every relation's shard index partitions
/// its leading attribute's dictionary into. Fixed (rather than derived
/// from the thread count) so shard membership — and therefore the
/// per-shard version stamps of [`crate::ProbDb`] — never depends on the
/// execution environment.
pub const SHARD_COUNT: usize = 16;

/// A fixed partition of a dictionary-encoded key domain into
/// [`SHARD_COUNT`] contiguous value ranges.
///
/// The map is pure arithmetic over the dictionary cardinality: shard `s`
/// covers the values `v` with `s·card ≤ v·SHARD_COUNT < (s+1)·card`, so
/// [`ShardMap::shard_of`] and [`ShardMap::value_range`] are exact
/// inverses and need no stored boundaries. Small domains simply leave
/// trailing shards empty. [`crate::ProbDb`] keeps one version stamp per
/// shard of its leading attribute (`AttrId(0)`), bumped by every push
/// that lands a row in the shard — the incremental-maintenance index
/// behind the plan cache's register patching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    card: u32,
}

impl ShardMap {
    /// A map over a dictionary of `card` values (clamped to at least 1).
    pub fn new(card: usize) -> Self {
        Self {
            card: (card.max(1) as u32).min(u16::MAX as u32 + 1),
        }
    }

    /// The shard holding dictionary value `v`.
    #[inline]
    pub fn shard_of(&self, v: u16) -> usize {
        ((v as usize * SHARD_COUNT) / self.card as usize).min(SHARD_COUNT - 1)
    }

    /// The half-open dictionary value range `[lo, hi)` shard `s` covers
    /// (`u32` bounds: `hi` may be one past the largest `u16`).
    #[inline]
    pub fn value_range(&self, s: usize) -> Range<u32> {
        debug_assert!(s < SHARD_COUNT);
        let card = self.card as usize;
        let lo = (s * card).div_ceil(SHARD_COUNT) as u32;
        let hi = ((s + 1) * card).div_ceil(SHARD_COUNT) as u32;
        lo..hi
    }
}

/// A dense bitset with one bit per row of a [`ColumnSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    fn word_count(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// All-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; Self::word_count(len)],
        }
    }

    /// All-one bitmap of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut bm = Self {
            len,
            words: vec![u64::MAX; Self::word_count(len)],
        };
        bm.mask_tail();
        bm
    }

    /// Builds a bitmap by testing every element of `col`, packing the
    /// results 64 rows per word.
    pub fn from_test(col: &[u16], test: impl Fn(u16) -> bool) -> Self {
        let mut words = Vec::with_capacity(Self::word_count(col.len()));
        for chunk in col.chunks(64) {
            let mut w = 0u64;
            for (j, &x) in chunk.iter().enumerate() {
                w |= (test(x) as u64) << j;
            }
            words.push(w);
        }
        Self {
            len: col.len(),
            words,
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `(word span, first-word mask, last-word mask)` of a non-empty bit
    /// range: whole `u64` words with the edge words masked down to the bits
    /// actually inside the range.
    #[inline]
    fn word_span(range: &Range<usize>) -> (Range<usize>, u64, u64) {
        let first = range.start / 64;
        let last = (range.end - 1) / 64;
        let head = u64::MAX << (range.start % 64);
        let tail = u64::MAX >> (63 - (range.end - 1) % 64);
        (first..last + 1, head, tail)
    }

    /// Number of set bits within `range` (rows of one block, typically).
    ///
    /// Runs on whole `u64` words (`count_ones` per word, masked edge
    /// words), not bit by bit.
    pub fn count_ones_in(&self, range: Range<usize>) -> usize {
        debug_assert!(range.end <= self.len);
        if range.start >= range.end {
            return 0;
        }
        let (words, head, tail) = Self::word_span(&range);
        if words.len() == 1 {
            return (self.words[words.start] & head & tail).count_ones() as usize;
        }
        let mut count = (self.words[words.start] & head).count_ones() as usize;
        for w in &self.words[words.start + 1..words.end - 1] {
            count += w.count_ones() as usize;
        }
        count + (self.words[words.end - 1] & tail).count_ones() as usize
    }

    /// True when any bit in `range` is set; same word-masked traversal as
    /// [`Bitmap::count_ones_in`], short-circuiting on the first hit.
    pub fn any_in(&self, range: Range<usize>) -> bool {
        debug_assert!(range.end <= self.len);
        if range.start >= range.end {
            return false;
        }
        let (words, head, tail) = Self::word_span(&range);
        if words.len() == 1 {
            return self.words[words.start] & head & tail != 0;
        }
        if self.words[words.start] & head != 0 {
            return true;
        }
        if self.words[words.start + 1..words.end - 1]
            .iter()
            .any(|&w| w != 0)
        {
            return true;
        }
        self.words[words.end - 1] & tail != 0
    }

    /// `self &= other`.
    pub fn and_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// `self |= other`.
    pub fn or_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// `self = !self`.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Iterates the indices of set bits, in increasing order.
    ///
    /// Walks whole `u64` words and peels set bits off with
    /// `trailing_zeros`, so all-zero words cost one test each instead of
    /// 64 (bits past `len` are always clear, so no tail masking is
    /// needed).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// A column-major table: one dictionary-encoded `u16` column per attribute.
#[derive(Debug, Clone, Default)]
pub struct ColumnSet {
    rows: usize,
    cols: Vec<Vec<u16>>,
}

impl ColumnSet {
    /// An empty set with `arity` columns.
    pub fn new(arity: usize) -> Self {
        Self {
            rows: 0,
            cols: vec![Vec::new(); arity],
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics (debug) when `values` does not match the arity.
    pub(crate) fn push_row(&mut self, values: &[u16]) {
        debug_assert_eq!(values.len(), self.cols.len());
        for (col, &v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (schema arity).
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The column of attribute `a`.
    #[inline]
    pub fn col(&self, a: AttrId) -> &[u16] {
        &self.cols[a.index()]
    }
}

/// The columnar mirror of a [`ProbDb`](crate::ProbDb): certain-tuple
/// columns, flattened alternative columns with probabilities, and block
/// boundaries.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    certain: ColumnSet,
    alternatives: ColumnSet,
    alt_probs: Vec<f64>,
    /// `block_offsets[b]..block_offsets[b + 1]` are block `b`'s rows in
    /// the alternative columns; always starts with 0.
    block_offsets: Vec<usize>,
}

impl ColumnStore {
    /// An empty store over `arity` attributes.
    pub fn new(arity: usize) -> Self {
        Self {
            certain: ColumnSet::new(arity),
            alternatives: ColumnSet::new(arity),
            alt_probs: Vec::new(),
            block_offsets: vec![0],
        }
    }

    /// Mirrors a certain-tuple push.
    pub(crate) fn push_certain(&mut self, values: &[u16]) {
        self.certain.push_row(values);
    }

    /// Mirrors a block push.
    pub(crate) fn push_block(&mut self, block: &Block) {
        for a in block.alternatives() {
            self.alternatives.push_row(a.tuple.raw());
            self.alt_probs.push(a.prob);
        }
        self.block_offsets.push(self.alternatives.rows());
    }

    /// Overwrites block `b`'s alternative probabilities (mass update; the
    /// caller — [`ProbDb::set_block_masses`](crate::ProbDb::set_block_masses)
    /// — validates the simplex constraint first).
    pub(crate) fn set_block_probs(&mut self, b: usize, probs: &[f64]) {
        let range = self.block_range(b);
        debug_assert_eq!(range.len(), probs.len());
        self.alt_probs[range].copy_from_slice(probs);
    }

    /// The certain-tuple columns.
    pub fn certain(&self) -> &ColumnSet {
        &self.certain
    }

    /// The flattened alternative columns (all blocks, block order).
    pub fn alternatives(&self) -> &ColumnSet {
        &self.alternatives
    }

    /// Probability of each alternative row, aligned with
    /// [`ColumnStore::alternatives`].
    pub fn alt_probs(&self) -> &[f64] {
        &self.alt_probs
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.block_offsets.len() - 1
    }

    /// Alternative-row range of block `b` (by position, not key).
    #[inline]
    pub fn block_range(&self, b: usize) -> Range<usize> {
        self.block_offsets[b]..self.block_offsets[b + 1]
    }

    /// Per-block probability that the block's true tuple lands on a set
    /// bit of `matches` (a bitmap over the alternative rows).
    pub fn block_probs(&self, matches: &Bitmap) -> Vec<f64> {
        debug_assert_eq!(matches.len(), self.alternatives.rows());
        (0..self.block_count())
            .map(|b| {
                self.block_range(b)
                    .filter(|&i| matches.get(i))
                    .map(|i| self.alt_probs[i])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Alternative;
    use mrsl_relation::CompleteTuple;

    fn block(key: usize, alts: &[(&[u16], f64)]) -> Block {
        Block::new(
            key,
            alts.iter()
                .map(|(values, prob)| Alternative {
                    tuple: CompleteTuple::from_values(values.to_vec()),
                    prob: *prob,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn bitmap_ops_respect_length() {
        let mut a = Bitmap::zeros(70);
        a.set(0);
        a.set(69);
        assert_eq!(a.count_ones(), 2);
        assert!(a.get(69) && !a.get(68));
        let ones = Bitmap::ones(70);
        assert_eq!(ones.count_ones(), 70);
        a.not_assign();
        assert_eq!(a.count_ones(), 68);
        a.and_assign(&ones);
        assert_eq!(a.count_ones(), 68);
        a.or_assign(&ones);
        assert_eq!(a.count_ones(), 70);
        assert_eq!(Bitmap::zeros(0).count_ones(), 0);
    }

    #[test]
    fn bitmap_from_test_packs_words() {
        let col: Vec<u16> = (0..130).map(|i| (i % 3) as u16).collect();
        let bm = Bitmap::from_test(&col, |x| x == 0);
        assert_eq!(bm.len(), 130);
        for (i, &x) in col.iter().enumerate() {
            assert_eq!(bm.get(i), x == 0, "row {i}");
        }
        assert_eq!(bm.count_ones(), col.iter().filter(|&&x| x == 0).count());
        assert_eq!(bm.count_ones_in(0..3), 1);
        assert!(bm.any_in(0..1));
        assert!(!bm.any_in(1..3));
        assert_eq!(bm.iter_ones().take(2).collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn word_masked_range_kernels_match_naive_at_word_edges() {
        // A bit pattern with structure around every word boundary.
        let len = 200;
        let mut bm = Bitmap::zeros(len);
        for i in 0..len {
            if i % 3 == 0 || i == 63 || i == 64 || i == 127 || i == 191 {
                bm.set(i);
            }
        }
        let naive_count = |r: std::ops::Range<usize>| r.filter(|&i| bm.get(i)).count();
        let ranges = [
            0..0,
            0..1,
            0..63,
            0..64,
            0..65,
            1..63,
            63..64,
            63..65,
            64..128,
            65..127,
            100..100,
            126..130,
            5..198,
            0..200,
            199..200,
        ];
        for r in ranges {
            assert_eq!(
                bm.count_ones_in(r.clone()),
                naive_count(r.clone()),
                "count in {r:?}"
            );
            assert_eq!(
                bm.any_in(r.clone()),
                naive_count(r.clone()) > 0,
                "any in {r:?}"
            );
        }
        // A sparse bitmap where only middle whole-words decide `any_in`.
        let mut sparse = Bitmap::zeros(300);
        sparse.set(130);
        assert!(sparse.any_in(64..192));
        assert!(!sparse.any_in(64..130));
        assert!(!sparse.any_in(131..300));
        assert_eq!(sparse.count_ones_in(0..300), 1);
    }

    #[test]
    fn iter_ones_matches_the_naive_scan_at_word_edges() {
        let naive = |bm: &Bitmap| (0..bm.len()).filter(|&i| bm.get(i)).collect::<Vec<_>>();
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 200] {
            let mut patterns = vec![Bitmap::zeros(len), Bitmap::ones(len)];
            // Single bits on every word edge, then a mixed pattern.
            for bit in [0usize, 62, 63, 64, 65, 127, 128, len.wrapping_sub(1)] {
                if bit < len {
                    let mut bm = Bitmap::zeros(len);
                    bm.set(bit);
                    patterns.push(bm);
                }
            }
            let mut mixed = Bitmap::zeros(len);
            for i in (0..len).filter(|i| i % 7 == 0 || i % 64 == 63) {
                mixed.set(i);
            }
            patterns.push(mixed.clone());
            mixed.not_assign();
            patterns.push(mixed);
            for bm in &patterns {
                let got: Vec<usize> = bm.iter_ones().collect();
                assert_eq!(got, naive(bm), "len {len}");
                assert_eq!(got.len(), bm.count_ones(), "len {len}");
            }
        }
    }

    #[test]
    fn shard_map_ranges_and_membership_agree() {
        for card in [1usize, 2, 5, 16, 17, 100, 65_536] {
            let map = ShardMap::new(card);
            // Ranges tile the domain exactly, in order.
            let mut next = 0u32;
            for s in 0..SHARD_COUNT {
                let r = map.value_range(s);
                assert_eq!(r.start, next, "card {card} shard {s}");
                assert!(r.end >= r.start);
                next = r.end;
            }
            assert_eq!(next as usize, card, "card {card}");
            // Membership is the inverse of the ranges.
            let probe = (0..card.min(4096))
                .chain(card.saturating_sub(8)..card)
                .map(|v| v as u16);
            for v in probe {
                let s = map.shard_of(v);
                assert!(
                    map.value_range(s).contains(&(v as u32)),
                    "card {card} value {v} shard {s}"
                );
            }
        }
    }

    #[test]
    fn column_store_mirrors_pushes() {
        let mut store = ColumnStore::new(2);
        store.push_certain(&[1, 2]);
        store.push_certain(&[3, 4]);
        store.push_block(&block(0, &[(&[0, 0], 0.25), (&[0, 1], 0.75)]));
        store.push_block(&block(1, &[(&[1, 1], 1.0)]));
        assert_eq!(store.certain().rows(), 2);
        assert_eq!(store.certain().col(AttrId(1)), &[2, 4]);
        assert_eq!(store.alternatives().rows(), 3);
        assert_eq!(store.alternatives().col(AttrId(0)), &[0, 0, 1]);
        assert_eq!(store.block_count(), 2);
        assert_eq!(store.block_range(0), 0..2);
        assert_eq!(store.block_range(1), 2..3);

        // Block probs from a bitmap selecting the second column = 1.
        let bm = Bitmap::from_test(store.alternatives().col(AttrId(1)), |x| x == 1);
        let probs = store.block_probs(&bm);
        assert_eq!(probs.len(), 2);
        assert!((probs[0] - 0.75).abs() < 1e-12);
        assert!((probs[1] - 1.0).abs() < 1e-12);
    }
}
