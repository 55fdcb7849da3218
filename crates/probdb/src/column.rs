//! Columnar block storage: dictionary-encoded columns plus row bitmaps.
//!
//! A [`ColumnStore`] is the one copy of a relation's data: one `u16`
//! column per attribute for the certain tuples and one per attribute for
//! the flattened block alternatives, with the alternative probabilities,
//! block boundaries and block keys alongside. [`ProbDb`](crate::ProbDb)
//! owns it and rebuilds rows from it on demand
//! ([`ProbDb::certain`](crate::ProbDb::certain),
//! [`ProbDb::blocks`](crate::ProbDb::blocks)). Predicate evaluation runs
//! as tight loops over contiguous `u16` slices into a [`Bitmap`] (one bit
//! per row) instead of per-tuple pointer chasing — the vectorized path
//! behind every query evaluator.
//!
//! The store is append-only and filled by the `ProbDb` push paths; it is
//! serialized as rows and rebuilt by replaying them. Its values never
//! change once pushed; only
//! [`ProbDb::set_block_masses`](crate::ProbDb::set_block_masses) writes in
//! place, and it writes `alt_probs` alone. That split is what the stamps
//! of [`ProbDb`](crate::ProbDb) follow:
//!
//! - **value stamps**, one per [`SEGMENT_LEN`] certain rows or blocks,
//!   move only when a push lands a row in the segment. A bitmap over the
//!   values (a predicate's live rows, a block's key agreement) stays valid
//!   for a segment while its stamp does, so the plan cache keeps such
//!   bitmaps and verdicts per segment and, after a publish, re-evaluates
//!   only the segments whose stamps moved (`append`, `truncate` and
//!   `same_in` below are its splicing kernels);
//! - the **mass stamp** moves with every mass update. Registers and mass
//!   tables, which carry masses, keep their rows before the last segment
//!   while it and the value stamps before that segment hold, and fold in
//!   the rest.

use crate::block::Block;
use crate::database::SEGMENT_LEN;
use mrsl_relation::AttrId;
use std::ops::Range;

/// A dense bitset with one bit per row of a [`ColumnSet`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// Do `self` and `other` agree on every bit in `range`? Compares whole
    /// words, masked at the edges like [`Bitmap::count_ones_in`].
    pub(crate) fn same_in(&self, other: &Bitmap, range: Range<usize>) -> bool {
        debug_assert!(range.end <= self.len.min(other.len));
        if range.start >= range.end {
            return true;
        }
        let (words, head, tail) = Self::word_span(&range);
        let last = words.end - 1;
        words.clone().all(|w| {
            let mut mask = u64::MAX;
            if w == words.start {
                mask &= head;
            }
            if w == last {
                mask &= tail;
            }
            (self.words[w] ^ other.words[w]) & mask == 0
        })
    }

    /// Drops every bit from `len` on (no-op when `len >= self.len()`).
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.words.truncate(Self::word_count(len));
            self.mask_tail();
        }
    }

    /// Appends `other`'s bits after the last bit of `self`, at any bit
    /// offset.
    pub(crate) fn append(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // Bits past `len` are always clear, so the low part of each
            // incoming word ORs into the current last word.
            for &w in &other.words {
                *self.words.last_mut().expect("a partial word exists") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(Self::word_count(self.len));
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
        self.iter_ones_from(0)
    }

    /// Iterates the indices of set bits from `start` on, in increasing
    /// order, skipping the words before `start` without reading them.
    pub(crate) fn iter_ones_from(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        let first = start / 64;
        let head = u64::MAX << (start % 64);
        let words = self.words.get(first..).unwrap_or(&[]);
        words.iter().enumerate().flat_map(move |(i, &word)| {
            let w = first + i;
            let mut rest = if i == 0 { word & head } else { word };
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

/// A copy of `v` with room for [`SEGMENT_LEN`] more values. Stores are
/// cloned to be written to — a publish copies a relation, then pushes
/// into it — and a push into an exactly-sized copy would reallocate, and
/// so copy, every column a second time.
fn with_headroom<T: Copy>(v: &[T]) -> Vec<T> {
    let mut copy = Vec::with_capacity(v.len() + SEGMENT_LEN);
    copy.extend_from_slice(v);
    copy
}

/// A column-major table: one dictionary-encoded `u16` column per attribute.
#[derive(Debug, Default)]
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

    /// The values of row `r`, one per attribute.
    pub(crate) fn row(&self, r: usize) -> Vec<u16> {
        self.cols.iter().map(|col| col[r]).collect()
    }

    /// The column of attribute `a`.
    #[inline]
    pub fn col(&self, a: AttrId) -> &[u16] {
        &self.cols[a.index()]
    }
}

/// The storage of a [`ProbDb`](crate::ProbDb): certain-tuple columns,
/// flattened alternative columns with probabilities, block boundaries and
/// block keys.
#[derive(Debug)]
pub struct ColumnStore {
    certain: ColumnSet,
    alternatives: ColumnSet,
    alt_probs: Vec<f64>,
    /// `block_offsets[b]..block_offsets[b + 1]` are block `b`'s rows in
    /// the alternative columns; always starts with 0.
    block_offsets: Vec<usize>,
    /// The block keys ([`Block::key`]) as runs of consecutive keys: one
    /// `(first block, its key)` entry per block whose key does not follow
    /// its predecessor's. A derivation keys its blocks 0, 1, 2, …, so
    /// its keys are one run and cost a publish nothing to copy.
    key_runs: Vec<(usize, usize)>,
}

impl Clone for ColumnSet {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols.iter().map(|col| with_headroom(col)).collect(),
        }
    }
}

impl Clone for ColumnStore {
    fn clone(&self) -> Self {
        Self {
            certain: self.certain.clone(),
            alternatives: self.alternatives.clone(),
            alt_probs: with_headroom(&self.alt_probs),
            block_offsets: with_headroom(&self.block_offsets),
            key_runs: self.key_runs.clone(),
        }
    }
}

impl ColumnStore {
    /// An empty store over `arity` attributes.
    pub fn new(arity: usize) -> Self {
        Self {
            certain: ColumnSet::new(arity),
            alternatives: ColumnSet::new(arity),
            alt_probs: Vec::new(),
            block_offsets: vec![0],
            key_runs: Vec::new(),
        }
    }

    /// Appends a certain tuple's values.
    pub(crate) fn push_certain(&mut self, values: &[u16]) {
        self.certain.push_row(values);
    }

    /// Appends a block: its alternatives' values and probabilities, its
    /// boundary and its key.
    pub(crate) fn push_block(&mut self, block: &Block) {
        for a in block.alternatives() {
            self.alternatives.push_row(a.tuple.raw());
            self.alt_probs.push(a.prob);
        }
        let b = self.block_count();
        if b == 0 || self.block_key(b - 1).checked_add(1) != Some(block.key()) {
            self.key_runs.push((b, block.key()));
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

    /// Source incomplete-tuple key of block `b` (by position).
    ///
    /// # Panics
    /// Panics when `b >= self.block_count()`.
    pub fn block_key(&self, b: usize) -> usize {
        assert!(b < self.block_count(), "block {b} out of range");
        let run = self.key_runs.partition_point(|&(first, _)| first <= b) - 1;
        let (first, key) = self.key_runs[run];
        key + (b - first)
    }

    /// First alternative row of block `b`; `block_offset(block_count())`
    /// is the number of alternative rows.
    #[inline]
    pub(crate) fn block_offset(&self, b: usize) -> usize {
        self.block_offsets[b]
    }

    /// Splits `rows` — alternative rows in ascending order — into the runs
    /// that share a block, yielding each run's span of positions in
    /// `rows`. Block ids come from the offsets as the walk goes, galloping
    /// forward from the current block (1, 2, 4, … blocks ahead, then a
    /// binary search of the last stride), so a walk costs the log of each
    /// gap and no per-row block column is needed.
    pub(crate) fn block_runs<'s>(
        &'s self,
        rows: &'s [u32],
    ) -> impl Iterator<Item = Range<usize>> + 's {
        let offsets = &self.block_offsets;
        let (mut i, mut b) = (0usize, 0usize);
        std::iter::from_fn(move || {
            let r = *rows.get(i)? as usize;
            if offsets[b + 1] <= r {
                // `offsets[lo] <= r < offsets[lo + step]` once the gallop
                // stops; the block starts at the last offset `<= r`.
                let (mut lo, mut step) = (b + 1, 1);
                while offsets.get(lo + step).is_some_and(|&o| o <= r) {
                    lo += step;
                    step *= 2;
                }
                let hi = (lo + step).min(offsets.len());
                b = lo + offsets[lo..hi].partition_point(|&o| o <= r) - 1;
            }
            let (start, end) = (i, offsets[b + 1]);
            while rows.get(i).is_some_and(|&x| (x as usize) < end) {
                i += 1;
            }
            Some(start..i)
        })
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
    fn splicing_kernels_match_a_bitmap_built_in_one_go() {
        let pattern = |i: usize| i.is_multiple_of(3) || i % 64 == 63;
        let whole = |len: usize| {
            let mut bm = Bitmap::zeros(len);
            (0..len).filter(|&i| pattern(i)).for_each(|i| bm.set(i));
            bm
        };
        for len in [0usize, 1, 63, 64, 65, 130, 200] {
            for cut in [0usize, 1, 5, 63, 64, 65, 128, 199] {
                if cut > len {
                    continue;
                }
                // Truncate a longer bitmap, then append the rest at any
                // bit offset.
                let mut spliced = whole(len + 17);
                spliced.truncate(cut);
                assert_eq!(spliced.len(), cut);
                let mut rest = Bitmap::zeros(len - cut);
                (cut..len)
                    .filter(|&i| pattern(i))
                    .for_each(|i| rest.set(i - cut));
                spliced.append(&rest);
                assert_eq!(spliced, whole(len), "len {len}, cut {cut}");
            }
        }
        let (a, mut b) = (whole(200), whole(200));
        assert!(a.same_in(&b, 0..200));
        b.set(100);
        assert!(!a.same_in(&b, 0..200) && !a.same_in(&b, 100..101));
        assert!(a.same_in(&b, 0..100) && a.same_in(&b, 101..200));
        assert!(a.same_in(&b, 64..64));
    }

    #[test]
    fn block_runs_split_ascending_rows_by_block() {
        let mut store = ColumnStore::new(1);
        for len in [3usize, 1, 2, 4, 1, 1, 3] {
            let alts = (0..len)
                .map(|v| (vec![v as u16], 1.0 / len as f64))
                .collect::<Vec<_>>();
            let refs: Vec<(&[u16], f64)> = alts.iter().map(|(v, p)| (v.as_slice(), *p)).collect();
            store.push_block(&block(0, &refs));
        }
        let block_of = |r: u32| {
            (0..store.block_count())
                .find(|&b| store.block_range(b).contains(&(r as usize)))
                .unwrap()
        };
        let rows = [0u32, 2, 3, 4, 6, 9, 10, 11, 12, 14];
        let runs: Vec<Range<usize>> = store.block_runs(&rows).collect();
        let spans: Vec<Vec<u32>> = runs.iter().map(|r| rows[r.clone()].to_vec()).collect();
        assert_eq!(
            spans,
            vec![
                vec![0, 2],
                vec![3],
                vec![4],
                vec![6, 9],
                vec![10],
                vec![11],
                vec![12, 14]
            ]
        );
        for run in runs {
            let b = block_of(rows[run.start]);
            assert!(rows[run].iter().all(|&r| block_of(r) == b));
        }
        assert_eq!(store.block_runs(&[]).count(), 0);
        assert_eq!(store.block_offset(store.block_count()), 15);
        // Runs of rows within blocks, then the rows k²/3, whose gaps keep
        // growing: every gallop stride length, and targets anywhere in
        // the last stride.
        for _ in 0..300 {
            store.push_block(&block(0, &[(&[0], 0.5), (&[1], 0.5)]));
        }
        let block_of = |r: u32| {
            (0..store.block_count())
                .find(|&b| store.block_range(b).contains(&(r as usize)))
                .unwrap()
        };
        let n = store.alternatives().rows() as u32;
        let mut rows: Vec<u32> = (0..40)
            .chain((0..n).map(|k| k * k / 3).take_while(|&r| r < n))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let spans: Vec<Vec<u32>> = store
            .block_runs(&rows)
            .map(|run| rows[run].to_vec())
            .collect();
        let mut naive: Vec<Vec<u32>> = Vec::new();
        for &r in &rows {
            match naive.last_mut() {
                Some(run) if block_of(run[0]) == block_of(r) => run.push(r),
                _ => naive.push(vec![r]),
            }
        }
        assert_eq!(spans, naive);
    }

    #[test]
    fn pushes_into_a_clone_do_not_reallocate_its_columns() {
        let mut store = ColumnStore::new(2);
        for key in 0..1_000 {
            store.push_certain(&[1, 2]);
            store.push_block(&block(key, &[(&[0, 0], 0.25), (&[0, 1], 0.75)]));
        }
        let mut copy = store.clone();
        let before = (
            copy.alternatives().col(AttrId(0)).as_ptr(),
            copy.certain().col(AttrId(1)).as_ptr(),
            copy.alt_probs().as_ptr(),
        );
        for key in 1_000..1_000 + SEGMENT_LEN / 2 {
            copy.push_certain(&[3, 4]);
            copy.push_block(&block(key, &[(&[1, 0], 0.5), (&[1, 1], 0.5)]));
        }
        let after = (
            copy.alternatives().col(AttrId(0)).as_ptr(),
            copy.certain().col(AttrId(1)).as_ptr(),
            copy.alt_probs().as_ptr(),
        );
        assert_eq!(before, after, "the clone's columns were copied again");
        assert_eq!(copy.block_count(), 1_000 + SEGMENT_LEN / 2);
        assert_eq!(store.block_count(), 1_000);
    }

    #[test]
    fn column_store_holds_pushed_rows_and_keys() {
        let mut store = ColumnStore::new(2);
        store.push_certain(&[1, 2]);
        store.push_certain(&[3, 4]);
        store.push_block(&block(7, &[(&[0, 0], 0.25), (&[0, 1], 0.75)]));
        store.push_block(&block(3, &[(&[1, 1], 1.0)]));
        assert_eq!(store.certain().rows(), 2);
        assert_eq!(store.certain().col(AttrId(1)), &[2, 4]);
        assert_eq!(store.certain().row(1), vec![3, 4]);
        assert_eq!(store.alternatives().row(1), vec![0, 1]);
        assert_eq!((store.block_key(0), store.block_key(1)), (7, 3));
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

        // Consecutive keys share a run; any other key opens one.
        for key in [4, 5, 9, 10, 10, 0, usize::MAX - 1, usize::MAX, 0] {
            store.push_block(&block(key, &[(&[2, 2], 1.0)]));
        }
        let keys: Vec<usize> = (0..store.block_count())
            .map(|b| store.block_key(b))
            .collect();
        let want = [7, 3, 4, 5, 9, 10, 10, 0, usize::MAX - 1, usize::MAX, 0];
        assert_eq!(keys, want);
        assert_eq!(store.key_runs.len(), 7);
    }
}
