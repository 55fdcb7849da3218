//! Segmented copy-on-write row storage.
//!
//! [`ProbDb`](crate::ProbDb) keeps its row store — certain tuples and
//! blocks — in a [`Segmented`] vector: fixed-size segments of
//! [`SEGMENT_LEN`] rows, each behind an [`Arc`]. Cloning a database then
//! copies one pointer per segment instead of every row, and a push that
//! follows the clone copies at most the one tail segment it appends to
//! ([`Arc::make_mut`]); every full segment stays shared between the two
//! copies. That is what makes the row-store share of a one-block publish
//! through [`Catalog::get_mut`](crate::Catalog::get_mut) cost O(segment)
//! instead of O(relation).
//!
//! The segment size is a compile-time constant, not a configuration
//! knob: it trades the per-clone pointer copy (N / S pointers) against
//! the per-push tail copy (up to S rows), and 512 keeps both small at
//! 100k rows. The flat order of rows is the push order, so indexing,
//! iteration and serialization behave exactly like a `Vec`; the wire
//! format is a plain sequence.

use serde::value::Value;
use serde::Serialize;
use std::ops::Index;
use std::sync::Arc;

/// Rows per segment (a power of two, so indexing is a shift and a mask).
pub const SEGMENT_LEN: usize = 1 << SEGMENT_SHIFT;
const SEGMENT_SHIFT: usize = 9;
const SEGMENT_MASK: usize = SEGMENT_LEN - 1;

/// An append-only sequence stored as [`SEGMENT_LEN`]-row segments behind
/// [`Arc`]; see the [module docs](self).
///
/// Every segment but the last is full, so row `i` lives at
/// `segments[i / SEGMENT_LEN][i % SEGMENT_LEN]`.
#[derive(Debug, Clone)]
pub struct Segmented<T> {
    segments: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for Segmented<T> {
    fn default() -> Self {
        Self {
            segments: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Segmented<T> {
    /// An empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, if present.
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.segments[i >> SEGMENT_SHIFT][i & SEGMENT_MASK])
    }

    /// Iterates the rows in push order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            current: [].iter(),
            segments: self.segments.iter(),
            remaining: self.len,
        }
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of positions at which `self` and `other` hold the very same
    /// segment (pointer-equal [`Arc`]s) — how much storage a clone still
    /// shares with its original after both have been mutated.
    pub fn shared_segment_count(&self, other: &Self) -> usize {
        self.segments
            .iter()
            .zip(&other.segments)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

impl<T: Clone> Segmented<T> {
    /// Appends a row. Only the tail segment is touched: a tail shared with
    /// a clone is copied first; full segments are never copied.
    pub fn push(&mut self, value: T) {
        if self.len & SEGMENT_MASK == 0 {
            let mut fresh = Vec::with_capacity(SEGMENT_LEN);
            fresh.push(value);
            self.segments.push(Arc::new(fresh));
        } else {
            let tail = self.segments.last_mut().expect("non-full tail segment");
            Arc::make_mut(tail).push(value);
        }
        self.len += 1;
    }

    /// Mutable access to row `i`, if present. Copies the row's segment
    /// first when a clone shares it, and only that segment.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let segment = Arc::make_mut(&mut self.segments[i >> SEGMENT_SHIFT]);
        Some(&mut segment[i & SEGMENT_MASK])
    }
}

impl<T> Index<usize> for Segmented<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        assert!(
            i < self.len,
            "index {i} out of bounds for {} rows",
            self.len
        );
        &self.segments[i >> SEGMENT_SHIFT][i & SEGMENT_MASK]
    }
}

impl<'a, T> IntoIterator for &'a Segmented<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Written as one flat sequence, exactly like the `Vec` it replaces.
impl<T: Serialize> Serialize for Segmented<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// Iterator over the rows of a [`Segmented`], in push order.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    current: std::slice::Iter<'a, T>,
    segments: std::slice::Iter<'a, Arc<Vec<T>>>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(x) = self.current.next() {
                self.remaining -= 1;
                return Some(x);
            }
            self.current = self.segments.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> Segmented<usize> {
        let mut s = Segmented::new();
        (0..n).for_each(|i| s.push(i));
        s
    }

    #[test]
    fn indexing_and_iteration_follow_push_order_across_segments() {
        for n in [
            0,
            1,
            SEGMENT_LEN - 1,
            SEGMENT_LEN,
            SEGMENT_LEN + 1,
            3 * SEGMENT_LEN + 7,
        ] {
            let s = filled(n);
            assert_eq!(s.len(), n);
            assert_eq!(s.is_empty(), n == 0);
            assert_eq!(s.segment_count(), n.div_ceil(SEGMENT_LEN));
            assert!(s.iter().copied().eq(0..n), "forward, n = {n}");
            let mut it = s.iter();
            assert_eq!(it.len(), n);
            it.nth(n / 2);
            assert_eq!(it.len(), n - (n / 2 + 1).min(n), "after a skip, n = {n}");
            for i in 0..n {
                assert_eq!(s[i], i);
                assert_eq!(s.get(i), Some(&i));
            }
            assert_eq!(s.get(n), None);
        }
    }

    #[test]
    fn clones_share_full_segments_and_copy_only_the_touched_one() {
        let original = filled(3 * SEGMENT_LEN + 7);
        let mut clone = original.clone();
        assert_eq!(clone.shared_segment_count(&original), 4);
        clone.push(usize::MAX);
        assert_eq!(clone.shared_segment_count(&original), 3, "tail copied");
        *clone.get_mut(5).unwrap() = 0;
        assert_eq!(clone.shared_segment_count(&original), 2, "segment 0 copied");
        // The original never sees the clone's writes.
        assert_eq!(original.len(), 3 * SEGMENT_LEN + 7);
        assert_eq!(original[5], 5);
        assert_eq!(clone[5], 0);
        assert_eq!(clone[3 * SEGMENT_LEN + 7], usize::MAX);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_past_the_end_panics() {
        let _ = filled(SEGMENT_LEN)[SEGMENT_LEN];
    }
}
