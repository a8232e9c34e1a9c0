//! The `BTreeMap` implementation of [`RangeSet`](super::RangeSet) that
//! the sorted-`Vec` one replaced, kept as a differential reference: one
//! tree node per set, each range keyed by its start, and the neighbour
//! probes done with `range(..)` queries.
//!
//! Its derived `Debug` is the text the production set writes by hand, so
//! the two must print alike after every operation.

use std::collections::BTreeMap;

use super::ByteRange;

/// The reference set: range start -> range end, with a cached total.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(super) struct RangeSet {
    /// Maps range start → range end. Invariant: ranges are disjoint, sorted,
    /// non-empty, and separated by at least one byte (adjacent ranges merge).
    ranges: BTreeMap<u64, u64>,
    /// Cached total byte count, kept in sync by every mutation.
    total: u64,
}

impl RangeSet {
    /// Creates an empty set.
    pub(super) fn new() -> Self {
        RangeSet::default()
    }

    /// Creates a set covering a single range.
    pub(super) fn from_range(r: ByteRange) -> Self {
        let mut s = RangeSet::new();
        s.insert(r);
        s
    }

    /// Whether the set covers no bytes.
    pub(super) fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of bytes covered.
    pub(super) fn len_bytes(&self) -> u64 {
        self.total
    }

    /// Number of disjoint ranges (useful to bound fragmentation in tests).
    pub(super) fn fragment_count(&self) -> usize {
        self.ranges.len()
    }

    /// Removes all bytes.
    pub(super) fn clear(&mut self) {
        self.ranges.clear();
        self.total = 0;
    }

    /// Inserts `r`, coalescing with neighbours. Returns the number of bytes
    /// that were **newly added** (i.e. not already present) — the quantity the
    /// lifetime analysis needs to distinguish new writes from overwrites.
    pub(super) fn insert(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() {
            return 0;
        }
        // Fast path for the overwhelmingly common shapes in trace replay:
        // sequential writes append at or extend the tail range. Handling
        // them with at most two tree probes avoids the general path's
        // overlap scan and its `to_remove` allocation.
        match self.ranges.last_key_value() {
            None => {
                self.ranges.insert(r.start, r.end);
                self.total += r.len();
                return r.len();
            }
            Some((_, &tail_end)) if r.start > tail_end => {
                // Strictly past the tail with a gap: a fresh trailing range.
                self.ranges.insert(r.start, r.end);
                self.total += r.len();
                return r.len();
            }
            Some((&tail_start, &tail_end)) if r.start >= tail_start => {
                // Overlaps or abuts the tail range: covered or extend-in-place.
                if r.end <= tail_end {
                    return 0;
                }
                *self
                    .ranges
                    .get_mut(&tail_start)
                    .expect("tail key just observed") = r.end;
                let added = r.end - tail_end;
                self.total += added;
                return added;
            }
            Some(_) => {} // starts before the tail range: general path
        }
        let mut new_start = r.start;
        let mut new_end = r.end;
        let mut absorbed: u64 = 0;

        // Find all existing ranges that overlap or touch [start, end].
        // Because stored ranges are disjoint and non-adjacent, exactly one
        // range can start strictly before `r.start` and still touch it; every
        // other candidate starts inside `[r.start, r.end]`.
        let mut to_remove = Vec::new();
        if let Some((&s, &e)) = self.ranges.range(..r.start).next_back() {
            if e >= r.start {
                new_start = s;
                new_end = new_end.max(e);
                absorbed += e - s;
                to_remove.push(s);
            }
        }
        for (&s, &e) in self.ranges.range(r.start..=r.end) {
            new_end = new_end.max(e);
            absorbed += e - s;
            to_remove.push(s);
        }
        for s in to_remove {
            self.ranges.remove(&s);
        }
        self.ranges.insert(new_start, new_end);
        let merged_len = new_end - new_start;
        let added = merged_len - absorbed;
        self.total += added;
        // `added` counts bytes of the merged range not previously covered,
        // but some of those may fall outside `r` (they cannot: merging only
        // extends over previously-covered bytes, so every newly-added byte
        // lies inside `r`).
        added.min(r.len())
    }

    /// Removes `r` from the set. Returns the number of bytes actually removed.
    pub(super) fn remove(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() || self.ranges.is_empty() {
            return 0;
        }
        // Fast path: `r` lies entirely outside the covered span, so nothing
        // can intersect it (common for truncates past EOF and re-deletes).
        let span_start = *self.ranges.first_key_value().expect("non-empty").0;
        let span_end = *self.ranges.last_key_value().expect("non-empty").1;
        if r.end <= span_start || r.start >= span_end {
            return 0;
        }
        let mut removed: u64 = 0;
        let mut to_insert: Vec<(u64, u64)> = Vec::new();
        let mut to_delete: Vec<u64> = Vec::new();

        // The predecessor may straddle r.start.
        let scan_from = match self.ranges.range(..r.start).next_back() {
            Some((&s, &e)) if e > r.start => s,
            _ => r.start,
        };
        for (&s, &e) in self.ranges.range(scan_from..r.end) {
            if e <= r.start {
                continue;
            }
            let cut = ByteRange::new(s, e)
                .intersection(r)
                .expect("scanned range must overlap removal range");
            removed += cut.len();
            to_delete.push(s);
            if s < cut.start {
                to_insert.push((s, cut.start));
            }
            if cut.end < e {
                to_insert.push((cut.end, e));
            }
        }
        for s in to_delete {
            self.ranges.remove(&s);
        }
        for (s, e) in to_insert {
            self.ranges.insert(s, e);
        }
        self.total -= removed;
        removed
    }

    /// Removes every byte at or beyond `offset` (file truncation).
    /// Returns the number of bytes removed.
    pub(super) fn truncate(&mut self, offset: u64) -> u64 {
        self.remove(ByteRange::new(offset, u64::MAX))
    }

    /// Number of bytes of `r` present in the set.
    pub(super) fn overlap_bytes(&self, r: ByteRange) -> u64 {
        self.overlapping(r).map(|o| o.len()).sum()
    }

    /// Whether the byte at `offset` is present.
    pub(super) fn contains(&self, offset: u64) -> bool {
        match self.ranges.range(..=offset).next_back() {
            Some((_, &e)) => offset < e,
            None => false,
        }
    }

    /// Iterates over the disjoint ranges in ascending order.
    pub(super) fn iter(&self) -> impl Iterator<Item = ByteRange> + '_ {
        self.ranges
            .iter()
            .map(|(&s, &e)| ByteRange { start: s, end: e })
    }

    /// Iterates over the parts of the set that fall within `r`.
    pub(super) fn overlapping(&self, r: ByteRange) -> impl Iterator<Item = ByteRange> + '_ {
        let scan_from = match self.ranges.range(..r.start).next_back() {
            Some((&s, &e)) if e > r.start => s,
            _ => r.start,
        };
        self.ranges
            .range(scan_from..r.end)
            .filter_map(move |(&s, &e)| ByteRange::new(s, e).intersection(r))
    }

    /// Adds every byte of `other` into `self`; returns bytes newly added.
    pub(super) fn union_with(&mut self, other: &RangeSet) -> u64 {
        if other.ranges.is_empty() {
            return 0;
        }
        if self.ranges.is_empty() {
            // Fast path: adopt the other set's canonical representation
            // wholesale instead of re-inserting range by range.
            self.ranges = other.ranges.clone();
            self.total = other.total;
            return self.total;
        }
        other.iter().map(|r| self.insert(r)).sum()
    }

    /// Removes every byte of `other` from `self`; returns bytes removed.
    pub(super) fn subtract(&mut self, other: &RangeSet) -> u64 {
        if self.ranges.is_empty() || other.ranges.is_empty() {
            return 0;
        }
        // Fast path: disjoint covered spans cannot share a byte.
        let self_start = *self.ranges.first_key_value().expect("non-empty").0;
        let self_end = *self.ranges.last_key_value().expect("non-empty").1;
        let other_start = *other.ranges.first_key_value().expect("non-empty").0;
        let other_end = *other.ranges.last_key_value().expect("non-empty").1;
        if other_end <= self_start || other_start >= self_end {
            return 0;
        }
        other.iter().map(|r| self.remove(r)).sum()
    }

    /// Verifies internal invariants (disjoint, sorted, non-adjacent, total
    /// matches). Intended for tests and debug assertions.
    pub(super) fn check_invariants(&self) -> bool {
        let mut prev_end: Option<u64> = None;
        let mut total = 0;
        for (&s, &e) in &self.ranges {
            if s >= e {
                return false;
            }
            if let Some(pe) = prev_end {
                // Must be separated by at least one byte (else should merge).
                if s <= pe {
                    return false;
                }
            }
            total += e - s;
            prev_end = Some(e);
        }
        total == self.total
    }
}

/// Differential test: seeded op streams through both sets.
mod differential {
    use nvfs_rng::{Rng, SeedableRng, StdRng};

    use super::super::{ByteRange, RangeSet};
    use super::RangeSet as TreeSet;

    /// Sets each stream works on; `union_with` and `subtract` take one
    /// another as the operand.
    const POOL: usize = 4;
    /// Offsets the streams mostly draw from. Lengths are short next to
    /// it, so ranges often touch and sets hold many fragments.
    const SPAN: u64 = 256;

    /// A range that mostly starts on the grid and is a few bytes long,
    /// sometimes long, sometimes empty, and now and then ends at the last
    /// offset a `u64` holds.
    fn range(rng: &mut StdRng) -> ByteRange {
        if rng.gen_bool(0.02) {
            let start = u64::MAX - rng.gen_range(0..=8u64);
            return ByteRange::new(start, u64::MAX);
        }
        let start = rng.gen_range(0..=SPAN);
        let len = match rng.gen_range(0..10u32) {
            0 => 0,
            1 => rng.gen_range(16..=SPAN),
            _ => rng.gen_range(1..=8u64),
        };
        ByteRange::new(start, start + len)
    }

    fn assert_agree(new: &[RangeSet], old: &[TreeSet], queries: &[ByteRange], ctx: &str) {
        for (i, (n, o)) in new.iter().zip(old).enumerate() {
            let ctx = format!("{ctx}, set {i}");
            assert!(n.check_invariants(), "{ctx}: {n:?}");
            assert!(o.check_invariants(), "{ctx}: reference {o:?}");
            assert_eq!(format!("{n:?}"), format!("{o:?}"), "{ctx}");
            assert_eq!(format!("{n:#?}"), format!("{o:#?}"), "{ctx}");
            assert!(n.iter().eq(o.iter()), "{ctx}");
            assert_eq!(n.len_bytes(), o.len_bytes(), "{ctx}");
            assert_eq!(n.fragment_count(), o.fragment_count(), "{ctx}");
            assert_eq!(n.is_empty(), o.is_empty(), "{ctx}");
            for &q in queries {
                assert!(n.overlapping(q).eq(o.overlapping(q)), "{ctx}: {q}");
                assert_eq!(n.overlap_bytes(q), o.overlap_bytes(q), "{ctx}: {q}");
            }
            let edges = [u64::MAX - 9, u64::MAX - 1, u64::MAX];
            for offset in (0..=2 * SPAN + 2).chain(edges) {
                assert_eq!(n.contains(offset), o.contains(offset), "{ctx}: {offset}");
            }
            for (j, (n2, o2)) in new.iter().zip(old).enumerate() {
                assert_eq!(n == n2, o == o2, "{ctx}: == set {j}");
            }
        }
    }

    #[test]
    fn vec_sets_match_the_tree_sets() {
        let mut rng = StdRng::seed_from_u64(0x7261_6e67_6573_6574);
        let mut most_fragments = 0;
        for case in 0..48 {
            let mut new: Vec<RangeSet> = (0..POOL).map(|_| RangeSet::new()).collect();
            let mut old: Vec<TreeSet> = (0..POOL).map(|_| TreeSet::new()).collect();
            for step in 0..300 {
                let i = rng.gen_range(0..POOL);
                let j = rng.gen_range(0..POOL);
                let r = range(&mut rng);
                let (label, got, want) = match rng.gen_range(0..20u32) {
                    0..=8 => ("insert", new[i].insert(r), old[i].insert(r)),
                    9..=13 => ("remove", new[i].remove(r), old[i].remove(r)),
                    14 => (
                        "truncate",
                        new[i].truncate(r.start),
                        old[i].truncate(r.start),
                    ),
                    15 | 16 => {
                        let (n, o) = (new[j].clone(), old[j].clone());
                        ("union_with", new[i].union_with(&n), old[i].union_with(&o))
                    }
                    17 | 18 => {
                        let (n, o) = (new[j].clone(), old[j].clone());
                        ("subtract", new[i].subtract(&n), old[i].subtract(&o))
                    }
                    _ if rng.gen_bool(0.5) => {
                        new[i].clear();
                        old[i].clear();
                        ("clear", 0, 0)
                    }
                    _ => {
                        new[i] = RangeSet::from_range(r);
                        old[i] = TreeSet::from_range(r);
                        ("from_range", 0, 0)
                    }
                };
                let ctx = format!("case {case}, step {step}: {label} {r} on set {i} (set {j})");
                assert_eq!(got, want, "{ctx}");
                let queries = [r, range(&mut rng), range(&mut rng)];
                assert_agree(&new, &old, &queries, &ctx);
                most_fragments = most_fragments.max(new[i].fragment_count());
            }
        }
        assert!(
            most_fragments >= 16,
            "streams reach {most_fragments} fragments"
        );
    }
}
