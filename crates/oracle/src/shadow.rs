//! The shadow durability model: what each cache model promised to keep.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use nvfs_types::{ByteRange, ClientId, FileId, RangeSet, SimTime, BLOCK_SIZE};

/// Per-file durable byte ranges — the common currency of promises,
/// predictions, and observed recoveries. Structurally identical to
/// `nvfs_nvram::RecoveredData`, redefined here so the oracle stays
/// independent of the code it checks.
pub type DurableMap = BTreeMap<FileId, RangeSet>;

/// The bytes a cache model contractually guaranteed to survive a crash,
/// captured at the instant the crash fired — *before* any recovery code
/// runs, so a broken snapshot path is caught rather than trusted.
///
/// Which bytes qualify is the model's durability contract (see
/// DESIGN.md § Durability contract): nothing for the volatile model,
/// every NVRAM-resident dirty byte for write-aside and unified, and only
/// the aged-out-of-window portion for the hybrid model. The cache itself
/// answers that question via `nvram_dirty_contents()`; the promise just
/// freezes the answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurablePromise {
    /// The client whose cache made the promise.
    pub(crate) client: ClientId,
    /// When the crash fired (also the promise's identity: one client
    /// cannot crash twice at the same instant).
    pub(crate) captured_at: SimTime,
    /// The promised durable ranges, merged per file.
    pub(crate) ranges: DurableMap,
}

impl DurablePromise {
    /// Captures a promise from an iterator of `(file, ranges)` pairs as
    /// yielded by `ClientCache::nvram_dirty_contents()`. The same file may
    /// appear multiple times (one entry per cached block); ranges are
    /// merged.
    pub fn capture<'a, I>(client: ClientId, captured_at: SimTime, contents: I) -> Self
    where
        I: IntoIterator<Item = (FileId, &'a RangeSet)>,
    {
        let mut ranges = DurableMap::new();
        union_into(&mut ranges, contents);
        DurablePromise {
            client,
            captured_at,
            ranges,
        }
    }

    /// Total promised bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.ranges.values().map(RangeSet::len_bytes).sum()
    }
}

/// The injected drain conditions a recovery ran under — everything the
/// oracle needs to predict the correct outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainExpectation {
    /// All board batteries were dead at drain time: the contract says the
    /// recovery must return *nothing* (fabricating data would be a
    /// [`Resurrected`](crate::Verdict::Resurrected) violation).
    pub board_dead: bool,
    /// The injected drain budget (`u64::MAX` for an untorn drain).
    pub max_bytes: u64,
}

impl DrainExpectation {
    /// A full, untorn drain on a healthy board.
    pub fn full() -> Self {
        DrainExpectation {
            board_dead: false,
            max_bytes: u64::MAX,
        }
    }

    /// A board whose batteries all died before the drain.
    pub fn dead() -> Self {
        DrainExpectation {
            board_dead: true,
            max_bytes: 0,
        }
    }

    /// The exact durable map a correct recovery must produce for
    /// `promise` under these conditions.
    pub(crate) fn expected(&self, promise: &DurablePromise) -> DurableMap {
        if self.board_dead {
            DurableMap::new()
        } else {
            torn_prefix(&promise.ranges, self.max_bytes)
        }
    }
}

/// Independently recomputes the torn-drain contract: walking files in
/// `FileId` order and ranges in offset order, a range is taken whole when
/// the remaining budget covers it, otherwise cut at the largest 4 KB
/// block-grid offset the budget reaches — and the first cut ends the
/// drain (a torn drain is a prefix, not a sieve). With `max_bytes ==
/// u64::MAX` this is the identity.
///
/// This mirrors `NvramBoard::drain_up_to` *by specification*, not by
/// calling it — the whole point is that the two are written separately
/// and must agree.
pub fn torn_prefix(ranges: &DurableMap, max_bytes: u64) -> DurableMap {
    let mut out = DurableMap::new();
    let mut budget = max_bytes;
    for (file, set) in ranges {
        if budget == 0 {
            break;
        }
        let mut kept = RangeSet::new();
        let mut cut = false;
        for range in set.iter() {
            if budget >= range.len() {
                kept.insert(range);
                budget -= range.len();
                continue;
            }
            let grid = ((range.start + budget) / BLOCK_SIZE) * BLOCK_SIZE;
            if grid > range.start {
                kept.insert(ByteRange::new(range.start, grid));
            }
            budget = 0;
            cut = true;
            break;
        }
        if !kept.is_empty() {
            out.insert(*file, kept);
        }
        if cut {
            break;
        }
    }
    out
}

/// Adds every `(file, ranges)` pair to `map`, merging per file; returns
/// the bytes that were not already covered.
pub fn union_into<'a, F: Borrow<FileId>>(
    map: &mut DurableMap,
    sets: impl IntoIterator<Item = (F, &'a RangeSet)>,
) -> u64 {
    sets.into_iter()
        .map(|(file, set)| map.entry(*file.borrow()).or_default().union_with(set))
        .sum()
}

/// Every overlap of `a` with `b`: one `(file, range)` per pair of
/// overlapping ranges, in `a`'s file and offset order.
pub(crate) fn intersect<'a, F: Borrow<FileId>>(
    a: impl IntoIterator<Item = (F, &'a RangeSet)>,
    b: &DurableMap,
) -> Vec<(FileId, ByteRange)> {
    let mut out = Vec::new();
    for (file, set) in a {
        let file = *file.borrow();
        let Some(other) = b.get(&file) else { continue };
        for r in set.iter() {
            out.extend(other.overlapping(r).map(|overlap| (file, overlap)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(u32, u64, u64)]) -> DurableMap {
        let mut m = DurableMap::new();
        for &(file, start, end) in entries {
            m.entry(FileId(file))
                .or_default()
                .insert(ByteRange::new(start, end));
        }
        m
    }

    #[test]
    fn capture_merges_repeated_files() {
        let a = RangeSet::from_range(ByteRange::new(0, BLOCK_SIZE));
        let b = RangeSet::from_range(ByteRange::new(BLOCK_SIZE, 2 * BLOCK_SIZE));
        let p = DurablePromise::capture(
            ClientId(3),
            SimTime::from_secs(7),
            vec![(FileId(1), &a), (FileId(1), &b)],
        );
        assert_eq!(p.bytes(), 2 * BLOCK_SIZE);
        assert_eq!(p.ranges[&FileId(1)].iter().count(), 1, "coalesced");
    }

    #[test]
    fn full_budget_is_identity() {
        let m = map(&[(1, 0, 4096), (2, 100, 5000)]);
        assert_eq!(torn_prefix(&m, u64::MAX), m);
    }

    #[test]
    fn torn_prefix_cuts_on_the_block_grid_and_stops() {
        let m = map(&[(1, 0, 3 * 4096), (2, 0, 4096)]);
        let out = torn_prefix(&m, 4096 + 17);
        assert_eq!(out[&FileId(1)].len_bytes(), 4096);
        assert!(!out.contains_key(&FileId(2)), "prefix, not sieve");
    }

    #[test]
    fn zero_budget_keeps_nothing() {
        let m = map(&[(1, 0, 4096)]);
        assert!(torn_prefix(&m, 0).is_empty());
    }

    #[test]
    fn dead_board_expects_nothing() {
        let m = map(&[(1, 0, 4096)]);
        let p = DurablePromise {
            client: ClientId(0),
            captured_at: SimTime::ZERO,
            ranges: m,
        };
        assert!(DrainExpectation::dead().expected(&p).is_empty());
        assert_eq!(DrainExpectation::full().expected(&p), p.ranges);
    }

    #[test]
    fn server_replay_is_idempotent() {
        let m = map(&[(1, 0, 4096), (2, 4096, 8192)]);
        let mut s = DurableMap::new();
        assert_eq!(union_into(&mut s, &m), 8192);
        let first = s.clone();
        assert_eq!(union_into(&mut s, &m), 0, "second replay adds nothing");
        assert_eq!(s, first, "…and changes nothing");
        assert_eq!(s.values().map(RangeSet::len_bytes).sum::<u64>(), 8192);
    }
}
