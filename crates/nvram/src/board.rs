//! Removable NVRAM boards and §4 crash recovery.
//!
//! §4 of the paper: "modified data may become unavailable if it resides in
//! an NVRAM cache on a crashed client. To avoid this problem for clients
//! that do not recover quickly, it must be possible to move an NVRAM
//! component to another client and retrieve its data from the new
//! location." [`NvramBoard`] holds the dirty byte ranges a client cache had
//! in NVRAM at crash time; moving the board and draining it recovers every
//! byte.

use std::collections::BTreeMap;

use nvfs_types::{ByteRange, ClientId, FileId, RangeSet, BLOCK_SIZE};

use crate::battery::BatteryBank;

/// Dirty data recovered from a moved board, per file.
pub type RecoveredData = BTreeMap<FileId, RangeSet>;

/// A physically removable NVRAM component holding dirty file data.
///
/// # Examples
///
/// ```
/// use nvfs_nvram::NvramBoard;
/// use nvfs_types::{ByteRange, ClientId, FileId};
///
/// let mut board = NvramBoard::new(ClientId(0));
/// board.store(FileId(1), ByteRange::new(0, 4096));
/// // The host crashes; the board is moved to another client…
/// board.move_to(ClientId(5));
/// let recovered = board.drain();
/// assert_eq!(recovered[&FileId(1)].len_bytes(), 4096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NvramBoard {
    host: ClientId,
    batteries: BatteryBank,
    contents: BTreeMap<FileId, RangeSet>,
}

impl NvramBoard {
    /// Creates an empty board installed in `host`.
    pub fn new(host: ClientId) -> Self {
        NvramBoard {
            host,
            batteries: BatteryBank::default(),
            contents: BTreeMap::new(),
        }
    }

    /// Replaces the battery bank, e.g. to model the cheaper one- and
    /// two-battery parts of Table 1 (builder style).
    pub fn with_batteries(mut self, count: u8) -> Self {
        self.batteries = BatteryBank::new(count);
        self
    }

    /// The client the board is currently installed in.
    pub fn host(&self) -> ClientId {
        self.host
    }

    /// Battery bank (read-only).
    pub fn batteries(&self) -> &BatteryBank {
        &self.batteries
    }

    /// Battery bank (mutable, for failure injection).
    pub fn batteries_mut(&mut self) -> &mut BatteryBank {
        &mut self.batteries
    }

    /// Total dirty bytes currently held.
    pub fn dirty_bytes(&self) -> u64 {
        self.contents.values().map(RangeSet::len_bytes).sum()
    }

    /// Records `range` of `file` as dirty in the board. Returns the number
    /// of newly dirty bytes.
    pub fn store(&mut self, file: FileId, range: ByteRange) -> u64 {
        self.contents.entry(file).or_default().insert(range)
    }

    /// Simulates physically moving the board into `new_host`. Contents are
    /// untouched: this is the whole point of battery-backed boards.
    pub fn move_to(&mut self, new_host: ClientId) {
        self.host = new_host;
    }

    /// Removes and returns every dirty range, e.g. to flush to the server
    /// during recovery. Afterwards the board is empty.
    ///
    /// If all batteries are dead the contents were lost: an empty map is
    /// returned.
    pub fn drain(&mut self) -> RecoveredData {
        if !self.batteries.preserves_data() {
            self.contents.clear();
            return RecoveredData::new();
        }
        std::mem::take(&mut self.contents)
    }

    /// Dirty ranges currently held for `file`.
    pub fn dirty_of(&self, file: FileId) -> Option<&RangeSet> {
        self.contents.get(&file)
    }

    /// Drains at most `max_bytes`, modelling a torn (cut short) recovery
    /// drain. Returns `(recovered, lost)`: the ranges that made it out and
    /// the byte count that did not. Afterwards the board is empty — a
    /// truncated drain does not leave a retryable remainder, it is exactly
    /// the partial-application failure §4's recovery flow has to report.
    ///
    /// The cut is made **at 4 KB block boundaries**, never mid-block: a
    /// range is either taken whole (when the remaining budget covers it) or
    /// cut at the largest block-grid offset the budget reaches — so
    /// `recovered + lost` never splits a single write record's accounting
    /// and the drain prefix is exactly what the durability oracle predicts.
    /// Once a range cannot be taken whole the drain stops: a torn drain is
    /// a prefix, not a sieve.
    ///
    /// Dead batteries lose everything, as with [`drain`](NvramBoard::drain).
    pub fn drain_up_to(&mut self, max_bytes: u64) -> (RecoveredData, u64) {
        let held = self.dirty_bytes();
        if !self.batteries.preserves_data() {
            self.contents.clear();
            return (RecoveredData::new(), held);
        }
        let mut recovered = RecoveredData::new();
        let mut budget = max_bytes;
        'files: for (file, set) in std::mem::take(&mut self.contents) {
            if budget == 0 {
                continue;
            }
            let mut kept = RangeSet::new();
            for range in set.iter() {
                let take = block_aligned_take(range, budget);
                if take > 0 {
                    kept.insert(ByteRange::at(range.start, take));
                    budget -= take;
                }
                if take < range.len() {
                    // The budget ran out mid-range: the cut ends the drain.
                    if !kept.is_empty() {
                        recovered.insert(file, kept);
                    }
                    break 'files;
                }
            }
            if !kept.is_empty() {
                recovered.insert(file, kept);
            }
        }
        let out: u64 = recovered.values().map(RangeSet::len_bytes).sum();
        (recovered, held - out)
    }
}

/// How many bytes of `range` a torn drain with `budget` bytes left may
/// take: the whole range when the budget covers it, otherwise everything
/// up to the largest 4 KB block-grid offset the budget reaches (possibly
/// zero). Cutting on the grid keeps each write record's bytes together in
/// either the recovered or the lost column, never split across both.
fn block_aligned_take(range: ByteRange, budget: u64) -> u64 {
    if budget >= range.len() {
        return range.len();
    }
    let cut = ((range.start + budget) / BLOCK_SIZE) * BLOCK_SIZE;
    cut.saturating_sub(range.start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_counts_only_newly_dirty_bytes() {
        let mut b = NvramBoard::new(ClientId(0));
        assert_eq!(b.store(FileId(1), ByteRange::new(0, 100)), 100);
        assert_eq!(b.store(FileId(1), ByteRange::new(50, 150)), 50);
        assert_eq!(b.dirty_bytes(), 150);
        assert!(b.dirty_of(FileId(2)).is_none());
    }

    #[test]
    fn crash_move_recover_loses_nothing() {
        let mut b = NvramBoard::new(ClientId(2));
        b.store(FileId(1), ByteRange::new(0, 4096));
        b.store(FileId(2), ByteRange::new(8192, 16384));
        let before = b.dirty_bytes();
        b.move_to(ClientId(7));
        assert_eq!(b.host(), ClientId(7));
        let rec = b.drain();
        let recovered: u64 = rec.values().map(RangeSet::len_bytes).sum();
        assert_eq!(recovered, before);
        assert_eq!(b.dirty_bytes(), 0);
    }

    #[test]
    fn dead_batteries_lose_contents() {
        let mut b = NvramBoard::new(ClientId(0));
        b.store(FileId(1), ByteRange::new(0, 4096));
        for _ in 0..3 {
            b.batteries_mut().fail_one();
        }
        assert!(b.drain().is_empty());
    }

    #[test]
    fn truncated_drain_reports_the_lost_remainder() {
        let mut b = NvramBoard::new(ClientId(0));
        b.store(FileId(1), ByteRange::new(0, 4096));
        b.store(FileId(2), ByteRange::new(0, 4096));
        // A 6000-byte budget covers file 1 whole but cannot cover any full
        // block of file 2: the cut lands on the block boundary, never
        // mid-block, so exactly one 4 KB record survives.
        let (recovered, lost) = b.drain_up_to(6000);
        let out: u64 = recovered.values().map(RangeSet::len_bytes).sum();
        assert_eq!(out, 4096);
        assert_eq!(lost, 4096);
        assert_eq!(b.dirty_bytes(), 0, "a torn drain leaves nothing behind");
    }

    #[test]
    fn truncated_drain_cuts_within_a_range_on_the_block_grid() {
        let mut b = NvramBoard::new(ClientId(0));
        b.store(FileId(1), ByteRange::new(0, 3 * 4096));
        let (recovered, lost) = b.drain_up_to(2 * 4096 + 17);
        assert_eq!(recovered[&FileId(1)].len_bytes(), 2 * 4096);
        assert_eq!(lost, 4096);
    }

    #[test]
    fn truncated_drain_is_a_prefix_not_a_sieve() {
        let mut b = NvramBoard::new(ClientId(0));
        // An unaligned first range the budget cannot finish must stop the
        // drain entirely: later files never leak past a torn cut.
        b.store(FileId(1), ByteRange::new(100, 100 + 2 * 4096));
        b.store(FileId(2), ByteRange::new(0, 4096));
        let (recovered, lost) = b.drain_up_to(4096 + 50);
        // Cut lands at offset 4096 on the block grid: 4096 - 100 bytes of
        // file 1 survive, nothing of file 2.
        assert_eq!(recovered[&FileId(1)].len_bytes(), 4096 - 100);
        assert!(!recovered.contains_key(&FileId(2)));
        assert_eq!(lost, (2 * 4096 + 4096) - (4096 - 100));
    }

    #[test]
    fn truncated_drain_with_dead_batteries_loses_everything() {
        let mut b = NvramBoard::new(ClientId(0)).with_batteries(1);
        b.store(FileId(1), ByteRange::new(0, 4096));
        b.batteries_mut().fail_one();
        assert!(!b.batteries().preserves_data());
        let (recovered, lost) = b.drain_up_to(u64::MAX);
        assert!(recovered.is_empty());
        assert_eq!(lost, 4096);
    }
}
