//! The server's in-memory dirty-data cache for one LFS file system.
//!
//! Dirty bytes accumulate here until the segment writer takes them —
//! because a full segment's worth arrived, because an `fsync` forced them
//! out, or because the 30-second timeout aged them out (§3).

use std::collections::BTreeMap;

use nvfs_types::{ByteRange, FileId, RangeSet, SimTime};

/// Dirty data of one file plus the time it first became dirty.
#[derive(Debug, Clone, Default)]
struct FileDirty {
    ranges: RangeSet,
    since: Option<SimTime>,
}

/// Dirty byte ranges per file, with coarse (per-file) age tracking.
///
/// # Examples
///
/// ```
/// use nvfs_lfs::DirtyCache;
/// use nvfs_types::{ByteRange, FileId, SimTime};
///
/// let mut d = DirtyCache::new();
/// d.add(FileId(0), ByteRange::new(0, 4096), SimTime::from_secs(1));
/// assert_eq!(d.total_bytes(), 4096);
/// let taken = d.take_file(FileId(0));
/// assert_eq!(taken.map(|r| r.len_bytes()), Some(4096));
/// assert_eq!(d.total_bytes(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DirtyCache {
    files: BTreeMap<FileId, FileDirty>,
    total: u64,
}

impl DirtyCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DirtyCache::default()
    }

    /// Total dirty bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Number of files with dirty data.
    pub(crate) fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Marks `range` of `file` dirty at `t`. Returns the newly dirty bytes
    /// (overlap with already-dirty data is absorbed in memory).
    pub fn add(&mut self, file: FileId, range: ByteRange, t: SimTime) -> u64 {
        let entry = self.files.entry(file).or_default();
        let added = entry.ranges.insert(range);
        if entry.since.is_none() {
            entry.since = Some(t);
        }
        self.total += added;
        added
    }

    /// Whether `file` has dirty data.
    pub(crate) fn has_file(&self, file: FileId) -> bool {
        self.files.contains_key(&file)
    }

    /// Removes and returns all dirty data of `file`.
    pub fn take_file(&mut self, file: FileId) -> Option<RangeSet> {
        let entry = self.files.remove(&file)?;
        self.total -= entry.ranges.len_bytes();
        Some(entry.ranges)
    }

    /// Discards dirty data of `file` (it was deleted before reaching disk).
    /// Returns the discarded byte count.
    pub(crate) fn discard_file(&mut self, file: FileId) -> u64 {
        self.take_file(file).map_or(0, |r| r.len_bytes())
    }

    /// Removes and returns every file's dirty data.
    pub(crate) fn take_all(&mut self) -> Vec<(FileId, RangeSet)> {
        self.total = 0;
        std::mem::take(&mut self.files)
            .into_iter()
            .map(|(f, d)| (f, d.ranges))
            .collect()
    }

    /// Removes and returns the dirty data of files whose data first became
    /// dirty at or before `cutoff` (the 30-second flush).
    pub(crate) fn take_older_than(&mut self, cutoff: SimTime) -> Vec<(FileId, RangeSet)> {
        let old: Vec<FileId> = self
            .files
            .iter()
            .filter(|(_, d)| d.since.is_some_and(|s| s <= cutoff))
            .map(|(&f, _)| f)
            .collect();
        old.into_iter()
            .filter_map(|f| self.take_file(f).map(|r| (f, r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_writes_are_absorbed() {
        let mut d = DirtyCache::new();
        assert_eq!(
            d.add(FileId(0), ByteRange::new(0, 100), SimTime::from_secs(1)),
            100
        );
        assert_eq!(
            d.add(FileId(0), ByteRange::new(50, 150), SimTime::from_secs(2)),
            50
        );
        assert_eq!(d.total_bytes(), 150);
        assert_eq!(d.file_count(), 1);
    }

    #[test]
    fn take_older_than_is_age_selective() {
        let mut d = DirtyCache::new();
        d.add(FileId(0), ByteRange::new(0, 100), SimTime::from_secs(1));
        d.add(FileId(1), ByteRange::new(0, 100), SimTime::from_secs(50));
        let old = d.take_older_than(SimTime::from_secs(20));
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].0, FileId(0));
        assert_eq!(d.total_bytes(), 100);
    }

    #[test]
    fn age_resets_after_take() {
        let mut d = DirtyCache::new();
        d.add(FileId(0), ByteRange::new(0, 100), SimTime::from_secs(1));
        d.take_file(FileId(0));
        // New dirty data starts a fresh age.
        d.add(FileId(0), ByteRange::new(0, 100), SimTime::from_secs(100));
        assert!(d.take_older_than(SimTime::from_secs(50)).is_empty());
        assert!(!d.take_older_than(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn discard_and_take_all() {
        let mut d = DirtyCache::new();
        d.add(FileId(0), ByteRange::new(0, 100), SimTime::from_secs(1));
        d.add(FileId(1), ByteRange::new(0, 200), SimTime::from_secs(1));
        assert_eq!(d.discard_file(FileId(0)), 100);
        let all = d.take_all();
        assert_eq!(all.len(), 1);
        assert_eq!(d.total_bytes(), 0);
    }
}
