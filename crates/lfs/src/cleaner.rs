//! The segment cleaner (garbage collector).
//!
//! "Before the log uses up all the space on disk, LFS's garbage collector
//! reclaims space from old segments containing data that has been
//! overwritten or deleted, compacting the remaining live data into a
//! smaller number of new segments" (§3). The cleaner here is greedy: when
//! the number of on-disk segments crosses a threshold it evacuates the
//! least-utilized segments and rewrites their live blocks through the
//! normal segment writer.

use std::collections::BTreeMap;

use nvfs_types::{FileId, RangeSet, SimTime};

use crate::layout::SegmentCause;
use crate::log::SegmentWriter;

/// Cleaner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanerConfig {
    /// Start cleaning when this many segments exist on disk.
    pub trigger_segments: usize,
    /// Segments evacuated per cleaning run.
    pub batch: usize,
}

/// Cumulative cleaner activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanerStats {
    /// Cleaning runs performed.
    pub runs: u64,
    /// Segments evacuated.
    pub segments_cleaned: u64,
    /// Live bytes copied to new segments (write amplification).
    pub bytes_copied: u64,
}

/// The cleaner itself.
#[derive(Debug, Clone)]
pub struct Cleaner {
    config: CleanerConfig,
    stats: CleanerStats,
}

impl Cleaner {
    /// Creates a cleaner with `config`.
    pub fn new(config: CleanerConfig) -> Self {
        Cleaner {
            config,
            stats: CleanerStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CleanerStats {
        self.stats
    }

    /// Runs the cleaner if the log has grown past the trigger. Live data
    /// from the evacuated segments is rewritten via `writer` (marked
    /// [`SegmentCause::Cleaner`]).
    pub fn maybe_clean(&mut self, t: SimTime, writer: &mut SegmentWriter) -> bool {
        if writer.usage().segment_count() < self.config.trigger_segments {
            return false;
        }
        self.stats.runs += 1;
        let victims = writer.usage().least_utilized(self.config.batch);
        let mut live: BTreeMap<FileId, RangeSet> = BTreeMap::new();
        for seg in victims {
            for block in writer.usage_mut().evacuate(seg) {
                live.entry(block.file)
                    .or_default()
                    .insert(block.byte_range());
            }
            self.stats.segments_cleaned += 1;
        }
        let copied: u64 = live.values().map(RangeSet::len_bytes).sum();
        self.stats.bytes_copied += copied;
        if copied > 0 {
            let chunks: Vec<(FileId, RangeSet)> = live.into_iter().collect();
            writer.write_all(t, &chunks, SegmentCause::Cleaner, true);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_types::ByteRange;

    fn chunk(file: u32, bytes: u64) -> (FileId, RangeSet) {
        (FileId(file), RangeSet::from_range(ByteRange::new(0, bytes)))
    }

    #[test]
    fn cleaning_waits_for_trigger() {
        let mut w = SegmentWriter::new(crate::layout::SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 8192)],
            SegmentCause::Timeout,
            false,
        );
        let mut c = Cleaner::new(CleanerConfig {
            trigger_segments: 10,
            batch: 2,
        });
        assert!(!c.maybe_clean(SimTime::ZERO, &mut w));
        assert_eq!(c.stats().runs, 0);
    }

    #[test]
    fn cleaning_compacts_dead_segments_for_free() {
        let mut w = SegmentWriter::new(crate::layout::SEGMENT_BYTES);
        // Write then overwrite the same file: first segments become dead.
        for i in 0..6 {
            w.write_all(
                SimTime::from_secs(i),
                &vec![chunk(0, 64 * 1024)],
                SegmentCause::Timeout,
                false,
            );
        }
        // Segments 0..5 exist; only the last holds live data.
        let mut c = Cleaner::new(CleanerConfig {
            trigger_segments: 4,
            batch: 5,
        });
        assert!(c.maybe_clean(SimTime::from_secs(10), &mut w));
        let s = c.stats();
        assert_eq!(s.runs, 1);
        assert_eq!(s.segments_cleaned, 5);
        // Dead segments cost nothing to clean.
        assert_eq!(s.bytes_copied, 0);
        assert!(w.usage().segment_count() <= 1);
    }

    #[test]
    fn cleaning_copies_live_data() {
        let mut w = SegmentWriter::new(crate::layout::SEGMENT_BYTES);
        for f in 0..4 {
            w.write_all(
                SimTime::ZERO,
                &vec![chunk(f, 16 * 1024)],
                SegmentCause::Timeout,
                false,
            );
        }
        let before_live = w.usage().total_live_bytes();
        let mut c = Cleaner::new(CleanerConfig {
            trigger_segments: 2,
            batch: 4,
        });
        assert!(c.maybe_clean(SimTime::from_secs(1), &mut w));
        assert_eq!(c.stats().bytes_copied, before_live);
        // Live data survived the move.
        assert_eq!(w.usage().total_live_bytes(), before_live);
        // Compacted into fewer segments, all marked Cleaner.
        assert!(w.records().iter().any(|r| r.cause == SegmentCause::Cleaner));
    }
}
