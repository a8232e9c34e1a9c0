//! On-disk layout constants and segment records (Figure 7).
//!
//! An LFS disk is a sequence of half-megabyte segments. Each segment holds
//! 4 KB file data blocks, at least one 4 KB metadata block per file that
//! has blocks in the segment, and a 512-byte summary block describing the
//! segment's contents. Partial segments carry the same fixed overheads
//! over less data — the source of the disk-space cost analyzed in §3 and
//! Table 4.

use nvfs_types::SimTime;

/// Segment size (512 KB, as in Sprite LFS).
pub const SEGMENT_BYTES: u64 = 512 * 1024;

/// Summary block appended to every segment.
pub const SUMMARY_BYTES: u64 = 512;

/// Size of one metadata block (one per file with blocks in the segment).
pub(crate) const METADATA_BLOCK_BYTES: u64 = 4096;

/// Why a segment was written to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentCause {
    /// A full segment's worth of dirty data had accumulated.
    Full,
    /// An application fsync forced the write before the segment filled.
    Fsync,
    /// The 30-second timeout flushed aged dirty data.
    Timeout,
    /// The NVRAM write buffer reached capacity.
    NvramFull,
    /// End-of-trace flush.
    Shutdown,
    /// Restart replay of the NVRAM write buffer after a server crash.
    Recovery,
    /// Lazy background drain of the NVRAM write-ahead log.
    WalDrain,
}

impl SegmentCause {
    /// Stable lowercase label (trace events, reports).
    pub const fn label(self) -> &'static str {
        match self {
            SegmentCause::Full => "full",
            SegmentCause::Fsync => "fsync",
            SegmentCause::Timeout => "timeout",
            SegmentCause::NvramFull => "nvram-full",
            SegmentCause::Shutdown => "shutdown",
            SegmentCause::Recovery => "recovery",
            SegmentCause::WalDrain => "wal-drain",
        }
    }
}

/// One segment written to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Sequence number in the log.
    pub id: u64,
    /// When it was written.
    pub time: SimTime,
    /// Why it was written.
    pub cause: SegmentCause,
    /// File data bytes (whole 4 KB blocks) the write *intended* to put on
    /// disk. For a torn segment this exceeds what actually landed.
    pub data_bytes: u64,
    /// Distinct files with blocks in the segment.
    pub file_count: usize,
    /// The FNV-1a checksum the 512-byte summary block stores, computed
    /// over the segment's intended (file, block) content list before the
    /// write started.
    pub stored_checksum: u64,
    /// The checksum of the content actually on disk. A torn write leaves
    /// this different from [`stored_checksum`](SegmentRecord::stored_checksum),
    /// which is exactly how roll-forward recovery detects the tear.
    pub content_checksum: u64,
}

impl SegmentRecord {
    /// Whether the on-disk content matches the summary checksum. Recovery
    /// replays the log only up to the last valid segment; anything after
    /// fails this check and is truncated
    /// (`SegmentWriter::roll_forward`).
    pub fn is_valid(&self) -> bool {
        self.stored_checksum == self.content_checksum
    }

    /// Metadata bytes: one 4 KB block per file, at least one.
    pub fn metadata_bytes(&self) -> u64 {
        (self.file_count.max(1) as u64) * METADATA_BLOCK_BYTES
    }

    /// Total bytes the segment occupies on disk.
    pub fn on_disk_bytes(&self) -> u64 {
        self.data_bytes + self.metadata_bytes() + SUMMARY_BYTES
    }

    /// Whether the segment is partial. The writer marks a segment
    /// [`SegmentCause::Full`] exactly when no further data block would have
    /// fit, so partiality is a property of the cause, independent of the
    /// configured segment size.
    pub fn is_partial(&self) -> bool {
        self.cause != SegmentCause::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of the segment's on-disk bytes that is metadata + summary
    /// overhead rather than file data.
    fn overhead_fraction(r: &SegmentRecord) -> f64 {
        (r.metadata_bytes() + SUMMARY_BYTES) as f64 / r.on_disk_bytes() as f64
    }

    fn record(data_blocks: u64, files: usize, cause: SegmentCause) -> SegmentRecord {
        SegmentRecord {
            id: 0,
            time: SimTime::ZERO,
            cause,
            data_bytes: data_blocks * 4096,
            file_count: files,
            stored_checksum: 0,
            content_checksum: 0,
        }
    }

    #[test]
    fn tiny_fsync_partial_has_a_third_overhead() {
        // §3: on /user6 "the space taken up by the metadata and summary
        // blocks in partial segments is about one third of the segment"
        // for ~8 KB partials.
        let r = record(2, 1, SegmentCause::Fsync);
        assert!(r.is_partial());
        let f = overhead_fraction(&r);
        assert!((0.3..0.4).contains(&f), "overhead {f}");
    }

    #[test]
    fn large_partial_has_eight_percent_overhead() {
        // §3: "On /sprite/src/kernel the overhead is only about 8% of each
        // partial segment" at ~55 KB.
        let r = record(13, 1, SegmentCause::Timeout); // 52 KB data
        let f = overhead_fraction(&r);
        assert!((0.06..0.10).contains(&f), "overhead {f}");
    }

    #[test]
    fn full_segment_overhead_is_about_one_percent() {
        let data = SEGMENT_BYTES - METADATA_BLOCK_BYTES - SUMMARY_BYTES;
        let r = SegmentRecord {
            id: 0,
            time: SimTime::ZERO,
            cause: SegmentCause::Full,
            data_bytes: data,
            file_count: 1,
            stored_checksum: 0,
            content_checksum: 0,
        };
        assert!(!r.is_partial());
        assert!(overhead_fraction(&r) < 0.01);
    }

    #[test]
    fn metadata_floor_is_one_block() {
        let r = record(1, 0, SegmentCause::Timeout);
        assert_eq!(r.metadata_bytes(), METADATA_BLOCK_BYTES);
    }
}
