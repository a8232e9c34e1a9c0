//! The append-only segment writer and the segment usage table.
//!
//! [`SegmentWriter`] packs dirty byte ranges into on-disk segments: whole
//! 4 KB data blocks, one 4 KB metadata block per file per segment, and a
//! 512-byte summary block (Figure 7). It can either write everything it is
//! given (an fsync or timeout flush) or emit only the naturally full
//! segments and hand the remainder back (normal log operation).
//!
//! [`SegmentUsage`] tracks which blocks have a live copy on disk, so a
//! crash or shutdown view of the log (`live_ranges`) omits deleted files.
//!
//! Placing a block costs one array index: each file keeps a dense vector
//! of live bits by block index. A segment is placed one file run at a
//! time, so the file map is searched once per run, not per block. Packing
//! sorts one flat block list, so a flush builds no tree.

use std::collections::BTreeMap;

use nvfs_types::{blocks_of_range, BlockId, ByteRange, FileId, RangeSet, SimTime};

use crate::layout::{SegmentCause, SegmentRecord, METADATA_BLOCK_BYTES, SUMMARY_BYTES};

/// Chunks of dirty data handed to the writer: per-file byte ranges.
pub type Chunks = Vec<(FileId, RangeSet)>;

/// Which blocks of each file have a live copy on disk.
///
/// Block indices are expected to be dense: a file's live bits reach its
/// largest placed index. In the bench, small, paper and mega server
/// workloads the largest index is 65,543 (the /swap1 page slots), so one
/// file's bits stay under 64 KB.
#[derive(Debug, Clone, Default)]
pub struct SegmentUsage {
    /// Each file's live bits by block index; a killed file has no entry.
    files: BTreeMap<FileId, Vec<bool>>,
}

impl SegmentUsage {
    /// Creates an empty table.
    pub fn new() -> Self {
        SegmentUsage::default()
    }

    /// Records that `block` now has a live copy on disk.
    pub fn place(&mut self, block: BlockId) {
        self.place_run(block.file, [block.index]);
    }

    /// Records that blocks `indices` of `file` now have a live copy on
    /// disk, with one file lookup for the whole run.
    fn place_run(&mut self, file: FileId, indices: impl IntoIterator<Item = u64>) {
        let live = self.files.entry(file).or_default();
        for index in indices {
            let i = usize::try_from(index).expect("block index fits in memory");
            if i >= live.len() {
                live.resize(i + 1, false);
            }
            live[i] = true;
        }
    }

    /// Kills every live block of `file` (the file was deleted).
    pub fn kill_file(&mut self, file: FileId) {
        self.files.remove(&file);
    }

    /// Total live bytes on disk.
    pub fn total_live_bytes(&self) -> u64 {
        self.files.values().flatten().filter(|&&l| l).count() as u64 * 4096
    }

    /// Every live byte range on disk, grouped per file — the durability
    /// oracle's view of what a post-crash scan of the log would find.
    pub fn live_ranges(&self) -> Vec<(FileId, RangeSet)> {
        self.files
            .iter()
            .map(|(&file, live)| {
                let indices = (0u64..).zip(live).filter(|&(_, &l)| l);
                (file, block_ranges(indices.map(|(index, _)| index)))
            })
            .collect()
    }
}

/// The byte ranges of ascending, distinct block `indices`, one insert per
/// run of consecutive blocks.
fn block_ranges(indices: impl Iterator<Item = u64>) -> RangeSet {
    let mut set = RangeSet::new();
    let mut run: Option<(u64, u64)> = None;
    for index in indices {
        run = match run {
            Some((lo, hi)) if hi == index => Some((lo, index + 1)),
            Some((lo, hi)) => {
                set.insert(ByteRange::new(lo * 4096, hi * 4096));
                Some((index, index + 1))
            }
            None => Some((index, index + 1)),
        };
    }
    if let Some((lo, hi)) = run {
        set.insert(ByteRange::new(lo * 4096, hi * 4096));
    }
    set
}

/// `blocks` (sorted by block id) handed back as per-file chunks.
fn block_chunks(blocks: &[BlockId]) -> Chunks {
    blocks
        .chunk_by(|a, b| a.file == b.file)
        .map(|run| (run[0].file, block_ranges(run.iter().map(|b| b.index))))
        .collect()
}

/// Every distinct 4 KB block of `chunks`, sorted by block id — the order
/// the segments lay them out in.
fn sorted_blocks(chunks: &Chunks) -> Vec<BlockId> {
    let mut blocks = Vec::new();
    for (file, ranges) in chunks {
        for r in ranges.iter() {
            blocks.extend(blocks_of_range(*file, r));
        }
    }
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

/// Distinct files among `blocks`, which are sorted by block id.
fn file_count(blocks: &[BlockId]) -> usize {
    blocks.chunk_by(|a, b| a.file == b.file).count()
}

/// On-disk bytes of a segment of `blocks` data blocks from `files` files,
/// budgeting one more incoming data block.
fn on_disk_with(blocks: usize, files: usize) -> u64 {
    blocks as u64 * 4096 + 4096 + files.max(1) as u64 * METADATA_BLOCK_BYTES + SUMMARY_BYTES
}

/// Packs dirty chunks into segments and appends them to the log.
#[derive(Debug, Clone)]
pub struct SegmentWriter {
    segment_bytes: u64,
    next_id: u64,
    records: Vec<SegmentRecord>,
    usage: SegmentUsage,
}

impl SegmentWriter {
    /// Creates a writer for segments of `segment_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` cannot hold at least one data block plus
    /// its metadata and summary.
    pub fn new(segment_bytes: u64) -> Self {
        assert!(
            segment_bytes >= 4096 + METADATA_BLOCK_BYTES + SUMMARY_BYTES,
            "segment size too small"
        );
        SegmentWriter {
            segment_bytes,
            next_id: 0,
            records: Vec::new(),
            usage: SegmentUsage::new(),
        }
    }

    /// Segments written so far.
    pub fn records(&self) -> &[SegmentRecord] {
        &self.records
    }

    /// The segments written, consuming the writer.
    pub(crate) fn into_records(self) -> Vec<SegmentRecord> {
        self.records
    }

    /// The usage table.
    pub fn usage(&self) -> &SegmentUsage {
        &self.usage
    }

    /// Mutable usage table (deletes kill blocks).
    pub fn usage_mut(&mut self) -> &mut SegmentUsage {
        &mut self.usage
    }

    /// Writes **all** of `chunks` to the log. Naturally full segments get
    /// [`SegmentCause::Full`]; the final, usually partial, segment gets
    /// `cause`.
    pub fn write_all(&mut self, t: SimTime, chunks: &Chunks, cause: SegmentCause) {
        let blocks = sorted_blocks(chunks);
        let tail = self.pack_full(t, &blocks);
        if tail < blocks.len() {
            self.emit_final(t, &blocks[tail..], cause);
        }
    }

    /// Writes only the naturally full segments that `chunks` can fill,
    /// returning the remainder (less than one segment's worth) to the
    /// caller.
    pub fn write_full_only(&mut self, t: SimTime, chunks: &Chunks) -> Chunks {
        let blocks = sorted_blocks(chunks);
        let tail = self.pack_full(t, &blocks);
        block_chunks(&blocks[tail..])
    }

    /// Core packing loop over `blocks`, sorted and distinct. Emits every
    /// segment that fills and returns where the unwritten tail starts.
    fn pack_full(&mut self, t: SimTime, blocks: &[BlockId]) -> usize {
        let mut start = 0;
        let mut files = 0;
        for i in 0..blocks.len() {
            // Blocks arrive sorted, so a file is new to the open segment
            // exactly when it differs from the previous block's.
            let adds_file = i == start || blocks[i - 1].file != blocks[i].file;
            if i > start
                && on_disk_with(i - start, files + usize::from(adds_file)) > self.segment_bytes
            {
                self.emit(t, &blocks[start..i], files, SegmentCause::Full);
                start = i;
                files = 0;
            }
            files += usize::from(i == start || adds_file);
        }
        start
    }

    /// Emits the final segment of a flush. A final chunk that leaves no
    /// room for another block is Full; `on_disk_with` already budgets one
    /// incoming block.
    fn emit_final(&mut self, t: SimTime, blocks: &[BlockId], cause: SegmentCause) {
        let files = file_count(blocks);
        let cause = if on_disk_with(blocks.len(), files) > self.segment_bytes {
            SegmentCause::Full
        } else {
            cause
        };
        self.emit(t, blocks, files, cause);
    }

    fn emit(&mut self, t: SimTime, blocks: &[BlockId], files: usize, cause: SegmentCause) {
        let id = self.next_id;
        self.next_id += 1;
        for run in blocks.chunk_by(|a, b| a.file == b.file) {
            self.usage
                .place_run(run[0].file, run.iter().map(|b| b.index));
        }
        let checksum = segment_checksum(blocks);
        let record = SegmentRecord {
            id,
            time: t,
            cause,
            data_bytes: blocks.len() as u64 * 4096,
            file_count: files,
            stored_checksum: checksum,
            content_checksum: checksum,
        };
        nvfs_obs::counter_add("lfs.segments_written", 1);
        nvfs_obs::counter_add("lfs.data_bytes", record.data_bytes);
        if record.is_partial() {
            nvfs_obs::counter_add("lfs.segments_partial", 1);
        }
        nvfs_obs::histogram_record(
            "lfs.segment_fill_pct",
            record.on_disk_bytes() * 100 / self.segment_bytes.max(1),
        );
        nvfs_obs::event("seg_write", t.as_micros())
            .str("cause", cause.label())
            .u64("seg", id)
            .u64("data_bytes", record.data_bytes)
            .u64("files", record.file_count as u64)
            .u64("partial", record.is_partial() as u64)
            .emit();
        self.records.push(record);
    }

    /// Like [`write_all`](SegmentWriter::write_all), but the **final**
    /// segment write is torn after `fraction` of its blocks: its summary
    /// checksum no longer matches the on-disk content, its blocks are not
    /// placed in the usage table, and the segment's intended chunks are
    /// returned so the caller can rewrite them after
    /// [`roll_forward`](SegmentWriter::roll_forward) truncates the tear.
    ///
    /// Naturally full prefix segments are written (and checksummed) intact.
    /// A fraction of 1.0 or more tears nothing: the write completes
    /// normally and an empty chunk list is returned.
    pub(crate) fn write_all_torn(
        &mut self,
        t: SimTime,
        chunks: &Chunks,
        cause: SegmentCause,
        fraction: f64,
    ) -> Chunks {
        let blocks = sorted_blocks(chunks);
        let tail = self.pack_full(t, &blocks);
        // The tail is the final segment exactly as `write_all` would pack it.
        let seg = &blocks[tail..];
        if seg.is_empty() {
            return Chunks::new();
        }
        let intended = seg.len();
        let written = (intended as f64 * fraction) as usize;
        if written >= intended {
            self.emit_final(t, seg, cause);
            return Chunks::new();
        }
        let files = file_count(seg);

        let id = self.next_id;
        self.next_id += 1;
        let record = SegmentRecord {
            id,
            time: t,
            cause,
            data_bytes: intended as u64 * 4096,
            file_count: files,
            stored_checksum: segment_checksum(seg),
            content_checksum: segment_checksum(&seg[..written]),
        };
        debug_assert!(!record.is_valid(), "a torn segment must fail its checksum");
        nvfs_obs::counter_add("lfs.segments_torn", 1);
        nvfs_obs::event("seg_write", t.as_micros())
            .str("cause", cause.label())
            .u64("seg", id)
            .u64("data_bytes", record.data_bytes)
            .u64("files", record.file_count as u64)
            .u64("partial", record.is_partial() as u64)
            .u64("torn", 1)
            .emit();
        self.records.push(record);
        block_chunks(seg)
    }

    /// Roll-forward recovery over the log tail: scans back from the end,
    /// truncating every segment whose on-disk content fails its summary
    /// checksum, and stops at the first valid segment. Torn tails become
    /// *detected* truncations instead of silently replayed garbage.
    ///
    /// Idempotent: a second call finds a valid tail and truncates nothing,
    /// which is what makes replay-after-recovery safe to repeat.
    pub(crate) fn roll_forward(&mut self, t: SimTime) -> RollForward {
        let mut out = RollForward::default();
        while let Some(last) = self.records.last() {
            out.scanned += 1;
            if last.is_valid() {
                break;
            }
            // Torn segments never placed blocks, so the usage table holds
            // nothing of them.
            let torn = self.records.pop().expect("just peeked");
            out.truncated_segments += 1;
            out.truncated_data_bytes += torn.data_bytes;
        }
        if out.truncated_segments > 0 {
            nvfs_obs::counter_add("lfs.segments_truncated", out.truncated_segments as u64);
            nvfs_obs::counter_add("lfs.bytes_truncated", out.truncated_data_bytes);
            nvfs_obs::event("roll_forward", t.as_micros())
                .u64("scanned", out.scanned as u64)
                .u64("truncated_segments", out.truncated_segments as u64)
                .u64("truncated_bytes", out.truncated_data_bytes)
                .emit();
        }
        out
    }
}

/// What one [`SegmentWriter::roll_forward`] pass found and truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RollForward {
    /// Trailing segments examined (truncated ones plus the first valid).
    scanned: usize,
    /// Checksum-invalid segments removed from the log tail.
    truncated_segments: usize,
    /// Intended data bytes of the truncated segments — exactly the bytes
    /// that must be written again from NVRAM.
    pub(crate) truncated_data_bytes: u64,
}

/// The summary-block checksum: 64-bit FNV-1a over the segment's (file,
/// block-index) content list, in segment order. The simulation carries no
/// payload bytes, so the block list *is* the content identity; any torn
/// prefix of it hashes differently, which is all a checksum must provide.
/// The hasher is the shared [`nvfs_types::framing`] implementation, so the
/// segment summaries and the WAL records use one checksum definition.
fn segment_checksum(blocks: &[BlockId]) -> u64 {
    let mut d = nvfs_types::framing::Fnv64::new();
    // "{file}:{index};" at most: 10 + 1 + 20 + 1 bytes.
    let mut buf = [0u8; 32];
    for b in blocks {
        let mut n = put_decimal(&mut buf, 0, u64::from(b.file.0));
        buf[n] = b':';
        n = put_decimal(&mut buf, n + 1, b.index);
        buf[n] = b';';
        d.update_bytes(&buf[..=n]);
    }
    d.value()
}

/// Writes `v` in decimal into `buf` at `at`, returning the end offset.
fn put_decimal(buf: &mut [u8], at: usize, mut v: u64) -> usize {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let len = digits.len() - i;
    buf[at..at + len].copy_from_slice(&digits[i..]);
    at + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SEGMENT_BYTES;
    use nvfs_types::ByteRange;

    fn chunk(file: u32, bytes: u64) -> (FileId, RangeSet) {
        (FileId(file), RangeSet::from_range(ByteRange::new(0, bytes)))
    }

    #[test]
    fn summary_checksum_matches_the_obs_digest() {
        // The shared nvfs-types hasher must stay bit-identical to the obs
        // digest the summaries were originally computed with, or every
        // golden checksum in the repo silently changes.
        let blocks = vec![
            BlockId::new(FileId(3), 0),
            BlockId::new(FileId(3), 1),
            BlockId::new(FileId(7), 2),
        ];
        let mut d = nvfs_obs::digest::Digest::new();
        for b in &blocks {
            d.update(&format!("{}:{};", b.file.0, b.index));
        }
        assert_eq!(segment_checksum(&blocks), d.value());
    }

    #[test]
    fn summary_checksum_formats_extreme_ids_like_format() {
        let blocks = vec![
            BlockId::new(FileId(0), 0),
            BlockId::new(FileId(u32::MAX), u64::MAX),
            BlockId::new(FileId(10), 1_000_000_007),
        ];
        let mut d = nvfs_types::framing::Fnv64::new();
        for b in &blocks {
            d.update(&format!("{}:{};", b.file.0, b.index));
        }
        assert_eq!(segment_checksum(&blocks), d.value());
    }

    #[test]
    fn small_flush_is_one_partial_segment() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(SimTime::ZERO, &vec![chunk(0, 8192)], SegmentCause::Fsync);
        assert_eq!(w.records().len(), 1);
        let r = w.records()[0];
        assert_eq!(r.cause, SegmentCause::Fsync);
        assert_eq!(r.data_bytes, 8192);
        assert!(r.is_partial());
    }

    #[test]
    fn large_flush_splits_into_full_segments() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        // ~1.2 MB -> 2 full + 1 partial.
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 1_258_291)],
            SegmentCause::Timeout,
        );
        let causes: Vec<SegmentCause> = w.records().iter().map(|r| r.cause).collect();
        assert_eq!(
            causes,
            vec![
                SegmentCause::Full,
                SegmentCause::Full,
                SegmentCause::Timeout
            ]
        );
        for r in &w.records()[..2] {
            assert!(!r.is_partial(), "intermediate segments are full");
        }
    }

    #[test]
    fn write_full_only_returns_remainder() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        let rem = w.write_full_only(SimTime::ZERO, &vec![chunk(0, 700 * 1024)]);
        assert_eq!(w.records().len(), 1);
        let rem_bytes: u64 = rem.iter().map(|(_, r)| r.len_bytes()).sum();
        // Every block is either on disk or in the remainder.
        let seg_data = w.records()[0].data_bytes;
        assert!(!w.records()[0].is_partial());
        assert_eq!(rem_bytes + seg_data, 700 * 1024);
    }

    #[test]
    fn partial_blocks_round_to_whole_blocks() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(SimTime::ZERO, &vec![chunk(0, 100)], SegmentCause::Fsync);
        assert_eq!(w.records()[0].data_bytes, 4096);
    }

    #[test]
    fn metadata_counts_distinct_files() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 4096), chunk(1, 4096), chunk(2, 4096)],
            SegmentCause::Timeout,
        );
        let r = w.records()[0];
        assert_eq!(r.file_count, 3);
        assert_eq!(r.metadata_bytes(), 3 * METADATA_BLOCK_BYTES);
    }

    #[test]
    fn usage_tracks_overwrites_and_deletes() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(SimTime::ZERO, &vec![chunk(0, 16384)], SegmentCause::Timeout);
        w.write_all(SimTime::ZERO, &vec![chunk(1, 4096)], SegmentCause::Timeout);
        // Rewrite the same blocks: each block is still live once.
        w.write_all(
            SimTime::from_secs(1),
            &vec![chunk(0, 16384)],
            SegmentCause::Timeout,
        );
        assert_eq!(w.usage().total_live_bytes(), 16384 + 4096);
        w.usage_mut().kill_file(FileId(0));
        assert_eq!(w.usage().total_live_bytes(), 4096);
        assert_eq!(w.usage().live_ranges(), vec![chunk(1, 4096)]);
    }

    #[test]
    fn normal_segments_pass_their_checksum() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 1 << 20)],
            SegmentCause::Timeout,
        );
        assert!(w.records().iter().all(|r| r.is_valid()));
        assert_ne!(w.records()[0].stored_checksum, 0);
    }

    #[test]
    fn torn_write_fails_checksum_and_places_no_blocks() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        let tail = w.write_all_torn(
            SimTime::ZERO,
            &vec![chunk(0, 16384)],
            SegmentCause::Recovery,
            0.5,
        );
        assert_eq!(tail, vec![chunk(0, 16384)]);
        let r = w.records()[0];
        assert!(!r.is_valid());
        assert_eq!(r.data_bytes, 16384);
        // Torn segments never enter the usage table.
        assert_eq!(w.usage().total_live_bytes(), 0);
    }

    #[test]
    fn torn_write_keeps_full_prefix_segments_intact() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        // ~1.2 MB -> 2 full (valid) + 1 torn partial.
        let tail = w.write_all_torn(
            SimTime::ZERO,
            &vec![chunk(0, 1_200_000)],
            SegmentCause::Recovery,
            0.3,
        );
        assert!(!tail.is_empty());
        let records = w.records();
        assert_eq!(records.len(), 3);
        assert!(records[0].is_valid());
        assert!(records[1].is_valid());
        assert!(!records[2].is_valid());
        let tail_bytes: u64 = tail.iter().map(|(_, s)| s.len_bytes()).sum();
        assert_eq!(records[2].data_bytes, tail_bytes);
    }

    #[test]
    fn fraction_one_is_not_torn() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        let tail = w.write_all_torn(
            SimTime::ZERO,
            &vec![chunk(0, 8192)],
            SegmentCause::Recovery,
            1.0,
        );
        assert!(tail.is_empty());
        assert!(w.records()[0].is_valid());
        assert_eq!(w.usage().total_live_bytes(), 8192);
    }

    #[test]
    fn roll_forward_truncates_only_the_torn_tail() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(SimTime::ZERO, &vec![chunk(0, 8192)], SegmentCause::Fsync);
        w.write_all_torn(
            SimTime::from_secs(1),
            &vec![chunk(1, 12288)],
            SegmentCause::Recovery,
            0.5,
        );
        let rolled = w.roll_forward(SimTime::from_secs(2));
        assert_eq!(rolled.truncated_segments, 1);
        assert_eq!(rolled.truncated_data_bytes, 12288);
        assert_eq!(rolled.scanned, 2);
        assert_eq!(w.records().len(), 1);
        assert!(w.records()[0].is_valid());
        // Idempotent: a second pass finds a valid tail and does nothing.
        let again = w.roll_forward(SimTime::from_secs(3));
        assert_eq!(again.truncated_segments, 0);
        assert_eq!(again.truncated_data_bytes, 0);
        assert_eq!(w.records().len(), 1);
    }
}
