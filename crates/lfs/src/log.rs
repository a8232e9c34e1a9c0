//! The append-only segment writer and the segment usage table.
//!
//! [`SegmentWriter`] packs dirty byte ranges into on-disk segments: whole
//! 4 KB data blocks, one 4 KB metadata block per file per segment, and a
//! 512-byte summary block (Figure 7). It can either write everything it is
//! given (an fsync or timeout flush) or emit only the naturally full
//! segments and hand the remainder back (normal log operation).
//!
//! [`SegmentUsage`] tracks which segment currently holds each live block,
//! so overwrites and deletes leave dead space behind for the
//! [cleaner](crate::cleaner) to reclaim.
//!
//! Placing a block costs O(1): block locations sit in a lookup-only
//! [`BlockMap`] (never iterated, so hash order reaches no output), and live
//! counts in a vector indexed by the writer's dense segment ids. Packing
//! sorts one flat block list, so a flush builds no tree.

use std::collections::BTreeMap;

use nvfs_types::{blocks_of_range, BlockId, BlockMap, ByteRange, FileId, RangeSet, SimTime};

use crate::layout::{SegmentCause, SegmentRecord, METADATA_BLOCK_BYTES, SUMMARY_BYTES};

/// Chunks of dirty data handed to the writer: per-file byte ranges.
pub type Chunks = Vec<(FileId, RangeSet)>;

/// The live count of a segment id with no table entry: never written, or
/// already evacuated.
const ABSENT: u32 = u32::MAX;

/// Where every live block lives, and how much live data each segment holds.
///
/// Segment ids are expected to be dense, as [`SegmentWriter`] hands them
/// out: the table keeps one counter per id up to the largest placed.
#[derive(Debug, Clone, Default)]
pub struct SegmentUsage {
    /// The segment holding each live block. Lookups only: never iterated.
    locs: BlockMap<u64>,
    /// Live blocks per segment id, or [`ABSENT`]. A segment whose blocks
    /// all died keeps a zero count until it is evacuated.
    live: Vec<u32>,
    /// Segment ids whose count is not [`ABSENT`].
    present: usize,
    /// Each file's live block indices, unordered. A file with no live
    /// block has no entry.
    files: BTreeMap<FileId, Vec<u64>>,
}

impl SegmentUsage {
    /// Creates an empty table.
    pub fn new() -> Self {
        SegmentUsage::default()
    }

    /// Records that `block` now lives in segment `seg`, killing any older
    /// copy.
    pub fn place(&mut self, block: BlockId, seg: u64) {
        let idx = seg as usize;
        if idx >= self.live.len() {
            self.live.resize(idx + 1, ABSENT);
        }
        match self.locs.insert(block, seg) {
            // A block's segment is present until evacuated, and evacuation
            // drops the block, so the old count is never ABSENT.
            Some(old) => self.live[old as usize] -= 1,
            None => self.files.entry(block.file).or_default().push(block.index),
        }
        let count = &mut self.live[idx];
        if *count == ABSENT {
            *count = 0;
            self.present += 1;
        }
        *count += 1;
    }

    /// Kills every live block of `file` (the file was deleted).
    pub fn kill_file(&mut self, file: FileId) {
        for index in self.files.remove(&file).unwrap_or_default() {
            if let Some(seg) = self.locs.remove(&BlockId::new(file, index)) {
                self.live[seg as usize] -= 1;
            }
        }
    }

    /// Live blocks in segment `seg`, or `None` if it has no entry.
    fn count(&self, seg: u64) -> Option<u32> {
        self.live
            .get(usize::try_from(seg).ok()?)
            .copied()
            .filter(|&c| c != ABSENT)
    }

    /// Live bytes in segment `seg`.
    pub fn live_bytes(&self, seg: u64) -> u64 {
        self.count(seg).map_or(0, |c| u64::from(c) * 4096)
    }

    /// Number of segments on disk (live or dead-but-unreclaimed).
    pub fn segment_count(&self) -> usize {
        self.present
    }

    /// The `n` segments with the least live data (the cleaner's victims).
    pub fn least_utilized(&self, n: usize) -> Vec<u64> {
        let mut segs: Vec<(u32, u64)> = self
            .live
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != ABSENT)
            .map(|(id, &c)| (c, id as u64))
            .collect();
        segs.sort_unstable();
        segs.into_iter().take(n).map(|(_, id)| id).collect()
    }

    /// Removes segment `seg` from the table, returning its live blocks in
    /// block order. Costs O(live blocks) when `seg` holds any.
    pub fn evacuate(&mut self, seg: u64) -> Vec<BlockId> {
        let Some(live) = self.count(seg) else {
            return Vec::new();
        };
        self.live[seg as usize] = ABSENT;
        self.present -= 1;
        let mut out = Vec::with_capacity(live as usize);
        if live == 0 {
            return out;
        }
        let locs = &mut self.locs;
        for (&file, indices) in &mut self.files {
            let start = out.len();
            indices.retain(|&index| {
                let b = BlockId::new(file, index);
                if locs.get(&b) == Some(&seg) {
                    locs.remove(&b);
                    out.push(b);
                    false
                } else {
                    true
                }
            });
            out[start..].sort_unstable();
            if out.len() == live as usize {
                break;
            }
        }
        self.files.retain(|_, indices| !indices.is_empty());
        out
    }

    /// Total live bytes across all segments.
    pub fn total_live_bytes(&self) -> u64 {
        self.locs.len() as u64 * 4096
    }

    /// Every live byte range on disk, grouped per file — the durability
    /// oracle's view of what a post-crash scan of the log would find.
    pub fn live_ranges(&self) -> Vec<(FileId, RangeSet)> {
        let mut sorted = Vec::new();
        self.files
            .iter()
            .map(|(&file, indices)| {
                sorted.clear();
                sorted.extend_from_slice(indices);
                sorted.sort_unstable();
                (file, block_ranges(sorted.iter().copied()))
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
    pub fn into_records(self) -> Vec<SegmentRecord> {
        self.records
    }

    /// The usage table (for the cleaner).
    pub fn usage(&self) -> &SegmentUsage {
        &self.usage
    }

    /// Mutable usage table (deletes kill blocks).
    pub fn usage_mut(&mut self) -> &mut SegmentUsage {
        &mut self.usage
    }

    /// Writes **all** of `chunks` to the log. Naturally full segments get
    /// [`SegmentCause::Full`] (unless `uniform_cause` is set); the final,
    /// usually partial, segment gets `cause`. Returns the number of
    /// segments written.
    pub fn write_all(
        &mut self,
        t: SimTime,
        chunks: &Chunks,
        cause: SegmentCause,
        uniform_cause: bool,
    ) -> usize {
        let blocks = sorted_blocks(chunks);
        let (written, tail) = self.pack(t, &blocks, Some((cause, uniform_cause)));
        debug_assert_eq!(tail, blocks.len());
        written
    }

    /// Writes only the naturally full segments that `chunks` can fill,
    /// returning the remainder (less than one segment's worth) to the
    /// caller. Returns `(segments_written, remainder)`.
    pub fn write_full_only(&mut self, t: SimTime, chunks: &Chunks) -> (usize, Chunks) {
        let blocks = sorted_blocks(chunks);
        let (written, tail) = self.pack(t, &blocks, None);
        (written, block_chunks(&blocks[tail..]))
    }

    /// Core packing loop over `blocks`, sorted and distinct. Emits every
    /// segment that fills; with `final_cause = Some(..)` the last one too.
    /// Returns the segments written and where the unwritten tail starts
    /// (`blocks.len()` when everything was flushed).
    fn pack(
        &mut self,
        t: SimTime,
        blocks: &[BlockId],
        final_cause: Option<(SegmentCause, bool)>,
    ) -> (usize, usize) {
        let full_cause = match final_cause {
            Some((c, true)) => c,
            _ => SegmentCause::Full,
        };
        let mut start = 0;
        let mut files = 0;
        let mut written = 0;
        for i in 0..blocks.len() {
            // Blocks arrive sorted, so a file is new to the open segment
            // exactly when it differs from the previous block's.
            let adds_file = i == start || blocks[i - 1].file != blocks[i].file;
            if i > start
                && on_disk_with(i - start, files + usize::from(adds_file)) > self.segment_bytes
            {
                self.emit(t, &blocks[start..i], files, full_cause);
                written += 1;
                start = i;
                files = 0;
            }
            files += usize::from(i == start || adds_file);
        }

        match final_cause {
            Some((cause, _)) if start < blocks.len() => {
                self.emit_final(t, &blocks[start..], files, cause);
                (written + 1, blocks.len())
            }
            _ => (written, start),
        }
    }

    /// Emits the final segment of a flush. A final chunk that leaves no
    /// room for another block is Full; `on_disk_with` already budgets one
    /// incoming block.
    fn emit_final(&mut self, t: SimTime, blocks: &[BlockId], files: usize, cause: SegmentCause) {
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
        for b in blocks {
            self.usage.place(*b, id);
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
    pub fn write_all_torn(
        &mut self,
        t: SimTime,
        chunks: &Chunks,
        cause: SegmentCause,
        fraction: f64,
    ) -> Chunks {
        let blocks = sorted_blocks(chunks);
        let (_, tail) = self.pack(t, &blocks, None);
        // The tail is the final segment exactly as `write_all` would pack it.
        let seg = &blocks[tail..];
        if seg.is_empty() {
            return Chunks::new();
        }
        let files = file_count(seg);
        let intended = seg.len();
        let written = (intended as f64 * fraction) as usize;
        if written >= intended {
            self.emit_final(t, seg, files, cause);
            return Chunks::new();
        }

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
    pub fn roll_forward(&mut self, t: SimTime) -> RollForward {
        let mut out = RollForward::default();
        while let Some(last) = self.records.last() {
            out.scanned += 1;
            if last.is_valid() {
                break;
            }
            let torn = self.records.pop().expect("just peeked");
            // Torn segments never placed blocks, but evacuate defensively
            // so the usage table cannot reference a truncated segment.
            self.usage.evacuate(torn.id);
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
pub struct RollForward {
    /// Trailing segments examined (truncated ones plus the first valid).
    pub scanned: usize,
    /// Checksum-invalid segments removed from the log tail.
    pub truncated_segments: usize,
    /// Intended data bytes of the truncated segments — exactly the bytes
    /// that must be written again from NVRAM.
    pub truncated_data_bytes: u64,
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
        let n = w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 8192)],
            SegmentCause::Fsync,
            false,
        );
        assert_eq!(n, 1);
        let r = w.records()[0];
        assert_eq!(r.cause, SegmentCause::Fsync);
        assert_eq!(r.data_bytes, 8192);
        assert!(r.is_partial());
    }

    #[test]
    fn large_flush_splits_into_full_segments() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        // ~1.2 MB -> 2 full + 1 partial.
        let n = w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 1_258_291)],
            SegmentCause::Timeout,
            false,
        );
        assert_eq!(n, 3);
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
        let (n, rem) = w.write_full_only(SimTime::ZERO, &vec![chunk(0, 700 * 1024)]);
        assert_eq!(n, 1);
        let rem_bytes: u64 = rem.iter().map(|(_, r)| r.len_bytes()).sum();
        // Every block is either on disk or in the remainder.
        let seg_data = w.records()[0].data_bytes;
        assert!(!w.records()[0].is_partial());
        assert_eq!(rem_bytes + seg_data, 700 * 1024);
    }

    #[test]
    fn partial_blocks_round_to_whole_blocks() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 100)],
            SegmentCause::Fsync,
            false,
        );
        assert_eq!(w.records()[0].data_bytes, 4096);
    }

    #[test]
    fn metadata_counts_distinct_files() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 4096), chunk(1, 4096), chunk(2, 4096)],
            SegmentCause::Timeout,
            false,
        );
        let r = w.records()[0];
        assert_eq!(r.file_count, 3);
        assert_eq!(r.metadata_bytes(), 3 * METADATA_BLOCK_BYTES);
    }

    #[test]
    fn usage_tracks_overwrites_and_deletes() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 16384)],
            SegmentCause::Timeout,
            false,
        );
        let first = w.records()[0].id;
        assert_eq!(w.usage().live_bytes(first), 16384);
        // Rewrite the same blocks: the old segment's data dies.
        w.write_all(
            SimTime::from_secs(1),
            &vec![chunk(0, 16384)],
            SegmentCause::Timeout,
            false,
        );
        assert_eq!(w.usage().live_bytes(first), 0);
        let second = w.records()[1].id;
        assert_eq!(w.usage().live_bytes(second), 16384);
        w.usage_mut().kill_file(FileId(0));
        assert_eq!(w.usage().total_live_bytes(), 0);
    }

    #[test]
    fn least_utilized_orders_by_live_data() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 16384)],
            SegmentCause::Timeout,
            false,
        );
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(1, 4096)],
            SegmentCause::Timeout,
            false,
        );
        let victims = w.usage().least_utilized(1);
        assert_eq!(victims, vec![w.records()[1].id]);
        let blocks = w.usage_mut().evacuate(victims[0]);
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn uniform_cause_marks_cleaner_segments() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 1 << 20)],
            SegmentCause::Cleaner,
            true,
        );
        assert!(w.records().iter().all(|r| r.cause == SegmentCause::Cleaner));
    }

    #[test]
    fn normal_segments_pass_their_checksum() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 1 << 20)],
            SegmentCause::Timeout,
            false,
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
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 8192)],
            SegmentCause::Fsync,
            false,
        );
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
