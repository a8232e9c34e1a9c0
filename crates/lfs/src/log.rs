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
//! Packing never walks single blocks. A flush becomes one sorted list of
//! per-file runs of consecutive blocks; a segment takes a run's blocks up
//! to a closed-form count of what still fits, places them with one slice
//! fill of the file's dense live bits, and folds them into the summary
//! checksum by counting the block index up in decimal.

use std::collections::BTreeMap;

use nvfs_types::block::block_span;
use nvfs_types::{BlockId, ByteRange, FileId, RangeSet, SimTime};

use crate::layout::{SegmentCause, SegmentRecord, METADATA_BLOCK_BYTES, SUMMARY_BYTES};

/// Chunks of dirty data handed to the writer: per-file byte ranges.
pub type Chunks = Vec<(FileId, RangeSet)>;

/// Blocks `first..=last` of one file. The end is inclusive, so a run that
/// reaches block index `u64::MAX` needs no index past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Run {
    file: FileId,
    first: u64,
    last: u64,
}

impl Run {
    /// Blocks in the run.
    fn len(self) -> u64 {
        self.last - self.first + 1
    }

    /// The run's first `n` blocks, `1 <= n <= len`.
    fn head(self, n: u64) -> Run {
        Run {
            last: self.first + (n - 1),
            ..self
        }
    }

    /// The bytes the run's blocks cover.
    fn bytes(self) -> ByteRange {
        ByteRange::new(self.first * 4096, (self.last + 1) * 4096)
    }
}

/// Which blocks of each file have a live copy on disk.
///
/// Block indices are expected to be dense: a file's live bits reach its
/// largest placed index. In the bench, small and paper server workloads
/// the largest index is 65,543 (the /swap1 page slots), so one file's
/// bits stay under 64 KB.
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
        self.place_run(Run {
            file: block.file,
            first: block.index,
            last: block.index,
        });
    }

    /// Records that every block of `run` now has a live copy on disk.
    fn place_run(&mut self, run: Run) {
        let index = |i: u64| usize::try_from(i).expect("block index fits in memory");
        let (first, last) = (index(run.first), index(run.last));
        let live = self.files.entry(run.file).or_default();
        if last >= live.len() {
            live.resize(last + 1, false);
        }
        live[first..=last].fill(true);
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
                // One insert per run of live blocks.
                let mut end = 0u64;
                let ranges = live.chunk_by(|a, b| a == b).filter_map(|same| {
                    let start = end;
                    end += same.len() as u64;
                    same[0].then(|| ByteRange::new(start * 4096, end * 4096))
                });
                (file, ranges.collect())
            })
            .collect()
    }
}

/// `runs` (sorted, one file's runs adjacent) handed back as per-file
/// chunks.
fn run_chunks(runs: &[Run]) -> Chunks {
    runs.chunk_by(|a, b| a.file == b.file)
        .map(|same| (same[0].file, same.iter().map(|r| r.bytes()).collect()))
        .collect()
}

/// Fills `runs` with every 4 KB block of `chunks` as runs sorted by (file,
/// first block), the order the segments lay them out in. Runs of one file
/// that overlap or touch are merged, so each block appears once even when
/// two chunks name the same file.
fn sorted_runs(chunks: &Chunks, runs: &mut Vec<Run>) {
    runs.clear();
    runs.extend(chunks.iter().flat_map(|(file, ranges)| {
        ranges.iter().filter_map(move |r| {
            let (first, end) = block_span(r);
            (first < end).then(|| Run {
                file: *file,
                first,
                last: end - 1,
            })
        })
    }));
    runs.sort_unstable();
    runs.dedup_by(|run, kept| {
        let joins = run.file == kept.file && run.first <= kept.last.saturating_add(1);
        if joins {
            kept.last = kept.last.max(run.last);
        }
        joins
    });
}

/// On-disk bytes of a segment of `blocks` data blocks from `files` files,
/// budgeting one more incoming data block.
fn on_disk_with(blocks: u64, files: usize) -> u64 {
    blocks * 4096 + 4096 + files.max(1) as u64 * METADATA_BLOCK_BYTES + SUMMARY_BYTES
}

/// The segment being filled: its runs in segment order, their block
/// count and the distinct files among them.
#[derive(Debug, Clone, Default)]
struct OpenSegment {
    runs: Vec<Run>,
    blocks: u64,
    files: usize,
}

impl OpenSegment {
    fn clear(&mut self) {
        self.runs.clear();
        self.blocks = 0;
        self.files = 0;
    }
}

/// Packs dirty chunks into segments and appends them to the log.
///
/// Writing a segment records nothing in the metrics registry: the run
/// calls [`SegmentWriter::publish`] once, when it ends.
#[derive(Debug, Clone)]
pub struct SegmentWriter {
    segment_bytes: u64,
    next_id: u64,
    records: Vec<SegmentRecord>,
    usage: SegmentUsage,
    /// Scratch for one flush's sorted runs, kept to reuse its allocation.
    runs: Vec<Run>,
    /// The segment being filled, kept to reuse its allocation.
    open: OpenSegment,
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
            runs: Vec::new(),
            open: OpenSegment::default(),
        }
    }

    /// Segments written so far.
    pub fn records(&self) -> &[SegmentRecord] {
        &self.records
    }

    /// Adds the segments written to the `lfs.segments_written`,
    /// `lfs.data_bytes` and `lfs.segments_partial` counters and the
    /// `lfs.segment_fill_pct` histogram. Call it once, when the writer's run
    /// ends. Roll-forward drops every torn segment from the records, so they
    /// count exactly the segments written intact.
    pub fn publish(&self) {
        let records = &self.records;
        debug_assert!(records.iter().all(SegmentRecord::is_valid));
        let partial = records.iter().filter(|r| r.is_partial()).count();
        nvfs_obs::counter_add("lfs.segments_written", records.len() as u64);
        nvfs_obs::counter_add("lfs.data_bytes", records.iter().map(|r| r.data_bytes).sum());
        nvfs_obs::counter_add("lfs.segments_partial", partial as u64);
        let fill_pct = |r: &SegmentRecord| r.on_disk_bytes() * 100 / self.segment_bytes.max(1);
        nvfs_obs::histogram_record_all("lfs.segment_fill_pct", records.iter().map(fill_pct));
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
        self.pack_full(t, chunks);
        if self.open.blocks > 0 {
            self.emit_final(t, cause);
        }
    }

    /// Writes only the naturally full segments that `chunks` can fill,
    /// returning the remainder (less than one segment's worth) to the
    /// caller.
    pub fn write_full_only(&mut self, t: SimTime, chunks: &Chunks) -> Chunks {
        self.pack_full(t, chunks);
        run_chunks(&self.open.runs)
    }

    /// Blocks a segment already holding `blocks` blocks from `files` files
    /// (the incoming run's file counted) still takes: a block fits while
    /// [`on_disk_with`] stays within the segment, and the first block of a
    /// segment always fits.
    fn room(&self, blocks: u64, files: usize) -> u64 {
        let capacity = self
            .segment_bytes
            .checked_sub(on_disk_with(0, files))
            .map_or(1, |spare| spare / 4096 + 1);
        capacity.saturating_sub(blocks)
    }

    /// Core packing loop over the blocks of `chunks`, as sorted and merged
    /// runs. Emits every segment that fills and leaves the unwritten tail
    /// in `open`.
    fn pack_full(&mut self, t: SimTime, chunks: &Chunks) {
        let mut runs = std::mem::take(&mut self.runs);
        sorted_runs(chunks, &mut runs);
        self.open.clear();
        for &run in &runs {
            let mut rest = run;
            loop {
                // Runs arrive sorted, so a file is new to the open segment
                // exactly when it differs from the previous run's.
                let seg = &self.open;
                let adds_file = seg.runs.last().is_none_or(|prev| prev.file != rest.file);
                let files = seg.files + usize::from(adds_file);
                let take = self.room(seg.blocks, files).min(rest.len());
                if take > 0 {
                    self.open.runs.push(rest.head(take));
                    self.open.blocks += take;
                    self.open.files = files;
                }
                if take == rest.len() {
                    break;
                }
                self.emit(t, SegmentCause::Full);
                self.open.clear();
                rest.first += take;
            }
        }
        self.runs = runs;
    }

    /// Emits the final segment of a flush. A final chunk that leaves no
    /// room for another block is Full; `on_disk_with` already budgets one
    /// incoming block.
    fn emit_final(&mut self, t: SimTime, cause: SegmentCause) {
        let cause = if on_disk_with(self.open.blocks, self.open.files) > self.segment_bytes {
            SegmentCause::Full
        } else {
            cause
        };
        self.emit(t, cause);
    }

    /// Writes the open segment as `cause`.
    fn emit(&mut self, t: SimTime, cause: SegmentCause) {
        let seg = &self.open;
        let id = self.next_id;
        self.next_id += 1;
        for &run in &seg.runs {
            self.usage.place_run(run);
        }
        let checksum = segment_checksum(seg.runs.iter().copied());
        let record = SegmentRecord {
            id,
            time: t,
            cause,
            data_bytes: seg.blocks * 4096,
            file_count: seg.files,
            stored_checksum: checksum,
            content_checksum: checksum,
        };
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
    /// returned so the caller can rewrite them after recovery truncates
    /// the tear.
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
        // The tail is the final segment exactly as `write_all` would pack it.
        self.pack_full(t, chunks);
        let seg = &self.open;
        if seg.blocks == 0 {
            return Chunks::new();
        }
        let intended = seg.blocks;
        let written = (intended as f64 * fraction) as u64;
        if written >= intended {
            self.emit_final(t, cause);
            return Chunks::new();
        }

        let id = self.next_id;
        self.next_id += 1;
        let record = SegmentRecord {
            id,
            time: t,
            cause,
            data_bytes: intended * 4096,
            file_count: seg.files,
            stored_checksum: segment_checksum(seg.runs.iter().copied()),
            content_checksum: segment_checksum(first_blocks(&seg.runs, written)),
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
        run_chunks(&seg.runs)
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

/// The first `n` blocks of `runs`, as runs.
fn first_blocks(runs: &[Run], mut n: u64) -> impl Iterator<Item = Run> + '_ {
    runs.iter().map_while(move |&run| {
        let take = run.len().min(n);
        n -= take;
        (take > 0).then(|| run.head(take))
    })
}

/// The summary-block checksum: 64-bit FNV-1a over the segment's (file,
/// block-index) content list, in segment order. The simulation carries no
/// payload bytes, so the block list *is* the content identity; any torn
/// prefix of it hashes differently, which is all a checksum must provide.
/// The hasher is the shared [`nvfs_types::framing`] implementation, so the
/// segment summaries and the WAL records use one checksum definition.
///
/// Each block hashes as the text `"{file}:{index};"`. Within a run the
/// index text is counted up in place rather than formatted again.
fn segment_checksum(runs: impl IntoIterator<Item = Run>) -> u64 {
    let mut d = nvfs_types::framing::Fnv64::new();
    // "{file}:{index};" at most: 10 + 1 + 20 + 1 bytes.
    let mut buf = [0u8; 32];
    for run in runs {
        let digits = put_decimal(&mut buf, 0, u64::from(run.file.0)) + 1;
        buf[digits - 1] = b':';
        let mut end = put_decimal(&mut buf, digits, run.first);
        buf[end] = b';';
        d.update_bytes(&buf[..=end]);
        for _ in run.first..run.last {
            end = increment_decimal(&mut buf, digits, end);
            d.update_bytes(&buf[..=end]);
        }
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

/// Adds one to the decimal number in `buf[from..end]`, which is followed
/// by the `;` at `end`, and returns where the `;` now sits.
fn increment_decimal(buf: &mut [u8], from: usize, end: usize) -> usize {
    for digit in buf[from..end].iter_mut().rev() {
        if *digit < b'9' {
            *digit += 1;
            return end;
        }
        *digit = b'0';
    }
    // Every digit was a 9: the number grows by one digit, a 1 and zeros.
    buf[from] = b'1';
    buf[end] = b'0';
    buf[end + 1] = b';';
    end + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SEGMENT_BYTES;
    use nvfs_types::ByteRange;

    fn chunk(file: u32, bytes: u64) -> (FileId, RangeSet) {
        (FileId(file), RangeSet::from_range(ByteRange::new(0, bytes)))
    }

    fn run(file: u32, first: u64, last: u64) -> Run {
        Run {
            file: FileId(file),
            first,
            last,
        }
    }

    /// FNV-1a over `"{file}:{index};"` for every block of `runs`, each
    /// index formatted by `format!`.
    fn formatted_checksum(runs: &[Run]) -> u64 {
        let mut d = nvfs_types::framing::Fnv64::new();
        for r in runs {
            for index in r.first..=r.last {
                d.update(&format!("{}:{};", r.file.0, index));
            }
        }
        d.value()
    }

    #[test]
    fn summary_checksum_formats_extreme_ids_like_format() {
        let runs = [
            run(0, 0, 0),
            run(u32::MAX, u64::MAX, u64::MAX),
            run(10, 1_000_000_007, 1_000_000_007),
        ];
        assert_eq!(segment_checksum(runs), formatted_checksum(&runs));
    }

    #[test]
    fn counting_up_carries_like_format() {
        // Runs crossing a carry into a new digit, a carry inside the
        // number, and the last indices a u64 holds.
        let runs = [
            run(1, 0, 12),
            run(2, 95, 101),
            run(4_294_967_295, 999_998, 1_000_001),
            run(5, 1_099, 1_101),
            run(6, u64::MAX - 2, u64::MAX),
        ];
        assert_eq!(segment_checksum(runs), formatted_checksum(&runs));
    }

    #[test]
    fn first_blocks_cuts_inside_a_run() {
        let runs = [run(1, 0, 3), run(2, 10, 11)];
        let cut: Vec<Run> = first_blocks(&runs, 5).collect();
        assert_eq!(cut, vec![run(1, 0, 3), run(2, 10, 10)]);
        assert_eq!(first_blocks(&runs, 0).count(), 0);
        assert_eq!(first_blocks(&runs, 9).count(), 2);
    }

    #[test]
    fn overlapping_and_touching_runs_merge() {
        let chunks = vec![
            (
                FileId(2),
                [ByteRange::new(0, 100), ByteRange::new(200, 5000)]
                    .into_iter()
                    .collect(),
            ),
            chunk(1, 4096),
            (FileId(2), RangeSet::from_range(ByteRange::new(8192, 9000))),
            (
                FileId(2),
                RangeSet::from_range(ByteRange::new(20000, 20001)),
            ),
        ];
        let mut runs = vec![run(9, 9, 9)];
        sorted_runs(&chunks, &mut runs);
        assert_eq!(runs, vec![run(1, 0, 0), run(2, 0, 2), run(2, 4, 4)]);
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
