//! Differential test of the run-based segment packer against the
//! per-block packer it replaced: a sorted list of every distinct block,
//! walked one block at a time, each block formatted into the summary
//! checksum on its own.
//!
//! Both writers take the same seeded chunk lists — files named by several
//! chunks, overlapping and unaligned ranges, many one-block files — at the
//! smallest segment that holds a block, at 64 KB and at [`SEGMENT_BYTES`],
//! through `write_all`, `write_full_only` and `write_all_torn`. After every
//! call they must agree on every segment record, on the chunks handed
//! back and on the live ranges of the usage table.
//!
//! Driven by a seeded [`nvfs_rng::StdRng`] so failures reproduce exactly.

use std::collections::BTreeSet;

use nvfs_lfs::layout::{SegmentCause, SegmentRecord, SEGMENT_BYTES, SUMMARY_BYTES};
use nvfs_lfs::{Chunks, SegmentWriter};
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::{blocks_of_range, BlockId, ByteRange, FileId, RangeSet, SimTime};

/// One metadata block per file per segment.
const METADATA_BLOCK_BYTES: u64 = 4096;

/// The smallest segment the writer accepts: one data block, its metadata
/// block and the summary.
const MIN_SEGMENT_BYTES: u64 = 4096 + METADATA_BLOCK_BYTES + SUMMARY_BYTES;

/// The per-block packer, with a B-tree of live blocks for its usage table.
struct BlockWriter {
    segment_bytes: u64,
    next_id: u64,
    records: Vec<SegmentRecord>,
    live: BTreeSet<BlockId>,
}

impl BlockWriter {
    fn new(segment_bytes: u64) -> Self {
        BlockWriter {
            segment_bytes,
            next_id: 0,
            records: Vec::new(),
            live: BTreeSet::new(),
        }
    }

    fn write_all(&mut self, t: SimTime, chunks: &Chunks, cause: SegmentCause) {
        let blocks = sorted_blocks(chunks);
        let tail = self.pack_full(t, &blocks);
        if tail < blocks.len() {
            self.emit_final(t, &blocks[tail..], cause);
        }
    }

    fn write_full_only(&mut self, t: SimTime, chunks: &Chunks) -> Chunks {
        let blocks = sorted_blocks(chunks);
        let tail = self.pack_full(t, &blocks);
        block_chunks(&blocks[tail..])
    }

    fn pack_full(&mut self, t: SimTime, blocks: &[BlockId]) -> usize {
        let mut start = 0;
        let mut files = 0;
        for i in 0..blocks.len() {
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
        self.live.extend(blocks);
        let checksum = segment_checksum(blocks);
        self.records.push(SegmentRecord {
            id: self.next_id,
            time: t,
            cause,
            data_bytes: blocks.len() as u64 * 4096,
            file_count: files,
            stored_checksum: checksum,
            content_checksum: checksum,
        });
        self.next_id += 1;
    }

    fn write_all_torn(
        &mut self,
        t: SimTime,
        chunks: &Chunks,
        cause: SegmentCause,
        fraction: f64,
    ) -> Chunks {
        let blocks = sorted_blocks(chunks);
        let tail = self.pack_full(t, &blocks);
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
        self.records.push(SegmentRecord {
            id: self.next_id,
            time: t,
            cause,
            data_bytes: intended as u64 * 4096,
            file_count: file_count(seg),
            stored_checksum: segment_checksum(seg),
            content_checksum: segment_checksum(&seg[..written]),
        });
        self.next_id += 1;
        block_chunks(seg)
    }

    fn kill_file(&mut self, file: FileId) {
        self.live.retain(|b| b.file != file);
    }

    fn live_ranges(&self) -> Vec<(FileId, RangeSet)> {
        let blocks: Vec<BlockId> = self.live.iter().copied().collect();
        block_chunks(&blocks)
    }
}

fn on_disk_with(blocks: usize, files: usize) -> u64 {
    blocks as u64 * 4096 + 4096 + files.max(1) as u64 * METADATA_BLOCK_BYTES + SUMMARY_BYTES
}

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

fn file_count(blocks: &[BlockId]) -> usize {
    blocks.chunk_by(|a, b| a.file == b.file).count()
}

/// `blocks`, sorted by block id, as per-file chunks of one range per block.
fn block_chunks(blocks: &[BlockId]) -> Chunks {
    blocks
        .chunk_by(|a, b| a.file == b.file)
        .map(|same| (same[0].file, same.iter().map(|b| b.byte_range()).collect()))
        .collect()
}

fn segment_checksum(blocks: &[BlockId]) -> u64 {
    let mut d = nvfs_types::framing::Fnv64::new();
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

/// A chunk list of one of three shapes: a few files named by several
/// chunks with overlapping, unaligned ranges; many files of one or two
/// blocks each; or a few long runs that span several segments.
fn random_chunks(rng: &mut StdRng) -> Chunks {
    let (chunks, files, max_len) = match rng.gen_range(0..3u32) {
        0 => (rng.gen_range(1..12usize), 4u32, 40_000u64),
        1 => (rng.gen_range(20..120usize), 200, 8_192),
        _ => (rng.gen_range(1..4usize), 3, 1_500_000),
    };
    (0..chunks)
        .map(|_| {
            let file = FileId(rng.gen_range(0..files));
            let ranges = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    ByteRange::at(rng.gen_range(0..(256u64 << 10)), rng.gen_range(1..=max_len))
                })
                .collect();
            (file, ranges)
        })
        .collect()
}

/// Both writers must agree on every record and every live range.
fn assert_agree(w: &SegmentWriter, reference: &BlockWriter, ctx: &str) {
    assert_eq!(w.records(), &reference.records[..], "records: {ctx}");
    assert_eq!(
        w.usage().live_ranges(),
        reference.live_ranges(),
        "live ranges: {ctx}"
    );
}

const CAUSES: [SegmentCause; 4] = [
    SegmentCause::Fsync,
    SegmentCause::Timeout,
    SegmentCause::Shutdown,
    SegmentCause::Recovery,
];

#[test]
fn run_packing_matches_the_per_block_packer() {
    let mut rng = StdRng::seed_from_u64(0x1F5_0027);
    let mut segments = [0usize; 3];
    let mut torn = 0;
    for (size_at, segment_bytes) in [MIN_SEGMENT_BYTES, 64 << 10, SEGMENT_BYTES]
        .into_iter()
        .enumerate()
    {
        for case in 0..40 {
            let mut w = SegmentWriter::new(segment_bytes);
            let mut reference = BlockWriter::new(segment_bytes);
            for step in 0..8u64 {
                let t = SimTime::from_secs(step);
                let chunks = random_chunks(&mut rng);
                let cause = CAUSES[rng.gen_range(0..CAUSES.len())];
                let call = rng.gen_range(0..4u32);
                let ctx = format!("segment {segment_bytes} case {case} step {step} call {call}");
                match call {
                    0 => {
                        w.write_all(t, &chunks, cause);
                        reference.write_all(t, &chunks, cause);
                    }
                    1 => {
                        let rest = w.write_full_only(t, &chunks);
                        assert_eq!(rest, reference.write_full_only(t, &chunks), "{ctx}");
                    }
                    2 => {
                        let fraction = [0.0, 0.3, 0.999, 1.0][rng.gen_range(0..4usize)];
                        let rest = w.write_all_torn(t, &chunks, cause, fraction);
                        let expected = reference.write_all_torn(t, &chunks, cause, fraction);
                        assert_eq!(rest, expected, "{ctx} fraction {fraction}");
                        torn += usize::from(!rest.is_empty());
                    }
                    _ => {
                        let file = FileId(rng.gen_range(0..4u32));
                        w.usage_mut().kill_file(file);
                        reference.kill_file(file);
                    }
                }
                assert_agree(&w, &reference, &ctx);
            }
            segments[size_at] += w.records().len();
        }
    }
    // Every segment size must see many segments, and some writes must tear.
    assert!(segments.iter().all(|&n| n > 200), "{segments:?}");
    assert!(torn > 30, "{torn} torn writes");
}
