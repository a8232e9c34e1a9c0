//! Differential test of [`SegmentUsage`] against a B-tree reference with
//! the same API: the set of live blocks, the obvious implementation.
//!
//! Both tables are driven through seeded op streams the way the segment
//! writer and deletes drive them: segments of new and overwritten blocks,
//! whole-file kills, and files killed and written again. After every step
//! the two must agree on every query.
//!
//! The table keeps a dense vector of live bits per file, so further
//! streams place sparse and high block indices (holes, the 65,543 page
//! slots of /swap1, index 1 << 20) and write into files just killed, whose
//! bits must have been cleared.
//!
//! Driven by a seeded [`nvfs_rng::StdRng`] so failures reproduce exactly.

use std::collections::{BTreeMap, BTreeSet};

use nvfs_lfs::SegmentUsage;
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::{BlockId, FileId, RangeSet};

const FILES: u32 = 5;
const BLOCKS_PER_FILE: u64 = 24;
const CASES: u64 = 320;

/// The reference table: every live block in one B-tree.
#[derive(Debug, Default)]
struct RefUsage {
    live: BTreeSet<BlockId>,
}

impl RefUsage {
    fn place(&mut self, block: BlockId) {
        self.live.insert(block);
    }

    fn kill_file(&mut self, file: FileId) {
        self.live.retain(|b| b.file != file);
    }

    fn total_live_bytes(&self) -> u64 {
        self.live.len() as u64 * 4096
    }

    fn live_ranges(&self) -> Vec<(FileId, RangeSet)> {
        let mut per_file: BTreeMap<FileId, RangeSet> = BTreeMap::new();
        for b in &self.live {
            per_file.entry(b.file).or_default().insert(b.byte_range());
        }
        per_file.into_iter().collect()
    }
}

fn random_block(rng: &mut StdRng) -> BlockId {
    BlockId::new(
        FileId(rng.gen_range(0..FILES)),
        rng.gen_range(0..BLOCKS_PER_FILE),
    )
}

/// High block indices: the largest page slot of the server workloads, its
/// neighbours, and one far beyond any of them.
const HIGH: [u64; 4] = [65_535, 65_542, 65_543, 1 << 20];

/// A block at a sparse index: a few dense low blocks, holes at scattered
/// mid-range indices, and the [`HIGH`] ones. Only the last file reaches
/// index 1 << 20, which keeps its slot vector the one a million long.
fn sparse_block(rng: &mut StdRng) -> BlockId {
    let file = FileId(rng.gen_range(0..FILES));
    let high = if file.0 == FILES - 1 {
        HIGH.len()
    } else {
        HIGH.len() - 1
    };
    let index = match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..4u64),
        1 => rng.gen_range(0..64u64) * 997,
        _ => HIGH[rng.gen_range(0..high)],
    };
    BlockId::new(file, index)
}

/// Every query of the two tables must agree.
fn assert_agree(usage: &SegmentUsage, reference: &RefUsage, ctx: &str) {
    assert_eq!(
        usage.total_live_bytes(),
        reference.total_live_bytes(),
        "{ctx}: total_live_bytes"
    );
    assert_eq!(
        usage.live_ranges(),
        reference.live_ranges(),
        "{ctx}: live_ranges"
    );
}

/// Drives both tables through `cases` seeded streams that draw blocks with
/// `block`, checking every query after every step. Returns how many kills
/// hit a file with live blocks, and how many of those files were written
/// again at once.
fn drive_streams(seed: u64, cases: u64, block: fn(&mut StdRng) -> BlockId) -> [u64; 2] {
    let mut kills = [0u64; 2];
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed + case);
        let mut usage = SegmentUsage::new();
        let mut reference = RefUsage::default();
        let steps = rng.gen_range(40..140usize);
        for step in 0..steps {
            let ctx = format!("seed {seed:#x} case {case} step {step}");
            let roll = rng.gen_range(0..100u32);
            if roll < 70 {
                // A new segment, as the writer emits one: new and
                // overwritten blocks.
                for _ in 0..rng.gen_range(1..12usize) {
                    let b = block(&mut rng);
                    usage.place(b);
                    reference.place(b);
                }
            } else {
                let file = FileId(rng.gen_range(0..FILES));
                let live = reference.live.iter().any(|b| b.file == file);
                usage.kill_file(file);
                reference.kill_file(file);
                kills[0] += u64::from(live);
                if roll >= 85 {
                    // A file deleted and written again (a reused file id):
                    // some of its new blocks sit at indices the killed copy
                    // held.
                    kills[1] += u64::from(live);
                    assert_agree(&usage, &reference, &format!("{ctx} (killed)"));
                    for _ in 0..rng.gen_range(1..8usize) {
                        let b = BlockId::new(file, block(&mut rng).index);
                        usage.place(b);
                        reference.place(b);
                    }
                }
            }
            assert_agree(&usage, &reference, &ctx);
        }
    }
    kills
}

#[test]
fn segment_usage_matches_the_btree_reference() {
    let kills = drive_streams(0x5E6_0000, CASES, random_block);
    // The streams must kill live files, and write some of them again.
    assert!(kills.iter().all(|&n| n > 100), "{kills:?}");
}

#[test]
fn sparse_and_high_indices_match_the_reference() {
    // Fewer cases: every query walks a slot vector a million entries long.
    let kills = drive_streams(0x5E6_2000, CASES / 16, sparse_block);
    assert!(kills.iter().all(|&n| n > 10), "{kills:?}");
}

#[test]
fn blocks_placed_into_a_killed_file_start_fresh() {
    // The same indices, dense and high, live, die with their file, and
    // live again: nothing of the first copy may remain.
    let file = FileId(2);
    let indices = [0, 1, 7, 65_543, 1 << 20];
    let mut usage = SegmentUsage::new();
    let mut reference = RefUsage::default();
    for &index in &indices {
        for t in [&mut usage as &mut dyn Place, &mut reference] {
            t.place_block(BlockId::new(file, index));
            t.place_block(BlockId::new(FileId(3), index));
        }
    }
    assert_agree(&usage, &reference, "placed");
    usage.kill_file(file);
    reference.kill_file(file);
    assert_agree(&usage, &reference, "killed");
    for &index in &indices[1..] {
        usage.place(BlockId::new(file, index));
        reference.place(BlockId::new(file, index));
    }
    assert_agree(&usage, &reference, "placed again");
    assert_eq!(
        usage.total_live_bytes(),
        (2 * indices.len() - 1) as u64 * 4096
    );
}

/// Placement through either table, so one loop can feed both.
trait Place {
    fn place_block(&mut self, block: BlockId);
}

impl Place for SegmentUsage {
    fn place_block(&mut self, block: BlockId) {
        self.place(block);
    }
}

impl Place for RefUsage {
    fn place_block(&mut self, block: BlockId) {
        self.place(block);
    }
}

#[test]
fn writer_table_matches_the_reference_after_real_packing() {
    // The writer's own placements (sorted, deduplicated, split across
    // segments) land in the table exactly as the reference records them.
    use nvfs_lfs::layout::{SegmentCause, SEGMENT_BYTES};
    use nvfs_lfs::SegmentWriter;
    use nvfs_types::{blocks_of_range, ByteRange, SimTime};

    let mut rng = StdRng::seed_from_u64(0x5E6_1000);
    let mut w = SegmentWriter::new(SEGMENT_BYTES / 4);
    let mut reference = RefUsage::default();
    for round in 0..60 {
        let chunks: Vec<(FileId, RangeSet)> = (0..rng.gen_range(1..6usize))
            .map(|_| {
                let f = FileId(rng.gen_range(0..FILES));
                let start = rng.gen_range(0..(64u64 << 10));
                let len = rng.gen_range(1..(200u64 << 10));
                (f, RangeSet::from_range(ByteRange::at(start, len)))
            })
            .collect();
        let first = w.records().len();
        w.write_all(SimTime::from_secs(round), &chunks, SegmentCause::Timeout);
        // Replay the placements into the reference in the writer's order:
        // blocks in (file, index) order, split at each new record.
        let mut blocks: Vec<BlockId> = chunks
            .iter()
            .flat_map(|(f, r)| r.iter().flat_map(move |piece| blocks_of_range(*f, piece)))
            .collect();
        blocks.sort();
        blocks.dedup();
        let mut it = blocks.into_iter();
        for rec in &w.records()[first..] {
            for b in it.by_ref().take((rec.data_bytes / 4096) as usize) {
                reference.place(b);
            }
        }
        assert!(it.next().is_none());
        if round % 7 == 6 {
            let f = FileId(rng.gen_range(0..FILES));
            w.usage_mut().kill_file(f);
            reference.kill_file(f);
        }
        assert_agree(w.usage(), &reference, &format!("round {round}"));
    }
}
