//! Differential test of [`SegmentUsage`] against a two-B-tree reference
//! with the same API: a block → segment map and a segment → live-block-set
//! map, the obvious implementation.
//!
//! Both tables are driven through seeded op streams the way the segment
//! writer, deletes, the cleaner and roll-forward drive them: segments of
//! new and overwritten blocks under fresh, dense ids (and now and then a
//! write into an older id), whole-file kills, and evacuations of ids that
//! are live, zero-live, never written or already evacuated. After every
//! step the two must agree on every query.
//!
//! Driven by a seeded [`nvfs_rng::StdRng`] so failures reproduce exactly.

use std::collections::{BTreeMap, BTreeSet};

use nvfs_lfs::SegmentUsage;
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::{BlockId, FileId, RangeSet};

const FILES: u32 = 5;
const BLOCKS_PER_FILE: u64 = 24;
const CASES: u64 = 320;

/// The reference table: two B-trees, updated together.
#[derive(Debug, Default)]
struct RefUsage {
    locs: BTreeMap<BlockId, u64>,
    segs: BTreeMap<u64, BTreeSet<BlockId>>,
}

impl RefUsage {
    fn place(&mut self, block: BlockId, seg: u64) {
        if let Some(old) = self.locs.insert(block, seg) {
            if let Some(set) = self.segs.get_mut(&old) {
                set.remove(&block);
            }
        }
        self.segs.entry(seg).or_default().insert(block);
    }

    fn kill_file(&mut self, file: FileId) {
        let blocks: Vec<BlockId> = self
            .locs
            .range(BlockId::new(file, 0)..BlockId::new(FileId(file.0 + 1), 0))
            .map(|(&b, _)| b)
            .collect();
        for b in blocks {
            if let Some(seg) = self.locs.remove(&b) {
                if let Some(set) = self.segs.get_mut(&seg) {
                    set.remove(&b);
                }
            }
        }
    }

    fn live_bytes(&self, seg: u64) -> u64 {
        self.segs.get(&seg).map_or(0, |s| s.len() as u64 * 4096)
    }

    fn segment_count(&self) -> usize {
        self.segs.len()
    }

    fn least_utilized(&self, n: usize) -> Vec<u64> {
        let mut segs: Vec<(u64, usize)> = self.segs.iter().map(|(&id, s)| (id, s.len())).collect();
        segs.sort_by_key(|&(id, live)| (live, id));
        segs.into_iter().take(n).map(|(id, _)| id).collect()
    }

    fn evacuate(&mut self, seg: u64) -> Vec<BlockId> {
        let blocks: Vec<BlockId> = self
            .segs
            .remove(&seg)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        for b in &blocks {
            self.locs.remove(b);
        }
        blocks
    }

    fn total_live_bytes(&self) -> u64 {
        self.locs.len() as u64 * 4096
    }

    fn live_ranges(&self) -> Vec<(FileId, RangeSet)> {
        let mut per_file: BTreeMap<FileId, RangeSet> = BTreeMap::new();
        for b in self.locs.keys() {
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

/// Every query of the two tables must agree. `next` bounds the ids handed
/// out so far; ids just past it have never been written.
fn assert_agree(usage: &SegmentUsage, reference: &RefUsage, next: u64, ctx: &str) {
    for seg in 0..next + 2 {
        assert_eq!(
            usage.live_bytes(seg),
            reference.live_bytes(seg),
            "{ctx}: live_bytes({seg})"
        );
    }
    let count = reference.segment_count();
    assert_eq!(usage.segment_count(), count, "{ctx}: segment_count");
    for n in [1, 3, count, usize::MAX] {
        assert_eq!(
            usage.least_utilized(n),
            reference.least_utilized(n),
            "{ctx}: least_utilized({n})"
        );
    }
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

#[test]
fn segment_usage_matches_the_two_tree_reference() {
    let mut evacuated = [0u64; 4];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E6_0000 + case);
        let mut usage = SegmentUsage::new();
        let mut reference = RefUsage::default();
        let mut next = 0u64;
        let steps = rng.gen_range(40..140usize);
        for step in 0..steps {
            let ctx = format!("case {case} step {step}");
            let roll = rng.gen_range(0..100u32);
            if roll < 45 || next == 0 {
                // A new segment, as the writer emits one: a fresh dense id
                // holding new and overwritten blocks.
                let seg = next;
                next += 1;
                for _ in 0..rng.gen_range(1..12usize) {
                    let b = random_block(&mut rng);
                    usage.place(b, seg);
                    reference.place(b, seg);
                }
            } else if roll < 52 {
                // A write into an older id, live, zero-live or evacuated.
                let seg = rng.gen_range(0..next);
                let b = random_block(&mut rng);
                usage.place(b, seg);
                reference.place(b, seg);
            } else if roll < 62 {
                let file = FileId(rng.gen_range(0..FILES));
                usage.kill_file(file);
                reference.kill_file(file);
            } else {
                // Evacuate the cleaner's victim, any id handed out so far
                // (live, zero-live or already evacuated), or one never
                // written.
                let seg = match rng.gen_range(0..3u32) {
                    0 => reference.least_utilized(1).first().copied().unwrap_or(next),
                    1 => rng.gen_range(0..next),
                    _ => next + rng.gen_range(0..3u64),
                };
                let kind = if seg >= next {
                    2
                } else if !reference.segs.contains_key(&seg) {
                    3
                } else if reference.live_bytes(seg) == 0 {
                    1
                } else {
                    0
                };
                evacuated[kind] += 1;
                assert_eq!(
                    usage.evacuate(seg),
                    reference.evacuate(seg),
                    "{ctx}: evacuate({seg})"
                );
            }
            assert_agree(&usage, &reference, next, &ctx);
        }
    }
    // The streams must reach every kind of evacuation: live, zero-live,
    // never written, already evacuated.
    assert!(evacuated.iter().all(|&n| n > 100), "{evacuated:?}");
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
        w.write_all(
            SimTime::from_secs(round),
            &chunks,
            SegmentCause::Timeout,
            false,
        );
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
                reference.place(b, rec.id);
            }
        }
        assert!(it.next().is_none());
        if round % 7 == 6 {
            let f = FileId(rng.gen_range(0..FILES));
            w.usage_mut().kill_file(f);
            reference.kill_file(f);
        }
        if round % 5 == 4 {
            let victim = reference.least_utilized(1)[0];
            assert_eq!(w.usage_mut().evacuate(victim), reference.evacuate(victim));
        }
        let next = w.records().len() as u64;
        assert_agree(w.usage(), &reference, next, &format!("round {round}"));
    }
}
