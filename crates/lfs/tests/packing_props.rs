//! Randomized tests on the LFS segment writer: block conservation, segment
//! size limits, and equivalence between direct and buffered data paths.
//!
//! Formerly proptest-based; now driven by a seeded [`nvfs_rng::StdRng`] so
//! the suite builds offline and failures reproduce exactly.

use nvfs_lfs::fs::{run_filesystem, LfsConfig};
use nvfs_lfs::layout::{SegmentCause, SEGMENT_BYTES};
use nvfs_lfs::SegmentWriter;
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_trace::synth::lfs_workload::{FsWorkload, LfsOp, LfsOpKind};
use nvfs_types::{blocks_of_range, ByteRange, FileId, RangeSet, SimTime};
use std::collections::BTreeSet;

fn rand_chunks(rng: &mut StdRng) -> Vec<(u32, u64, u64)> {
    let n = rng.gen_range(1..20usize);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..8u32),
                rng.gen_range(0..(64u64 << 10)),
                rng.gen_range(1..(96u64 << 10)),
            )
        })
        .collect()
}

fn to_chunks(raw: &[(u32, u64, u64)]) -> Vec<(FileId, RangeSet)> {
    raw.iter()
        .map(|&(f, off, len)| (FileId(f), RangeSet::from_range(ByteRange::at(off, len))))
        .collect()
}

/// The distinct 4 KB blocks covered by the chunks.
fn distinct_blocks(raw: &[(u32, u64, u64)]) -> usize {
    let mut set = BTreeSet::new();
    for &(f, off, len) in raw {
        for b in blocks_of_range(FileId(f), ByteRange::at(off, len)) {
            set.insert(b);
        }
    }
    set.len()
}

#[test]
fn write_all_conserves_blocks() {
    let mut rng = StdRng::seed_from_u64(0x1F5_0001);
    for _case in 0..128 {
        let raw = rand_chunks(&mut rng);
        let chunks = to_chunks(&raw);
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(SimTime::ZERO, &chunks, SegmentCause::Timeout);
        let written_blocks: u64 = w.records().iter().map(|r| r.data_bytes / 4096).sum();
        assert_eq!(written_blocks as usize, distinct_blocks(&raw), "{raw:?}");
        // Usage table agrees.
        assert_eq!(
            w.usage().total_live_bytes() as usize / 4096,
            distinct_blocks(&raw),
            "{raw:?}"
        );
    }
}

#[test]
fn segments_never_exceed_their_size() {
    let mut rng = StdRng::seed_from_u64(0x1F5_0002);
    for _case in 0..128 {
        let raw = rand_chunks(&mut rng);
        let chunks = to_chunks(&raw);
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(SimTime::ZERO, &chunks, SegmentCause::Fsync);
        for r in w.records() {
            assert!(r.on_disk_bytes() <= SEGMENT_BYTES, "{r:?}");
            assert!(r.data_bytes > 0, "no empty segments: {r:?}");
        }
        // At most the final segment may be partial.
        let partials = w.records().iter().filter(|r| r.is_partial()).count();
        assert!(partials <= 1, "{raw:?}");
    }
}

#[test]
fn full_only_plus_remainder_is_lossless() {
    let mut rng = StdRng::seed_from_u64(0x1F5_0003);
    for _case in 0..128 {
        let raw = rand_chunks(&mut rng);
        let chunks = to_chunks(&raw);
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        let remainder = w.write_full_only(SimTime::ZERO, &chunks);
        let on_disk_blocks: u64 = w.records().iter().map(|r| r.data_bytes / 4096).sum();
        let rem_blocks: usize = {
            let mut set = BTreeSet::new();
            for (f, ranges) in &remainder {
                for r in ranges.iter() {
                    for b in blocks_of_range(*f, r) {
                        set.insert(b);
                    }
                }
            }
            set.len()
        };
        assert_eq!(
            on_disk_blocks as usize + rem_blocks,
            distinct_blocks(&raw),
            "{raw:?}"
        );
        // The remainder is strictly less than one segment of data.
        assert!((rem_blocks as u64 * 4096) < SEGMENT_BYTES, "{raw:?}");
    }
}

#[test]
fn buffered_path_writes_the_same_data() {
    let mut rng = StdRng::seed_from_u64(0x1F5_0004);
    for _case in 0..96 {
        let raw = rand_chunks(&mut rng);
        // Interleave writes and fsyncs; the fsync-absorbing buffer must not
        // lose or invent data relative to the direct path.
        let mut ops = Vec::new();
        for (i, &(f, off, len)) in raw.iter().enumerate() {
            let t = SimTime::from_secs(i as u64);
            ops.push(LfsOp {
                time: t,
                kind: LfsOpKind::Write {
                    file: FileId(f),
                    range: ByteRange::at(off, len),
                },
            });
            if i % 3 == 0 {
                ops.push(LfsOp {
                    time: t,
                    kind: LfsOpKind::Fsync { file: FileId(f) },
                });
            }
        }
        let w = FsWorkload { name: "/prop", ops };
        let direct = run_filesystem(&w, &LfsConfig::direct());
        let buffered = run_filesystem(&w, &LfsConfig::with_fsync_buffer(SEGMENT_BYTES));
        // Buffering may absorb rewrites of a block that the direct path
        // wrote twice (that is the point of the buffer), so it writes at
        // most as much — and at least every distinct block once.
        assert!(buffered.data_bytes() <= direct.data_bytes(), "{raw:?}");
        assert!(
            buffered.data_bytes() >= distinct_blocks(&raw) as u64 * 4096,
            "{raw:?}"
        );
        assert!(
            buffered.disk_write_accesses() <= direct.disk_write_accesses(),
            "{raw:?}"
        );
    }
}
