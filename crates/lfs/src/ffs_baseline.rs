//! The traditional update-in-place baseline (UNIX FFS style).
//!
//! "In contrast to traditional UNIX file systems, LFS is optimized for
//! writing rather than reading. It amortizes the cost of writes by
//! collecting large (one-half megabyte) segments of data before issuing
//! contiguous disk writes. … While traditional file systems seek to a
//! predefined disk location to update metadata or to write different
//! files, LFS gathers all the dirty file data and metadata into a single
//! segment."
//!
//! [`run_update_in_place`] services the same dirty-data arrival stream the
//! LFS simulator consumes, but the traditional way: each file's blocks live
//! at fixed disk addresses (spread across cylinder groups), every flushed
//! block is written in place, and each file update also rewrites its inode
//! at its own fixed address. The disk is [`DiskParams::sprite_era`], each
//! flush batch is elevator-sorted as real UNIX drivers sort, and a
//! [`BLOCK_CLEANER_PERIOD`] sweep flushes dirty data once it is
//! [`DELAYED_WRITE_BACK`] old, as in the LFS simulator. Comparing its disk
//! busy time against
//! [`FsReport::disk_time`](crate::fs::FsReport::disk_time) quantifies how
//! much the log amortizes.

use std::collections::BTreeMap;

use nvfs_disk::{Discipline, DiskParams, DiskQueue, DiskRequest};
use nvfs_types::{blocks_of_range, FileId, SimTime, BLOCK_CLEANER_PERIOD, DELAYED_WRITE_BACK};

use nvfs_trace::synth::lfs_workload::{FsWorkload, LfsOpKind};

use crate::dirty::DirtyCache;

/// Outcome of the update-in-place run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FfsReport {
    /// Individual block/inode writes issued to the disk.
    pub disk_write_accesses: usize,
    /// Total disk busy time in milliseconds.
    pub disk_busy_ms: f64,
}

/// Deterministically scatters a file's base address across the disk, like
/// cylinder-group allocation.
fn file_base(file: FileId, disk: &DiskParams) -> u64 {
    let h = (u64::from(file.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h % (disk.capacity / 2)) & !4095
}

/// Inode address: a fixed region at the front of each cylinder group.
fn inode_addr(file: FileId, disk: &DiskParams) -> u64 {
    let h = (u64::from(file.0)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (h % (disk.capacity / 2)) & !511
}

/// Services `workload` update-in-place and reports the disk cost.
///
/// # Examples
///
/// ```
/// use nvfs_lfs::ffs_baseline::run_update_in_place;
/// use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};
///
/// let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
/// let report = run_update_in_place(&ws[0]);
/// assert!(report.disk_write_accesses > 0);
/// ```
pub fn run_update_in_place(workload: &FsWorkload) -> FfsReport {
    let mut dirty = DirtyCache::new();
    let disk = DiskParams::sprite_era();
    let mut queue = DiskQueue::new(disk);
    let mut next_sweep = SimTime::ZERO + BLOCK_CLEANER_PERIOD;
    let mut accesses = 0usize;
    let mut busy_ms = 0.0;

    let flush = |queue: &mut DiskQueue,
                 chunks: Vec<(FileId, nvfs_types::RangeSet)>,
                 accesses: &mut usize,
                 busy_ms: &mut f64| {
        let mut requests = Vec::new();
        let mut files: BTreeMap<FileId, ()> = BTreeMap::new();
        for (file, ranges) in chunks {
            let base = file_base(file, &disk);
            for r in ranges.iter() {
                for b in blocks_of_range(file, r) {
                    requests.push(DiskRequest {
                        addr: base + b.index * 4096,
                        len: 4096,
                    });
                }
            }
            files.insert(file, ());
        }
        // Each touched file's inode is rewritten at its fixed address.
        for (&file, ()) in &files {
            requests.push(DiskRequest {
                addr: inode_addr(file, &disk),
                len: 512,
            });
        }
        if requests.is_empty() {
            return;
        }
        let out = queue.service_batch(&requests, Discipline::Elevator);
        *accesses += out.requests;
        *busy_ms += out.total_ms;
    };

    for op in &workload.ops {
        while next_sweep <= op.time {
            if next_sweep >= SimTime::ZERO + DELAYED_WRITE_BACK {
                let cutoff = next_sweep - DELAYED_WRITE_BACK;
                let aged = dirty.take_older_than(cutoff);
                flush(&mut queue, aged, &mut accesses, &mut busy_ms);
            }
            next_sweep += BLOCK_CLEANER_PERIOD;
        }
        match op.kind {
            LfsOpKind::Write { file, range } => {
                dirty.add(file, range, op.time);
            }
            LfsOpKind::Fsync { file } => {
                if let Some(ranges) = dirty.take_file(file) {
                    flush(
                        &mut queue,
                        vec![(file, ranges)],
                        &mut accesses,
                        &mut busy_ms,
                    );
                }
            }
            LfsOpKind::Delete { file } => {
                dirty.discard_file(file);
            }
        }
    }
    let rest = dirty.take_all();
    flush(&mut queue, rest, &mut accesses, &mut busy_ms);

    FfsReport {
        disk_write_accesses: accesses,
        disk_busy_ms: busy_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{run_filesystem, LfsConfig};
    use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};

    #[test]
    fn lfs_amortizes_writes_that_ffs_scatters() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        // /swap1: bursty block traffic with no fsyncs — the pure
        // amortization comparison.
        let swap = &ws[2];
        let ffs = run_update_in_place(swap);
        let lfs = run_filesystem(swap, &LfsConfig::direct());
        let lfs_time = lfs.disk_time(&DiskParams::sprite_era());
        assert!(
            lfs_time.total_ms < ffs.disk_busy_ms * 0.75,
            "LFS {:.0} ms vs FFS {:.0} ms",
            lfs_time.total_ms,
            ffs.disk_busy_ms
        );
        // And far fewer disk operations.
        assert!(lfs.disk_write_accesses() * 4 < ffs.disk_write_accesses);
    }

    #[test]
    fn file_layout_is_deterministic_and_in_bounds() {
        let disk = DiskParams::sprite_era();
        for f in 0..100u32 {
            let base = file_base(FileId(f), &disk);
            assert_eq!(base, file_base(FileId(f), &disk));
            assert!(base < disk.capacity);
            assert_eq!(base % 4096, 0);
            assert!(inode_addr(FileId(f), &disk) < disk.capacity);
        }
    }
}
