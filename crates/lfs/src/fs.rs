//! Trace-driven simulation of one LFS file system, with and without an
//! NVRAM write buffer (§3).
//!
//! Without a buffer ([`WriteBufferMode::None`]) this reproduces the Sprite
//! behaviour the paper measured: an `fsync` makes LFS "immediately write
//! out whatever dirty data is present" (a partial segment), the 5-second
//! sweep flushes data older than 30 seconds (timeout partials), and a full
//! segment's worth of accumulated dirty data is written as a full segment.
//!
//! With [`WriteBufferMode::FsyncAbsorb`] — the paper's proposal — fsync'd
//! data goes into NVRAM instead of forcing a disk write. Buffered data
//! piggybacks on the next segment written for any other reason, so the
//! eliminated accesses are exactly the fsync-forced partials (Table 3's
//! second column, the paper's 10–25% / 90% reductions).
//!
//! [`WriteBufferMode::StageAll`] is the stronger variant §3's disk-space
//! discussion assumes ("Using NVRAM would eliminate partial segment
//! writes"): *all* flushed data stages through NVRAM and only full
//! segments ever reach the disk.

use nvfs_faults::{ReliabilityStats, ServerCrashFault};
use nvfs_types::block::block_span;
use nvfs_types::{FileId, RangeSet, SimDuration, SimTime};

use nvfs_trace::synth::lfs_workload::{FsWorkload, LfsOpKind};

use crate::cleaner::{Cleaner, CleanerConfig, CleanerStats};
use crate::dirty::DirtyCache;
use crate::layout::{SegmentCause, SegmentRecord, SEGMENT_BYTES};
use crate::log::{Chunks, SegmentWriter};

/// NVRAM write-buffer operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteBufferMode {
    /// No NVRAM: fsyncs and timeouts write partial segments directly.
    None,
    /// NVRAM absorbs fsync-forced writes; buffered data piggybacks on the
    /// next ordinary segment write (or is flushed when the buffer fills).
    FsyncAbsorb {
        /// Buffer capacity in bytes (the paper studies ½ MB per FS).
        capacity: u64,
    },
    /// All flushed data stages through NVRAM; only full segments reach the
    /// disk (plus one final flush at shutdown).
    StageAll {
        /// Buffer capacity in bytes; must hold at least one segment.
        capacity: u64,
    },
}

/// Configuration for one file-system simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LfsConfig {
    /// Segment size in bytes (512 KB in Sprite).
    pub segment_bytes: u64,
    /// Sweep period of the server block cleaner (5 s in Sprite).
    pub sweep_period: SimDuration,
    /// Age at which dirty data is flushed (30 s in Sprite).
    pub writeback_age: SimDuration,
    /// NVRAM write-buffer mode.
    pub buffer: WriteBufferMode,
    /// Optional garbage-collector configuration.
    pub cleaner: Option<CleanerConfig>,
}

impl LfsConfig {
    /// Sprite defaults with no NVRAM buffer.
    pub fn direct() -> Self {
        LfsConfig {
            segment_bytes: SEGMENT_BYTES,
            sweep_period: SimDuration::from_secs(5),
            writeback_age: SimDuration::from_secs(30),
            buffer: WriteBufferMode::None,
            cleaner: None,
        }
    }

    /// Sprite defaults with a fsync-absorbing NVRAM buffer of `capacity`
    /// bytes (the paper's headline configuration uses ½ MB).
    pub fn with_fsync_buffer(capacity: u64) -> Self {
        LfsConfig {
            buffer: WriteBufferMode::FsyncAbsorb { capacity },
            ..LfsConfig::direct()
        }
    }

    /// Sprite defaults with a full staging buffer of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is smaller than one segment.
    pub fn with_staging_buffer(capacity: u64) -> Self {
        assert!(
            capacity >= SEGMENT_BYTES,
            "staging buffer must hold a full segment"
        );
        LfsConfig {
            buffer: WriteBufferMode::StageAll { capacity },
            ..LfsConfig::direct()
        }
    }
}

impl Default for LfsConfig {
    fn default() -> Self {
        LfsConfig::direct()
    }
}

/// Results of simulating one file system over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FsReport {
    /// File-system name (e.g. `/user6`).
    pub name: String,
    /// Every segment written, in log order.
    pub records: Vec<SegmentRecord>,
    /// Application fsync calls observed.
    pub fsync_ops: u64,
    /// Fsync calls absorbed by the NVRAM buffer (no disk access).
    pub fsyncs_absorbed: u64,
    /// Page-granular bytes those absorbed fsyncs copied into NVRAM: the
    /// buffer stages whole 4 KB blocks, so this is the *paging* cost basis
    /// the WAL's exact-byte *logging* appends are compared against.
    pub fsync_absorbed_page_bytes: u64,
    /// Application bytes written into the file system.
    pub app_write_bytes: u64,
    /// Cleaner activity.
    pub cleaner: CleanerStats,
}

impl FsReport {
    /// Disk write accesses = segment writes, excluding cleaner traffic.
    pub fn disk_write_accesses(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.cause != SegmentCause::Cleaner)
            .count()
    }

    /// Number of segments with the given cause.
    pub fn count(&self, cause: SegmentCause) -> usize {
        self.records.iter().filter(|r| r.cause == cause).count()
    }

    /// Partial segments (all causes except Full and Cleaner).
    pub fn partial_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.is_partial() && r.cause != SegmentCause::Cleaner)
            .count()
    }

    /// Percentage of segment writes that are partial (Table 3 column 1).
    pub fn pct_partial(&self) -> f64 {
        percentage(self.partial_count(), self.disk_write_accesses())
    }

    /// Percentage of segment writes that are fsync-forced partials
    /// (Table 3 column 2).
    pub fn pct_fsync_partial(&self) -> f64 {
        percentage(self.count(SegmentCause::Fsync), self.disk_write_accesses())
    }

    /// Average file-data kilobytes per partial segment (Table 4).
    pub fn avg_partial_kb(&self) -> Option<f64> {
        average_kb(
            self.records
                .iter()
                .filter(|r| r.is_partial() && r.cause != SegmentCause::Cleaner),
        )
    }

    /// Average file-data kilobytes per fsync-forced partial (Table 4).
    pub fn avg_fsync_partial_kb(&self) -> Option<f64> {
        average_kb(
            self.records
                .iter()
                .filter(|r| r.cause == SegmentCause::Fsync),
        )
    }

    /// File data bytes written to disk (excluding cleaner copies).
    pub fn data_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.cause != SegmentCause::Cleaner)
            .map(|r| r.data_bytes)
            .sum()
    }

    /// Total on-disk bytes including metadata and summary blocks.
    pub fn on_disk_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.cause != SegmentCause::Cleaner)
            .map(SegmentRecord::on_disk_bytes)
            .sum()
    }

    /// Fraction of on-disk bytes that is metadata/summary overhead.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.on_disk_bytes();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.data_bytes() as f64 / total as f64
    }
}

/// Disk-time accounting for a report, using the §3 cost model: every
/// segment write pays one positioning operation (average seek plus average
/// rotational latency) and then transfers its on-disk bytes — the
/// amortization argument behind LFS's half-megabyte segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskTime {
    /// Total disk busy time in milliseconds.
    pub total_ms: f64,
    /// Pure data-transfer time in milliseconds.
    pub transfer_ms: f64,
}

impl DiskTime {
    /// Fraction of raw disk bandwidth achieved.
    pub fn utilization(&self) -> f64 {
        if self.total_ms == 0.0 {
            0.0
        } else {
            self.transfer_ms / self.total_ms
        }
    }
}

impl FsReport {
    /// Computes disk busy time and bandwidth utilization for this report's
    /// segment writes (excluding cleaner traffic) on the given disk.
    ///
    /// Tiny fsync-forced partials pay the same positioning cost as a full
    /// 512 KB segment while transferring a hundredth of the data — this is
    /// the §3 bandwidth argument in time units.
    pub fn disk_time(&self, disk: &nvfs_disk::DiskParams) -> DiskTime {
        let mut total_ms = 0.0;
        let mut transfer_ms = 0.0;
        for r in self
            .records
            .iter()
            .filter(|r| r.cause != SegmentCause::Cleaner)
        {
            let t = disk.transfer_ms(r.on_disk_bytes());
            transfer_ms += t;
            total_ms += disk.avg_seek_ms + disk.avg_rotation_ms() + t;
        }
        DiskTime {
            total_ms,
            transfer_ms,
        }
    }
}

fn percentage(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn average_kb<'a, I: Iterator<Item = &'a SegmentRecord>>(records: I) -> Option<f64> {
    let mut total = 0u64;
    let mut n = 0u64;
    for r in records {
        total += r.data_bytes;
        n += 1;
    }
    (n > 0).then(|| total as f64 / n as f64 / 1024.0)
}

/// Simulates `workload` under `config` and returns the report.
///
/// # Examples
///
/// ```
/// use nvfs_lfs::fs::{run_filesystem, LfsConfig};
/// use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};
///
/// let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
/// let report = run_filesystem(&ws[0], &LfsConfig::direct());
/// assert!(report.disk_write_accesses() > 0);
/// assert!(report.pct_fsync_partial() > 50.0); // /user6 is fsync-bound
/// ```
pub fn run_filesystem(workload: &FsWorkload, config: &LfsConfig) -> FsReport {
    run_filesystem_faulted(workload, config, &[]).0
}

/// Like [`run_filesystem`], but with injected server crashes: at each crash
/// the volatile dirty cache (the in-memory partial-segment write buffer)
/// is lost, while NVRAM-staged data survives and is replayed into the log
/// on restart as [`SegmentCause::Recovery`] segments. A torn replay write
/// is detected and written a second time — wasted disk work but no loss,
/// which is the §3 durability claim for the NVRAM write buffer.
///
/// Crashes must be sorted by time (as [`FaultSchedule`] compiles them).
///
/// [`FaultSchedule`]: nvfs_faults::FaultSchedule
pub fn run_filesystem_faulted(
    workload: &FsWorkload,
    config: &LfsConfig,
    crashes: &[ServerCrashFault],
) -> (FsReport, ReliabilityStats) {
    let mut reliability = ReliabilityStats::default();
    let mut next_fault = 0usize;
    let mut writer = SegmentWriter::new(config.segment_bytes);
    let mut dirty = DirtyCache::new();
    let mut nvram: Vec<(FileId, RangeSet)> = Vec::new();
    let mut nvram_bytes: u64 = 0;
    let mut cleaner = config.cleaner.map(Cleaner::new);
    let mut fsync_ops = 0u64;
    let mut fsyncs_absorbed = 0u64;
    let mut fsync_absorbed_page_bytes = 0u64;
    let mut app_write_bytes = 0u64;
    let mut next_sweep = SimTime::ZERO + config.sweep_period;
    let mut end_time = SimTime::ZERO;

    let write_out = |writer: &mut SegmentWriter,
                     cleaner: &mut Option<Cleaner>,
                     t: SimTime,
                     chunks: &Chunks,
                     cause: SegmentCause| {
        if chunks.iter().all(|(_, r)| r.is_empty()) {
            return;
        }
        writer.write_all(t, chunks, cause, false);
        if let Some(c) = cleaner {
            c.maybe_clean(t, writer);
        }
    };

    // The server dies: the in-memory partial-segment buffer is lost, the
    // NVRAM staging buffer survives and is replayed on restart. A replay
    // write torn by the crash fails its summary checksum; roll-forward
    // truncates it and the segment is written again from NVRAM (wasted
    // access, no loss).
    macro_rules! server_crash {
        ($fault:expr) => {{
            let fault: &ServerCrashFault = $fault;
            reliability.server_crashes += 1;
            let lost = dirty.take_all();
            reliability.bytes_lost_buffer += lost.iter().map(|(_, r)| r.len_bytes()).sum::<u64>();
            if nvram_bytes > 0 {
                let staged = std::mem::take(&mut nvram);
                reliability.bytes_replayed += nvram_bytes;
                if let Some(fraction) = fault.torn_segment {
                    let tail = writer.write_all_torn(
                        fault.time,
                        &staged,
                        SegmentCause::Recovery,
                        fraction,
                    );
                    let rolled = writer.roll_forward(fault.time);
                    reliability.bytes_rewritten_torn += rolled.truncated_data_bytes;
                    if !tail.is_empty() {
                        write_out(
                            &mut writer,
                            &mut cleaner,
                            fault.time,
                            &tail,
                            SegmentCause::Recovery,
                        );
                    }
                } else {
                    write_out(
                        &mut writer,
                        &mut cleaner,
                        fault.time,
                        &staged,
                        SegmentCause::Recovery,
                    );
                }
                nvram_bytes = 0;
            }
        }};
    }

    for op in &workload.ops {
        // Fire server crashes due by this op's time.
        while next_fault < crashes.len() && crashes[next_fault].time <= op.time {
            server_crash!(&crashes[next_fault]);
            next_fault += 1;
        }
        end_time = end_time.max(op.time);
        // Advance the 5-second sweep: flush data older than the write-back
        // age, folding in any NVRAM-buffered data (piggyback).
        while next_sweep <= op.time {
            if next_sweep >= SimTime::ZERO + config.writeback_age {
                let cutoff = next_sweep - config.writeback_age;
                let aged = dirty.take_older_than(cutoff);
                if !aged.is_empty() {
                    let mut chunks = aged;
                    if matches!(config.buffer, WriteBufferMode::FsyncAbsorb { .. }) {
                        chunks.append(&mut nvram);
                        nvram_bytes = 0;
                    }
                    match config.buffer {
                        WriteBufferMode::StageAll { capacity } => {
                            // Timeout data stages into NVRAM instead.
                            for (f, r) in chunks {
                                nvram_bytes += r.len_bytes();
                                nvram.push((f, r));
                            }
                            drain_full_segments(
                                &mut writer,
                                &mut cleaner,
                                next_sweep,
                                &mut nvram,
                                &mut nvram_bytes,
                                capacity,
                                config.segment_bytes,
                            );
                        }
                        _ => {
                            write_out(
                                &mut writer,
                                &mut cleaner,
                                next_sweep,
                                &chunks,
                                SegmentCause::Timeout,
                            );
                        }
                    }
                }
            }
            next_sweep += config.sweep_period;
        }

        match op.kind {
            LfsOpKind::Write { file, range } => {
                app_write_bytes += range.len();
                dirty.add(file, range, op.time);
                // A full segment's worth of dirty data accumulated: write
                // the full segments now, keep the tail dirty.
                if dirty.total_bytes() >= config.segment_bytes {
                    let mut chunks = dirty.take_all();
                    if matches!(config.buffer, WriteBufferMode::FsyncAbsorb { .. }) {
                        chunks.append(&mut nvram);
                        nvram_bytes = 0;
                    }
                    let (_, remainder) = writer.write_full_only(op.time, &chunks);
                    if let Some(c) = &mut cleaner {
                        c.maybe_clean(op.time, &mut writer);
                    }
                    for (f, r) in remainder {
                        for piece in r.iter() {
                            dirty.add(f, piece, op.time);
                        }
                    }
                }
            }
            LfsOpKind::Fsync { file } => {
                fsync_ops += 1;
                match config.buffer {
                    WriteBufferMode::None => {
                        // An fsync that finds no dirty data for its file is
                        // free; otherwise LFS "immediately writes out
                        // whatever dirty data is present" — all of it.
                        if dirty.has_file(file) {
                            let chunks = dirty.take_all();
                            write_out(
                                &mut writer,
                                &mut cleaner,
                                op.time,
                                &chunks,
                                SegmentCause::Fsync,
                            );
                        }
                    }
                    WriteBufferMode::FsyncAbsorb { capacity } => {
                        if let Some(r) = dirty.take_file(file) {
                            fsyncs_absorbed += 1;
                            fsync_absorbed_page_bytes += page_bytes(&r);
                            nvram_bytes += r.len_bytes();
                            nvram.push((file, r));
                            if nvram_bytes >= capacity {
                                let chunks = std::mem::take(&mut nvram);
                                nvram_bytes = 0;
                                write_out(
                                    &mut writer,
                                    &mut cleaner,
                                    op.time,
                                    &chunks,
                                    SegmentCause::NvramFull,
                                );
                            }
                        }
                    }
                    WriteBufferMode::StageAll { capacity } => {
                        if let Some(r) = dirty.take_file(file) {
                            fsyncs_absorbed += 1;
                            fsync_absorbed_page_bytes += page_bytes(&r);
                            nvram_bytes += r.len_bytes();
                            nvram.push((file, r));
                            drain_full_segments(
                                &mut writer,
                                &mut cleaner,
                                op.time,
                                &mut nvram,
                                &mut nvram_bytes,
                                capacity,
                                config.segment_bytes,
                            );
                        }
                    }
                }
            }
            LfsOpKind::Delete { file } => {
                dirty.discard_file(file);
                nvram.retain(|(f, _)| *f != file);
                nvram_bytes = nvram.iter().map(|(_, r)| r.len_bytes()).sum();
                writer.usage_mut().kill_file(file);
            }
        }
    }

    // Crashes scheduled past the end of the recorded workload still fire:
    // the plan's duration may exceed the op stream's.
    while next_fault < crashes.len() {
        end_time = end_time.max(crashes[next_fault].time);
        server_crash!(&crashes[next_fault]);
        next_fault += 1;
    }

    // Shutdown: flush whatever is left.
    let mut rest = dirty.take_all();
    rest.append(&mut nvram);
    write_out(
        &mut writer,
        &mut cleaner,
        end_time,
        &rest,
        SegmentCause::Shutdown,
    );

    (
        FsReport {
            name: workload.name.to_string(),
            records: writer.into_records(),
            fsync_ops,
            fsyncs_absorbed,
            fsync_absorbed_page_bytes,
            app_write_bytes,
            cleaner: cleaner.map_or(CleanerStats::default(), |c| c.stats()),
        },
        reliability,
    )
}

/// Bytes NVRAM actually copies when staging `r` at page granularity:
/// distinct 4 KB blocks touched, times the block size.
fn page_bytes(r: &RangeSet) -> u64 {
    // The ranges are sorted and disjoint, so their block spans only ever
    // share a block with the span before.
    let mut blocks = 0;
    let mut covered = 0;
    for piece in r.iter() {
        let (lo, hi) = block_span(piece);
        let lo = lo.max(covered);
        if hi > lo {
            blocks += hi - lo;
            covered = hi;
        }
    }
    blocks * 4096
}

/// Writes full segments out of the NVRAM staging buffer; forces a flush if
/// the buffer exceeded its capacity.
#[allow(clippy::too_many_arguments)]
fn drain_full_segments(
    writer: &mut SegmentWriter,
    cleaner: &mut Option<Cleaner>,
    t: SimTime,
    nvram: &mut Vec<(FileId, RangeSet)>,
    nvram_bytes: &mut u64,
    capacity: u64,
    segment_bytes: u64,
) {
    if *nvram_bytes >= segment_bytes {
        let chunks = std::mem::take(nvram);
        let (_, remainder) = writer.write_full_only(t, &chunks);
        *nvram = remainder;
        *nvram_bytes = nvram.iter().map(|(_, r)| r.len_bytes()).sum();
        if let Some(c) = cleaner {
            c.maybe_clean(t, writer);
        }
    }
    if *nvram_bytes > capacity {
        // Overflow: force everything out.
        let chunks = std::mem::take(nvram);
        *nvram_bytes = 0;
        writer.write_all(t, &chunks, SegmentCause::NvramFull, false);
        if let Some(c) = cleaner {
            c.maybe_clean(t, writer);
        }
    }
}

/// Runs all eight Sprite file systems under `config`.
pub fn run_server(workloads: &[FsWorkload], config: &LfsConfig) -> Vec<FsReport> {
    // Each file system simulates independently; fan out and rejoin in
    // workload order, so the report vector matches a sequential run.
    nvfs_par::par_map(workloads.iter().collect(), nvfs_par::jobs(), |w| {
        run_filesystem(w, config)
    })
}

/// Runs all eight Sprite file systems under `config` with the same
/// injected server-crash schedule, merging the per-FS reliability
/// accounting in workload order (deterministic at any job count).
pub fn run_server_faulted(
    workloads: &[FsWorkload],
    config: &LfsConfig,
    crashes: &[ServerCrashFault],
) -> (Vec<FsReport>, ReliabilityStats) {
    let results = nvfs_par::par_map(workloads.iter().collect(), nvfs_par::jobs(), |w| {
        run_filesystem_faulted(w, config, crashes)
    });
    let mut merged = ReliabilityStats::default();
    let mut reports = Vec::with_capacity(results.len());
    for (report, reliability) in results {
        merged.merge(&reliability);
        reports.push(report);
    }
    (reports, merged)
}

/// Share of total segment writes (across `reports`) issued by each file
/// system — Table 3's last column.
pub fn segment_share(reports: &[FsReport]) -> Vec<(String, f64)> {
    let total: usize = reports.iter().map(FsReport::disk_write_accesses).sum();
    reports
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                percentage(r.disk_write_accesses(), total.max(1)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, LfsOp, ServerWorkloadConfig};
    use nvfs_types::ByteRange;

    fn ops_writes_and_fsync() -> FsWorkload {
        FsWorkload {
            name: "/test",
            ops: vec![
                LfsOp {
                    time: SimTime::from_secs(1),
                    kind: LfsOpKind::Write {
                        file: FileId(0),
                        range: ByteRange::new(0, 8192),
                    },
                },
                LfsOp {
                    time: SimTime::from_secs(2),
                    kind: LfsOpKind::Fsync { file: FileId(0) },
                },
                LfsOp {
                    time: SimTime::from_secs(3),
                    kind: LfsOpKind::Fsync { file: FileId(0) },
                },
            ],
        }
    }

    #[test]
    fn fsync_forces_partial_segment_without_buffer() {
        let r = run_filesystem(&ops_writes_and_fsync(), &LfsConfig::direct());
        assert_eq!(r.count(SegmentCause::Fsync), 1);
        assert_eq!(r.fsync_ops, 2);
        // The second fsync found nothing dirty: no extra segment.
        assert_eq!(r.disk_write_accesses(), 1);
        assert_eq!(r.pct_fsync_partial(), 100.0);
    }

    #[test]
    fn buffer_absorbs_fsync() {
        let r = run_filesystem(
            &ops_writes_and_fsync(),
            &LfsConfig::with_fsync_buffer(512 << 10),
        );
        assert_eq!(r.count(SegmentCause::Fsync), 0);
        assert_eq!(r.fsyncs_absorbed, 1);
        // Data still reaches disk eventually (shutdown flush).
        assert_eq!(r.count(SegmentCause::Shutdown), 1);
        assert_eq!(r.data_bytes(), 8192);
    }

    #[test]
    fn timeout_flush_produces_timeout_partials() {
        let w = FsWorkload {
            name: "/test",
            ops: vec![
                LfsOp {
                    time: SimTime::from_secs(1),
                    kind: LfsOpKind::Write {
                        file: FileId(0),
                        range: ByteRange::new(0, 8192),
                    },
                },
                // A later op advances the sweep clock past 31 s.
                LfsOp {
                    time: SimTime::from_secs(120),
                    kind: LfsOpKind::Write {
                        file: FileId(1),
                        range: ByteRange::new(0, 4096),
                    },
                },
            ],
        };
        let r = run_filesystem(&w, &LfsConfig::direct());
        assert_eq!(r.count(SegmentCause::Timeout), 1);
    }

    #[test]
    fn accumulated_data_writes_full_segments() {
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(LfsOp {
                time: SimTime::from_millis(i * 10),
                kind: LfsOpKind::Write {
                    file: FileId(0),
                    range: ByteRange::at(i * 32 * 1024, 32 * 1024),
                },
            });
        }
        let w = FsWorkload { name: "/test", ops };
        let r = run_filesystem(&w, &LfsConfig::direct());
        assert!(
            r.count(SegmentCause::Full) >= 2,
            "records: {:?}",
            r.records.len()
        );
    }

    #[test]
    fn stage_all_eliminates_partials() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let staged = run_filesystem(&ws[0], &LfsConfig::with_staging_buffer(1 << 20));
        // Only Full segments plus the final shutdown flush reach disk.
        let partials = staged
            .records
            .iter()
            .filter(|r| r.is_partial() && r.cause != SegmentCause::Shutdown)
            .count();
        assert_eq!(
            partials,
            0,
            "{:?}",
            staged.records.iter().map(|r| r.cause).collect::<Vec<_>>()
        );
    }

    #[test]
    fn buffer_reduces_user6_disk_accesses_by_ninety_percent() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let user6 = &ws[0];
        let direct = run_filesystem(user6, &LfsConfig::direct());
        let buffered = run_filesystem(user6, &LfsConfig::with_fsync_buffer(512 << 10));
        let reduction =
            1.0 - buffered.disk_write_accesses() as f64 / direct.disk_write_accesses() as f64;
        assert!(reduction > 0.75, "reduction was {:.2}", reduction);
        // No data lost: everything reaches the disk in both runs.
        assert!(direct.data_bytes() > 0);
        assert!(buffered.data_bytes() >= direct.data_bytes() * 9 / 10);
    }

    #[test]
    fn deletes_absorb_dirty_data() {
        let w = FsWorkload {
            name: "/test",
            ops: vec![
                LfsOp {
                    time: SimTime::from_secs(1),
                    kind: LfsOpKind::Write {
                        file: FileId(0),
                        range: ByteRange::new(0, 8192),
                    },
                },
                LfsOp {
                    time: SimTime::from_secs(2),
                    kind: LfsOpKind::Delete { file: FileId(0) },
                },
            ],
        };
        let r = run_filesystem(&w, &LfsConfig::direct());
        assert_eq!(r.disk_write_accesses(), 0);
        assert_eq!(r.data_bytes(), 0);
    }

    #[test]
    fn disk_time_punishes_partial_segments() {
        use nvfs_disk::DiskParams;
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let disk = DiskParams::sprite_era();
        // /user6 (tiny fsync partials) wastes bandwidth; the buffered run
        // recovers most of it.
        let direct = run_filesystem(&ws[0], &LfsConfig::direct()).disk_time(&disk);
        let buffered =
            run_filesystem(&ws[0], &LfsConfig::with_fsync_buffer(512 << 10)).disk_time(&disk);
        // The buffer removes thousands of positioning operations, so the
        // disk is busy for less total time at higher utilization.
        assert!(
            buffered.utilization() > direct.utilization(),
            "buffered {:.3} vs direct {:.3}",
            buffered.utilization(),
            direct.utilization()
        );
        assert!(
            buffered.total_ms < direct.total_ms * 0.7,
            "{buffered:?} vs {direct:?}"
        );
    }

    fn crash_at(secs: u64) -> ServerCrashFault {
        ServerCrashFault {
            time: SimTime::from_secs(secs),
            torn_segment: None,
        }
    }

    #[test]
    fn server_crash_loses_the_volatile_buffer_without_nvram() {
        // One write, then a crash before any flush: everything is lost.
        let w = FsWorkload {
            name: "/test",
            ops: vec![
                LfsOp {
                    time: SimTime::from_secs(1),
                    kind: LfsOpKind::Write {
                        file: FileId(0),
                        range: ByteRange::new(0, 8192),
                    },
                },
                LfsOp {
                    time: SimTime::from_secs(10),
                    kind: LfsOpKind::Fsync { file: FileId(1) },
                },
            ],
        };
        let (r, rel) = run_filesystem_faulted(&w, &LfsConfig::direct(), &[crash_at(5)]);
        assert_eq!(rel.server_crashes, 1);
        assert_eq!(rel.bytes_lost_buffer, 8192);
        assert_eq!(rel.bytes_replayed, 0);
        assert_eq!(r.data_bytes(), 0, "the lost bytes never reach disk");
    }

    #[test]
    fn nvram_staged_data_survives_a_server_crash() {
        // Write + fsync stages the data into NVRAM; the crash then loses
        // nothing and the restart replays the buffer into the log.
        let w = ops_writes_and_fsync();
        let cfg = LfsConfig::with_fsync_buffer(512 << 10);
        let (r, rel) = run_filesystem_faulted(&w, &cfg, &[crash_at(5)]);
        assert_eq!(rel.server_crashes, 1);
        assert_eq!(rel.bytes_lost_buffer, 0);
        assert_eq!(rel.bytes_replayed, 8192);
        assert_eq!(r.count(SegmentCause::Recovery), 1);
        assert_eq!(r.data_bytes(), 8192, "every byte reaches the disk");
        assert_eq!(rel.bytes_lost(), 0);
    }

    #[test]
    fn torn_replay_is_rewritten_not_lost() {
        let w = ops_writes_and_fsync();
        let cfg = LfsConfig::with_fsync_buffer(512 << 10);
        let torn = ServerCrashFault {
            time: SimTime::from_secs(5),
            torn_segment: Some(0.5),
        };
        let (r, rel) = run_filesystem_faulted(&w, &cfg, &[torn]);
        // The torn segment fails its checksum; roll-forward truncates the
        // whole intended segment, and it is rewritten from NVRAM in full.
        assert_eq!(rel.bytes_rewritten_torn, 8192);
        assert_eq!(rel.bytes_replayed, 8192);
        assert_eq!(rel.bytes_lost(), 0, "NVRAM lets the replay retry");
        // The truncated attempt leaves the log; only the rewrite remains.
        assert_eq!(r.count(SegmentCause::Recovery), 1);
        assert!(r.records.iter().all(|rec| rec.is_valid()));
    }

    #[test]
    fn faulted_run_with_no_crashes_matches_plain_run() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let cfg = LfsConfig::with_fsync_buffer(512 << 10);
        let plain = run_filesystem(&ws[0], &cfg);
        let (faulted, rel) = run_filesystem_faulted(&ws[0], &cfg, &[]);
        assert_eq!(plain.records, faulted.records);
        assert_eq!(rel, ReliabilityStats::default());
    }

    #[test]
    fn server_runs_all_eight() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let reports = run_server(&ws, &LfsConfig::direct());
        assert_eq!(reports.len(), 8);
        let shares = segment_share(&reports);
        let total: f64 = shares.iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1.0);
        // /user6 dominates the segment count.
        assert!(shares[0].1 > 50.0, "user6 share {:.1}", shares[0].1);
    }
}
