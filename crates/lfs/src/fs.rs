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
//!
//! One drive loop runs every server simulation: it owns the segment
//! writer, the dirty cache, the 5-second sweep, the crash cursor and the
//! flushes, and is generic over the buffer in front of the log — the
//! paging buffer here, or the NVRAM log of [`wal_fs`](crate::wal_fs).

use nvfs_faults::{ReliabilityStats, ServerCrashFault};
use nvfs_types::block::block_span;
use nvfs_types::{
    FileId, RangeSet, SimDuration, SimTime, BLOCK_CLEANER_PERIOD, DELAYED_WRITE_BACK,
};

use nvfs_trace::synth::lfs_workload::{FsWorkload, LfsOpKind};

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

/// Configuration for one file-system simulation. Everything else is
/// Sprite's, as the paper measured it: [`SEGMENT_BYTES`] segments, a
/// [`BLOCK_CLEANER_PERIOD`] sweep and [`DELAYED_WRITE_BACK`] of dirty data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LfsConfig {
    /// NVRAM write-buffer mode.
    pub buffer: WriteBufferMode,
}

impl LfsConfig {
    /// Sprite defaults with no NVRAM buffer.
    pub fn direct() -> Self {
        LfsConfig {
            buffer: WriteBufferMode::None,
        }
    }

    /// Sprite defaults with a fsync-absorbing NVRAM buffer of `capacity`
    /// bytes (the paper's headline configuration uses ½ MB).
    pub fn with_fsync_buffer(capacity: u64) -> Self {
        LfsConfig {
            buffer: WriteBufferMode::FsyncAbsorb { capacity },
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
        }
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
}

impl FsReport {
    /// Disk write accesses = segment writes.
    pub fn disk_write_accesses(&self) -> usize {
        self.records.len()
    }

    /// Number of segments with the given cause.
    pub fn count(&self, cause: SegmentCause) -> usize {
        self.records.iter().filter(|r| r.cause == cause).count()
    }

    /// Partial segments (all causes except Full).
    pub fn partial_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_partial()).count()
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
        average_kb(self.records.iter().filter(|r| r.is_partial()))
    }

    /// Average file-data kilobytes per fsync-forced partial (Table 4).
    pub fn avg_fsync_partial_kb(&self) -> Option<f64> {
        average_kb(
            self.records
                .iter()
                .filter(|r| r.cause == SegmentCause::Fsync),
        )
    }

    /// File data bytes written to disk.
    pub fn data_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.data_bytes).sum()
    }

    /// Total on-disk bytes including metadata and summary blocks.
    pub fn on_disk_bytes(&self) -> u64 {
        self.records.iter().map(SegmentRecord::on_disk_bytes).sum()
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
    /// segment writes on the given disk.
    ///
    /// Tiny fsync-forced partials pay the same positioning cost as a full
    /// 512 KB segment while transferring a hundredth of the data — this is
    /// the §3 bandwidth argument in time units.
    pub fn disk_time(&self, disk: &nvfs_disk::DiskParams) -> DiskTime {
        let mut total_ms = 0.0;
        let mut transfer_ms = 0.0;
        for r in &self.records {
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

/// The first time after `now` on the sweep grid
/// `next + k * BLOCK_CLEANER_PERIOD`, for `next` at or before `now`: where
/// a run resumes when the sweeps up to `now` would find nothing to take.
fn first_sweep_after(next: SimTime, now: SimTime) -> SimTime {
    let period = BLOCK_CLEANER_PERIOD.as_micros();
    let steps = (now - next).as_micros() / period + 1;
    next + SimDuration::from_micros(steps * period)
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
    let paging = Paging {
        mode: config.buffer,
        nvram: Chunks::new(),
        nvram_bytes: 0,
        fsyncs_absorbed: 0,
        fsync_absorbed_page_bytes: 0,
    };
    drive(workload, paging, crashes)
}

/// Runs all eight Sprite file systems under `config`.
pub fn run_server(workloads: &[FsWorkload], config: &LfsConfig) -> Vec<FsReport> {
    run_server_faulted(workloads, config, &[]).0
}

/// Runs all eight Sprite file systems under `config` with the same
/// injected server-crash schedule, merging the per-FS reliability
/// accounting in workload order (deterministic at any job count).
pub fn run_server_faulted(
    workloads: &[FsWorkload],
    config: &LfsConfig,
    crashes: &[ServerCrashFault],
) -> (Vec<FsReport>, ReliabilityStats) {
    fan_out(workloads, |w| run_filesystem_faulted(w, config, crashes))
}

/// Runs every file system through `run`: each simulates independently, so
/// they fan out and rejoin in workload order, and the reliability
/// accounting merges in that order too, as a sequential run would.
pub(crate) fn fan_out<R: Send>(
    workloads: &[FsWorkload],
    run: impl Fn(&FsWorkload) -> (R, ReliabilityStats) + Sync,
) -> (Vec<R>, ReliabilityStats) {
    let results = nvfs_par::par_map(workloads.iter().collect(), nvfs_par::jobs(), run);
    let mut merged = ReliabilityStats::default();
    let mut reports = Vec::with_capacity(results.len());
    for (report, reliability) in results {
        merged.merge(&reliability);
        reports.push(report);
    }
    (reports, merged)
}

/// The server state every run shares, whatever sits in front of it: the
/// segment log, the volatile dirty cache, and the run's counters.
pub(crate) struct Lfs {
    pub(crate) writer: SegmentWriter,
    pub(crate) dirty: DirtyCache,
    pub(crate) reliability: ReliabilityStats,
    fsync_ops: u64,
    app_write_bytes: u64,
}

impl Lfs {
    /// The segment-level report; buffers fill in what they absorbed. Ends
    /// the run, so the segment writer publishes its counts here.
    pub(crate) fn into_report(self, name: &str) -> FsReport {
        self.writer.publish();
        FsReport {
            name: name.to_string(),
            records: self.writer.into_records(),
            fsync_ops: self.fsync_ops,
            fsyncs_absorbed: 0,
            fsync_absorbed_page_bytes: 0,
            app_write_bytes: self.app_write_bytes,
        }
    }
}

/// The non-volatile buffer in front of the segment log: the paging write
/// buffer (`Paging`) or the NVRAM log (`wal_fs::Logging`). `drive` is
/// generic over it, so each buffer gets its own monomorphised loop.
pub(crate) trait Buffer {
    /// The server crash this buffer is driven through.
    type Crash;
    /// What one run reports.
    type Report;

    /// When `crash` fires.
    fn crash_time(crash: &Self::Crash) -> SimTime;

    /// Whether a sweep that finds no dirty file has nothing to do and may
    /// be skipped: true unless the buffer works on sweeps of its own.
    fn sweep_idle(&self) -> bool {
        true
    }

    /// Adds buffered data to dirty `chunks` on their way to disk.
    fn piggyback(&mut self, _chunks: &mut Chunks) {}

    /// Flushes the dirty data a sweep at `t` found past the write-back age.
    fn flush_aged(&mut self, lfs: &mut Lfs, t: SimTime, aged: Chunks) {
        lfs.writer.write_all(t, &aged, SegmentCause::Timeout);
    }

    /// Ends the sweep at `t`.
    fn sweep(&mut self, _lfs: &mut Lfs, _t: SimTime) {}

    /// An application fsync of `file` at `t`.
    fn fsync(&mut self, lfs: &mut Lfs, t: SimTime, file: FileId);

    /// `file` was deleted.
    fn delete(&mut self, file: FileId);

    /// The server dies and restarts. `lost` holds the volatile dirty cache;
    /// whatever the buffer leaves in it counts as lost.
    fn crash(&mut self, lfs: &mut Lfs, crash: &Self::Crash, lost: &mut Chunks);

    /// Shutdown at `t`, before the dirty remainder `rest` is written as one
    /// [`SegmentCause::Shutdown`] write.
    fn shutdown(&mut self, lfs: &mut Lfs, t: SimTime, rest: &mut Chunks);

    /// The run's report.
    fn report(self, lfs: Lfs, name: &str) -> Self::Report;
}

/// The one server drive loop: replays `workload` through the segment
/// log with `buffer` in front, under the 5-second sweep and the crashes
/// in `crashes` (sorted by time).
pub(crate) fn drive<B: Buffer>(
    workload: &FsWorkload,
    mut buffer: B,
    crashes: &[B::Crash],
) -> (B::Report, ReliabilityStats) {
    let mut lfs = Lfs {
        writer: SegmentWriter::new(SEGMENT_BYTES),
        dirty: DirtyCache::new(),
        reliability: ReliabilityStats::default(),
        fsync_ops: 0,
        app_write_bytes: 0,
    };
    let mut crashes = crashes.iter().peekable();
    let mut next_sweep = SimTime::ZERO + BLOCK_CLEANER_PERIOD;
    let mut end_time = SimTime::ZERO;

    for op in &workload.ops {
        // Fire server crashes due by this op's time.
        while let Some(fault) = crashes.next_if(|c| B::crash_time(c) <= op.time) {
            crash(&mut lfs, &mut buffer, fault);
        }
        end_time = end_time.max(op.time);
        // Advance the 5-second sweep: flush data older than the write-back
        // age, then let the buffer take its turn.
        while next_sweep <= op.time {
            if lfs.dirty.file_count() == 0 && buffer.sweep_idle() {
                // Nothing for the sweeps to take: skip the empty ones.
                next_sweep = first_sweep_after(next_sweep, op.time);
                break;
            }
            if next_sweep >= SimTime::ZERO + DELAYED_WRITE_BACK {
                let aged = lfs.dirty.take_older_than(next_sweep - DELAYED_WRITE_BACK);
                if !aged.is_empty() {
                    buffer.flush_aged(&mut lfs, next_sweep, aged);
                }
            }
            buffer.sweep(&mut lfs, next_sweep);
            next_sweep += BLOCK_CLEANER_PERIOD;
        }

        match op.kind {
            LfsOpKind::Write { file, range } => {
                lfs.app_write_bytes += range.len();
                lfs.dirty.add(file, range, op.time);
                // A full segment's worth of dirty data accumulated: write
                // the full segments now, keep the tail dirty.
                if lfs.dirty.total_bytes() >= SEGMENT_BYTES {
                    let mut chunks = lfs.dirty.take_all();
                    buffer.piggyback(&mut chunks);
                    for (f, r) in lfs.writer.write_full_only(op.time, &chunks) {
                        for piece in r.iter() {
                            lfs.dirty.add(f, piece, op.time);
                        }
                    }
                }
            }
            LfsOpKind::Fsync { file } => {
                lfs.fsync_ops += 1;
                buffer.fsync(&mut lfs, op.time, file);
            }
            LfsOpKind::Delete { file } => {
                lfs.dirty.discard_file(file);
                buffer.delete(file);
                lfs.writer.usage_mut().kill_file(file);
            }
        }
    }

    // Crashes scheduled past the end of the recorded workload still fire:
    // the plan's duration may exceed the op stream's.
    for fault in crashes {
        end_time = end_time.max(B::crash_time(fault));
        crash(&mut lfs, &mut buffer, fault);
    }

    // Shutdown: flush whatever is left.
    let mut rest = lfs.dirty.take_all();
    buffer.shutdown(&mut lfs, end_time, &mut rest);
    lfs.writer
        .write_all(end_time, &rest, SegmentCause::Shutdown);
    let reliability = lfs.reliability;
    (buffer.report(lfs, workload.name), reliability)
}

/// The server dies: the volatile dirty cache is lost, except what the
/// buffer recovers from it.
fn crash<B: Buffer>(lfs: &mut Lfs, buffer: &mut B, fault: &B::Crash) {
    lfs.reliability.server_crashes += 1;
    let mut lost = lfs.dirty.take_all();
    buffer.crash(lfs, fault, &mut lost);
    lfs.reliability.bytes_lost_buffer += lost.iter().map(|(_, r)| r.len_bytes()).sum::<u64>();
}

/// The paper's *paging* answer: an NVRAM write buffer that stages whole
/// blocks, in one of the three [`WriteBufferMode`]s.
struct Paging {
    mode: WriteBufferMode,
    nvram: Chunks,
    nvram_bytes: u64,
    fsyncs_absorbed: u64,
    fsync_absorbed_page_bytes: u64,
}

impl Paging {
    fn stage(&mut self, file: FileId, r: RangeSet) {
        self.nvram_bytes += r.len_bytes();
        self.nvram.push((file, r));
    }

    /// Stages an fsync'd file's dirty data instead of writing it.
    fn absorb(&mut self, file: FileId, r: RangeSet) {
        self.fsyncs_absorbed += 1;
        self.fsync_absorbed_page_bytes += page_bytes(&r);
        self.stage(file, r);
    }

    fn take(&mut self) -> Chunks {
        self.nvram_bytes = 0;
        std::mem::take(&mut self.nvram)
    }

    /// Writes full segments out of the staging buffer; forces a flush if
    /// the buffer exceeded its capacity.
    fn drain_full_segments(&mut self, lfs: &mut Lfs, t: SimTime, capacity: u64) {
        if self.nvram_bytes >= SEGMENT_BYTES {
            let chunks = std::mem::take(&mut self.nvram);
            self.nvram = lfs.writer.write_full_only(t, &chunks);
            self.nvram_bytes = self.nvram.iter().map(|(_, r)| r.len_bytes()).sum();
        }
        if self.nvram_bytes > capacity {
            // Overflow: force everything out.
            let chunks = self.take();
            lfs.writer.write_all(t, &chunks, SegmentCause::NvramFull);
        }
    }
}

impl Buffer for Paging {
    type Crash = ServerCrashFault;
    type Report = FsReport;

    fn crash_time(crash: &ServerCrashFault) -> SimTime {
        crash.time
    }

    /// `FsyncAbsorb` folds the buffer into any segment written for another
    /// reason. This is where a known durability loss sits: on the write
    /// path's full flush, the remainder that misses the full segments goes
    /// back to the *volatile* dirty cache, fsync-acked NVRAM bytes included,
    /// so a later server crash counts them in `bytes_lost_buffer`.
    fn piggyback(&mut self, chunks: &mut Chunks) {
        if matches!(self.mode, WriteBufferMode::FsyncAbsorb { .. }) {
            chunks.append(&mut self.take());
        }
    }

    fn flush_aged(&mut self, lfs: &mut Lfs, t: SimTime, mut aged: Chunks) {
        self.piggyback(&mut aged);
        match self.mode {
            WriteBufferMode::StageAll { capacity } => {
                // Timeout data stages into NVRAM instead.
                for (f, r) in aged {
                    self.stage(f, r);
                }
                self.drain_full_segments(lfs, t, capacity);
            }
            _ => lfs.writer.write_all(t, &aged, SegmentCause::Timeout),
        }
    }

    fn fsync(&mut self, lfs: &mut Lfs, t: SimTime, file: FileId) {
        match self.mode {
            WriteBufferMode::None => {
                // An fsync that finds no dirty data for its file is free;
                // otherwise LFS "immediately writes out whatever dirty data
                // is present" — all of it.
                if lfs.dirty.has_file(file) {
                    let chunks = lfs.dirty.take_all();
                    lfs.writer.write_all(t, &chunks, SegmentCause::Fsync);
                }
            }
            WriteBufferMode::FsyncAbsorb { capacity } => {
                if let Some(r) = lfs.dirty.take_file(file) {
                    self.absorb(file, r);
                    if self.nvram_bytes >= capacity {
                        let chunks = self.take();
                        lfs.writer.write_all(t, &chunks, SegmentCause::NvramFull);
                    }
                }
            }
            WriteBufferMode::StageAll { capacity } => {
                if let Some(r) = lfs.dirty.take_file(file) {
                    self.absorb(file, r);
                    self.drain_full_segments(lfs, t, capacity);
                }
            }
        }
    }

    fn delete(&mut self, file: FileId) {
        self.nvram.retain(|(f, _)| *f != file);
        self.nvram_bytes = self.nvram.iter().map(|(_, r)| r.len_bytes()).sum();
    }

    /// The staging buffer survives and is replayed on restart. A replay
    /// write torn by the crash fails its summary checksum; roll-forward
    /// truncates it and the segment is written again from NVRAM (wasted
    /// access, no loss).
    fn crash(&mut self, lfs: &mut Lfs, crash: &ServerCrashFault, _lost: &mut Chunks) {
        if self.nvram_bytes == 0 {
            return;
        }
        lfs.reliability.bytes_replayed += self.nvram_bytes;
        let staged = self.take();
        let t = crash.time;
        match crash.torn_segment {
            Some(fraction) => {
                let tail = lfs
                    .writer
                    .write_all_torn(t, &staged, SegmentCause::Recovery, fraction);
                let rolled = lfs.writer.roll_forward(t);
                lfs.reliability.bytes_rewritten_torn += rolled.truncated_data_bytes;
                lfs.writer.write_all(t, &tail, SegmentCause::Recovery);
            }
            None => lfs.writer.write_all(t, &staged, SegmentCause::Recovery),
        }
    }

    /// Buffered data leaves with the dirty remainder, in one write.
    fn shutdown(&mut self, _lfs: &mut Lfs, _t: SimTime, rest: &mut Chunks) {
        rest.append(&mut self.nvram);
    }

    fn report(self, lfs: Lfs, name: &str) -> FsReport {
        FsReport {
            fsyncs_absorbed: self.fsyncs_absorbed,
            fsync_absorbed_page_bytes: self.fsync_absorbed_page_bytes,
            ..lfs.into_report(name)
        }
    }
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

    #[test]
    fn first_sweep_after_lands_on_the_grid() {
        let at = SimTime::from_secs;
        assert_eq!(first_sweep_after(at(5), at(5)), at(10));
        assert_eq!(first_sweep_after(at(5), at(23)), at(25));
        assert_eq!(first_sweep_after(at(5), at(25)), at(30));
    }

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
