//! The write-ahead-log server mode: LFS in front of an NVRAM log.
//!
//! Where [`fs`](crate::fs) models the paper's §4 *paging* answer (a
//! non-volatile segment write buffer staging whole 4 KB blocks), this
//! module models the *logging* answer the follow-on literature converged
//! on (NVLog, arXiv 2408.02911; logging-vs-paging, arXiv 2305.02244).
//! Both are buffers of the one drive loop in [`fs`](crate::fs), which owns
//! the segment writer, dirty cache, sweep clock and crash cursor; the log
//! supplies only what differs:
//!
//! * `fsync` encodes the file's dirty byte ranges into one checksummed,
//!   sequence-numbered record, appends it to the [`NvLog`], and
//!   acknowledges as soon as the NVRAM copy completes — exact bytes plus a
//!   20-byte frame, not block-rounded pages, and no disk write.
//! * Segments are written back lazily: the 5-second sweep drains log
//!   records one sweep old as
//!   [`SegmentCause::WalDrain`] segments, inside a `wal_drain` timing span.
//!   The drains of one run fold into one span record, so the manifest
//!   counts them without keeping a record per drain. Sweeps with nothing
//!   dirty and an empty log are skipped outright.
//! * The log truncates through a record's sequence number only after the
//!   segment write carrying its bytes completes — the invariant that makes
//!   the ack at append time safe.
//! * After a crash the log rolls forward: the valid record prefix is
//!   replayed as [`SegmentCause::Recovery`] segments and the torn tail
//!   (necessarily un-acked) is truncated.

use std::collections::BTreeMap;

use nvfs_faults::{ReliabilityStats, WalCrashFault, WalCrashPoint};
use nvfs_types::{FileId, RangeSet, SimDuration, SimTime, BLOCK_CLEANER_PERIOD};
use nvfs_wal::{NvLog, WalEntry};

use nvfs_trace::synth::lfs_workload::FsWorkload;

use crate::fs::{drive, fan_out, Buffer, FsReport, Lfs};
use crate::layout::SegmentCause;
use crate::log::Chunks;

/// Age at which an appended log record is drained to disk: one sweep
/// period, so each sweep drains what the previous one left.
const DRAIN_AGE: SimDuration = BLOCK_CLEANER_PERIOD;

/// Configuration for one WAL-mode file-system simulation. The segment
/// log around it runs exactly as under [`LfsConfig`](crate::fs::LfsConfig),
/// and log records drain once they are one 5-second sweep old.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalConfig {
    /// NVRAM log capacity in bytes (½ MB, matching the paper's write
    /// buffer so the logging-vs-paging comparison is like for like).
    pub log_capacity: u64,
}

impl WalConfig {
    /// Sprite defaults: ½ MB of log NVRAM, drained on the next sweep.
    pub fn sprite() -> Self {
        WalConfig {
            log_capacity: 512 << 10,
        }
    }
}

/// What one acknowledged fsync cost: the bytes its record appended, plus
/// any synchronous overflow drain it had to wait out. The experiment layer
/// turns this into latency with a disk model — `append_latency_ns(payload)`
/// for the NVRAM copy, positioning + transfer for the forced segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsyncSample {
    /// Payload data bytes the fsync's record carried.
    pub payload_bytes: u64,
    /// Segments a log-overflow drain forced this fsync to wait for.
    pub forced_segments: u64,
    /// On-disk bytes of those forced segments.
    pub forced_on_disk_bytes: u64,
}

/// WAL-specific accounting for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended (and acknowledged).
    pub appends: u64,
    /// Payload data bytes across those records.
    pub append_bytes: u64,
    /// Background drain passes that wrote at least one segment.
    pub drains: u64,
    /// Data bytes drained lazily by the background sweep.
    pub drained_bytes: u64,
    /// Synchronous drains forced by log overflow.
    pub overflow_drains: u64,
    /// Records released by truncation.
    pub truncated_records: u64,
    /// Log bytes discarded by crash roll-forward (torn, never acked).
    pub torn_log_bytes: u64,
    /// Data bytes replayed from the log after crashes.
    pub replayed_bytes: u64,
}

/// The bytes a WAL run has promised to keep, per file: every range of
/// every acknowledged append, less the files deleted since.
pub type Promise = BTreeMap<FileId, RangeSet>;

/// One crash incident as the durability oracle needs to see it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalCrashIncident {
    /// When the server died.
    pub at: SimTime,
    /// Where in the commit protocol the crash landed.
    pub point: WalCrashPoint,
    /// The promise at the crash, a `PostAppend` record included.
    pub promise: Promise,
    /// Byte ranges recovery replayed from the log.
    pub replayed: Chunks,
    /// Live on-disk byte ranges at the moment of the crash.
    pub disk: Chunks,
    /// Log bytes truncated as torn (never acknowledged).
    pub truncated_log_bytes: u64,
}

/// What a WAL run leaves for the durability oracle: the promise at each
/// crash beside what recovery found, and the promise and disk at
/// shutdown. Its size grows with crashes and files, not with appends.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalTrace {
    /// Crash incidents in occurrence order.
    pub crashes: Vec<WalCrashIncident>,
    /// The promise at shutdown.
    pub final_promise: Promise,
    /// Live on-disk byte ranges at shutdown.
    pub final_disk: Chunks,
}

/// Results of one WAL-mode simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFsReport {
    /// The segment-level report (records, counters, disk time).
    pub fs: FsReport,
    /// WAL-specific accounting.
    pub wal: WalStats,
    /// One sample per acknowledged fsync.
    pub fsync_samples: Vec<FsyncSample>,
    /// The promise and crash record for the durability oracle.
    pub trace: WalTrace,
}

/// Simulates `workload` in WAL mode with no crashes.
///
/// # Examples
///
/// ```
/// use nvfs_lfs::wal_fs::{run_filesystem_wal, WalConfig};
/// use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};
///
/// let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
/// let report = run_filesystem_wal(&ws[0], &WalConfig::sprite());
/// assert_eq!(report.wal.appends as usize, report.fsync_samples.len());
/// assert!(report.fs.data_bytes() > 0);
/// ```
pub fn run_filesystem_wal(workload: &FsWorkload, config: &WalConfig) -> WalFsReport {
    run_filesystem_wal_faulted(workload, config, &[]).0
}

/// Like [`run_filesystem_wal`], but with injected WAL-mode server crashes.
/// At each crash the volatile dirty cache is lost; the log survives, rolls
/// forward (truncating any torn tail record, which is never acknowledged
/// and therefore never promised), and replays its valid prefix as
/// [`SegmentCause::Recovery`] segments. Crashes must be sorted by time, as
/// [`FaultSchedule`](nvfs_faults::FaultSchedule) compiles them.
pub fn run_filesystem_wal_faulted(
    workload: &FsWorkload,
    config: &WalConfig,
    crashes: &[WalCrashFault],
) -> (WalFsReport, ReliabilityStats) {
    let logging = Logging {
        log: NvLog::new(config.log_capacity),
        stats: WalStats::default(),
        fsync_samples: Vec::new(),
        trace: WalTrace::default(),
    };
    drive(workload, logging, crashes)
}

/// Runs all eight Sprite file systems in WAL mode (deterministic at any
/// job count: fan out, rejoin in workload order).
pub fn run_server_wal(workloads: &[FsWorkload], config: &WalConfig) -> Vec<WalFsReport> {
    run_server_wal_faulted(workloads, config, &[]).0
}

/// Runs all eight Sprite file systems in WAL mode with the same injected
/// crash schedule, merging the per-FS reliability accounting in workload
/// order.
pub fn run_server_wal_faulted(
    workloads: &[FsWorkload],
    config: &WalConfig,
    crashes: &[WalCrashFault],
) -> (Vec<WalFsReport>, ReliabilityStats) {
    fan_out(workloads, |w| {
        run_filesystem_wal_faulted(w, config, crashes)
    })
}

/// The *logging* buffer: the NVRAM log, its accounting and the trace the
/// durability oracle reads, whose `final_promise` is kept current.
struct Logging {
    log: NvLog,
    stats: WalStats,
    fsync_samples: Vec<FsyncSample>,
    trace: WalTrace,
}

impl Logging {
    /// Appends and acknowledges one record: its ranges are promised from
    /// `t` on.
    fn append(&mut self, t: SimTime, file: FileId, ranges: RangeSet) {
        self.stats.appends += 1;
        self.stats.append_bytes += ranges.len_bytes();
        self.trace
            .final_promise
            .entry(file)
            .or_default()
            .union_with(&ranges);
        self.log.append(t, file, ranges);
    }

    /// Writes the first `n` log records as `cause` segments, then truncates
    /// the log through them — writeback completion first, truncation
    /// second, never the other way around. Returns what was written.
    fn write_back(&mut self, lfs: &mut Lfs, t: SimTime, n: usize, cause: SegmentCause) -> Chunks {
        let chunks = log_chunks(&self.log.entries()[..n]);
        lfs.writer.write_all(t, &chunks, cause);
        if let Some(seq) = self.log.entries()[..n].last().map(|e| e.seq) {
            self.stats.truncated_records += n as u64;
            self.log.truncate_through(t, seq);
        }
        chunks
    }

    /// Drains every log record appended at or before `t - age` as
    /// [`SegmentCause::WalDrain`] segments.
    fn drain(&mut self, lfs: &mut Lfs, t: SimTime, age: SimDuration) {
        if t < SimTime::ZERO + age {
            return;
        }
        let cutoff = t - age;
        let due = self
            .log
            .entries()
            .iter()
            .take_while(|e| e.time <= cutoff)
            .count();
        if due == 0 {
            return;
        }
        nvfs_obs::timing::span("wal_drain", || {
            let chunks = self.write_back(lfs, t, due, SegmentCause::WalDrain);
            let drained: u64 = chunks.iter().map(|(_, r)| r.len_bytes()).sum();
            if drained > 0 {
                self.stats.drains += 1;
                self.stats.drained_bytes += drained;
            }
        });
    }
}

fn log_chunks(entries: &[WalEntry]) -> Chunks {
    entries.iter().map(|e| (e.file, e.ranges.clone())).collect()
}

impl Buffer for Logging {
    type Crash = WalCrashFault;
    type Report = WalFsReport;

    fn crash_time(crash: &WalCrashFault) -> SimTime {
        crash.time
    }

    /// A sweep with nothing dirty still drains a non-empty log.
    fn sweep_idle(&self) -> bool {
        self.log.entries().is_empty()
    }

    /// Background drain: log records old enough leave for disk, and only
    /// then does the log let them go.
    fn sweep(&mut self, lfs: &mut Lfs, t: SimTime) {
        self.drain(lfs, t, DRAIN_AGE);
    }

    fn fsync(&mut self, lfs: &mut Lfs, t: SimTime, file: FileId) {
        let Some(r) = lfs.dirty.take_file(file) else {
            return;
        };
        // Overflow forces a synchronous drain first — the WAL analogue of
        // the write buffer's NvramFull flush — and this fsync pays the disk
        // time.
        let mut sample = FsyncSample {
            payload_bytes: r.len_bytes(),
            forced_segments: 0,
            forced_on_disk_bytes: 0,
        };
        if self.log.would_overflow(&r) {
            let before = lfs.writer.records().len();
            let n = self.log.entries().len();
            self.write_back(lfs, t, n, SegmentCause::NvramFull);
            self.stats.overflow_drains += 1;
            let forced = &lfs.writer.records()[before..];
            sample.forced_segments = forced.len() as u64;
            sample.forced_on_disk_bytes = forced.iter().map(|rec| rec.on_disk_bytes()).sum();
        }
        self.append(t, file, r);
        self.fsync_samples.push(sample);
    }

    fn delete(&mut self, file: FileId) {
        self.log.kill_file(file);
        self.trace.final_promise.remove(&file);
    }

    /// The log survives the crash. Point-specific behaviour exercises each
    /// boundary of the commit protocol's append -> writeback -> truncate
    /// cycle; the restart then rolls the log forward and replays it.
    fn crash(&mut self, lfs: &mut Lfs, crash: &WalCrashFault, doomed: &mut Chunks) {
        let t = crash.time;
        match crash.point {
            WalCrashPoint::MidAppend | WalCrashPoint::TornRecord => {
                // An in-flight append is torn: mostly-header for MidAppend,
                // mostly-payload for TornRecord. Either way the fsync never
                // acked, so the bytes are simply lost with the rest of the
                // dirty cache.
                if let Some((f, r)) = doomed.first() {
                    let fraction = match crash.point {
                        WalCrashPoint::MidAppend => 0.2,
                        _ => 0.8,
                    };
                    self.log.append_torn(*f, r, fraction);
                }
            }
            WalCrashPoint::PostAppend => {
                // The append completed and acked just before the crash:
                // those bytes are promised and must be replayed.
                if !doomed.is_empty() {
                    let (f, r) = doomed.remove(0);
                    self.append(t, f, r);
                }
            }
            WalCrashPoint::MidTruncation => {
                // A drain's segment writes completed but the crash lands
                // before truncation: the records survive in the log and
                // will be replayed a second time. Replay is idempotent (the
                // blocks are simply rewritten), which is exactly what this
                // point proves.
                lfs.writer
                    .write_all(t, &log_chunks(self.log.entries()), SegmentCause::WalDrain);
            }
        }

        // Restart: roll the log forward and replay the valid prefix.
        let disk = lfs.writer.usage().live_ranges();
        let recovery = self.log.recover(t);
        self.stats.torn_log_bytes += recovery.truncated_bytes;
        let n = self.log.entries().len();
        let replayed = self.write_back(lfs, t, n, SegmentCause::Recovery);
        if !replayed.is_empty() {
            lfs.reliability.bytes_replayed += recovery.replayed_bytes;
            self.stats.replayed_bytes += recovery.replayed_bytes;
        }
        self.trace.crashes.push(WalCrashIncident {
            at: t,
            point: crash.point,
            promise: self.trace.final_promise.clone(),
            replayed,
            disk,
            truncated_log_bytes: recovery.truncated_bytes,
        });
    }

    /// The log drains first; the dirty remainder then goes out on its own.
    fn shutdown(&mut self, lfs: &mut Lfs, t: SimTime, _rest: &mut Chunks) {
        self.drain(lfs, t, SimDuration::ZERO);
    }

    fn report(mut self, lfs: Lfs, name: &str) -> WalFsReport {
        self.log.publish();
        self.trace.final_disk = lfs.writer.usage().live_ranges();
        WalFsReport {
            fs: FsReport {
                fsyncs_absorbed: self.stats.appends,
                ..lfs.into_report(name)
            },
            wal: self.stats,
            fsync_samples: self.fsync_samples,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_trace::synth::lfs_workload::{
        sprite_server_workloads, LfsOp, LfsOpKind, ServerWorkloadConfig,
    };
    use nvfs_types::ByteRange;

    fn write_then_fsync() -> FsWorkload {
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
                // A late op keeps the clock running past the drain age.
                LfsOp {
                    time: SimTime::from_secs(60),
                    kind: LfsOpKind::Fsync { file: FileId(0) },
                },
            ],
        }
    }

    #[test]
    fn fsync_acks_into_the_log_and_drains_lazily() {
        let r = run_filesystem_wal(&write_then_fsync(), &WalConfig::sprite());
        // The fsync appended instead of forcing a disk write...
        assert_eq!(r.fs.count(SegmentCause::Fsync), 0);
        assert_eq!(r.wal.appends, 1);
        assert_eq!(r.fsync_samples.len(), 1);
        assert_eq!(r.fsync_samples[0].payload_bytes, 8192);
        assert_eq!(r.fsync_samples[0].forced_segments, 0);
        // ...and a later sweep drained the record as a WalDrain segment.
        assert_eq!(r.fs.count(SegmentCause::WalDrain), 1);
        assert_eq!(r.wal.drained_bytes, 8192);
        assert_eq!(r.wal.truncated_records, 1);
        assert_eq!(r.fs.data_bytes(), 8192);
    }

    #[test]
    fn a_crash_free_run_promises_exactly_its_fsynced_ranges() {
        let op = |secs, kind| LfsOp {
            time: SimTime::from_secs(secs),
            kind,
        };
        let write = |file, start, end| LfsOpKind::Write {
            file: FileId(file),
            range: ByteRange::new(start, end),
        };
        let fsync = |file| LfsOpKind::Fsync { file: FileId(file) };
        let w = FsWorkload {
            name: "/test",
            ops: vec![
                op(1, write(0, 0, 8192)),
                op(1, write(1, 0, 4096)),
                op(2, fsync(0)),
                op(3, write(0, 16384, 20480)),
                op(3, fsync(0)),
                op(4, fsync(1)),
                // Dirty but never fsynced: written back, not promised.
                op(5, write(2, 0, 4096)),
                op(60, fsync(3)),
            ],
        };
        let r = run_filesystem_wal(&w, &WalConfig::sprite());
        assert!(r.trace.crashes.is_empty());
        let mut file0 = RangeSet::from_range(ByteRange::new(0, 8192));
        file0.insert(ByteRange::new(16384, 20480));
        let file1 = RangeSet::from_range(ByteRange::new(0, 4096));
        assert_eq!(
            r.trace.final_promise,
            Promise::from([(FileId(0), file0), (FileId(1), file1)])
        );
    }

    #[test]
    fn truncation_only_follows_writeback() {
        // Within one run, every truncated record's bytes are on disk:
        // total drained + replayed bytes never lag truncations.
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let r = run_filesystem_wal(&ws[0], &WalConfig::sprite());
        assert!(r.wal.truncated_records >= r.wal.drains);
        // Every promised byte reached the disk by shutdown.
        let on_disk: u64 = r.fs.data_bytes();
        assert!(on_disk > 0);
        assert_eq!(r.wal.torn_log_bytes, 0, "no crash, no torn records");
    }

    #[test]
    fn overflow_forces_a_synchronous_drain() {
        // A log two records wide: the third fsync overflows it.
        let mut ops = Vec::new();
        for i in 0..3u64 {
            ops.push(LfsOp {
                time: SimTime::from_millis(i * 10),
                kind: LfsOpKind::Write {
                    file: FileId(i as u32),
                    range: ByteRange::new(0, 100 << 10),
                },
            });
            ops.push(LfsOp {
                time: SimTime::from_millis(i * 10 + 5),
                kind: LfsOpKind::Fsync {
                    file: FileId(i as u32),
                },
            });
        }
        let w = FsWorkload { name: "/test", ops };
        let cfg = WalConfig {
            log_capacity: 210 << 10,
        };
        let r = run_filesystem_wal(&w, &cfg);
        assert_eq!(r.wal.overflow_drains, 1);
        let forced: Vec<_> = r
            .fsync_samples
            .iter()
            .filter(|s| s.forced_segments > 0)
            .collect();
        assert_eq!(forced.len(), 1);
        assert!(forced[0].forced_on_disk_bytes > 0);
        assert!(r.fs.count(SegmentCause::NvramFull) >= 1);
    }

    #[test]
    fn deletes_withdraw_the_promise_from_the_log() {
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
                    time: SimTime::from_secs(1),
                    kind: LfsOpKind::Fsync { file: FileId(0) },
                },
                LfsOp {
                    time: SimTime::from_secs(2),
                    kind: LfsOpKind::Delete { file: FileId(0) },
                },
            ],
        };
        let r = run_filesystem_wal(&w, &WalConfig::sprite());
        // The delete withdraws the promise, and the deleted file's bytes
        // never reach the disk live.
        assert!(r.trace.final_promise.is_empty());
        assert!(r.trace.final_disk.is_empty());
        assert_eq!(r.fs.data_bytes(), 0);
    }

    fn crash(secs: u64, point: WalCrashPoint) -> WalCrashFault {
        WalCrashFault {
            time: SimTime::from_secs(secs),
            point,
        }
    }

    #[test]
    fn post_append_crash_replays_the_promised_record() {
        let w = write_then_fsync();
        // Crash at t=1.5s: the write is dirty, un-fsynced. PostAppend
        // promotes it to an acked append, so recovery must replay it.
        let (r, rel) = run_filesystem_wal_faulted(
            &w,
            &WalConfig::sprite(),
            &[crash(1, WalCrashPoint::PostAppend)],
        );
        // The crash fires when the t=1s write arrives... dirty is empty at
        // that point, so nothing was appendable; the later ops proceed.
        assert_eq!(rel.server_crashes, 1);
        // Crash again after the write exists:
        let (r2, rel2) = run_filesystem_wal_faulted(
            &w,
            &WalConfig::sprite(),
            &[crash(2, WalCrashPoint::PostAppend)],
        );
        assert_eq!(rel2.server_crashes, 1);
        assert_eq!(rel2.bytes_lost_buffer, 0, "the one dirty file was acked");
        assert_eq!(rel2.bytes_replayed, 8192);
        assert!(r2.fs.count(SegmentCause::Recovery) >= 1);
        // The record appended at the crash is in the crash's promise.
        let promised = RangeSet::from_range(ByteRange::new(0, 8192));
        assert_eq!(
            r2.trace.crashes[0].promise,
            Promise::from([(FileId(0), promised)])
        );
        let _ = (r, rel);
    }

    #[test]
    fn torn_record_crash_loses_only_unacked_bytes() {
        let w = write_then_fsync();
        let (r, rel) = run_filesystem_wal_faulted(
            &w,
            &WalConfig::sprite(),
            &[crash(2, WalCrashPoint::TornRecord)],
        );
        // The tear happened mid-append: the fsync never acked, so the
        // bytes count as ordinary volatile loss, and roll-forward
        // truncated the torn frame.
        assert_eq!(rel.bytes_lost_buffer, 8192);
        assert_eq!(rel.bytes_replayed, 0);
        assert!(r.wal.torn_log_bytes > 0);
        let [incident] = &r.trace.crashes[..] else {
            panic!("one crash, got {:?}", r.trace.crashes);
        };
        assert!(incident.promise.is_empty(), "nothing was acked");
        assert!(incident.replayed.is_empty());
        assert!(incident.truncated_log_bytes > 0);
    }

    #[test]
    fn mid_truncation_replay_is_idempotent() {
        // Fsync promises the bytes; the crash fires after the drain wrote
        // them but before truncation, so recovery replays them again.
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
                    time: SimTime::from_secs(1),
                    kind: LfsOpKind::Fsync { file: FileId(0) },
                },
                LfsOp {
                    time: SimTime::from_secs(40),
                    kind: LfsOpKind::Fsync { file: FileId(1) },
                },
            ],
        };
        let (r, rel) = run_filesystem_wal_faulted(
            &w,
            &WalConfig::sprite(),
            &[crash(3, WalCrashPoint::MidTruncation)],
        );
        assert_eq!(rel.bytes_replayed, 8192, "the un-truncated record replays");
        assert!(r.fs.count(SegmentCause::WalDrain) >= 1);
        assert!(r.fs.count(SegmentCause::Recovery) >= 1);
        // Idempotence: the blocks are simply rewritten; exactly one copy
        // of the file's 8 KB is live at shutdown.
        let live: u64 = r
            .trace
            .final_disk
            .iter()
            .filter(|(f, _)| *f == FileId(0))
            .map(|(_, rs)| rs.len_bytes())
            .sum();
        assert_eq!(live, 8192);
        assert_eq!(rel.bytes_lost(), 0);
    }

    #[test]
    fn faulted_run_with_no_crashes_matches_plain_run() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let plain = run_filesystem_wal(&ws[0], &WalConfig::sprite());
        let (faulted, rel) = run_filesystem_wal_faulted(&ws[0], &WalConfig::sprite(), &[]);
        assert_eq!(plain, faulted);
        assert_eq!(rel, ReliabilityStats::default());
    }

    #[test]
    fn wal_mode_beats_direct_mode_on_disk_accesses() {
        let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
        let direct = crate::fs::run_filesystem(&ws[0], &crate::fs::LfsConfig::direct());
        let wal = run_filesystem_wal(&ws[0], &WalConfig::sprite());
        // The log batches fsyncs across the drain age, so /user6's storm
        // of fsync partials collapses into periodic drains.
        assert!(
            wal.fs.disk_write_accesses() < direct.disk_write_accesses() / 2,
            "wal {} vs direct {}",
            wal.fs.disk_write_accesses(),
            direct.disk_write_accesses()
        );
    }
}
