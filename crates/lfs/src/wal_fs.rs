//! The write-ahead-log server mode: LFS in front of an NVRAM log.
//!
//! Where [`fs`](crate::fs) models the paper's §4 *paging* answer (a
//! non-volatile segment write buffer staging whole 4 KB blocks), this
//! module models the *logging* answer the follow-on literature converged
//! on (NVLog, arXiv 2408.02911; logging-vs-paging, arXiv 2305.02244):
//!
//! * `fsync` encodes the file's dirty byte ranges into one checksummed,
//!   sequence-numbered record, appends it to the [`NvLog`], and
//!   acknowledges as soon as the NVRAM copy completes — exact bytes plus a
//!   20-byte frame, not block-rounded pages, and no disk write.
//! * Segments are written back lazily: the 5-second sweep drains log
//!   records older than [`WalConfig::drain_age`] as
//!   [`SegmentCause::WalDrain`] segments, inside a `wal_drain` timing span.
//! * The log truncates through a record's sequence number only after the
//!   segment write carrying its bytes completes — the invariant that makes
//!   the ack at append time safe.
//! * After a crash the log rolls forward: the valid record prefix is
//!   replayed as [`SegmentCause::Recovery`] segments and the torn tail
//!   (necessarily un-acked) is truncated.

use nvfs_faults::{ReliabilityStats, WalCrashFault, WalCrashPoint};
use nvfs_types::{FileId, RangeSet, SimDuration, SimTime};
use nvfs_wal::NvLog;

use nvfs_trace::synth::lfs_workload::{FsWorkload, LfsOpKind};

use crate::dirty::DirtyCache;
use crate::fs::FsReport;
use crate::layout::{SegmentCause, SEGMENT_BYTES};
use crate::log::{Chunks, SegmentWriter};

/// Configuration for one WAL-mode file-system simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalConfig {
    /// Segment size in bytes (512 KB in Sprite).
    pub segment_bytes: u64,
    /// Sweep period of the background drain (5 s, the Sprite sweep).
    pub sweep_period: SimDuration,
    /// Age at which un-fsynced volatile dirty data is flushed (30 s).
    pub writeback_age: SimDuration,
    /// Age at which an appended log record is drained to disk.
    pub drain_age: SimDuration,
    /// NVRAM log capacity in bytes (½ MB, matching the paper's write
    /// buffer so the logging-vs-paging comparison is like for like).
    pub log_capacity: u64,
}

impl WalConfig {
    /// Sprite defaults: ½ MB of log NVRAM, drained on the next sweep.
    pub fn sprite() -> Self {
        WalConfig {
            segment_bytes: SEGMENT_BYTES,
            sweep_period: SimDuration::from_secs(5),
            writeback_age: SimDuration::from_secs(30),
            drain_age: SimDuration::from_secs(5),
            log_capacity: 512 << 10,
        }
    }
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig::sprite()
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

/// One crash incident as the durability oracle needs to see it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalCrashIncident {
    /// When the server died.
    pub at: SimTime,
    /// Where in the commit protocol the crash landed.
    pub point: WalCrashPoint,
    /// Byte ranges recovery replayed from the log.
    pub replayed: Chunks,
    /// Live on-disk byte ranges at the moment of the crash.
    pub disk: Chunks,
    /// Log bytes truncated as torn (never acknowledged).
    pub truncated_log_bytes: u64,
}

/// The chronological event record a WAL run leaves behind: everything the
/// oracle needs to reconstruct the durability promise and judge each
/// crash, in exact occurrence order (no same-timestamp ambiguity).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalTrace {
    /// Events in occurrence order.
    pub events: Vec<WalTraceEvent>,
    /// Live on-disk byte ranges at shutdown.
    pub final_disk: Chunks,
}

/// One entry of a [`WalTrace`].
#[derive(Debug, Clone, PartialEq)]
pub enum WalTraceEvent {
    /// A record was durably appended and acknowledged: its ranges are
    /// promised from this moment.
    Append {
        /// Ack time.
        t: SimTime,
        /// The file the record covers.
        file: FileId,
        /// The promised byte ranges.
        ranges: RangeSet,
    },
    /// The file was deleted: its promise is withdrawn.
    Delete {
        /// Delete time.
        t: SimTime,
        /// The deleted file.
        file: FileId,
    },
    /// The server crashed and recovered.
    Crash(WalCrashIncident),
}

/// Results of one WAL-mode simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFsReport {
    /// The segment-level report (records, cleaner stats, disk time).
    pub fs: FsReport,
    /// WAL-specific accounting.
    pub wal: WalStats,
    /// One sample per acknowledged fsync.
    pub fsync_samples: Vec<FsyncSample>,
    /// The chronological event record for the durability oracle.
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
    let mut reliability = ReliabilityStats::default();
    let mut stats = WalStats::default();
    let mut next_fault = 0usize;
    let mut writer = SegmentWriter::new(config.segment_bytes);
    let mut dirty = DirtyCache::new();
    let mut log = NvLog::new(config.log_capacity);
    let mut fsync_ops = 0u64;
    let mut app_write_bytes = 0u64;
    let mut fsync_samples = Vec::new();
    let mut events = Vec::new();
    let mut next_sweep = SimTime::ZERO + config.sweep_period;
    let mut end_time = SimTime::ZERO;

    // A crash fires: the volatile dirty cache dies, the log survives.
    // Point-specific behaviour exercises each boundary of the commit
    // protocol's append -> writeback -> truncate cycle.
    macro_rules! wal_crash {
        ($fault:expr) => {{
            let fault: &WalCrashFault = $fault;
            reliability.server_crashes += 1;
            let mut doomed = dirty.take_all();
            match fault.point {
                WalCrashPoint::MidAppend | WalCrashPoint::TornRecord => {
                    // An in-flight append is torn: mostly-header for
                    // MidAppend, mostly-payload for TornRecord. Either way
                    // the fsync never acked, so the bytes are simply lost
                    // with the rest of the dirty cache.
                    if let Some((f, r)) = doomed.first() {
                        let fraction = match fault.point {
                            WalCrashPoint::MidAppend => 0.2,
                            _ => 0.8,
                        };
                        log.append_torn(*f, r, fraction);
                    }
                }
                WalCrashPoint::PostAppend => {
                    // The append completed and acked just before the crash:
                    // those bytes are promised and must be replayed.
                    if !doomed.is_empty() {
                        let (f, r) = doomed.remove(0);
                        log.append(fault.time, f, &r);
                        stats.appends += 1;
                        stats.append_bytes += r.len_bytes();
                        events.push(WalTraceEvent::Append {
                            t: fault.time,
                            file: f,
                            ranges: r,
                        });
                    }
                }
                WalCrashPoint::MidTruncation => {
                    // A drain's segment writes completed but the crash
                    // lands before truncation: the records survive in the
                    // log and will be replayed a second time. Replay is
                    // idempotent (the blocks are simply rewritten), which
                    // is exactly what this point proves.
                    let chunks: Chunks = log
                        .entries()
                        .iter()
                        .map(|e| (e.file, e.ranges.clone()))
                        .collect();
                    write_out(&mut writer, fault.time, &chunks, SegmentCause::WalDrain);
                }
            }
            reliability.bytes_lost_buffer += doomed.iter().map(|(_, r)| r.len_bytes()).sum::<u64>();

            // Restart: roll the log forward and replay the valid prefix.
            let disk = writer.usage().live_ranges();
            let recovery = log.recover(fault.time);
            stats.torn_log_bytes += recovery.truncated_bytes;
            let replayed: Chunks = log
                .entries()
                .iter()
                .map(|e| (e.file, e.ranges.clone()))
                .collect();
            if !replayed.is_empty() {
                write_out(&mut writer, fault.time, &replayed, SegmentCause::Recovery);
                reliability.bytes_replayed += recovery.replayed_bytes;
                stats.replayed_bytes += recovery.replayed_bytes;
            }
            if let Some(last) = log.entries().last() {
                let seq = last.seq;
                stats.truncated_records += log.entries().len() as u64;
                log.truncate_through(fault.time, seq);
            }
            events.push(WalTraceEvent::Crash(WalCrashIncident {
                at: fault.time,
                point: fault.point,
                replayed,
                disk,
                truncated_log_bytes: recovery.truncated_bytes,
            }));
        }};
    }

    for op in &workload.ops {
        while next_fault < crashes.len() && crashes[next_fault].time <= op.time {
            wal_crash!(&crashes[next_fault]);
            next_fault += 1;
        }
        end_time = end_time.max(op.time);
        while next_sweep <= op.time {
            // Aged volatile dirty data flushes exactly as in direct mode.
            if next_sweep >= SimTime::ZERO + config.writeback_age {
                let cutoff = next_sweep - config.writeback_age;
                let aged = dirty.take_older_than(cutoff);
                if !aged.is_empty() {
                    write_out(&mut writer, next_sweep, &aged, SegmentCause::Timeout);
                }
            }
            // Background drain: log records old enough leave for disk, and
            // only then does the log let them go.
            drain_log(
                &mut writer,
                &mut log,
                &mut stats,
                next_sweep,
                config.drain_age,
            );
            next_sweep += config.sweep_period;
        }

        match op.kind {
            LfsOpKind::Write { file, range } => {
                app_write_bytes += range.len();
                dirty.add(file, range, op.time);
                if dirty.total_bytes() >= config.segment_bytes {
                    let chunks = dirty.take_all();
                    let (_, remainder) = writer.write_full_only(op.time, &chunks);
                    for (f, r) in remainder {
                        for piece in r.iter() {
                            dirty.add(f, piece, op.time);
                        }
                    }
                }
            }
            LfsOpKind::Fsync { file } => {
                fsync_ops += 1;
                if let Some(r) = dirty.take_file(file) {
                    // Overflow forces a synchronous drain first — the WAL
                    // analogue of the write buffer's NvramFull flush — and
                    // this fsync pays the disk time.
                    let mut sample = FsyncSample {
                        payload_bytes: r.len_bytes(),
                        forced_segments: 0,
                        forced_on_disk_bytes: 0,
                    };
                    if log.would_overflow(&r) {
                        let before = writer.records().len();
                        let chunks: Chunks = log
                            .entries()
                            .iter()
                            .map(|e| (e.file, e.ranges.clone()))
                            .collect();
                        write_out(&mut writer, op.time, &chunks, SegmentCause::NvramFull);
                        if let Some(last) = log.entries().last() {
                            let seq = last.seq;
                            stats.truncated_records += log.entries().len() as u64;
                            log.truncate_through(op.time, seq);
                        }
                        stats.overflow_drains += 1;
                        let forced = &writer.records()[before..];
                        sample.forced_segments = forced.len() as u64;
                        sample.forced_on_disk_bytes =
                            forced.iter().map(|rec| rec.on_disk_bytes()).sum();
                    }
                    log.append(op.time, file, &r);
                    stats.appends += 1;
                    stats.append_bytes += r.len_bytes();
                    events.push(WalTraceEvent::Append {
                        t: op.time,
                        file,
                        ranges: r,
                    });
                    fsync_samples.push(sample);
                }
            }
            LfsOpKind::Delete { file } => {
                dirty.discard_file(file);
                log.kill_file(file);
                writer.usage_mut().kill_file(file);
                events.push(WalTraceEvent::Delete { t: op.time, file });
            }
        }
    }

    while next_fault < crashes.len() {
        end_time = end_time.max(crashes[next_fault].time);
        wal_crash!(&crashes[next_fault]);
        next_fault += 1;
    }

    // Shutdown: drain the log, then flush the volatile remainder.
    drain_log(
        &mut writer,
        &mut log,
        &mut stats,
        end_time,
        SimDuration::ZERO,
    );
    let rest = dirty.take_all();
    write_out(&mut writer, end_time, &rest, SegmentCause::Shutdown);

    let final_disk = writer.usage().live_ranges();
    (
        WalFsReport {
            fs: FsReport {
                name: workload.name.to_string(),
                records: writer.into_records(),
                fsync_ops,
                fsyncs_absorbed: stats.appends,
                fsync_absorbed_page_bytes: 0,
                app_write_bytes,
                cleaner: Default::default(),
            },
            wal: stats,
            fsync_samples,
            trace: WalTrace { events, final_disk },
        },
        reliability,
    )
}

fn write_out(writer: &mut SegmentWriter, t: SimTime, chunks: &Chunks, cause: SegmentCause) {
    if chunks.iter().all(|(_, r)| r.is_empty()) {
        return;
    }
    writer.write_all(t, chunks, cause, false);
}

/// Drains every log record appended at or before `t - age` as
/// [`SegmentCause::WalDrain`] segments, then truncates the log through the
/// last drained sequence number — writeback completion first, truncation
/// second, never the other way around.
fn drain_log(
    writer: &mut SegmentWriter,
    log: &mut NvLog,
    stats: &mut WalStats,
    t: SimTime,
    age: SimDuration,
) {
    let cutoff = if t >= SimTime::ZERO + age {
        t - age
    } else {
        return;
    };
    let due = log
        .entries()
        .iter()
        .take_while(|e| e.time <= cutoff)
        .count();
    let Some(last_seq) = log.entries()[..due].last().map(|e| e.seq) else {
        return;
    };
    nvfs_obs::timing::span("wal_drain", || {
        let chunks: Chunks = log.entries()[..due]
            .iter()
            .map(|e| (e.file, e.ranges.clone()))
            .collect();
        let drained: u64 = chunks.iter().map(|(_, r)| r.len_bytes()).sum();
        write_out(writer, t, &chunks, SegmentCause::WalDrain);
        stats.truncated_records += due as u64;
        log.truncate_through(t, last_seq);
        if drained > 0 {
            stats.drains += 1;
            stats.drained_bytes += drained;
        }
    });
}

/// Runs all eight Sprite file systems in WAL mode (deterministic at any
/// job count: fan out, rejoin in workload order).
pub fn run_server_wal(workloads: &[FsWorkload], config: &WalConfig) -> Vec<WalFsReport> {
    nvfs_par::par_map(workloads.iter().collect(), nvfs_par::jobs(), |w| {
        run_filesystem_wal(w, config)
    })
}

/// Runs all eight Sprite file systems in WAL mode with the same injected
/// crash schedule, merging the per-FS reliability accounting in workload
/// order.
pub fn run_server_wal_faulted(
    workloads: &[FsWorkload],
    config: &WalConfig,
    crashes: &[WalCrashFault],
) -> (Vec<WalFsReport>, ReliabilityStats) {
    let results = nvfs_par::par_map(workloads.iter().collect(), nvfs_par::jobs(), |w| {
        run_filesystem_wal_faulted(w, config, crashes)
    });
    let mut merged = ReliabilityStats::default();
    let mut reports = Vec::with_capacity(results.len());
    for (report, reliability) in results {
        merged.merge(&reliability);
        reports.push(report);
    }
    (reports, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, LfsOp, ServerWorkloadConfig};
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
            ..WalConfig::sprite()
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
        // The deleted file's bytes never reach the disk live.
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
        let incident = r
            .trace
            .events
            .iter()
            .find_map(|e| match e {
                WalTraceEvent::Crash(i) => Some(i),
                _ => None,
            })
            .expect("one crash");
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
