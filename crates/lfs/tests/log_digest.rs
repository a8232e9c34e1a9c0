//! A byte contract for the LFS layer: every segment record, reliability
//! and WAL counter, and every on-disk view the durability oracle reads,
//! folded into one FNV value over the `small` server workloads.
//!
//! nvbench's `server-log` digest covers only the crash-free direct, buffered
//! and WAL runs; this one also drives torn replay writes with roll-forward,
//! `live_ranges` and the durable promise at every WAL crash point, and the
//! final promise and disk image. A change to the segment writer or usage
//! table that alters any output byte changes [`EXPECTED`].
//!
//! [`EXPECTED_FAULTS`] covers the branches of the drive loop that
//! `EXPECTED` leaves dark: direct and staging runs under torn and untorn
//! server crashes, crashes scheduled after every workload's last op (for
//! both the paging buffer and the log), a log small enough to overflow
//! under every WAL crash point, and shutdowns that find both buffered and
//! plain dirty data. A paging sweep that finds no dirty file is skipped
//! even when NVRAM holds data; not skipping it gives the same bytes (such
//! a sweep takes nothing), so no digest can pin that choice.

use nvfs_faults::{ReliabilityStats, ServerCrashFault, WalCrashFault, WalCrashPoint};
use nvfs_lfs::fs::{run_server, run_server_faulted, FsReport, LfsConfig};
use nvfs_lfs::wal_fs::{
    run_filesystem_wal_faulted, run_server_wal, run_server_wal_faulted, Promise, WalConfig,
    WalFsReport,
};
use nvfs_lfs::{Chunks, SegmentCause};
use nvfs_trace::synth::lfs_workload::{
    sprite_server_workloads, FsWorkload, LfsOpKind, ServerWorkloadConfig,
};
use nvfs_types::{Fnv64, RangeSet, SimDuration, SimTime};

/// The digest of every run below, recorded when WAL runs began to fold
/// the durable promise at each crash and at shutdown instead of every
/// acknowledged append.
const EXPECTED: u64 = 0x77d7_6552_2e95_6382;

/// The digest of the crash, trailing-crash and overflow runs below,
/// recorded at the same change as [`EXPECTED`].
const EXPECTED_FAULTS: u64 = 0x9848_d615_01ed_b3e7;

struct Fold(Fnv64);

impl Fold {
    fn u64(&mut self, v: u64) {
        self.0.update_bytes(&v.to_le_bytes());
    }

    fn tag(&mut self, s: &str) {
        self.0.update(s);
        self.0.update(";");
    }

    fn ranges(&mut self, r: &RangeSet) {
        self.u64(r.fragment_count() as u64);
        for piece in r.iter() {
            self.u64(piece.start);
            self.u64(piece.end);
        }
    }

    fn chunks(&mut self, chunks: &Chunks) {
        self.u64(chunks.len() as u64);
        for (file, r) in chunks {
            self.u64(u64::from(file.0));
            self.ranges(r);
        }
    }

    fn promise(&mut self, promise: &Promise) {
        self.u64(promise.len() as u64);
        for (file, r) in promise {
            self.u64(u64::from(file.0));
            self.ranges(r);
        }
    }

    fn fs(&mut self, report: &FsReport) {
        self.tag(&report.name);
        self.u64(report.records.len() as u64);
        for r in &report.records {
            self.u64(r.id);
            self.u64(r.time.as_micros());
            self.tag(r.cause.label());
            self.u64(r.data_bytes);
            self.u64(r.file_count as u64);
            self.u64(r.stored_checksum);
            self.u64(r.content_checksum);
        }
        self.u64(report.fsync_ops);
        self.u64(report.fsyncs_absorbed);
        self.u64(report.fsync_absorbed_page_bytes);
        self.u64(report.app_write_bytes);
    }

    fn reliability(&mut self, s: &ReliabilityStats) {
        for v in [
            s.client_crashes,
            s.server_crashes,
            s.bytes_at_risk,
            s.bytes_in_nvram,
            s.bytes_recovered,
            s.bytes_lost_window,
            s.bytes_lost_battery,
            s.bytes_lost_torn,
            s.bytes_lost_buffer,
            s.bytes_replayed,
            s.bytes_rewritten_torn,
            s.boards_recovered,
            s.boards_dead,
            s.bytes_lost_partition,
        ] {
            self.u64(v);
        }
    }

    fn wal(&mut self, report: &WalFsReport) {
        self.fs(&report.fs);
        let w = &report.wal;
        for v in [
            w.appends,
            w.append_bytes,
            w.drains,
            w.drained_bytes,
            w.overflow_drains,
            w.truncated_records,
            w.torn_log_bytes,
            w.replayed_bytes,
        ] {
            self.u64(v);
        }
        for s in &report.fsync_samples {
            self.u64(s.payload_bytes);
            self.u64(s.forced_segments);
            self.u64(s.forced_on_disk_bytes);
        }
        for incident in &report.trace.crashes {
            self.tag(incident.point.label());
            self.u64(incident.at.as_micros());
            self.promise(&incident.promise);
            self.chunks(&incident.replayed);
            self.chunks(&incident.disk);
            self.u64(incident.truncated_log_bytes);
        }
        self.tag("promise");
        self.promise(&report.trace.final_promise);
        self.tag("final_disk");
        self.chunks(&report.trace.final_disk);
    }
}

#[test]
fn lfs_layer_output_matches_the_recorded_digest() {
    let workloads = sprite_server_workloads(&ServerWorkloadConfig::small());
    let mut d = Fold(Fnv64::new());

    for config in [
        LfsConfig::direct(),
        LfsConfig::with_fsync_buffer(512 << 10),
        LfsConfig::with_staging_buffer(1 << 20),
    ] {
        for report in run_server(&workloads, &config) {
            d.fs(&report);
        }
    }

    let crashes = [
        ServerCrashFault {
            time: SimTime::from_mins(50),
            torn_segment: Some(0.5),
        },
        ServerCrashFault {
            time: SimTime::from_mins(170),
            torn_segment: None,
        },
        ServerCrashFault {
            time: SimTime::from_mins(290),
            torn_segment: Some(0.25),
        },
    ];
    let (reports, reliability) = run_server_faulted(
        &workloads,
        &LfsConfig::with_fsync_buffer(512 << 10),
        &crashes,
    );
    assert!(
        reliability.bytes_rewritten_torn > 0,
        "a torn replay must be truncated and rewritten"
    );
    for report in &reports {
        d.fs(report);
    }
    d.reliability(&reliability);

    for report in run_server_wal(&workloads, &WalConfig::sprite()) {
        d.wal(&report);
    }
    for point in WalCrashPoint::ALL {
        let crashes = [
            WalCrashFault {
                time: SimTime::from_mins(75),
                point,
            },
            WalCrashFault {
                time: SimTime::from_mins(230),
                point,
            },
        ];
        for w in &workloads {
            let (report, reliability) =
                run_filesystem_wal_faulted(w, &WalConfig::sprite(), &crashes);
            d.wal(&report);
            d.reliability(&reliability);
        }
    }

    assert_eq!(d.0.value(), EXPECTED, "LFS digest {:#018x}", d.0.value());
}

/// `w` cut just after the first write, past its midpoint, that follows
/// an fsync within a second: the shutdown flush then finds the fsynced
/// data still in NVRAM next to plain dirty data.
fn cut_after_mid_fsync(w: &FsWorkload) -> FsWorkload {
    let end = w
        .ops
        .windows(2)
        .enumerate()
        .skip(w.ops.len() / 2)
        .find(|(_, pair)| {
            matches!(pair[0].kind, LfsOpKind::Fsync { .. })
                && matches!(pair[1].kind, LfsOpKind::Write { .. })
                && pair[1].time - pair[0].time < SimDuration::from_secs(1)
        })
        .map_or(w.ops.len(), |(i, _)| i + 2);
    FsWorkload {
        name: w.name,
        ops: w.ops[..end].to_vec(),
    }
}

#[test]
fn crash_and_overflow_paths_match_the_recorded_digest() {
    let workloads = sprite_server_workloads(&ServerWorkloadConfig::small());
    let last_op = workloads
        .iter()
        .filter_map(|w| w.ops.last())
        .map(|op| op.time)
        .max()
        .expect("the workloads have ops");
    let after_last = |mins| last_op + SimDuration::from_mins(mins);
    let mut d = Fold(Fnv64::new());

    // Two crashes inside the run and two after every workload's last op,
    // each pair with one torn replay write.
    let crashes = [
        ServerCrashFault {
            time: SimTime::from_mins(50),
            torn_segment: Some(0.5),
        },
        ServerCrashFault {
            time: SimTime::from_mins(170),
            torn_segment: None,
        },
        ServerCrashFault {
            time: after_last(1),
            torn_segment: Some(0.25),
        },
        ServerCrashFault {
            time: after_last(2),
            torn_segment: None,
        },
    ];
    for config in [
        LfsConfig::direct(),
        LfsConfig::with_fsync_buffer(512 << 10),
        LfsConfig::with_staging_buffer(1 << 20),
    ] {
        let (reports, reliability) = run_server_faulted(&workloads, &config, &crashes);
        assert_eq!(
            reliability.server_crashes,
            (crashes.len() * workloads.len()) as u64,
            "every crash fires, the trailing ones included"
        );
        if config.buffer != LfsConfig::direct().buffer {
            assert!(
                reliability.bytes_rewritten_torn > 0,
                "{:?}: a torn replay must be rewritten",
                config.buffer
            );
        }
        for report in &reports {
            d.fs(report);
        }
        d.reliability(&reliability);
    }

    // A log an eighth of the default size overflows under fsync storms.
    let small_log = WalConfig {
        log_capacity: 64 << 10,
    };
    for point in WalCrashPoint::ALL {
        let crashes = [
            WalCrashFault {
                time: SimTime::from_mins(75),
                point,
            },
            WalCrashFault {
                time: after_last(1),
                point,
            },
        ];
        let (reports, reliability) = run_server_wal_faulted(&workloads, &small_log, &crashes);
        assert_eq!(
            reliability.server_crashes,
            (crashes.len() * workloads.len()) as u64,
            "{point:?}: every crash fires, the trailing one included"
        );
        let overflows: u64 = reports.iter().map(|r| r.wal.overflow_drains).sum();
        assert!(overflows > 0, "{point:?}: the small log must overflow");
        for report in &reports {
            d.wal(report);
        }
        d.reliability(&reliability);
    }

    // Shutdown order: the paging buffer writes NVRAM and dirty data as one
    // segment write; the log drains first, then the dirty rest goes out.
    let cut: Vec<FsWorkload> = workloads.iter().map(cut_after_mid_fsync).collect();
    for config in [
        LfsConfig::with_fsync_buffer(512 << 10),
        LfsConfig::with_staging_buffer(1 << 20),
    ] {
        for report in run_server(&cut, &config) {
            d.fs(&report);
        }
    }
    let reports = run_server_wal(&cut, &WalConfig::sprite());
    let both = reports
        .iter()
        .filter(|r| {
            let last = |cause| r.fs.records.iter().rposition(|rec| rec.cause == cause);
            matches!(
                (last(SegmentCause::WalDrain), last(SegmentCause::Shutdown)),
                (Some(drain), Some(shutdown)) if drain < shutdown
                    && r.fs.records[drain].time == r.fs.records[shutdown].time
            )
        })
        .count();
    assert!(
        both > 0,
        "some shutdown must drain the log and flush dirty data"
    );
    for report in &reports {
        d.wal(report);
    }

    assert_eq!(
        d.0.value(),
        EXPECTED_FAULTS,
        "LFS fault digest {:#018x}",
        d.0.value()
    );
}
