//! A byte contract for the LFS layer: every segment record, cleaner,
//! reliability and WAL counter, and every on-disk view the durability
//! oracle reads, folded into one FNV value over the `small` server
//! workloads.
//!
//! nvbench's `server-log` digest covers only the crash-free direct, buffered
//! and WAL runs; this one also drives the cleaner, torn replay writes with
//! roll-forward, `live_ranges` at every WAL crash point, and the final disk
//! image. A change to the segment writer or usage table that alters any
//! output byte changes [`EXPECTED`].

use nvfs_faults::{ReliabilityStats, ServerCrashFault, WalCrashFault, WalCrashPoint};
use nvfs_lfs::cleaner::CleanerConfig;
use nvfs_lfs::fs::{run_server, run_server_faulted, FsReport, LfsConfig};
use nvfs_lfs::wal_fs::{
    run_filesystem_wal_faulted, run_server_wal, WalConfig, WalFsReport, WalTraceEvent,
};
use nvfs_lfs::Chunks;
use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};
use nvfs_types::{Fnv64, RangeSet, SimTime};

/// The digest of every run below, recorded before the segment writer's
/// usage table and packing loop were rewritten.
const EXPECTED: u64 = 0x2fc7_af1c_edec_51e1;

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
        self.u64(report.cleaner.runs);
        self.u64(report.cleaner.segments_cleaned);
        self.u64(report.cleaner.bytes_copied);
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
        for e in &report.trace.events {
            match e {
                WalTraceEvent::Append { t, file, ranges } => {
                    self.tag("append");
                    self.u64(t.as_micros());
                    self.u64(u64::from(file.0));
                    self.ranges(ranges);
                }
                WalTraceEvent::Delete { t, file } => {
                    self.tag("delete");
                    self.u64(t.as_micros());
                    self.u64(u64::from(file.0));
                }
                WalTraceEvent::Crash(incident) => {
                    self.tag(incident.point.label());
                    self.u64(incident.at.as_micros());
                    self.chunks(&incident.replayed);
                    self.chunks(&incident.disk);
                    self.u64(incident.truncated_log_bytes);
                }
            }
        }
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

    let cleaned = LfsConfig {
        cleaner: Some(CleanerConfig {
            trigger_segments: 12,
            batch: 4,
        }),
        ..LfsConfig::direct()
    };
    let reports = run_server(&workloads, &cleaned);
    let runs: u64 = reports.iter().map(|r| r.cleaner.runs).sum();
    let copied: u64 = reports.iter().map(|r| r.cleaner.bytes_copied).sum();
    assert!(runs > 0, "the cleaner must run");
    assert!(copied > 0, "the cleaner must copy live blocks");
    for report in &reports {
        d.fs(report);
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
