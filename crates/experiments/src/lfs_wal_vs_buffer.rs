//! Logging vs paging: the NVRAM write-ahead log against the §3 write buffer.
//!
//! The paper's write buffer is a *paging* design — an fsync copies the
//! file's dirty 4 KB pages into NVRAM, and when the buffer fills, the
//! pages are pushed to disk synchronously
//! ([`SegmentCause::NvramFull`](nvfs_lfs::layout::SegmentCause::NvramFull)).
//! The WAL server mode is the *logging* alternative: an fsync appends the
//! exact dirty bytes as one checksummed record and acks as soon as the
//! append is durable, deferring all segment writes to the background
//! drain. This experiment contrasts the two under the same eight server
//! workloads and the same Table-1 NVRAM timing
//! ([`nvfs_wal::NVRAM_NS_PER_BYTE`]):
//!
//! * **fsync latency** — per acknowledged fsync, the paging path pays the
//!   page-granular NVRAM copy plus any synchronous buffer-full segment
//!   write; the logging path pays the byte-exact record append plus any
//!   synchronous log-overflow drain.
//! * **disk bandwidth utilization** — fraction of busy time spent
//!   transferring data, from [`FsReport::disk_time`] on the era disk.
//! * **partial-segment overhead** — the space fraction lost to summary
//!   and metadata blocks.
//!
//! The measured trade runs both ways: logging wins fsync latency outright
//! (byte-exact appends, no synchronous waits), while paging keeps a
//! bandwidth edge on fsync-bound workloads — its buffer-full flushes are
//! large, well-amortized segments, where the WAL's age-based drains ship
//! smaller partials.
//!
//! The durability side of the trade is not assumed: for every workload a
//! post-append crash (the WAL's riskiest acknowledged moment) is injected
//! and the run is judged by the shadow oracle — the latency win only
//! counts alongside zero lost-durable bytes.

use nvfs_disk::DiskParams;
use nvfs_faults::{WalCrashFault, WalCrashPoint};
use nvfs_lfs::fs::FsReport;
use nvfs_lfs::wal_fs::{run_filesystem_wal_faulted, WalFsReport};
use nvfs_lfs::{run_server, run_server_wal, LfsConfig, WalConfig};
use nvfs_report::{Cell, Table};
use nvfs_types::{ClientId, SimTime};
use nvfs_wal::append_latency_ns;

use crate::env::Env;
use crate::verify_crash::judge_wal_report;

/// The paper's ½ MB buffer, used for both designs (buffer capacity on the
/// paging side, log capacity on the logging side).
const NVRAM_BYTES: u64 = 512 << 10;

/// Nanoseconds per NVRAM byte moved, from the Table-1 board timing.
const NS_PER_BYTE: u64 = nvfs_wal::NVRAM_NS_PER_BYTE;

/// One workload's head-to-head outcome.
#[derive(Debug, Clone)]
struct Outcome {
    /// File-system name.
    name: String,
    /// Acknowledged fsyncs (identical for both designs).
    fsyncs: u64,
    /// Mean fsync latency under the paging write buffer, in ms.
    buffer_mean_ms: f64,
    /// Mean fsync latency under the logging WAL, in ms.
    wal_mean_ms: f64,
    /// Disk bandwidth utilization under the write buffer.
    buffer_utilization: f64,
    /// Disk bandwidth utilization under the WAL.
    wal_utilization: f64,
    /// Partial-segment space overhead under the write buffer, percent.
    buffer_overhead_pct: f64,
    /// Partial-segment space overhead under the WAL, percent.
    wal_overhead_pct: f64,
}

impl Outcome {
    /// Whether the logging path's mean fsync latency is strictly below the
    /// paging path's (workloads with no fsyncs cannot be won).
    fn wal_wins(&self) -> bool {
        self.fsyncs > 0 && self.wal_mean_ms < self.buffer_mean_ms
    }
}

/// Output of the logging-vs-paging study.
#[derive(Debug, Clone)]
pub struct WalVsBuffer {
    /// The rendered table.
    pub table: Table,
    /// Per-workload outcomes, paper order.
    outcomes: Vec<Outcome>,
    /// Oracle violations summed over the post-append crash runs — the
    /// latency claim is void unless this is zero.
    pub(crate) post_append_violations: u64,
}

impl WalVsBuffer {
    /// Workloads where the WAL's mean fsync latency is no worse than the
    /// buffer's: a strict win where fsyncs exist, a vacuous tie at zero
    /// where none do. This is the scorecard's `wal.latency` measure.
    pub(crate) fn non_regressions(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.fsyncs == 0 || o.wal_wins())
            .count()
    }
}

/// Mean fsync latency of the paging path, in ns: every absorbed fsync
/// copies its distinct dirty pages into NVRAM; fsyncs that fill the buffer
/// additionally wait for the synchronous `NvramFull` segment write.
fn buffer_mean_ns(report: &FsReport, disk: &DiskParams) -> f64 {
    if report.fsyncs_absorbed == 0 {
        return 0.0;
    }
    let copy_ns = (report.fsync_absorbed_page_bytes * NS_PER_BYTE) as f64;
    let forced_ns: f64 = report
        .records
        .iter()
        .filter(|r| r.cause == nvfs_lfs::SegmentCause::NvramFull)
        .map(|r| {
            (disk.avg_seek_ms + disk.avg_rotation_ms() + disk.transfer_ms(r.on_disk_bytes())) * 1e6
        })
        .sum();
    (copy_ns + forced_ns) / report.fsyncs_absorbed as f64
}

/// Mean fsync latency of the logging path, in ns: every ack pays the
/// byte-exact record append; overflow drains add their forced segment
/// writes to the fsync that triggered them.
fn wal_mean_ns(report: &WalFsReport, disk: &DiskParams) -> f64 {
    if report.fsync_samples.is_empty() {
        return 0.0;
    }
    let total: f64 = report
        .fsync_samples
        .iter()
        .map(|s| {
            append_latency_ns(s.payload_bytes) as f64
                + s.forced_segments as f64 * (disk.avg_seek_ms + disk.avg_rotation_ms()) * 1e6
                + disk.transfer_ms(s.forced_on_disk_bytes) * 1e6
        })
        .sum();
    total / report.fsync_samples.len() as f64
}

/// Runs the study over all eight server workloads.
pub fn run(env: &Env) -> WalVsBuffer {
    let disk = DiskParams::sprite_era();
    let buffered = run_server(&env.server, &LfsConfig::with_fsync_buffer(NVRAM_BYTES));
    let wal_cfg = WalConfig {
        log_capacity: NVRAM_BYTES,
    };
    let wal = run_server_wal(&env.server, &wal_cfg);

    // The durability side: crash every workload just after an acknowledged
    // append (the point where the buffer design has nothing at risk but
    // the log design has an un-drained promise), and judge the recovery.
    let post_append_violations: u64 = env
        .server
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let micros = env.trace_config.duration().as_micros();
            let crash = WalCrashFault {
                time: SimTime::from_micros(micros / 2),
                point: WalCrashPoint::PostAppend,
            };
            let (report, _) = run_filesystem_wal_faulted(w, &wal_cfg, &[crash]);
            let finish_at = SimTime::from_micros(micros * 2);
            judge_wal_report(ClientId(i as u32), &report, finish_at).violations()
        })
        .sum();

    let mut table = Table::new(
        "Logging vs paging: NVRAM write-ahead log vs write buffer",
        &[
            "File system",
            "Fsyncs",
            "Buffer fsync ms",
            "WAL fsync ms",
            "Winner",
            "Buffer util",
            "WAL util",
            "Buffer ovh %",
            "WAL ovh %",
        ],
    );
    let mut outcomes = Vec::new();
    for (b, w) in buffered.iter().zip(&wal) {
        let o = Outcome {
            name: b.name.clone(),
            fsyncs: b.fsyncs_absorbed,
            buffer_mean_ms: buffer_mean_ns(b, &disk) / 1e6,
            wal_mean_ms: wal_mean_ns(w, &disk) / 1e6,
            buffer_utilization: b.disk_time(&disk).utilization(),
            wal_utilization: w.fs.disk_time(&disk).utilization(),
            buffer_overhead_pct: 100.0 * b.overhead_fraction(),
            wal_overhead_pct: 100.0 * w.fs.overhead_fraction(),
        };
        table.push_row(vec![
            Cell::from(o.name.clone()),
            Cell::Int(o.fsyncs as i64),
            Cell::Float {
                value: o.buffer_mean_ms,
                precision: 3,
            },
            Cell::Float {
                value: o.wal_mean_ms,
                precision: 3,
            },
            Cell::from(if o.wal_wins() {
                "wal"
            } else if o.fsyncs == 0 {
                "—"
            } else {
                "buffer"
            }),
            Cell::f2(o.buffer_utilization),
            Cell::f2(o.wal_utilization),
            Cell::f1(o.buffer_overhead_pct),
            Cell::f1(o.wal_overhead_pct),
        ]);
        outcomes.push(o);
    }
    WalVsBuffer {
        table,
        outcomes,
        post_append_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_wins_every_contested_workload() {
        let out = run(&Env::tiny());
        assert_eq!(out.outcomes.len(), 8);
        // The acceptance bar: WAL mean fsync latency never above the
        // buffer's, strictly below wherever fsyncs exist, on at least 6
        // of the 8 workloads.
        assert!(out.non_regressions() >= 6, "{}", out.table.render());
        let contested = out.outcomes.iter().filter(|o| o.fsyncs > 0).count();
        let wins = out.outcomes.iter().filter(|o| o.wal_wins()).count();
        assert_eq!(wins, contested, "{}", out.table.render());
        assert!(contested >= 3, "{}", out.table.render());
    }

    #[test]
    fn post_append_crashes_lose_nothing_acknowledged() {
        let out = run(&Env::tiny());
        assert_eq!(out.post_append_violations, 0);
    }

    #[test]
    fn the_trade_is_latency_for_bandwidth() {
        let out = run(&Env::tiny());
        // /user6 is the fsync-bound workload where the trade is starkest:
        // logging acks each fsync from the NVRAM append (winning latency
        // outright), while paging holds absorbed pages until the buffer
        // fills and then writes one large, well-amortized segment — so the
        // buffer keeps the bandwidth edge that the WAL's eager 5-second
        // drains give up as extra partial segments.
        let u6 = out
            .outcomes
            .iter()
            .find(|o| o.name == "/user6")
            .expect("present");
        assert!(u6.wal_wins());
        assert!(u6.buffer_mean_ms > 1.2 * u6.wal_mean_ms);
        assert!(u6.buffer_utilization >= u6.wal_utilization);
    }
}
