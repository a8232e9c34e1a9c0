//! Network judge — deterministic net-fault sweep (`nvfs verify-net`).
//!
//! The crash sweep (`verify-crash`) proves recovery is exact when machines
//! die; this sweep proves the *wire* contract when the network does. From
//! one `(seed, scale)` pair it drives every cache model through a fixed
//! set of network schedules — client partitions, whole-server partitions,
//! drop-heavy links, duplicate/reorder-heavy links, and partitions
//! composed with client crashes — replaying every client↔server
//! interaction as an explicit RPC through a compiled
//! [`NetFaultPlan`]. The wire transcript is judged by
//! [`nvfs_oracle::NetJudge`]: any acknowledged request whose bytes never
//! applied is an [`AckedLost`] verdict, any request applied twice is a
//! [`DoubleApply`], and any delivery inside a severing partition window is
//! a [`PartitionLeak`]. The composed schedule additionally runs the full
//! durability oracle on top.
//!
//! The sweep also proves the paper's loss ordering under pure partitions:
//! a volatile cache must shed strictly more bytes at an unreachable
//! server than a write-aside cache (whose NVRAM absorbs the write-through
//! stream until it overflows), which in turn sheds strictly more than a
//! unified whole-cache NVRAM client (which simply defers everything and
//! reconciles on heal).
//!
//! Everything is a pure function of `(seed, scale)` and byte-identical at
//! any `--jobs` count; CI diffs the rendered report against a golden copy.
//!
//! [`AckedLost`]: nvfs_oracle::NetVerdict::AckedLost
//! [`DoubleApply`]: nvfs_oracle::NetVerdict::DoubleApply
//! [`PartitionLeak`]: nvfs_oracle::NetVerdict::PartitionLeak

use nvfs_core::{CacheModelKind, ClusterSim, RunSummary, SimConfig};
use nvfs_faults::net::{NetFaultPlan, NetFaultPlanConfig};
use nvfs_faults::FaultSchedule;
use nvfs_oracle::{NetSummary, OracleSummary};
use nvfs_report::{Cell, Table};
use nvfs_types::SimDuration;

use crate::env::Env;
use crate::faults::{model_name, BASE_BYTES, MODELS};

/// NVRAM board size for the write-aside and hybrid rows: big enough to
/// coalesce overwrites during an outage, small enough that a long
/// partition overflows it — the middle rung of the loss ordering.
pub const WRITE_ASIDE_NVRAM: u64 = 1 << 20;

/// The network schedules swept per cache model, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetScheduleKind {
    /// Timed partitions severing individual clients.
    ClientPartition,
    /// Timed partitions severing the whole server.
    ServerPartition,
    /// Lossy link: heavy message drops, no partitions.
    DropHeavy,
    /// Chatty link: heavy duplication and wide delay spread (reordering).
    DupReorder,
    /// Client partitions and server partitions composed with the plain
    /// client crash schedule, judged by the durability oracle on top.
    PartitionCrash,
}

/// Sweep order for [`NetScheduleKind`].
pub const NET_KINDS: [NetScheduleKind; 5] = [
    NetScheduleKind::ClientPartition,
    NetScheduleKind::ServerPartition,
    NetScheduleKind::DropHeavy,
    NetScheduleKind::DupReorder,
    NetScheduleKind::PartitionCrash,
];

impl NetScheduleKind {
    /// Stable report label.
    pub fn name(self) -> &'static str {
        match self {
            NetScheduleKind::ClientPartition => "client-partition",
            NetScheduleKind::ServerPartition => "server-partition",
            NetScheduleKind::DropHeavy => "drop-heavy",
            NetScheduleKind::DupReorder => "dup-reorder",
            NetScheduleKind::PartitionCrash => "partition+crash",
        }
    }

    /// Whether this schedule's sheds feed the pure-partition loss-ordering
    /// claim (no drops, no crashes — loss can only come from partitions).
    pub fn pure_partition(self) -> bool {
        matches!(
            self,
            NetScheduleKind::ClientPartition | NetScheduleKind::ServerPartition
        )
    }

    /// The compiled plan for one trace. Partition windows are a quarter of
    /// the trace (floored at 90 s) so they always exceed the 30 s delayed
    /// write-back horizon: a volatile cache cannot simply age its dirty
    /// bytes past the outage.
    pub fn plan(self, clients: u32, duration: SimDuration) -> NetFaultPlanConfig {
        let part = SimDuration::from_micros((duration.as_micros() / 4).max(90_000_000));
        let base = NetFaultPlanConfig::new(clients, duration);
        match self {
            NetScheduleKind::ClientPartition => base
                .with_client_partitions(clients.max(1))
                .with_partition_duration(part),
            NetScheduleKind::ServerPartition => {
                base.with_server_partitions(2).with_partition_duration(part)
            }
            NetScheduleKind::DropHeavy => base
                .with_drop_probability(0.35)
                .with_delay_range(SimDuration::from_micros(500), SimDuration::from_millis(20)),
            NetScheduleKind::DupReorder => base
                .with_drop_probability(0.05)
                .with_duplicate_probability(0.35)
                .with_delay_range(SimDuration::from_micros(500), SimDuration::from_millis(50)),
            NetScheduleKind::PartitionCrash => base
                .with_client_partitions(clients.max(1))
                .with_server_partitions(1)
                .with_partition_duration(part)
                .with_drop_probability(0.1),
        }
    }
}

/// One row of the sweep: a cache model driven through one network
/// schedule across every trace, judged by the wire oracle (and, for the
/// composed schedule, the durability oracle).
#[derive(Debug, Clone, PartialEq)]
pub struct NetRow {
    /// Cache model swept.
    pub model: CacheModelKind,
    /// The network schedule pinned for this row.
    pub kind: NetScheduleKind,
    /// The runs merged across the trace set: wire counters and judge
    /// summary, bytes shed at the unreachable server
    /// ([`nvfs_faults::ReliabilityStats::bytes_lost_partition`]), and the
    /// durability-oracle summary (nonzero only for the composed
    /// partition+crash schedule).
    pub run: RunSummary,
}

impl NetRow {
    /// Wire-judge violations plus durability-oracle violations.
    pub fn violations(&self) -> u64 {
        self.run.net.violations() + self.run.oracle.violations()
    }
}

/// Output of the network sweep.
#[derive(Debug, Clone)]
pub struct VerifyNet {
    /// The sweep seed.
    pub seed: u64,
    /// Rows in [`MODELS`] × [`NET_KINDS`] order.
    pub rows: Vec<NetRow>,
    /// Merged wire-judge summary.
    pub summary: NetSummary,
    /// Merged durability-oracle summary over the composed rows.
    pub oracle: OracleSummary,
}

impl VerifyNet {
    /// Bytes a model shed across the pure-partition schedules.
    pub fn partition_shed(&self, model: CacheModelKind) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.model == model && r.kind.pure_partition())
            .map(|r| r.run.reliability.bytes_lost_partition)
            .sum()
    }

    /// The paper's loss ordering under pure network partitions: volatile
    /// sheds strictly more than write-aside, which sheds strictly more
    /// than unified.
    pub fn loss_ordering_holds(&self) -> bool {
        let volatile = self.partition_shed(CacheModelKind::Volatile);
        let aside = self.partition_shed(CacheModelKind::WriteAside);
        let unified = self.partition_shed(CacheModelKind::Unified);
        volatile > aside && aside > unified
    }

    /// Total wire + durability violations across the sweep.
    pub fn violations(&self) -> u64 {
        self.rows.iter().map(NetRow::violations).sum()
    }

    /// Why the sweep fails, if it does: a wire or durability violation,
    /// else a broken loss ordering.
    pub fn failure(&self) -> Option<String> {
        let n = self.violations();
        if n > 0 {
            Some(format!("network judge found {n} violation(s)"))
        } else if !self.loss_ordering_holds() {
            Some("partition-loss ordering volatile > write-aside > unified does not hold".into())
        } else {
            None
        }
    }

    fn ordering_line(&self) -> String {
        let kb = |b: u64| b as f64 / 1024.0;
        format!(
            "loss ordering under pure partitions (KB shed): volatile {:.1} > write-aside {:.1} > unified {:.1} — {}",
            kb(self.partition_shed(CacheModelKind::Volatile)),
            kb(self.partition_shed(CacheModelKind::WriteAside)),
            kb(self.partition_shed(CacheModelKind::Unified)),
            if self.loss_ordering_holds() {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        )
    }

    /// One-line machine-readable verdict (stable key order), as printed by
    /// `nvfs verify-net` and parsed by CI.
    pub fn verdict_json(&self) -> String {
        format!(
            concat!(
                "{{\"net_judge\":\"{}\",\"seed\":{},\"acked\":{},\"applied\":{},",
                "\"duplicates\":{},\"acked_lost\":{},\"double_apply\":{},",
                "\"partition_leak\":{},\"oracle_violations\":{},\"loss_ordering\":\"{}\"}}"
            ),
            if self.violations() == 0 {
                "clean"
            } else {
                "violated"
            },
            self.seed,
            self.summary.acked,
            self.summary.applied,
            self.summary.duplicates,
            self.summary.acked_lost,
            self.summary.double_apply,
            self.summary.partition_leak,
            self.oracle.violations(),
            if self.loss_ordering_holds() {
                "holds"
            } else {
                "violated"
            },
        )
    }

    /// The table, ordering line and verdict, as printed by
    /// `nvfs verify-net`.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n",
            net_table(self.seed, &self.rows).render(),
            self.ordering_line(),
            self.verdict_json()
        )
    }
}

/// Paper-faithful model configurations for the net sweep: unified gets a
/// whole-cache NVRAM (its defining trait in §2.1), write-aside and hybrid
/// a bounded board, volatile none.
fn model_config(model: CacheModelKind) -> SimConfig {
    let nvram = match model {
        CacheModelKind::Unified => BASE_BYTES,
        _ => WRITE_ASIDE_NVRAM,
    };
    SimConfig::for_model(model, BASE_BYTES, nvram)
}

/// Runs the sweep: every trace × model × schedule, one run each, merged
/// into per-(model, schedule) rows in sweep order.
pub fn sweep(env: &Env, seed: u64) -> Result<Vec<NetRow>, String> {
    let keys: Vec<(CacheModelKind, NetScheduleKind)> = MODELS
        .into_iter()
        .flat_map(|model| NET_KINDS.map(|kind| (model, kind)))
        .collect();
    crate::sweep::sweep(
        &keys,
        env.traces.traces(),
        |&(model, kind), trace| {
            let cfg = kind.plan(trace.clients() as u32, trace.duration());
            let net = NetFaultPlan::compile(seed ^ trace.number() as u64, &cfg)
                .map_err(|e| e.to_string())?;
            // Only the composed schedule crashes clients.
            let crashes = (kind == NetScheduleKind::PartitionCrash).then(|| {
                let plan =
                    crate::faults::client_plan(trace.clients() as u32, trace.duration(), model);
                FaultSchedule::compile(seed ^ trace.number() as u64, &plan)
            });
            let crashes = crashes.transpose().map_err(|e| e.to_string())?;
            let report = ClusterSim::new(model_config(model))
                .session(trace.ops())
                .net(&net)
                .faults(crashes.as_ref())
                .judged()
                .run();
            Ok(NetRow {
                model,
                kind,
                run: report.into_summary(),
            })
        },
        |row, next| row.run.merge(&next.run),
    )
}

/// Renders the sweep table.
pub fn net_table(seed: u64, rows: &[NetRow]) -> Table {
    let mut table = Table::new(
        &format!("Network judge — net-fault sweep (seed {seed})"),
        &[
            "model",
            "schedule",
            "requests",
            "retries",
            "timeouts",
            "degraded",
            "dups",
            "shed KB",
            "net-viol",
            "oracle-viol",
        ],
    );
    let kb = |b: u64| Cell::f1(b as f64 / 1024.0);
    for row in rows {
        let run = &row.run;
        table.push_row(vec![
            Cell::from(model_name(row.model)),
            Cell::from(row.kind.name()),
            Cell::Int(run.net_stats.requests as i64),
            Cell::Int(run.net_stats.retries as i64),
            Cell::Int(run.net_stats.timeouts as i64),
            Cell::Int(run.net_stats.degraded_ops as i64),
            Cell::Int(run.net.duplicates as i64),
            kb(run.reliability.bytes_lost_partition),
            Cell::Int(run.net.violations() as i64),
            Cell::Int(run.oracle.violations() as i64),
        ]);
    }
    table
}

/// Runs the full sweep under `seed`.
pub fn run(env: &Env, seed: u64) -> Result<VerifyNet, String> {
    let rows = sweep(env, seed)?;
    let mut total = RunSummary::default();
    for row in &rows {
        total.merge(&row.run);
    }
    Ok(VerifyNet {
        seed,
        rows,
        summary: total.net,
        oracle: total.oracle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DEFAULT_SEED;

    #[test]
    fn tiny_sweep_is_clean_and_ordering_holds() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        assert_eq!(out.failure(), None, "{}", out.render());
        assert!(out.loss_ordering_holds(), "{}", out.render());
        // Unified's whole-cache NVRAM absorbs almost everything: its shed
        // must be a small fraction of what write-aside loses to overflow.
        assert!(
            out.partition_shed(CacheModelKind::Unified) * 4
                < out.partition_shed(CacheModelKind::WriteAside),
            "{}",
            out.render()
        );
        assert_eq!(out.summary.double_apply, 0);
        assert_eq!(out.summary.acked_lost, 0);
        assert!(out.summary.acked > 0);
        assert!(out.rows.iter().all(|r| r.run.net_stats.requests > 0));
        // The partition schedules actually severed something.
        assert!(out
            .rows
            .iter()
            .any(|r| r.kind.pure_partition() && r.run.net_stats.timeouts > 0));
        // The dup-reorder schedule actually duplicated something, and
        // every duplicate was suppressed by server-side dedup.
        assert!(out
            .rows
            .iter()
            .any(|r| r.kind == NetScheduleKind::DupReorder && r.run.net.duplicates > 0));
        assert!(out.verdict_json().starts_with("{\"net_judge\":\"clean\""));
    }

    #[test]
    fn sweep_is_reproducible() {
        let env = Env::tiny();
        let a = run(&env, 7).unwrap();
        let b = run(&env, 7).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn composed_rows_run_the_durability_oracle() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        for row in &out.rows {
            if row.kind == NetScheduleKind::PartitionCrash {
                assert!(row.run.oracle.crash_points > 0, "{:?}", row.model);
                assert_eq!(row.run.oracle.violations(), 0, "{:?}", row.model);
            } else {
                assert_eq!(row.run.oracle.crash_points, 0, "{:?}", row.model);
            }
        }
    }
}
