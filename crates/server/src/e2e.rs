//! End-to-end composition: client caches in front of an LFS server.
//!
//! §3 observes that "fsync requests from clients often force LFS to write
//! to disk before it has accumulated much data". This module closes the
//! loop: it runs the client-cache simulation, converts the resulting
//! client→server write stream into server-side LFS operations, and runs the
//! LFS simulator over it — so the effect of *client* NVRAM on the *server's*
//! segment behaviour can be measured directly.

use std::collections::BTreeMap;

use nvfs_core::client::{FlushCause, ServerWrite};
use nvfs_core::{ClusterSim, SimConfig, TrafficStats};
use nvfs_lfs::fs::{run_filesystem, FsReport, LfsConfig};
use nvfs_trace::op::OpStream;
use nvfs_trace::synth::lfs_workload::{FsWorkload, LfsOp, LfsOpKind};
use nvfs_types::{ByteRange, FileId, SimDuration};

/// Combined result of a client + server pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Client-side traffic statistics.
    pub client: TrafficStats,
    /// Server-side LFS report over the client-generated write stream.
    pub server: FsReport,
}

/// Converts the client→server write log into a server-side LFS workload.
///
/// Each flushed byte run becomes a sequential write at a per-file cursor
/// (the server sees sizes and arrival times; precise offsets do not affect
/// segment accounting). Fsync-caused flushes are followed by an explicit
/// fsync, which is what forces partial segments at the server.
pub fn server_workload_from_writes(writes: &[ServerWrite]) -> FsWorkload {
    let mut cursors: BTreeMap<FileId, u64> = BTreeMap::new();
    let mut ops = Vec::with_capacity(writes.len());
    for w in writes {
        if w.bytes == 0 {
            continue;
        }
        let cursor = cursors.entry(w.file).or_insert(0);
        ops.push(LfsOp {
            time: w.time,
            kind: LfsOpKind::Write {
                file: w.file,
                range: ByteRange::at(*cursor, w.bytes),
            },
        });
        *cursor += w.bytes;
        if w.cause == FlushCause::Fsync {
            ops.push(LfsOp {
                time: w.time + SimDuration::from_millis(1),
                kind: LfsOpKind::Fsync { file: w.file },
            });
        }
    }
    FsWorkload {
        name: "/clients",
        ops,
    }
}

/// Runs the full pipeline: client caches over `ops`, then the LFS server
/// over the writes the clients actually sent.
///
/// # Examples
///
/// ```
/// use nvfs_core::SimConfig;
/// use nvfs_lfs::fs::LfsConfig;
/// use nvfs_server::e2e::client_server_pipeline;
/// use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
///
/// let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
/// let report = client_server_pipeline(
///     traces.trace(0).ops(),
///     &SimConfig::volatile(1 << 20),
///     &LfsConfig::direct(),
/// );
/// assert!(report.server.disk_write_accesses() > 0);
/// ```
pub fn client_server_pipeline(
    ops: &OpStream,
    client_cfg: &SimConfig,
    lfs_cfg: &LfsConfig,
) -> PipelineReport {
    let (client, writes) = ClusterSim::new(client_cfg.clone()).run_detailed(ops);
    let workload = server_workload_from_writes(&writes);
    let server = run_filesystem(&workload, lfs_cfg);
    PipelineReport { client, server }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_faults::net::{NetFaultPlan, NetFaultPlanConfig};
    use nvfs_lfs::layout::SegmentCause;
    use nvfs_lfs::wal_fs::{run_filesystem_wal, WalConfig};
    use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
    use nvfs_types::SimTime;

    #[test]
    fn write_log_converts_to_workload() {
        use nvfs_types::ClientId;
        let writes = vec![
            ServerWrite {
                time: SimTime::from_secs(1),
                client: ClientId(0),
                file: FileId(3),
                bytes: 8192,
                cause: FlushCause::Fsync,
            },
            ServerWrite {
                time: SimTime::from_secs(2),
                client: ClientId(0),
                file: FileId(3),
                bytes: 4096,
                cause: FlushCause::WriteBack,
            },
        ];
        let w = server_workload_from_writes(&writes);
        assert_eq!(w.ops.len(), 3); // write, fsync, write
        assert_eq!(w.fsync_count(), 1);
        assert_eq!(w.write_bytes(), 12288);
        // Cursors advance so writes do not overlap.
        match (&w.ops[0].kind, &w.ops[2].kind) {
            (LfsOpKind::Write { range: a, .. }, LfsOpKind::Write { range: b, .. }) => {
                assert_eq!(a.end, b.start);
            }
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn client_nvram_removes_server_fsync_partials() {
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let ops = traces.trace(0).ops();
        let volatile =
            client_server_pipeline(ops, &SimConfig::volatile(2 << 20), &LfsConfig::direct());
        let unified = client_server_pipeline(
            ops,
            &SimConfig::unified(2 << 20, 1 << 20),
            &LfsConfig::direct(),
        );
        // With volatile clients, application fsyncs reach the server and
        // force partial segments; client NVRAM absorbs them entirely.
        assert!(volatile.server.count(SegmentCause::Fsync) > 0);
        assert_eq!(unified.server.count(SegmentCause::Fsync), 0);
        // Client NVRAM also shrinks the total server write volume.
        assert!(unified.client.server_write_bytes < volatile.client.server_write_bytes);
    }

    #[test]
    fn partitioned_pipeline_starves_the_server_by_model() {
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let trace = traces.trace(0);
        let cfg = NetFaultPlanConfig::new(trace.clients() as u32, trace.duration())
            .with_server_partitions(2)
            .with_partition_duration(SimDuration::from_secs(900));
        let net = NetFaultPlan::compile(9, &cfg).unwrap();
        let run = |sim_cfg: SimConfig| {
            let client = ClusterSim::new(sim_cfg).run_with_net_faults(trace.ops(), &net);
            let workload = server_workload_from_writes(&client.writes);
            let server = run_filesystem(&workload, &LfsConfig::direct());
            (client, server)
        };
        let volatile = run(SimConfig::volatile(2 << 20));
        let unified = run(SimConfig::unified(2 << 20, 2 << 20));
        // Sheds never enter the server workload, and the wire contract
        // holds for both models.
        for (client, server) in [&volatile, &unified] {
            assert!(server.app_write_bytes >= client.stats.server_write_bytes);
            assert_eq!(
                client.net.summary.violations(),
                0,
                "{:?}",
                client.net.verdicts
            );
        }
        // A volatile client loses its aged write-backs at the severed
        // server; a whole-cache NVRAM client just defers and reconciles.
        assert!(
            volatile.0.reliability.bytes_lost_partition
                > unified.0.reliability.bytes_lost_partition
        );
    }

    #[test]
    fn wal_server_acks_fsyncs_from_the_log() {
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let ops = traces.trace(0).ops();
        let client_cfg = SimConfig::volatile(2 << 20);
        let direct = client_server_pipeline(ops, &client_cfg, &LfsConfig::direct());
        let (client, writes) = ClusterSim::new(client_cfg).run_detailed(ops);
        let wal = run_filesystem_wal(&server_workload_from_writes(&writes), &WalConfig::sprite());
        // Same client traffic feeds both servers.
        assert_eq!(client.server_write_bytes, direct.client.server_write_bytes);
        // The fsyncs that forced partial segments in direct mode are all
        // absorbed by log appends in WAL mode.
        assert!(direct.server.count(SegmentCause::Fsync) > 0);
        assert_eq!(wal.fs.count(SegmentCause::Fsync), 0);
        assert_eq!(
            wal.wal.appends,
            direct.server.count(SegmentCause::Fsync) as u64
        );
        // No fsync ever waited on a disk write: every ack came straight
        // from the NVRAM append, the logging path's latency claim.
        assert!(wal.fsync_samples.iter().all(|s| s.forced_segments == 0));
    }

    #[test]
    fn net_faulted_wal_pipeline_keeps_the_wire_contract() {
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let trace = traces.trace(2);
        let cfg = NetFaultPlanConfig::new(trace.clients() as u32, trace.duration())
            .with_drop_probability(0.05)
            .with_duplicate_probability(0.02)
            .with_server_partitions(1)
            .with_partition_duration(SimDuration::from_secs(300));
        let net = NetFaultPlan::compile(17, &cfg).unwrap();
        let client =
            ClusterSim::new(SimConfig::volatile(2 << 20)).run_with_net_faults(trace.ops(), &net);
        let server = run_filesystem_wal(
            &server_workload_from_writes(&client.writes),
            &WalConfig::sprite(),
        );
        assert_eq!(
            client.net.summary.violations(),
            0,
            "{:?}",
            client.net.verdicts
        );
        // Whatever survived the wire is conserved into the WAL server.
        assert!(server.fs.app_write_bytes >= client.stats.server_write_bytes);
    }

    #[test]
    fn pipeline_conserves_bytes() {
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let ops = traces.trace(4).ops();
        let report =
            client_server_pipeline(ops, &SimConfig::volatile(2 << 20), &LfsConfig::direct());
        // Everything the clients sent reaches the LFS (block rounding can
        // only add bytes).
        assert!(report.server.app_write_bytes >= report.client.server_write_bytes);
        assert!(report.server.data_bytes() >= report.client.server_write_bytes);
    }
}
