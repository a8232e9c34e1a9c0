//! The trace-driven cluster simulator (§2.2).
//!
//! [`ClusterSim`] replays a canonical [`OpStream`] against one
//! [`ClientCache`](crate::client::ClientCache) per client plus the
//! server-side [`ConsistencyServer`](crate::consistency::ConsistencyServer),
//! producing the [`TrafficStats`] from which Figures 3–6 are derived.
//! The volatile model's 30-second delayed write-back is driven by a
//! 5-second cleaner tick, exactly as in Sprite.
//!
//! Every `run_*` entry point is a thin wrapper over the composable
//! engine in [`session`](crate::session): it assembles the canonical
//! [`RunHook`](crate::session::RunHook) stack for that concern and
//! drives one [`SimSession`]. Custom compositions (warmup + faults +
//! oracle, say) are assembled the same way by callers.

use nvfs_faults::corrupt::CorruptionSchedule;
use nvfs_faults::net::NetFaultPlan;
use nvfs_faults::{FaultSchedule, ReliabilityStats};
use nvfs_nvram::protect::ProtectionMode;
use nvfs_oracle::Oracle;
use nvfs_trace::op::OpStream;
use nvfs_types::SimDuration;

use crate::client::ServerWrite;
use crate::config::SimConfig;
use crate::metrics::TrafficStats;
use crate::net::{NetFaultInjector, NetReport};
use crate::scrub::{CorruptionInjector, ScrubReport};
use crate::session::{
    FaultInjector, ObsRecorder, OracleJudge, SimSession, WarmupReset, WriteLogCapture,
};

/// A configured cluster simulation, ready to run over op streams.
///
/// # Examples
///
/// ```
/// use nvfs_core::{ClusterSim, SimConfig};
/// use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
///
/// let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
/// let stats = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10))
///     .run(traces.trace(0).ops());
/// assert!(stats.app_write_bytes > 0);
/// assert!(stats.net_write_traffic_pct() <= 100.0 + 1e-9 || stats.server_read_bytes > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: SimConfig,
}

/// Results of a fault-injected run ([`ClusterSim::run_with_faults`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRunReport {
    /// Ordinary traffic counters; recovery drains appear under
    /// [`TrafficStats::recovery_bytes`].
    pub stats: TrafficStats,
    /// Crash/recovery accounting, per fault kind.
    pub reliability: ReliabilityStats,
    /// Time-ordered server-write log including recovery drains.
    pub writes: Vec<ServerWrite>,
}

/// Results of a network-faulted run ([`ClusterSim::run_with_net_faults`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaultRunReport {
    /// Ordinary traffic counters (shed bytes never appear here — they
    /// did not reach the server).
    pub stats: TrafficStats,
    /// Reliability accounting; partition-shed bytes land in
    /// [`ReliabilityStats::bytes_lost_partition`].
    pub reliability: ReliabilityStats,
    /// Time-ordered server-write log of the bytes that *did* get through.
    pub writes: Vec<ServerWrite>,
    /// Wire-layer counters, judge summary and verdicts.
    pub net: NetReport,
}

impl ClusterSim {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        ClusterSim { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `ops` and returns the aggregated traffic statistics.
    ///
    /// The omniscient policy builds its schedule from this same stream (the
    /// paper's third pass).
    pub fn run(&self, ops: &OpStream) -> TrafficStats {
        let mut obs = ObsRecorder::new();
        SimSession::new(&self.config)
            .run(ops, &mut [&mut obs])
            .stats
    }

    /// Runs with a warm-up prefix: the first `warmup` fraction of the
    /// stream populates the caches, then every counter is reset, so the
    /// returned statistics describe steady state only. The cut index is
    /// `floor(len * warmup)` — see [`warmup_cut`](crate::session::warmup_cut).
    ///
    /// The paper notes its own simulations "started with empty caches,
    /// thereby misclassifying some writes as new data rather than
    /// overwrites" — this quantifies that cold-start bias.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= warmup < 1.0`.
    pub fn run_with_warmup(&self, ops: &OpStream, warmup: f64) -> TrafficStats {
        let mut warm = WarmupReset::fraction(ops.len(), warmup);
        let mut obs = ObsRecorder::new();
        SimSession::new(&self.config)
            .run(ops, &mut [&mut warm, &mut obs])
            .stats
    }

    /// Like [`ClusterSim::run`], but also returns the time-ordered log of
    /// every write the clients sent to the server — the input for a
    /// server-side (LFS) simulation downstream.
    pub fn run_detailed(&self, ops: &OpStream) -> (TrafficStats, Vec<ServerWrite>) {
        let (mut obs, mut log) = (ObsRecorder::new(), WriteLogCapture::new());
        let out = SimSession::new(&self.config).run(ops, &mut [&mut obs, &mut log]);
        (out.stats, log.take())
    }

    /// Replays `ops` under an injected [`FaultSchedule`]: each scheduled
    /// client crash cuts that client's trace at the fault time, snapshots
    /// its NVRAM contents onto a removable board, and — after the board's
    /// relocation delay, with its batteries aged on the schedule's failure
    /// clock — drains the board through the §4 recovery flow. Losses
    /// (volatile window, dead batteries, torn drains) are reported in the
    /// returned [`ReliabilityStats`] rather than panicking.
    ///
    /// Deterministic: the same `(schedule, ops, config)` triple produces
    /// byte-identical results at any worker-thread count.
    pub fn run_with_faults(&self, ops: &OpStream, schedule: &FaultSchedule) -> FaultRunReport {
        let (mut faults, mut obs, mut log) = (
            FaultInjector::new(schedule),
            ObsRecorder::new(),
            WriteLogCapture::new(),
        );
        let out = SimSession::new(&self.config).run(ops, &mut [&mut faults, &mut obs, &mut log]);
        FaultRunReport {
            stats: out.stats,
            reliability: out.reliability,
            writes: log.take(),
        }
    }

    /// Like [`ClusterSim::run_with_faults`], but every crash + recovery is
    /// judged by the durability [`Oracle`]: at each crash instant the cache
    /// model's durable promise is captured *before* any recovery code runs,
    /// and after the board drain the recovered ranges are diffed against
    /// the shadow model's independent prediction. The returned oracle holds
    /// one [`CrashReport`](nvfs_oracle::CrashReport) per recovered crash.
    pub fn run_with_faults_verified(
        &self,
        ops: &OpStream,
        schedule: &FaultSchedule,
    ) -> (FaultRunReport, Oracle) {
        let (mut faults, mut obs, mut judge, mut log) = (
            FaultInjector::new(schedule),
            ObsRecorder::new(),
            OracleJudge::new(),
            WriteLogCapture::new(),
        );
        let out = SimSession::new(&self.config)
            .run(ops, &mut [&mut faults, &mut obs, &mut judge, &mut log]);
        (
            FaultRunReport {
                stats: out.stats,
                reliability: out.reliability,
                writes: log.take(),
            },
            judge.into_oracle(),
        )
    }

    /// Like [`ClusterSim::run_with_faults_verified`], but with an NVRAM
    /// corruption schedule layered on top: stray writes, bit flips, and
    /// board decay land on the clients' NVRAM contents under the given
    /// [`ProtectionMode`], with an optional background checksum scrub
    /// sweeping every `scrub_interval`. Corruption is pure metadata —
    /// the traffic statistics, write log, and crash/recovery flow are
    /// byte-identical to the corruption-free run (modulo the scrub's
    /// repair reads, charged to server read traffic) — and every corrupt
    /// byte's fate is classified in the returned [`ScrubReport`].
    ///
    /// Deterministic and serial: byte-identical at any worker-thread
    /// count.
    pub fn run_with_corruption_verified(
        &self,
        ops: &OpStream,
        schedule: &FaultSchedule,
        corruption: &CorruptionSchedule,
        mode: ProtectionMode,
        scrub_interval: Option<SimDuration>,
    ) -> (FaultRunReport, Oracle, ScrubReport) {
        let (mut faults, mut corrupt, mut obs, mut judge, mut log) = (
            FaultInjector::new(schedule),
            CorruptionInjector::new(corruption, mode, scrub_interval),
            ObsRecorder::new(),
            OracleJudge::new(),
            WriteLogCapture::new(),
        );
        let out = SimSession::new(&self.config).run(
            ops,
            &mut [&mut faults, &mut corrupt, &mut obs, &mut judge, &mut log],
        );
        (
            FaultRunReport {
                stats: out.stats,
                reliability: out.reliability,
                writes: log.take(),
            },
            judge.into_oracle(),
            corrupt.into_report(),
        )
    }

    /// Replays `ops` with the deterministic network layer between the
    /// clients and the server: every server-interacting op and flush note
    /// becomes an RPC resolved through `net` (drops, duplicates, delays,
    /// retries, timed partitions). While a client's link is severed,
    /// flushes the model cannot defer are shed and accounted as
    /// [`ReliabilityStats::bytes_lost_partition`]; the wire transcript is
    /// judged by the [`NetJudge`](nvfs_oracle::NetJudge) and the verdicts
    /// returned in the report. Deterministic and serial: byte-identical
    /// at any worker-thread count.
    pub fn run_with_net_faults(&self, ops: &OpStream, net: &NetFaultPlan) -> NetFaultRunReport {
        let (mut netinj, mut obs, mut log) = (
            NetFaultInjector::new(net),
            ObsRecorder::new(),
            WriteLogCapture::new(),
        );
        let out = SimSession::new(&self.config).run(ops, &mut [&mut netinj, &mut obs, &mut log]);
        NetFaultRunReport {
            stats: out.stats,
            reliability: out.reliability,
            writes: log.take(),
            net: netinj.into_report(),
        }
    }

    /// Like [`ClusterSim::run_with_net_faults`], but composed with a
    /// crash [`FaultSchedule`] and the durability [`Oracle`]: partitions,
    /// retries and crashes interleave in one run, recovery drains defer
    /// past whole-server partitions, and every crash + recovery is judged
    /// against the shadow durability model on top of the wire contract.
    pub fn run_with_net_faults_verified(
        &self,
        ops: &OpStream,
        net: &NetFaultPlan,
        schedule: &FaultSchedule,
    ) -> (NetFaultRunReport, Oracle) {
        let (mut netinj, mut faults, mut obs, mut judge, mut log) = (
            NetFaultInjector::new(net),
            FaultInjector::new(schedule),
            ObsRecorder::new(),
            OracleJudge::new(),
            WriteLogCapture::new(),
        );
        let out = SimSession::new(&self.config).run(
            ops,
            &mut [&mut netinj, &mut faults, &mut obs, &mut judge, &mut log],
        );
        (
            NetFaultRunReport {
                stats: out.stats,
                reliability: out.reliability,
                writes: log.take(),
                net: netinj.into_report(),
            },
            judge.into_oracle(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FlushCause;
    use crate::config::PolicyKind;
    use crate::session::warmup_cut;
    use nvfs_trace::event::OpenMode;
    use nvfs_trace::op::{Op, OpKind};
    use nvfs_types::{ByteRange, ClientId, FileId, SimTime, BLOCK_SIZE};

    fn op(t: u64, client: u32, kind: OpKind) -> Op {
        Op {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            kind,
        }
    }

    fn wr(t: u64, client: u32, file: u32, block: u64) -> Op {
        op(
            t,
            client,
            OpKind::Write {
                file: FileId(file),
                range: ByteRange::at(block * BLOCK_SIZE, BLOCK_SIZE),
            },
        )
    }

    #[test]
    fn delayed_writeback_fires_after_30s() {
        let ops: OpStream = vec![
            op(
                1,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            wr(2, 0, 0, 0),
            op(3, 0, OpKind::Close { file: FileId(0) }),
            // A much later op lets the cleaner run.
            op(
                100,
                0,
                OpKind::Open {
                    file: FileId(1),
                    mode: OpenMode::Read,
                },
            ),
        ]
        .into_iter()
        .collect();
        let stats = ClusterSim::new(SimConfig::volatile(1 << 20)).run(&ops);
        assert_eq!(stats.writeback_bytes, BLOCK_SIZE);
        assert_eq!(stats.remaining_dirty_bytes, 0);
    }

    /// A truncate or delete issued by a client that never touched the
    /// file must still reach every cache holding it: the writer's dirty
    /// block dies and the reader's clean copy is dropped, so its next
    /// read misses.
    #[test]
    fn truncate_and_delete_reach_every_cache_holding_the_file() {
        let rd = |t: u64, client: u32| {
            op(
                t,
                client,
                OpKind::Read {
                    file: FileId(5),
                    range: ByteRange::at(0, BLOCK_SIZE),
                },
            )
        };
        for kill in [
            OpKind::Truncate {
                file: FileId(5),
                new_len: 0,
            },
            OpKind::Delete { file: FileId(5) },
        ] {
            let ops: OpStream = vec![wr(1, 0, 5, 0), rd(2, 1), op(3, 2, kill.clone()), rd(4, 1)]
                .into_iter()
                .collect();
            let stats = ClusterSim::new(SimConfig::volatile(1 << 20)).run(&ops);
            assert_eq!(stats.deleted_dead_bytes, BLOCK_SIZE, "{kill:?}");
            assert_eq!(stats.remaining_dirty_bytes, 0, "{kill:?}");
            assert_eq!(stats.server_read_bytes, 2 * BLOCK_SIZE, "{kill:?}");
        }
    }

    #[test]
    fn nvram_models_hold_dirty_data_to_the_end() {
        let ops: OpStream = vec![
            op(
                1,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            wr(2, 0, 0, 0),
            op(3, 0, OpKind::Close { file: FileId(0) }),
            op(
                100,
                0,
                OpKind::Open {
                    file: FileId(1),
                    mode: OpenMode::Read,
                },
            ),
        ]
        .into_iter()
        .collect();
        for cfg in [
            SimConfig::write_aside(1 << 20, 512 << 10),
            SimConfig::unified(1 << 20, 512 << 10),
        ] {
            let stats = ClusterSim::new(cfg).run(&ops);
            assert_eq!(stats.writeback_bytes, 0);
            assert_eq!(stats.remaining_dirty_bytes, BLOCK_SIZE);
            assert_eq!(stats.server_write_bytes, 0);
        }
    }

    #[test]
    fn absorbed_write_never_reaches_server_in_nvram_model() {
        let ops: OpStream = vec![
            op(
                1,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            wr(2, 0, 0, 0),
            op(50, 0, OpKind::Delete { file: FileId(0) }),
            op(
                100,
                0,
                OpKind::Open {
                    file: FileId(1),
                    mode: OpenMode::Read,
                },
            ),
        ]
        .into_iter()
        .collect();
        let stats = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10)).run(&ops);
        assert_eq!(stats.deleted_dead_bytes, BLOCK_SIZE);
        assert_eq!(stats.server_write_bytes, 0);
        assert_eq!(stats.net_write_traffic_pct(), 0.0);
        // The volatile model, by contrast, wrote it back at ~32s.
        let v = ClusterSim::new(SimConfig::volatile(1 << 20)).run(&ops);
        assert_eq!(v.writeback_bytes, BLOCK_SIZE);
    }

    #[test]
    fn foreign_open_recalls_dirty_data() {
        let ops: OpStream = vec![
            op(
                1,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            wr(2, 0, 0, 0),
            op(3, 0, OpKind::Close { file: FileId(0) }),
            op(
                10,
                1,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Read,
                },
            ),
            op(
                11,
                1,
                OpKind::Read {
                    file: FileId(0),
                    range: ByteRange::at(0, BLOCK_SIZE),
                },
            ),
            op(12, 1, OpKind::Close { file: FileId(0) }),
        ]
        .into_iter()
        .collect();
        let stats = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10)).run(&ops);
        assert_eq!(stats.callback_bytes, BLOCK_SIZE);
        assert_eq!(stats.remaining_dirty_bytes, 0);
    }

    #[test]
    fn concurrent_write_sharing_bypasses_caches() {
        let ops: OpStream = vec![
            op(
                1,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                2,
                1,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::ReadWrite,
                },
            ),
            wr(3, 0, 0, 0),
            wr(4, 1, 0, 0),
            op(
                5,
                1,
                OpKind::Read {
                    file: FileId(0),
                    range: ByteRange::at(0, 100),
                },
            ),
            op(6, 0, OpKind::Close { file: FileId(0) }),
            op(7, 1, OpKind::Close { file: FileId(0) }),
            // After everyone closes, caching works again.
            op(
                8,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            wr(9, 0, 0, 1),
            op(10, 0, OpKind::Close { file: FileId(0) }),
        ]
        .into_iter()
        .collect();
        let stats = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10)).run(&ops);
        assert_eq!(stats.concurrent_write_bytes, 2 * BLOCK_SIZE);
        assert_eq!(stats.concurrent_read_bytes, 100);
        // The post-sharing write is cached normally.
        assert_eq!(stats.remaining_dirty_bytes, BLOCK_SIZE);
    }

    #[test]
    fn migration_flushes_dirty_files() {
        use nvfs_types::ProcessId;
        let ops: OpStream = vec![
            op(
                1,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            wr(2, 0, 0, 0),
            op(
                3,
                0,
                OpKind::Migrate {
                    pid: ProcessId(0),
                    to: ClientId(1),
                    files: vec![FileId(0)],
                },
            ),
        ]
        .into_iter()
        .collect();
        let stats = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10)).run(&ops);
        assert_eq!(stats.migration_bytes, BLOCK_SIZE);
        assert_eq!(stats.remaining_dirty_bytes, 0);
    }

    #[test]
    fn block_consistency_recalls_only_read_blocks() {
        use crate::config::ConsistencyMode;
        // Client 0 dirties two blocks; client 1 reads only the first.
        let ops: OpStream = vec![
            op(
                1,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            wr(2, 0, 0, 0),
            wr(3, 0, 0, 1),
            op(4, 0, OpKind::Close { file: FileId(0) }),
            op(
                5,
                1,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Read,
                },
            ),
            op(
                6,
                1,
                OpKind::Read {
                    file: FileId(0),
                    range: ByteRange::at(0, BLOCK_SIZE),
                },
            ),
            op(7, 1, OpKind::Close { file: FileId(0) }),
        ]
        .into_iter()
        .collect();
        let whole = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10)).run(&ops);
        assert_eq!(
            whole.callback_bytes,
            2 * BLOCK_SIZE,
            "whole-file recall takes both blocks"
        );
        let block = ClusterSim::new(
            SimConfig::unified(1 << 20, 512 << 10).with_consistency(ConsistencyMode::BlockOnDemand),
        )
        .run(&ops);
        assert_eq!(
            block.callback_bytes, BLOCK_SIZE,
            "lazy recall takes only the read block"
        );
        // The unread block stays dirty in client 0's NVRAM.
        assert_eq!(block.remaining_dirty_bytes, BLOCK_SIZE);
    }

    #[test]
    fn warmup_reduces_cold_start_misses() {
        use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let ops = traces.trace(6).ops();
        let sim = ClusterSim::new(SimConfig::unified(2 << 20, 512 << 10));
        let warm = sim.run_with_warmup(ops, 0.3);
        // The clean comparison: the same steady-state suffix replayed from
        // empty caches.
        let cut = warmup_cut(ops.len(), 0.3);
        let suffix: OpStream = ops.as_slice()[cut..].iter().cloned().collect();
        let cold_suffix = sim.run(&suffix);
        assert_eq!(warm.app_write_bytes, cold_suffix.app_write_bytes);
        // Warmed caches can only hit more often on identical requests.
        assert!(
            warm.read_hit_ratio() >= cold_suffix.read_hit_ratio(),
            "warm {:.3} vs cold {:.3}",
            warm.read_hit_ratio(),
            cold_suffix.read_hit_ratio()
        );
        // And the paper's noted bias: cold caches misclassify overwrites of
        // earlier data as new writes, so warm runs absorb at least as much.
        assert!(warm.absorbed_bytes() >= cold_suffix.absorbed_bytes());
    }

    #[test]
    #[should_panic(expected = "warmup must be in")]
    fn warmup_rejects_full_fraction() {
        let sim = ClusterSim::new(SimConfig::volatile(1 << 20));
        let _ = sim.run_with_warmup(&OpStream::new(), 1.0);
    }

    #[test]
    fn warmup_cut_rounds_down_and_handles_boundaries() {
        // floor semantics: the warm-up prefix is rounded down.
        assert_eq!(warmup_cut(10, 0.3), 3);
        assert_eq!(warmup_cut(7, 0.5), 3);
        assert_eq!(warmup_cut(10, 0.0), 0);
        // Just below 1.0: the measured suffix keeps at least one op.
        let cut = warmup_cut(10, 1.0 - 1e-9);
        assert_eq!(cut, 9, "cut must stay below len");
        // The empty stream cuts at 0 for every legal fraction.
        assert_eq!(warmup_cut(0, 0.0), 0);
        assert_eq!(warmup_cut(0, 0.999), 0);
    }

    #[test]
    fn warmup_just_below_one_measures_only_the_tail() {
        use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let ops = traces.trace(6).ops();
        let sim = ClusterSim::new(SimConfig::unified(2 << 20, 512 << 10));
        // A warm-up fraction just below 1.0 resets before the very last
        // op: the run must not panic, and the counters can only describe
        // that one-op tail.
        let tail = sim.run_with_warmup(ops, 1.0 - f64::EPSILON);
        let full = sim.run(ops);
        assert!(tail.app_write_bytes <= full.app_write_bytes);
        assert!(tail.app_read_bytes <= full.app_read_bytes);
    }

    #[test]
    fn warmup_on_empty_stream_is_a_no_op() {
        let sim = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10));
        let stats = sim.run_with_warmup(&OpStream::new(), 0.5);
        assert_eq!(stats, TrafficStats::default());
    }

    #[test]
    fn runs_are_deterministic() {
        use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let cfg =
            SimConfig::unified(1 << 20, 256 << 10).with_policy(PolicyKind::Random { seed: 5 });
        let a = ClusterSim::new(cfg.clone()).run(traces.trace(4).ops());
        let b = ClusterSim::new(cfg).run(traces.trace(4).ops());
        assert_eq!(a, b);
    }

    #[test]
    fn injected_crash_cuts_the_trace_and_recovers_nvram_contents() {
        use nvfs_faults::{FaultPlanConfig, FaultSchedule};
        use nvfs_types::SimDuration;
        // Client 0 writes one block, then (post-crash) would write another;
        // client 1 writes one block and survives.
        let ops: OpStream = vec![
            wr(2, 0, 0, 0),
            wr(2, 1, 1, 0),
            wr(40, 0, 2, 0),
            op(
                100,
                1,
                OpKind::Open {
                    file: FileId(3),
                    mode: OpenMode::Read,
                },
            ),
        ]
        .into_iter()
        .collect();
        // One crash in a 1-client plan always hits ClientId(0).
        let plan = FaultPlanConfig::new(1, SimDuration::from_secs(20))
            .with_client_crashes(1)
            .with_relocation_delay(SimDuration::from_secs(10));
        let schedule = FaultSchedule::compile(9, &plan).unwrap();
        assert_eq!(schedule.client_crashes[0].client, ClientId(0));

        let unified = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10))
            .run_with_faults(&ops, &schedule);
        let r = &unified.reliability;
        assert_eq!(r.client_crashes, 1);
        assert_eq!(r.bytes_at_risk, BLOCK_SIZE, "only the pre-crash write");
        assert_eq!(r.bytes_recovered, BLOCK_SIZE);
        assert_eq!(
            r.bytes_lost_window + r.bytes_lost_battery + r.bytes_lost_torn,
            0
        );
        assert_eq!(r.boards_recovered, 1);
        assert_eq!(unified.stats.recovery_bytes, BLOCK_SIZE);
        // The post-crash write never happened; the survivor's write did.
        assert_eq!(unified.stats.app_write_bytes, 2 * BLOCK_SIZE);
        assert!(unified
            .writes
            .iter()
            .any(|w| w.cause == FlushCause::Recovery));

        // The volatile model has nothing in NVRAM: the window is lost.
        let volatile =
            ClusterSim::new(SimConfig::volatile(1 << 20)).run_with_faults(&ops, &schedule);
        let r = &volatile.reliability;
        assert_eq!(r.bytes_at_risk, BLOCK_SIZE);
        assert_eq!(r.bytes_in_nvram, 0);
        assert_eq!(r.bytes_lost_window, BLOCK_SIZE);
        assert_eq!(r.bytes_recovered, 0);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        use nvfs_faults::{FaultPlanConfig, FaultSchedule};
        use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
        use nvfs_types::SimDuration;
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let ops = traces.trace(6).ops();
        let plan = FaultPlanConfig::new(8, SimDuration::from_hours(24))
            .with_client_crashes(3)
            .with_batteries(1)
            .with_battery_mtbf(SimDuration::from_hours(6))
            .with_torn_probability(0.3);
        let schedule = FaultSchedule::compile(42, &plan).unwrap();
        let sim = ClusterSim::new(SimConfig::write_aside(1 << 20, 512 << 10));
        let a = sim.run_with_faults(ops, &schedule);
        let b = sim.run_with_faults(ops, &schedule);
        assert_eq!(a, b);
        assert_eq!(a.reliability.client_crashes, 3);
    }

    #[test]
    fn verified_run_judges_every_recovery_clean() {
        use nvfs_faults::{CrashPointKind, FaultPlanConfig, FaultSchedule};
        use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
        use nvfs_types::SimDuration;
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let ops = traces.trace(6).ops();
        let plan = FaultPlanConfig::new(8, SimDuration::from_hours(24))
            .with_client_crashes(4)
            .with_torn_probability(0.5);
        let schedule = FaultSchedule::compile(42, &plan).unwrap();
        let sim = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10));
        // Every crash-point variant of the schedule must be judged Clean:
        // the recovery path honours the durability contract at full drains,
        // per-block mid-drain cuts, battery-death edges, and flush edges.
        for kind in [
            CrashPointKind::FullDrain,
            CrashPointKind::TornDrainBlocks(1),
            CrashPointKind::DeadBoard,
            CrashPointKind::BatteryEdgeAlive,
            CrashPointKind::PreFlush,
            CrashPointKind::PostFlush,
        ] {
            let variant = schedule.apply_crash_point(kind, SimDuration::from_secs(5));
            let (report, oracle) = sim.run_with_faults_verified(ops, &variant);
            assert_eq!(report.reliability.client_crashes, 4, "{kind}");
            let s = oracle.summary();
            assert_eq!(
                s.crash_points,
                report.reliability.boards_recovered + report.reliability.boards_dead,
                "{kind}"
            );
            assert_eq!(s.violations(), 0, "{kind}: {:?}", oracle.reports());
            // The oracle's byte totals agree with the reliability ledger.
            assert_eq!(
                s.bytes_observed, report.reliability.bytes_recovered,
                "{kind}"
            );
        }
        // And the unverified path is byte-identical to the verified one.
        let (verified, _) = sim.run_with_faults_verified(ops, &schedule);
        let plain = sim.run_with_faults(ops, &schedule);
        assert_eq!(verified, plain);
    }

    #[test]
    fn omniscient_policy_runs_end_to_end() {
        use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
        let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let cfg = SimConfig::unified(1 << 20, 128 << 10).with_policy(PolicyKind::Omniscient);
        let omni = ClusterSim::new(cfg).run(traces.trace(6).ops());
        let lru =
            ClusterSim::new(SimConfig::unified(1 << 20, 128 << 10)).run(traces.trace(6).ops());
        // Omniscient replacement can only help (small tolerance for the
        // block-vs-byte optimality caveat the paper itself notes).
        assert!(
            omni.net_write_traffic_pct() <= lru.net_write_traffic_pct() * 1.05,
            "omniscient {:.2}% vs LRU {:.2}%",
            omni.net_write_traffic_pct(),
            lru.net_write_traffic_pct()
        );
    }
}
