//! Randomized tests over random op streams: every byte an application
//! writes must be accounted for exactly once, in every cache model.
//!
//! The conservation identity: a written byte either
//! * dies in the cache by being overwritten (`overwritten_dead_bytes`),
//! * dies by delete/truncate (`deleted_dead_bytes`),
//! * reaches the server (`server_write_bytes`),
//! * bypasses the cache during concurrent write-sharing
//!   (`concurrent_write_bytes`), or
//! * is still dirty at the end (`remaining_dirty_bytes`).
//!
//! Formerly proptest-based; now driven by a seeded [`nvfs_rng::StdRng`] so
//! the suite builds offline and failures reproduce exactly.

use nvfs_core::{ClusterSim, PolicyKind, SimConfig};
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_trace::event::OpenMode;
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{ByteRange, ClientId, FileId, ProcessId, SimTime, BLOCK_SIZE};

const FILES: u32 = 6;
const CLIENTS: u32 = 3;
const MAX_LEN: u64 = 6 * BLOCK_SIZE;

#[derive(Debug, Clone)]
enum Action {
    Open(u32, u32, bool),
    Close(u32, u32),
    Read(u32, u32, u64, u64),
    Write(u32, u32, u64, u64),
    Truncate(u32, u32, u64),
    Delete(u32, u32),
    Fsync(u32, u32),
    Migrate(u32, u32),
}

fn rand_action(rng: &mut StdRng) -> Action {
    let c = rng.gen_range(0..CLIENTS);
    let f = rng.gen_range(0..FILES);
    match rng.gen_range(0..8u32) {
        0 => Action::Open(c, f, rng.gen_bool(0.5)),
        1 => Action::Close(c, f),
        2 => Action::Read(c, f, rng.gen_range(0..MAX_LEN), rng.gen_range(1..MAX_LEN)),
        3 => Action::Write(c, f, rng.gen_range(0..MAX_LEN), rng.gen_range(1..MAX_LEN)),
        4 => Action::Truncate(c, f, rng.gen_range(0..MAX_LEN)),
        5 => Action::Delete(c, f),
        6 => Action::Fsync(c, f),
        _ => Action::Migrate(c, f),
    }
}

fn rand_actions(rng: &mut StdRng, max: usize) -> Vec<Action> {
    let n = rng.gen_range(1..max);
    (0..n).map(|_| rand_action(rng)).collect()
}

fn to_stream(actions: &[Action]) -> OpStream {
    actions
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let time = SimTime::from_secs(i as u64 * 7); // spans cleaner ticks
            let op = |client: u32, kind: OpKind| Op {
                time,
                client: ClientId(client),
                kind,
            };
            match *a {
                Action::Open(c, f, w) => op(
                    c,
                    OpKind::Open {
                        file: FileId(f),
                        mode: if w { OpenMode::Write } else { OpenMode::Read },
                    },
                ),
                Action::Close(c, f) => op(c, OpKind::Close { file: FileId(f) }),
                Action::Read(c, f, o, l) => op(
                    c,
                    OpKind::Read {
                        file: FileId(f),
                        range: ByteRange::at(o, l),
                    },
                ),
                Action::Write(c, f, o, l) => op(
                    c,
                    OpKind::Write {
                        file: FileId(f),
                        range: ByteRange::at(o, l),
                    },
                ),
                Action::Truncate(c, f, n) => op(
                    c,
                    OpKind::Truncate {
                        file: FileId(f),
                        new_len: n,
                    },
                ),
                Action::Delete(c, f) => op(c, OpKind::Delete { file: FileId(f) }),
                Action::Fsync(c, f) => op(c, OpKind::Fsync { file: FileId(f) }),
                Action::Migrate(c, f) => op(
                    c,
                    OpKind::Migrate {
                        pid: ProcessId(c),
                        to: ClientId((c + 1) % CLIENTS),
                        files: vec![FileId(f)],
                    },
                ),
            }
        })
        .collect()
}

fn configs() -> Vec<SimConfig> {
    vec![
        SimConfig::volatile(4 * BLOCK_SIZE),
        SimConfig::volatile(64 * BLOCK_SIZE),
        SimConfig::write_aside(8 * BLOCK_SIZE, 2 * BLOCK_SIZE),
        SimConfig::write_aside(64 * BLOCK_SIZE, 32 * BLOCK_SIZE),
        SimConfig::unified(8 * BLOCK_SIZE, 2 * BLOCK_SIZE),
        SimConfig::unified(64 * BLOCK_SIZE, 32 * BLOCK_SIZE),
        SimConfig::unified(8 * BLOCK_SIZE, 4 * BLOCK_SIZE)
            .with_policy(PolicyKind::Random { seed: 11 }),
        SimConfig::unified(8 * BLOCK_SIZE, 4 * BLOCK_SIZE).with_policy(PolicyKind::Omniscient),
        SimConfig::hybrid(8 * BLOCK_SIZE, 2 * BLOCK_SIZE),
        SimConfig::hybrid(64 * BLOCK_SIZE, 32 * BLOCK_SIZE),
        SimConfig::volatile(16 * BLOCK_SIZE).with_dirty_preference(),
    ]
}

#[test]
fn every_written_byte_is_accounted_for() {
    let mut rng = StdRng::seed_from_u64(0xACC7_0001);
    for _case in 0..64 {
        let actions = rand_actions(&mut rng, 120);
        let ops = to_stream(&actions);
        for cfg in configs() {
            let model = cfg.model;
            let policy = cfg.policy;
            let stats = ClusterSim::new(cfg).session(&ops).run().stats;
            let accounted = stats.server_write_bytes
                + stats.concurrent_write_bytes
                + stats.overwritten_dead_bytes
                + stats.deleted_dead_bytes
                + stats.remaining_dirty_bytes;
            assert_eq!(
                accounted, stats.app_write_bytes,
                "model {model:?} policy {policy:?}: {stats:?}"
            );
        }
    }
}

#[test]
fn cause_breakdown_sums_to_server_writes() {
    let mut rng = StdRng::seed_from_u64(0xACC7_0002);
    for _case in 0..64 {
        let actions = rand_actions(&mut rng, 120);
        let ops = to_stream(&actions);
        for cfg in configs() {
            let stats = ClusterSim::new(cfg).session(&ops).run().stats;
            let by_cause = stats.writeback_bytes
                + stats.replacement_bytes
                + stats.callback_bytes
                + stats.migration_bytes
                + stats.fsync_bytes;
            assert_eq!(by_cause, stats.server_write_bytes, "{stats:?}");
        }
    }
}

#[test]
fn detailed_log_matches_totals() {
    let mut rng = StdRng::seed_from_u64(0xACC7_0003);
    for _case in 0..64 {
        let actions = rand_actions(&mut rng, 100);
        let ops = to_stream(&actions);
        for cfg in configs() {
            let report = ClusterSim::new(cfg).session(&ops).writes().run();
            let logged: u64 = report.writes.iter().map(|w| w.bytes).sum();
            assert_eq!(logged, report.stats.server_write_bytes);
            // The log is time ordered.
            for pair in report.writes.windows(2) {
                assert!(pair[0].time <= pair[1].time);
            }
        }
    }
}

#[test]
fn nvram_models_never_write_back_on_fsync() {
    let mut rng = StdRng::seed_from_u64(0xACC7_0004);
    for _case in 0..64 {
        let actions = rand_actions(&mut rng, 80);
        let ops = to_stream(&actions);
        for cfg in [
            SimConfig::write_aside(16 * BLOCK_SIZE, 8 * BLOCK_SIZE),
            SimConfig::unified(16 * BLOCK_SIZE, 8 * BLOCK_SIZE),
        ] {
            let stats = ClusterSim::new(cfg).session(&ops).run().stats;
            assert_eq!(stats.fsync_bytes, 0);
            assert_eq!(stats.writeback_bytes, 0);
        }
    }
}

#[test]
fn lifetime_log_is_conserved_too() {
    let mut rng = StdRng::seed_from_u64(0xACC7_0005);
    for _case in 0..64 {
        let actions = rand_actions(&mut rng, 100);
        let ops = to_stream(&actions);
        let log = nvfs_core::LifetimeLog::analyze(&ops);
        let sum: u64 = log.records.iter().map(|r| r.len).sum();
        assert_eq!(sum, log.total_write_bytes);
        assert_eq!(log.total_write_bytes, ops.app_write_bytes());
        // Fates never predate births.
        for r in &log.records {
            assert!(r.fate_time >= r.birth);
        }
    }
}
