//! Cross-validation of the two independent §2 implementations.
//!
//! The finite-cache simulator ([`ClusterSim`]) and the infinite-cache
//! lifetime pass ([`LifetimeLog`]) were written separately, but with an
//! NVRAM large enough that replacement never fires, they model the same
//! system and must agree exactly:
//!
//! * server-bound bytes (callbacks + migration + concurrent) match,
//! * absorbed bytes (overwritten + deleted) match,
//! * remaining dirty bytes match.
//!
//! The random-stream half was formerly proptest-based; it is now driven by
//! a seeded [`nvfs_rng::StdRng`] so the suite builds offline.

use nvfs_core::{ByteFate, ClusterSim, LifetimeLog, SimConfig};
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_trace::event::OpenMode;
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
use nvfs_types::{ByteRange, ClientId, FileId, ProcessId, SimTime, BLOCK_SIZE};

/// Enough NVRAM that nothing is ever replaced.
const HUGE: u64 = 1 << 30;

fn agree(ops: &OpStream) -> Result<(), String> {
    let stats = ClusterSim::new(SimConfig::unified(64 * BLOCK_SIZE, HUGE))
        .session(ops)
        .run()
        .stats;
    let log = LifetimeLog::analyze(ops);
    let fates = log.bytes_by_fate();
    let get = |f: ByteFate| fates.get(&f).copied().unwrap_or(0);

    let sim_server = stats.server_write_bytes;
    let log_server = get(ByteFate::CalledBack) + get(ByteFate::Migrated);
    if sim_server != log_server {
        return Err(format!(
            "server bytes: sim {sim_server} vs lifetime {log_server}"
        ));
    }
    if stats.concurrent_write_bytes != get(ByteFate::Concurrent) {
        return Err(format!(
            "concurrent: sim {} vs lifetime {}",
            stats.concurrent_write_bytes,
            get(ByteFate::Concurrent)
        ));
    }
    let sim_absorbed = stats.overwritten_dead_bytes + stats.deleted_dead_bytes;
    let log_absorbed = get(ByteFate::Overwritten) + get(ByteFate::Deleted);
    if sim_absorbed != log_absorbed {
        return Err(format!(
            "absorbed: sim {sim_absorbed} vs lifetime {log_absorbed}"
        ));
    }
    if stats.remaining_dirty_bytes != get(ByteFate::Remaining) {
        return Err(format!(
            "remaining: sim {} vs lifetime {}",
            stats.remaining_dirty_bytes,
            get(ByteFate::Remaining)
        ));
    }
    Ok(())
}

#[test]
fn implementations_agree_on_synthetic_traces() {
    let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    for trace in set.traces() {
        agree(trace.ops()).unwrap_or_else(|e| panic!("trace {}: {e}", trace.number()));
    }
}

const FILES: u32 = 5;
const CLIENTS: u32 = 3;
const MAX_LEN: u64 = 5 * BLOCK_SIZE;

#[derive(Debug, Clone)]
enum Action {
    Open(u32, u32, bool),
    Close(u32, u32),
    Write(u32, u32, u64, u64),
    Truncate(u32, u32, u64),
    Delete(u32, u32),
    Fsync(u32, u32),
    Migrate(u32, u32),
}

fn rand_action(rng: &mut StdRng) -> Action {
    let c = rng.gen_range(0..CLIENTS);
    let f = rng.gen_range(0..FILES);
    match rng.gen_range(0..7u32) {
        0 => Action::Open(c, f, rng.gen_bool(0.5)),
        1 => Action::Close(c, f),
        2 => Action::Write(c, f, rng.gen_range(0..MAX_LEN), rng.gen_range(1..MAX_LEN)),
        3 => Action::Truncate(c, f, rng.gen_range(0..MAX_LEN)),
        4 => Action::Delete(c, f),
        5 => Action::Fsync(c, f),
        _ => Action::Migrate(c, f),
    }
}

#[test]
fn implementations_agree_on_random_streams() {
    let mut rng = StdRng::seed_from_u64(0xC805_0001);
    for _case in 0..128 {
        let n = rng.gen_range(1..100usize);
        let actions: Vec<Action> = (0..n).map(|_| rand_action(&mut rng)).collect();
        let ops: OpStream = actions
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let time = SimTime::from_secs(i as u64 * 3);
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
            .collect();
        if let Err(e) = agree(&ops) {
            panic!("case with {} actions: {e}\n{actions:?}", actions.len());
        }
    }
}
