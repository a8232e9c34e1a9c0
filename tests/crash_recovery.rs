//! §4 end-to-end: a client with NVRAM crashes mid-trace; the board is
//! moved to another workstation and every dirty byte is recovered — the
//! design requirement that makes client NVRAM "as permanent as data on
//! disk".

use nvfs::core::{ClusterSim, SimConfig};
use nvfs::experiments as exp;
use nvfs::experiments::env::Env;
use nvfs::nvram::{BatteryState, NvramBoard, RecoveredData};
use nvfs::trace::synth::{SpriteTraceSet, TraceSetConfig};
use nvfs::types::{ByteRange, ClientId, FileId, RangeSet};

/// Loads a board with dirty state equal to what a simulated client still
/// held at the end of a trace, then exercises the move-and-recover flow.
#[test]
fn simulated_remaining_data_survives_a_crash() {
    let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let stats = ClusterSim::new(SimConfig::unified(2 << 20, 512 << 10))
        .session(set.trace(6).ops())
        .run()
        .stats;
    assert!(
        stats.remaining_dirty_bytes > 0,
        "trace must leave dirty data"
    );

    // Model the client's NVRAM contents at crash time: its remaining dirty
    // bytes, laid out in board-sized runs.
    let mut board = NvramBoard::new(ClientId(0), 1 << 20);
    let mut loaded = 0;
    let mut file = 0u32;
    while loaded < stats.remaining_dirty_bytes {
        let run = (stats.remaining_dirty_bytes - loaded).min(64 << 10);
        board.store(FileId(file), ByteRange::new(0, run));
        loaded += run;
        file += 1;
    }
    assert_eq!(board.dirty_bytes(), stats.remaining_dirty_bytes);

    // Crash; move the board; recover on the new host.
    board.move_to(ClientId(9));
    let recovered: RecoveredData = board.drain();
    let total: u64 = recovered.values().map(RangeSet::len_bytes).sum();
    assert_eq!(total, stats.remaining_dirty_bytes, "no byte may be lost");
    assert_eq!(board.dirty_bytes(), 0);
}

#[test]
fn battery_redundancy_protects_until_the_last_cell() {
    let mut board = NvramBoard::new(ClientId(1), 1 << 20);
    board.store(FileId(0), ByteRange::new(0, 8192));
    // Two of three batteries fail: degraded but safe.
    assert_eq!(board.batteries_mut().fail_one(), BatteryState::Degraded);
    assert_eq!(board.batteries_mut().fail_one(), BatteryState::Degraded);
    assert_eq!(board.dirty_bytes(), 8192);
    // Servicing restores full redundancy without touching contents.
    board.batteries_mut().service();
    assert_eq!(board.batteries_mut().fail_one(), BatteryState::Degraded);
    let recovered = board.drain();
    assert_eq!(recovered[&FileId(0)].len_bytes(), 8192);
}

#[test]
fn dead_board_loses_data_but_fails_loudly() {
    let mut board = NvramBoard::new(ClientId(2), 1 << 20);
    board.store(FileId(0), ByteRange::new(0, 4096));
    for _ in 0..3 {
        board.batteries_mut().fail_one();
    }
    assert_eq!(board.batteries_mut().fail_one(), BatteryState::Dead);
    assert!(
        board.drain().is_empty(),
        "a dead board must not pretend to recover"
    );
}

/// Same `(seed, plan)` ⇒ byte-identical reliability accounting at any
/// `--jobs` count. The job count is process-global, so this is the only
/// jobs-toggling test in this binary (same rule as
/// `tests/par_determinism.rs`).
#[test]
fn fault_schedule_accounting_is_identical_at_any_job_count() {
    use nvfs::lfs::{run_server_wal, WalConfig};

    let env = Env::tiny();
    nvfs::par::set_jobs(1);
    let sequential = exp::faults::run(&env, 42).expect("valid fault plan");
    let wal_sequential = run_server_wal(&env.server, &WalConfig::sprite());
    nvfs::par::set_jobs(4);
    let parallel = exp::faults::run(&env, 42).expect("valid fault plan");
    let wal_parallel = run_server_wal(&env.server, &WalConfig::sprite());
    nvfs::par::set_jobs(1);

    assert_eq!(
        sequential.models, parallel.models,
        "per-model ReliabilityStats differ between jobs=1 and jobs=4"
    );
    assert_eq!(
        sequential.server_modes, parallel.server_modes,
        "server-side ReliabilityStats differ between jobs=1 and jobs=4"
    );
    assert_eq!(
        sequential.render(),
        parallel.render(),
        "rendered scorecard differs between jobs=1 and jobs=4"
    );
    assert!(sequential.loss_ordering_holds());
    assert_eq!(
        wal_sequential, wal_parallel,
        "WAL-mode reports differ between jobs=1 and jobs=4"
    );
}

/// Random WAL crash schedules: the log's commit protocol — ack on append,
/// drain lazily, truncate only after writeback — must recover every
/// acknowledged byte under every `(seed, crash plan)`, across all eight
/// server workloads and the shutdown truncation invariant. A red run
/// prints the failing seed.
#[test]
fn random_wal_crash_schedules_recover_every_acked_byte() {
    use nvfs::experiments::verify_crash::judge_wal_report;
    use nvfs::faults::{FaultPlanConfig, FaultSchedule};
    use nvfs::lfs::{run_server_wal_faulted, WalConfig};
    use nvfs::rng::{Rng, SeedableRng, StdRng};
    use nvfs::types::SimTime;

    let env = Env::tiny();
    let duration = env.trace_config.duration();
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x7761_6c63_7261_7368 ^ seed);
        let plan = FaultPlanConfig::new(1, duration).with_wal_crashes(rng.gen_range(1..=6));
        let schedule = FaultSchedule::compile(seed, &plan)
            .unwrap_or_else(|e| panic!("seed {seed}: bad WAL crash plan: {e}"));
        let (reports, _) =
            run_server_wal_faulted(&env.server, &WalConfig::sprite(), &schedule.wal_crashes);
        let finish_at = SimTime::from_micros(duration.as_micros() * 2);
        for (i, report) in reports.iter().enumerate() {
            let summary = judge_wal_report(ClientId(i as u32), report, finish_at);
            assert_eq!(
                summary.violations(),
                0,
                "seed {seed} workload {i}: WAL oracle violations\n{}",
                summary.verdict_json(seed)
            );
            assert!(summary.crash_points > 0, "seed {seed} workload {i}");
        }
    }
}

#[test]
fn recovery_is_idempotent() {
    let mut board = NvramBoard::new(ClientId(3), 1 << 20);
    board.store(FileId(7), ByteRange::new(0, 1024));
    let first = board.drain();
    assert_eq!(first.len(), 1);
    assert!(board.drain().is_empty(), "second drain finds nothing");
}
