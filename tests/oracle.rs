//! Durability-oracle integration tests: the shadow model must catch
//! deliberately broken recoveries (the mutation tests), prove replay
//! idempotent, hold the torn-drain byte-accounting invariant for every
//! drain cap (the seeded property loop), and render the `verify-crash`
//! sweep byte-identically at any `--jobs` count.

use nvfs::core::{recover_up_to, ClusterSim, SimConfig};
use nvfs::experiments as exp;
use nvfs::experiments::env::Env;
use nvfs::faults::{CrashPointKind, FaultPlanConfig, FaultSchedule};
use nvfs::nvram::NvramBoard;
use nvfs::oracle::{
    torn_prefix, DrainExpectation, DurableMap, DurablePromise, Oracle, ServerState, Verdict,
};
use nvfs::rng::{Rng, SeedableRng, StdRng};
use nvfs::types::{ByteRange, ClientId, FileId, RangeSet, SimDuration, SimTime, BLOCK_SIZE};

fn promise_of(ranges: &[(u32, u64, u64)]) -> DurablePromise {
    let mut map = DurableMap::new();
    for &(file, start, end) in ranges {
        map.entry(FileId(file))
            .or_default()
            .insert(ByteRange::new(start, end));
    }
    DurablePromise::capture(
        ClientId(1),
        SimTime::from_secs(9),
        map.iter().map(|(f, s)| (*f, s)),
    )
}

/// A recovery that silently drops a promised file must be convicted as
/// `LostDurable` — the mutation the whole subsystem exists to catch.
#[test]
fn broken_recovery_is_caught_as_lost_durable() {
    let promise = promise_of(&[(1, 0, 8192), (2, 0, 4096)]);
    // "Recovery" returns file 1 but loses file 2 entirely.
    let mut observed = DurableMap::new();
    observed.insert(FileId(1), RangeSet::from_range(ByteRange::new(0, 8192)));
    let mut oracle = Oracle::new();
    let report = oracle.judge(&promise, DrainExpectation::full(), &observed);
    assert!(!report.is_clean());
    assert_eq!(report.verdicts.len(), 1);
    match &report.verdicts[0] {
        Verdict::LostDurable { file, range } => {
            assert_eq!(*file, FileId(2));
            assert_eq!(*range, ByteRange::new(0, 4096));
        }
        other => panic!("expected LostDurable, got {other:?}"),
    }
    assert_eq!(oracle.summary().lost_durable, 1);
}

/// A recovery that produces bytes never promised must be convicted as
/// `Resurrected`.
#[test]
fn fabricated_recovery_is_caught_as_resurrected() {
    let promise = promise_of(&[(1, 0, 4096)]);
    let mut observed = DurableMap::new();
    observed.insert(FileId(1), RangeSet::from_range(ByteRange::new(0, 4096)));
    observed.insert(FileId(7), RangeSet::from_range(ByteRange::new(0, 512)));
    let mut oracle = Oracle::new();
    let report = oracle.judge(&promise, DrainExpectation::full(), &observed);
    assert!(matches!(
        report.verdicts[0],
        Verdict::Resurrected {
            file: FileId(7),
            ..
        }
    ));
}

/// Replaying the same crash incident twice must be convicted as
/// `DoubleReplay`, while two *distinct* crashes of the same client are
/// legitimate.
#[test]
fn double_replay_is_caught_per_incident() {
    let mut observed = DurableMap::new();
    observed.insert(FileId(1), RangeSet::from_range(ByteRange::new(0, 4096)));
    let mut oracle = Oracle::new();
    let first = oracle.judge(
        &promise_of(&[(1, 0, 4096)]),
        DrainExpectation::full(),
        &observed,
    );
    assert!(first.is_clean());
    let second = oracle.judge(
        &promise_of(&[(1, 0, 4096)]),
        DrainExpectation::full(),
        &observed,
    );
    assert!(matches!(
        second.verdicts[0],
        Verdict::DoubleReplay {
            file: FileId(1),
            ..
        }
    ));
    // A different crash time = a different incident: no conviction.
    let mut map = DurableMap::new();
    map.insert(FileId(1), RangeSet::from_range(ByteRange::new(0, 4096)));
    let later = DurablePromise::capture(
        ClientId(1),
        SimTime::from_secs(20),
        map.iter().map(|(f, s)| (*f, s)),
    );
    let third = oracle.judge(&later, DrainExpectation::full(), &observed);
    assert!(third.is_clean(), "{:?}", third.verdicts);
}

/// Applying one recovery's output to the server twice adds no new bytes
/// the second time — replay is idempotent.
#[test]
fn server_replay_is_idempotent() {
    let mut observed = DurableMap::new();
    observed.insert(FileId(3), RangeSet::from_range(ByteRange::new(0, 12288)));
    observed.insert(FileId(4), RangeSet::from_range(ByteRange::new(4096, 8192)));
    let mut server = ServerState::new();
    let first = server.apply(&observed);
    assert_eq!(first, 12288 + 4096);
    let second = server.apply(&observed);
    assert_eq!(second, 0, "replay must not create new durable bytes");
    assert_eq!(server.durable_bytes(), 12288 + 4096);
}

/// Satellite: for *every* drain cap, `bytes + bytes_lost` equals the dirty
/// bytes before the drain, and the recovered prefix is exactly the
/// oracle's independent block-grid prediction. Seeded loop over random
/// board layouts and caps.
#[test]
fn torn_drain_accounting_holds_for_all_caps() {
    let mut rng = StdRng::seed_from_u64(0xD0C5);
    for round in 0..200u32 {
        let mut board = NvramBoard::new(ClientId(0), 1 << 20);
        let files = rng.gen_range(1..5u32);
        for f in 0..files {
            let runs = rng.gen_range(1..4u32);
            for _ in 0..runs {
                let start = rng.gen_range(0..64u64) * 512;
                let len = rng.gen_range(1..16u64) * 512;
                board.store(FileId(f), ByteRange::at(start, len));
            }
        }
        let dirty_before = board.dirty_bytes();
        let shadow: DurableMap = (0..files)
            .filter_map(|f| board.dirty_of(FileId(f)).map(|s| (FileId(f), s.clone())))
            .collect();
        let max_bytes = rng.gen_range(0..=dirty_before + BLOCK_SIZE);

        let outcome = recover_up_to(&mut board, SimTime::ZERO, max_bytes)
            .expect("healthy board must recover");
        assert_eq!(
            outcome.bytes + outcome.bytes_lost,
            dirty_before,
            "round {round}: cap {max_bytes} leaked bytes"
        );
        // The drain must match the oracle's independent reimplementation
        // of the block-grid prefix contract.
        let predicted = torn_prefix(&shadow, max_bytes);
        assert_eq!(outcome.recovered, predicted, "round {round}");
        let predicted_bytes: u64 = predicted.values().map(RangeSet::len_bytes).sum();
        assert_eq!(outcome.bytes, predicted_bytes, "round {round}");
    }
}

/// The drain order is deterministic: recovering the same board layout
/// twice under the same cap gives identical contents.
#[test]
fn torn_drain_is_deterministic() {
    let build = || {
        let mut b = NvramBoard::new(ClientId(2), 1 << 20);
        b.store(FileId(0), ByteRange::new(100, 9000));
        b.store(FileId(1), ByteRange::new(0, 5000));
        b.store(FileId(0), ByteRange::new(20000, 30000));
        b
    };
    let (mut a, mut b) = (build(), build());
    let cap = 6000;
    let oa = recover_up_to(&mut a, SimTime::ZERO, cap).unwrap();
    let ob = recover_up_to(&mut b, SimTime::ZERO, cap).unwrap();
    assert_eq!(oa.recovered, ob.recovered);
    assert_eq!(oa.bytes, ob.bytes);
    assert_eq!(oa.bytes_lost, ob.bytes_lost);
}

/// End-to-end: a verified fault run over a real trace judges every
/// recovery clean, for every crash-point pin.
#[test]
fn verified_trace_run_is_clean_at_every_crash_point() {
    let env = Env::tiny();
    let trace = env.traces.trace(3);
    let plan = FaultPlanConfig::new(trace.clients() as u32, trace.duration())
        .with_client_crashes((trace.clients() as u32).min(4))
        .with_torn_probability(0.5);
    let schedule = FaultSchedule::compile(11, &plan).unwrap();
    let sim = ClusterSim::new(SimConfig::unified(8 << 20, 16384));
    for kind in [
        CrashPointKind::FullDrain,
        CrashPointKind::TornDrainBlocks(1),
        CrashPointKind::DeadBoard,
        CrashPointKind::BatteryEdgeAlive,
        CrashPointKind::PreFlush,
        CrashPointKind::PostFlush,
    ] {
        let pinned = schedule.apply_crash_point(kind, SimDuration::from_secs(5));
        let report = sim.session(trace.ops()).faults(&pinned).judged().run();
        let s = report.oracle.summary();
        assert_eq!(s.violations(), 0, "{kind}: {:?}", report.oracle.reports());
        assert_eq!(
            s.bytes_observed, report.reliability.bytes_recovered,
            "{kind}"
        );
    }
}

/// The `verify-crash` sweep renders byte-identically at `--jobs 1` and
/// `--jobs 8` (the one jobs-toggling test in this binary: `set_jobs` is
/// process-global).
#[test]
fn verify_crash_sweep_is_jobs_invariant() {
    let env = Env::tiny();
    nvfs::par::set_jobs(1);
    let seq = exp::verify_crash::run(&env, 42).unwrap();
    nvfs::par::set_jobs(8);
    let par = exp::verify_crash::run(&env, 42).unwrap();
    assert_eq!(seq.render(), par.render());
    assert!(seq.is_clean(), "{}", seq.render());
    assert_eq!(seq.verdict_json(), par.verdict_json());
}
