//! Session-builder equivalence tests: each `ClusterSim` preset and each
//! builder chain must be byte-identical to a hand-assembled canonical
//! `SimSession` hook stack, the golden fault matrix must reproduce
//! in-process, and compositions no preset offers must hold the
//! byte-conservation invariants.

use nvfs::core::{
    ClusterSim, CorruptionInjector, FaultInjector, FlushEvent, NetFaultInjector, ObsRecorder,
    OracleJudge, RunHook, RunReport, SimConfig, SimEngine, SimSession, WarmupReset,
    WriteLogCapture,
};
use nvfs::experiments as exp;
use nvfs::experiments::env::Env;
use nvfs::faults::corrupt::{CorruptionPlanConfig, CorruptionSchedule};
use nvfs::faults::net::{NetFaultPlan, NetFaultPlanConfig};
use nvfs::faults::{FaultPlanConfig, FaultSchedule};
use nvfs::nvram::protect::ProtectionMode;
use nvfs::types::{ClientId, FileId, SimDuration, SimTime};

fn crash_plan(env: &Env, trace: usize, crashes: u32) -> (FaultPlanConfig, &nvfs::trace::OpStream) {
    let t = env.traces.trace(trace);
    let plan = FaultPlanConfig::new(t.clients() as u32, t.duration())
        .with_client_crashes(crashes.min(t.clients() as u32))
        .with_torn_probability(0.5);
    (plan, t.ops())
}

/// Compares every section of two reports, field by field so a failure
/// names the section that drifted.
fn assert_same(label: &str, built: &RunReport, manual: &RunReport) {
    assert_eq!(built.stats, manual.stats, "{label}: stats");
    assert_eq!(
        built.reliability, manual.reliability,
        "{label}: reliability"
    );
    assert_eq!(built.writes, manual.writes, "{label}: write log");
    assert_eq!(
        built.oracle.summary(),
        manual.oracle.summary(),
        "{label}: oracle summary"
    );
    assert_eq!(built.oracle, manual.oracle, "{label}: oracle reports");
    assert_eq!(built.net, manual.net, "{label}: net report");
    assert_eq!(built.scrub, manual.scrub, "{label}: scrub report");
}

/// The presets and builder chains against the hand-assembled canonical
/// stacks they stand for: identical stats, reliability accounting, write
/// logs, oracle summaries, net reports and scrub reports for every seed.
/// The hand-built stacks are the reference; each lists its hooks in the
/// canonical order `[warm, net, faults, corrupt, obs, judge, log]`.
#[test]
fn wrappers_match_manual_canonical_stacks() {
    let env = Env::tiny();
    let config = SimConfig::unified(8 << 20, 16384);
    let sim = ClusterSim::new(config.clone());
    let session = SimSession::new(&config);
    for seed in [3u64, 11, 42] {
        let (plan, ops) = crash_plan(&env, 3, 4);
        let t = env.traces.trace(3);
        let schedule = FaultSchedule::compile(seed, &plan).unwrap();
        let net = NetFaultPlan::compile(
            seed,
            &NetFaultPlanConfig::new(t.clients() as u32, t.duration())
                .with_client_partitions(t.clients() as u32)
                .with_server_partitions(1)
                .with_partition_duration(SimDuration::from_secs(300))
                .with_drop_probability(0.2)
                .with_duplicate_probability(0.2),
        )
        .unwrap();
        let corruption = CorruptionSchedule::compile(
            seed,
            &CorruptionPlanConfig::new(t.clients() as u32, t.duration())
                .with_stray_writes(6)
                .with_bit_flips(4)
                .with_decay_events(2),
        )
        .unwrap();
        let (mode, interval) = (ProtectionMode::Verified, Some(SimDuration::from_secs(60)));
        // The novel stack drains each board at its crash instant and cuts
        // the warm-up at the op where the first crash fires, so the reset
        // and the drain share one `before_op` round and their order shows
        // in the stats.
        let instant =
            FaultSchedule::compile(seed, &plan.clone().with_relocation_delay(SimDuration::ZERO))
                .unwrap();
        let first_crash = instant.client_crashes.iter().map(|c| c.time).min().unwrap();
        let cut = ops.iter().position(|op| op.time >= first_crash).unwrap();
        let warmup = (cut as f64 + 0.5) / ops.len() as f64;

        // `run`: the plain replay.
        let mut obs = ObsRecorder::new();
        let manual = session.run(ops, &mut [&mut obs]);
        assert_eq!(sim.run(ops), manual.stats, "run, seed {seed}");
        assert_same(
            &format!("session, seed {seed}"),
            &sim.session(ops).run(),
            &manual,
        );

        // `run_with_faults`: crash faults with the write log.
        let (mut faults, mut obs, mut log) = (
            FaultInjector::new(&schedule),
            ObsRecorder::new(),
            WriteLogCapture::new(),
        );
        let out = session.run(ops, &mut [&mut faults, &mut obs, &mut log]);
        let manual = RunReport {
            writes: log.take(),
            ..out
        };
        assert_same(
            &format!("run_with_faults, seed {seed}"),
            &sim.run_with_faults(ops, &schedule),
            &manual,
        );

        // `run_with_faults_verified`: crash faults, judged, with the log.
        let (mut faults, mut obs, mut judge, mut log) = (
            FaultInjector::new(&schedule),
            ObsRecorder::new(),
            OracleJudge::new(),
            WriteLogCapture::new(),
        );
        let out = session.run(ops, &mut [&mut faults, &mut obs, &mut judge, &mut log]);
        let manual = RunReport {
            writes: log.take(),
            oracle: judge.into_oracle(),
            ..out
        };
        assert!(manual.oracle.summary().crash_points > 0);
        let (report, oracle) = sim.run_with_faults_verified(ops, &schedule);
        assert_same(
            &format!("run_with_faults_verified, seed {seed}"),
            &RunReport { oracle, ..report },
            &manual,
        );

        // `run_with_net_faults_verified`: net and crash faults, judged.
        let (mut netinj, mut faults, mut obs, mut judge, mut log) = (
            NetFaultInjector::new(&net),
            FaultInjector::new(&schedule),
            ObsRecorder::new(),
            OracleJudge::new(),
            WriteLogCapture::new(),
        );
        let out = session.run(
            ops,
            &mut [&mut netinj, &mut faults, &mut obs, &mut judge, &mut log],
        );
        let manual = RunReport {
            writes: log.take(),
            net: netinj.into_report(),
            oracle: judge.into_oracle(),
            ..out
        };
        assert!(manual.net.stats.requests > 0);
        let (report, oracle) = sim.run_with_net_faults_verified(ops, &net, &schedule);
        assert_same(
            &format!("run_with_net_faults_verified, seed {seed}"),
            &RunReport { oracle, ..report },
            &manual,
        );

        // `run_with_corruption_verified`: crash faults and corruption,
        // judged, with the log.
        let (mut faults, mut corrupt, mut obs, mut judge, mut log) = (
            FaultInjector::new(&schedule),
            CorruptionInjector::new(&corruption, mode, interval),
            ObsRecorder::new(),
            OracleJudge::new(),
            WriteLogCapture::new(),
        );
        let out = session.run(
            ops,
            &mut [&mut faults, &mut corrupt, &mut obs, &mut judge, &mut log],
        );
        let manual = RunReport {
            writes: log.take(),
            oracle: judge.into_oracle(),
            scrub: corrupt.into_report(),
            ..out
        };
        assert!(manual.scrub.events > 0);
        let (report, oracle, scrub) =
            sim.run_with_corruption_verified(ops, &schedule, &corruption, mode, interval);
        assert_same(
            &format!("run_with_corruption_verified, seed {seed}"),
            &RunReport {
                oracle,
                scrub,
                ..report
            },
            &manual,
        );

        // The warm-up chain (formerly `run_with_warmup`).
        let (mut warm, mut obs) = (WarmupReset::fraction(ops.len(), warmup), ObsRecorder::new());
        let manual = session.run(ops, &mut [&mut warm, &mut obs]);
        assert_same(
            &format!("warmup, seed {seed}"),
            &sim.session(ops).warmup(warmup).run(),
            &manual,
        );

        // The write-log chain (formerly `run_detailed`).
        let (mut obs, mut log) = (ObsRecorder::new(), WriteLogCapture::new());
        let out = session.run(ops, &mut [&mut obs, &mut log]);
        let manual = RunReport {
            writes: log.take(),
            ..out
        };
        assert_same(
            &format!("writes, seed {seed}"),
            &sim.session(ops).writes().run(),
            &manual,
        );

        // The net chain (formerly `run_with_net_faults`).
        let (mut netinj, mut obs, mut log) = (
            NetFaultInjector::new(&net),
            ObsRecorder::new(),
            WriteLogCapture::new(),
        );
        let out = session.run(ops, &mut [&mut netinj, &mut obs, &mut log]);
        let manual = RunReport {
            writes: log.take(),
            net: netinj.into_report(),
            ..out
        };
        assert_same(
            &format!("net, seed {seed}"),
            &sim.session(ops).net(&net).writes().run(),
            &manual,
        );

        // A stack no preset expresses: warm-up, net and crash faults and
        // corruption, judged.
        let (mut warm, mut netinj, mut faults, mut corrupt, mut obs, mut judge) = (
            WarmupReset::fraction(ops.len(), warmup),
            NetFaultInjector::new(&net),
            FaultInjector::new(&instant),
            CorruptionInjector::new(&corruption, mode, interval),
            ObsRecorder::new(),
            OracleJudge::new(),
        );
        let out = session.run(
            ops,
            &mut [
                &mut warm,
                &mut netinj,
                &mut faults,
                &mut corrupt,
                &mut obs,
                &mut judge,
            ],
        );
        let manual = RunReport {
            net: netinj.into_report(),
            oracle: judge.into_oracle(),
            scrub: corrupt.into_report(),
            ..out
        };
        assert!(manual.oracle.summary().crash_points > 0);
        assert!(manual.scrub.events > 0);
        let built = sim
            .session(ops)
            .warmup(warmup)
            .net(&net)
            .faults(&instant)
            .corruption(&corruption, mode, interval)
            .judged()
            .run();
        assert_same(&format!("novel stack, seed {seed}"), &built, &manual);
    }
}

/// The committed golden fault matrix (`tests/golden/faults_tiny.txt`,
/// diffed against the CLI by CI) reproduces in-process through the hook
/// engine: the refactor changed no output byte.
#[test]
fn faults_golden_matrix_reproduces_in_process() {
    let env = Env::tiny();
    let seed = exp::faults::DEFAULT_SEED;
    let mut matrix = String::new();
    for model in ["volatile", "write-aside", "hybrid", "unified"] {
        let kind = exp::faults::parse_model(model).unwrap();
        let rows = exp::faults::client_reliability(&env, seed, &[kind], false).unwrap();
        matrix.push_str(&exp::faults::client_table(seed, &rows).render());
        matrix.push('\n');
    }
    matrix.push_str(&exp::faults::run(&env, seed, false).unwrap().render());
    matrix.push('\n');
    assert_eq!(matrix, include_str!("golden/faults_tiny.txt"));
}

/// Warm-up stacked under fault injection: the post-reset reliability
/// accounting must still conserve every byte at risk.
#[test]
fn novel_warmup_plus_faults_stack_conserves_bytes() {
    let env = Env::tiny();
    let (plan, ops) = crash_plan(&env, 3, 4);
    let schedule = FaultSchedule::compile(7, &plan).unwrap();
    let report = ClusterSim::new(SimConfig::unified(8 << 20, 16384))
        .session(ops)
        .warmup(0.25)
        .faults(&schedule)
        .writes()
        .run();
    let r = report.reliability;
    assert!(r.client_crashes > 0, "schedule must fire inside the trace");
    assert_eq!(
        r.bytes_at_risk,
        r.bytes_in_nvram + r.bytes_lost_window,
        "at-risk bytes split into NVRAM-captured + window-lost"
    );
    assert_eq!(
        r.bytes_in_nvram,
        r.bytes_recovered + r.bytes_lost_torn + r.bytes_lost_battery,
        "NVRAM bytes split into recovered + torn + battery-lost"
    );
    assert!(!report.writes.is_empty());
}

/// Warm-up, faults and the oracle in one run: the oracle must judge every
/// post-warm-up recovery clean.
#[test]
fn warmup_faults_oracle_composition_is_clean() {
    let env = Env::tiny();
    let (plan, ops) = crash_plan(&env, 3, 3);
    let schedule = FaultSchedule::compile(19, &plan).unwrap();
    let report = ClusterSim::new(SimConfig::unified(8 << 20, 16384))
        .session(ops)
        .warmup(0.3)
        .faults(&schedule)
        .judged()
        .run();
    assert!(report.reliability.client_crashes > 0);
    let summary = report.oracle.summary();
    assert_eq!(summary.violations(), 0, "{:?}", report.oracle.reports());
    assert_eq!(summary.bytes_observed, report.reliability.bytes_recovered);
}

/// A from-scratch hook (not shipped in the crate) sees the full typed
/// flush stream, and sees it identically on every run — the determinism
/// contract extends to third-party hooks.
#[test]
fn custom_flush_tally_hook_is_deterministic() {
    #[derive(Default)]
    struct FlushTally {
        events: Vec<(SimTime, ClientId, FileId, String)>,
    }
    impl RunHook for FlushTally {
        fn on_flush(&mut self, _engine: &mut SimEngine<'_>, event: &FlushEvent) {
            self.events.push((
                event.at,
                event.client,
                event.file,
                format!("{:?}", event.cause),
            ));
        }
    }

    let env = Env::tiny();
    let config = SimConfig::unified(2 << 20, 1 << 20);
    let ops = env.trace7().ops();
    let run = || {
        let mut tally = FlushTally::default();
        let mut obs = ObsRecorder::new();
        let out = SimSession::new(&config).run(ops, &mut [&mut obs, &mut tally]);
        (out.stats, tally.events)
    };
    let (stats, first) = run();
    let (_, second) = run();
    assert_eq!(first, second, "flush stream must be deterministic");
    assert!(!first.is_empty());
    if stats.writeback_bytes > 0 {
        assert!(first.iter().any(|(_, _, _, cause)| cause == "WriteBack"));
    }
}
