//! Hook-engine equivalence tests: the `ClusterSim::run_*` wrappers must be
//! byte-identical to manually assembled canonical `SimSession` hook stacks,
//! the pre-refactor golden fault matrix must reproduce in-process, and
//! novel stacks (warmup + faults, warmup + faults + oracle) — impossible
//! before the hook engine — must hold the byte-conservation invariants.

use nvfs::core::{
    ClusterSim, FaultInjector, FlushEvent, ObsRecorder, OracleJudge, RunHook, SimConfig, SimEngine,
    SimSession, WarmupReset, WriteLogCapture,
};
use nvfs::experiments as exp;
use nvfs::experiments::env::Env;
use nvfs::faults::{FaultPlanConfig, FaultSchedule};
use nvfs::types::{ClientId, FileId, SimTime};

fn crash_plan(env: &Env, trace: usize, crashes: u32) -> (FaultPlanConfig, &nvfs::trace::OpStream) {
    let t = env.traces.trace(trace);
    let plan = FaultPlanConfig::new(t.clients() as u32, t.duration())
        .with_client_crashes(crashes.min(t.clients() as u32))
        .with_torn_probability(0.5);
    (plan, t.ops())
}

/// The thin wrappers and hand-assembled canonical stacks are the same
/// computation: identical stats, reliability accounting, write logs, and
/// oracle summaries for every seed.
#[test]
fn wrappers_match_manual_canonical_stacks() {
    let env = Env::tiny();
    let config = SimConfig::unified(8 << 20, 16384);
    for seed in [3u64, 11, 42] {
        let (plan, ops) = crash_plan(&env, 3, 4);
        let schedule = FaultSchedule::compile(seed, &plan).unwrap();
        let sim = ClusterSim::new(config.clone());

        let (stats, writes) = sim.run_detailed(ops);
        let (mut obs, mut log) = (ObsRecorder::new(), WriteLogCapture::new());
        let out = SimSession::new(&config).run(ops, &mut [&mut obs, &mut log]);
        assert_eq!(out.stats, stats, "run_detailed stats, seed {seed}");
        assert_eq!(log.take(), writes, "run_detailed writes, seed {seed}");

        let report = sim.run_with_faults(ops, &schedule);
        let (mut faults, mut obs, mut log) = (
            FaultInjector::new(&schedule),
            ObsRecorder::new(),
            WriteLogCapture::new(),
        );
        let out = SimSession::new(&config).run(ops, &mut [&mut faults, &mut obs, &mut log]);
        assert_eq!(
            out.stats, report.stats,
            "run_with_faults stats, seed {seed}"
        );
        assert_eq!(
            out.reliability, report.reliability,
            "run_with_faults reliability, seed {seed}"
        );
        assert_eq!(
            log.take(),
            report.writes,
            "run_with_faults writes, seed {seed}"
        );

        let (vreport, oracle) = sim.run_with_faults_verified(ops, &schedule);
        let (mut faults, mut obs, mut judge, mut log) = (
            FaultInjector::new(&schedule),
            ObsRecorder::new(),
            OracleJudge::new(),
            WriteLogCapture::new(),
        );
        let out =
            SimSession::new(&config).run(ops, &mut [&mut faults, &mut obs, &mut judge, &mut log]);
        assert_eq!(out.stats, vreport.stats, "verified stats, seed {seed}");
        assert_eq!(
            out.reliability, vreport.reliability,
            "verified reliability, seed {seed}"
        );
        assert_eq!(log.take(), vreport.writes, "verified writes, seed {seed}");
        let manual = judge.into_oracle();
        assert_eq!(
            format!("{:?}", manual.summary()),
            format!("{:?}", oracle.summary()),
            "oracle summary, seed {seed}"
        );
        assert_eq!(manual.reports().len(), oracle.reports().len());
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
        let rows = exp::faults::client_reliability(&env, seed, &[kind]).unwrap();
        matrix.push_str(&exp::faults::client_table(seed, &rows).render());
        matrix.push('\n');
    }
    matrix.push_str(&exp::faults::run(&env, seed).unwrap().render());
    matrix.push('\n');
    assert_eq!(matrix, include_str!("golden/faults_tiny.txt"));
}

/// A novel composition the pre-refactor engine could not express: warmup
/// reset stacked under fault injection. The post-reset reliability
/// accounting must still conserve every byte at risk.
#[test]
fn novel_warmup_plus_faults_stack_conserves_bytes() {
    let env = Env::tiny();
    let config = SimConfig::unified(8 << 20, 16384);
    let (plan, ops) = crash_plan(&env, 3, 4);
    let schedule = FaultSchedule::compile(7, &plan).unwrap();
    let mut warm = WarmupReset::fraction(ops.len(), 0.25);
    let mut faults = FaultInjector::new(&schedule);
    let (mut obs, mut log) = (ObsRecorder::new(), WriteLogCapture::new());
    let out = SimSession::new(&config).run(ops, &mut [&mut warm, &mut faults, &mut obs, &mut log]);
    let r = out.reliability;
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
    assert!(!log.take().is_empty());
}

/// The acceptance composition: warmup + faults + oracle in one stack. The
/// oracle must judge every post-warmup recovery clean.
#[test]
fn warmup_faults_oracle_composition_is_clean() {
    let env = Env::tiny();
    let config = SimConfig::unified(8 << 20, 16384);
    let (plan, ops) = crash_plan(&env, 3, 3);
    let schedule = FaultSchedule::compile(19, &plan).unwrap();
    let mut warm = WarmupReset::fraction(ops.len(), 0.3);
    let mut faults = FaultInjector::new(&schedule);
    let mut obs = ObsRecorder::new();
    let mut judge = OracleJudge::new();
    let out =
        SimSession::new(&config).run(ops, &mut [&mut warm, &mut faults, &mut obs, &mut judge]);
    assert!(out.reliability.client_crashes > 0);
    let oracle = judge.into_oracle();
    let summary = oracle.summary();
    assert_eq!(summary.violations(), 0, "{:?}", oracle.reports());
    assert_eq!(summary.bytes_observed, out.reliability.bytes_recovered);
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
