//! Network chaos: randomized `(seed, NetFaultPlan)` schedules — partitions,
//! drops, duplicates, delay spreads, composed with client crashes — must
//! never lose an acknowledged byte, never double-apply a request, and
//! never fail the durability oracle. Every assertion prints the failing
//! seed so a red run reproduces with one `NetFaultPlan::compile` call.

use nvfs::core::{CacheModelKind, ClusterSim, SimConfig};
use nvfs::faults::net::{NetFaultPlan, NetFaultPlanConfig};
use nvfs::faults::{FaultPlanConfig, FaultSchedule};
use nvfs::rng::{Rng, SeedableRng, StdRng};
use nvfs::trace::synth::{SpriteTraceSet, TraceSetConfig};
use nvfs::types::SimDuration;

const MODELS: [CacheModelKind; 4] = [
    CacheModelKind::Volatile,
    CacheModelKind::WriteAside,
    CacheModelKind::Hybrid,
    CacheModelKind::Unified,
];

fn model_config(model: CacheModelKind) -> SimConfig {
    let base = 2 << 20;
    let nvram = match model {
        CacheModelKind::Unified => base,
        _ => 64 << 10,
    };
    SimConfig::for_model(model, base, nvram)
}

/// A random-but-valid network plan: every knob drawn from its legal range,
/// so the sweep explores the cross-product rather than one corner.
fn random_net_plan(rng: &mut StdRng, clients: u32, duration: SimDuration) -> NetFaultPlanConfig {
    let delay_min = SimDuration::from_micros(rng.gen_range(100..=2_000));
    let delay_max = delay_min + SimDuration::from_micros(rng.gen_range(1_000..=50_000));
    NetFaultPlanConfig::new(clients, duration)
        .with_client_partitions(rng.gen_range(0..=clients))
        .with_server_partitions(rng.gen_range(0..=2))
        .with_partition_duration(SimDuration::from_secs(rng.gen_range(30..=900)))
        .with_drop_probability(rng.gen_range(0.0..=0.4))
        .with_duplicate_probability(rng.gen_range(0.0..=0.4))
        .with_delay_range(delay_min, delay_max)
}

fn random_crash_plan(rng: &mut StdRng, clients: u32, duration: SimDuration) -> FaultPlanConfig {
    FaultPlanConfig::new(clients, duration)
        .with_client_crashes(rng.gen_range(1..=clients))
        .with_batteries(rng.gen_range(1..=3))
        .with_battery_mtbf(SimDuration::from_micros(
            duration.as_micros().saturating_mul(rng.gen_range(2..=6)),
        ))
        .with_torn_probability(rng.gen_range(0.0..=0.8))
}

/// 64 random schedules (16 seeds × 4 cache models), each composing a
/// random network plan with a random crash plan: the wire judge and the
/// durability oracle must both stay silent on every one.
#[test]
fn random_net_schedules_never_violate_the_contracts() {
    let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let trace = traces.trace(0);
    let clients = trace.clients() as u32;
    let duration = trace.duration();
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x6e65_745f_6368_616f ^ seed);
        let net_cfg = random_net_plan(&mut rng, clients, duration);
        let crash_cfg = random_crash_plan(&mut rng, clients, duration);
        let net = NetFaultPlan::compile(seed, &net_cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: bad net plan: {e}"));
        let schedule = FaultSchedule::compile(seed, &crash_cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: bad crash plan: {e}"));
        for model in MODELS {
            let report = ClusterSim::new(model_config(model))
                .session(trace.ops())
                .net(&net)
                .faults(&schedule)
                .judged()
                .run();
            let summary = report.oracle.summary();
            assert_eq!(
                report.net.summary.violations(),
                0,
                "seed {seed} model {model:?}: wire violations {:?}",
                report.net.verdicts
            );
            assert_eq!(
                summary.lost_durable,
                0,
                "seed {seed} model {model:?}: durable bytes lost\n{}",
                summary.verdict_json(seed)
            );
            assert_eq!(
                summary.double_replay,
                0,
                "seed {seed} model {model:?}: bytes replayed twice\n{}",
                summary.verdict_json(seed)
            );
            // The wire really was exercised: every run issues RPCs, and
            // every delivery is either a request's one application or a
            // counted wire duplicate.
            assert!(
                report.net.stats.requests > 0,
                "seed {seed} model {model:?}: no RPCs issued"
            );
            assert_eq!(
                report.net.summary.applied + report.net.stats.dup_suppressed,
                report.net.summary.deliveries,
                "seed {seed} model {model:?}: deliveries neither applied nor counted as duplicates"
            );
        }
    }
}

/// 16 random schedules through the WAL-mode pipeline: a random network
/// plan shapes which writes reach the server, a random WAL crash plan
/// crashes the log at random points, and both judges — the wire judge and
/// the WAL durability oracle — must stay silent on every seed.
#[test]
fn random_wal_schedules_never_violate_the_contracts() {
    use nvfs::experiments::verify_crash::judge_wal_report;
    use nvfs::lfs::wal_fs::{run_filesystem_wal_faulted, WalConfig};
    use nvfs::server::e2e::server_workload_from_writes;
    use nvfs::types::{ClientId, SimTime};

    let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let trace = traces.trace(0);
    let clients = trace.clients() as u32;
    let duration = trace.duration();
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x77616c_5f636861 ^ seed);
        let net_cfg = random_net_plan(&mut rng, clients, duration);
        let wal_cfg =
            FaultPlanConfig::new(clients, duration).with_wal_crashes(rng.gen_range(1..=4));
        let net = NetFaultPlan::compile(seed, &net_cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: bad net plan: {e}"));
        let schedule = FaultSchedule::compile(seed, &wal_cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: bad WAL crash plan: {e}"));
        let report = ClusterSim::new(model_config(CacheModelKind::Volatile))
            .session(trace.ops())
            .net(&net)
            .writes()
            .run();
        assert_eq!(
            report.net.summary.violations(),
            0,
            "seed {seed}: wire violations {:?}",
            report.net.verdicts
        );
        let workload = server_workload_from_writes(&report.writes);
        let (server, _) =
            run_filesystem_wal_faulted(&workload, &WalConfig::sprite(), &schedule.wal_crashes);
        let finish_at = SimTime::from_micros(duration.as_micros() * 2);
        let summary = judge_wal_report(ClientId(seed as u32), &server, finish_at);
        assert_eq!(
            summary.violations(),
            0,
            "seed {seed}: WAL oracle violations\n{}",
            summary.verdict_json(seed)
        );
    }
}

/// The same `(seed, plan)` pair replays byte-identically: the chaos sweep
/// is a pure function of its seeds.
#[test]
fn chaos_runs_are_reproducible() {
    let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let trace = traces.trace(1);
    let clients = trace.clients() as u32;
    let mut rng = StdRng::seed_from_u64(77);
    let net_cfg = random_net_plan(&mut rng, clients, trace.duration());
    let net = NetFaultPlan::compile(5, &net_cfg).unwrap();
    let sim = ClusterSim::new(model_config(CacheModelKind::WriteAside));
    let a = sim.session(trace.ops()).net(&net).writes().run();
    let b = sim.session(trace.ops()).net(&net).writes().run();
    assert_eq!(a, b);
}

/// A net-faulted run's report — stats, write log, wire counters, judge
/// summary — must be identical whether the surrounding sweep runs on one
/// worker thread or several. (The only test in this binary that touches
/// the global job count.)
#[test]
fn net_faulted_run_is_jobs_invariant() {
    let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let t = traces.trace(3);
    let cfg = NetFaultPlanConfig::new(t.clients() as u32, t.duration())
        .with_client_partitions(t.clients() as u32)
        .with_server_partitions(1)
        .with_partition_duration(SimDuration::from_secs(300))
        .with_drop_probability(0.2)
        .with_duplicate_probability(0.2);
    let net = NetFaultPlan::compile(13, &cfg).unwrap();
    for model in MODELS {
        let sim = ClusterSim::new(model_config(model));
        nvfs::par::set_jobs(1);
        let one = sim.session(t.ops()).net(&net).writes().run();
        nvfs::par::set_jobs(8);
        let eight = sim.session(t.ops()).net(&net).writes().run();
        nvfs::par::set_jobs(1);
        assert_eq!(
            one, eight,
            "{model:?}: net report must not depend on --jobs"
        );
        assert_eq!(one.net.summary.violations(), 0, "{model:?}");
    }
}
