//! The canonical hook order, observed in the event trace.
//!
//! `ObsRecorder` runs before `OracleJudge`, so when a relocated board
//! drains at the very instant its client crashed, the `recovery_drain`
//! event and the `oracle_verdict` it triggers share a timestamp and keep
//! that order. The trace is process-global, so this file holds one test.

use nvfs_core::{ClusterSim, SimConfig};
use nvfs_faults::{FaultPlanConfig, FaultSchedule};
use nvfs_obs::events::Val;
use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
use nvfs_types::SimDuration;

#[test]
fn recovery_drain_precedes_its_verdict_at_a_tie() {
    let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
    let ops = traces.trace(6).ops();
    // Zero relocation delay: every board drains at its crash time.
    let plan = FaultPlanConfig::new(8, SimDuration::from_hours(24))
        .with_client_crashes(2)
        .with_relocation_delay(SimDuration::ZERO);
    let schedule = FaultSchedule::compile(7, &plan).unwrap();
    let sim = ClusterSim::new(SimConfig::unified(1 << 20, 512 << 10));

    nvfs_obs::set_trace_enabled(true);
    let report = sim.session(ops).faults(&schedule).judged().run();
    let seen: Vec<(&str, u64, u64)> = nvfs_obs::events::sorted()
        .into_iter()
        .filter(|e| matches!(e.kind, "recovery_drain" | "oracle_verdict"))
        .map(|e| {
            let client = e.fields.iter().find_map(|(k, v)| match (k, v) {
                (&"client", Val::U64(c)) => Some(*c),
                _ => None,
            });
            (e.kind, e.t_us, client.expect("both kinds name the client"))
        })
        .collect();

    let judged = report.oracle.reports();
    assert!(!judged.is_empty(), "a crash is judged");
    let expected: Vec<(&str, u64, u64)> = judged
        .iter()
        .flat_map(|r| {
            let (t, client) = (r.at.as_micros(), u64::from(r.client.0));
            [("recovery_drain", t, client), ("oracle_verdict", t, client)]
        })
        .collect();
    assert_eq!(seen, expected);
}
