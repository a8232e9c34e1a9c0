//! Quantifying the paper's cold-start caveat.
//!
//! "In reality, more bytes will die in the cache than suggested by
//! Figure 2 … the simulation started with empty caches, thereby
//! misclassifying some writes as new data rather than overwrites." This
//! experiment replays the steady-state suffix of a trace twice — once from
//! empty caches (the paper's method) and once with caches warmed by the
//! prefix — and measures how much absorption the cold start under-reports.

use nvfs_core::{warmup_cut, ClusterSim, SimConfig, TrafficStats};
use nvfs_report::{Cell, Table};
use nvfs_trace::op::OpStream;

use crate::env::Env;
use crate::VOLATILE_BYTES;

/// Steady-state `(cold, warm)` stats on Trace 7 with the unified model
/// (8 MB + 1 MB), warming with the first 30% of the trace.
fn replay(env: &Env) -> (TrafficStats, TrafficStats) {
    let ops = env.trace7().ops();
    let sim = ClusterSim::new(SimConfig::unified(VOLATILE_BYTES, 1 << 20));
    let warm = sim.session(ops).warmup(0.3).run().stats;
    // The same rounding rule the warm-up reset uses, so the cold suffix is
    // exactly the ops the warm run measures.
    let cut = warmup_cut(ops.len(), 0.3);
    let suffix: OpStream = ops.as_slice()[cut..].iter().cloned().collect();
    let cold = sim.session(&suffix).run().stats;
    (cold, warm)
}

/// Renders the cold-vs-warm comparison.
pub(crate) fn run(env: &Env) -> Table {
    let (cold, warm) = replay(env);
    let mut table = Table::new(
        "Cold-start bias: the same steady-state suffix, empty vs warmed caches",
        &[
            "Caches",
            "Absorbed MB",
            "Net write traffic",
            "Read hit ratio",
        ],
    );
    for (name, s) in [
        ("empty (paper's method)", &cold),
        ("warmed by 30% prefix", &warm),
    ] {
        table.push_row(vec![
            Cell::from(name),
            Cell::f2(s.absorbed_bytes() as f64 / (1 << 20) as f64),
            Cell::Pct(s.net_write_traffic_pct()),
            Cell::Pct(100.0 * s.read_hit_ratio()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_understates_absorption() {
        let (cold, warm) = replay(&Env::tiny());
        // The paper's predicted direction: warm caches absorb at least as
        // much (overwrites of warm-up-era data are classified correctly)
        // and hit at least as often.
        assert!(warm.absorbed_bytes() >= cold.absorbed_bytes());
        // Net-traffic percentages are not compared: dirty blocks inherited
        // from the warm-up window are flushed during the measured suffix
        // and would be charged against it without a matching write in the
        // denominator.
        let (warm_hits, cold_hits) = (warm.read_hit_ratio(), cold.read_hit_ratio());
        assert!(
            warm_hits >= cold_hits,
            "warm {warm_hits:.4} cold {cold_hits:.4}"
        );
        // Identical inputs on both sides.
        assert_eq!(warm.app_write_bytes, cold.app_write_bytes);
    }
}
