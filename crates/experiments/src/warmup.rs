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

/// Output of the warm-up comparison.
#[derive(Debug, Clone)]
pub struct Warmup {
    /// The rendered comparison.
    pub table: Table,
    /// Steady-state stats from cold caches.
    pub cold: TrafficStats,
    /// Steady-state stats from warmed caches.
    pub warm: TrafficStats,
}

impl Warmup {
    /// Additional absorbed bytes the warm run sees (the cold-start bias).
    pub fn absorption_bias_bytes(&self) -> u64 {
        self.warm
            .absorbed_bytes()
            .saturating_sub(self.cold.absorbed_bytes())
    }

    /// Read-hit-ratio gain from warm caches, in points.
    ///
    /// (Net-traffic percentages are *not* compared: dirty blocks inherited
    /// from the warm-up window are flushed during the measured suffix and
    /// would be charged against it without a matching write in the
    /// denominator.)
    pub fn hit_ratio_gain(&self) -> f64 {
        self.warm.read_hit_ratio() - self.cold.read_hit_ratio()
    }
}

/// Runs the comparison on Trace 7 with the unified model (8 MB + 1 MB),
/// warming with the first 30% of the trace.
pub fn run(env: &Env) -> Warmup {
    let ops = env.trace7().ops();
    let sim = ClusterSim::new(SimConfig::unified(8 << 20, 1 << 20));
    let warm = sim.session(ops).warmup(0.3).run().stats;
    // The same rounding rule the warm-up reset uses, so the cold suffix is
    // exactly the ops the warm run measures.
    let cut = warmup_cut(ops.len(), 0.3);
    let suffix: OpStream = ops.as_slice()[cut..].iter().cloned().collect();
    let cold = sim.session(&suffix).run().stats;

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
    Warmup { table, cold, warm }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_understates_absorption() {
        let out = run(&Env::tiny());
        // The paper's predicted direction: warm caches absorb at least as
        // much (overwrites of warm-up-era data are classified correctly)
        // and hit at least as often.
        assert!(out.warm.absorbed_bytes() >= out.cold.absorbed_bytes());
        assert!(
            out.hit_ratio_gain() >= 0.0,
            "gain {:.4}",
            out.hit_ratio_gain()
        );
        // Identical inputs on both sides.
        assert_eq!(out.warm.app_write_bytes, out.cold.app_write_bytes);
    }
}
