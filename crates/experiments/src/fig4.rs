//! Figure 4 — replacement policies (LRU, random, omniscient) on Trace 7.

use nvfs_core::{ClusterSim, PolicyKind, SimConfig};
use nvfs_report::{Figure, Series};

use crate::env::Env;
use crate::fig3::NVRAM_MB;
use crate::VOLATILE_BYTES;

/// Output of the Figure 4 reproduction.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Series `lru`, `random`, `omniscient`: x = NVRAM MB, y = traffic %.
    pub figure: Figure,
}

impl Fig4 {
    /// Traffic of `policy` at `mb` megabytes of NVRAM.
    pub fn traffic(&self, policy: &str, mb: f64) -> Option<f64> {
        self.figure.series(policy)?.y_at(mb)
    }
}

/// Runs the policy comparison on Trace 7.
pub fn run(env: &Env) -> Fig4 {
    let trace = env.trace7();
    let mut figure = Figure::new(
        "Figure 4: Replacement policies (Trace 7)",
        "Megabytes NVRAM",
        "Net write traffic (%)",
    );
    const POLICIES: [(&str, PolicyKind); 3] = [
        ("lru", PolicyKind::Lru),
        ("random", PolicyKind::Random { seed: 1992 }),
        ("omniscient", PolicyKind::Omniscient),
    ];
    // Flatten the (policy × size) grid into one task list; results rejoin
    // in grid order, so the figure matches the sequential build exactly.
    let tasks: Vec<(PolicyKind, f64)> = POLICIES
        .iter()
        .flat_map(|&(_, policy)| NVRAM_MB.iter().map(move |&mb| (policy, mb)))
        .collect();
    let cells = nvfs_par::par_map(tasks, nvfs_par::jobs(), |(policy, mb)| {
        let nv = (mb * (1 << 20) as f64) as u64;
        let cfg = SimConfig::unified(VOLATILE_BYTES, nv).with_policy(policy);
        let stats = ClusterSim::new(cfg).session(trace.ops()).run().stats;
        (mb, stats.net_write_traffic_pct())
    });
    for ((name, _), points) in POLICIES.iter().zip(cells.chunks(NVRAM_MB.len())) {
        figure.push(Series::new(name, points.to_vec()));
    }
    Fig4 { figure }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omniscient_is_best_and_random_is_competitive() {
        let out = run(&Env::tiny());
        let at = |p: &str, mb: f64| out.traffic(p, mb).unwrap();
        for &mb in &[0.5, 1.0, 4.0] {
            assert!(
                at("omniscient", mb) <= at("lru", mb) * 1.05,
                "omniscient worse than LRU at {mb} MB"
            );
            // The paper's surprise: random behaves almost as well as LRU —
            // within the 22% worst-case gap it reports across all traces.
            assert!(
                at("random", mb) <= at("lru", mb) * 1.3 + 5.0,
                "random catastrophically worse at {mb} MB: {} vs {}",
                at("random", mb),
                at("lru", mb)
            );
        }
    }

    #[test]
    fn three_policies_present() {
        let out = run(&Env::tiny());
        assert_eq!(out.figure.all_series().len(), 3);
    }
}
