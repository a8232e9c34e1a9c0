//! Figure 3 — net write traffic under the omniscient replacement policy as
//! a function of NVRAM size, for all eight traces.

use nvfs_core::{ClusterSim, PolicyKind, SimConfig};
use nvfs_report::{Figure, Series};

use crate::env::Env;
use crate::VOLATILE_BYTES;

/// NVRAM sizes swept, in megabytes (log-ish scale as in the paper).
pub(crate) const NVRAM_MB: [f64; 7] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Output of the Figure 3 reproduction.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// One series per trace: x = NVRAM MB, y = net write traffic %.
    pub figure: Figure,
}

impl Fig3 {
    /// Net write traffic of `trace` (1-based) at `mb` of NVRAM.
    pub fn traffic(&self, trace: usize, mb: f64) -> Option<f64> {
        self.figure.series(&format!("Trace {trace}"))?.y_at(mb)
    }
}

/// Runs the omniscient-policy sweep for every trace.
pub fn run(env: &Env) -> Fig3 {
    let mut figure = Figure::new(
        "Figure 3: Results of an omniscient replacement policy",
        "Megabytes NVRAM",
        "Net write traffic (%)",
    );
    // Flatten the (trace × size) grid into one task list so the sweep
    // load-balances across workers; results rejoin in grid order, so the
    // figure is byte-identical to the sequential build.
    let tasks: Vec<(&nvfs_trace::synth::Trace, f64)> = env
        .traces
        .traces()
        .iter()
        .flat_map(|trace| NVRAM_MB.iter().map(move |&mb| (trace, mb)))
        .collect();
    let cells = nvfs_par::par_map(tasks, nvfs_par::jobs(), |(trace, mb)| {
        let nv = (mb * (1 << 20) as f64) as u64;
        let cfg = SimConfig::unified(VOLATILE_BYTES, nv).with_policy(PolicyKind::Omniscient);
        let stats = ClusterSim::new(cfg).session(trace.ops()).run().stats;
        (mb, stats.net_write_traffic_pct())
    });
    for (trace, points) in env.traces.traces().iter().zip(cells.chunks(NVRAM_MB.len())) {
        figure.push(Series::new(
            &format!("Trace {}", trace.number()),
            points.to_vec(),
        ));
    }
    Fig3 { figure }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diminishing_returns() {
        let out = run(&Env::tiny());
        for s in out.figure.all_series() {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last <= first + 1e-9, "{}: {first} -> {last}", s.name);
            // "For most of the traces" (the paper excludes 3 and 4 too):
            // the first megabyte buys at least as much as everything after.
            if s.name != "Trace 3" && s.name != "Trace 4" {
                let mid = s.y_at(1.0).unwrap();
                assert!(first - mid >= mid - last - 1e-9, "{}", s.name);
            }
        }
    }

    #[test]
    fn small_nvram_already_cuts_traffic() {
        let out = run(&Env::tiny());
        let typical: Vec<&Series> = out
            .figure
            .all_series()
            .iter()
            .filter(|s| s.name != "Trace 3" && s.name != "Trace 4")
            .collect();
        for s in typical {
            let at_1mb = s.y_at(1.0).unwrap();
            assert!(at_1mb < 90.0, "{}: {at_1mb}", s.name);
        }
    }
}
