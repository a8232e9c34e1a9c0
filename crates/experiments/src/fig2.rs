//! Figure 2 — byte lifetimes: net write traffic versus a fixed write-back
//! delay, with an infinite non-volatile cache.

use nvfs_core::LifetimeLog;
use nvfs_report::{Figure, Series};
use nvfs_types::SimDuration;

use crate::env::Env;

/// Delay grid in minutes (log scale, 0.01 to 10 000 as in the paper).
const DELAY_MINUTES: [f64; 13] = [
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 240.0, 1000.0, 10_000.0,
];

/// Output of the Figure 2 reproduction.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// One series per trace: x = delay (minutes), y = net write traffic %.
    pub figure: Figure,
    /// Per-trace fraction of bytes dying within 30 seconds.
    pub die_within_30s: Vec<(usize, f64)>,
    /// Per-trace fraction of bytes dying within 30 minutes.
    pub die_within_30m: Vec<(usize, f64)>,
    /// The per-trace lifetime logs (reused by Table 2).
    pub(crate) logs: Vec<LifetimeLog>,
}

/// Runs the lifetime analysis over every trace in `env`.
pub fn run(env: &Env) -> Fig2 {
    let mut figure = Figure::new(
        "Figure 2: Byte lifetimes",
        "Time in minutes",
        "Net write traffic (%)",
    );
    let mut die_within_30s = Vec::new();
    let mut die_within_30m = Vec::new();
    let mut logs = Vec::new();
    // Each trace's lifetime pass is independent; fan out and join in trace
    // order so the figure is identical to the sequential build.
    let analyzed = nvfs_par::par_map(
        env.traces.traces().iter().collect(),
        nvfs_par::jobs(),
        |trace| {
            let log = LifetimeLog::analyze(trace.ops());
            (trace.number(), log)
        },
    );
    for (number, log) in analyzed {
        let points: Vec<(f64, f64)> = DELAY_MINUTES
            .iter()
            .map(|&m| {
                let d = SimDuration::from_secs_f64(m * 60.0);
                (m, log.net_write_traffic_at_delay(d))
            })
            .collect();
        figure.push(Series::new(&format!("Trace {number}"), points));
        die_within_30s.push((
            number,
            log.death_fraction_within(SimDuration::from_secs(30)),
        ));
        die_within_30m.push((
            number,
            log.death_fraction_within(SimDuration::from_mins(30)),
        ));
        logs.push(log);
    }
    Fig2 {
        figure,
        die_within_30s,
        die_within_30m,
        logs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_nonincreasing_and_complete() {
        let out = run(&Env::tiny());
        assert_eq!(out.figure.all_series().len(), 8);
        for s in out.figure.all_series() {
            assert!(s.is_nonincreasing(), "{} increased", s.name);
            assert_eq!(s.points.len(), DELAY_MINUTES.len());
        }
    }

    #[test]
    fn median_death_ages_are_minutes_not_hours() {
        let out = run(&Env::tiny());
        for ((n, _), log) in out.die_within_30s.iter().zip(&out.logs) {
            let age = log.median_death_age().expect("every trace has dying bytes");
            // "most file data in Sprite is overwritten or deleted within
            // half an hour of its creation."
            assert!(
                age <= nvfs_types::SimDuration::from_mins(45),
                "trace {n}: median death age {age}"
            );
        }
    }

    #[test]
    fn large_traces_die_slower_at_30s() {
        let out = run(&Env::tiny());
        let typical_avg: f64 = out
            .die_within_30s
            .iter()
            .filter(|(n, _)| *n != 3 && *n != 4)
            .map(|(_, f)| f)
            .sum::<f64>()
            / 6.0;
        for (n, f) in &out.die_within_30s {
            if *n == 3 || *n == 4 {
                assert!(*f < typical_avg, "trace {n}: {f} vs typical {typical_avg}");
            }
        }
    }
}
