//! Figure 6 — benefits of additional memory: volatile versus unified NVRAM
//! at 8 MB and 16 MB base caches, plus the §2.7 cost-effectiveness verdict.

use nvfs_core::cost::{evaluate_against_volatile, CostVerdict, TrafficPoint};
use nvfs_core::CacheModelKind;
use nvfs_report::{Figure, Series};

use crate::env::Env;
use crate::fig5::model_curve;

/// Extra memory swept, in megabytes.
const EXTRA_MB: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Output of the Figure 6 reproduction.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Series `Volatile-8MB`, `Volatile-16MB`, `Unified-8MB`,
    /// `Unified-16MB`: x = extra MB, y = net total traffic %.
    pub figure: Figure,
    /// §2.7 verdicts for NVRAM added on an 8 MB volatile base.
    pub verdicts_8mb: Vec<CostVerdict>,
    /// §2.7 verdicts for NVRAM added on a 16 MB volatile base.
    pub verdicts_16mb: Vec<CostVerdict>,
}

fn to_points(curve: &[(f64, f64)]) -> Vec<TrafficPoint> {
    curve
        .iter()
        .map(|&(x, y)| TrafficPoint {
            extra_mb: x,
            traffic_pct: y,
        })
        .collect()
}

/// Runs the volatile-vs-NVRAM comparison on both base sizes.
pub fn run(env: &Env) -> Fig6 {
    let mut figure = Figure::new(
        "Figure 6: Benefits of additional memory (Trace 7)",
        "Megabytes extra memory",
        "Net total traffic (%)",
    );
    let mut verdicts = Vec::new();
    for base_mb in [8u64, 16] {
        let base = base_mb << 20;
        let vol = model_curve(env, CacheModelKind::Volatile, base, &EXTRA_MB);
        let uni = model_curve(env, CacheModelKind::Unified, base, &EXTRA_MB);
        figure.push(Series::new(&format!("Volatile-{base_mb}MB"), vol.clone()));
        figure.push(Series::new(&format!("Unified-{base_mb}MB"), uni.clone()));
        // Drop the degenerate 0-extra point from the unified verdicts.
        let uni_points: Vec<TrafficPoint> = to_points(&uni)
            .into_iter()
            .filter(|p| p.extra_mb > 0.0)
            .collect();
        verdicts.push(evaluate_against_volatile(&uni_points, &to_points(&vol)));
    }
    let verdicts_16mb = verdicts.pop().expect("two bases evaluated");
    let verdicts_8mb = verdicts.pop().expect("two bases evaluated");
    Fig6 {
        figure,
        verdicts_8mb,
        verdicts_16mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_series_present() {
        let out = run(&Env::tiny());
        assert_eq!(out.figure.all_series().len(), 4);
        for s in out.figure.all_series() {
            assert_eq!(s.points.len(), EXTRA_MB.len());
        }
    }

    #[test]
    fn bigger_base_means_less_traffic() {
        let out = run(&Env::tiny());
        let v8 = out
            .figure
            .series("Volatile-8MB")
            .unwrap()
            .y_at(0.0)
            .unwrap();
        let v16 = out
            .figure
            .series("Volatile-16MB")
            .unwrap()
            .y_at(0.0)
            .unwrap();
        assert!(
            v16 <= v8 + 1e-9,
            "16 MB base should not be worse: {v16} vs {v8}"
        );
    }

    #[test]
    fn nvram_equivalent_dram_grows_with_base_size() {
        // §2.7: with a large volatile cache already absorbing reads, a
        // little NVRAM matches many megabytes of DRAM.
        let out = run(&Env::tiny());
        let eq = |vs: &[CostVerdict], mb: f64| {
            vs.iter()
                .find(|v| (v.nvram_mb - mb).abs() < 1e-9)
                .and_then(|v| v.equivalent_dram_mb)
        };
        // At a 16 MB base, half a megabyte of NVRAM is worth at least as
        // many DRAM megabytes as at an 8 MB base (or is unreachable by
        // DRAM entirely, i.e. None).
        match (eq(&out.verdicts_8mb, 0.5), eq(&out.verdicts_16mb, 0.5)) {
            (Some(a), Some(b)) => assert!(b >= a * 0.5, "8MB-base {a}, 16MB-base {b}"),
            (_, None) => {} // DRAM cannot match it at all: NVRAM wins outright.
            (None, Some(_)) => panic!("DRAM unreachable at small base but reachable at large"),
        }
    }
}
