//! Cost-effectiveness analysis: NVRAM versus volatile memory (§2.7).
//!
//! The paper's question: "is money better spent on volatile or non-volatile
//! memory for client caches?" It answers by comparing the total-traffic
//! reduction of adding NVRAM (unified model) against adding DRAM (volatile
//! model), then weighing the equivalent megabytes against Table 1 prices.
//! This module provides the interpolation and pricing arithmetic; the
//! traffic curves come from [`ClusterSim`](crate::ClusterSim) sweeps.

use nvfs_nvram::cost::{cheapest_nvram_for, dram};

/// One point of a memory-sweep curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficPoint {
    /// Megabytes of memory added to the base configuration.
    pub extra_mb: f64,
    /// Net total traffic as a percentage of application traffic.
    pub traffic_pct: f64,
}

/// How many megabytes along `curve` are needed to reach `target_pct`
/// traffic, interpolating linearly between points.
///
/// Returns `None` when even the largest point on the curve cannot reach the
/// target (the paper's situation where "a half-megabyte of NVRAM provides
/// the same benefit as *more than six* additional megabytes" of DRAM).
///
/// # Examples
///
/// ```
/// use nvfs_core::cost::{equivalent_extra_mb, TrafficPoint};
///
/// let curve = vec![
///     TrafficPoint { extra_mb: 0.0, traffic_pct: 50.0 },
///     TrafficPoint { extra_mb: 4.0, traffic_pct: 40.0 },
/// ];
/// assert_eq!(equivalent_extra_mb(&curve, 45.0), Some(2.0));
/// assert_eq!(equivalent_extra_mb(&curve, 35.0), None);
/// ```
pub fn equivalent_extra_mb(curve: &[TrafficPoint], target_pct: f64) -> Option<f64> {
    let first = curve.first()?;
    if target_pct >= first.traffic_pct {
        return Some(first.extra_mb);
    }
    for pair in curve.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if target_pct <= a.traffic_pct && target_pct >= b.traffic_pct {
            if (a.traffic_pct - b.traffic_pct).abs() < f64::EPSILON {
                return Some(b.extra_mb);
            }
            let frac = (a.traffic_pct - target_pct) / (a.traffic_pct - b.traffic_pct);
            return Some(a.extra_mb + frac * (b.extra_mb - a.extra_mb));
        }
    }
    None
}

/// The verdict for one NVRAM configuration against the volatile curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostVerdict {
    /// NVRAM megabytes added (unified model).
    pub nvram_mb: f64,
    /// Traffic percentage reached with that NVRAM.
    traffic_pct: f64,
    /// DRAM megabytes that reach the same traffic on the volatile curve,
    /// if the curve reaches it at all.
    pub equivalent_dram_mb: Option<f64>,
    /// 1992 price of the NVRAM.
    pub nvram_dollars: f64,
    /// 1992 price of the equivalent DRAM (`None` when no amount suffices,
    /// in which case NVRAM wins outright).
    pub dram_dollars: Option<f64>,
    /// Whether NVRAM delivers the benefit for fewer dollars.
    pub nvram_wins: bool,
}

/// Evaluates each `(nvram_mb, traffic_pct)` point of a unified-model sweep
/// against the volatile-model `curve`, at Table 1 prices.
pub fn evaluate_against_volatile(
    unified_points: &[TrafficPoint],
    volatile_curve: &[TrafficPoint],
) -> Vec<CostVerdict> {
    unified_points
        .iter()
        .map(|p| {
            let eq = equivalent_extra_mb(volatile_curve, p.traffic_pct);
            let nvram_dollars = cheapest_nvram_for(p.extra_mb).price_per_mb * p.extra_mb;
            let dram_dollars = eq.map(|mb| dram().price_per_mb * mb);
            let nvram_wins = match dram_dollars {
                Some(d) => nvram_dollars < d,
                None => true,
            };
            CostVerdict {
                nvram_mb: p.extra_mb,
                traffic_pct: p.traffic_pct,
                equivalent_dram_mb: eq,
                nvram_dollars,
                dram_dollars,
                nvram_wins,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> Vec<TrafficPoint> {
        vec![
            TrafficPoint {
                extra_mb: 0.0,
                traffic_pct: 52.0,
            },
            TrafficPoint {
                extra_mb: 2.0,
                traffic_pct: 48.0,
            },
            TrafficPoint {
                extra_mb: 4.0,
                traffic_pct: 45.0,
            },
            TrafficPoint {
                extra_mb: 8.0,
                traffic_pct: 42.0,
            },
        ]
    }

    #[test]
    fn interpolation_between_points() {
        assert_eq!(equivalent_extra_mb(&curve(), 50.0), Some(1.0));
        assert_eq!(equivalent_extra_mb(&curve(), 46.5), Some(3.0));
        assert_eq!(equivalent_extra_mb(&curve(), 42.0), Some(8.0));
    }

    #[test]
    fn target_above_curve_costs_nothing() {
        assert_eq!(equivalent_extra_mb(&curve(), 60.0), Some(0.0));
    }

    #[test]
    fn unreachable_target_is_none() {
        assert_eq!(equivalent_extra_mb(&curve(), 10.0), None);
        assert_eq!(equivalent_extra_mb(&[], 10.0), None);
    }

    #[test]
    fn verdict_prefers_nvram_when_equivalent_dram_is_large() {
        // 0.5 MB of NVRAM matching 6+ MB of DRAM: the 16 MB-base scenario.
        let unified = vec![TrafficPoint {
            extra_mb: 0.5,
            traffic_pct: 42.0,
        }];
        let verdicts = evaluate_against_volatile(&unified, &curve());
        let v = verdicts[0];
        assert_eq!(v.equivalent_dram_mb, Some(8.0));
        // 0.5 MB NVRAM at SIMM prices (~$164) vs 8 MB DRAM (~$264).
        assert!(v.nvram_wins, "{v:?}");
    }

    #[test]
    fn verdict_prefers_dram_when_reductions_match() {
        // 4 MB of NVRAM only matching 4 MB of DRAM: prices decide for DRAM.
        let unified = vec![TrafficPoint {
            extra_mb: 4.0,
            traffic_pct: 45.0,
        }];
        let v = evaluate_against_volatile(&unified, &curve())[0];
        assert_eq!(v.equivalent_dram_mb, Some(4.0));
        assert!(!v.nvram_wins, "{v:?}");
    }

    #[test]
    fn nvram_wins_outright_when_dram_cannot_reach() {
        let unified = vec![TrafficPoint {
            extra_mb: 1.0,
            traffic_pct: 30.0,
        }];
        let v = evaluate_against_volatile(&unified, &curve())[0];
        assert_eq!(v.equivalent_dram_mb, None);
        assert!(v.nvram_wins);
    }
}
