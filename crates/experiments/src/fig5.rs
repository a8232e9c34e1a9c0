//! Figure 5 — effect of the cache models on net total (read + write)
//! traffic, Trace 7, 8 MB of base volatile cache.

use nvfs_core::{CacheModelKind, ClusterSim, SimConfig};
use nvfs_report::{Figure, Series};

use crate::env::Env;

/// Extra memory swept, in megabytes.
pub const EXTRA_MB: [f64; 5] = [0.0, 1.0, 2.0, 4.0, 8.0];

/// Base volatile cache size.
pub const BASE_BYTES: u64 = 8 << 20;

/// Output of the Figure 5 reproduction.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Series `volatile`, `unified`, `write-aside`: x = extra MB,
    /// y = net total traffic %.
    pub figure: Figure,
}

impl Fig5 {
    /// Total traffic of `model` with `extra` megabytes added.
    pub fn traffic(&self, model: &str, extra: f64) -> Option<f64> {
        self.figure.series(model)?.y_at(extra)
    }
}

/// Builds the total-traffic curve of one model over the extra-memory grid.
pub fn model_curve(env: &Env, model: CacheModelKind, base: u64, grid: &[f64]) -> Vec<(f64, f64)> {
    let trace = env.trace7();
    // Grid points are independent simulations; fan out and rejoin in grid
    // order, so the curve matches the sequential build exactly.
    nvfs_par::par_map(grid.to_vec(), nvfs_par::jobs(), |extra| {
        let nv = (extra * (1 << 20) as f64) as u64;
        let cfg = match model {
            CacheModelKind::Volatile => SimConfig::volatile(base + nv),
            CacheModelKind::WriteAside if nv > 0 => SimConfig::write_aside(base, nv),
            CacheModelKind::Unified if nv > 0 => SimConfig::unified(base, nv),
            // Zero extra NVRAM degenerates to the volatile model.
            _ => SimConfig::volatile(base),
        };
        let stats = ClusterSim::new(cfg).session(trace.ops()).run().stats;
        (extra, stats.net_total_traffic_pct())
    })
}

/// Runs the model comparison of Figure 5.
pub fn run(env: &Env) -> Fig5 {
    let mut figure = Figure::new(
        "Figure 5: Effect of cache models on net total traffic (Trace 7, 8 MB base)",
        "Megabytes extra memory",
        "Net total traffic (%)",
    );
    figure.push(Series::new(
        "volatile",
        model_curve(env, CacheModelKind::Volatile, BASE_BYTES, &EXTRA_MB),
    ));
    figure.push(Series::new(
        "unified",
        model_curve(env, CacheModelKind::Unified, BASE_BYTES, &EXTRA_MB),
    ));
    figure.push(Series::new(
        "write-aside",
        model_curve(env, CacheModelKind::WriteAside, BASE_BYTES, &EXTRA_MB),
    ));
    Fig5 { figure }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_beats_write_aside_with_enough_nvram() {
        let out = run(&Env::tiny());
        let at = |m: &str, x: f64| out.traffic(m, x).unwrap();
        // "The unified model performs better than the write-aside model
        // because it reduces both read traffic and write traffic."
        assert!(at("unified", 8.0) <= at("write-aside", 8.0) + 1e-9);
    }

    #[test]
    fn all_models_start_from_the_same_baseline() {
        let out = run(&Env::tiny());
        let v = out.traffic("volatile", 0.0).unwrap();
        let u = out.traffic("unified", 0.0).unwrap();
        let w = out.traffic("write-aside", 0.0).unwrap();
        assert_eq!(v, u);
        assert_eq!(v, w);
    }

    #[test]
    fn nvram_models_cut_write_traffic_vs_baseline() {
        let out = run(&Env::tiny());
        let base = out.traffic("volatile", 0.0).unwrap();
        assert!(out.traffic("unified", 4.0).unwrap() < base);
        assert!(out.traffic("write-aside", 4.0).unwrap() < base);
    }
}
