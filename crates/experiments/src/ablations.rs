//! Ablations beyond the paper's main figures:
//!
//! * the **hybrid** model §2.6 sketches ("an even more closely integrated
//!   NVRAM model that allows dirty blocks to be written both to the NVRAM
//!   and to the volatile cache … would provide superior performance …
//!   however, this model would allow some dirty data to be vulnerable for
//!   at least 30 seconds");
//! * Sprite's real **dirty-block replacement preference**, which the paper
//!   deliberately simplified away ("giving dirty blocks preference helps
//!   reduce write traffic, but at the expense of increasing read traffic").

use nvfs_core::{ClusterSim, SimConfig, TrafficStats};
use nvfs_report::{Cell, Figure, Series, Table};

use crate::env::Env;

/// Output of the hybrid-model ablation.
#[derive(Debug, Clone)]
pub struct HybridAblation {
    /// Net write traffic per model over the NVRAM grid.
    pub figure: Figure,
    /// Bytes exposed to a crash for the 30-second window at 1 MB NVRAM.
    pub exposed_bytes_1mb: u64,
    /// Application write bytes of the trace.
    pub app_write_bytes: u64,
}

/// NVRAM grid for the hybrid comparison, in megabytes.
pub const HYBRID_NVRAM_MB: [f64; 4] = [0.125, 0.25, 0.5, 1.0];

/// Compares the hybrid model against unified at small NVRAM sizes, where
/// the paper predicts its advantage (the whole volatile cache absorbs
/// write bursts).
pub fn hybrid(env: &Env) -> HybridAblation {
    let trace = env.trace7();
    let replay = |cfg: SimConfig| ClusterSim::new(cfg).session(trace.ops()).run().stats;
    let base = 8u64 << 20;
    let mut figure = Figure::new(
        "Ablation: hybrid (§2.6 sketch) vs unified, Trace 7",
        "Megabytes NVRAM",
        "Net write traffic (%)",
    );
    let mut exposed_bytes_1mb = 0;
    let mut app_write_bytes = 0;
    for (name, make) in [
        ("unified", SimConfig::unified as fn(u64, u64) -> SimConfig),
        ("hybrid", SimConfig::hybrid as fn(u64, u64) -> SimConfig),
    ] {
        let points: Vec<(f64, f64)> = HYBRID_NVRAM_MB
            .iter()
            .map(|&mb| {
                let nv = (mb * (1 << 20) as f64) as u64;
                let stats = replay(make(base, nv));
                if name == "hybrid" && (mb - 1.0).abs() < 1e-9 {
                    exposed_bytes_1mb = stats.aged_into_nvram_bytes;
                    app_write_bytes = stats.app_write_bytes;
                }
                (mb, stats.net_write_traffic_pct())
            })
            .collect();
        figure.push(Series::new(name, points));
    }
    HybridAblation {
        figure,
        exposed_bytes_1mb,
        app_write_bytes,
    }
}

/// Output of the dirty-preference ablation.
#[derive(Debug, Clone)]
pub struct DirtyPreferenceAblation {
    /// The rendered comparison.
    pub table: Table,
    /// Plain LRU stats.
    pub strict_lru: TrafficStats,
    /// Dirty-preference stats.
    pub dirty_preference: TrafficStats,
}

/// Compares the volatile model with and without Sprite's dirty-block
/// replacement preference (256 KB cache, Trace 7 — the regime where
/// residency is shorter than the 30-second write-back).
pub fn dirty_preference(env: &Env) -> DirtyPreferenceAblation {
    // A deliberately tiny cache: the preference only matters when blocks
    // are evicted while still inside the 30-second dirty window, i.e. when
    // cache residency is shorter than the write-back delay. With caches of
    // megabytes (residency of minutes) both policies behave identically —
    // which is why the paper could drop the preference "for simplicity".
    let trace = env.trace7();
    let cache = 64 * nvfs_types::BLOCK_SIZE; // 256 KB
    let replay = |cfg: SimConfig| ClusterSim::new(cfg).session(trace.ops()).run().stats;
    let strict_lru = replay(SimConfig::volatile(cache));
    let pref = replay(SimConfig::volatile(cache).with_dirty_preference());
    let mut table = Table::new(
        "Ablation: Sprite's dirty-block replacement preference (Trace 7, 256 KB)",
        &[
            "Policy",
            "Replacement write MB",
            "Server read MB",
            "Net total traffic",
        ],
    );
    for (name, s) in [("strict LRU", &strict_lru), ("dirty preference", &pref)] {
        table.push_row(vec![
            Cell::from(name),
            Cell::f2(s.replacement_bytes as f64 / (1 << 20) as f64),
            Cell::f1(s.server_read_bytes as f64 / (1 << 20) as f64),
            Cell::Pct(s.net_total_traffic_pct()),
        ]);
    }
    DirtyPreferenceAblation {
        table,
        strict_lru,
        dirty_preference: pref,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_beats_unified_at_small_nvram() {
        let out = hybrid(&Env::tiny());
        let uni = out.figure.series("unified").unwrap();
        let hyb = out.figure.series("hybrid").unwrap();
        // §2.6: with a tiny NVRAM, the pool of replaceable blocks for new
        // writes is the whole volatile cache, so hybrid wins.
        for &mb in &[0.125, 0.25] {
            let (u, h) = (uni.y_at(mb).unwrap(), hyb.y_at(mb).unwrap());
            assert!(
                h <= u + 1.0,
                "at {mb} MB: hybrid {h:.1}% vs unified {u:.1}%"
            );
        }
    }

    #[test]
    fn hybrid_exposes_data_for_thirty_seconds() {
        let out = hybrid(&Env::tiny());
        // The price of the hybrid model: a material fraction of written
        // bytes sat vulnerable in volatile memory for the full window.
        assert!(out.exposed_bytes_1mb > 0);
        assert!(out.exposed_bytes_1mb < out.app_write_bytes);
    }

    #[test]
    fn dirty_preference_trades_reads_for_writes() {
        let out = dirty_preference(&Env::tiny());
        // "Giving dirty blocks preference helps reduce write traffic…"
        assert!(
            out.dirty_preference.replacement_bytes < out.strict_lru.replacement_bytes,
            "pref {} vs lru {}",
            out.dirty_preference.replacement_bytes,
            out.strict_lru.replacement_bytes
        );
        // The paper expects read traffic to rise in exchange. In this
        // simulator the direction is workload-dependent (evicting a dirty
        // block also forces a read-modify-write fetch when it is partially
        // rewritten), so we only check that the read-side change is small
        // relative to the write-side gain.
        let write_gain = out
            .strict_lru
            .replacement_bytes
            .saturating_sub(out.dirty_preference.replacement_bytes);
        let read_change = out
            .dirty_preference
            .server_read_bytes
            .abs_diff(out.strict_lru.server_read_bytes);
        assert!(
            read_change < 4 * write_gain.max(1),
            "read {read_change} vs write {write_gain}"
        );
    }
}
