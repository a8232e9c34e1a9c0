//! The §2.6 caveat, quantified: "If NVRAM access times were significantly
//! slower than volatile memory access times, this could make NVRAM less
//! appealing" — because the unified model makes 2–2.5× as many NVRAM
//! accesses as write-aside, a slow NVRAM taxes it harder.
//!
//! We charge every byte moved over the memory bus one unit at DRAM speed
//! and every byte moved through the NVRAM an extra `(ratio − 1)` units,
//! then sweep the ratio to find where the unified model's memory-time
//! advantage over write-aside disappears.

use nvfs_core::TrafficStats;
use nvfs_report::{Cell, Table};

use crate::bus_nvram;
use crate::env::Env;

/// Ratios swept (1.0 = NVRAM as fast as DRAM).
const RATIOS: [f64; 7] = [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0];

/// Memory time in arbitrary units: bus bytes at DRAM speed plus the
/// slowdown surcharge on bytes that moved through the NVRAM.
fn memory_cost(stats: &TrafficStats, ratio: f64) -> f64 {
    stats.bus_bytes as f64 + (ratio - 1.0) * stats.nvram_bytes as f64
}

/// Runs the sweep over the 8 MB + 8 MB configuration of §2.6: one row of
/// `(ratio, unified cost, write-aside cost, winner)` per ratio, costs
/// relative to unified at parity.
pub(crate) fn run(env: &Env) -> Table {
    let base = bus_nvram::run(env);
    let mut table = Table::new(
        "§2.6: memory time vs NVRAM access ratio (8 MB + 8 MB, Trace 7)",
        &[
            "NVRAM/DRAM ratio",
            "Unified (rel.)",
            "Write-aside (rel.)",
            "Winner",
        ],
    );
    let unit = memory_cost(&base.unified, 1.0);
    for &ratio in &RATIOS {
        let u = memory_cost(&base.unified, ratio) / unit;
        let w = memory_cost(&base.write_aside, ratio) / unit;
        table.push_row(vec![
            Cell::f2(ratio),
            Cell::f2(u),
            Cell::f2(w),
            Cell::from(if u <= w { "unified" } else { "write-aside" }),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(ratio, unified_cost, write_aside_cost)` per printed row.
    fn rows(table: &Table) -> Vec<(f64, f64, f64)> {
        let v = |row, col| crate::cell_value(table, row, col);
        (0..table.row_count())
            .map(|r| (v(r, 0), v(r, 1), v(r, 2)))
            .collect()
    }

    #[test]
    fn unified_wins_at_parity() {
        let (_, u, w) = rows(&run(&Env::tiny()))[0];
        assert!(u <= w, "at ratio 1.0 unified must win: {u} vs {w}");
    }

    #[test]
    fn slow_nvram_eventually_favors_write_aside() {
        let rows = rows(&run(&Env::tiny()));
        // Unified moves far more bytes through NVRAM, so some finite
        // slowdown flips the comparison — the §2.6 caveat.
        let crossover = rows.iter().find(|(_, u, w)| w < u).map(|r| r.0);
        let r = crossover.unwrap_or_else(|| {
            panic!(
                "no crossover found up to {}x: {rows:?}",
                RATIOS.last().unwrap()
            )
        });
        assert!(
            r > 1.0,
            "crossover at parity would contradict the parity win"
        );
    }

    #[test]
    fn costs_increase_monotonically_with_ratio() {
        for pair in rows(&run(&Env::tiny())).windows(2) {
            assert!(pair[1].1 >= pair[0].1);
            assert!(pair[1].2 >= pair[0].2);
        }
    }
}
