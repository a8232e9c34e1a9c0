//! The §2.6 secondary comparisons: memory-bus traffic and NVRAM access
//! counts of the write-aside versus unified models.
//!
//! "The unified model generates at least 25% less file cache traffic on
//! the local memory bus than the write-aside model" and "for an
//! eight-megabyte volatile memory and an eight-megabyte NVRAM … the
//! unified model generates from two to two-and-a-half times as many NVRAM
//! accesses."

use nvfs_core::{ClusterSim, SimConfig, TrafficStats};
use nvfs_report::{Cell, Table};

use crate::env::Env;
use crate::VOLATILE_BYTES;

/// Output of the bus/NVRAM-access comparison.
#[derive(Debug, Clone)]
pub struct BusNvram {
    /// The rendered comparison.
    pub(crate) table: Table,
    /// Unified-model stats.
    pub(crate) unified: TrafficStats,
    /// Write-aside stats.
    pub write_aside: TrafficStats,
}

impl BusNvram {
    /// Write-aside bus bytes divided by unified bus bytes (≥ ~1.33 per the
    /// paper's "at least 25% less" claim).
    pub fn bus_ratio(&self) -> f64 {
        self.write_aside.bus_bytes as f64 / self.unified.bus_bytes.max(1) as f64
    }

    /// Unified NVRAM accesses divided by write-aside NVRAM accesses
    /// (2–2.5× in the paper).
    pub fn access_ratio(&self) -> f64 {
        self.unified.nvram_accesses() as f64 / self.write_aside.nvram_accesses().max(1) as f64
    }
}

/// Runs both NVRAM models with 8 MB volatile + 8 MB NVRAM on Trace 7.
pub fn run(env: &Env) -> BusNvram {
    let trace = env.trace7();
    let replay = |cfg: SimConfig| ClusterSim::new(cfg).session(trace.ops()).run().stats;
    let unified = replay(SimConfig::unified(VOLATILE_BYTES, 8 << 20));
    let write_aside = replay(SimConfig::write_aside(VOLATILE_BYTES, 8 << 20));
    let mut table = Table::new(
        "§2.6: memory-bus traffic and NVRAM accesses (Trace 7)",
        &["Model", "Bus MB", "NVRAM accesses", "NVRAM MB"],
    );
    for (name, s) in [("unified", &unified), ("write-aside", &write_aside)] {
        table.push_row(vec![
            Cell::from(name),
            Cell::f1(s.bus_bytes as f64 / (1 << 20) as f64),
            Cell::from(s.nvram_accesses() as usize),
            Cell::f1(s.nvram_bytes as f64 / (1 << 20) as f64),
        ]);
    }
    BusNvram {
        table,
        unified,
        write_aside,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_aside_doubles_bus_traffic() {
        let out = run(&Env::tiny());
        // Unified uses at least ~25% less bus bandwidth.
        assert!(out.bus_ratio() > 1.25, "bus ratio {:.2}", out.bus_ratio());
    }

    #[test]
    fn unified_makes_many_more_nvram_accesses() {
        let out = run(&Env::tiny());
        assert!(
            out.access_ratio() > 1.5,
            "access ratio {:.2}",
            out.access_ratio()
        );
    }

    #[test]
    fn write_aside_nvram_is_write_only() {
        let out = run(&Env::tiny());
        assert_eq!(out.write_aside.nvram_reads, 0);
        assert!(out.unified.nvram_reads > 0);
    }
}
