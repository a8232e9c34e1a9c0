//! Extension: block-by-block consistency (§2.3's pointer to \[21\]).
//!
//! "Reducing write traffic beyond 10 to 17% would require choosing a cache
//! consistency policy more efficient than Sprite's, such as a protocol
//! based on block-by-block invalidation and flushing, rather than
//! whole-file invalidation and flushing." This experiment runs the unified
//! model under both protocols and measures how much callback traffic the
//! lazy protocol avoids.

use nvfs_core::{ClusterSim, ConsistencyMode, SimConfig, TrafficStats};
use nvfs_report::{Cell, Table};

use crate::env::Env;
use crate::VOLATILE_BYTES;

/// Output of the consistency-protocol comparison.
#[derive(Debug, Clone)]
pub struct ConsistencyProtocol {
    /// The rendered comparison over the typical traces.
    pub table: Table,
    /// Per-trace `(number, whole_file, block_on_demand)` stats.
    per_trace: Vec<(usize, TrafficStats, TrafficStats)>,
}

impl ConsistencyProtocol {
    /// Total callback bytes under each protocol.
    pub fn callback_totals(&self) -> (u64, u64) {
        self.per_trace.iter().fold((0, 0), |(a, b), (_, w, l)| {
            (a + w.callback_bytes, b + l.callback_bytes)
        })
    }
}

/// Runs the unified model (8 MB + 1 MB) under both protocols on the
/// typical traces.
pub fn run(env: &Env) -> ConsistencyProtocol {
    let mut table = Table::new(
        "Extension: whole-file vs block-by-block consistency (unified, 8 MB + 1 MB)",
        &[
            "Trace",
            "Callback MB (whole-file)",
            "Callback MB (block)",
            "Net write (whole-file)",
            "Net write (block)",
        ],
    );
    let mut per_trace = Vec::new();
    for trace in env.traces.typical() {
        let replay = |cfg: SimConfig| ClusterSim::new(cfg).session(trace.ops()).run().stats;
        let whole = replay(SimConfig::unified(VOLATILE_BYTES, 1 << 20));
        let block = replay(
            SimConfig::unified(VOLATILE_BYTES, 1 << 20)
                .with_consistency(ConsistencyMode::BlockOnDemand),
        );
        table.push_row(vec![
            Cell::from(format!("Trace {}", trace.number())),
            Cell::f2(whole.callback_bytes as f64 / (1 << 20) as f64),
            Cell::f2(block.callback_bytes as f64 / (1 << 20) as f64),
            Cell::Pct(whole.net_write_traffic_pct()),
            Cell::Pct(block.net_write_traffic_pct()),
        ]);
        per_trace.push((trace.number(), whole, block));
    }
    ConsistencyProtocol { table, per_trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_protocol_recalls_less() {
        let out = run(&Env::tiny());
        let (whole, block) = out.callback_totals();
        assert!(block <= whole, "block {block} vs whole-file {whole}");
        assert!(whole > 0, "the workload must exercise callbacks");
    }

    #[test]
    fn lazy_protocol_never_raises_write_traffic() {
        let out = run(&Env::tiny());
        for (n, whole, block) in &out.per_trace {
            assert!(
                block.net_write_traffic_pct() <= whole.net_write_traffic_pct() + 1.0,
                "trace {n}: block {:.1}% vs whole {:.1}%",
                block.net_write_traffic_pct(),
                whole.net_write_traffic_pct()
            );
        }
    }

    #[test]
    fn conservation_holds_under_lazy_protocol() {
        let out = run(&Env::tiny());
        for (n, _, block) in &out.per_trace {
            let accounted = block.server_write_bytes
                + block.concurrent_write_bytes
                + block.overwritten_dead_bytes
                + block.deleted_dead_bytes
                + block.remaining_dirty_bytes;
            assert_eq!(accounted, block.app_write_bytes, "trace {n}");
        }
    }
}
