//! Table 4 — sizes of partial segments and their disk-space cost.
//!
//! The paper's Table 4 column layout is partially garbled in surviving
//! copies; we reconstruct it as: average KB of file data per fsync-forced
//! partial segment, average KB per partial segment (all causes), this file
//! system's share of total write traffic, and (from the §3 prose) the
//! metadata + summary space overhead of its partial segments.

use nvfs_lfs::layout::SegmentRecord;
use nvfs_report::{Cell, Table};

use crate::env::Env;
use crate::tab3;

/// Output of the Table 4 reproduction.
#[derive(Debug, Clone)]
pub struct Tab4 {
    /// The rendered table.
    pub table: Table,
    /// Per-FS `(name, avg KB per partial)`.
    partial_kb: Vec<(String, Option<f64>)>,
    /// Per-FS `(name, partial-segment overhead fraction)`.
    partial_overhead: Vec<(String, f64)>,
}

impl Tab4 {
    /// Average partial size for a named file system.
    pub fn partial_kb_of(&self, name: &str) -> Option<f64> {
        self.partial_kb
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| *v)
    }

    /// Partial-segment overhead fraction for a named file system.
    pub fn overhead_of(&self, name: &str) -> Option<f64> {
        self.partial_overhead
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn partial_overhead_fraction(records: &[SegmentRecord]) -> f64 {
    let partials: Vec<&SegmentRecord> = records.iter().filter(|r| r.is_partial()).collect();
    let total: u64 = partials.iter().map(|r| r.on_disk_bytes()).sum();
    let data: u64 = partials.iter().map(|r| r.data_bytes).sum();
    if total == 0 {
        0.0
    } else {
        1.0 - data as f64 / total as f64
    }
}

/// Runs the partial-segment size analysis.
pub fn run(env: &Env) -> Tab4 {
    let tab3 = tab3::run(env);
    let total_bytes: u64 = tab3.reports.iter().map(|r| r.data_bytes()).sum();
    let mut table = Table::new(
        "Table 4: Partial segment sizes and disk-space cost",
        &[
            "File system",
            "KB / fsync partial",
            "KB / partial",
            "% total write traffic",
            "Partial overhead",
        ],
    );
    let mut partial_kb = Vec::new();
    let mut partial_overhead = Vec::new();
    for r in &tab3.reports {
        let fsync_kb = r.avg_fsync_partial_kb();
        let part_kb = r.avg_partial_kb();
        let share = if total_bytes == 0 {
            0.0
        } else {
            100.0 * r.data_bytes() as f64 / total_bytes as f64
        };
        let overhead = partial_overhead_fraction(&r.records);
        table.push_row(vec![
            Cell::from(r.name.clone()),
            fsync_kb.map_or(Cell::Na, Cell::f1),
            part_kb.map_or(Cell::Na, Cell::f1),
            Cell::Pct(share),
            Cell::Pct(100.0 * overhead),
        ]);
        partial_kb.push((r.name.clone(), part_kb));
        partial_overhead.push((r.name.clone(), overhead));
    }
    Tab4 {
        table,
        partial_kb,
        partial_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_partials_carry_heavy_overhead() {
        let out = run(&Env::tiny());
        // /user6's ~8 KB fsync partials lose roughly a third of their
        // space to metadata and summary blocks (§3).
        let u6 = out.overhead_of("/user6").unwrap();
        assert!(u6 > 0.2, "overhead {u6}");
        // Larger partials (kernel area) are proportionally cheaper.
        let kern = out.overhead_of("/sprite/src/kernel").unwrap();
        assert!(kern < u6, "kernel {kern} vs user6 {u6}");
    }

    #[test]
    fn user6_partials_are_small() {
        let out = run(&Env::tiny());
        let u6 = out.partial_kb_of("/user6").unwrap();
        let kern = out.partial_kb_of("/sprite/src/kernel").unwrap();
        assert!(u6 < kern, "user6 {u6} KB vs kernel {kern} KB");
        assert!(u6 < 20.0, "user6 partials should be tiny, got {u6} KB");
    }

    #[test]
    fn swap_has_na_fsync_column() {
        let out = run(&Env::tiny());
        let row = out
            .table
            .rows()
            .iter()
            .find(|r| matches!(&r[0], Cell::Text(n) if n == "/swap1"))
            .unwrap();
        assert_eq!(row[1], Cell::Na);
    }
}
