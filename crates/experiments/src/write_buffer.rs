//! The §3 headline claim: a ½ MB NVRAM write buffer per file system
//! reduces disk write accesses by 10–25% on most file systems and by ~90%
//! on /user6, plus the stronger full-staging ablation that eliminates
//! partial segments altogether.

use nvfs_lfs::fs::{run_server, LfsConfig};
use nvfs_lfs::SegmentCause;
use nvfs_report::{Cell, Table};

use crate::env::Env;

/// Per-filesystem reduction results.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// File-system name.
    name: String,
    /// Fractional reduction from the fsync-absorbing buffer.
    pub reduction: f64,
}

/// Output of the write-buffer experiment.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    /// The rendered table.
    pub table: Table,
    /// Per-filesystem reductions, paper order.
    reductions: Vec<Reduction>,
    /// Partial-segment counts remaining under full staging (excluding the
    /// final shutdown flush), summed over all file systems — the "NVRAM
    /// would eliminate partial segment writes" check.
    pub staged_partials: usize,
}

impl WriteBuffer {
    /// The reduction entry for a named file system.
    pub fn of(&self, name: &str) -> Option<&Reduction> {
        self.reductions.iter().find(|r| r.name == name)
    }
}

/// Runs the three buffer configurations over all eight file systems with
/// the paper's ½ MB buffer.
pub fn run(env: &Env) -> WriteBuffer {
    run_with_capacity(env, 512 << 10)
}

/// Runs with an explicit buffer capacity (for the capacity-sweep bench).
pub fn run_with_capacity(env: &Env, capacity: u64) -> WriteBuffer {
    let direct = run_server(&env.server, &LfsConfig::direct());
    let buffered = run_server(&env.server, &LfsConfig::with_fsync_buffer(capacity));
    let staged = run_server(
        &env.server,
        &LfsConfig::with_staging_buffer(capacity.max(nvfs_lfs::SEGMENT_BYTES)),
    );

    let mut table = Table::new(
        "NVRAM write buffer: disk write accesses per file system",
        &[
            "File system",
            "Direct",
            "Fsync buffer",
            "Reduction",
            "Full staging",
            "Reduction",
        ],
    );
    let mut reductions = Vec::new();
    let mut staged_partials = 0;
    for ((d, b), s) in direct.iter().zip(&buffered).zip(&staged) {
        let reduction = reduction_of(d.disk_write_accesses(), b.disk_write_accesses());
        table.push_row(vec![
            Cell::from(d.name.clone()),
            Cell::from(d.disk_write_accesses()),
            Cell::from(b.disk_write_accesses()),
            Cell::Pct(100.0 * reduction),
            Cell::from(s.disk_write_accesses()),
            Cell::Pct(100.0 * reduction_of(d.disk_write_accesses(), s.disk_write_accesses())),
        ]);
        staged_partials += s
            .records
            .iter()
            .filter(|r| r.is_partial() && r.cause != SegmentCause::Shutdown)
            .count();
        reductions.push(Reduction {
            name: d.name.clone(),
            reduction,
        });
    }
    WriteBuffer {
        table,
        reductions,
        staged_partials,
    }
}

fn reduction_of(direct: usize, buffered: usize) -> f64 {
    if direct == 0 {
        0.0
    } else {
        1.0 - buffered as f64 / direct as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(direct, fsync buffer, full staging)` disk write accesses per
    /// printed row.
    fn accesses(out: &WriteBuffer) -> Vec<(f64, f64, f64)> {
        let v = |row, col| crate::cell_value(&out.table, row, col);
        (0..out.table.row_count())
            .map(|r| (v(r, 1), v(r, 2), v(r, 4)))
            .collect()
    }

    #[test]
    fn user6_reduction_is_dramatic() {
        let out = run(&Env::tiny());
        let u6 = out.of("/user6").unwrap();
        assert!(u6.reduction > 0.75, "reduction {:.2}", u6.reduction);
    }

    #[test]
    fn fsync_free_filesystems_see_no_benefit() {
        let out = run(&Env::tiny());
        for name in ["/swap1", "/scratch4"] {
            let r = out.of(name).unwrap();
            assert!(r.reduction.abs() < 0.05, "{name}: {:.2}", r.reduction);
        }
    }

    #[test]
    fn staging_eliminates_partial_segments() {
        let out = run(&Env::tiny());
        assert_eq!(out.staged_partials, 0);
        for (r, (direct, _, staged)) in out.reductions.iter().zip(accesses(&out)) {
            assert!(staged <= direct, "{}", r.name);
        }
    }

    #[test]
    fn buffered_never_exceeds_direct_materially() {
        // An fsync in the direct path flushes *all* dirty data in one
        // segment, while the buffered path may split the same bytes between
        // the NVRAM and a later timeout partial — so an occasional +1
        // access is legitimate; anything more would be a bug.
        let out = run(&Env::tiny());
        for (r, (direct, buffered, _)) in out.reductions.iter().zip(accesses(&out)) {
            assert!(
                buffered <= direct + 1.0,
                "{}: {buffered} > {direct}",
                r.name
            );
        }
    }
}
