//! Table 3 — percent of forced partial segments on the eight LFS file
//! systems of the Sprite file server.

use nvfs_lfs::fs::{run_server, segment_share, FsReport, LfsConfig};
use nvfs_report::{Cell, Table};

use crate::env::Env;

/// Output of the Table 3 reproduction.
#[derive(Debug, Clone)]
pub struct Tab3 {
    /// The rendered table, one row per file system in paper order.
    pub table: Table,
    /// The underlying per-filesystem reports (reused by Table 4).
    pub(crate) reports: Vec<FsReport>,
    /// Share of all segment writes per file system.
    pub shares: Vec<(String, f64)>,
}

impl Tab3 {
    /// The report for a named file system.
    pub fn report(&self, name: &str) -> Option<&FsReport> {
        self.reports.iter().find(|r| r.name == name)
    }
}

/// Runs the direct (no-buffer) LFS simulation over all eight file systems.
pub fn run(env: &Env) -> Tab3 {
    let reports = run_server(&env.server, &LfsConfig::direct());
    let shares = segment_share(&reports);
    let mut table = Table::new(
        "Table 3: Percent of forced partial segments on LFS file systems",
        &[
            "File system",
            "% total segments that are partial",
            "% partial due to fsync",
            "% segments from this file system",
        ],
    );
    for (r, (_, share)) in reports.iter().zip(&shares) {
        table.push_row(vec![
            Cell::from(r.name.clone()),
            Cell::Pct(r.pct_partial()),
            Cell::Pct(r.pct_fsync_partial()),
            Cell::Pct(*share),
        ]);
    }
    Tab3 {
        table,
        reports,
        shares,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_rows_in_paper_order() {
        let out = run(&Env::tiny());
        assert_eq!(out.table.row_count(), 8);
        assert_eq!(out.reports[0].name, "/user6");
    }

    #[test]
    fn user6_is_dominated_by_fsync_partials() {
        let out = run(&Env::tiny());
        let u6 = out.report("/user6").unwrap();
        assert!(u6.pct_partial() > 80.0, "{}", u6.pct_partial());
        assert!(u6.pct_fsync_partial() > 70.0, "{}", u6.pct_fsync_partial());
        // …and issues the bulk of all segment writes.
        assert!(out.shares[0].1 > 50.0);
    }

    #[test]
    fn swap_has_no_fsync_partials() {
        let out = run(&Env::tiny());
        let swap = out.report("/swap1").unwrap();
        assert_eq!(swap.pct_fsync_partial(), 0.0);
        assert!(swap.pct_partial() > 0.0, "timeout partials still occur");
    }
}
