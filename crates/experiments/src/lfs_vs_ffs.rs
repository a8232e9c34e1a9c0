//! LFS versus the traditional update-in-place baseline.
//!
//! §3 frames LFS as "optimized for writing": it "amortizes the cost of
//! writes by collecting large segments … while traditional file systems
//! seek to a predefined disk location to update metadata or to write
//! different files". This experiment services the same eight Sprite
//! file-system workloads both ways and compares disk cost.

use nvfs_disk::DiskParams;
use nvfs_lfs::ffs_baseline::run_update_in_place;
use nvfs_lfs::fs::{run_server, LfsConfig};
use nvfs_report::{Cell, Table};

use crate::env::Env;

/// Runs both file systems over all eight workloads.
pub(crate) fn run(env: &Env) -> Table {
    let disk = DiskParams::sprite_era();
    let lfs = run_server(&env.server, &LfsConfig::direct());
    let mut table = Table::new(
        "LFS vs update-in-place (FFS-style): disk cost of the same workloads",
        &[
            "File system",
            "LFS busy (ms)",
            "FFS busy (ms)",
            "Speedup",
            "LFS ops",
            "FFS ops",
        ],
    );
    for (workload, lfs_report) in env.server.iter().zip(&lfs) {
        let ffs = run_update_in_place(workload);
        let lfs_ms = lfs_report.disk_time(&disk).total_ms;
        table.push_row(vec![
            Cell::from(workload.name.to_string()),
            Cell::f1(lfs_ms),
            Cell::f1(ffs.disk_busy_ms),
            // FFS time divided by LFS time (the amortization factor).
            Cell::f2(ffs.disk_busy_ms / lfs_ms.max(1e-9)),
            Cell::from(lfs_report.disk_write_accesses()),
            Cell::from(ffs.disk_write_accesses),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The speedup printed for a named file system.
    fn speedup(table: &Table, name: &str) -> f64 {
        let row = table.rows().iter().position(|r| r[0] == Cell::from(name));
        crate::cell_value(table, row.unwrap(), 3)
    }

    #[test]
    fn lfs_wins_on_write_heavy_filesystems() {
        let out = run(&Env::tiny());
        // The bulk-write file systems show clear amortization.
        for name in ["/swap1", "/local"] {
            let s = speedup(&out, name);
            assert!(s > 1.2, "{name}: speedup {s:.2}");
        }
        // LFS always issues far fewer disk operations.
        for (row, cells) in out.rows().iter().enumerate() {
            let (lfs_ops, ffs_ops) = (
                crate::cell_value(&out, row, 4),
                crate::cell_value(&out, row, 5),
            );
            if ffs_ops > 0.0 {
                assert!(lfs_ops <= ffs_ops, "{}", cells[0]);
            }
        }
    }

    #[test]
    fn fsync_bound_user6_gains_least_without_nvram() {
        // /user6's tiny fsync-forced writes defeat amortization — exactly
        // why §3 adds the NVRAM buffer on top of LFS.
        let out = run(&Env::tiny());
        let u6 = speedup(&out, "/user6");
        let swap = speedup(&out, "/swap1");
        assert!(u6 < swap, "user6 {u6:.2} vs swap {swap:.2}");
    }
}
