//! The §3 NFS claim: server NVRAM (Prestoserve-style) slashes synchronous
//! write cost; improvements "of up to 50%" were reported on real systems.

use nvfs_rng::{Rng, SeedableRng, StdRng};

use nvfs_disk::DiskParams;
use nvfs_report::{Cell, Table};
use nvfs_server::presto::{
    nfs_synchronous, prestoserve, sprite_delayed, WriteOutcome, WriteRequest,
};
use nvfs_types::SimTime;

/// Output of the Prestoserve experiment.
#[derive(Debug, Clone)]
pub struct Presto {
    /// The rendered comparison.
    pub table: Table,
    /// NFS-synchronous outcome.
    pub nfs: WriteOutcome,
    /// Prestoserve outcome.
    pub presto: WriteOutcome,
}

impl Presto {
    /// Mean-latency improvement factor.
    pub fn latency_improvement(&self) -> f64 {
        self.nfs.mean_latency_ms / self.presto.mean_latency_ms.max(1e-9)
    }
}

/// Runs a 1000-request NFS-style synchronous write stream through both
/// server configurations.
pub fn run() -> Presto {
    run_with(1000, 30, 8192, 7)
}

/// Parameterized variant: `n` requests, `gap_ms` apart, `len` bytes each.
fn run_with(n: usize, gap_ms: u64, len: u64, seed: u64) -> Presto {
    let disk = DiskParams::sprite_era();
    let mut rng = StdRng::seed_from_u64(seed);
    let reqs: Vec<WriteRequest> = (0..n)
        .map(|i| WriteRequest {
            time: SimTime::from_millis(i as u64 * gap_ms),
            addr: rng.gen_range(0..disk.capacity - len),
            len,
        })
        .collect();
    let nfs = nfs_synchronous(&reqs, disk);
    let presto = prestoserve(&reqs, disk);
    let sprite = sprite_delayed(&reqs, disk, 1 << 20);
    let mut table = Table::new(
        "Synchronous writes: NFS direct vs Prestoserve NVRAM vs Sprite delayed",
        &[
            "Server",
            "Mean latency (ms)",
            "Max latency (ms)",
            "Disk busy (ms)",
            "Disk accesses",
        ],
    );
    for (name, o) in [
        ("NFS direct", &nfs),
        ("Prestoserve", &presto),
        ("Sprite delayed (unsafe)", &sprite),
    ] {
        table.push_row(vec![
            Cell::from(name),
            Cell::f2(o.mean_latency_ms),
            Cell::f2(o.max_latency_ms),
            Cell::f1(o.disk_busy_ms),
            Cell::from(o.disk_accesses),
        ]);
    }
    Presto { table, nfs, presto }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvram_improves_latency_by_more_than_half() {
        let out = run();
        assert!(
            out.latency_improvement() > 2.0,
            "improvement only {:.2}x",
            out.latency_improvement()
        );
    }

    #[test]
    fn nvram_spends_less_disk_time() {
        let out = run();
        assert!(out.presto.disk_busy_ms < out.nfs.disk_busy_ms);
        assert!(out.presto.disk_accesses < out.nfs.disk_accesses);
    }

    #[test]
    fn nvram_matches_sprite_speed_with_nfs_safety() {
        // The §3 synthesis: server NVRAM gives Sprite-like latency while
        // keeping NFS's guarantee that acknowledged writes survive crashes.
        let out = run();
        // Row 2 is Sprite delayed write; column 1 its mean latency.
        let sprite_ms = crate::cell_value(&out.table, 2, 1);
        assert!(out.presto.mean_latency_ms < sprite_ms * 10.0);
        assert!(sprite_ms < out.nfs.mean_latency_ms / 10.0);
    }
}
