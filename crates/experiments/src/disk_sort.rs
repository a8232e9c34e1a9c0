//! The §3 disk-scheduling claim (via \[20\]): random 4 KB writes use ~7% of
//! disk bandwidth; 1000 buffered-and-sorted I/Os (4 MB of NVRAM) reach
//! ~40%.

use nvfs_rng::{Rng, SeedableRng, StdRng};

use nvfs_disk::{Discipline, DiskParams, DiskQueue, DiskRequest};
use nvfs_report::{Cell, Table};

/// Output of the disk-sorting experiment.
#[derive(Debug, Clone)]
pub struct DiskSort {
    /// Utilization per batch size and discipline.
    pub table: Table,
    /// `(batch, fifo_utilization, sorted_utilization)` rows.
    rows: Vec<(usize, f64, f64)>,
}

impl DiskSort {
    /// The `(fifo, sorted)` utilizations for a batch size.
    pub fn at(&self, batch: usize) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|(b, _, _)| *b == batch)
            .map(|&(_, f, s)| (f, s))
    }
}

/// Sweeps batch sizes of random 4 KB writes through both disciplines.
pub fn run() -> DiskSort {
    run_with(
        DiskParams::sprite_era(),
        &[10, 50, 100, 250, 500, 1000, 2000],
        4096,
        1992,
    )
}

/// Parameterized variant (used by the bench sweep).
fn run_with(disk: DiskParams, batches: &[usize], len: u64, seed: u64) -> DiskSort {
    let mut table = Table::new(
        "Disk bandwidth utilization: random vs sorted block writes",
        &[
            "Batch (I/Os)",
            "Buffer (MB)",
            "FIFO util",
            "Sorted util",
            "Speedup",
        ],
    );
    let mut rows = Vec::new();
    for &n in batches {
        let mut rng = StdRng::seed_from_u64(seed);
        let reqs: Vec<DiskRequest> = (0..n)
            .map(|_| DiskRequest {
                addr: rng.gen_range(0..disk.capacity - len),
                len,
            })
            .collect();
        let fifo = DiskQueue::new(disk).service_batch(&reqs, Discipline::Fifo);
        let sorted = DiskQueue::new(disk).service_batch(&reqs, Discipline::Elevator);
        table.push_row(vec![
            Cell::from(n),
            Cell::f2(n as f64 * len as f64 / (1 << 20) as f64),
            Cell::Pct(100.0 * fifo.utilization()),
            Cell::Pct(100.0 * sorted.utilization()),
            Cell::f1(fifo.total_ms / sorted.total_ms),
        ]);
        rows.push((n, fifo.utilization(), sorted.utilization()));
    }
    DiskSort { table, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousand_sorted_ios_recover_bandwidth() {
        let out = run();
        let (fifo, sorted) = out.at(1000).unwrap();
        // Paper: ~7% random, ~40% sorted. Accept the shape bands.
        assert!((0.03..0.12).contains(&fifo), "fifo {fifo}");
        assert!((0.25..0.60).contains(&sorted), "sorted {sorted}");
        assert!(sorted > 3.0 * fifo);
    }

    #[test]
    fn bigger_batches_sort_better() {
        let out = run();
        let (_, s10) = out.at(10).unwrap();
        let (_, s1000) = out.at(1000).unwrap();
        assert!(s1000 > s10, "sorting gains grow with batch size");
    }
}
