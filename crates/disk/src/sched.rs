//! Request scheduling: FIFO versus elevator (sorted) order.
//!
//! §3 of the paper motivates write buffering with a result from \[20\]:
//! "only 7% of disk bandwidth is used when writing dirty data randomly to
//! a disk. Instead of writing blocks randomly, 1000 I/O's, requiring four
//! megabytes of NVRAM, can be buffered and sorted to utilize 40% of the
//! disk bandwidth." This module replays a request batch through both
//! disciplines and measures achieved bandwidth.

use crate::model::DiskParams;

/// One disk request: an absolute byte address and a length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequest {
    /// Starting byte address on the platter.
    pub addr: u64,
    /// Transfer length in bytes.
    pub len: u64,
}

/// Scheduling discipline for a batch of requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Service requests in arrival order.
    Fifo,
    /// Sort the batch by address and service it in one elevator sweep —
    /// what a server can do once requests sit in an NVRAM buffer.
    Elevator,
}

/// Outcome of servicing a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// Number of requests serviced.
    pub requests: usize,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total service time in milliseconds.
    pub total_ms: f64,
    /// Pure transfer time in milliseconds.
    pub transfer_ms: f64,
}

impl BatchOutcome {
    /// Fraction of raw disk bandwidth achieved.
    pub fn utilization(&self) -> f64 {
        if self.total_ms == 0.0 {
            return 0.0;
        }
        self.transfer_ms / self.total_ms
    }
}

/// A disk with a head position, servicing batches of requests.
///
/// # Examples
///
/// ```
/// use nvfs_disk::DiskParams;
/// use nvfs_disk::{Discipline, DiskQueue, DiskRequest};
///
/// let mut q = DiskQueue::new(DiskParams::sprite_era());
/// let reqs = vec![
///     DiskRequest { addr: 0, len: 4096 },
///     DiskRequest { addr: 100 << 20, len: 4096 },
/// ];
/// let fifo = q.service_batch(&reqs, Discipline::Fifo);
/// assert_eq!(fifo.requests, 2);
/// assert!(fifo.utilization() < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct DiskQueue {
    params: DiskParams,
    head: u64,
}

impl DiskQueue {
    /// Creates a disk with its head parked at address zero.
    pub fn new(params: DiskParams) -> Self {
        DiskQueue { params, head: 0 }
    }

    /// Seek time as a function of the distance travelled, using the usual
    /// square-root model scaled so a third-of-the-disk seek costs the
    /// catalogued average.
    pub fn seek_ms(&self, distance: u64) -> f64 {
        if distance == 0 {
            return 0.0;
        }
        let p = &self.params;
        let max_seek = 2.0 * p.avg_seek_ms - p.min_seek_ms;
        let frac = (distance as f64 / p.capacity as f64).min(1.0);
        p.min_seek_ms + (max_seek - p.min_seek_ms) * frac.sqrt()
    }

    /// Services one request from the current head position.
    /// Contiguous requests (head already at `addr`) pay no positioning
    /// cost; requests landing within the same track pay only a partial
    /// rotation; everything else pays seek plus average rotational delay.
    pub fn service_one(&mut self, req: DiskRequest) -> f64 {
        let distance = req.addr.abs_diff(self.head);
        let positioning = if distance == 0 {
            0.0
        } else if distance < 3 * self.params.cylinder_bytes() {
            // Same or adjacent cylinders: head switches and track-to-track
            // moves hide inside the rotational positioning.
            self.params.avg_rotation_ms() / 2.0
        } else {
            self.seek_ms(distance) + self.params.avg_rotation_ms()
        };
        self.head = req.addr + req.len;
        positioning + self.params.transfer_ms(req.len)
    }

    /// Services a whole batch under `discipline`, returning the outcome.
    pub fn service_batch(&mut self, reqs: &[DiskRequest], discipline: Discipline) -> BatchOutcome {
        let mut ordered: Vec<DiskRequest> = reqs.to_vec();
        if discipline == Discipline::Elevator {
            ordered.sort_by_key(|r| r.addr);
        }
        let mut total_ms = 0.0;
        let mut bytes = 0;
        for r in &ordered {
            total_ms += self.service_one(*r);
            bytes += r.len;
        }
        nvfs_obs::counter_add("disk.requests", ordered.len() as u64);
        nvfs_obs::counter_add("disk.bytes", bytes);
        // Simulated service time in whole µs: f64 arithmetic here is IEEE
        // (add/mul only), so the truncation is identical on every platform.
        nvfs_obs::counter_add("disk.service_us", (total_ms * 1e3) as u64);
        BatchOutcome {
            requests: ordered.len(),
            bytes,
            total_ms,
            transfer_ms: self.params.transfer_ms(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_rng::StdRng;
    use nvfs_rng::{Rng, SeedableRng};

    fn random_batch(n: usize, len: u64, seed: u64) -> Vec<DiskRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        let cap = DiskParams::sprite_era().capacity - len;
        (0..n)
            .map(|_| DiskRequest {
                addr: rng.gen_range(0..cap),
                len,
            })
            .collect()
    }

    #[test]
    fn seek_time_is_monotone_in_distance() {
        let q = DiskQueue::new(DiskParams::sprite_era());
        assert_eq!(q.seek_ms(0), 0.0);
        let near = q.seek_ms(1 << 20);
        let far = q.seek_ms(100 << 20);
        assert!(near > 0.0 && far > near);
        // Never exceeds the max-seek model.
        assert!(q.seek_ms(u64::MAX) <= 2.0 * 16.0 - 3.0 + 1e-9);
    }

    #[test]
    fn contiguous_requests_pay_no_positioning() {
        let mut q = DiskQueue::new(DiskParams::sprite_era());
        let t1 = q.service_one(DiskRequest { addr: 0, len: 4096 });
        let t2 = q.service_one(DiskRequest {
            addr: 4096,
            len: 4096,
        });
        assert!(t2 < t1 || (t1 - t2).abs() < 1e-9);
        assert_eq!(t2, q.params.transfer_ms(4096));
    }

    #[test]
    fn random_4k_writes_waste_bandwidth() {
        // The paper's cited number: ~7% utilization for random block writes.
        let mut q = DiskQueue::new(DiskParams::sprite_era());
        let out = q.service_batch(&random_batch(1000, 4096, 1), Discipline::Fifo);
        let u = out.utilization();
        assert!((0.03..0.12).contains(&u), "random utilization {u}");
    }

    #[test]
    fn sorted_batch_reaches_forty_percent() {
        // "1000 I/O's … buffered and sorted to utilize 40% of the disk
        // bandwidth."
        let mut q = DiskQueue::new(DiskParams::sprite_era());
        let out = q.service_batch(&random_batch(1000, 4096, 1), Discipline::Elevator);
        let u = out.utilization();
        assert!((0.25..0.60).contains(&u), "sorted utilization {u}");
    }

    #[test]
    fn sorting_beats_fifo_severalfold() {
        let batch = random_batch(500, 4096, 7);
        let fifo = DiskQueue::new(DiskParams::sprite_era()).service_batch(&batch, Discipline::Fifo);
        let sorted =
            DiskQueue::new(DiskParams::sprite_era()).service_batch(&batch, Discipline::Elevator);
        assert_eq!(fifo.bytes, sorted.bytes);
        assert!(sorted.total_ms < fifo.total_ms / 2.5);
    }

    #[test]
    fn batch_outcome_accounting() {
        let mut q = DiskQueue::new(DiskParams::sprite_era());
        let out = q.service_batch(&[], Discipline::Fifo);
        assert_eq!(out.requests, 0);
        assert_eq!(out.utilization(), 0.0);
    }
}
