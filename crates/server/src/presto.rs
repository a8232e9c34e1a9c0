//! Server-side NVRAM for synchronous-write protocols (§3).
//!
//! "The Legato Systems Prestoserve board caches NFS server requests in
//! non-volatile memory to reduce the latency of synchronous writes to the
//! file system, and performance improvements of up to 50% have been
//! reported." This module models the three server write disciplines the
//! paper contrasts:
//!
//! * **NFS synchronous** — every client write blocks until the disk has it;
//! * **Prestoserve** — writes complete as soon as they are in server NVRAM,
//!   which drains to disk in sorted batches in the background;
//! * **Sprite delayed** — writes complete on reaching the server's volatile
//!   cache (fast, but unsafe until the delayed write-back runs).

use nvfs_disk::{Discipline, DiskQueue, DiskRequest};
use nvfs_types::SimTime;

/// One synchronous write request arriving at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRequest {
    /// Arrival time.
    pub time: SimTime,
    /// Target disk address (for seek modelling).
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Latency/throughput outcome of servicing a request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// Requests serviced.
    requests: usize,
    /// Mean per-request completion latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Maximum per-request latency in milliseconds.
    pub max_latency_ms: f64,
    /// Total disk busy time in milliseconds.
    pub disk_busy_ms: f64,
    /// Number of disk write accesses issued.
    pub disk_accesses: usize,
}

/// Prestoserve NVRAM capacity in bytes (Prestoserve boards held ~1 MB).
const PRESTO_CAPACITY: u64 = 1 << 20;
/// Time to copy one kilobyte into Prestoserve NVRAM, in milliseconds.
const PRESTO_COPY_MS_PER_KB: f64 = 0.005;
/// Prestoserve drains its buffer once it is this full (fraction of
/// capacity).
const PRESTO_DRAIN_THRESHOLD: f64 = 0.5;

/// Services every request synchronously against the disk, as the NFS
/// protocol demands.
///
/// # Examples
///
/// ```
/// use nvfs_disk::DiskParams;
/// use nvfs_server::presto::{nfs_synchronous, WriteRequest};
/// use nvfs_types::SimTime;
///
/// let reqs = vec![WriteRequest { time: SimTime::ZERO, addr: 0, len: 8192 }];
/// let out = nfs_synchronous(&reqs, DiskParams::sprite_era());
/// assert_eq!(out.disk_accesses, 1);
/// assert!(out.mean_latency_ms > 1.0);
/// ```
pub fn nfs_synchronous(requests: &[WriteRequest], disk: nvfs_disk::DiskParams) -> WriteOutcome {
    let mut q = DiskQueue::new(disk);
    let mut disk_free_ms = 0.0f64; // absolute ms timeline
    let mut total_latency = 0.0;
    let mut max_latency = 0.0f64;
    let mut busy = 0.0;
    for r in requests {
        let arrive_ms = r.time.as_micros() as f64 / 1000.0;
        let start = disk_free_ms.max(arrive_ms);
        let service = q.service_one(DiskRequest {
            addr: r.addr,
            len: r.len,
        });
        busy += service;
        disk_free_ms = start + service;
        let latency = disk_free_ms - arrive_ms;
        total_latency += latency;
        max_latency = max_latency.max(latency);
    }
    WriteOutcome {
        requests: requests.len(),
        mean_latency_ms: if requests.is_empty() {
            0.0
        } else {
            total_latency / requests.len() as f64
        },
        max_latency_ms: max_latency,
        disk_busy_ms: busy,
        disk_accesses: requests.len(),
    }
}

/// Services requests through a Prestoserve-style NVRAM of 1 MB: a request
/// completes once copied into NVRAM; the buffer drains to disk in sorted
/// batches once half full. A request that finds the buffer full stalls
/// until the in-flight drain completes.
pub fn prestoserve(requests: &[WriteRequest], disk: nvfs_disk::DiskParams) -> WriteOutcome {
    let mut q = DiskQueue::new(disk);
    let mut buffered: Vec<DiskRequest> = Vec::new();
    let mut buffered_bytes = 0u64;
    let mut disk_free_ms = 0.0f64;
    let mut total_latency = 0.0;
    let mut max_latency = 0.0f64;
    let mut busy = 0.0;
    let mut accesses = 0usize;

    let drain = |q: &mut DiskQueue,
                 buffered: &mut Vec<DiskRequest>,
                 now: f64,
                 disk_free: &mut f64|
     -> f64 {
        if buffered.is_empty() {
            return 0.0;
        }
        let out = q.service_batch(buffered, Discipline::Elevator);
        buffered.clear();
        let start = disk_free.max(now);
        *disk_free = start + out.total_ms;
        out.total_ms
    };

    for r in requests {
        let arrive_ms = r.time.as_micros() as f64 / 1000.0;
        let mut latency = PRESTO_COPY_MS_PER_KB * (r.len as f64 / 1024.0);
        if buffered_bytes + r.len > PRESTO_CAPACITY {
            // Stall until the oldest drain completes, then flush.
            let t = drain(&mut q, &mut buffered, arrive_ms, &mut disk_free_ms);
            busy += t;
            accesses += 1;
            buffered_bytes = 0;
            latency += (disk_free_ms - arrive_ms).max(0.0);
        }
        buffered.push(DiskRequest {
            addr: r.addr,
            len: r.len,
        });
        buffered_bytes += r.len;
        if buffered_bytes as f64 >= PRESTO_CAPACITY as f64 * PRESTO_DRAIN_THRESHOLD
            && disk_free_ms <= arrive_ms
        {
            // Disk is idle: start a background drain.
            let t = drain(&mut q, &mut buffered, arrive_ms, &mut disk_free_ms);
            busy += t;
            accesses += 1;
            buffered_bytes = 0;
        }
        total_latency += latency;
        max_latency = max_latency.max(latency);
    }
    if !buffered.is_empty() {
        let t = drain(&mut q, &mut buffered, disk_free_ms, &mut disk_free_ms);
        busy += t;
        accesses += 1;
    }
    WriteOutcome {
        requests: requests.len(),
        mean_latency_ms: if requests.is_empty() {
            0.0
        } else {
            total_latency / requests.len() as f64
        },
        max_latency_ms: max_latency,
        disk_busy_ms: busy,
        disk_accesses: accesses,
    }
}

/// Services requests the Sprite way: a write completes as soon as it is in
/// the server's volatile cache (a fixed memory-copy latency); dirty data is
/// written to disk in sorted batches by the delayed write-back. Fast like
/// Prestoserve, but the buffered data is vulnerable until the flush — the
/// §3 trade-off between NFS's safety and Sprite's speed that server NVRAM
/// resolves.
pub fn sprite_delayed(
    requests: &[WriteRequest],
    disk: nvfs_disk::DiskParams,
    batch_bytes: u64,
) -> WriteOutcome {
    let mut q = DiskQueue::new(disk);
    let mut buffered: Vec<DiskRequest> = Vec::new();
    let mut buffered_bytes = 0u64;
    let mut busy = 0.0;
    let mut accesses = 0usize;
    let mut total_latency = 0.0;
    let mut max_latency = 0.0f64;
    for r in requests {
        // Memory-copy latency only; permanence is NOT guaranteed.
        let latency = 0.01 + r.len as f64 / 1.0e6; // ~1 GB/s copy
        total_latency += latency;
        max_latency = max_latency.max(latency);
        buffered.push(DiskRequest {
            addr: r.addr,
            len: r.len,
        });
        buffered_bytes += r.len;
        if buffered_bytes >= batch_bytes {
            let out = q.service_batch(&buffered, Discipline::Elevator);
            busy += out.total_ms;
            accesses += 1;
            buffered.clear();
            buffered_bytes = 0;
        }
    }
    if !buffered.is_empty() {
        let out = q.service_batch(&buffered, Discipline::Elevator);
        busy += out.total_ms;
        accesses += 1;
    }
    WriteOutcome {
        requests: requests.len(),
        mean_latency_ms: if requests.is_empty() {
            0.0
        } else {
            total_latency / requests.len() as f64
        },
        max_latency_ms: max_latency,
        disk_busy_ms: busy,
        disk_accesses: accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_disk::DiskParams;
    use nvfs_rng::StdRng;
    use nvfs_rng::{Rng, SeedableRng};

    fn workload(n: usize, gap_ms: u64, len: u64) -> Vec<WriteRequest> {
        let mut rng = StdRng::seed_from_u64(42);
        (0..n)
            .map(|i| WriteRequest {
                time: SimTime::from_millis(i as u64 * gap_ms),
                addr: rng.gen_range(0..(250u64 << 20)),
                len,
            })
            .collect()
    }

    #[test]
    fn nvram_collapses_synchronous_latency() {
        let reqs = workload(500, 40, 8192);
        let disk = DiskParams::sprite_era();
        let nfs = nfs_synchronous(&reqs, disk);
        let presto = prestoserve(&reqs, disk);
        // The paper reports "up to 50%" end-to-end gains; per-write latency
        // improves by far more than that.
        assert!(
            presto.mean_latency_ms < nfs.mean_latency_ms * 0.5,
            "nfs {:.2} ms vs presto {:.2} ms",
            nfs.mean_latency_ms,
            presto.mean_latency_ms
        );
    }

    #[test]
    fn nvram_reduces_disk_busy_time() {
        let reqs = workload(500, 40, 8192);
        let disk = DiskParams::sprite_era();
        let nfs = nfs_synchronous(&reqs, disk);
        let presto = prestoserve(&reqs, disk);
        assert!(presto.disk_busy_ms < nfs.disk_busy_ms);
        assert!(presto.disk_accesses < nfs.disk_accesses);
    }

    #[test]
    fn overload_stalls_but_completes() {
        // Requests arrive far faster than the disk drains: the buffer fills
        // and writes stall, but everything is serviced.
        let reqs = workload(2000, 0, 16 << 10);
        let disk = DiskParams::sprite_era();
        let presto = prestoserve(&reqs, disk);
        assert_eq!(presto.requests, 2000);
        assert!(presto.max_latency_ms > presto.mean_latency_ms);
        assert!(presto.disk_accesses > 1);
    }

    #[test]
    fn sprite_delayed_is_fast_but_unsafe() {
        let reqs = workload(500, 40, 8192);
        let disk = DiskParams::sprite_era();
        let sprite = sprite_delayed(&reqs, disk, 1 << 20);
        let nfs = nfs_synchronous(&reqs, disk);
        let presto = prestoserve(&reqs, disk);
        // Sprite's latency is on par with Prestoserve (both are memory
        // copies) and far below synchronous NFS…
        assert!(sprite.mean_latency_ms < nfs.mean_latency_ms / 10.0);
        assert!(sprite.mean_latency_ms < 1.0);
        // …and its batched flushes use the disk as efficiently.
        assert!(sprite.disk_busy_ms <= nfs.disk_busy_ms);
        assert!(sprite.disk_accesses <= presto.disk_accesses * 2);
    }

    #[test]
    fn empty_stream() {
        let disk = DiskParams::sprite_era();
        let out = prestoserve(&[], disk);
        assert_eq!(out.requests, 0);
        assert_eq!(out.mean_latency_ms, 0.0);
        assert_eq!(out.disk_accesses, 0);
    }
}
