//! Traffic counters.
//!
//! These are the quantities the paper's simulator reports (§2.2): bytes
//! read and written by applications, bytes transferred to and from the file
//! server broken down by cause, dead bytes absorbed by the caches, memory
//! bus traffic, and NVRAM access counts. Figures 2–6 are all derived from
//! these counters.

use std::ops::AddAssign;

/// Aggregated traffic statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes read by applications.
    pub app_read_bytes: u64,
    /// Bytes written by applications.
    pub app_write_bytes: u64,
    /// Bytes fetched from the server into client caches (whole blocks).
    pub server_read_bytes: u64,
    /// Bytes written from client caches to the server, all causes.
    pub server_write_bytes: u64,
    /// …of which: written by the 30-second delayed write-back.
    pub writeback_bytes: u64,
    /// …of which: written because a dirty block was replaced.
    pub replacement_bytes: u64,
    /// …of which: recalled by the consistency protocol (including flushes
    /// when caching is disabled for a file).
    pub callback_bytes: u64,
    /// …of which: flushed because a process migrated.
    pub migration_bytes: u64,
    /// …of which: forced by application fsync.
    pub fsync_bytes: u64,
    /// …of which: drained from a relocated NVRAM board by a recovery
    /// agent after a client crash (§4).
    pub recovery_bytes: u64,
    /// Bytes written straight through to the server while caching was
    /// disabled by concurrent write-sharing.
    pub concurrent_write_bytes: u64,
    /// Bytes read straight from the server while caching was disabled.
    pub(crate) concurrent_read_bytes: u64,
    /// Dirty bytes still cached when the trace ended (the paper counts
    /// these as eventual write traffic, making its figures pessimistic).
    pub remaining_dirty_bytes: u64,
    /// Dirty bytes that died in the cache by being overwritten.
    pub overwritten_dead_bytes: u64,
    /// Dirty bytes that died in the cache by deletion or truncation.
    pub deleted_dead_bytes: u64,
    /// Client memory-bus bytes moved for file data (writes into caches,
    /// write-aside duplication, unified promotion/demotion transfers).
    pub bus_bytes: u64,
    /// NVRAM read accesses.
    pub nvram_reads: u64,
    /// NVRAM write accesses.
    pub nvram_writes: u64,
    /// Bytes moved through the NVRAM.
    pub nvram_bytes: u64,
    /// Hybrid model only: dirty bytes that aged past the write-back delay
    /// in the volatile cache before migrating to NVRAM — the bytes that
    /// were vulnerable to a crash for the full 30-second window.
    pub aged_into_nvram_bytes: u64,
    /// Read block requests that hit a client cache.
    pub read_hit_blocks: u64,
    /// Read block requests that missed and went to the server.
    pub read_miss_blocks: u64,
}

impl TrafficStats {
    /// Net write traffic as a percentage of application writes, counting
    /// bytes still dirty at the end of the trace (the paper's convention
    /// for Figures 2–4).
    pub fn net_write_traffic_pct(&self) -> f64 {
        if self.app_write_bytes == 0 {
            return 0.0;
        }
        100.0
            * (self.server_write_bytes + self.concurrent_write_bytes + self.remaining_dirty_bytes)
                as f64
            / self.app_write_bytes as f64
    }

    /// Net total (read + write) traffic as a percentage of application
    /// traffic (the paper's convention for Figures 5–6).
    pub fn net_total_traffic_pct(&self) -> f64 {
        let app = self.app_read_bytes + self.app_write_bytes;
        if app == 0 {
            return 0.0;
        }
        let server = self.server_read_bytes
            + self.server_write_bytes
            + self.concurrent_read_bytes
            + self.concurrent_write_bytes
            + self.remaining_dirty_bytes;
        100.0 * server as f64 / app as f64
    }

    /// Total bytes the caches absorbed (dirty bytes that died in place).
    pub fn absorbed_bytes(&self) -> u64 {
        self.overwritten_dead_bytes + self.deleted_dead_bytes
    }

    /// Read hit ratio over block requests.
    pub fn read_hit_ratio(&self) -> f64 {
        let total = self.read_hit_blocks + self.read_miss_blocks;
        if total == 0 {
            return 0.0;
        }
        self.read_hit_blocks as f64 / total as f64
    }

    /// Total NVRAM accesses.
    pub fn nvram_accesses(&self) -> u64 {
        self.nvram_reads + self.nvram_writes
    }

    /// Folds this run's totals into the `core.*` counters of the
    /// `nvfs-obs` metrics registry. Called once per completed run (not per
    /// op) so instrumentation stays off the simulator's hot path.
    pub(crate) fn fold_into_obs(&self) {
        use nvfs_obs::counter_add;
        counter_add("core.app_read_bytes", self.app_read_bytes);
        counter_add("core.app_write_bytes", self.app_write_bytes);
        counter_add("core.server_read_bytes", self.server_read_bytes);
        counter_add("core.server_write_bytes", self.server_write_bytes);
        counter_add("core.writeback_bytes", self.writeback_bytes);
        counter_add("core.replacement_bytes", self.replacement_bytes);
        counter_add("core.callback_bytes", self.callback_bytes);
        counter_add("core.migration_bytes", self.migration_bytes);
        counter_add("core.fsync_bytes", self.fsync_bytes);
        counter_add("core.recovery_bytes", self.recovery_bytes);
        counter_add("core.concurrent_write_bytes", self.concurrent_write_bytes);
        counter_add("core.concurrent_read_bytes", self.concurrent_read_bytes);
        counter_add("core.remaining_dirty_bytes", self.remaining_dirty_bytes);
        counter_add("core.overwritten_dead_bytes", self.overwritten_dead_bytes);
        counter_add("core.deleted_dead_bytes", self.deleted_dead_bytes);
        counter_add("core.bus_bytes", self.bus_bytes);
        counter_add("core.nvram_reads", self.nvram_reads);
        counter_add("core.nvram_writes", self.nvram_writes);
        counter_add("core.nvram_bytes", self.nvram_bytes);
        counter_add("core.aged_into_nvram_bytes", self.aged_into_nvram_bytes);
        counter_add("core.read_hit_blocks", self.read_hit_blocks);
        counter_add("core.read_miss_blocks", self.read_miss_blocks);
    }
}

impl AddAssign for TrafficStats {
    fn add_assign(&mut self, o: TrafficStats) {
        self.app_read_bytes += o.app_read_bytes;
        self.app_write_bytes += o.app_write_bytes;
        self.server_read_bytes += o.server_read_bytes;
        self.server_write_bytes += o.server_write_bytes;
        self.writeback_bytes += o.writeback_bytes;
        self.replacement_bytes += o.replacement_bytes;
        self.callback_bytes += o.callback_bytes;
        self.migration_bytes += o.migration_bytes;
        self.fsync_bytes += o.fsync_bytes;
        self.recovery_bytes += o.recovery_bytes;
        self.concurrent_write_bytes += o.concurrent_write_bytes;
        self.concurrent_read_bytes += o.concurrent_read_bytes;
        self.remaining_dirty_bytes += o.remaining_dirty_bytes;
        self.overwritten_dead_bytes += o.overwritten_dead_bytes;
        self.deleted_dead_bytes += o.deleted_dead_bytes;
        self.bus_bytes += o.bus_bytes;
        self.aged_into_nvram_bytes += o.aged_into_nvram_bytes;
        self.nvram_reads += o.nvram_reads;
        self.nvram_writes += o.nvram_writes;
        self.nvram_bytes += o.nvram_bytes;
        self.read_hit_blocks += o.read_hit_blocks;
        self.read_miss_blocks += o.read_miss_blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_write_traffic_includes_remaining() {
        let s = TrafficStats {
            app_write_bytes: 1000,
            server_write_bytes: 300,
            remaining_dirty_bytes: 100,
            ..TrafficStats::default()
        };
        assert_eq!(s.net_write_traffic_pct(), 40.0);
    }

    #[test]
    fn empty_stats_have_zero_percentages() {
        let s = TrafficStats::default();
        assert_eq!(s.net_write_traffic_pct(), 0.0);
        assert_eq!(s.net_total_traffic_pct(), 0.0);
        assert_eq!(s.read_hit_ratio(), 0.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = TrafficStats {
            app_read_bytes: 10,
            nvram_reads: 1,
            ..TrafficStats::default()
        };
        let b = TrafficStats {
            app_read_bytes: 5,
            nvram_writes: 2,
            ..TrafficStats::default()
        };
        a += b;
        assert_eq!(a.app_read_bytes, 15);
        assert_eq!(a.nvram_accesses(), 3);
    }

    #[test]
    fn total_traffic_counts_reads_and_writes() {
        let s = TrafficStats {
            app_read_bytes: 500,
            app_write_bytes: 500,
            server_read_bytes: 200,
            server_write_bytes: 200,
            concurrent_read_bytes: 50,
            concurrent_write_bytes: 50,
            ..TrafficStats::default()
        };
        assert_eq!(s.net_total_traffic_pct(), 50.0);
    }

    #[test]
    fn hit_ratio() {
        let s = TrafficStats {
            read_hit_blocks: 3,
            read_miss_blocks: 1,
            ..TrafficStats::default()
        };
        assert_eq!(s.read_hit_ratio(), 0.75);
    }
}
