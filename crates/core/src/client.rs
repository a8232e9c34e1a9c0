//! Per-client cache behaviour for the three cache models of §2.1/Figure 1.
//!
//! * **Volatile** — one LRU cache; dirty data is flushed by the 30-second
//!   delayed write-back (driven by [`ClientCache::writeback_older_than`])
//!   and by `fsync`; replacement is strict LRU with no preference for
//!   dirty blocks.
//! * **Write-aside** — the NVRAM shadows every dirty block of the volatile
//!   cache. It is written, never read (except after a crash). There is no
//!   30-second write-back and `fsync` is a no-op: NVRAM contents are as
//!   permanent as disk. When the NVRAM fills, the replacement policy picks
//!   a dirty block to send to the server; the copy in the volatile cache
//!   becomes clean.
//! * **Unified** — dirty blocks live *only* in the NVRAM; clean blocks may
//!   live in either memory. Writes go to the NVRAM, reads are served from
//!   either. When a write replaces an NVRAM block, the victim is flushed
//!   (if dirty) and demoted to the volatile cache as a clean copy when it
//!   is younger than the volatile LRU block.

use nvfs_nvram::NvramDevice;
use nvfs_types::{blocks_of_range, BlockId, ByteRange, ClientId, FileId, SimTime, BLOCK_SIZE};

use crate::block_store::{BlockEntry, BlockStore};
use crate::config::{CacheModelKind, SimConfig};
use crate::metrics::TrafficStats;
use crate::policy::Policy;

/// Why bytes were written from a client cache to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The 30-second delayed write-back (volatile model only).
    WriteBack,
    /// A dirty block was replaced to make room.
    Replacement,
    /// The consistency protocol recalled the data (or disabled caching).
    Callback,
    /// A process migrated away.
    Migration,
    /// An application fsync (volatile model only; NVRAM models treat
    /// NVRAM contents as already permanent).
    Fsync,
    /// A recovery agent drained a relocated NVRAM board after a client
    /// crash (§4).
    Recovery,
}

impl FlushCause {
    /// Stable lowercase label (trace events, reports).
    pub fn label(self) -> &'static str {
        match self {
            FlushCause::WriteBack => "write-back",
            FlushCause::Replacement => "replacement",
            FlushCause::Callback => "callback",
            FlushCause::Migration => "migration",
            FlushCause::Fsync => "fsync",
            FlushCause::Recovery => "recovery",
        }
    }
}

/// One write from a client cache to the file server, with its cause —
/// the event stream a server-side simulation (e.g. the LFS study) can
/// consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerWrite {
    /// When the bytes left the client.
    pub time: SimTime,
    /// The client that wrote them.
    pub client: ClientId,
    /// The file they belong to.
    pub file: FileId,
    /// Number of bytes.
    pub bytes: u64,
    /// Why they were flushed.
    pub cause: FlushCause,
}

/// One client workstation's cache state.
#[derive(Debug, Clone)]
pub struct ClientCache {
    model: CacheModelKind,
    dirty_preference: bool,
    client: ClientId,
    volatile: BlockStore,
    nvram: BlockStore,
    policy: Policy,
    device: NvramDevice,
    log: Vec<ServerWrite>,
    /// While a network partition severs this client's link, bytes the
    /// model is *forced* to push to the server are shed here instead of
    /// reaching the write log — the paper's degraded-mode loss (§2.3).
    severed: bool,
    shed_log: Vec<ServerWrite>,
    /// Reused buffer for per-tick dirty-block scans (cleaner hot path).
    scratch_blocks: Vec<BlockId>,
}

impl ClientCache {
    /// Creates an empty cache for `client` per `config`.
    pub fn new(config: &SimConfig, policy: Policy, client: ClientId) -> Self {
        ClientCache {
            model: config.model,
            dirty_preference: config.dirty_preference,
            client,
            volatile: BlockStore::new(config.volatile_blocks()),
            nvram: policy.new_store(config.nvram_blocks()),
            policy,
            device: NvramDevice::new(),
            log: Vec::new(),
            severed: false,
            shed_log: Vec::new(),
            scratch_blocks: Vec::new(),
        }
    }

    /// Removes and returns the log of writes this cache sent to the server.
    pub fn take_server_writes(&mut self) -> Vec<ServerWrite> {
        std::mem::take(&mut self.log)
    }

    /// Marks this client's server link as severed (network partition) or
    /// healed. While severed, forced server flushes are shed.
    pub fn set_severed(&mut self, severed: bool) {
        self.severed = severed;
    }

    /// Whether the server link is currently severed.
    pub fn severed(&self) -> bool {
        self.severed
    }

    /// Removes and returns the writes shed while the link was severed.
    pub fn take_shed_writes(&mut self) -> Vec<ServerWrite> {
        std::mem::take(&mut self.shed_log)
    }

    /// Clears every accumulated counter (write log, shed log and NVRAM
    /// device counters) without touching cache contents — used by warm-up
    /// runs.
    pub fn reset_counters(&mut self) {
        self.log.clear();
        self.shed_log.clear();
        self.device.reset_counters();
    }

    /// Dirty ranges currently resident in the NVRAM store, in block order
    /// (crash-survivable state; see [`crate::recovery`]).
    ///
    /// Yields borrows of the per-block range sets rather than cloning and
    /// merging them — consumers (the recovery board) already merge ranges
    /// on insert, so grouping here would only allocate.
    pub(crate) fn nvram_dirty_by_file(
        &self,
    ) -> impl Iterator<Item = (FileId, &nvfs_types::RangeSet)> {
        self.nvram
            .iter()
            .filter(|(_, entry)| entry.is_dirty())
            .map(|(id, entry)| (id.file, &entry.dirty))
    }

    /// The NVRAM device (access counters).
    pub fn device(&self) -> &NvramDevice {
        &self.device
    }

    /// Dirty bytes still cached (counted once, even for write-aside where
    /// the NVRAM mirrors the volatile cache).
    pub fn remaining_dirty_bytes(&self) -> u64 {
        match self.model {
            CacheModelKind::Volatile | CacheModelKind::WriteAside => {
                self.volatile.total_dirty_bytes()
            }
            CacheModelKind::Unified => self.nvram.total_dirty_bytes(),
            CacheModelKind::Hybrid => {
                self.volatile.total_dirty_bytes() + self.nvram.total_dirty_bytes()
            }
        }
    }

    /// Application read of `range`. Accounts hits, misses and fetches.
    pub fn read(&mut self, file: FileId, range: ByteRange, t: SimTime, stats: &mut TrafficStats) {
        for block in blocks_of_range(file, range) {
            match self.model {
                CacheModelKind::Volatile | CacheModelKind::WriteAside => {
                    if self.volatile.contains(block) {
                        self.volatile.touch(block, t);
                        stats.read_hit_blocks += 1;
                    } else {
                        stats.read_miss_blocks += 1;
                        stats.server_read_bytes += BLOCK_SIZE;
                        self.make_room_volatile(t, stats);
                        self.volatile.insert(block, t);
                    }
                }
                CacheModelKind::Unified | CacheModelKind::Hybrid => {
                    if self.nvram.contains(block) {
                        self.nvram.touch(block, t);
                        let span = block
                            .byte_range()
                            .intersection(range)
                            .map_or(0, ByteRange::len);
                        self.device.record_read(span);
                        stats.read_hit_blocks += 1;
                    } else if self.volatile.contains(block) {
                        self.volatile.touch(block, t);
                        stats.read_hit_blocks += 1;
                    } else {
                        stats.read_miss_blocks += 1;
                        stats.server_read_bytes += BLOCK_SIZE;
                        self.place_clean_block(block, t, stats);
                    }
                }
            }
        }
    }

    /// Application write of `range`. Accounts bus traffic, NVRAM accesses,
    /// dirty deaths by overwrite, and any replacement flushes.
    pub fn write(&mut self, file: FileId, range: ByteRange, t: SimTime, stats: &mut TrafficStats) {
        for block in blocks_of_range(file, range) {
            let sub = block
                .byte_range()
                .intersection(range)
                .expect("blocks_of_range yields intersecting blocks");
            match self.model {
                CacheModelKind::Volatile => self.write_volatile(block, sub, t, stats),
                CacheModelKind::WriteAside => self.write_aside(block, sub, t, stats),
                CacheModelKind::Unified => self.write_unified(block, sub, t, stats),
                CacheModelKind::Hybrid => self.write_hybrid(block, sub, t, stats),
            }
        }
    }

    fn write_volatile(
        &mut self,
        block: BlockId,
        sub: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        self.ensure_volatile_block(block, sub, t, stats);
        let out = self.volatile.mark_dirty(block, sub, t);
        stats.overwritten_dead_bytes += out.overwritten;
        stats.bus_bytes += sub.len();
    }

    fn write_aside(
        &mut self,
        block: BlockId,
        sub: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        self.ensure_volatile_block(block, sub, t, stats);
        let out = self.volatile.mark_dirty(block, sub, t);
        stats.overwritten_dead_bytes += out.overwritten;
        // Duplicate the write into the NVRAM.
        if !self.nvram.contains(block) {
            if self.nvram.is_full() {
                self.replace_nvram_write_aside(t, stats);
            }
            self.nvram.insert(block, t);
        }
        self.nvram.mark_dirty(block, sub, t);
        self.device.record_write(sub.len());
        stats.bus_bytes += 2 * sub.len();
    }

    fn write_unified(
        &mut self,
        block: BlockId,
        sub: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        let whole = sub == block.byte_range();
        if self.nvram.contains(block) {
            // Fast path: block already in NVRAM.
        } else if self.volatile.contains(block) {
            // Rare path (§2.6, "less than one percent of write events"):
            // promote the clean copy into the NVRAM and update it there.
            self.volatile.remove(block);
            self.ensure_nvram_space(t, stats);
            self.nvram.insert(block, t);
            if !whole {
                // The block's existing contents travel over the bus.
                stats.bus_bytes += BLOCK_SIZE;
                self.device.record_write(BLOCK_SIZE);
            }
        } else {
            if !whole {
                // Partial write to an uncached block: read-modify-write.
                stats.server_read_bytes += BLOCK_SIZE;
                self.device.record_write(BLOCK_SIZE);
            }
            self.ensure_nvram_space(t, stats);
            self.nvram.insert(block, t);
        }
        let out = self.nvram.mark_dirty(block, sub, t);
        stats.overwritten_dead_bytes += out.overwritten;
        self.device.record_write(sub.len());
        stats.bus_bytes += sub.len();
    }

    /// Hybrid write (§2.6 sketch): if the block already migrated to NVRAM
    /// it is updated there (still permanent); otherwise it is written into
    /// the volatile cache exactly like the volatile model — the whole cache
    /// absorbs write bursts, at the cost of a 30-second vulnerability
    /// window before the write-back migrates the data to NVRAM.
    fn write_hybrid(
        &mut self,
        block: BlockId,
        sub: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        if self.nvram.contains(block) {
            let out = self.nvram.mark_dirty(block, sub, t);
            stats.overwritten_dead_bytes += out.overwritten;
            self.device.record_write(sub.len());
            stats.bus_bytes += sub.len();
            return;
        }
        self.write_volatile(block, sub, t, stats);
    }

    /// Hybrid 30-second write-back: aged dirty blocks migrate from the
    /// volatile cache into the NVRAM (becoming permanent with no server
    /// traffic) instead of being flushed to the server.
    fn age_into_nvram(&mut self, cutoff: SimTime, t: SimTime, stats: &mut TrafficStats) {
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        self.volatile.dirty_older_than_into(cutoff, &mut blocks);
        for &b in &blocks {
            let entry = self.volatile.remove(b).expect("dirty block is cached");
            stats.aged_into_nvram_bytes += entry.dirty_bytes();
            self.ensure_nvram_space(t, stats);
            self.nvram.insert_with_state(
                b,
                entry.last_access,
                entry.last_modify,
                entry.dirty,
                entry.dirty_since,
            );
            self.device.record_write(BLOCK_SIZE);
            stats.bus_bytes += BLOCK_SIZE;
        }
        self.scratch_blocks = blocks;
    }

    /// Makes sure `block` is resident in the volatile cache, fetching it
    /// from the server first when a partial write would otherwise lose
    /// bytes (read-modify-write).
    fn ensure_volatile_block(
        &mut self,
        block: BlockId,
        sub: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        if self.volatile.contains(block) {
            return;
        }
        if sub != block.byte_range() {
            stats.server_read_bytes += BLOCK_SIZE;
        }
        self.make_room_volatile(t, stats);
        self.volatile.insert(block, t);
    }

    /// Evicts the volatile LRU block if the cache is full. Dirty victims
    /// are flushed to the server; in the write-aside model they are also
    /// invalidated in the NVRAM (§2.1).
    fn make_room_volatile(&mut self, t: SimTime, stats: &mut TrafficStats) {
        if !self.volatile.is_full() {
            return;
        }
        // Sprite's real policy prefers clean victims; the paper's simplified
        // models replace strict LRU regardless of dirtiness.
        let victim = if self.dirty_preference {
            self.volatile
                .lru_clean_block()
                .or_else(|| self.volatile.lru_block())
                .expect("full cache is non-empty")
                .0
        } else {
            self.volatile
                .lru_block()
                .expect("full cache is non-empty")
                .0
        };
        let entry = self.volatile.remove(victim).expect("victim is cached");
        if entry.is_dirty() {
            self.flush_bytes(
                victim.file,
                entry.dirty_bytes(),
                FlushCause::Replacement,
                t,
                stats,
            );
            if self.model == CacheModelKind::WriteAside {
                self.nvram.remove(victim);
            }
        }
    }

    /// Write-aside NVRAM replacement: the policy picks a dirty block, it is
    /// written to the server, and the volatile copy becomes clean.
    fn replace_nvram_write_aside(&mut self, t: SimTime, stats: &mut TrafficStats) {
        let victim = self
            .policy
            .pick_victim(&mut self.nvram, t)
            .expect("full NVRAM is non-empty");
        let entry = self.nvram.remove(victim).expect("victim is cached");
        self.flush_bytes(
            victim.file,
            entry.dirty_bytes(),
            FlushCause::Replacement,
            t,
            stats,
        );
        self.volatile.clean(victim);
    }

    /// Unified NVRAM replacement with demotion: flush the victim if dirty,
    /// then keep a clean copy in the volatile cache when the victim is
    /// younger than the volatile LRU block.
    fn ensure_nvram_space(&mut self, t: SimTime, stats: &mut TrafficStats) {
        if !self.nvram.is_full() {
            return;
        }
        let victim = self
            .policy
            .pick_victim(&mut self.nvram, t)
            .expect("full NVRAM is non-empty");
        let entry = self.nvram.remove(victim).expect("victim is cached");
        if entry.is_dirty() {
            self.flush_bytes(
                victim.file,
                entry.dirty_bytes(),
                FlushCause::Replacement,
                t,
                stats,
            );
        }
        if self.volatile.contains(victim) {
            return;
        }
        let demote = if !self.volatile.is_full() {
            true
        } else {
            self.volatile
                .lru_block()
                .is_some_and(|(_, lru_access)| entry.last_access > lru_access)
        };
        if demote {
            if self.volatile.is_full() {
                let (lru, _) = self.volatile.lru_block().expect("full cache is non-empty");
                // Clean by the unified invariant; in the hybrid model the
                // volatile victim may still be dirty and must be flushed.
                let evicted = self.volatile.remove(lru).expect("victim is cached");
                if evicted.is_dirty() {
                    self.flush_bytes(
                        lru.file,
                        evicted.dirty_bytes(),
                        FlushCause::Replacement,
                        t,
                        stats,
                    );
                }
            }
            self.volatile
                .insert_with_access(victim, entry.last_access, entry.last_modify);
            self.device.record_read(BLOCK_SIZE);
            stats.bus_bytes += BLOCK_SIZE;
        }
    }

    /// Unified read-miss placement (§2.1): prefer free volatile space, then
    /// free NVRAM space, else replace the globally least-recently-used of
    /// the two LRU candidates.
    ///
    /// Read-fetch traffic is deliberately *not* counted in `bus_bytes`: the
    /// §2.6 bus comparison concerns the write path (write-aside writes every
    /// block twice), and fetch traffic is common to all models.
    fn place_clean_block(&mut self, block: BlockId, t: SimTime, stats: &mut TrafficStats) {
        if !self.volatile.is_full() {
            self.volatile.insert(block, t);
            return;
        }
        if !self.nvram.is_full() {
            self.nvram.insert(block, t);
            self.device.record_write(BLOCK_SIZE);
            return;
        }
        let vol_lru = self.volatile.lru_block().expect("full cache is non-empty");
        let nv_lru = self.nvram.lru_block().expect("full NVRAM is non-empty");
        if nv_lru.1 < vol_lru.1 {
            // The overall LRU block is in the NVRAM: replace it there. This
            // is how read traffic can evict dirty blocks (§2.5).
            let entry = self.nvram.remove(nv_lru.0).expect("victim is cached");
            nvfs_obs::event("cache_evict", t.as_micros())
                .u64("client", self.client.0 as u64)
                .u64("file", nv_lru.0.file.0 as u64)
                .u64("dirty", entry.is_dirty() as u64)
                .emit();
            if entry.is_dirty() {
                self.flush_bytes(
                    nv_lru.0.file,
                    entry.dirty_bytes(),
                    FlushCause::Replacement,
                    t,
                    stats,
                );
            }
            self.nvram.insert(block, t);
            self.device.record_write(BLOCK_SIZE);
        } else {
            let evicted = self.volatile.remove(vol_lru.0).expect("victim is cached");
            nvfs_obs::event("cache_evict", t.as_micros())
                .u64("client", self.client.0 as u64)
                .u64("file", vol_lru.0.file.0 as u64)
                .u64("dirty", evicted.is_dirty() as u64)
                .emit();
            if evicted.is_dirty() {
                // Hybrid only: volatile blocks can be dirty.
                self.flush_bytes(
                    vol_lru.0.file,
                    evicted.dirty_bytes(),
                    FlushCause::Replacement,
                    t,
                    stats,
                );
            }
            self.volatile.insert(block, t);
        }
    }

    /// Flushes all dirty bytes of `file` to the server (consistency recall,
    /// migration, fsync, …). Blocks stay cached; in the write-aside model
    /// the now-clean blocks leave the NVRAM.
    pub fn flush_file(
        &mut self,
        file: FileId,
        cause: FlushCause,
        t: SimTime,
        stats: &mut TrafficStats,
    ) -> u64 {
        let mut flushed = 0;
        match self.model {
            CacheModelKind::Volatile => {
                for b in self.volatile.file_blocks(file) {
                    flushed += self.volatile.clean(b);
                }
            }
            CacheModelKind::WriteAside => {
                for b in self.nvram.file_blocks(file) {
                    flushed += self.nvram.clean(b);
                    self.nvram.remove(b);
                    self.volatile.clean(b);
                }
            }
            CacheModelKind::Unified => {
                for b in self.nvram.file_blocks(file) {
                    flushed += self.nvram.clean(b);
                }
            }
            CacheModelKind::Hybrid => {
                for b in self.volatile.file_blocks(file) {
                    flushed += self.volatile.clean(b);
                }
                for b in self.nvram.file_blocks(file) {
                    flushed += self.nvram.clean(b);
                }
            }
        }
        self.flush_bytes(file, flushed, cause, t, stats);
        flushed
    }

    /// Flushes the dirty bytes of the blocks of `file` that intersect
    /// `range` (block-on-demand consistency: only the data another client
    /// is about to read is recalled). Returns the bytes flushed.
    pub fn flush_range(
        &mut self,
        file: FileId,
        range: ByteRange,
        cause: FlushCause,
        t: SimTime,
        stats: &mut TrafficStats,
    ) -> u64 {
        let mut flushed = 0;
        for block in blocks_of_range(file, range) {
            match self.model {
                CacheModelKind::Volatile => flushed += self.volatile.clean(block),
                CacheModelKind::WriteAside => {
                    let n = self.nvram.clean(block);
                    if n > 0 {
                        self.nvram.remove(block);
                        self.volatile.clean(block);
                        flushed += n;
                    }
                }
                CacheModelKind::Unified => flushed += self.nvram.clean(block),
                CacheModelKind::Hybrid => {
                    flushed += self.volatile.clean(block);
                    flushed += self.nvram.clean(block);
                }
            }
        }
        self.flush_bytes(file, flushed, cause, t, stats);
        flushed
    }

    /// Drops the cached blocks of `file` intersecting `range` (stale-copy
    /// invalidation for block-on-demand consistency). Dirty bytes in the
    /// dropped blocks are flushed first.
    pub fn invalidate_range(
        &mut self,
        file: FileId,
        range: ByteRange,
        cause: FlushCause,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        self.flush_range(file, range, cause, t, stats);
        for block in blocks_of_range(file, range) {
            self.volatile.remove(block);
            self.nvram.remove(block);
        }
    }

    /// Flushes dirty data and drops every cached block of `file` (used when
    /// the server disables caching, and for stale-copy invalidation).
    pub fn invalidate_file(
        &mut self,
        file: FileId,
        cause: FlushCause,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        self.flush_file(file, cause, t, stats);
        for b in self.volatile.file_blocks(file) {
            self.volatile.remove(b);
        }
        for b in self.nvram.file_blocks(file) {
            self.nvram.remove(b);
        }
    }

    /// The file was deleted: every cached byte dies, dirty bytes count as
    /// absorbed deletions, and nothing is written to the server.
    pub fn delete_file(&mut self, file: FileId, stats: &mut TrafficStats) {
        match self.model {
            CacheModelKind::Volatile | CacheModelKind::WriteAside => {
                for b in self.volatile.file_blocks(file) {
                    let entry = self
                        .volatile
                        .remove(b)
                        .expect("file_blocks yields cached blocks");
                    stats.deleted_dead_bytes += entry.dirty_bytes();
                }
                for b in self.nvram.file_blocks(file) {
                    self.nvram.remove(b); // mirror copies: not double counted
                }
            }
            CacheModelKind::Unified => {
                for b in self.nvram.file_blocks(file) {
                    let entry = self
                        .nvram
                        .remove(b)
                        .expect("file_blocks yields cached blocks");
                    stats.deleted_dead_bytes += entry.dirty_bytes();
                }
                for b in self.volatile.file_blocks(file) {
                    self.volatile.remove(b);
                }
            }
            CacheModelKind::Hybrid => {
                for b in self.volatile.file_blocks(file) {
                    let entry = self
                        .volatile
                        .remove(b)
                        .expect("file_blocks yields cached blocks");
                    stats.deleted_dead_bytes += entry.dirty_bytes();
                }
                for b in self.nvram.file_blocks(file) {
                    let entry = self
                        .nvram
                        .remove(b)
                        .expect("file_blocks yields cached blocks");
                    stats.deleted_dead_bytes += entry.dirty_bytes();
                }
            }
        }
    }

    /// The file was truncated to `new_len`: cached blocks wholly beyond the
    /// cut are dropped, the boundary block loses its dirty tail.
    pub fn truncate_file(&mut self, file: FileId, new_len: u64, stats: &mut TrafficStats) {
        let kill = ByteRange::new(new_len, u64::MAX);
        // In the hybrid model a block lives in exactly one store, so dirty
        // deaths are counted in both loops; in write-aside the NVRAM is a
        // mirror and must not be double counted.
        let count_in_volatile = matches!(
            self.model,
            CacheModelKind::Volatile | CacheModelKind::WriteAside | CacheModelKind::Hybrid
        );
        let count_in_nvram = matches!(self.model, CacheModelKind::Unified | CacheModelKind::Hybrid);
        for b in self.volatile.file_blocks(file) {
            if b.byte_range().start >= new_len {
                let entry = self
                    .volatile
                    .remove(b)
                    .expect("file_blocks yields cached blocks");
                if count_in_volatile {
                    stats.deleted_dead_bytes += entry.dirty_bytes();
                }
            } else {
                let killed = self.volatile.kill_dirty(b, kill);
                if count_in_volatile {
                    stats.deleted_dead_bytes += killed;
                }
            }
        }
        for b in self.nvram.file_blocks(file) {
            if b.byte_range().start >= new_len {
                let entry = self
                    .nvram
                    .remove(b)
                    .expect("file_blocks yields cached blocks");
                if count_in_nvram {
                    stats.deleted_dead_bytes += entry.dirty_bytes();
                }
            } else {
                let killed = self.nvram.kill_dirty(b, kill);
                if count_in_nvram {
                    stats.deleted_dead_bytes += killed;
                }
                // Write-aside mirror: clean blocks leave the NVRAM.
                if self.model == CacheModelKind::WriteAside
                    && self.nvram.get(b).is_some_and(|e| !e.is_dirty())
                {
                    self.nvram.remove(b);
                }
            }
        }
    }

    /// Application fsync: in the volatile model this synchronously flushes
    /// the file's dirty data; in the NVRAM models it is a no-op because
    /// NVRAM contents are already permanent (§2.1). Returns whether the
    /// file's dirty data reached the *server* (so the caller knows whether
    /// the server's last-writer record can be cleared).
    pub fn fsync(&mut self, file: FileId, t: SimTime, stats: &mut TrafficStats) -> bool {
        match self.model {
            CacheModelKind::Volatile => {
                self.flush_file(file, FlushCause::Fsync, t, stats);
                return true;
            }
            CacheModelKind::Hybrid => {
                // The data must become permanent now, but NVRAM suffices:
                // migrate the file's dirty volatile blocks without any
                // server traffic.
                for b in self.volatile.file_blocks(file) {
                    let is_dirty = self.volatile.get(b).is_some_and(BlockEntry::is_dirty);
                    if !is_dirty {
                        continue;
                    }
                    let entry = self
                        .volatile
                        .remove(b)
                        .expect("file_blocks yields cached blocks");
                    self.ensure_nvram_space(t, stats);
                    self.nvram.insert_with_state(
                        b,
                        entry.last_access,
                        entry.last_modify,
                        entry.dirty,
                        entry.dirty_since,
                    );
                    self.device.record_write(BLOCK_SIZE);
                    stats.bus_bytes += BLOCK_SIZE;
                }
            }
            // Write-aside and unified: dirty data already lives in NVRAM.
            CacheModelKind::WriteAside | CacheModelKind::Unified => {}
        }
        false
    }

    /// The 30-second delayed write-back (volatile model only): flushes
    /// every block whose dirty data became dirty at or before `cutoff`.
    pub fn writeback_older_than(
        &mut self,
        cutoff: SimTime,
        now: SimTime,
        stats: &mut TrafficStats,
    ) -> Vec<FileId> {
        let mut files = Vec::new();
        self.writeback_older_than_into(cutoff, now, stats, &mut files);
        files
    }

    /// [`Self::writeback_older_than`] into a caller-owned buffer, so the
    /// per-tick cleaner loop allocates nothing. `files` is cleared first
    /// and left holding the flushed file ids, deduplicated.
    pub fn writeback_older_than_into(
        &mut self,
        cutoff: SimTime,
        now: SimTime,
        stats: &mut TrafficStats,
        files: &mut Vec<FileId>,
    ) {
        files.clear();
        if self.model == CacheModelKind::Hybrid {
            self.age_into_nvram(cutoff, now, stats);
            return;
        }
        if self.model != CacheModelKind::Volatile {
            return;
        }
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        self.volatile.dirty_older_than_into(cutoff, &mut blocks);
        for &b in &blocks {
            let bytes = self.volatile.clean(b);
            self.flush_bytes(b.file, bytes, FlushCause::WriteBack, now, stats);
            files.push(b.file);
        }
        self.scratch_blocks = blocks;
        files.dedup();
    }

    /// Whether the next cleaner tick could possibly do work: only the
    /// models with a volatile dirty set (volatile write-back, hybrid
    /// aging) ever act on a tick, and only when dirty blocks exist. The
    /// drive loops use this to fast-forward tick arithmetic over idle
    /// gaps instead of iterating empty ticks.
    pub fn cleaner_pending(&self) -> bool {
        matches!(
            self.model,
            CacheModelKind::Volatile | CacheModelKind::Hybrid
        ) && self.volatile.dirty_block_count() > 0
    }

    fn flush_bytes(
        &mut self,
        file: FileId,
        bytes: u64,
        cause: FlushCause,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        if bytes == 0 {
            return;
        }
        if self.severed && cause != FlushCause::Recovery {
            // Degraded mode: the server is unreachable, so a flush the
            // model cannot defer loses its bytes. The shed log stays out
            // of the write log, traffic stats and obs histograms — these
            // bytes never reached the server.
            self.shed_log.push(ServerWrite {
                time: t,
                client: self.client,
                file,
                bytes,
                cause,
            });
            nvfs_obs::event("write_shed", t.as_micros())
                .str("cause", cause.label())
                .u64("client", self.client.0 as u64)
                .u64("file", file.0 as u64)
                .u64("bytes", bytes)
                .emit();
            return;
        }
        self.log.push(ServerWrite {
            time: t,
            client: self.client,
            file,
            bytes,
            cause,
        });
        stats.server_write_bytes += bytes;
        match cause {
            FlushCause::WriteBack => stats.writeback_bytes += bytes,
            FlushCause::Replacement => stats.replacement_bytes += bytes,
            FlushCause::Callback => stats.callback_bytes += bytes,
            FlushCause::Migration => stats.migration_bytes += bytes,
            FlushCause::Fsync => stats.fsync_bytes += bytes,
            FlushCause::Recovery => stats.recovery_bytes += bytes,
        }
        nvfs_obs::histogram_record("core.flush_bytes", bytes);
        nvfs_obs::event("write_back", t.as_micros())
            .str("cause", cause.label())
            .u64("client", self.client.0 as u64)
            .u64("file", file.0 as u64)
            .u64("bytes", bytes)
            .emit();
    }

    /// Checks internal invariants (for tests): bounded stores, and for the
    /// unified model, no dirty blocks in the volatile cache and no block in
    /// both memories.
    pub fn check_invariants(&self) -> bool {
        if !self.volatile.check_invariants() || !self.nvram.check_invariants() {
            return false;
        }
        match self.model {
            CacheModelKind::Volatile => self.nvram.is_empty(),
            CacheModelKind::WriteAside => self
                .nvram
                .iter()
                .all(|(id, e)| e.is_dirty() && self.volatile.get(id).is_some_and(|v| v.is_dirty())),
            CacheModelKind::Unified => self
                .volatile
                .iter()
                .all(|(id, e)| !e.is_dirty() && !self.nvram.contains(id)),
            CacheModelKind::Hybrid => self.volatile.iter().all(|(id, _)| !self.nvram.contains(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;

    fn cfg(model: CacheModelKind, vol_blocks: u64, nv_blocks: u64) -> SimConfig {
        let mut c = SimConfig::volatile(vol_blocks * BLOCK_SIZE);
        c.model = model;
        c.nvram_bytes = nv_blocks * BLOCK_SIZE;
        c
    }

    fn cache(model: CacheModelKind, vol_blocks: u64, nv_blocks: u64) -> ClientCache {
        ClientCache::new(
            &cfg(model, vol_blocks, nv_blocks),
            Policy::from_kind(PolicyKind::Lru, None),
            ClientId(0),
        )
    }

    fn block_range(i: u64) -> ByteRange {
        ByteRange::at(i * BLOCK_SIZE, BLOCK_SIZE)
    }

    #[test]
    fn volatile_read_miss_then_hit() {
        let mut c = cache(CacheModelKind::Volatile, 4, 0);
        let mut s = TrafficStats::default();
        c.read(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        assert_eq!((s.read_miss_blocks, s.read_hit_blocks), (1, 0));
        assert_eq!(s.server_read_bytes, BLOCK_SIZE);
        c.read(FileId(0), block_range(0), SimTime::from_secs(2), &mut s);
        assert_eq!((s.read_miss_blocks, s.read_hit_blocks), (1, 1));
        assert!(c.check_invariants());
    }

    #[test]
    fn volatile_eviction_flushes_dirty_lru() {
        let mut c = cache(CacheModelKind::Volatile, 2, 0);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.read(FileId(0), block_range(1), SimTime::from_secs(2), &mut s);
        // Cache full; a third block evicts the dirty LRU block 0.
        c.read(FileId(0), block_range(2), SimTime::from_secs(3), &mut s);
        assert_eq!(s.replacement_bytes, BLOCK_SIZE);
        assert_eq!(s.server_write_bytes, BLOCK_SIZE);
        assert!(c.check_invariants());
    }

    #[test]
    fn volatile_partial_write_fetches_block() {
        let mut c = cache(CacheModelKind::Volatile, 4, 0);
        let mut s = TrafficStats::default();
        c.write(
            FileId(0),
            ByteRange::new(0, 100),
            SimTime::from_secs(1),
            &mut s,
        );
        assert_eq!(s.server_read_bytes, BLOCK_SIZE, "read-modify-write fetch");
        let mut s2 = TrafficStats::default();
        c.write(FileId(0), block_range(1), SimTime::from_secs(2), &mut s2);
        assert_eq!(s2.server_read_bytes, 0, "whole-block write needs no fetch");
    }

    #[test]
    fn volatile_overwrite_is_absorbed() {
        let mut c = cache(CacheModelKind::Volatile, 4, 0);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.write(FileId(0), block_range(0), SimTime::from_secs(2), &mut s);
        assert_eq!(s.overwritten_dead_bytes, BLOCK_SIZE);
        assert_eq!(s.server_write_bytes, 0);
    }

    #[test]
    fn volatile_writeback_flushes_old_dirty_data() {
        let mut c = cache(CacheModelKind::Volatile, 4, 0);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.write(FileId(1), block_range(0), SimTime::from_secs(20), &mut s);
        let files = c.writeback_older_than(SimTime::from_secs(5), SimTime::from_secs(35), &mut s);
        assert_eq!(files, vec![FileId(0)]);
        assert_eq!(s.writeback_bytes, BLOCK_SIZE);
        assert_eq!(
            c.remaining_dirty_bytes(),
            BLOCK_SIZE,
            "newer block still dirty"
        );
    }

    #[test]
    fn volatile_fsync_flushes_immediately() {
        let mut c = cache(CacheModelKind::Volatile, 4, 0);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.fsync(FileId(0), SimTime::from_secs(2), &mut s);
        assert_eq!(s.fsync_bytes, BLOCK_SIZE);
        assert_eq!(c.remaining_dirty_bytes(), 0);
    }

    #[test]
    fn write_aside_duplicates_writes() {
        let mut c = cache(CacheModelKind::WriteAside, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        assert_eq!(
            s.bus_bytes,
            2 * BLOCK_SIZE,
            "write-aside doubles bus traffic"
        );
        assert_eq!(c.device().writes(), 1);
        assert!(c.check_invariants());
    }

    #[test]
    fn write_aside_fsync_is_noop() {
        let mut c = cache(CacheModelKind::WriteAside, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.fsync(FileId(0), SimTime::from_secs(2), &mut s);
        assert_eq!(s.fsync_bytes, 0);
        assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE);
    }

    #[test]
    fn write_aside_nvram_overflow_cleans_volatile_copy() {
        let mut c = cache(CacheModelKind::WriteAside, 8, 2);
        let mut s = TrafficStats::default();
        for i in 0..3 {
            c.write(FileId(0), block_range(i), SimTime::from_secs(i + 1), &mut s);
        }
        // NVRAM holds 2 blocks; the third write replaced the LRU dirty
        // block, which was written to the server and stays clean in the
        // volatile cache.
        assert_eq!(s.replacement_bytes, BLOCK_SIZE);
        assert_eq!(c.remaining_dirty_bytes(), 2 * BLOCK_SIZE);
        assert!(c.check_invariants());
    }

    #[test]
    fn write_aside_nvram_never_read() {
        let mut c = cache(CacheModelKind::WriteAside, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.read(FileId(0), block_range(0), SimTime::from_secs(2), &mut s);
        assert_eq!(c.device().reads(), 0);
        assert_eq!(s.read_hit_blocks, 1);
    }

    #[test]
    fn unified_dirty_blocks_only_in_nvram() {
        let mut c = cache(CacheModelKind::Unified, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.read(FileId(1), block_range(0), SimTime::from_secs(2), &mut s);
        assert!(c.check_invariants());
        assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE);
    }

    #[test]
    fn unified_reads_hit_nvram() {
        let mut c = cache(CacheModelKind::Unified, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.read(FileId(0), block_range(0), SimTime::from_secs(2), &mut s);
        assert_eq!(s.read_hit_blocks, 1);
        assert!(c.device().reads() >= 1, "unified serves reads from NVRAM");
    }

    #[test]
    fn unified_replacement_demotes_to_volatile() {
        let mut c = cache(CacheModelKind::Unified, 4, 1);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        // Second dirty block forces replacement of the first: flushed to
        // the server and demoted into the (non-full) volatile cache.
        c.write(FileId(0), block_range(1), SimTime::from_secs(2), &mut s);
        assert_eq!(s.replacement_bytes, BLOCK_SIZE);
        // The demoted block is now a clean volatile hit.
        c.read(FileId(0), block_range(0), SimTime::from_secs(3), &mut s);
        assert_eq!(s.read_hit_blocks, 1);
        assert!(c.check_invariants());
    }

    #[test]
    fn unified_promotion_on_partial_write_to_clean_block() {
        let mut c = cache(CacheModelKind::Unified, 4, 2);
        let mut s = TrafficStats::default();
        c.read(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        let bus_before = s.bus_bytes;
        c.write(
            FileId(0),
            ByteRange::new(0, 100),
            SimTime::from_secs(2),
            &mut s,
        );
        // Promotion transfers the whole block plus the 100 app bytes.
        assert_eq!(s.bus_bytes - bus_before, BLOCK_SIZE + 100);
        assert!(c.check_invariants());
        assert_eq!(c.remaining_dirty_bytes(), 100);
    }

    #[test]
    fn delete_absorbs_dirty_bytes() {
        for model in [
            CacheModelKind::Volatile,
            CacheModelKind::WriteAside,
            CacheModelKind::Unified,
        ] {
            let mut c = cache(model, 4, 2);
            let mut s = TrafficStats::default();
            c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
            c.delete_file(FileId(0), &mut s);
            assert_eq!(s.deleted_dead_bytes, BLOCK_SIZE, "{model:?}");
            assert_eq!(s.server_write_bytes, 0, "{model:?}");
            assert_eq!(c.remaining_dirty_bytes(), 0, "{model:?}");
            assert!(c.check_invariants(), "{model:?}");
        }
    }

    #[test]
    fn truncate_kills_tail_dirty_bytes() {
        for model in [
            CacheModelKind::Volatile,
            CacheModelKind::WriteAside,
            CacheModelKind::Unified,
        ] {
            let mut c = cache(model, 8, 4);
            let mut s = TrafficStats::default();
            c.write(
                FileId(0),
                ByteRange::new(0, 3 * BLOCK_SIZE),
                SimTime::from_secs(1),
                &mut s,
            );
            c.truncate_file(FileId(0), BLOCK_SIZE + 100, &mut s);
            assert_eq!(s.deleted_dead_bytes, 2 * BLOCK_SIZE - 100, "{model:?}");
            assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE + 100, "{model:?}");
            assert!(c.check_invariants(), "{model:?}");
        }
    }

    #[test]
    fn flush_file_callback_accounting() {
        for model in [
            CacheModelKind::Volatile,
            CacheModelKind::WriteAside,
            CacheModelKind::Unified,
        ] {
            let mut c = cache(model, 4, 2);
            let mut s = TrafficStats::default();
            c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
            let flushed = c.flush_file(
                FileId(0),
                FlushCause::Callback,
                SimTime::from_secs(2),
                &mut s,
            );
            assert_eq!(flushed, BLOCK_SIZE, "{model:?}");
            assert_eq!(s.callback_bytes, BLOCK_SIZE, "{model:?}");
            assert_eq!(c.remaining_dirty_bytes(), 0, "{model:?}");
            assert!(c.check_invariants(), "{model:?}");
        }
    }

    #[test]
    fn hybrid_write_stays_volatile_then_ages_into_nvram() {
        let mut c = cache(CacheModelKind::Hybrid, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE);
        // The 30-second write-back migrates it to NVRAM — no server write.
        c.writeback_older_than(SimTime::from_secs(5), SimTime::from_secs(35), &mut s);
        assert_eq!(s.server_write_bytes, 0);
        assert_eq!(s.aged_into_nvram_bytes, BLOCK_SIZE);
        assert_eq!(
            c.remaining_dirty_bytes(),
            BLOCK_SIZE,
            "still dirty, now permanent"
        );
        assert!(c.check_invariants());
        // A later write to the migrated block updates it in NVRAM.
        c.write(FileId(0), block_range(0), SimTime::from_secs(40), &mut s);
        assert_eq!(s.overwritten_dead_bytes, BLOCK_SIZE);
        assert_eq!(s.server_write_bytes, 0);
        assert!(c.check_invariants());
    }

    #[test]
    fn hybrid_fsync_migrates_without_server_traffic() {
        let mut c = cache(CacheModelKind::Hybrid, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.fsync(FileId(0), SimTime::from_secs(2), &mut s);
        assert_eq!(s.fsync_bytes, 0);
        assert_eq!(s.server_write_bytes, 0);
        assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE);
        assert!(c.device().writes() >= 1);
        assert!(c.check_invariants());
    }

    #[test]
    fn hybrid_read_hits_migrated_blocks() {
        let mut c = cache(CacheModelKind::Hybrid, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.writeback_older_than(SimTime::from_secs(5), SimTime::from_secs(35), &mut s);
        c.read(FileId(0), block_range(0), SimTime::from_secs(40), &mut s);
        assert_eq!(s.read_hit_blocks, 1);
        assert!(c.device().reads() >= 1);
    }

    #[test]
    fn dirty_preference_spares_dirty_blocks() {
        let cfg_pref = cfg(CacheModelKind::Volatile, 2, 0).with_dirty_preference();
        let mut c = ClientCache::new(
            &cfg_pref,
            Policy::from_kind(PolicyKind::Lru, None),
            ClientId(0),
        );
        let mut s = TrafficStats::default();
        // Dirty LRU block plus a newer clean block.
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.read(FileId(0), block_range(1), SimTime::from_secs(2), &mut s);
        // A third block: with dirty preference, the CLEAN (newer) block is
        // evicted and the dirty one survives with no server write.
        c.read(FileId(0), block_range(2), SimTime::from_secs(3), &mut s);
        assert_eq!(s.server_write_bytes, 0);
        assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE);
        // Without the preference, the dirty LRU block would be flushed.
        let mut base = cache(CacheModelKind::Volatile, 2, 0);
        let mut s2 = TrafficStats::default();
        base.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s2);
        base.read(FileId(0), block_range(1), SimTime::from_secs(2), &mut s2);
        base.read(FileId(0), block_range(2), SimTime::from_secs(3), &mut s2);
        assert_eq!(s2.replacement_bytes, BLOCK_SIZE);
    }

    #[test]
    fn invalidate_drops_blocks_after_flush() {
        let mut c = cache(CacheModelKind::Unified, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        c.invalidate_file(
            FileId(0),
            FlushCause::Callback,
            SimTime::from_secs(2),
            &mut s,
        );
        assert_eq!(s.callback_bytes, BLOCK_SIZE);
        // A re-read misses.
        c.read(FileId(0), block_range(0), SimTime::from_secs(2), &mut s);
        assert_eq!(s.read_miss_blocks, 1);
    }
}
