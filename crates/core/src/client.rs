//! Per-client cache behaviour for the cache models of §2.1/Figure 1 and
//! the §2.6 hybrid. The models differ only in where they keep dirty data
//! (a `Placement`); every operation has one code path.
//!
//! * **Volatile** — dirty data lives in the volatile cache until the
//!   30-second delayed write-back (driven by
//!   `ClientCache::writeback_older_than_into`) or an `fsync` sends it to
//!   the server; replacement is strict LRU with no preference for dirty
//!   blocks.
//! * **Write-aside** — dirty data lives in the volatile cache, and the
//!   NVRAM mirrors it. The mirror is written, never read (except after a
//!   crash) and never counted. There is no 30-second write-back and
//!   `fsync` is a no-op: NVRAM contents are as permanent as disk. When the
//!   NVRAM fills, the replacement policy picks a dirty block to send to
//!   the server; the copy in the volatile cache becomes clean.
//! * **Unified** — dirty blocks live *only* in the NVRAM; clean blocks may
//!   live in either memory. Writes go to the NVRAM, reads are served from
//!   either. When a write replaces an NVRAM block, the victim is flushed
//!   (if dirty) and demoted to the volatile cache as a clean copy when it
//!   is younger than the volatile LRU block.
//! * **Hybrid** — writes land in the volatile cache as in the volatile
//!   model, and the 30-second sweep moves aged dirty blocks into the NVRAM
//!   instead of sending them to the server; reads are served from either
//!   memory as in the unified model.

use nvfs_nvram::NvramDevice;
use nvfs_types::{
    blocks_of_range, BlockId, ByteRange, ClientId, FileId, RangeSet, SimTime, BLOCK_SIZE,
};

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
    fn label(self) -> &'static str {
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

/// What the block cleaner's sweep does with volatile dirty blocks older
/// than the 30-second write-back delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// Nothing: dirty data already lives in the NVRAM.
    Idle,
    /// Writes them back to the server (volatile).
    WriteBack,
    /// Moves them into the NVRAM with no server traffic (hybrid, §2.6).
    Migrate,
}

/// Where a cache model keeps dirty data (§2.1, Figure 1): the facts the
/// [`ClientCache`] paths consult instead of the model itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    /// The NVRAM mirrors the volatile cache's dirty blocks (write-aside).
    /// It is never read, its dirty bytes are never counted (the volatile
    /// copy counts them), and a block that turns clean leaves it.
    mirror: bool,
    /// The NVRAM is part of the read cache (unified, hybrid).
    nvram_reads: bool,
    /// What the sweep does.
    sweep: Sweep,
}

impl Placement {
    /// Where `model` keeps dirty data.
    pub(crate) const fn of(model: CacheModelKind) -> Self {
        let (mirror, nvram_reads, sweep) = match model {
            CacheModelKind::Volatile => (false, false, Sweep::WriteBack),
            CacheModelKind::WriteAside => (true, false, Sweep::Idle),
            CacheModelKind::Unified => (false, true, Sweep::Idle),
            CacheModelKind::Hybrid => (false, true, Sweep::Migrate),
        };
        Placement {
            mirror,
            nvram_reads,
            sweep,
        }
    }

    /// Whether the sweep ever acts (volatile, hybrid).
    pub(crate) fn sweeps(self) -> bool {
        self.sweep != Sweep::Idle
    }
}

/// One of a client's two memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    Volatile,
    Nvram,
}

/// Both memories, in the order every per-file path visits them.
const STORES: [Store; 2] = [Store::Volatile, Store::Nvram];

/// One client workstation's cache state.
#[derive(Debug, Clone)]
pub struct ClientCache {
    /// Consulted only by the write dispatch and the invariant check.
    model: CacheModelKind,
    placement: Placement,
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
    pub(crate) fn new(config: &SimConfig, policy: Policy, client: ClientId) -> Self {
        ClientCache {
            model: config.model,
            placement: Placement::of(config.model),
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
    pub(crate) fn take_server_writes(&mut self) -> Vec<ServerWrite> {
        std::mem::take(&mut self.log)
    }

    /// Marks this client's server link as severed (network partition) or
    /// healed. While severed, forced server flushes are shed.
    pub(crate) fn set_severed(&mut self, severed: bool) {
        self.severed = severed;
    }

    /// Removes and returns the writes shed while the link was severed.
    pub(crate) fn take_shed_writes(&mut self) -> Vec<ServerWrite> {
        std::mem::take(&mut self.shed_log)
    }

    /// Clears every accumulated counter (write log, shed log and NVRAM
    /// device counters) without touching cache contents — used by warm-up
    /// runs.
    pub(crate) fn reset_counters(&mut self) {
        self.log.clear();
        self.shed_log.clear();
        self.device.reset_counters();
    }

    /// The dirty byte ranges currently in the NVRAM, in block order — what
    /// a crash preserves (see [`crate::recovery`]). Volatile-model caches
    /// yield nothing; the hybrid model loses data still inside its
    /// 30-second volatile window.
    ///
    /// Borrows the cache's own range sets rather than cloning and merging
    /// them, so ranges for the same file may appear more than once (one
    /// entry per cached block); consumers (the recovery board) already
    /// merge ranges on insert.
    pub(crate) fn nvram_dirty_contents(&self) -> impl Iterator<Item = (FileId, &RangeSet)> {
        self.nvram
            .iter()
            .filter(|(_, entry)| entry.is_dirty())
            .map(|(id, entry)| (id.file, &entry.dirty))
    }

    /// The NVRAM device (access counters).
    pub(crate) fn device(&self) -> &NvramDevice {
        &self.device
    }

    /// The volatile cache or the NVRAM.
    fn store(&mut self, store: Store) -> &mut BlockStore {
        match store {
            Store::Volatile => &mut self.volatile,
            Store::Nvram => &mut self.nvram,
        }
    }

    /// Whether `store` is a mirror, whose dirty bytes do not count and
    /// whose blocks leave once clean.
    fn is_mirror(&self, store: Store) -> bool {
        store == Store::Nvram && self.placement.mirror
    }

    /// Dirty bytes still cached, counted once: in the volatile cache, and
    /// in the NVRAM unless it mirrors.
    pub(crate) fn remaining_dirty_bytes(&self) -> u64 {
        let nvram = if self.placement.mirror {
            0
        } else {
            self.nvram.total_dirty_bytes()
        };
        self.volatile.total_dirty_bytes() + nvram
    }

    /// Application read of `range`. Accounts hits, misses and fetches.
    pub(crate) fn read(
        &mut self,
        file: FileId,
        range: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        for block in blocks_of_range(file, range) {
            if self.placement.nvram_reads && self.nvram.contains(block) {
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

    /// Application write of `range`. Accounts bus traffic, NVRAM accesses,
    /// dirty deaths by overwrite, and any replacement flushes.
    pub(crate) fn write(
        &mut self,
        file: FileId,
        range: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
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
        self.write_volatile(block, sub, t, stats);
        // Duplicate the write into the NVRAM: the bus carries it twice.
        if !self.nvram.contains(block) {
            self.ensure_nvram_space(t, stats);
            self.nvram.insert(block, t);
        }
        self.nvram.mark_dirty(block, sub, t);
        self.device.record_write(sub.len());
        stats.bus_bytes += sub.len();
    }

    fn write_unified(
        &mut self,
        block: BlockId,
        sub: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        if !self.nvram.contains(block) {
            // A clean volatile copy is promoted into the NVRAM and updated
            // there (§2.6: "less than one percent of write events").
            let promoted = self.volatile.remove(block).is_some();
            if sub != block.byte_range() {
                // The block's other bytes enter the NVRAM too: over the bus
                // from the promoted copy, else fetched from the server
                // (read-modify-write).
                if promoted {
                    stats.bus_bytes += BLOCK_SIZE;
                } else {
                    stats.server_read_bytes += BLOCK_SIZE;
                }
                self.device.record_write(BLOCK_SIZE);
            }
            self.ensure_nvram_space(t, stats);
            self.nvram.insert(block, t);
        }
        self.write_nvram(block, sub, t, stats);
    }

    /// Hybrid write (§2.6 sketch): if the block already migrated to NVRAM
    /// it is updated there (still permanent); otherwise it is written into
    /// the volatile cache exactly like the volatile model — the whole cache
    /// absorbs write bursts, at the cost of a 30-second vulnerability
    /// window before the sweep migrates the data to NVRAM.
    fn write_hybrid(
        &mut self,
        block: BlockId,
        sub: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        if self.nvram.contains(block) {
            self.write_nvram(block, sub, t, stats);
        } else {
            self.write_volatile(block, sub, t, stats);
        }
    }

    /// Writes `sub` into `block`'s NVRAM copy.
    fn write_nvram(
        &mut self,
        block: BlockId,
        sub: ByteRange,
        t: SimTime,
        stats: &mut TrafficStats,
    ) {
        let out = self.nvram.mark_dirty(block, sub, t);
        stats.overwritten_dead_bytes += out.overwritten;
        self.device.record_write(sub.len());
        stats.bus_bytes += sub.len();
    }

    /// Moves the dirty volatile block `b` into the NVRAM with its history
    /// and no server traffic (the hybrid sweep and fsync). Returns its
    /// dirty bytes.
    fn migrate(&mut self, b: BlockId, t: SimTime, stats: &mut TrafficStats) -> u64 {
        let entry = self.volatile.remove(b).expect("dirty block is cached");
        let bytes = entry.dirty_bytes();
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
        bytes
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
        if self.volatile.is_full() {
            self.evict_volatile_lru(t, stats);
        }
        self.volatile.insert(block, t);
    }

    /// Evicts the volatile LRU block from the full volatile cache.
    fn evict_volatile_lru(&mut self, t: SimTime, stats: &mut TrafficStats) {
        // Sprite's real policy prefers clean victims; the paper's simplified
        // models replace strict LRU regardless of dirtiness.
        let (victim, _) = self
            .dirty_preference
            .then(|| self.volatile.lru_clean_block())
            .flatten()
            .or_else(|| self.volatile.lru_block())
            .expect("full cache is non-empty");
        self.evict(Store::Volatile, victim, false, t, stats);
    }

    /// Removes `victim` from `from` and writes its dirty bytes to the
    /// server as a replacement, after a `cache_evict` event when
    /// `announce` is set. The flushed block is clean, so in a mirror its
    /// other copy is too: a volatile copy is cleaned, an NVRAM copy
    /// leaves (§2.1).
    fn evict(
        &mut self,
        from: Store,
        victim: BlockId,
        announce: bool,
        t: SimTime,
        stats: &mut TrafficStats,
    ) -> BlockEntry {
        let entry = self.store(from).remove(victim).expect("victim is cached");
        if announce {
            nvfs_obs::event("cache_evict", t.as_micros())
                .u64("client", self.client.0 as u64)
                .u64("file", victim.file.0 as u64)
                .u64("dirty", entry.is_dirty() as u64)
                .emit();
        }
        if entry.is_dirty() {
            self.flush_bytes(
                victim.file,
                entry.dirty_bytes(),
                FlushCause::Replacement,
                t,
                stats,
            );
            if self.placement.mirror {
                match from {
                    Store::Volatile => {
                        self.nvram.remove(victim);
                    }
                    Store::Nvram => {
                        self.volatile.clean(victim);
                    }
                }
            }
        }
        entry
    }

    /// Makes room for one block in a full NVRAM: the policy picks a victim
    /// to evict. Unless the NVRAM mirrors, the victim is then demoted to a
    /// clean volatile copy if it is younger than the volatile LRU block
    /// (which is evicted for it) or the volatile cache has room.
    fn ensure_nvram_space(&mut self, t: SimTime, stats: &mut TrafficStats) {
        if !self.nvram.is_full() {
            return;
        }
        let victim = self
            .policy
            .pick_victim(&mut self.nvram, t)
            .expect("full NVRAM is non-empty");
        let entry = self.evict(Store::Nvram, victim, false, t, stats);
        // A mirror's victim keeps its volatile copy.
        if self.placement.mirror || self.volatile.contains(victim) {
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
                // Clean in the unified model; in the hybrid model a dirty
                // volatile victim is flushed.
                self.evict(Store::Volatile, lru, false, t, stats);
            }
            self.volatile
                .insert_with_access(victim, entry.last_access, entry.last_modify);
            self.device.record_read(BLOCK_SIZE);
            stats.bus_bytes += BLOCK_SIZE;
        }
    }

    /// Read-miss placement (§2.1): the volatile cache if it has room.
    /// Where the NVRAM is part of the read cache, next free NVRAM space,
    /// else the place of the globally least-recently-used of the two LRU
    /// candidates; elsewhere, the place of the volatile LRU block.
    ///
    /// Read-fetch traffic is deliberately *not* counted in `bus_bytes`: the
    /// §2.6 bus comparison concerns the write path (write-aside writes every
    /// block twice), and fetch traffic is common to all models.
    fn place_clean_block(&mut self, block: BlockId, t: SimTime, stats: &mut TrafficStats) {
        if self.volatile.is_full() {
            if !self.placement.nvram_reads {
                self.evict_volatile_lru(t, stats);
            } else {
                if self.nvram.is_full() {
                    let (vol_lru, vol_access) =
                        self.volatile.lru_block().expect("full cache is non-empty");
                    let (nv_lru, nv_access) =
                        self.nvram.lru_block().expect("full NVRAM is non-empty");
                    if nv_access >= vol_access {
                        self.evict(Store::Volatile, vol_lru, true, t, stats);
                        self.volatile.insert(block, t);
                        return;
                    }
                    // The overall LRU block is in the NVRAM: replace it
                    // there. This is how read traffic can evict dirty
                    // blocks (§2.5).
                    self.evict(Store::Nvram, nv_lru, true, t, stats);
                }
                self.nvram.insert(block, t);
                self.device.record_write(BLOCK_SIZE);
                return;
            }
        }
        self.volatile.insert(block, t);
    }

    /// Cleans `block` in `store`, returning the dirty bytes that count
    /// there; a mirror's copy leaves once clean.
    fn clean(&mut self, store: Store, block: BlockId) -> u64 {
        let bytes = self.store(store).clean(block);
        if !self.is_mirror(store) {
            return bytes;
        }
        if bytes > 0 {
            self.nvram.remove(block);
        }
        0
    }

    /// Flushes all dirty bytes of `file` to the server (consistency recall,
    /// migration, fsync, …). Blocks stay cached, except that a mirror's
    /// now-clean blocks leave it.
    pub(crate) fn flush_file(
        &mut self,
        file: FileId,
        cause: FlushCause,
        t: SimTime,
        stats: &mut TrafficStats,
    ) -> u64 {
        let mut flushed = 0;
        for store in STORES {
            for b in self.store(store).file_blocks(file) {
                flushed += self.clean(store, b);
            }
        }
        self.flush_bytes(file, flushed, cause, t, stats);
        flushed
    }

    /// Flushes the dirty bytes of the blocks of `file` that intersect
    /// `range` (block-on-demand consistency: only the data another client
    /// is about to read is recalled). Returns the bytes flushed.
    pub(crate) fn flush_range(
        &mut self,
        file: FileId,
        range: ByteRange,
        cause: FlushCause,
        t: SimTime,
        stats: &mut TrafficStats,
    ) -> u64 {
        let mut flushed = 0;
        for block in blocks_of_range(file, range) {
            for store in STORES {
                flushed += self.clean(store, block);
            }
        }
        self.flush_bytes(file, flushed, cause, t, stats);
        flushed
    }

    /// Drops the cached blocks of `file` intersecting `range` (stale-copy
    /// invalidation for block-on-demand consistency). Dirty bytes in the
    /// dropped blocks are flushed first.
    pub(crate) fn invalidate_range(
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
    pub(crate) fn invalidate_file(
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
    pub(crate) fn delete_file(&mut self, file: FileId, stats: &mut TrafficStats) {
        for store in STORES {
            let counted = !self.is_mirror(store);
            let blocks = self.store(store);
            for b in blocks.file_blocks(file) {
                let entry = blocks.remove(b).expect("file_blocks yields cached blocks");
                if counted {
                    stats.deleted_dead_bytes += entry.dirty_bytes();
                }
            }
        }
    }

    /// The file was truncated to `new_len`: cached blocks wholly beyond the
    /// cut are dropped, the boundary block loses its dirty tail.
    pub(crate) fn truncate_file(&mut self, file: FileId, new_len: u64, stats: &mut TrafficStats) {
        let kill = ByteRange::new(new_len, u64::MAX);
        for store in STORES {
            let mirror = self.is_mirror(store);
            let blocks = self.store(store);
            for b in blocks.file_blocks(file) {
                let killed = if b.byte_range().start >= new_len {
                    let entry = blocks.remove(b).expect("file_blocks yields cached blocks");
                    entry.dirty_bytes()
                } else {
                    let killed = blocks.kill_dirty(b, kill);
                    if mirror && blocks.get(b).is_some_and(|e| !e.is_dirty()) {
                        blocks.remove(b);
                    }
                    killed
                };
                if !mirror {
                    stats.deleted_dead_bytes += killed;
                }
            }
        }
    }

    /// Application fsync: does now what the sweep would do later. The
    /// volatile model flushes the file's dirty data to the server, the
    /// hybrid model moves it into the NVRAM, and in the other models it is
    /// already permanent in NVRAM (§2.1). Returns whether the file's dirty
    /// data reached the *server* (so the caller knows whether the server's
    /// last-writer record can be cleared).
    pub(crate) fn fsync(&mut self, file: FileId, t: SimTime, stats: &mut TrafficStats) -> bool {
        match self.placement.sweep {
            Sweep::WriteBack => {
                self.flush_file(file, FlushCause::Fsync, t, stats);
                true
            }
            Sweep::Migrate => {
                for b in self.volatile.file_blocks(file) {
                    if self.volatile.get(b).is_some_and(BlockEntry::is_dirty) {
                        self.migrate(b, t, stats);
                    }
                }
                false
            }
            Sweep::Idle => false,
        }
    }

    /// The block cleaner's sweep: every volatile block whose dirty data
    /// became dirty at or before `cutoff` is written back to the server
    /// (volatile) or moved into the NVRAM (hybrid). `files` is a
    /// caller-owned buffer, so the per-tick cleaner loop allocates
    /// nothing: it is cleared first and left holding the written-back file
    /// ids, deduplicated.
    pub(crate) fn writeback_older_than_into(
        &mut self,
        cutoff: SimTime,
        now: SimTime,
        stats: &mut TrafficStats,
        files: &mut Vec<FileId>,
    ) {
        files.clear();
        if !self.placement.sweeps() {
            return;
        }
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        self.volatile.dirty_older_than_into(cutoff, &mut blocks);
        for &b in &blocks {
            if self.placement.sweep == Sweep::Migrate {
                let bytes = self.migrate(b, now, stats);
                stats.aged_into_nvram_bytes += bytes;
            } else {
                let bytes = self.volatile.clean(b);
                self.flush_bytes(b.file, bytes, FlushCause::WriteBack, now, stats);
                files.push(b.file);
            }
        }
        self.scratch_blocks = blocks;
        files.dedup();
    }

    /// Whether the next cleaner tick could possibly do work: only when the
    /// sweep acts and volatile dirty blocks exist. The drive loops use
    /// this to fast-forward tick arithmetic over idle gaps instead of
    /// iterating empty ticks.
    pub(crate) fn cleaner_pending(&self) -> bool {
        self.placement.sweeps() && self.volatile.dirty_block_count() > 0
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

    /// Checks internal invariants (for tests): bounded stores; no NVRAM
    /// blocks in the volatile model; in the write-aside model, exactly the
    /// volatile cache's dirty blocks in the NVRAM, with the same dirty
    /// ranges (so counting dirty bytes once is exact); in the unified
    /// model, no dirty blocks in the volatile cache; and in the unified
    /// and hybrid models, no block in both memories.
    pub(crate) fn check_invariants(&self) -> bool {
        if !self.volatile.check_invariants() || !self.nvram.check_invariants() {
            return false;
        }
        match self.model {
            CacheModelKind::Volatile => self.nvram.is_empty(),
            CacheModelKind::WriteAside => {
                self.nvram.iter().all(|(id, e)| {
                    e.is_dirty() && self.volatile.get(id).is_some_and(|v| v.dirty == e.dirty)
                }) && self
                    .volatile
                    .iter()
                    .all(|(id, v)| !v.is_dirty() || self.nvram.contains(id))
            }
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
        let mut files = Vec::new();
        c.writeback_older_than_into(
            SimTime::from_secs(5),
            SimTime::from_secs(35),
            &mut s,
            &mut files,
        );
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

    const MODELS: [CacheModelKind; 4] = [
        CacheModelKind::Volatile,
        CacheModelKind::WriteAside,
        CacheModelKind::Unified,
        CacheModelKind::Hybrid,
    ];

    /// Dirties blocks `0..n - 1` of file 0 at second 1 and block `n - 1`
    /// at second 40. In the hybrid model the sweep in between moves the
    /// first ones into the NVRAM, so its dirty bytes span both stores.
    fn dirty_blocks(model: CacheModelKind, n: u64) -> (ClientCache, TrafficStats) {
        let mut c = cache(model, 8, 4);
        let mut s = TrafficStats::default();
        let early = ByteRange::new(0, (n - 1) * BLOCK_SIZE);
        c.write(FileId(0), early, SimTime::from_secs(1), &mut s);
        if model == CacheModelKind::Hybrid {
            c.writeback_older_than_into(
                SimTime::from_secs(5),
                SimTime::from_secs(35),
                &mut s,
                &mut Vec::new(),
            );
        }
        c.write(
            FileId(0),
            block_range(n - 1),
            SimTime::from_secs(40),
            &mut s,
        );
        if model == CacheModelKind::Hybrid {
            assert_eq!(c.nvram.total_dirty_bytes(), (n - 1) * BLOCK_SIZE);
            assert_eq!(c.volatile.total_dirty_bytes(), BLOCK_SIZE);
        }
        assert_eq!(s.server_write_bytes, 0, "{model:?}");
        assert_eq!(c.remaining_dirty_bytes(), n * BLOCK_SIZE, "{model:?}");
        assert!(c.check_invariants(), "{model:?}");
        (c, s)
    }

    #[test]
    fn delete_absorbs_dirty_bytes() {
        for model in MODELS {
            let (mut c, mut s) = dirty_blocks(model, 2);
            c.delete_file(FileId(0), &mut s);
            assert_eq!(s.deleted_dead_bytes, 2 * BLOCK_SIZE, "{model:?}");
            assert_eq!(s.server_write_bytes, 0, "{model:?}");
            assert_eq!(c.remaining_dirty_bytes(), 0, "{model:?}");
            assert!(c.check_invariants(), "{model:?}");
        }
    }

    #[test]
    fn truncate_kills_tail_dirty_bytes() {
        for model in MODELS {
            // Hybrid: blocks 0 and 1 in NVRAM, block 2 volatile.
            let (mut c, mut s) = dirty_blocks(model, 3);
            c.truncate_file(FileId(0), BLOCK_SIZE + 100, &mut s);
            assert_eq!(s.deleted_dead_bytes, 2 * BLOCK_SIZE - 100, "{model:?}");
            assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE + 100, "{model:?}");
            assert!(c.check_invariants(), "{model:?}");
        }
    }

    #[test]
    fn flush_file_callback_accounting() {
        for model in MODELS {
            let (mut c, mut s) = dirty_blocks(model, 2);
            let flushed = c.flush_file(
                FileId(0),
                FlushCause::Callback,
                SimTime::from_secs(41),
                &mut s,
            );
            assert_eq!(flushed, 2 * BLOCK_SIZE, "{model:?}");
            assert_eq!(s.callback_bytes, 2 * BLOCK_SIZE, "{model:?}");
            assert_eq!(c.remaining_dirty_bytes(), 0, "{model:?}");
            assert!(c.check_invariants(), "{model:?}");
        }
    }

    #[test]
    fn flush_range_recalls_only_the_touched_blocks() {
        for model in MODELS {
            // Hybrid: blocks 0 and 1 in NVRAM, block 2 volatile; the range
            // touches blocks 1 and 2, one in each store.
            let (mut c, mut s) = dirty_blocks(model, 3);
            let range = ByteRange::new(BLOCK_SIZE + 10, 2 * BLOCK_SIZE + 10);
            let t = SimTime::from_secs(41);
            let flushed = c.flush_range(FileId(0), range, FlushCause::Callback, t, &mut s);
            assert_eq!(flushed, 2 * BLOCK_SIZE, "{model:?}");
            assert_eq!(s.callback_bytes, 2 * BLOCK_SIZE, "{model:?}");
            assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE, "{model:?}");
            assert!(c.check_invariants(), "{model:?}");
            // The recalled blocks stay cached, now clean.
            let again = c.flush_range(FileId(0), range, FlushCause::Callback, t, &mut s);
            assert_eq!(again, 0, "{model:?}");
            let mut reads = TrafficStats::default();
            c.read(FileId(0), ByteRange::new(0, 3 * BLOCK_SIZE), t, &mut reads);
            assert_eq!(reads.read_hit_blocks, 3, "{model:?}");
        }
    }

    #[test]
    fn hybrid_write_stays_volatile_then_ages_into_nvram() {
        let mut c = cache(CacheModelKind::Hybrid, 4, 2);
        let mut s = TrafficStats::default();
        c.write(FileId(0), block_range(0), SimTime::from_secs(1), &mut s);
        assert_eq!(c.remaining_dirty_bytes(), BLOCK_SIZE);
        // The 30-second write-back migrates it to NVRAM — no server write.
        c.writeback_older_than_into(
            SimTime::from_secs(5),
            SimTime::from_secs(35),
            &mut s,
            &mut Vec::new(),
        );
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
        c.writeback_older_than_into(
            SimTime::from_secs(5),
            SimTime::from_secs(35),
            &mut s,
            &mut Vec::new(),
        );
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
