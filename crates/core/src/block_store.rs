//! A capacity-bounded store of 4 KB cache blocks with LRU bookkeeping and a
//! dirty-age index.
//!
//! Mirrors the structure §2.1 describes for Sprite's client caches: blocks
//! carry access and modify times, dirty state is tracked at byte
//! granularity within each block (an application write of less than a block
//! dirties only those bytes, but replacement operates on whole blocks), and
//! the block cleaner needs to find blocks whose dirty data has aged past
//! the write-back delay. A store built for the omniscient policy
//! ([`BlockStore::with_schedule`]) also keeps a next-modify index, so the
//! policy's victim costs O(log n) instead of a scan of every block.
//!
//! Every block touch is O(1). Entries live in a slab addressed through a
//! hash index, which is used for lookups only and never iterated, so no
//! output depends on hash order. LRU order is the `(last_access, tie)`
//! key, where the tie is a per-store touch sequence. Most keys are the
//! newest in the store, so they join an intrusive doubly-linked list at
//! its most-recent end. A key older than the list's newest one comes from
//! a demoted or migrated block that keeps its original access time, or
//! from a touch at an earlier time; it waits in a small ordered side map
//! instead, and the LRU queries take the older of the two candidates.
//! Block-order queries ([`BlockStore::file_blocks`], [`BlockStore::iter`],
//! [`BlockStore::nth_block`]) read an ordered set of ids that changes only
//! on insert and remove.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nvfs_types::{BlockId, BlockMap, ByteRange, FileId, RangeSet, SimTime};

use crate::omniscient::OmniscientSchedule;

/// One cached block.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// Dirty bytes within this block (absolute file offsets).
    pub dirty: RangeSet,
    /// Last access (read or write) time.
    pub last_access: SimTime,
    /// Last modification time.
    pub last_modify: SimTime,
    /// When the block first became dirty since it was last clean.
    pub dirty_since: Option<SimTime>,
    /// LRU key: `(last_access, tie)`.
    lru_key: (SimTime, u64),
    /// Key into the next-modify index (unused without one).
    next_modify: SimTime,
}

impl BlockEntry {
    /// Whether the block holds any dirty bytes.
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Number of dirty bytes.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty.len_bytes()
    }
}

/// Outcome of marking bytes dirty in a block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyOutcome {
    /// Bytes that were clean (or absent) and are now dirty.
    pub newly_dirty: u64,
    /// Bytes that were already dirty and were overwritten — dirty data that
    /// died in the cache.
    pub overwritten: u64,
}

/// The omniscient policy's index: every cached block keyed by its next
/// modification time.
///
/// A key computed at time `s` is the first modification after `s`, so it
/// stays exact for every later time until that modification happens. Only
/// keys at or below the current pick time can be stale, and those sit at
/// the low end of the set.
#[derive(Debug, Clone)]
struct NextModifyIndex {
    schedule: Arc<OmniscientSchedule>,
    /// `(next_modify, id)` for every cached block.
    order: BTreeSet<(SimTime, BlockId)>,
    /// The latest pick time. New entries are keyed at it, which is never
    /// after any later pick.
    clock: SimTime,
}

/// End of the LRU list.
const NIL: u32 = u32::MAX;

/// One slab slot: a cached block, or a free slot awaiting reuse.
#[derive(Debug, Clone)]
struct Slot {
    id: BlockId,
    entry: BlockEntry,
    /// Whether the slot is on the LRU list (else it is keyed in the side
    /// map, or free).
    listed: bool,
    /// Older neighbour on the LRU list.
    prev: u32,
    /// Newer neighbour on the LRU list.
    next: u32,
}

/// A bounded block cache with LRU and dirty-age indexes.
///
/// # Examples
///
/// ```
/// use nvfs_core::block_store::BlockStore;
/// use nvfs_types::{BlockId, ByteRange, FileId, SimTime};
///
/// let mut s = BlockStore::new(2);
/// let b = BlockId::new(FileId(0), 0);
/// s.insert(b, SimTime::ZERO);
/// let out = s.mark_dirty(b, ByteRange::new(0, 100), SimTime::from_secs(1));
/// assert_eq!(out.newly_dirty, 100);
/// assert_eq!(s.total_dirty_bytes(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct BlockStore {
    capacity: usize,
    slots: Vec<Slot>,
    /// Slots freed by [`Self::remove`], reused before the slab grows.
    free: Vec<u32>,
    /// Block → slot. Lookups only: never iterated.
    index: BlockMap<u32>,
    /// Every cached block, in block order.
    ids: BTreeSet<BlockId>,
    /// LRU list ends: `head` is the least recent listed slot.
    head: u32,
    tail: u32,
    /// Slots whose key is older than the list's newest key was when they
    /// were keyed, by key.
    older: BTreeMap<(SimTime, u64), u32>,
    dirty_age: BTreeMap<(SimTime, BlockId), ()>,
    tie: u64,
    next_modify: Option<NextModifyIndex>,
}

impl Default for BlockStore {
    fn default() -> Self {
        BlockStore {
            capacity: 0,
            slots: Vec::new(),
            free: Vec::new(),
            index: BlockMap::default(),
            ids: BTreeSet::new(),
            head: NIL,
            tail: NIL,
            older: BTreeMap::new(),
            dirty_age: BTreeMap::new(),
            tie: 0,
            next_modify: None,
        }
    }
}

impl BlockStore {
    /// Creates a store holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BlockStore {
            capacity,
            ..BlockStore::default()
        }
    }

    /// Creates a store holding at most `capacity` blocks, indexed by each
    /// block's next modification in `schedule` so that
    /// [`Self::furthest_next_modify`] can answer the omniscient policy.
    pub fn with_schedule(capacity: usize, schedule: Arc<OmniscientSchedule>) -> Self {
        BlockStore {
            capacity,
            next_modify: Some(NextModifyIndex {
                schedule,
                order: BTreeSet::new(),
                clock: SimTime::ZERO,
            }),
            ..BlockStore::default()
        }
    }

    /// Maximum number of blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of blocks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether the store is at capacity.
    pub fn is_full(&self) -> bool {
        self.index.len() >= self.capacity
    }

    /// Whether `id` is cached.
    pub fn contains(&self, id: BlockId) -> bool {
        self.index.contains_key(&id)
    }

    /// Borrows the entry for `id`.
    pub fn get(&self, id: BlockId) -> Option<&BlockEntry> {
        self.index.get(&id).map(|&s| &self.slots[s as usize].entry)
    }

    /// Inserts a clean block accessed at `t`.
    ///
    /// # Panics
    ///
    /// Panics if the store is full or the block is already present —
    /// callers must evict first.
    pub fn insert(&mut self, id: BlockId, t: SimTime) {
        self.insert_with_access(id, t, t);
    }

    /// Inserts a clean block with an explicit `last_access` time (used when
    /// demoting a block from NVRAM to the volatile cache, which must keep
    /// the original access time for LRU comparisons).
    ///
    /// # Panics
    ///
    /// Panics if the store is full or the block is already present.
    pub fn insert_with_access(&mut self, id: BlockId, last_access: SimTime, last_modify: SimTime) {
        self.insert_with_state(id, last_access, last_modify, RangeSet::new(), None);
    }

    /// Inserts a block with explicit dirty state (used when the hybrid
    /// model migrates an aged dirty block from the volatile cache into the
    /// NVRAM, preserving its history).
    ///
    /// # Panics
    ///
    /// Panics if the store is full or the block is already present.
    pub fn insert_with_state(
        &mut self,
        id: BlockId,
        last_access: SimTime,
        last_modify: SimTime,
        dirty: RangeSet,
        dirty_since: Option<SimTime>,
    ) {
        assert!(!self.is_full(), "insert into full BlockStore; evict first");
        assert!(!self.contains(id), "block {id} already cached");
        let key = (last_access, self.next_tie());
        let effective_since = if dirty.is_empty() {
            None
        } else {
            dirty_since.or(Some(last_modify))
        };
        if let Some(since) = effective_since {
            self.dirty_age.insert((since, id), ());
        }
        let next_modify = match &mut self.next_modify {
            Some(ix) => {
                let t = ix.schedule.next_modify(id, ix.clock);
                ix.order.insert((t, id));
                t
            }
            None => SimTime::MAX,
        };
        let slot = Slot {
            id,
            entry: BlockEntry {
                dirty,
                last_access,
                last_modify,
                dirty_since: effective_since,
                lru_key: key,
                next_modify,
            },
            listed: false,
            prev: NIL,
            next: NIL,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s
            }
            None => {
                self.slots.push(slot);
                u32::try_from(self.slots.len() - 1).expect("slab index fits u32")
            }
        };
        self.index.insert(id, s);
        self.ids.insert(id);
        self.link(s);
    }

    /// Updates the access time of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not cached.
    pub fn touch(&mut self, id: BlockId, t: SimTime) {
        let s = *self.index.get(&id).expect("touch of uncached block");
        self.touch_slot(s, t);
    }

    /// Marks `range` (clipped to the block) dirty at time `t`, touching the
    /// block. Returns how many bytes were newly dirty vs overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not cached.
    pub fn mark_dirty(&mut self, id: BlockId, range: ByteRange, t: SimTime) -> DirtyOutcome {
        let s = *self.index.get(&id).expect("mark_dirty of uncached block");
        self.touch_slot(s, t);
        let entry = &mut self.slots[s as usize].entry;
        let clipped = match id.byte_range().intersection(range) {
            Some(r) => r,
            None => return DirtyOutcome::default(),
        };
        let overwritten = entry.dirty.overlap_bytes(clipped);
        let newly_dirty = entry.dirty.insert(clipped);
        entry.last_modify = t;
        if entry.dirty_since.is_none() && entry.is_dirty() {
            entry.dirty_since = Some(t);
            self.dirty_age.insert((t, id), ());
        }
        DirtyOutcome {
            newly_dirty,
            overwritten,
        }
    }

    /// Clears all dirty state of `id` (it was written to the server or its
    /// data died). Returns the number of bytes that were dirty.
    pub fn clean(&mut self, id: BlockId) -> u64 {
        let Some(&s) = self.index.get(&id) else {
            return 0;
        };
        let entry = &mut self.slots[s as usize].entry;
        let bytes = entry.dirty.len_bytes();
        entry.dirty.clear();
        if let Some(since) = entry.dirty_since.take() {
            self.dirty_age.remove(&(since, id));
        }
        bytes
    }

    /// Kills the dirty bytes of `id` that fall within `range` (truncation).
    /// Returns the number of dirty bytes killed. The block stays cached.
    pub fn kill_dirty(&mut self, id: BlockId, range: ByteRange) -> u64 {
        let Some(&s) = self.index.get(&id) else {
            return 0;
        };
        let entry = &mut self.slots[s as usize].entry;
        let killed = entry.dirty.remove(range);
        if !entry.is_dirty() {
            if let Some(since) = entry.dirty_since.take() {
                self.dirty_age.remove(&(since, id));
            }
        }
        killed
    }

    /// Removes `id` entirely, returning its entry.
    pub fn remove(&mut self, id: BlockId) -> Option<BlockEntry> {
        let s = self.index.remove(&id)?;
        self.ids.remove(&id);
        self.unlink(s);
        self.free.push(s);
        let entry = std::mem::replace(
            &mut self.slots[s as usize].entry,
            BlockEntry {
                dirty: RangeSet::new(),
                last_access: SimTime::ZERO,
                last_modify: SimTime::ZERO,
                dirty_since: None,
                lru_key: (SimTime::ZERO, 0),
                next_modify: SimTime::ZERO,
            },
        );
        if let Some(since) = entry.dirty_since {
            self.dirty_age.remove(&(since, id));
        }
        if let Some(ix) = &mut self.next_modify {
            ix.order.remove(&(entry.next_modify, id));
        }
        Some(entry)
    }

    /// The least-recently accessed block, if any.
    pub fn lru_block(&self) -> Option<(BlockId, SimTime)> {
        let listed = (self.head != NIL).then_some(self.head);
        self.older_of(listed, self.older.values().next().copied())
    }

    /// The cached block whose next modification after `now` is furthest in
    /// the future, ties broken towards the larger [`BlockId`] — the
    /// omniscient policy's victim (§2.4). `None` if the store is empty.
    ///
    /// Pick times must be non-decreasing per store: each call's `now` is at
    /// least the previous call's. Entries keyed at or before `now` are
    /// re-keyed from the low end of the index first; every other key is
    /// still exact, so the answer is the set's maximum. Costs amortised
    /// O(log n) per re-key plus O(log n) for the pick.
    ///
    /// # Panics
    ///
    /// Panics if the store was not built by [`Self::with_schedule`].
    pub fn furthest_next_modify(&mut self, now: SimTime) -> Option<BlockId> {
        let ix = self
            .next_modify
            .as_mut()
            .expect("furthest_next_modify needs a store built by BlockStore::with_schedule");
        debug_assert!(
            now >= ix.clock,
            "pick times must be non-decreasing: {now:?} after {:?}",
            ix.clock
        );
        ix.clock = now;
        while let Some(&(key, id)) = ix.order.first() {
            if key > now {
                break;
            }
            ix.order.pop_first();
            let fresh = ix.schedule.next_modify(id, now);
            ix.order.insert((fresh, id));
            let s = self.index[&id];
            self.slots[s as usize].entry.next_modify = fresh;
        }
        ix.order.last().map(|&(_, id)| id)
    }

    /// The least-recently accessed *clean* block, if any (Sprite's volatile
    /// cache prefers replacing clean blocks; used by the dirty-preference
    /// ablation).
    pub fn lru_clean_block(&self) -> Option<(BlockId, SimTime)> {
        let is_clean = |&s: &u32| !self.slots[s as usize].entry.is_dirty();
        let listed = std::iter::successors((self.head != NIL).then_some(self.head), |&s| {
            let next = self.slots[s as usize].next;
            (next != NIL).then_some(next)
        })
        .find(is_clean);
        self.older_of(listed, self.older.values().copied().find(is_clean))
    }

    /// All cached blocks of `file`, in index order.
    pub fn file_blocks(&self, file: FileId) -> Vec<BlockId> {
        self.ids
            .range(BlockId::new(file, 0)..BlockId::new(FileId(file.0 + 1), 0))
            .copied()
            .collect()
    }

    /// Blocks whose dirty data is older than `cutoff` (i.e. became dirty at
    /// or before it), oldest first.
    pub fn dirty_older_than(&self, cutoff: SimTime) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.dirty_older_than_into(cutoff, &mut out);
        out
    }

    /// [`Self::dirty_older_than`] into a caller-owned buffer (cleared
    /// first), so tick-frequency callers can reuse one allocation.
    pub fn dirty_older_than_into(&self, cutoff: SimTime, out: &mut Vec<BlockId>) {
        out.clear();
        out.extend(
            self.dirty_age
                .range(..=(cutoff, BlockId::new(FileId(u32::MAX), u64::MAX)))
                .map(|(&(_, id), ())| id),
        );
    }

    /// Iterates over `(BlockId, &BlockEntry)` in block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockEntry)> {
        self.ids.iter().map(|&id| (id, self.entry(id)))
    }

    /// The `n`-th block in block order (for random replacement sampling).
    pub fn nth_block(&self, n: usize) -> Option<BlockId> {
        self.ids.iter().nth(n).copied()
    }

    /// Sum of dirty bytes across all blocks.
    pub fn total_dirty_bytes(&self) -> u64 {
        // The dirty_age index holds exactly the dirty blocks.
        self.dirty_age
            .keys()
            .map(|&(_, id)| self.entry(id).dirty_bytes())
            .sum()
    }

    /// Number of dirty blocks.
    pub fn dirty_block_count(&self) -> usize {
        self.dirty_age.len()
    }

    /// Verifies internal index consistency (for tests): the slab, hash
    /// index and id set agree; the LRU list is linked both ways in strictly
    /// increasing key order; every slot is either listed or keyed in the
    /// side map, exactly once; and the dirty-age and next-modify indexes
    /// match the entries.
    pub fn check_invariants(&self) -> bool {
        let n = self.index.len();
        if n > self.capacity
            || self.ids.len() != n
            || self.slots.len() != n + self.free.len()
            || !self.ids.iter().all(|id| {
                self.index
                    .get(id)
                    .is_some_and(|&s| self.slots[s as usize].id == *id)
            })
        {
            return false;
        }
        let mut listed = 0;
        let (mut prev, mut at) = (NIL, self.head);
        while at != NIL {
            let slot = &self.slots[at as usize];
            if !slot.listed
                || slot.prev != prev
                || self.index.get(&slot.id) != Some(&at)
                || (prev != NIL && self.slots[prev as usize].entry.lru_key >= slot.entry.lru_key)
            {
                return false;
            }
            listed += 1;
            (prev, at) = (at, slot.next);
        }
        if prev != self.tail || listed + self.older.len() != n {
            return false;
        }
        for (key, &s) in &self.older {
            let slot = &self.slots[s as usize];
            if slot.listed || slot.entry.lru_key != *key || self.index.get(&slot.id) != Some(&s) {
                return false;
            }
        }
        for (&(since, id), ()) in &self.dirty_age {
            match self.get(id) {
                Some(e) if e.dirty_since == Some(since) && e.is_dirty() => {}
                _ => return false,
            }
        }
        if let Some(ix) = &self.next_modify {
            if ix.order.len() != n
                || !ix
                    .order
                    .iter()
                    .all(|&(key, id)| self.get(id).is_some_and(|e| e.next_modify == key))
            {
                return false;
            }
        }
        self.iter().filter(|(_, e)| e.is_dirty()).count() == self.dirty_age.len()
    }

    fn next_tie(&mut self) -> u64 {
        self.tie += 1;
        self.tie
    }

    fn entry(&self, id: BlockId) -> &BlockEntry {
        &self.slots[self.index[&id] as usize].entry
    }

    /// Re-keys slot `s` as accessed at `t`.
    fn touch_slot(&mut self, s: u32, t: SimTime) {
        let tie = self.next_tie();
        self.unlink(s);
        let entry = &mut self.slots[s as usize].entry;
        entry.last_access = t;
        entry.lru_key = (t, tie);
        self.link(s);
    }

    /// Files slot `s` under its LRU key: at the list's newest end when no
    /// listed key is newer, else in the side map.
    fn link(&mut self, s: u32) {
        let key = self.slots[s as usize].entry.lru_key;
        if self.tail != NIL && self.slots[self.tail as usize].entry.lru_key > key {
            self.older.insert(key, s);
            return;
        }
        let slot = &mut self.slots[s as usize];
        slot.listed = true;
        slot.prev = self.tail;
        slot.next = NIL;
        match self.tail {
            NIL => self.head = s,
            tail => self.slots[tail as usize].next = s,
        }
        self.tail = s;
    }

    /// Takes slot `s` out of the LRU list or the side map.
    fn unlink(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        if !slot.listed {
            self.older.remove(&slot.entry.lru_key);
            return;
        }
        slot.listed = false;
        let (prev, next) = (slot.prev, slot.next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Of two LRU candidates (one listed, one from the side map), the one
    /// with the older key.
    fn older_of(&self, a: Option<u32>, b: Option<u32>) -> Option<(BlockId, SimTime)> {
        let slot = [a, b]
            .into_iter()
            .flatten()
            .map(|s| &self.slots[s as usize])
            .min_by_key(|slot| slot.entry.lru_key)?;
        Some((slot.id, slot.entry.lru_key.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid(f: u32, i: u64) -> BlockId {
        BlockId::new(FileId(f), i)
    }

    #[test]
    fn lru_order_follows_touches() {
        let mut s = BlockStore::new(3);
        s.insert(bid(0, 0), SimTime::from_secs(1));
        s.insert(bid(0, 1), SimTime::from_secs(2));
        s.insert(bid(0, 2), SimTime::from_secs(3));
        assert_eq!(s.lru_block().unwrap().0, bid(0, 0));
        s.touch(bid(0, 0), SimTime::from_secs(4));
        assert_eq!(s.lru_block().unwrap().0, bid(0, 1));
        assert!(s.check_invariants());
    }

    #[test]
    #[should_panic(expected = "evict first")]
    fn insert_into_full_store_panics() {
        let mut s = BlockStore::new(1);
        s.insert(bid(0, 0), SimTime::ZERO);
        s.insert(bid(0, 1), SimTime::ZERO);
    }

    #[test]
    fn dirty_accounting() {
        let mut s = BlockStore::new(2);
        let b = bid(0, 0);
        s.insert(b, SimTime::ZERO);
        let o1 = s.mark_dirty(b, ByteRange::new(0, 100), SimTime::from_secs(1));
        assert_eq!(
            o1,
            DirtyOutcome {
                newly_dirty: 100,
                overwritten: 0
            }
        );
        let o2 = s.mark_dirty(b, ByteRange::new(50, 150), SimTime::from_secs(2));
        assert_eq!(
            o2,
            DirtyOutcome {
                newly_dirty: 50,
                overwritten: 50
            }
        );
        // dirty_since is set by the first write, not reset by the second.
        assert_eq!(s.get(b).unwrap().dirty_since, Some(SimTime::from_secs(1)));
        assert_eq!(s.total_dirty_bytes(), 150);
        assert_eq!(s.clean(b), 150);
        assert_eq!(s.total_dirty_bytes(), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn mark_dirty_clips_to_block() {
        let mut s = BlockStore::new(2);
        let b = bid(0, 1); // covers bytes 4096..8192
        s.insert(b, SimTime::ZERO);
        let o = s.mark_dirty(b, ByteRange::new(0, 10_000), SimTime::from_secs(1));
        assert_eq!(o.newly_dirty, 4096);
        let o2 = s.mark_dirty(b, ByteRange::new(0, 100), SimTime::from_secs(2));
        assert_eq!(o2, DirtyOutcome::default());
    }

    #[test]
    fn kill_dirty_partial() {
        let mut s = BlockStore::new(2);
        let b = bid(0, 0);
        s.insert(b, SimTime::ZERO);
        s.mark_dirty(b, ByteRange::new(0, 4096), SimTime::from_secs(1));
        assert_eq!(s.kill_dirty(b, ByteRange::new(2048, 4096)), 2048);
        assert!(s.get(b).unwrap().is_dirty());
        assert_eq!(s.kill_dirty(b, ByteRange::new(0, 2048)), 2048);
        assert!(!s.get(b).unwrap().is_dirty());
        assert_eq!(s.dirty_block_count(), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn dirty_age_queue_finds_old_blocks() {
        let mut s = BlockStore::new(4);
        for i in 0..3 {
            let b = bid(0, i);
            s.insert(b, SimTime::ZERO);
            s.mark_dirty(b, b.byte_range(), SimTime::from_secs(10 * (i + 1)));
        }
        let old = s.dirty_older_than(SimTime::from_secs(20));
        assert_eq!(old, vec![bid(0, 0), bid(0, 1)]);
        s.clean(bid(0, 0));
        assert_eq!(s.dirty_older_than(SimTime::from_secs(20)), vec![bid(0, 1)]);
    }

    #[test]
    fn file_blocks_filters_by_file() {
        let mut s = BlockStore::new(4);
        s.insert(bid(1, 0), SimTime::ZERO);
        s.insert(bid(1, 5), SimTime::ZERO);
        s.insert(bid(2, 0), SimTime::ZERO);
        assert_eq!(s.file_blocks(FileId(1)), vec![bid(1, 0), bid(1, 5)]);
        assert_eq!(s.file_blocks(FileId(3)), Vec::<BlockId>::new());
    }

    #[test]
    fn lru_clean_block_skips_dirty() {
        let mut s = BlockStore::new(3);
        s.insert(bid(0, 0), SimTime::from_secs(1));
        s.insert(bid(0, 1), SimTime::from_secs(2));
        s.mark_dirty(bid(0, 0), bid(0, 0).byte_range(), SimTime::from_secs(3));
        // 0,0 is now most recent *and* dirty; LRU clean is 0,1.
        assert_eq!(s.lru_clean_block().unwrap().0, bid(0, 1));
        assert_eq!(s.lru_block().unwrap().0, bid(0, 1));
    }

    #[test]
    fn remove_clears_all_indexes() {
        let mut s = BlockStore::new(2);
        let b = bid(0, 0);
        s.insert(b, SimTime::ZERO);
        s.mark_dirty(b, b.byte_range(), SimTime::from_secs(1));
        let e = s.remove(b).unwrap();
        assert_eq!(e.dirty_bytes(), 4096);
        assert!(s.is_empty());
        assert_eq!(s.dirty_block_count(), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn insert_with_state_preserves_dirty_age() {
        let mut s = BlockStore::new(2);
        let id = bid(0, 0);
        let mut dirty = RangeSet::new();
        dirty.insert(ByteRange::new(0, 100));
        s.insert_with_state(
            id,
            SimTime::from_secs(9),
            SimTime::from_secs(8),
            dirty,
            Some(SimTime::from_secs(5)),
        );
        assert_eq!(s.total_dirty_bytes(), 100);
        assert_eq!(s.dirty_older_than(SimTime::from_secs(5)), vec![id]);
        assert!(s.check_invariants());
    }

    #[test]
    fn demotion_preserves_access_time() {
        let mut a = BlockStore::new(2);
        let mut b = BlockStore::new(2);
        let id = bid(0, 0);
        a.insert(id, SimTime::from_secs(5));
        let e = a.remove(id).unwrap();
        b.insert_with_access(id, e.last_access, e.last_modify);
        assert_eq!(b.get(id).unwrap().last_access, SimTime::from_secs(5));
    }
}
