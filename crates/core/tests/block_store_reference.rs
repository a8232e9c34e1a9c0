//! Differential test of [`BlockStore`] against a naive `Vec`-scan
//! reference with the same API.
//!
//! Both stores are driven through seeded op streams of inserts (including
//! older-keyed `insert_with_access` / `insert_with_state`, as unified
//! demotion and hybrid migration issue them), touches (some at times older
//! than the most recent access), `mark_dirty`, `clean`, `kill_dirty` and
//! removals, with evictions picked by `lru_block`, `lru_clean_block` or
//! `nth_block` the way the client caches pick them. File ids are sparse
//! and include both ends of the `u32` range, and a file's last block
//! often leaves and its id comes back. After every step the two must
//! agree on every query (`nth_block` for every `n`), and the store's own
//! index check must pass.
//!
//! A last case drives the cluster engine: caching-disable, truncate and
//! delete each visit several caches holding a file, in client order.
//!
//! Driven by a seeded [`nvfs_rng::StdRng`] so failures reproduce exactly.

use std::collections::BTreeSet;

use nvfs_core::block_store::{BlockStore, DirtyOutcome};
use nvfs_core::{ConsistencyMode, OpAction, RunHook, SimConfig, SimEngine, SimSession};
use nvfs_obs::events::Val;
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_trace::event::OpenMode;
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{BlockId, ByteRange, ClientId, FileId, RangeSet, SimTime, BLOCK_SIZE};

/// Sparse file ids, both ends of the `u32` range included.
const FILE_IDS: [u32; 5] = [0, 1, 1 << 31, u32::MAX - 1, u32::MAX];
/// An id the store never caches.
const ABSENT: FileId = FileId(2);
const BLOCKS_PER_FILE: u64 = 8;
const CASES: u64 = 400;

/// One block of the reference store.
#[derive(Debug, Clone)]
struct RefEntry {
    id: BlockId,
    dirty: RangeSet,
    last_access: SimTime,
    last_modify: SimTime,
    dirty_since: Option<SimTime>,
    /// `(last_access, tie)`: LRU order, ties broken by touch sequence.
    key: (SimTime, u64),
}

/// The obvious implementation: an unordered `Vec`, scanned per query.
#[derive(Debug, Default)]
struct RefStore {
    capacity: usize,
    blocks: Vec<RefEntry>,
    tie: u64,
}

impl RefStore {
    fn new(capacity: usize) -> Self {
        RefStore {
            capacity,
            ..RefStore::default()
        }
    }

    fn next_tie(&mut self) -> u64 {
        self.tie += 1;
        self.tie
    }

    fn find(&mut self, id: BlockId) -> Option<&mut RefEntry> {
        self.blocks.iter_mut().find(|e| e.id == id)
    }

    fn contains(&self, id: BlockId) -> bool {
        self.blocks.iter().any(|e| e.id == id)
    }

    fn is_full(&self) -> bool {
        self.blocks.len() >= self.capacity
    }

    fn insert_with_state(
        &mut self,
        id: BlockId,
        last_access: SimTime,
        last_modify: SimTime,
        dirty: RangeSet,
        dirty_since: Option<SimTime>,
    ) {
        assert!(!self.is_full() && !self.contains(id));
        let key = (last_access, self.next_tie());
        let dirty_since = if dirty.is_empty() {
            None
        } else {
            dirty_since.or(Some(last_modify))
        };
        self.blocks.push(RefEntry {
            id,
            dirty,
            last_access,
            last_modify,
            dirty_since,
            key,
        });
    }

    fn touch(&mut self, id: BlockId, t: SimTime) {
        let tie = self.next_tie();
        let e = self.find(id).expect("touch of uncached block");
        e.last_access = t;
        e.key = (t, tie);
    }

    fn mark_dirty(&mut self, id: BlockId, range: ByteRange, t: SimTime) -> DirtyOutcome {
        self.touch(id, t);
        let e = self.find(id).expect("cached");
        let Some(clipped) = id.byte_range().intersection(range) else {
            return DirtyOutcome::default();
        };
        let overwritten = e.dirty.overlap_bytes(clipped);
        let newly_dirty = e.dirty.insert(clipped);
        e.last_modify = t;
        if e.dirty_since.is_none() && !e.dirty.is_empty() {
            e.dirty_since = Some(t);
        }
        DirtyOutcome {
            newly_dirty,
            overwritten,
        }
    }

    fn clean(&mut self, id: BlockId) -> u64 {
        let Some(e) = self.find(id) else { return 0 };
        let bytes = e.dirty.len_bytes();
        e.dirty.clear();
        e.dirty_since = None;
        bytes
    }

    fn kill_dirty(&mut self, id: BlockId, range: ByteRange) -> u64 {
        let Some(e) = self.find(id) else { return 0 };
        let killed = e.dirty.remove(range);
        if e.dirty.is_empty() {
            e.dirty_since = None;
        }
        killed
    }

    fn remove(&mut self, id: BlockId) -> Option<RefEntry> {
        let i = self.blocks.iter().position(|e| e.id == id)?;
        Some(self.blocks.swap_remove(i))
    }

    fn lru_where(&self, keep: impl Fn(&RefEntry) -> bool) -> Option<(BlockId, SimTime)> {
        self.blocks
            .iter()
            .filter(|e| keep(e))
            .min_by_key(|e| e.key)
            .map(|e| (e.id, e.key.0))
    }

    fn lru_block(&self) -> Option<(BlockId, SimTime)> {
        self.lru_where(|_| true)
    }

    fn lru_clean_block(&self) -> Option<(BlockId, SimTime)> {
        self.lru_where(|e| e.dirty.is_empty())
    }

    fn sorted_ids(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.blocks.iter().map(|e| e.id).collect();
        ids.sort();
        ids
    }

    fn file_blocks(&self, file: FileId) -> Vec<BlockId> {
        self.sorted_ids()
            .into_iter()
            .filter(|id| id.file == file)
            .collect()
    }

    fn dirty_older_than(&self, cutoff: SimTime) -> Vec<BlockId> {
        let mut aged: Vec<(SimTime, BlockId)> = self
            .blocks
            .iter()
            .filter_map(|e| e.dirty_since.map(|s| (s, e.id)))
            .filter(|&(s, _)| s <= cutoff)
            .collect();
        aged.sort();
        aged.into_iter().map(|(_, id)| id).collect()
    }

    fn entry(&self, id: BlockId) -> &RefEntry {
        self.blocks.iter().find(|e| e.id == id).expect("cached")
    }
}

fn rand_file(rng: &mut StdRng) -> FileId {
    FileId(FILE_IDS[rng.gen_range(0..FILE_IDS.len())])
}

fn rand_block(rng: &mut StdRng) -> BlockId {
    BlockId::new(rand_file(rng), rng.gen_range(0..BLOCKS_PER_FILE))
}

fn rand_range(rng: &mut StdRng) -> ByteRange {
    ByteRange::at(
        rng.gen_range(0..BLOCKS_PER_FILE * BLOCK_SIZE),
        rng.gen_range(1..2 * BLOCK_SIZE),
    )
}

/// A time at or before `now`: how demotions and migrations key blocks.
fn older(rng: &mut StdRng, now: SimTime) -> SimTime {
    SimTime::from_secs(rng.gen_range(0..now.as_secs() + 1))
}

/// Tracks which blocks were last keyed older than the newest access.
fn note_key(stale: &mut BTreeSet<BlockId>, id: BlockId, t: SimTime, newest: SimTime) {
    if t < newest {
        stale.insert(id);
    } else {
        stale.remove(&id);
    }
}

/// Evicts one block the way a client cache does, checking the entry it
/// returns. Returns the victim.
fn evict(store: &mut BlockStore, reference: &mut RefStore, rng: &mut StdRng, seed: u64) -> BlockId {
    let victim = match rng.gen_range(0..3u32) {
        0 => store
            .lru_clean_block()
            .or_else(|| store.lru_block())
            .map(|(id, _)| id),
        1 => store.nth_block(rng.gen_range(0..store.len())),
        _ => store.lru_block().map(|(id, _)| id),
    }
    .expect("full store is non-empty");
    let (got, want) = (store.remove(victim), reference.remove(victim));
    let got = got.expect("victim is cached");
    let want = want.expect("victim is in the reference");
    assert_eq!(got.dirty, want.dirty, "seed {seed}: evicted dirty state");
    assert_eq!(got.last_access, want.last_access, "seed {seed}");
    assert_eq!(got.last_modify, want.last_modify, "seed {seed}");
    assert_eq!(got.dirty_since, want.dirty_since, "seed {seed}");
    victim
}

/// Every query the client caches make, compared between the two stores.
fn assert_same(store: &BlockStore, reference: &RefStore, step: usize, seed: u64, rng: &mut StdRng) {
    let at = format!("seed {seed}, step {step}");
    assert!(store.check_invariants(), "{at}: index check failed");
    assert_eq!(store.len(), reference.blocks.len(), "{at}: len");
    assert_eq!(store.lru_block(), reference.lru_block(), "{at}: lru_block");
    assert_eq!(
        store.lru_clean_block(),
        reference.lru_clean_block(),
        "{at}: lru_clean_block"
    );
    for file in [rand_file(rng), ABSENT] {
        assert_eq!(
            store.file_blocks(file),
            reference.file_blocks(file),
            "{at}: file_blocks({file:?})"
        );
    }
    let cutoff = SimTime::from_secs(rng.gen_range(0..200u64));
    let mut aged = Vec::new();
    store.dirty_older_than_into(cutoff, &mut aged);
    assert_eq!(
        aged,
        reference.dirty_older_than(cutoff),
        "{at}: dirty_older_than({cutoff:?})"
    );
    let sorted = reference.sorted_ids();
    for n in 0..store.len() + 2 {
        assert_eq!(
            store.nth_block(n),
            sorted.get(n).copied(),
            "{at}: nth_block({n})"
        );
    }
    let order: Vec<BlockId> = store.iter().map(|(id, _)| id).collect();
    assert_eq!(order, sorted, "{at}: iter order");
    for (id, e) in store.iter() {
        let r = reference.entry(id);
        assert_eq!(e.dirty, r.dirty, "{at}: dirty of {id}");
        assert_eq!(e.last_access, r.last_access, "{at}: last_access of {id}");
        assert_eq!(e.last_modify, r.last_modify, "{at}: last_modify of {id}");
        assert_eq!(e.dirty_since, r.dirty_since, "{at}: dirty_since of {id}");
    }
    let dirty: u64 = reference.blocks.iter().map(|e| e.dirty.len_bytes()).sum();
    assert_eq!(store.total_dirty_bytes(), dirty, "{at}: total_dirty_bytes");
    let dirty_blocks = reference
        .blocks
        .iter()
        .filter(|e| !e.dirty.is_empty())
        .count();
    assert_eq!(
        store.dirty_block_count(),
        dirty_blocks,
        "{at}: dirty_block_count"
    );
}

#[test]
fn block_store_matches_the_vec_scan_reference() {
    let (mut older_keyed, mut stale_touches, mut stale_victims) = (0u64, 0u64, 0u64);
    // Inserts into a file whose every block had left the store.
    let mut reborn_rows = 0u64;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = rng.gen_range(1..16usize);
        let mut store = BlockStore::new(capacity);
        let mut reference = RefStore::new(capacity);
        let mut now = SimTime::ZERO;
        let mut newest = SimTime::ZERO;
        // Blocks last keyed older than the newest access at the time.
        let mut stale = BTreeSet::new();
        // Files that ever held a block.
        let mut seen = BTreeSet::new();
        for step in 0..rng.gen_range(1..250usize) {
            if rng.gen_bool(0.4) {
                now = SimTime::from_secs(now.as_secs() + rng.gen_range(0..3u64));
            }
            let id = rand_block(&mut rng);
            let cached = store.contains(id);
            match rng.gen_range(0..12u32) {
                0..=2 if cached => {
                    // Occasionally touch at an older time than the newest
                    // access, as a replayed or recovered op may.
                    let t = if rng.gen_bool(0.3) {
                        older(&mut rng, now)
                    } else {
                        now
                    };
                    stale_touches += u64::from(t < newest);
                    note_key(&mut stale, id, t, newest);
                    store.touch(id, t);
                    reference.touch(id, t);
                    newest = newest.max(t);
                }
                3 | 4 if cached => {
                    let range = rand_range(&mut rng);
                    assert_eq!(
                        store.mark_dirty(id, range, now),
                        reference.mark_dirty(id, range, now),
                        "seed {seed}: mark_dirty"
                    );
                    stale.remove(&id);
                    newest = newest.max(now);
                }
                5 => assert_eq!(store.clean(id), reference.clean(id), "seed {seed}: clean"),
                6 => {
                    let range = rand_range(&mut rng);
                    assert_eq!(
                        store.kill_dirty(id, range),
                        reference.kill_dirty(id, range),
                        "seed {seed}: kill_dirty"
                    );
                }
                7 if cached => {
                    stale.remove(&id);
                    let (got, want) = (store.remove(id), reference.remove(id));
                    assert_eq!(got.map(|e| e.dirty), want.map(|e| e.dirty), "seed {seed}");
                }
                _ if cached => {}
                _ => {
                    if store.is_full() {
                        let lru = store.lru_block().map(|(id, _)| id);
                        stale_victims += u64::from(lru.is_some_and(|id| stale.contains(&id)));
                        let victim = evict(&mut store, &mut reference, &mut rng, seed);
                        stale.remove(&victim);
                    }
                    reborn_rows += u64::from(
                        !seen.insert(id.file) && reference.file_blocks(id.file).is_empty(),
                    );
                    match rng.gen_range(0..4u32) {
                        0 | 1 => {
                            stale.remove(&id);
                            store.insert(id, now);
                            reference.insert_with_state(id, now, now, RangeSet::new(), None);
                            newest = newest.max(now);
                        }
                        2 => {
                            // Unified demotion: a clean block keeps its
                            // original access time.
                            let access = older(&mut rng, now);
                            older_keyed += u64::from(access < newest);
                            note_key(&mut stale, id, access, newest);
                            store.insert_with_access(id, access, access);
                            reference.insert_with_state(id, access, access, RangeSet::new(), None);
                            newest = newest.max(access);
                        }
                        _ => {
                            // Hybrid migration: an aged dirty block keeps
                            // its history.
                            let access = older(&mut rng, now);
                            older_keyed += u64::from(access < newest);
                            note_key(&mut stale, id, access, newest);
                            let since = older(&mut rng, access);
                            let dirty = RangeSet::from_range(ByteRange::at(
                                id.byte_range().start + rng.gen_range(0..BLOCK_SIZE / 2),
                                rng.gen_range(1..BLOCK_SIZE / 2),
                            ));
                            let since = rng.gen_bool(0.5).then_some(since);
                            store.insert_with_state(id, access, access, dirty.clone(), since);
                            reference.insert_with_state(id, access, access, dirty, since);
                            newest = newest.max(access);
                        }
                    }
                }
            }
            assert_same(&store, &reference, step, seed, &mut rng);
        }
    }
    assert!(
        older_keyed > 5_000,
        "only {older_keyed} older-keyed inserts"
    );
    assert!(stale_touches > 400, "only {stale_touches} stale touches");
    assert!(
        stale_victims > 5_000,
        "only {stale_victims} evictions with an older-keyed LRU block"
    );
    assert!(reborn_rows > 1_000, "only {reborn_rows} reborn file rows");
}

/// Records, before each open, truncate and delete of [`SHARED`], the
/// caches the engine would visit for it, in its visiting order.
#[derive(Default)]
struct HolderProbe {
    seen: Vec<(SimTime, Vec<ClientId>)>,
}

const SHARED: FileId = FileId(u32::MAX);

impl RunHook for HolderProbe {
    fn before_op(&mut self, engine: &mut SimEngine<'_>, _index: usize, op: &Op) -> OpAction {
        if let OpKind::Open { file, .. } | OpKind::Truncate { file, .. } | OpKind::Delete { file } =
            op.kind
        {
            if file == SHARED {
                self.seen.push((op.time, engine.holders(file).to_vec()));
            }
        }
        OpAction::Apply
    }

    fn wants_flush_events(&self) -> bool {
        false
    }
}

#[test]
fn disable_truncate_and_delete_visit_holders_in_client_order() {
    let mut ops = OpStream::new();
    let mut at = 0;
    let mut push = |client: u32, kind: OpKind| {
        at += 1;
        ops.push(Op {
            time: SimTime::from_secs(at),
            client: ClientId(client),
            kind,
        });
        SimTime::from_secs(at)
    };
    let open = |mode| OpKind::Open { file: SHARED, mode };
    let close = || OpKind::Close { file: SHARED };
    // Clients take the file in an order other than client order, each
    // leaving one dirty block of its own.
    let write_round = |push: &mut dyn FnMut(u32, OpKind) -> SimTime, order: [u32; 3]| {
        for c in order {
            push(c, open(OpenMode::Write));
            let block = BlockId::new(SHARED, u64::from(c));
            push(
                c,
                OpKind::Write {
                    file: SHARED,
                    range: block.byte_range(),
                },
            );
            push(c, close());
        }
    };
    write_round(&mut push, [3, 1, 2]);
    push(4, open(OpenMode::Read));
    // A concurrent writer disables caching: every holder flushes.
    let disabled = push(0, open(OpenMode::Write));
    push(4, close());
    push(0, close());
    write_round(&mut push, [2, 3, 1]);
    let truncated = push(
        0,
        OpKind::Truncate {
            file: SHARED,
            new_len: 0,
        },
    );
    write_round(&mut push, [1, 3, 2]);
    let deleted = push(0, OpKind::Delete { file: SHARED });
    let after = push(0, open(OpenMode::Read));

    // Block-on-demand consistency: opens recall nothing, so each writer
    // keeps its dirty block until the path under test visits it.
    let config = SimConfig::volatile(1 << 20).with_consistency(ConsistencyMode::BlockOnDemand);
    let mut probe = HolderProbe::default();
    // The event trace is process-global; the other test here emits none.
    nvfs_obs::set_trace_enabled(true);
    let out = SimSession::new(&config).run(&ops, &mut [&mut probe]);
    let events = nvfs_obs::events::sorted();
    nvfs_obs::set_trace_enabled(false);

    let holders = vec![ClientId(1), ClientId(2), ClientId(3)];
    let at = |t: SimTime| {
        probe
            .seen
            .iter()
            .find(|(seen, _)| *seen == t)
            .map(|(_, h)| h.clone())
    };
    assert_eq!(at(disabled), Some(holders.clone()), "caching-disable");
    assert_eq!(at(truncated), Some(holders.clone()), "truncate");
    assert_eq!(at(deleted), Some(holders), "delete");
    assert_eq!(at(after), Some(vec![]), "the delete drops the row");

    // The caching-disable flushes land in client order.
    let field = |e: &nvfs_obs::events::Event, key| {
        e.fields.iter().find_map(|(k, v)| match v {
            Val::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    };
    let flushed: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "write_back" && e.t_us == disabled.as_micros())
        .filter_map(|e| field(e, "client"))
        .collect();
    assert_eq!(flushed, [1, 2, 3]);
    assert_eq!(out.stats.callback_bytes, 3 * BLOCK_SIZE);
    // Truncate and delete each killed every holder's dirty block.
    assert_eq!(out.stats.deleted_dead_bytes, 6 * BLOCK_SIZE);
}
