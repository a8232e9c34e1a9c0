//! Differential test of the omniscient policy's next-modify index.
//!
//! A schedule-indexed [`BlockStore`] is driven through random inserts,
//! removals, dirty-state changes and picks at non-decreasing times, over
//! random op streams of writes, truncations and deletions. Every pick must
//! equal the brute-force reference: the cached block with the largest
//! `(next_modify, id)`, found by scanning the whole store.
//!
//! Driven by a seeded [`nvfs_rng::StdRng`] so failures reproduce exactly.

use std::sync::Arc;

use nvfs_core::block_store::BlockStore;
use nvfs_core::omniscient::OmniscientSchedule;
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{BlockId, ByteRange, ClientId, FileId, RangeSet, SimTime, BLOCK_SIZE};

/// Files the op stream modifies; files at or above this are never
/// modified, so their blocks are keyed `SimTime::MAX`.
const WRITTEN_FILES: u32 = 3;
const FILES: u32 = 5;
const BLOCKS_PER_FILE: u64 = 6;
const CASES: u64 = 300;

/// Random writes, truncations and deletions at non-decreasing whole
/// seconds (several ops may share a time).
fn rand_ops(rng: &mut StdRng) -> OpStream {
    let mut t = 0;
    (0..rng.gen_range(1..120usize))
        .map(|_| {
            t += rng.gen_range(0..4u64);
            let file = FileId(rng.gen_range(0..WRITTEN_FILES));
            let kind = match rng.gen_range(0..10u32) {
                0 => OpKind::Truncate {
                    file,
                    new_len: rng.gen_range(0..BLOCKS_PER_FILE * BLOCK_SIZE),
                },
                1 => OpKind::Delete { file },
                _ => OpKind::Write {
                    file,
                    range: ByteRange::at(
                        rng.gen_range(0..BLOCKS_PER_FILE * BLOCK_SIZE),
                        rng.gen_range(1..2 * BLOCK_SIZE),
                    ),
                },
            };
            Op {
                time: SimTime::from_secs(t),
                client: ClientId(0),
                kind,
            }
        })
        .collect()
}

fn rand_block(rng: &mut StdRng) -> BlockId {
    BlockId::new(
        FileId(rng.gen_range(0..FILES)),
        rng.gen_range(0..BLOCKS_PER_FILE),
    )
}

/// The whole-store scan the index replaces.
fn reference(store: &BlockStore, schedule: &OmniscientSchedule, now: SimTime) -> Option<BlockId> {
    store
        .iter()
        .map(|(id, _)| (id, schedule.next_modify(id, now)))
        .max_by_key(|&(id, t)| (t, id))
        .map(|(id, _)| id)
}

/// Picks through the index and checks the result against the reference.
/// Returns the victim and whether it won a tie among never-modified blocks.
fn checked_pick(
    store: &mut BlockStore,
    schedule: &OmniscientSchedule,
    now: SimTime,
    seed: u64,
) -> Option<(BlockId, bool)> {
    let want = reference(store, schedule, now);
    let got = store.furthest_next_modify(now);
    assert_eq!(got, want, "seed {seed}: pick at {now:?} diverged");
    let never = store
        .iter()
        .filter(|&(id, _)| schedule.next_modify(id, now) == SimTime::MAX)
        .count();
    got.map(|id| {
        (
            id,
            never >= 2 && schedule.next_modify(id, now) == SimTime::MAX,
        )
    })
}

#[test]
fn index_picks_match_the_whole_store_scan() {
    let (mut picks, mut ties) = (0u64, 0u64);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = rand_ops(&mut rng);
        let end = ops.iter().last().map_or(0, |op| op.time.as_secs()) + 3;
        let schedule = Arc::new(OmniscientSchedule::build(&ops));
        let mut store = BlockStore::with_schedule(rng.gen_range(1..12usize), schedule.clone());
        let mut now = SimTime::ZERO;
        for _ in 0..rng.gen_range(1..200usize) {
            if rng.gen_bool(0.4) && now.as_secs() < end {
                now = SimTime::from_secs(now.as_secs() + rng.gen_range(0..3u64));
            }
            let id = rand_block(&mut rng);
            match rng.gen_range(0..8u32) {
                0..=2 if store.contains(id) => {
                    store.mark_dirty(id, id.byte_range(), now);
                }
                0..=2 => {
                    if store.is_full() {
                        // Evict the way a client cache does: pick, then remove.
                        let (victim, _) =
                            checked_pick(&mut store, &schedule, now, seed).expect("full store");
                        store.remove(victim).expect("victim is cached");
                    }
                    match rng.gen_range(0..3u32) {
                        0 => store.insert(id, now),
                        1 => store.insert_with_access(id, SimTime::ZERO, now),
                        _ => {
                            let dirty =
                                RangeSet::from_range(ByteRange::at(id.byte_range().start, 100));
                            store.insert_with_state(id, now, now, dirty, Some(SimTime::ZERO));
                        }
                    }
                }
                3 => {
                    let k = rng.gen_range(0..store.len() + 1);
                    if let Some(victim) = store.nth_block(k) {
                        store.remove(victim);
                    }
                }
                4 => {
                    store.clean(id);
                }
                _ => {
                    picks += 1;
                    if let Some((_, tie)) = checked_pick(&mut store, &schedule, now, seed) {
                        ties += u64::from(tie);
                    }
                }
            }
            assert!(store.check_invariants(), "seed {seed}: index out of step");
        }
    }
    assert!(picks > 10_000, "only {picks} picks checked");
    assert!(
        ties > 1_000,
        "only {ties} picks tie-broken among never-modified blocks"
    );
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "non-decreasing")]
fn pick_times_must_not_go_backwards() {
    let mut store = BlockStore::with_schedule(2, Arc::new(OmniscientSchedule::default()));
    store.insert(BlockId::new(FileId(0), 0), SimTime::ZERO);
    store.furthest_next_modify(SimTime::from_secs(2));
    store.furthest_next_modify(SimTime::from_secs(1));
}
