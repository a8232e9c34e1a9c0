//! NVRAM block replacement policies (§2.5).
//!
//! The paper compares three policies for choosing which NVRAM block to
//! flush when an incoming write needs space: LRU, uniformly random (a
//! sensitivity check — it turns out to work almost as well), and the
//! unrealizable omniscient policy that evicts the block whose next
//! modification is furthest in the future.

use std::sync::Arc;

use nvfs_rng::{Rng, SeedableRng, StdRng};

use nvfs_types::{BlockId, SimTime};

use crate::block_store::BlockStore;
use crate::config::PolicyKind;
use crate::omniscient::OmniscientSchedule;

/// A stateful replacement policy instance.
#[derive(Debug, Clone)]
pub(crate) enum Policy {
    /// Least-recently used.
    Lru,
    /// Uniformly random, with deterministic seeded state (boxed: the
    /// generator state dwarfs the other variants).
    Random(Box<StdRng>),
    /// Next-modify-furthest-in-future, backed by a prebuilt schedule.
    Omniscient(Arc<OmniscientSchedule>),
}

impl Policy {
    /// Instantiates the policy described by `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`PolicyKind::Omniscient`] but `schedule` is
    /// `None` — the omniscient policy cannot run without its pre-pass.
    pub(crate) fn from_kind(kind: PolicyKind, schedule: Option<Arc<OmniscientSchedule>>) -> Self {
        match kind {
            PolicyKind::Lru => Policy::Lru,
            PolicyKind::Random { seed } => Policy::Random(Box::new(StdRng::seed_from_u64(seed))),
            PolicyKind::Omniscient => Policy::Omniscient(
                schedule.expect("omniscient policy requires a prebuilt schedule"),
            ),
        }
    }

    /// An empty store of `capacity` blocks for this policy to pick from:
    /// the omniscient policy's store carries its next-modify index.
    pub(crate) fn new_store(&self, capacity: usize) -> BlockStore {
        match self {
            Policy::Omniscient(schedule) => {
                BlockStore::with_schedule(capacity, Arc::clone(schedule))
            }
            Policy::Lru | Policy::Random(_) => BlockStore::new(capacity),
        }
    }

    /// Chooses a victim block in `store`, or `None` if the store is empty.
    ///
    /// Pick times must be non-decreasing per store (debug-asserted for the
    /// omniscient policy, whose index relies on it).
    ///
    /// # Panics
    ///
    /// Panics if the policy is omniscient and `store` was not made by
    /// [`Self::new_store`].
    pub(crate) fn pick_victim(&mut self, store: &mut BlockStore, now: SimTime) -> Option<BlockId> {
        if store.is_empty() {
            return None;
        }
        match self {
            Policy::Lru => store.lru_block().map(|(id, _)| id),
            Policy::Random(rng) => store.nth_block(rng.gen_range(0..store.len())),
            Policy::Omniscient(_) => store.furthest_next_modify(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_trace::op::{Op, OpKind, OpStream};
    use nvfs_types::{ByteRange, ClientId, FileId};

    fn store_with(n: u64) -> BlockStore {
        fill(BlockStore::new(n as usize), n)
    }

    fn fill(mut s: BlockStore, n: u64) -> BlockStore {
        for i in 0..n {
            s.insert(BlockId::new(FileId(0), i), SimTime::from_secs(i + 1));
        }
        s
    }

    #[test]
    fn lru_picks_oldest_access() {
        let mut p = Policy::from_kind(PolicyKind::Lru, None);
        let mut s = store_with(3);
        assert_eq!(
            p.pick_victim(&mut s, SimTime::ZERO),
            Some(BlockId::new(FileId(0), 0))
        );
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut s = store_with(8);
        let picks_a: Vec<_> = {
            let mut p = Policy::from_kind(PolicyKind::Random { seed: 9 }, None);
            (0..10)
                .map(|_| p.pick_victim(&mut s, SimTime::ZERO).unwrap())
                .collect()
        };
        let picks_b: Vec<_> = {
            let mut p = Policy::from_kind(PolicyKind::Random { seed: 9 }, None);
            (0..10)
                .map(|_| p.pick_victim(&mut s, SimTime::ZERO).unwrap())
                .collect()
        };
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|b| b.index < 8));
        // Not all identical (it really is random).
        assert!(picks_a.iter().any(|b| b != &picks_a[0]));
    }

    #[test]
    fn omniscient_picks_furthest_next_modify() {
        // Block 0 is rewritten soon, block 1 never again, block 2 later.
        let ops: OpStream = vec![
            Op {
                time: SimTime::from_secs(10),
                client: ClientId(0),
                kind: OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            },
            Op {
                time: SimTime::from_secs(50),
                client: ClientId(0),
                kind: OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::at(8192, 100),
                },
            },
        ]
        .into_iter()
        .collect();
        let schedule = Arc::new(OmniscientSchedule::build(&ops));
        let mut p = Policy::from_kind(PolicyKind::Omniscient, Some(schedule));
        let mut s = fill(p.new_store(4), 3);
        // Block 1 (never modified) is the ideal victim.
        assert_eq!(
            p.pick_victim(&mut s, SimTime::ZERO),
            Some(BlockId::new(FileId(0), 1))
        );
        // Once block 1 is gone, block 2 (rewritten at 50 s) beats block 0
        // (rewritten at 10 s)...
        s.remove(BlockId::new(FileId(0), 1));
        assert_eq!(
            p.pick_victim(&mut s, SimTime::from_secs(5)),
            Some(BlockId::new(FileId(0), 2))
        );
        // ...until block 0's rewrite has passed and it is never modified
        // again...
        assert_eq!(
            p.pick_victim(&mut s, SimTime::from_secs(10)),
            Some(BlockId::new(FileId(0), 0))
        );
        // ...and once both rewrites have passed, the larger block id wins
        // the tie, a newcomer included.
        assert_eq!(
            p.pick_victim(&mut s, SimTime::from_secs(50)),
            Some(BlockId::new(FileId(0), 2))
        );
        s.insert(BlockId::new(FileId(0), 3), SimTime::from_secs(60));
        assert_eq!(
            p.pick_victim(&mut s, SimTime::from_secs(60)),
            Some(BlockId::new(FileId(0), 3))
        );
        assert!(s.check_invariants());
    }

    #[test]
    #[should_panic(expected = "with_schedule")]
    fn omniscient_needs_an_indexed_store() {
        let schedule = Arc::new(OmniscientSchedule::default());
        let mut p = Policy::from_kind(PolicyKind::Omniscient, Some(schedule));
        let _ = p.pick_victim(&mut store_with(2), SimTime::ZERO);
    }

    #[test]
    fn empty_store_yields_none() {
        let mut p = Policy::from_kind(PolicyKind::Lru, None);
        assert_eq!(p.pick_victim(&mut BlockStore::new(4), SimTime::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "prebuilt schedule")]
    fn omniscient_without_schedule_panics() {
        let _ = Policy::from_kind(PolicyKind::Omniscient, None);
    }
}
