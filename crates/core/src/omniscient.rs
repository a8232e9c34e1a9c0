//! The omniscient replacement schedule (§2.4).
//!
//! The paper's omniscient cache manager "can always flush the block in the
//! cache whose next modify time is the furthest in the future". Building
//! that policy requires a pre-pass over the trace (the paper's third
//! simulation pass): for every block we record the times at which it will
//! be modified again — by an overwrite, a truncation, or the deletion of
//! its file. [`OmniscientSchedule::next_modify`] then answers "when is this
//! block next modified after `now`?" with a binary search.

use std::collections::BTreeMap;

use nvfs_trace::op::{OpKind, OpStream};
use nvfs_types::{blocks_of_range, BlockId, FileId, SimTime};

/// Per-block future modification times, built from an op stream.
#[derive(Debug, Clone, Default)]
pub struct OmniscientSchedule {
    /// Sorted modification times per block.
    times: BTreeMap<BlockId, Vec<SimTime>>,
}

impl OmniscientSchedule {
    /// Builds the schedule for `ops`.
    ///
    /// A block is "modified" by a write that touches it, by a truncation
    /// that kills bytes in it, and by the deletion of its file (all three
    /// absorb dirty data, which is what the policy cares about).
    ///
    /// # Examples
    ///
    /// ```
    /// use nvfs_core::omniscient::OmniscientSchedule;
    /// use nvfs_trace::op::{Op, OpKind, OpStream};
    /// use nvfs_types::{BlockId, ByteRange, ClientId, FileId, SimTime};
    ///
    /// let ops: OpStream = vec![Op {
    ///     time: SimTime::from_secs(10),
    ///     client: ClientId(0),
    ///     kind: OpKind::Write { file: FileId(0), range: ByteRange::new(0, 4096) },
    /// }]
    /// .into_iter()
    /// .collect();
    /// let sched = OmniscientSchedule::build(&ops);
    /// let b = BlockId::new(FileId(0), 0);
    /// assert_eq!(sched.next_modify(b, SimTime::ZERO), SimTime::from_secs(10));
    /// assert_eq!(sched.next_modify(b, SimTime::from_secs(10)), SimTime::MAX);
    /// ```
    pub fn build(ops: &OpStream) -> Self {
        let mut times: BTreeMap<BlockId, Vec<SimTime>> = BTreeMap::new();
        for op in ops {
            match &op.kind {
                OpKind::Write { file, range } => {
                    for b in blocks_of_range(*file, *range) {
                        times.entry(b).or_default().push(op.time);
                    }
                }
                OpKind::Truncate { file, new_len } => {
                    // Every known block at or beyond the cut dies.
                    let first_cut = *new_len / nvfs_types::BLOCK_SIZE;
                    let keys: Vec<BlockId> = times
                        .range(BlockId::new(*file, first_cut)..BlockId::new(FileId(file.0 + 1), 0))
                        .map(|(&b, _)| b)
                        .collect();
                    for b in keys {
                        times.get_mut(&b).expect("key just scanned").push(op.time);
                    }
                }
                OpKind::Delete { file } => {
                    let keys: Vec<BlockId> = times
                        .range(BlockId::new(*file, 0)..BlockId::new(FileId(file.0 + 1), 0))
                        .map(|(&b, _)| b)
                        .collect();
                    for b in keys {
                        times.get_mut(&b).expect("key just scanned").push(op.time);
                    }
                }
                _ => {}
            }
        }
        // Ops arrive in time order, so each vector is already sorted.
        OmniscientSchedule { times }
    }

    /// The first modification of `block` strictly after `now`, or
    /// [`SimTime::MAX`] if it is never modified again (the ideal victim).
    pub fn next_modify(&self, block: BlockId, now: SimTime) -> SimTime {
        match self.times.get(&block) {
            Some(v) => {
                let idx = v.partition_point(|&t| t <= now);
                v.get(idx).copied().unwrap_or(SimTime::MAX)
            }
            None => SimTime::MAX,
        }
    }

    /// Number of blocks with any scheduled modification.
    pub fn block_count(&self) -> usize {
        self.times.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_trace::op::Op;
    use nvfs_types::{ByteRange, ClientId};

    fn write(t: u64, file: u32, range: ByteRange) -> Op {
        Op {
            time: SimTime::from_secs(t),
            client: ClientId(0),
            kind: OpKind::Write {
                file: FileId(file),
                range,
            },
        }
    }

    #[test]
    fn delete_counts_as_modification() {
        let ops: OpStream = vec![
            write(1, 0, ByteRange::new(0, 8192)),
            Op {
                time: SimTime::from_secs(5),
                client: ClientId(0),
                kind: OpKind::Delete { file: FileId(0) },
            },
        ]
        .into_iter()
        .collect();
        let s = OmniscientSchedule::build(&ops);
        let b0 = BlockId::new(FileId(0), 0);
        assert_eq!(
            s.next_modify(b0, SimTime::from_secs(1)),
            SimTime::from_secs(5)
        );
        assert_eq!(s.next_modify(b0, SimTime::from_secs(5)), SimTime::MAX);
    }

    #[test]
    fn truncate_only_touches_cut_blocks() {
        let ops: OpStream = vec![
            write(1, 0, ByteRange::new(0, 16384)), // blocks 0..4
            Op {
                time: SimTime::from_secs(5),
                client: ClientId(0),
                kind: OpKind::Truncate {
                    file: FileId(0),
                    new_len: 8192,
                },
            },
        ]
        .into_iter()
        .collect();
        let s = OmniscientSchedule::build(&ops);
        assert_eq!(
            s.next_modify(BlockId::new(FileId(0), 0), SimTime::from_secs(1)),
            SimTime::MAX,
            "block below the cut survives"
        );
        assert_eq!(
            s.next_modify(BlockId::new(FileId(0), 2), SimTime::from_secs(1)),
            SimTime::from_secs(5),
            "block above the cut dies at truncation"
        );
    }

    #[test]
    fn unknown_block_is_never_modified() {
        let s = OmniscientSchedule::build(&OpStream::new());
        assert_eq!(
            s.next_modify(BlockId::new(FileId(9), 9), SimTime::ZERO),
            SimTime::MAX
        );
        assert_eq!(s.block_count(), 0);
    }

    #[test]
    fn repeated_writes_give_successive_times() {
        let ops: OpStream = vec![
            write(1, 0, ByteRange::new(0, 100)),
            write(5, 0, ByteRange::new(0, 100)),
            write(9, 0, ByteRange::new(0, 100)),
        ]
        .into_iter()
        .collect();
        let s = OmniscientSchedule::build(&ops);
        let b = BlockId::new(FileId(0), 0);
        assert_eq!(s.next_modify(b, SimTime::ZERO), SimTime::from_secs(1));
        assert_eq!(
            s.next_modify(b, SimTime::from_secs(1)),
            SimTime::from_secs(5)
        );
        assert_eq!(
            s.next_modify(b, SimTime::from_secs(7)),
            SimTime::from_secs(9)
        );
        assert_eq!(s.next_modify(b, SimTime::from_secs(9)), SimTime::MAX);
    }
}
