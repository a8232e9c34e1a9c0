//! WAL-aware durability judging.
//!
//! The write-ahead log changes *when* a byte becomes promised: not when a
//! client crashes with it in NVRAM, but the instant its record is durably
//! appended (and the fsync acknowledged). [`WalJudge`] replays a server
//! run's chronological event stream — acked appends, deletes, crash
//! incidents — and maintains that promise independently of the code under
//! test. At each crash it hands the existing [`Oracle`] a
//! [`DurablePromise`] capturing the promise at that instant and an
//! observation built from what recovery actually replayed plus which
//! promised bytes were already on disk, so all four verdict types keep
//! their meaning:
//!
//! * `LostDurable` — an acked byte neither replayed nor on disk.
//! * `Resurrected` — replay produced bytes never acked (a torn, un-acked
//!   record surviving roll-forward would trip this).
//! * `DoubleReplay` — one incident's replay applied twice.
//! * `Clean` — the commit protocol held.
//!
//! The judge additionally checks the *truncation invariant* at shutdown
//! via [`WalJudge::finish`]: every byte still promised must be live on
//! disk, which fails if the log ever truncated a record before its segment
//! write completed.

use nvfs_types::{ClientId, FileId, RangeSet, SimTime};

use crate::judge::{Oracle, OracleSummary};
use crate::shadow::{intersect, union_into, DrainExpectation, DurableMap, DurablePromise};

/// One entry of a WAL run's chronological event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// A record was durably appended and acknowledged.
    Append {
        /// Ack time.
        t: SimTime,
        /// The file the record covers.
        file: FileId,
        /// The promised byte ranges.
        ranges: RangeSet,
    },
    /// The file was deleted; its promise is withdrawn.
    Delete {
        /// Delete time.
        t: SimTime,
        /// The deleted file.
        file: FileId,
    },
    /// The server crashed and recovered.
    Crash {
        /// Crash time.
        at: SimTime,
        /// Byte ranges recovery replayed from the log.
        replayed: DurableMap,
        /// Live on-disk byte ranges at the moment of the crash.
        disk: DurableMap,
    },
}

/// Judges one WAL-mode run by folding its event stream in order.
#[derive(Debug, Clone)]
pub struct WalJudge {
    client: ClientId,
    promise: DurableMap,
    oracle: Oracle,
}

impl WalJudge {
    /// A fresh judge for one run, identified by `client` (each workload
    /// gets its own id so incidents never collide across runs).
    pub fn new(client: ClientId) -> Self {
        WalJudge {
            client,
            promise: DurableMap::new(),
            oracle: Oracle::new(),
        }
    }

    /// Folds `events` in order, judging every crash incident.
    pub fn run(&mut self, events: &[WalEvent]) {
        for e in events {
            match e {
                WalEvent::Append { file, ranges, .. } => {
                    union_into(&mut self.promise, [(file, ranges)]);
                }
                WalEvent::Delete { file, .. } => {
                    self.promise.remove(file);
                }
                WalEvent::Crash { at, replayed, disk } => {
                    self.judge_crash(*at, replayed, disk);
                }
            }
        }
    }

    fn judge_crash(&mut self, at: SimTime, replayed: &DurableMap, disk: &DurableMap) {
        // Observed recovery = what was replayed, plus the promised bytes
        // already safe on disk (drained before the crash). Unpromised disk
        // data — ordinary un-fsynced segment writes — is legitimate and
        // must not read as resurrection, hence the intersection.
        let mut observed = self.promised_on(disk);
        union_into(&mut observed, replayed);
        let promise = DurablePromise {
            client: self.client,
            captured_at: at,
            ranges: self.promise.clone(),
        };
        self.oracle
            .judge(&promise, DrainExpectation::full(), &observed);
    }

    /// The shutdown check of the truncation invariant: every byte still
    /// promised must be live on disk. Judged as one final incident at `at`
    /// (use a time strictly after the last crash).
    pub fn finish(&mut self, at: SimTime, final_disk: &DurableMap) {
        let observed = self.promised_on(final_disk);
        let promise = DurablePromise {
            client: self.client,
            captured_at: at,
            ranges: self.promise.clone(),
        };
        self.oracle
            .judge(&promise, DrainExpectation::full(), &observed);
    }

    /// The promised bytes `disk` holds, per file.
    fn promised_on(&self, disk: &DurableMap) -> DurableMap {
        let mut out = DurableMap::new();
        for (file, overlap) in intersect(disk, &self.promise) {
            out.entry(file).or_default().insert(overlap);
        }
        out
    }

    /// Summarises every judged incident.
    pub fn summary(&self) -> OracleSummary {
        self.oracle.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::Verdict;
    use nvfs_types::ByteRange;

    fn rs(start: u64, end: u64) -> RangeSet {
        RangeSet::from_range(ByteRange::new(start, end))
    }

    fn map(entries: &[(u32, u64, u64)]) -> DurableMap {
        let mut m = DurableMap::new();
        for &(file, start, end) in entries {
            m.entry(FileId(file))
                .or_default()
                .insert(ByteRange::new(start, end));
        }
        m
    }

    fn append(secs: u64, file: u32, start: u64, end: u64) -> WalEvent {
        WalEvent::Append {
            t: SimTime::from_secs(secs),
            file: FileId(file),
            ranges: rs(start, end),
        }
    }

    #[test]
    fn faithful_replay_is_clean() {
        let mut j = WalJudge::new(ClientId(0));
        j.run(&[
            append(1, 1, 0, 100),
            WalEvent::Crash {
                at: SimTime::from_secs(2),
                replayed: map(&[(1, 0, 100)]),
                disk: DurableMap::new(),
            },
        ]);
        assert_eq!(j.summary().violations(), 0);
        assert_eq!(j.summary().crash_points, 1);
    }

    #[test]
    fn drained_bytes_on_disk_satisfy_the_promise_without_replay() {
        let mut j = WalJudge::new(ClientId(0));
        j.run(&[
            append(1, 1, 0, 100),
            // The record drained and truncated before the crash: nothing
            // to replay, but block 0 of the file is live on disk.
            WalEvent::Crash {
                at: SimTime::from_secs(9),
                replayed: DurableMap::new(),
                disk: map(&[(1, 0, 4096), (7, 0, 8192)]),
            },
        ]);
        // File 7's unpromised segment data must not read as resurrected.
        assert_eq!(j.summary().violations(), 0);
    }

    #[test]
    fn a_swallowed_acked_record_is_lost_durable() {
        let mut j = WalJudge::new(ClientId(0));
        j.run(&[
            append(1, 1, 0, 100),
            WalEvent::Crash {
                at: SimTime::from_secs(2),
                replayed: DurableMap::new(),
                disk: DurableMap::new(),
            },
        ]);
        assert_eq!(j.summary().lost_durable, 1);
        assert!(matches!(
            j.oracle.reports()[0].verdicts[0],
            Verdict::LostDurable { file, .. } if file == FileId(1)
        ));
    }

    #[test]
    fn replaying_an_unacked_record_is_resurrected() {
        // A torn record surviving roll-forward would replay bytes that
        // were never promised.
        let mut j = WalJudge::new(ClientId(0));
        j.run(&[WalEvent::Crash {
            at: SimTime::from_secs(2),
            replayed: map(&[(3, 0, 64)]),
            disk: DurableMap::new(),
        }]);
        assert_eq!(j.summary().resurrected, 1);
    }

    #[test]
    fn deletes_withdraw_the_promise() {
        let mut j = WalJudge::new(ClientId(0));
        j.run(&[
            append(1, 1, 0, 100),
            WalEvent::Delete {
                t: SimTime::from_secs(2),
                file: FileId(1),
            },
            WalEvent::Crash {
                at: SimTime::from_secs(3),
                replayed: DurableMap::new(),
                disk: DurableMap::new(),
            },
        ]);
        assert_eq!(j.summary().violations(), 0, "nothing was still promised");
    }

    #[test]
    fn finish_enforces_the_truncation_invariant() {
        let mut j = WalJudge::new(ClientId(0));
        j.run(&[append(1, 1, 0, 100)]);
        // Promised bytes live on disk at shutdown: clean.
        j.finish(SimTime::from_secs(50), &map(&[(1, 0, 4096)]));
        assert_eq!(j.summary().violations(), 0);

        let mut bad = WalJudge::new(ClientId(1));
        bad.run(&[append(1, 1, 0, 100)]);
        // A log that truncated before writeback leaves the promise
        // dangling: the shutdown check catches it.
        bad.finish(SimTime::from_secs(50), &DurableMap::new());
        assert_eq!(bad.summary().lost_durable, 1);
    }
}
