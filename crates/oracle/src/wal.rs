//! WAL-aware durability judging.
//!
//! The write-ahead log changes *when* a byte becomes promised: not when a
//! client crashes with it in NVRAM, but the instant its record is durably
//! appended (and the fsync acknowledged). A server run records that
//! promise — every acked range, less the files deleted since — at each
//! crash and at shutdown. At each crash [`WalJudge::crash`] hands the
//! existing [`Oracle`] a [`DurablePromise`] holding the recorded promise
//! and an observation built from what recovery actually replayed plus
//! which promised bytes were already on disk, so all four verdict types
//! keep their meaning:
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

use std::borrow::Borrow;

use nvfs_types::{ClientId, FileId, RangeSet, SimTime};

use crate::judge::{Oracle, OracleSummary};
use crate::shadow::{intersect, union_into, DrainExpectation, DurableMap, DurablePromise};

/// Judges the crash and shutdown records of one WAL-mode run.
#[derive(Debug, Clone)]
pub struct WalJudge {
    client: ClientId,
    oracle: Oracle,
}

impl WalJudge {
    /// A fresh judge for one run, identified by `client` (each workload
    /// gets its own id so incidents never collide across runs).
    pub fn new(client: ClientId) -> Self {
        WalJudge {
            client,
            oracle: Oracle::new(),
        }
    }

    /// Judges one crash at `at`: `promise` is what the run had promised
    /// then, `replayed` what recovery replayed from the log, and `disk`
    /// the live on-disk ranges at the crash.
    pub fn crash<'a, F: Borrow<FileId>>(
        &mut self,
        at: SimTime,
        promise: &DurableMap,
        replayed: impl IntoIterator<Item = (F, &'a RangeSet)>,
        disk: impl IntoIterator<Item = (F, &'a RangeSet)>,
    ) {
        // Observed recovery = what was replayed, plus the promised bytes
        // already safe on disk (drained before the crash). Unpromised disk
        // data — ordinary un-fsynced segment writes — is legitimate and
        // must not read as resurrection, hence the intersection.
        let mut observed = promised_on(promise, disk);
        union_into(&mut observed, replayed);
        self.judge(at, promise, &observed);
    }

    /// The shutdown check of the truncation invariant: every byte of
    /// `promise` must be live on `final_disk`. Judged as one final
    /// incident at `at` (use a time strictly after the last crash).
    pub fn finish<'a, F: Borrow<FileId>>(
        &mut self,
        at: SimTime,
        promise: &DurableMap,
        final_disk: impl IntoIterator<Item = (F, &'a RangeSet)>,
    ) {
        let observed = promised_on(promise, final_disk);
        self.judge(at, promise, &observed);
    }

    fn judge(&mut self, at: SimTime, promise: &DurableMap, observed: &DurableMap) {
        let promise = DurablePromise {
            client: self.client,
            captured_at: at,
            ranges: promise.clone(),
        };
        self.oracle
            .judge(&promise, DrainExpectation::full(), observed);
    }

    /// Summarises every judged incident.
    pub fn summary(&self) -> OracleSummary {
        self.oracle.summary()
    }
}

/// The bytes of `promise` that `disk` holds, per file.
fn promised_on<'a, F: Borrow<FileId>>(
    promise: &DurableMap,
    disk: impl IntoIterator<Item = (F, &'a RangeSet)>,
) -> DurableMap {
    let mut out = DurableMap::new();
    for (file, overlap) in intersect(disk, promise) {
        out.entry(file).or_default().insert(overlap);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::Verdict;
    use nvfs_types::ByteRange;

    fn map(entries: &[(u32, u64, u64)]) -> DurableMap {
        let mut m = DurableMap::new();
        for &(file, start, end) in entries {
            m.entry(FileId(file))
                .or_default()
                .insert(ByteRange::new(start, end));
        }
        m
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn faithful_replay_is_clean() {
        let mut j = WalJudge::new(ClientId(0));
        let promise = map(&[(1, 0, 100)]);
        j.crash(secs(2), &promise, &map(&[(1, 0, 100)]), &DurableMap::new());
        assert_eq!(j.summary().violations(), 0);
        assert_eq!(j.summary().crash_points, 1);
    }

    #[test]
    fn drained_bytes_on_disk_satisfy_the_promise_without_replay() {
        let mut j = WalJudge::new(ClientId(0));
        // The record drained and truncated before the crash: nothing to
        // replay, but block 0 of the file is live on disk.
        let promise = map(&[(1, 0, 100)]);
        let disk = map(&[(1, 0, 4096), (7, 0, 8192)]);
        j.crash(secs(9), &promise, &DurableMap::new(), &disk);
        // File 7's unpromised segment data must not read as resurrected.
        assert_eq!(j.summary().violations(), 0);
    }

    #[test]
    fn a_swallowed_acked_record_is_lost_durable() {
        let mut j = WalJudge::new(ClientId(0));
        let promise = map(&[(1, 0, 100)]);
        j.crash(secs(2), &promise, &DurableMap::new(), &DurableMap::new());
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
        let replayed = map(&[(3, 0, 64)]);
        j.crash(secs(2), &DurableMap::new(), &replayed, &DurableMap::new());
        assert_eq!(j.summary().resurrected, 1);
    }

    #[test]
    fn deletes_withdraw_the_promise() {
        // File 1 was acked, then deleted: the promise at the crash no
        // longer holds it, so its absence from the disk is no loss.
        let mut j = WalJudge::new(ClientId(0));
        let mut promise = map(&[(1, 0, 100)]);
        promise.remove(&FileId(1));
        j.crash(secs(3), &promise, &DurableMap::new(), &DurableMap::new());
        assert_eq!(j.summary().violations(), 0, "nothing was still promised");
    }

    #[test]
    fn finish_enforces_the_truncation_invariant() {
        let promise = map(&[(1, 0, 100)]);
        let mut j = WalJudge::new(ClientId(0));
        // Promised bytes live on disk at shutdown: clean.
        j.finish(secs(50), &promise, &map(&[(1, 0, 4096)]));
        assert_eq!(j.summary().violations(), 0);

        let mut bad = WalJudge::new(ClientId(1));
        // A log that truncated before writeback leaves the promise
        // dangling: the shutdown check catches it.
        bad.finish(secs(50), &promise, &DurableMap::new());
        assert_eq!(bad.summary().lost_durable, 1);
    }
}
