//! Crash-consistency durability oracle.
//!
//! PR 2 injects faults and PR 3 observes them; this crate *judges* them.
//! `ReliabilityStats` counts lost bytes, but counting is not checking: a
//! recovery path that silently dropped acknowledged data while keeping its
//! byte totals plausible would sail through every existing experiment. The
//! oracle closes that hole with a shadow durability model: at the instant a
//! client crashes, it captures exactly which bytes the cache model had
//! contractually promised to keep (the [`DurablePromise`]), independently
//! predicts what a correct recovery must return under the injected drain
//! conditions ([`torn_prefix`]), and diffs that prediction against what the
//! recovery path actually produced. Every discrepancy becomes a typed
//! [`Verdict`]:
//!
//! * [`Verdict::Clean`] — recovered state matches the contract exactly.
//! * [`Verdict::LostDurable`] — a promised byte range did not survive.
//! * [`Verdict::Resurrected`] — recovery produced bytes never promised
//!   (fabricated data, e.g. from a dead board).
//! * [`Verdict::DoubleReplay`] — one crash's drain was applied twice.
//!
//! [`WalJudge`] extends the same verdict vocabulary to the write-ahead-log
//! server mode, where a byte is promised the instant its record is durably
//! appended (the fsync ack), not when a crash captures it. The server run
//! records that promise at each crash and at shutdown, and the judge reads
//! it from there beside what recovery replayed and what the disk held.
//!
//! The oracle depends only on `nvfs-types` (plus `nvfs-obs` for the
//! `oracle_verdict` event and `oracle.*` counters), so its prediction of
//! the drain contract is an *independent reimplementation*, not a call
//! into the code under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod judge;
mod netjudge;
mod shadow;
mod wal;

pub use judge::{Oracle, OracleSummary, Verdict};
pub use netjudge::{NetJudge, NetSummary, NetVerdict, WireEvent};
pub use shadow::{torn_prefix, union_into, DrainExpectation, DurableMap, DurablePromise};
pub use wal::WalJudge;
