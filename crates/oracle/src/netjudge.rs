//! Network-layer judge: at-most-once delivery and no-acked-loss.
//!
//! The crash oracle (`judge.rs`) checks the *durability* contract; this
//! module checks the *wire* contract the RPC layer in `nvfs-core` claims
//! to implement. The network layer emits a [`WireEvent`] transcript as it
//! resolves each request — runs of lost transmissions, deliveries, server
//! applies, acknowledgements, give-ups — and the [`NetJudge`] replays that
//! transcript against three invariants:
//!
//! * **No acknowledged request is lost** — an ack the client acted on must
//!   correspond to a server apply ([`NetVerdict::AckedLost`]).
//! * **No request is applied twice** — however many copies of a request
//!   reach the server (retransmissions, wire duplicates), at most one
//!   apply may carry its request id ([`NetVerdict::DoubleApply`]).
//! * **Partitions actually partition** — no delivery may be timestamped
//!   inside a window that severs its edge ([`NetVerdict::PartitionLeak`]).
//!
//! Like the crash oracle, the judge is an independent reimplementation: it
//! knows only the partition windows (as plain tuples, so this crate does
//! not depend on `nvfs-faults`) and the transcript, never the RPC state
//! machine's internals.
//!
//! Request ids run 0, 1, 2, … per client, so the judge keeps one byte of
//! flags per request in a table per client, indexed by request id, rather
//! than ordered sets of `(client, request id)` pairs. Each event costs
//! O(1) after the client lookup; a sparse id grows its client's table up
//! to that id.

use std::collections::BTreeMap;
use std::fmt;

use nvfs_types::{ClientId, SimTime};

#[cfg(test)]
mod reference;

/// One observable action of the network layer, in transcript order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireEvent {
    /// A run of consecutive transmission attempts vanished on the wire
    /// or in a cut.
    Dropped {
        /// Sending client.
        client: ClientId,
        /// Request id (unique per client).
        req_id: u64,
        /// Attempts in the run.
        attempts: u32,
    },
    /// A transmission reached the server.
    Delivered {
        /// Sending client.
        client: ClientId,
        /// Request id (unique per client).
        req_id: u64,
        /// Delivery instant.
        at: SimTime,
        /// Whether this is a wire-duplicated copy of an earlier delivery.
        duplicate: bool,
    },
    /// The server applied the request (at its first delivery).
    Applied {
        /// Sending client.
        client: ClientId,
        /// Request id (unique per client).
        req_id: u64,
        /// Apply instant.
        at: SimTime,
    },
    /// The client received the acknowledgement and retired the request.
    Acked {
        /// Sending client.
        client: ClientId,
        /// Request id (unique per client).
        req_id: u64,
        /// Ack instant.
        at: SimTime,
    },
    /// The client exhausted its retry budget and gave the request up
    /// (degraded mode; the data's fate is the cache model's problem).
    GaveUp {
        /// Sending client.
        client: ClientId,
        /// Request id (unique per client).
        req_id: u64,
    },
}

/// A violated wire invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetVerdict {
    /// The client retired a request on an ack the server never applied.
    AckedLost {
        /// Sending client.
        client: ClientId,
        /// Request id.
        req_id: u64,
    },
    /// The server applied one request id more than once.
    DoubleApply {
        /// Sending client.
        client: ClientId,
        /// Request id.
        req_id: u64,
    },
    /// A delivery was timestamped inside a partition severing its edge.
    PartitionLeak {
        /// Sending client.
        client: ClientId,
        /// Request id.
        req_id: u64,
        /// Delivery instant inside the window.
        at: SimTime,
    },
}

impl fmt::Display for NetVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetVerdict::AckedLost { client, req_id } => {
                write!(f, "acked-lost: client {} request {req_id}", client.0)
            }
            NetVerdict::DoubleApply { client, req_id } => {
                write!(f, "double-apply: client {} request {req_id}", client.0)
            }
            NetVerdict::PartitionLeak { client, req_id, at } => write!(
                f,
                "partition-leak: client {} request {req_id} delivered at {at} inside a partition",
                client.0
            ),
        }
    }
}

/// Running wire-contract totals — mergeable so a `par_map` sweep can fold
/// per-task summaries deterministically (mirrors `OracleSummary`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetSummary {
    /// Requests acknowledged to clients.
    pub acked: u64,
    /// Requests the server applied.
    pub applied: u64,
    /// Deliveries observed (including duplicates).
    pub deliveries: u64,
    /// Wire-duplicated deliveries, which the server does not apply.
    pub duplicates: u64,
    /// Transmissions dropped on the wire.
    dropped: u64,
    /// Requests abandoned after the retry budget.
    gave_up: u64,
    /// `AckedLost` findings.
    pub acked_lost: u64,
    /// `DoubleApply` findings.
    pub double_apply: u64,
    /// `PartitionLeak` findings.
    pub partition_leak: u64,
}

impl NetSummary {
    /// Total wire-invariant violations.
    pub fn violations(&self) -> u64 {
        self.acked_lost + self.double_apply + self.partition_leak
    }

    /// Folds `other` into `self` (order-independent).
    pub fn merge(&mut self, other: &NetSummary) {
        self.acked += other.acked;
        self.applied += other.applied;
        self.deliveries += other.deliveries;
        self.duplicates += other.duplicates;
        self.dropped += other.dropped;
        self.gave_up += other.gave_up;
        self.acked_lost += other.acked_lost;
        self.double_apply += other.double_apply;
        self.partition_leak += other.partition_leak;
    }
}

/// Replays a [`WireEvent`] transcript against the wire contract.
///
/// Partition windows arrive as `(edge, start, end)` tuples — `None`
/// severs every edge (whole-server partition), `Some(client)` one edge —
/// with half-open `[start, end)` semantics.
#[derive(Debug, Clone, Default)]
pub struct NetJudge {
    windows: Vec<(Option<ClientId>, SimTime, SimTime)>,
    /// Per client, one byte of flags (`APPLIED`, `REAPPLIED`, `ACKED`)
    /// per request id.
    requests: BTreeMap<ClientId, Vec<u8>>,
    summary: NetSummary,
    verdicts: Vec<NetVerdict>,
}

/// The server applied the request at least once.
const APPLIED: u8 = 1;
/// The server applied it again: reported as [`NetVerdict::DoubleApply`].
const REAPPLIED: u8 = 2;
/// The client received an ack.
const ACKED: u8 = 4;

/// The flags of `(client, req_id)`. Request ids run densely from 0 per
/// client, so a client's table grows to the largest id seen.
fn flags(requests: &mut BTreeMap<ClientId, Vec<u8>>, client: ClientId, req_id: u64) -> &mut u8 {
    let table = requests.entry(client).or_default();
    let i = usize::try_from(req_id).expect("request id fits in memory");
    if i >= table.len() {
        table.resize(i + 1, 0);
    }
    &mut table[i]
}

impl NetJudge {
    /// Creates a judge that knows the plan's partition windows.
    pub fn new(windows: Vec<(Option<ClientId>, SimTime, SimTime)>) -> Self {
        NetJudge {
            windows,
            ..NetJudge::default()
        }
    }

    fn severed(&self, client: ClientId, at: SimTime) -> bool {
        self.windows
            .iter()
            .any(|&(edge, start, end)| start <= at && at < end && edge.is_none_or(|c| c == client))
    }

    /// Feeds one transcript event to the judge.
    pub fn observe(&mut self, event: &WireEvent) {
        match *event {
            WireEvent::Dropped { attempts, .. } => self.summary.dropped += u64::from(attempts),
            WireEvent::Delivered {
                client,
                req_id,
                at,
                duplicate,
            } => {
                self.summary.deliveries += 1;
                if duplicate {
                    self.summary.duplicates += 1;
                }
                if self.severed(client, at) {
                    self.summary.partition_leak += 1;
                    self.verdicts
                        .push(NetVerdict::PartitionLeak { client, req_id, at });
                }
            }
            WireEvent::Applied { client, req_id, .. } => {
                self.summary.applied += 1;
                let f = flags(&mut self.requests, client, req_id);
                if *f & APPLIED == 0 {
                    *f |= APPLIED;
                } else if *f & REAPPLIED == 0 {
                    *f |= REAPPLIED;
                    self.summary.double_apply += 1;
                    self.verdicts
                        .push(NetVerdict::DoubleApply { client, req_id });
                }
            }
            WireEvent::Acked { client, req_id, .. } => {
                let f = flags(&mut self.requests, client, req_id);
                if *f & ACKED == 0 {
                    *f |= ACKED;
                    self.summary.acked += 1;
                }
            }
            WireEvent::GaveUp { .. } => self.summary.gave_up += 1,
        }
    }

    /// Finishes the transcript: every acked request must have been
    /// applied. Returns the summary and all violation verdicts, the
    /// acked-lost ones in `(client, request id)` order.
    pub fn finish(mut self) -> (NetSummary, Vec<NetVerdict>) {
        for (&client, table) in &self.requests {
            for (req_id, &f) in (0u64..).zip(table) {
                if f & (ACKED | APPLIED) == ACKED {
                    self.summary.acked_lost += 1;
                    self.verdicts.push(NetVerdict::AckedLost { client, req_id });
                }
            }
        }
        emit_obs(&self.summary);
        (self.summary, self.verdicts)
    }
}

fn emit_obs(summary: &NetSummary) {
    use nvfs_obs::counter_add;
    counter_add("oracle.net_acked", summary.acked);
    counter_add("oracle.net_applied", summary.applied);
    counter_add("oracle.net_dup_suppressed", summary.duplicates);
    if summary.violations() > 0 {
        counter_add("oracle.net_violations", summary.violations());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u32) -> ClientId {
        ClientId(id)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn clean_exchange_produces_no_verdicts() {
        let mut judge = NetJudge::new(vec![]);
        for (rid, at) in [(0u64, 1u64), (1, 2)] {
            judge.observe(&WireEvent::Delivered {
                client: c(0),
                req_id: rid,
                at: t(at),
                duplicate: false,
            });
            judge.observe(&WireEvent::Applied {
                client: c(0),
                req_id: rid,
                at: t(at),
            });
            judge.observe(&WireEvent::Acked {
                client: c(0),
                req_id: rid,
                at: t(at + 1),
            });
        }
        let (summary, verdicts) = judge.finish();
        assert!(verdicts.is_empty());
        assert_eq!(summary.violations(), 0);
        assert_eq!(summary.acked, 2);
        assert_eq!(summary.applied, 2);
    }

    #[test]
    fn acked_without_apply_is_acked_lost() {
        let mut judge = NetJudge::new(vec![]);
        judge.observe(&WireEvent::Acked {
            client: c(3),
            req_id: 7,
            at: t(1),
        });
        let (summary, verdicts) = judge.finish();
        assert_eq!(summary.acked_lost, 1);
        assert_eq!(
            verdicts,
            vec![NetVerdict::AckedLost {
                client: c(3),
                req_id: 7
            }]
        );
    }

    #[test]
    fn double_apply_is_flagged_once_per_extra_apply() {
        let mut judge = NetJudge::new(vec![]);
        for _ in 0..3 {
            judge.observe(&WireEvent::Applied {
                client: c(1),
                req_id: 4,
                at: t(2),
            });
        }
        let (summary, verdicts) = judge.finish();
        assert_eq!(summary.double_apply, 1, "one verdict per request id");
        assert_eq!(summary.applied, 3);
        assert_eq!(verdicts.len(), 1);
        assert!(matches!(verdicts[0], NetVerdict::DoubleApply { .. }));
    }

    #[test]
    fn sparse_ids_grow_the_tables_and_acked_lost_is_ordered() {
        let mut judge = NetJudge::new(vec![]);
        let ack = |judge: &mut NetJudge, client, req_id| {
            judge.observe(&WireEvent::Acked {
                client,
                req_id,
                at: t(1),
            });
        };
        let apply = |judge: &mut NetJudge, client, req_id| {
            judge.observe(&WireEvent::Applied {
                client,
                req_id,
                at: t(1),
            });
        };
        // Clients and request ids arrive out of order and far apart.
        ack(&mut judge, c(9), 5_000);
        ack(&mut judge, c(2), 40);
        apply(&mut judge, c(2), 3);
        ack(&mut judge, c(2), 3);
        ack(&mut judge, c(2), 7);
        apply(&mut judge, c(9), 4_999);
        apply(&mut judge, c(9), 4_999);
        ack(&mut judge, c(0), 0);
        apply(&mut judge, c(0), 0);
        ack(&mut judge, c(0), 0);
        let (summary, verdicts) = judge.finish();
        assert_eq!(summary.acked, 5, "a repeated ack counts once");
        assert_eq!(summary.applied, 4);
        assert_eq!(
            verdicts,
            vec![
                NetVerdict::DoubleApply {
                    client: c(9),
                    req_id: 4_999
                },
                NetVerdict::AckedLost {
                    client: c(2),
                    req_id: 7
                },
                NetVerdict::AckedLost {
                    client: c(2),
                    req_id: 40
                },
                NetVerdict::AckedLost {
                    client: c(9),
                    req_id: 5_000
                },
            ]
        );
    }

    #[test]
    fn delivery_inside_partition_leaks() {
        // Server window [10, 20) severs everyone; client-1 window [30, 40).
        let mut judge = NetJudge::new(vec![(None, t(10), t(20)), (Some(c(1)), t(30), t(40))]);
        let deliver = |judge: &mut NetJudge, client, at| {
            judge.observe(&WireEvent::Delivered {
                client,
                req_id: 0,
                at,
                duplicate: false,
            });
        };
        deliver(&mut judge, c(0), t(15)); // inside server window: leak
        deliver(&mut judge, c(0), t(35)); // other client's window: fine
        deliver(&mut judge, c(1), t(35)); // inside own window: leak
        deliver(&mut judge, c(1), t(40)); // half-open end: fine
        let (summary, verdicts) = judge.finish();
        assert_eq!(summary.partition_leak, 2);
        assert_eq!(verdicts.len(), 2);
    }

    #[test]
    fn summary_merge_is_field_wise() {
        let mut a = NetSummary {
            acked: 1,
            applied: 1,
            ..NetSummary::default()
        };
        let b = NetSummary {
            acked: 2,
            dropped: 5,
            partition_leak: 1,
            ..NetSummary::default()
        };
        a.merge(&b);
        assert_eq!(a.acked, 3);
        assert_eq!(a.dropped, 5);
        assert_eq!(a.violations(), 1);
    }
}
