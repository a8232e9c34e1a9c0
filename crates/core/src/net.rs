//! The deterministic network layer between clients and the server.
//!
//! The paper claims NVRAM lets a client ride out an unreachable server
//! (§2.3–§2.5). To test that claim, every client→server interaction goes
//! over a simulated wire instead of an instant, infallible call:
//!
//! * every server-interacting op, and every flush notification, becomes
//!   an explicit RPC `(client id, request id, payload kind)`;
//! * a [`NetFaultInjector`] hook resolves each RPC through the seeded
//!   [`NetFaultPlan`]: per-message drop/duplication/delay draws, timed
//!   partitions, and a client-side state machine with retransmit
//!   timeouts, capped exponential backoff with deterministic jitter, and
//!   a bounded in-flight window;
//! * the server side deduplicates by request id, so retransmissions and
//!   wire duplicates are applied at most once;
//! * the whole exchange is written to a [`WireEvent`] transcript that the
//!   [`NetJudge`] replays against the wire contract (no acked request
//!   lost, no request double-applied, no delivery inside a partition).
//!
//! # Cost per request
//!
//! Each RPC costs O(1) in the state machine, outages included:
//!
//! * An attempt sent into a cut is dropped whatever its message fate
//!   says, so no fate is drawn for it.
//! * When an attempt is sent into a cut that outlasts the worst-case
//!   ladder of the remaining attempts ([`NetFaultPlan::worst_ladder`]),
//!   every remaining attempt is sent into the same cut. The request then
//!   gives up at once, with the counts the attempts would have added.
//! * Request ids run 0, 1, 2, … per client, so the server's dedup set is
//!   a table indexed by request id, kept in one record per client.
//! * A run of dropped attempts is one [`WireEvent::Dropped`] carrying its
//!   length.
//!
//! # Control plane vs data plane
//!
//! Consistency *control* traffic (opens, recalls, flush notes) keeps its
//! synchronous logical semantics — the simulator's server bookkeeping
//! proceeds even while a client is severed, as if the session state were
//! replicated — but the wire chatter is still simulated, judged, and
//! billed to `net.*` counters. *Data*-plane effects respect partitions
//! for real: bytes a cache model is forced to flush while its link is
//! severed are shed (see [`ClientCache::take_shed_writes`]), and a
//! recovered NVRAM board cannot drain while a whole-server partition is
//! open ([`SimEngine::recovery_drain_time`]). That split is what
//! reproduces the paper's loss ordering under partitions: a volatile
//! cache must push aged write-backs into the cut and loses them, a small
//! write-aside board sheds its overflow write-throughs, and a unified
//! whole-cache board absorbs everything until the heal.
//!
//! # Determinism
//!
//! Message fates are pure functions of `(seed, client, request id,
//! attempt)`, partition windows are compiled once from the seed, and the
//! session replays serially, so a net-faulted run is byte-identical at
//! any `--jobs`.
//!
//! [`ClientCache::take_shed_writes`]: crate::client::ClientCache::take_shed_writes

use std::collections::BTreeMap;

use nvfs_faults::net::{MessageFate, NetFaultPlan, PartitionScope};
use nvfs_oracle::{NetJudge, NetSummary, NetVerdict, WireEvent};
use nvfs_trace::op::{Op, OpKind};
use nvfs_types::{ClientId, SimDuration, SimTime};

use crate::session::{FlushEvent, OpAction, RunHook, SimEngine};

#[cfg(test)]
mod reference;

/// Retry budget per request. With the default capped exponential backoff
/// this spans hours of simulated time, so only a partition outlasting the
/// whole backoff ladder makes a request give up (degraded mode).
const MAX_ATTEMPTS: u32 = 64;

/// Engine-side partition state, installed by [`NetFaultInjector`] so the
/// drive loop can toggle severed flags at every flush instant and defer
/// recovery drains. Absent (`None`) on every non-network run.
#[derive(Debug, Clone)]
pub(crate) struct NetState {
    plan: NetFaultPlan,
}

impl NetState {
    pub(crate) fn severed(&self, client: ClientId, at: SimTime) -> bool {
        self.plan.client_severed(client, at)
    }

    /// Boards drain at the server, so only a whole-server partition
    /// defers them; a single client's severed edge does not.
    pub(crate) fn drain_time(&self, at: SimTime) -> SimTime {
        self.plan.server_heal_time(at)
    }
}

/// Wire-layer counters for one run (the `net.*` obs counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// RPCs issued (ops + flush notes).
    pub requests: u64,
    /// Retransmissions after a timeout.
    pub retries: u64,
    /// Timeouts observed (dropped or partition-severed transmissions).
    pub timeouts: u64,
    /// Server-interacting ops issued while the issuing client's link was
    /// severed (degraded mode).
    pub degraded_ops: u64,
    /// Duplicate deliveries the server's request-id dedup suppressed.
    pub dup_suppressed: u64,
    /// Requests abandoned after the full retry budget.
    pub gave_up: u64,
    /// Bytes shed because a model was forced to flush into an open
    /// partition.
    shed_bytes: u64,
    /// Individual shed writes.
    shed_writes: u64,
}

impl NetStats {
    /// Folds another run's counters into this one.
    pub(crate) fn merge(&mut self, other: &NetStats) {
        self.requests += other.requests;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.degraded_ops += other.degraded_ops;
        self.dup_suppressed += other.dup_suppressed;
        self.gave_up += other.gave_up;
        self.shed_bytes += other.shed_bytes;
        self.shed_writes += other.shed_writes;
    }
}

/// Everything the network layer learned in one run: counters, the
/// judge's summary, and any wire-contract violations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetReport {
    /// Wire-layer counters.
    pub stats: NetStats,
    /// The [`NetJudge`]'s mergeable summary.
    pub summary: NetSummary,
    /// Wire-contract violations (empty on a correct run).
    pub verdicts: Vec<NetVerdict>,
}

/// Hook: routes every server-interacting op and flush note through the
/// RPC state machine, maintains degraded-mode accounting, and feeds the
/// wire transcript to a [`NetJudge`].
#[derive(Debug)]
pub struct NetFaultInjector<'p> {
    plan: &'p NetFaultPlan,
    judge: NetJudge,
    stats: NetStats,
    /// `ladder[k]` bounds the time from attempt `k`'s send to the last
    /// attempt's send ([`NetFaultPlan::worst_ladder`]).
    ladder: Vec<SimDuration>,
    clients: BTreeMap<ClientId, ClientWire>,
    /// Message fates drawn (`net.fate_draws`): the RPC layer's work count.
    /// Kept out of [`NetStats`], whose `Debug` text benchmarks digest.
    fate_draws: u64,
}

/// One client's end of the wire, and the server's dedup table for it.
#[derive(Debug)]
struct ClientWire {
    /// Ack times of the last `max_in_flight` requests: the bounded
    /// in-flight window (request `r` cannot be transmitted before request
    /// `r - W` was acked). Zero until a slot's first ack.
    acks: Vec<SimTime>,
    /// Server-side request-id dedup, indexed by request id: whether the
    /// request was applied. Its length is the next request id.
    applied: Vec<bool>,
    /// The client crashed: dead machines issue no further RPCs.
    crashed: bool,
}

impl<'p> NetFaultInjector<'p> {
    /// An injector over a compiled plan.
    pub fn new(plan: &'p NetFaultPlan) -> Self {
        let windows = plan
            .windows()
            .iter()
            .map(|w| {
                let edge = match w.scope {
                    PartitionScope::Client(c) => Some(c),
                    PartitionScope::Server => None,
                };
                (edge, w.start, w.end)
            })
            .collect();
        NetFaultInjector {
            plan,
            judge: NetJudge::new(windows),
            stats: NetStats::default(),
            ladder: plan.worst_ladder(MAX_ATTEMPTS),
            clients: BTreeMap::new(),
            fate_draws: 0,
        }
    }

    /// Finishes the transcript and returns the run's network report.
    pub fn into_report(self) -> NetReport {
        let (summary, verdicts) = self.judge.finish();
        NetReport {
            stats: self.stats,
            summary,
            verdicts,
        }
    }

    fn wire(&mut self, client: ClientId) -> &mut ClientWire {
        let window = self.plan.config().max_in_flight as usize;
        self.clients.entry(client).or_insert_with(|| ClientWire {
            acks: vec![SimTime::ZERO; window],
            applied: Vec::new(),
            crashed: false,
        })
    }

    fn crashed(&self, client: ClientId) -> bool {
        self.clients.get(&client).is_some_and(|w| w.crashed)
    }

    /// Resolves one request end to end: transmit, time out and back off
    /// through drops and partitions, deliver, dedup, ack. Analytic rather
    /// than event-driven — each attempt's fate is a pure function of the
    /// message identity — so resolution order cannot perturb other
    /// requests' outcomes.
    fn rpc(&mut self, client: ClientId, at: SimTime) {
        let wire = self.wire(client);
        let req_id = wire.applied.len() as u64;
        wire.applied.push(false);
        let mut send = at.max(wire.acks[req_id as usize % wire.acks.len()]);
        self.stats.requests += 1;
        // Attempts dropped since the last transcript event.
        let mut dropped = 0u32;
        // The end of the outage the last severed send fell into.
        let mut heal = SimTime::ZERO;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            if send < heal || self.plan.client_severed(client, send) {
                // Sent into the cut: lost whatever its fate. If even the
                // slowest ladder sends its last attempt before the heal,
                // every remaining attempt is lost too.
                if send >= heal {
                    heal = self.plan.client_heal_time(client, send);
                }
                if send.saturating_add(self.ladder[attempt as usize]) < heal {
                    let left = MAX_ATTEMPTS - attempt;
                    self.stats.retries += u64::from(left - 1);
                    self.stats.timeouts += u64::from(left);
                    dropped += left;
                    break;
                }
            } else {
                let fate = self.plan.message_fate(client, req_id, attempt);
                self.fate_draws += 1;
                let deliver = send.saturating_add(fate.delay);
                if !fate.dropped && !self.plan.client_severed(client, deliver) {
                    self.deliver(client, req_id, send, deliver, fate, dropped);
                    return;
                }
            }
            // The transmission vanished (dropped on the wire or lost in
            // the cut): wait out the timeout, back off, retry.
            dropped += 1;
            self.stats.timeouts += 1;
            send = send
                .saturating_add(self.plan.config().rpc_timeout)
                .saturating_add(self.plan.backoff(client, req_id, attempt));
        }
        self.judge.observe(&WireEvent::Dropped {
            client,
            req_id,
            attempts: dropped,
        });
        self.stats.gave_up += 1;
        self.judge.observe(&WireEvent::GaveUp { client, req_id });
    }

    /// The server receives request `req_id`, sent at `send`, at
    /// `deliver` after `dropped` lost attempts: dedup, apply, deliver any
    /// wire duplicate, ack.
    fn deliver(
        &mut self,
        client: ClientId,
        req_id: u64,
        send: SimTime,
        deliver: SimTime,
        fate: MessageFate,
        dropped: u32,
    ) {
        let ack_at = deliver.saturating_add(fate.delay);
        let wire = self.wire(client);
        let first = !std::mem::replace(&mut wire.applied[req_id as usize], true);
        let slot = req_id as usize % wire.acks.len();
        wire.acks[slot] = ack_at;
        if dropped > 0 {
            self.judge.observe(&WireEvent::Dropped {
                client,
                req_id,
                attempts: dropped,
            });
        }
        self.judge.observe(&WireEvent::Delivered {
            client,
            req_id,
            at: deliver,
            duplicate: false,
        });
        if first {
            self.judge.observe(&WireEvent::Applied {
                client,
                req_id,
                at: deliver,
            });
        } else {
            self.stats.dup_suppressed += 1;
        }
        if fate.duplicated {
            let dup_at = send.saturating_add(fate.dup_delay);
            if !self.plan.client_severed(client, dup_at) {
                self.judge.observe(&WireEvent::Delivered {
                    client,
                    req_id,
                    at: dup_at,
                    duplicate: true,
                });
                self.stats.dup_suppressed += 1;
            }
        }
        self.judge.observe(&WireEvent::Acked {
            client,
            req_id,
            at: ack_at,
        });
    }
}

/// Whether an op kind interacts with the consistency server. Truncates
/// are the one purely cache-local op in the Sprite protocol as modelled;
/// everything else at least consults server state.
fn op_is_rpc(kind: &OpKind) -> bool {
    !matches!(kind, OpKind::Truncate { .. })
}

impl RunHook for NetFaultInjector<'_> {
    fn before_op(&mut self, engine: &mut SimEngine<'_>, _index: usize, op: &Op) -> OpAction {
        if engine.net.is_none() {
            engine.net = Some(NetState {
                plan: self.plan.clone(),
            });
        }
        engine.sync_net_severed(op.time);
        if op_is_rpc(&op.kind) && !self.crashed(op.client) {
            if self.plan.client_severed(op.client, op.time) {
                self.stats.degraded_ops += 1;
            }
            self.rpc(op.client, op.time);
        }
        OpAction::Apply
    }

    fn on_flush(&mut self, _engine: &mut SimEngine<'_>, event: &FlushEvent) {
        // Every flush carries a notification RPC to the server, dead
        // clients excepted (their boards speak for them in recovery).
        if !self.crashed(event.client) {
            self.rpc(event.client, event.at);
        }
    }

    fn on_crash(&mut self, _engine: &mut SimEngine<'_>, event: &crate::session::CrashEvent) {
        self.wire(event.client).crashed = true;
    }

    /// Shed-byte harvesting and `net.*` counters. Runs before
    /// [`ObsRecorder`](crate::session::ObsRecorder) collects (stack
    /// order), so the partition loss lands in [`ReliabilityStats`]
    /// before it is folded into obs.
    ///
    /// [`ReliabilityStats`]: nvfs_faults::ReliabilityStats
    fn collect(&mut self, engine: &mut SimEngine<'_>) {
        let shed = engine.take_shed_writes();
        self.stats.shed_writes = shed.len() as u64;
        self.stats.shed_bytes = shed.iter().map(|w| w.bytes).sum();
        engine.note_partition_loss(self.stats.shed_bytes);
        use nvfs_obs::counter_add;
        counter_add("net.requests", self.stats.requests);
        counter_add("net.retries", self.stats.retries);
        counter_add("net.timeouts", self.stats.timeouts);
        counter_add("net.degraded_ops", self.stats.degraded_ops);
        counter_add("net.dup_suppressed", self.stats.dup_suppressed);
        counter_add("net.gave_up", self.stats.gave_up);
        counter_add("net.shed_bytes", self.stats.shed_bytes);
        counter_add("net.fate_draws", self.fate_draws);
        for w in self.plan.windows() {
            nvfs_obs::histogram_record("net.partition_us", (w.end - w.start).as_micros());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_faults::net::NetFaultPlanConfig;

    fn plan(drop_p: f64) -> NetFaultPlan {
        let config = NetFaultPlanConfig::new(2, SimDuration::from_secs(600))
            .with_drop_probability(drop_p)
            .with_duplicate_probability(0.2);
        NetFaultPlan::compile(11, &config).unwrap()
    }

    #[test]
    fn lossless_rpcs_ack_in_order_and_apply_once() {
        let p = plan(0.0);
        let mut inj = NetFaultInjector::new(&p);
        for i in 0..20u64 {
            inj.rpc(ClientId(0), SimTime::from_secs(i));
        }
        let report = inj.into_report();
        assert_eq!(report.stats.requests, 20);
        assert_eq!(report.stats.retries, 0);
        assert_eq!(report.summary.acked, 20);
        assert_eq!(report.summary.applied, 20);
        assert!(report.verdicts.is_empty());
        // Wire duplication fired for some requests and was suppressed.
        assert_eq!(report.summary.duplicates, report.stats.dup_suppressed);
    }

    #[test]
    fn drops_retry_until_acked_and_never_double_apply() {
        let p = plan(0.4);
        let mut inj = NetFaultInjector::new(&p);
        for i in 0..50u64 {
            inj.rpc(ClientId(1), SimTime::from_secs(i * 10));
        }
        let report = inj.into_report();
        assert!(report.stats.retries > 0, "40% drop must force retries");
        assert_eq!(report.stats.retries, report.stats.timeouts);
        assert_eq!(report.summary.acked, 50);
        assert_eq!(report.summary.applied, 50, "dedup: one apply per request");
        assert_eq!(report.summary.violations(), 0);
    }

    #[test]
    fn requests_wait_out_a_partition_and_the_judge_sees_no_leak() {
        let config = NetFaultPlanConfig::new(1, SimDuration::from_secs(600))
            .with_client_partitions(1)
            .with_partition_duration(SimDuration::from_secs(120));
        let p = NetFaultPlan::compile(5, &config).unwrap();
        let w = p.windows()[0];
        let inside = SimTime::from_micros((w.start.as_micros() + w.end.as_micros()) / 2);
        let client = match w.scope {
            PartitionScope::Client(c) => c,
            PartitionScope::Server => ClientId(0),
        };
        let mut inj = NetFaultInjector::new(&p);
        inj.rpc(client, inside);
        let report = inj.into_report();
        assert!(report.stats.timeouts > 0, "partition must cost timeouts");
        assert_eq!(
            report.summary.acked, 1,
            "retry ladder must outlast the window"
        );
        assert_eq!(report.summary.violations(), 0, "no delivery inside the cut");
    }

    #[test]
    fn in_flight_window_gates_burst_sends() {
        let config = NetFaultPlanConfig::new(1, SimDuration::from_secs(600))
            .with_max_in_flight(2)
            .with_delay_range(SimDuration::from_secs(1), SimDuration::from_secs(1));
        let p = NetFaultPlan::compile(9, &config).unwrap();
        let mut inj = NetFaultInjector::new(&p);
        // A burst of 6 requests at t=0: with W=2 and a 2s round trip,
        // request 4 cannot even transmit before request 2's ack at 2s.
        for _ in 0..6 {
            inj.rpc(ClientId(0), SimTime::ZERO);
        }
        let ring = &inj.clients[&ClientId(0)].acks;
        assert!(ring.iter().all(|&t| t >= SimTime::from_secs(4)));
        let report = inj.into_report();
        assert_eq!(report.summary.acked, 6);
        assert_eq!(report.summary.violations(), 0);
    }
}
