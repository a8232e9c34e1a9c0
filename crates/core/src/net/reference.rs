//! Differential test of [`NetFaultInjector`] against the obvious RPC
//! state machine: one loop iteration per attempt, a message fate drawn
//! for every attempt, one [`WireEvent::Dropped`] per lost attempt, and
//! ordered sets for the server's dedup and the per-client state.
//!
//! Both are driven through seeded request streams over plans that mix
//! drop probabilities 0, 0.1 and 0.9, duplicate probabilities 0 and 0.2,
//! in-flight windows 1 and 8, fuzzed timeouts and backoffs, client
//! windows that abut server windows, and outages that end inside the
//! jitter band of the retry ladder. After every request the two must
//! agree on [`NetStats`], the judge's [`NetSummary`] and verdicts, and
//! the ack ring.
//!
//! [`NetSummary`]: nvfs_oracle::NetSummary

use std::collections::{BTreeMap, BTreeSet};

use nvfs_faults::net::{NetFaultPlan, NetFaultPlanConfig, PartitionScope, PartitionWindow};
use nvfs_oracle::{NetJudge, WireEvent};
use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::{ClientId, SimDuration, SimTime};

use super::{NetFaultInjector, NetStats, MAX_ATTEMPTS};

/// The reference injector: the per-attempt loop.
struct LoopInjector<'p> {
    plan: &'p NetFaultPlan,
    judge: NetJudge,
    stats: NetStats,
    next_req: BTreeMap<ClientId, u64>,
    acks: BTreeMap<ClientId, Vec<SimTime>>,
    applied: BTreeSet<(u32, u64)>,
    fate_draws: u64,
}

impl<'p> LoopInjector<'p> {
    fn new(plan: &'p NetFaultPlan) -> Self {
        // The judge under test sees the same windows either way; only
        // the transcript it is fed differs.
        let judge = NetFaultInjector::new(plan).judge;
        LoopInjector {
            plan,
            judge,
            stats: NetStats::default(),
            next_req: BTreeMap::new(),
            acks: BTreeMap::new(),
            applied: BTreeSet::new(),
            fate_draws: 0,
        }
    }

    fn rpc(&mut self, client: ClientId, at: SimTime) {
        let req_id = {
            let n = self.next_req.entry(client).or_insert(0);
            let id = *n;
            *n += 1;
            id
        };
        self.stats.requests += 1;
        let window = self.plan.config().max_in_flight as usize;
        let slot = (req_id as usize) % window;
        let gate = self
            .acks
            .get(&client)
            .map_or(SimTime::ZERO, |ring| ring[slot]);
        let mut send = at.max(gate);
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            let fate = self.plan.message_fate(client, req_id, attempt);
            self.fate_draws += 1;
            let deliver = send.saturating_add(fate.delay);
            let severed =
                self.plan.client_severed(client, send) || self.plan.client_severed(client, deliver);
            if severed || fate.dropped {
                self.judge.observe(&WireEvent::Dropped {
                    client,
                    req_id,
                    attempts: 1,
                });
                self.stats.timeouts += 1;
                send = send
                    .saturating_add(self.plan.config().rpc_timeout)
                    .saturating_add(self.plan.backoff(client, req_id, attempt));
                continue;
            }
            self.judge.observe(&WireEvent::Delivered {
                client,
                req_id,
                at: deliver,
                duplicate: false,
            });
            if self.applied.insert((client.0, req_id)) {
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
            let ack_at = deliver.saturating_add(fate.delay);
            self.judge.observe(&WireEvent::Acked {
                client,
                req_id,
                at: ack_at,
            });
            self.acks
                .entry(client)
                .or_insert_with(|| vec![SimTime::ZERO; window])[slot] = ack_at;
            return;
        }
        self.stats.gave_up += 1;
        self.judge.observe(&WireEvent::GaveUp { client, req_id });
    }
}

const CLIENTS: u32 = 3;

/// A plan with fuzzed timeouts and backoffs and hand-placed outages
/// sized against its own worst-case ladder `span`: some shorter, some
/// longer, client windows that abut server windows. Returns the plan and
/// its ladder's jitter band: the least and the most time from a
/// request's first send to its last, worked out here rather than read
/// from the plan.
fn plan(
    rng: &mut StdRng,
    case: u64,
    drop: f64,
    dup: f64,
    in_flight: u32,
) -> (NetFaultPlan, (u64, u64)) {
    let timeout = SimDuration::from_micros(rng.gen_range(1_000..=2_000_000));
    let base = SimDuration::from_micros(rng.gen_range(1_000..=1_000_000));
    let cap = SimDuration::from_micros(rng.gen_range(5_000..=60_000_000));
    let config = NetFaultPlanConfig::new(CLIENTS, SimDuration::from_secs(3_600))
        .with_drop_probability(drop)
        .with_duplicate_probability(dup)
        .with_delay_range(
            SimDuration::from_micros(rng.gen_range(100..=2_000)),
            SimDuration::from_micros(rng.gen_range(2_000..=50_000)),
        )
        .with_rpc_timeout(timeout)
        .with_backoff(base, cap)
        .with_max_in_flight(in_flight);
    let (base_us, cap_us) = (base.as_micros(), cap.as_micros().max(base.as_micros()));
    let fastest: u64 = (0..MAX_ATTEMPTS - 1)
        .map(|k| timeout.as_micros() + (base_us << k.min(40)).min(cap_us))
        .sum();
    let band = (fastest, fastest + u64::from(MAX_ATTEMPTS - 1) * base_us);
    let span = band.1;
    let mut windows = Vec::new();
    let mut t = rng.gen_range(0..span);
    for _ in 0..6 {
        let scope = if rng.gen_bool(0.3) {
            PartitionScope::Server
        } else {
            PartitionScope::Client(ClientId(rng.gen_range(0..CLIENTS)))
        };
        let len = rng.gen_range(span / 4..=span * 2).max(1);
        windows.push(PartitionWindow {
            scope,
            start: SimTime::from_micros(t),
            end: SimTime::from_micros(t + len),
        });
        // The next outage abuts this one half the time, on another edge.
        t += len;
        if rng.gen_bool(0.5) {
            t += rng.gen_range(1..=span);
        }
    }
    let plan = NetFaultPlan::from_windows(case, &config, windows).unwrap();
    (plan, band)
}

/// Request instants for one stream: a cursor with bursts, gaps and
/// jumps, plus requests sent just early enough that their outage ends
/// inside the retry ladder's jitter band.
fn stream(rng: &mut StdRng, plan: &NetFaultPlan, band: (u64, u64)) -> Vec<(ClientId, SimTime)> {
    let ladder = band.1;
    let mut out = Vec::new();
    let mut t = 0u64;
    for _ in 0..160 {
        t += match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(0..10_000),
            2 => rng.gen_range(0..2_000_000),
            _ => rng.gen_range(0..ladder.max(1)),
        };
        out.push((ClientId(rng.gen_range(0..CLIENTS)), SimTime::from_micros(t)));
    }
    for w in plan.windows() {
        let end = w.end.as_micros();
        for _ in 0..4 {
            let before = rng.gen_range(band.0..=band.1);
            let client = match w.scope {
                PartitionScope::Client(c) => c,
                PartitionScope::Server => ClientId(rng.gen_range(0..CLIENTS)),
            };
            let at = SimTime::from_micros(end.saturating_sub(before).max(w.start.as_micros()));
            let i = rng.gen_range(0..=out.len());
            out.insert(i, (client, at));
        }
    }
    out
}

#[test]
fn closed_form_rpcs_match_the_per_attempt_loop() {
    let mut rng = StdRng::seed_from_u64(0x7270_635f_6469_6666);
    let (mut gave_up, mut draws_saved) = (0, 0);
    let mut case = 0;
    for drop in [0.0, 0.1, 0.9] {
        for dup in [0.0, 0.2] {
            for in_flight in [1, 8] {
                for _ in 0..3 {
                    case += 1;
                    let (plan, band) = plan(&mut rng, case, drop, dup, in_flight);
                    let mut fast = NetFaultInjector::new(&plan);
                    let mut slow = LoopInjector::new(&plan);
                    for (i, (client, at)) in stream(&mut rng, &plan, band).into_iter().enumerate() {
                        fast.rpc(client, at);
                        slow.rpc(client, at);
                        let ctx = format!("case {case} request {i} ({client:?} at {at})");
                        assert_eq!(fast.stats, slow.stats, "{ctx}: stats");
                        assert_eq!(
                            fast.judge.clone().finish(),
                            slow.judge.clone().finish(),
                            "{ctx}: judge"
                        );
                        let ring = slow
                            .acks
                            .get(&client)
                            .cloned()
                            .unwrap_or_else(|| vec![SimTime::ZERO; in_flight as usize]);
                        assert_eq!(fast.clients[&client].acks, ring, "{ctx}: ack ring");
                        assert!(fast.fate_draws <= slow.fate_draws, "{ctx}: fate draws");
                    }
                    gave_up += fast.stats.gave_up;
                    draws_saved += slow.fate_draws - fast.fate_draws;
                }
            }
        }
    }
    assert!(
        gave_up > 0,
        "no request gave up: the closed form went untested"
    );
    assert!(draws_saved > 0, "every attempt drew a fate");
}
