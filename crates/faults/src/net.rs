//! Deterministic network-fault plans for the client↔server RPC layer.
//!
//! The paper's reliability argument (§2.3–§2.5) is really about what a
//! client can do *while the server is unreachable*: NVRAM lets it keep
//! absorbing writes, a volatile cache must block or lose. A
//! [`NetFaultPlan`] compiles `(seed, NetFaultPlanConfig)` into the wire
//! behaviour needed to exercise that claim — timed partitions that sever
//! one client or the whole server, plus per-message drop, duplication and
//! delay draws that the RPC state machine in `nvfs-core` resolves into
//! retries, timeouts and out-of-order deliveries.
//!
//! # Determinism contract
//!
//! Partition placement and per-message fates use **new** RNG streams
//! (`STREAM_NET_*`), disjoint from the four crash/battery/torn/server
//! streams in the crate root, so adding network faults to a run never
//! perturbs an existing [`FaultSchedule`](crate::FaultSchedule) compiled
//! from the same seed. Message fates are keyed by
//! `(client, request id, attempt)` rather than drawn from a sequential
//! stream: a message's fate is a pure function of its identity, so it is
//! independent of the interleaving in which requests are issued.
//!
//! # Examples
//!
//! ```
//! use nvfs_faults::net::{NetFaultPlan, NetFaultPlanConfig};
//! use nvfs_types::SimDuration;
//!
//! let config = NetFaultPlanConfig::new(4, SimDuration::from_secs(600))
//!     .with_client_partitions(2)
//!     .with_drop_probability(0.05);
//! let a = NetFaultPlan::compile(7, &config).unwrap();
//! let b = NetFaultPlan::compile(7, &config).unwrap();
//! assert_eq!(a, b, "same (seed, config) => identical plan");
//! ```

use std::error::Error;
use std::fmt;

use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::{ClientId, SimDuration, SimTime};

// New streams for the network dimension; the four crash-side streams live
// in the crate root and must never change.
const STREAM_NET_PARTITION: u64 = 0x6e65_742d_7061_7205; // "net-par"
const STREAM_NET_MSG: u64 = 0x6e65_742d_6d73_6706; // "net-msg"

/// Client retransmit timeout.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(1);
/// Initial retry backoff; doubles per attempt.
pub const BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);
/// Backoff ceiling for the exponential schedule.
pub const BACKOFF_CAP: SimDuration = SimDuration::from_secs(30);
/// Bounded in-flight window: a client holds at most this many
/// unacknowledged requests (bounds reordering distance).
pub const MAX_IN_FLIGHT: usize = 8;

/// A network fault plan could not be compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFaultError {
    /// Client partitions were requested for a cluster with no clients.
    NoClients,
    /// A probability knob was outside `[0, 1]`.
    BadProbability {
        /// The offending value.
        value: f64,
    },
    /// Partitions cannot be placed on a zero-length trace.
    ZeroDuration,
    /// Partition windows need a positive mean duration.
    ZeroPartitionDuration,
    /// The minimum one-way delay exceeds the maximum.
    BadDelayRange {
        /// Configured minimum, in microseconds.
        min_us: u64,
        /// Configured maximum, in microseconds.
        max_us: u64,
    },
}

impl fmt::Display for NetFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetFaultError::NoClients => {
                write!(f, "client partitions requested but the plan has no clients")
            }
            NetFaultError::BadProbability { value } => {
                write!(f, "probability {value} is outside [0, 1]")
            }
            NetFaultError::ZeroDuration => {
                write!(f, "network faults cannot be placed on a zero-length trace")
            }
            NetFaultError::ZeroPartitionDuration => {
                write!(f, "partition windows need a positive mean duration")
            }
            NetFaultError::BadDelayRange { min_us, max_us } => {
                write!(
                    f,
                    "delay range is inverted: min {min_us}us > max {max_us}us"
                )
            }
        }
    }
}

impl Error for NetFaultError {}

/// What a partition window severs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PartitionScope {
    /// One client loses its link to the server.
    Client(ClientId),
    /// The server is unreachable from every client.
    Server,
}

/// A half-open `[start, end)` window during which an edge is severed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Which edge the window severs.
    pub scope: PartitionScope,
    /// First severed instant.
    pub start: SimTime,
    /// First healed instant.
    pub end: SimTime,
}

impl PartitionWindow {
    /// Whether the window covers `at`.
    fn covers(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }

    /// Whether the window severs the edge between `client` and the server.
    fn severs(&self, client: ClientId) -> bool {
        match self.scope {
            PartitionScope::Client(c) => c == client,
            PartitionScope::Server => true,
        }
    }
}

/// Declarative description of the network faults to compile.
///
/// Built with [`new`](NetFaultPlanConfig::new) plus `with_*` knobs; every
/// knob defaults to "off" (no partitions, lossless links) so a default
/// plan describes a perfect network with only the modelled RPC latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlanConfig {
    /// Clients in the cluster (partition targets).
    clients: u32,
    /// Trace duration partitions are placed within.
    duration: SimDuration,
    /// Single-client partition windows to place.
    client_partitions: u32,
    /// Whole-server partition windows to place.
    server_partitions: u32,
    /// Mean partition window length; actual lengths are drawn uniformly
    /// from `[mean/2, 3*mean/2]`.
    partition_duration: SimDuration,
    /// Probability an individual message transmission is dropped.
    drop_probability: f64,
    /// Probability a delivered message is also delivered a second time.
    duplicate_probability: f64,
    /// Minimum one-way message delay.
    delay_min: SimDuration,
    /// Maximum one-way message delay; unequal delays reorder messages
    /// within the bounded in-flight window.
    delay_max: SimDuration,
}

impl NetFaultPlanConfig {
    /// A lossless, partition-free plan for `clients` over `duration`.
    pub fn new(clients: u32, duration: SimDuration) -> Self {
        NetFaultPlanConfig {
            clients,
            duration,
            client_partitions: 0,
            server_partitions: 0,
            partition_duration: SimDuration::from_secs(60),
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            delay_min: SimDuration::from_micros(500),
            delay_max: SimDuration::from_micros(5_000),
        }
    }

    /// Places `n` single-client partition windows.
    pub fn with_client_partitions(mut self, n: u32) -> Self {
        self.client_partitions = n;
        self
    }

    /// Places `n` whole-server partition windows.
    pub fn with_server_partitions(mut self, n: u32) -> Self {
        self.server_partitions = n;
        self
    }

    /// Sets the mean partition window length.
    pub fn with_partition_duration(mut self, mean: SimDuration) -> Self {
        self.partition_duration = mean;
        self
    }

    /// Sets the per-transmission drop probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Sets the per-delivery duplication probability.
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        self.duplicate_probability = p;
        self
    }

    /// Sets the one-way delay range `[min, max]`.
    pub fn with_delay_range(mut self, min: SimDuration, max: SimDuration) -> Self {
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    fn validate(&self) -> Result<(), NetFaultError> {
        if self.client_partitions > 0 && self.clients == 0 {
            return Err(NetFaultError::NoClients);
        }
        for p in [self.drop_probability, self.duplicate_probability] {
            if !(0.0..=1.0).contains(&p) {
                return Err(NetFaultError::BadProbability { value: p });
            }
        }
        let partitions = self.client_partitions + self.server_partitions;
        if partitions > 0 && self.duration == SimDuration::ZERO {
            return Err(NetFaultError::ZeroDuration);
        }
        if partitions > 0 && self.partition_duration == SimDuration::ZERO {
            return Err(NetFaultError::ZeroPartitionDuration);
        }
        if self.delay_min > self.delay_max {
            return Err(NetFaultError::BadDelayRange {
                min_us: self.delay_min.as_micros(),
                max_us: self.delay_max.as_micros(),
            });
        }
        Ok(())
    }
}

/// The fate the wire assigns one transmission attempt of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MessageFate {
    /// The transmission vanished; the client will time out and retry.
    pub dropped: bool,
    /// The delivery is repeated (server sees the request twice).
    pub duplicated: bool,
    /// One-way delay of the (first) delivery.
    pub delay: SimDuration,
    /// One-way delay of the duplicate delivery, when `duplicated`.
    pub dup_delay: SimDuration,
}

/// A compiled, immutable network fault plan: merged partition windows
/// plus pure-function message fates.
///
/// Equality compares the placed windows and the config, so two compiles
/// from the same `(seed, config)` can be diffed for determinism.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    seed: u64,
    config: NetFaultPlanConfig,
    windows: Vec<PartitionWindow>,
}

impl NetFaultPlan {
    /// Compiles a plan. Partition windows overlapping on the same edge are
    /// merged, then sorted by `(start, scope)`.
    pub fn compile(seed: u64, config: &NetFaultPlanConfig) -> Result<Self, NetFaultError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_NET_PARTITION);
        let span = config.duration.as_micros();
        let mean = config.partition_duration.as_micros();
        let mut raw = Vec::new();
        let mut place = |rng: &mut StdRng, scope: PartitionScope| {
            let start = rng.gen_range(0..span.max(1));
            let len = rng.gen_range(mean / 2..=mean + mean / 2).max(1);
            raw.push(PartitionWindow {
                scope,
                start: SimTime::from_micros(start),
                end: SimTime::from_micros(start.saturating_add(len)),
            });
        };
        for _ in 0..config.client_partitions {
            let client = ClientId(rng.gen_range(0..config.clients));
            place(&mut rng, PartitionScope::Client(client));
        }
        for _ in 0..config.server_partitions {
            place(&mut rng, PartitionScope::Server);
        }
        let windows = merge_windows(raw);
        nvfs_obs::counter_add("faults.net_plans_compiled", 1);
        Ok(NetFaultPlan {
            seed,
            config: *config,
            windows,
        })
    }

    /// The merged partition windows, sorted by `(start, scope)`.
    pub fn windows(&self) -> &[PartitionWindow] {
        &self.windows
    }

    /// Whether the edge between `client` and the server is severed at `at`.
    pub fn client_severed(&self, client: ClientId, at: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| w.severs(client) && w.covers(at))
    }

    /// A plan with hand-placed partition windows instead of seeded ones:
    /// regression cases and boundary tests (windows that abut, outages
    /// that end at an exact instant). Windows on the same edge are merged
    /// as [`compile`](NetFaultPlan::compile) merges them; message fates
    /// still come from `seed`.
    pub fn from_windows(
        seed: u64,
        config: &NetFaultPlanConfig,
        windows: Vec<PartitionWindow>,
    ) -> Result<Self, NetFaultError> {
        config.validate()?;
        Ok(NetFaultPlan {
            seed,
            config: *config,
            windows: merge_windows(windows),
        })
    }

    /// First instant at or after `at` when the server is reachable again.
    pub fn server_heal_time(&self, at: SimTime) -> SimTime {
        self.heal_time(at, |w| w.scope == PartitionScope::Server)
    }

    /// First instant at or after `at` when the edge between `client` and
    /// the server is up again: the client-edge twin of
    /// [`server_heal_time`](NetFaultPlan::server_heal_time). Every instant
    /// in `[at, heal)` is severed, through chains of client and server
    /// windows that abut or overlap.
    pub fn client_heal_time(&self, client: ClientId, at: SimTime) -> SimTime {
        self.heal_time(at, |w| w.severs(client))
    }

    /// Follows chained windows that `edge` selects from `at` to the first
    /// instant none of them covers.
    fn heal_time(&self, at: SimTime, edge: impl Fn(&PartitionWindow) -> bool) -> SimTime {
        let mut t = at;
        loop {
            let Some(w) = self
                .windows
                .iter()
                .filter(|w| edge(w) && w.covers(t))
                .max_by_key(|w| w.end)
            else {
                return t;
            };
            t = w.end;
        }
    }

    /// The wire's verdict on transmission `attempt` of request
    /// `(client, req_id)` — a pure function of the plan seed and the
    /// message identity, independent of issue order.
    pub fn message_fate(&self, client: ClientId, req_id: u64, attempt: u32) -> MessageFate {
        let key = mix3(u64::from(client.0), req_id, u64::from(attempt));
        let mut rng = StdRng::seed_from_u64(self.seed ^ STREAM_NET_MSG ^ key);
        let dropped = rng.gen_bool(self.config.drop_probability);
        let duplicated = rng.gen_bool(self.config.duplicate_probability);
        let (lo, hi) = (
            self.config.delay_min.as_micros(),
            self.config.delay_max.as_micros(),
        );
        let delay = SimDuration::from_micros(rng.gen_range(lo..=hi));
        let dup_delay = SimDuration::from_micros(rng.gen_range(lo..=hi));
        MessageFate {
            dropped,
            duplicated,
            delay,
            dup_delay,
        }
    }

    /// Capped exponential backoff before retransmission `attempt + 1`,
    /// including deterministic jitter keyed by the message identity.
    pub fn backoff(&self, client: ClientId, req_id: u64, attempt: u32) -> SimDuration {
        let key = mix3(u64::from(client.0), req_id, u64::from(attempt) | (1 << 32));
        let mut rng = StdRng::seed_from_u64(self.seed ^ STREAM_NET_MSG ^ key);
        let jitter = rng.gen_range(0..=JITTER_MAX);
        SimDuration::from_micros(backoff_floor(attempt).saturating_add(jitter))
    }
}

/// The largest jitter a backoff adds: one base step.
const JITTER_MAX: u64 = BACKOFF_BASE.as_micros();

/// Worst-case retry ladders for a request with `attempts` transmissions:
/// entry `k` bounds the time from attempt `k`'s send to the last attempt's
/// send, the sum over attempts `k` to `attempts - 2` of [`RPC_TIMEOUT`]
/// plus the largest backoff [`NetFaultPlan::backoff`] can return. A
/// request whose attempt `k` is sent at `t` with `t + ladder[k]` before
/// the edge heals therefore sends every remaining attempt into the outage.
pub fn worst_ladder(attempts: u32) -> Vec<SimDuration> {
    let mut ladder = vec![SimDuration::ZERO; attempts as usize];
    for k in (0..attempts.saturating_sub(1)).rev() {
        let step = RPC_TIMEOUT
            .as_micros()
            .saturating_add(backoff_floor(k))
            .saturating_add(JITTER_MAX);
        ladder[k as usize] =
            SimDuration::from_micros(ladder[k as usize + 1].as_micros().saturating_add(step));
    }
    ladder
}

/// The exponential part of the backoff after `attempt`, capped.
fn backoff_floor(attempt: u32) -> u64 {
    let exp = BACKOFF_BASE
        .as_micros()
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
    exp.min(BACKOFF_CAP.as_micros())
}

/// Merges overlapping or touching windows on the same edge; the result is
/// sorted by `(start, scope)` with at most one window covering any
/// `(edge, instant)` pair.
fn merge_windows(mut raw: Vec<PartitionWindow>) -> Vec<PartitionWindow> {
    raw.sort_by_key(|w| (w.scope, w.start, w.end));
    let mut out: Vec<PartitionWindow> = Vec::with_capacity(raw.len());
    for w in raw {
        match out.last_mut() {
            Some(prev) if prev.scope == w.scope && w.start <= prev.end => {
                prev.end = prev.end.max(w.end);
            }
            _ => out.push(w),
        }
    }
    out.sort_by_key(|w| (w.start, w.scope, w.end));
    out
}

/// SplitMix-style avalanche over three identity words, so nearby message
/// identities land on unrelated RNG streams.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
        .wrapping_add(c.wrapping_mul(0x1656_67b1_9e37_79f9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlanConfig, FaultSchedule};

    fn config() -> NetFaultPlanConfig {
        NetFaultPlanConfig::new(4, SimDuration::from_secs(600))
            .with_client_partitions(3)
            .with_server_partitions(1)
            .with_drop_probability(0.1)
            .with_duplicate_probability(0.05)
    }

    #[test]
    fn compile_is_deterministic() {
        let a = NetFaultPlan::compile(42, &config()).unwrap();
        let b = NetFaultPlan::compile(42, &config()).unwrap();
        assert_eq!(a, b);
        assert!(!a.windows().is_empty());
    }

    #[test]
    fn message_fates_are_pure_functions_of_identity() {
        let plan = NetFaultPlan::compile(42, &config()).unwrap();
        let c = ClientId(1);
        assert_eq!(plan.message_fate(c, 9, 0), plan.message_fate(c, 9, 0));
        assert_eq!(plan.backoff(c, 9, 2), plan.backoff(c, 9, 2));
        // Distinct identities get independent draws somewhere in a small
        // scan (drop probability 0.1 would make 40 identical fates
        // astronomically unlikely).
        let distinct = (0..40)
            .map(|i| plan.message_fate(c, i, 0))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert!(distinct > 1, "fates must vary across request ids");
    }

    #[test]
    fn net_knobs_do_not_perturb_crash_schedules() {
        let crash_plan =
            FaultPlanConfig::new(4, SimDuration::from_secs(600)).with_client_crashes(2);
        let before = FaultSchedule::compile(42, &crash_plan).unwrap();
        let _net = NetFaultPlan::compile(42, &config()).unwrap();
        let after = FaultSchedule::compile(42, &crash_plan).unwrap();
        assert_eq!(
            before, after,
            "net compilation must not touch crash streams"
        );
        // And changing a net knob leaves partition placement alone.
        let a = NetFaultPlan::compile(42, &config()).unwrap();
        let b = NetFaultPlan::compile(42, &config().with_drop_probability(0.9)).unwrap();
        assert_eq!(a.windows(), b.windows(), "drop knob must not move windows");
    }

    #[test]
    fn windows_merge_and_heal_chains_resolve() {
        let c = ClientId(0);
        let w = |scope, s, e| PartitionWindow {
            scope,
            start: SimTime::from_secs(s),
            end: SimTime::from_secs(e),
        };
        let merged = merge_windows(vec![
            w(PartitionScope::Client(c), 10, 20),
            w(PartitionScope::Client(c), 15, 30),
            w(PartitionScope::Server, 25, 40),
        ]);
        assert_eq!(merged.len(), 2);
        let plan = NetFaultPlan {
            seed: 0,
            config: NetFaultPlanConfig::new(1, SimDuration::from_secs(100)),
            windows: merged,
        };
        assert!(plan.client_severed(c, SimTime::from_secs(12)));
        assert!(
            plan.client_severed(c, SimTime::from_secs(26)),
            "server window severs all"
        );
        assert_eq!(
            plan.server_heal_time(SimTime::from_secs(12)),
            SimTime::from_secs(12)
        );
        assert_eq!(
            plan.server_heal_time(SimTime::from_secs(26)),
            SimTime::from_secs(40)
        );
    }

    #[test]
    fn client_heal_chains_through_client_and_server_windows() {
        let (c, other) = (ClientId(0), ClientId(1));
        let w = |scope, s, e| PartitionWindow {
            scope,
            start: SimTime::from_secs(s),
            end: SimTime::from_secs(e),
        };
        let config = NetFaultPlanConfig::new(2, SimDuration::from_secs(200));
        // Client window [10, 20) abuts server window [20, 30), which
        // overlaps client window [25, 40); [50, 60) stands apart, and
        // the other client's [40, 45) is not this edge's outage.
        let plan = NetFaultPlan::from_windows(
            0,
            &config,
            vec![
                w(PartitionScope::Client(c), 10, 20),
                w(PartitionScope::Server, 20, 30),
                w(PartitionScope::Client(c), 25, 40),
                w(PartitionScope::Client(other), 40, 45),
                w(PartitionScope::Client(c), 50, 60),
            ],
        )
        .unwrap();
        let heal = |client, at| plan.client_heal_time(client, SimTime::from_secs(at));
        assert_eq!(heal(c, 5), SimTime::from_secs(5), "up already");
        assert_eq!(heal(c, 10), SimTime::from_secs(40));
        assert_eq!(heal(c, 19), SimTime::from_secs(40));
        assert_eq!(heal(c, 20), SimTime::from_secs(40), "abutting chain");
        assert_eq!(heal(c, 40), SimTime::from_secs(40), "half-open end");
        assert_eq!(heal(c, 55), SimTime::from_secs(60));
        assert_eq!(heal(other, 15), SimTime::from_secs(15));
        assert_eq!(heal(other, 25), SimTime::from_secs(30), "server only");
        assert_eq!(heal(other, 42), SimTime::from_secs(45));
        assert_eq!(
            plan.server_heal_time(SimTime::from_secs(15)),
            SimTime::from_secs(15)
        );
        assert_eq!(
            plan.server_heal_time(SimTime::from_secs(22)),
            SimTime::from_secs(30)
        );
        // Every instant before the heal is severed, the heal itself is not.
        for at in (0..=70).map(SimTime::from_secs) {
            let healed = plan.client_heal_time(c, at);
            assert!(
                !plan.client_severed(c, healed),
                "{at}: heal {healed} severed"
            );
            let mut t = at;
            while t < healed {
                assert!(plan.client_severed(c, t), "{t} in [{at}, {healed}) is up");
                t = t.saturating_add(SimDuration::from_millis(500));
            }
        }
    }

    #[test]
    fn worst_ladder_bounds_every_realised_ladder() {
        let mut rng = StdRng::seed_from_u64(0x6c61_6464);
        for case in 0..24 {
            let config = NetFaultPlanConfig::new(3, SimDuration::from_secs(600));
            let plan = NetFaultPlan::compile(case, &config).unwrap();
            let attempts = rng.gen_range(1..=64);
            let ladder = worst_ladder(attempts);
            assert_eq!(ladder.len(), attempts as usize);
            assert_eq!(ladder[attempts as usize - 1], SimDuration::ZERO);
            for req_id in 0..16 {
                let client = ClientId(rng.gen_range(0..3));
                let mut realised = 0u64;
                for k in (0..attempts).rev() {
                    if k + 1 < attempts {
                        let step =
                            RPC_TIMEOUT.as_micros() + plan.backoff(client, req_id, k).as_micros();
                        realised = realised.saturating_add(step);
                    }
                    let bound = ladder[k as usize].as_micros();
                    assert!(
                        realised <= bound,
                        "case {case} req {req_id} attempt {k}: realised {realised} > bound {bound}"
                    );
                    // The bound is tight to within one jitter step per
                    // remaining retransmission.
                    let slack = u64::from(attempts - 1 - k) * BACKOFF_BASE.as_micros();
                    assert!(bound - realised <= slack, "case {case}: bound loose");
                }
            }
        }
    }

    #[test]
    fn typed_errors_cover_every_bad_knob() {
        let d = SimDuration::from_secs(600);
        let cases: Vec<(NetFaultPlanConfig, NetFaultError)> = vec![
            (
                NetFaultPlanConfig::new(0, d).with_client_partitions(1),
                NetFaultError::NoClients,
            ),
            (
                NetFaultPlanConfig::new(4, d).with_drop_probability(1.5),
                NetFaultError::BadProbability { value: 1.5 },
            ),
            (
                NetFaultPlanConfig::new(4, SimDuration::ZERO).with_server_partitions(1),
                NetFaultError::ZeroDuration,
            ),
            (
                NetFaultPlanConfig::new(4, d)
                    .with_server_partitions(1)
                    .with_partition_duration(SimDuration::ZERO),
                NetFaultError::ZeroPartitionDuration,
            ),
            (
                NetFaultPlanConfig::new(4, d)
                    .with_delay_range(SimDuration::from_secs(1), SimDuration::ZERO),
                NetFaultError::BadDelayRange {
                    min_us: 1_000_000,
                    max_us: 0,
                },
            ),
        ];
        for (config, want) in cases {
            assert_eq!(NetFaultPlan::compile(1, &config).unwrap_err(), want);
        }
    }

    #[test]
    fn backoff_is_capped_and_grows() {
        let plan = NetFaultPlan::compile(3, &config()).unwrap();
        let c = ClientId(2);
        let base = BACKOFF_BASE.as_micros();
        let cap = BACKOFF_CAP.as_micros() + base;
        for attempt in 0..12 {
            let b = plan.backoff(c, 1, attempt).as_micros();
            assert!(b <= cap, "backoff must respect the cap (+jitter)");
            // 2^attempt * base minus nothing: even with zero jitter the
            // exponential floor must hold until the cap kicks in.
            let floor = base.saturating_mul(1 << attempt.min(10)).min(cap - base);
            assert!(b >= floor, "attempt {attempt}: {b} < floor {floor}");
        }
    }
}
