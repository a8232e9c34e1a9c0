//! Deterministic fault injection for the NVRAM reliability study.
//!
//! The paper's central claim is a *reliability* claim: NVRAM makes cached
//! writes "as permanent as data on disk" (§2.3, §4). The happy-path
//! simulators measure write traffic saved; this crate supplies the failure
//! schedules needed to measure **bytes lost under failure**, so the
//! volatile / write-aside / unified models can be compared on the axis the
//! paper actually argues about.
//!
//! A [`FaultSchedule`] is compiled from `(seed, FaultPlanConfig)` and is a
//! pure function of those inputs: the same pair yields byte-identical
//! schedules — and therefore byte-identical [`ReliabilityStats`] — on every
//! platform and at every worker-thread count. Consumers thread the schedule
//! through their replay loops:
//!
//! * the cluster simulator cuts a crashed client's trace at the fault time
//!   and routes its NVRAM contents through the §4 board-recovery flow;
//! * the LFS simulator loses its volatile dirty cache at a server crash and
//!   replays NVRAM-staged data on restart;
//! * board batteries age on the schedule's failure-rate clock instead of
//!   being killed by hand.
//!
//! # Determinism contract
//!
//! [`FaultSchedule::compile`] derives one independent RNG stream per fault
//! dimension (crash placement, battery lifetimes, torn writes, server
//! crashes) from the seed, so changing one plan knob — e.g. the number of
//! batteries per board — never perturbs the *other* dimensions: two models
//! compared under the same seed see the same crashes at the same times.
//!
//! # Examples
//!
//! ```
//! use nvfs_faults::{FaultPlanConfig, FaultSchedule};
//! use nvfs_types::SimDuration;
//!
//! let plan = FaultPlanConfig::new(8, SimDuration::from_secs(3600)).with_client_crashes(3);
//! let a = FaultSchedule::compile(42, &plan).unwrap();
//! let b = FaultSchedule::compile(42, &plan).unwrap();
//! assert_eq!(a, b, "same (seed, plan) => identical schedule");
//! assert_eq!(a.client_crashes.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::error::Error;
use std::fmt;

use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::{ClientId, SimDuration, SimTime};

pub mod corrupt;
pub mod net;

/// Battery cells sampled per board. Schedules always sample this many
/// lifetimes and boards keep the first [`FaultPlanConfig::board_batteries`]
/// of them, so redundancy choices never shift the other RNG streams.
const MAX_BOARD_BATTERIES: u8 = 3;

/// A fault plan could not be compiled or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// Crashes were requested for a cluster with no clients.
    NoClients,
    /// More client crashes than clients: each client crashes at most once
    /// (its trace is cut at the fault time).
    TooManyCrashes {
        /// Crashes requested.
        crashes: u32,
        /// Clients available.
        clients: u32,
    },
    /// A board with zero batteries is just DRAM.
    NoBatteries,
    /// More batteries than the schedule samples lifetimes for.
    TooManyBatteries {
        /// Batteries requested.
        requested: u8,
    },
    /// A probability knob was outside `[0, 1]`.
    BadProbability {
        /// The offending value.
        value: f64,
    },
    /// Faults cannot be placed on a zero-length trace.
    ZeroDuration,
    /// Battery cells need a positive mean lifetime.
    ZeroMtbf,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NoClients => write!(f, "client crashes requested but the plan has no clients"),
            FaultError::TooManyCrashes { crashes, clients } => write!(
                f,
                "{crashes} client crashes requested for {clients} clients (each client crashes at most once)"
            ),
            FaultError::NoBatteries => write!(f, "boards need at least one battery"),
            FaultError::TooManyBatteries { requested } => write!(
                f,
                "{requested} batteries requested, schedule samples at most {MAX_BOARD_BATTERIES}"
            ),
            FaultError::BadProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            FaultError::ZeroDuration => write!(f, "fault plan needs a positive trace duration"),
            FaultError::ZeroMtbf => write!(f, "battery mean lifetime must be positive"),
        }
    }
}

impl Error for FaultError {}

/// Tunable knobs a [`FaultSchedule`] is compiled from.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Number of client workstations in the workload.
    clients: u32,
    /// Length of the trace the faults are placed on.
    duration: SimDuration,
    /// Number of client crash events (at most one per client).
    client_crashes: u32,
    /// Redundant battery cells per recovery board (Table 1: SIMM-style
    /// parts carry one or two, boards are triply redundant).
    pub board_batteries: u8,
    /// Mean battery-cell lifetime on the (accelerated) failure clock.
    /// Real lithium cells live ~10 years; reliability runs compress that
    /// so battery death is observable within a trace.
    battery_mtbf: SimDuration,
    /// Mean delay between a client crash and its board being reinstalled
    /// in a healthy workstation (§4's "move an NVRAM component").
    relocation_delay: SimDuration,
    /// Number of file-server crash events for the LFS study.
    server_crashes: u32,
    /// Number of WAL-mode server crash events (the write-ahead-log commit
    /// path has its own crash-point lattice, see [`WalCrashPoint`]).
    wal_crashes: u32,
    /// Probability that a recovery drain or restart segment write is torn
    /// (partially applied).
    torn_write_probability: f64,
}

impl FaultPlanConfig {
    /// A plan over `clients` workstations and a trace of `duration`, with
    /// no faults enabled. Enable dimensions with the `with_*` builders.
    pub fn new(clients: u32, duration: SimDuration) -> Self {
        FaultPlanConfig {
            clients,
            duration,
            client_crashes: 0,
            board_batteries: MAX_BOARD_BATTERIES,
            battery_mtbf: SimDuration::from_secs(24 * 3600),
            relocation_delay: SimDuration::from_secs(600),
            server_crashes: 0,
            wal_crashes: 0,
            torn_write_probability: 0.0,
        }
    }

    /// Sets the number of client crash events (builder style).
    pub fn with_client_crashes(mut self, n: u32) -> Self {
        self.client_crashes = n;
        self
    }

    /// Sets board battery redundancy (builder style).
    pub fn with_batteries(mut self, n: u8) -> Self {
        self.board_batteries = n;
        self
    }

    /// Sets the mean battery-cell lifetime (builder style).
    pub fn with_battery_mtbf(mut self, mtbf: SimDuration) -> Self {
        self.battery_mtbf = mtbf;
        self
    }

    /// Sets the mean board relocation delay (builder style).
    pub fn with_relocation_delay(mut self, delay: SimDuration) -> Self {
        self.relocation_delay = delay;
        self
    }

    /// Sets the number of server crash events (builder style).
    pub fn with_server_crashes(mut self, n: u32) -> Self {
        self.server_crashes = n;
        self
    }

    /// Sets the torn-write probability (builder style).
    pub fn with_torn_probability(mut self, p: f64) -> Self {
        self.torn_write_probability = p;
        self
    }

    /// Sets the number of WAL-mode server crash events (builder style).
    pub fn with_wal_crashes(mut self, n: u32) -> Self {
        self.wal_crashes = n;
        self
    }

    fn validate(&self) -> Result<(), FaultError> {
        if self.client_crashes > 0 && self.clients == 0 {
            return Err(FaultError::NoClients);
        }
        if self.client_crashes > self.clients {
            return Err(FaultError::TooManyCrashes {
                crashes: self.client_crashes,
                clients: self.clients,
            });
        }
        if self.board_batteries == 0 {
            return Err(FaultError::NoBatteries);
        }
        if self.board_batteries > MAX_BOARD_BATTERIES {
            return Err(FaultError::TooManyBatteries {
                requested: self.board_batteries,
            });
        }
        if !(0.0..=1.0).contains(&self.torn_write_probability) {
            return Err(FaultError::BadProbability {
                value: self.torn_write_probability,
            });
        }
        if (self.client_crashes > 0 || self.server_crashes > 0 || self.wal_crashes > 0)
            && self.duration == SimDuration::ZERO
        {
            return Err(FaultError::ZeroDuration);
        }
        if self.battery_mtbf == SimDuration::ZERO {
            return Err(FaultError::ZeroMtbf);
        }
        Ok(())
    }
}

/// One scheduled client crash with everything needed to replay §4 recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientCrashFault {
    /// When the workstation dies; its trace is cut here.
    pub time: SimTime,
    /// The crashed client.
    pub client: ClientId,
    /// Delay until the board is reinstalled in a healthy client.
    relocation_delay: SimDuration,
    /// Absolute failure time of each battery cell on the board, sorted.
    /// Only the first `board_batteries` entries apply.
    battery_failures: Vec<SimTime>,
    /// `Some(fraction)` if the recovery drain is torn: only `fraction` of
    /// the board's bytes are applied before the drain is cut short.
    pub torn_drain: Option<f64>,
    /// `Some(n)` pins the torn drain to an exact budget of `n` 4 KB
    /// blocks, overriding [`torn_drain`](ClientCrashFault::torn_drain).
    /// Compiled schedules always leave this `None`; the crash-point sweep
    /// sets it to enumerate mid-drain cuts block by block.
    pub torn_drain_blocks: Option<u64>,
}

impl ClientCrashFault {
    /// When the board is drained on its new host.
    pub fn recovery_time(&self) -> SimTime {
        self.time.saturating_add(self.relocation_delay)
    }

    /// The battery failure clock restricted to the plan's redundancy.
    pub fn battery_clock(&self, board_batteries: u8) -> &[SimTime] {
        &self.battery_failures[..board_batteries.min(MAX_BOARD_BATTERIES) as usize]
    }
}

/// One scheduled file-server crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCrashFault {
    /// When the server dies.
    pub time: SimTime,
    /// `Some(fraction)` if the restart replay's final segment write is torn
    /// and `fraction` of it must be written again.
    pub torn_segment: Option<f64>,
}

/// Where in the WAL commit protocol a server crash lands. The four points
/// cover every boundary of the append → writeback → truncate cycle; the
/// durability oracle sweeps all of them in `nvfs verify-crash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalCrashPoint {
    /// The crash interrupts an append at the frame boundary: only the
    /// record header reaches NVRAM. The fsync was never acknowledged, so
    /// the bytes are not promised; roll-forward must truncate the frame.
    MidAppend,
    /// The record is durably appended (and therefore promised) but the
    /// crash lands before any segment writeback: recovery must replay it.
    PostAppend,
    /// A drain's segment writes completed but the crash interrupts log
    /// truncation: already-drained records survive in the log, and their
    /// re-replay on recovery must be idempotent.
    MidTruncation,
    /// The crash tears the tail record mid-payload: the frame looks whole
    /// but its checksum fails, and roll-forward must truncate it.
    TornRecord,
}

impl WalCrashPoint {
    /// Every WAL crash point, in protocol order.
    pub const ALL: [WalCrashPoint; 4] = [
        WalCrashPoint::MidAppend,
        WalCrashPoint::PostAppend,
        WalCrashPoint::MidTruncation,
        WalCrashPoint::TornRecord,
    ];

    /// Short static label for reports and events.
    pub fn label(&self) -> &'static str {
        match self {
            WalCrashPoint::MidAppend => "mid-append",
            WalCrashPoint::PostAppend => "post-append",
            WalCrashPoint::MidTruncation => "mid-truncation",
            WalCrashPoint::TornRecord => "torn-record",
        }
    }
}

impl fmt::Display for WalCrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One scheduled WAL-mode server crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalCrashFault {
    /// When the server dies.
    pub time: SimTime,
    /// Where in the commit protocol the crash lands.
    pub point: WalCrashPoint,
}

/// A compiled, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// The seed the schedule was compiled from.
    seed: u64,
    /// The plan the schedule was compiled from.
    pub plan: FaultPlanConfig,
    /// Client crashes, sorted by time.
    pub client_crashes: Vec<ClientCrashFault>,
    /// Server crashes, sorted by time.
    pub server_crashes: Vec<ServerCrashFault>,
    /// WAL-mode server crashes, sorted by time.
    pub wal_crashes: Vec<WalCrashFault>,
}

/// Stream-splitting constants: each fault dimension draws from its own RNG
/// so plan knobs never perturb unrelated dimensions.
const STREAM_CRASH: u64 = 0x632d_6372_6173_6801; // "c-crash"
const STREAM_BATTERY: u64 = 0x6261_7474_6572_7902; // "battery"
const STREAM_TORN: u64 = 0x746f_726e_2d77_7203; // "torn-wr"
const STREAM_SERVER: u64 = 0x7365_7276_6572_6304; // "serverc"
const STREAM_WAL: u64 = 0x7761_6c2d_6c6f_6705; // "wal-log"

impl FaultSchedule {
    /// Compiles the deterministic schedule for `(seed, plan)`.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] when the plan is internally inconsistent
    /// (more crashes than clients, zero batteries, probabilities outside
    /// `[0, 1]`, …).
    pub fn compile(seed: u64, plan: &FaultPlanConfig) -> Result<FaultSchedule, FaultError> {
        plan.validate()?;
        let micros = plan.duration.as_micros().max(1);

        // Crash placement: choose distinct clients by partial Fisher-Yates,
        // then a uniform crash time and relocation delay for each.
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_CRASH);
        let mut pool: Vec<u32> = (0..plan.clients).collect();
        let mut client_crashes = Vec::with_capacity(plan.client_crashes as usize);
        for i in 0..plan.client_crashes as usize {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
            let time = SimTime::from_micros(rng.gen_range(0..micros));
            let mean = plan.relocation_delay.as_micros();
            let delay = SimDuration::from_micros(rng.gen_range(mean / 2..=mean + mean / 2));
            client_crashes.push(ClientCrashFault {
                time,
                client: ClientId(pool[i]),
                relocation_delay: delay,
                battery_failures: Vec::new(),
                torn_drain: None,
                torn_drain_blocks: None,
            });
        }

        // Battery lifetimes: exponential with the plan's (accelerated)
        // MTBF, always MAX_BOARD_BATTERIES samples per crash so redundancy
        // choices don't shift later draws.
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_BATTERY);
        for crash in &mut client_crashes {
            let mut cells: Vec<SimTime> = (0..MAX_BOARD_BATTERIES)
                .map(|_| {
                    let u: f64 = rng.gen();
                    let life = -(1.0 - u).ln() * plan.battery_mtbf.as_micros() as f64;
                    SimTime::from_micros(life.min(u64::MAX as f64 / 2.0) as u64)
                })
                .collect();
            cells.sort();
            crash.battery_failures = cells;
        }

        // Torn writes: one draw per client crash, then one per server crash.
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_TORN);
        for crash in &mut client_crashes {
            if rng.gen_bool(plan.torn_write_probability) {
                crash.torn_drain = Some(rng.gen_range(0.1..0.9));
            }
        }
        let mut server_torn = Vec::with_capacity(plan.server_crashes as usize);
        for _ in 0..plan.server_crashes {
            server_torn.push(if rng.gen_bool(plan.torn_write_probability) {
                Some(rng.gen_range(0.1..0.9))
            } else {
                None
            });
        }

        // Server crashes.
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_SERVER);
        let mut server_crashes: Vec<ServerCrashFault> = server_torn
            .into_iter()
            .map(|torn_segment| ServerCrashFault {
                time: SimTime::from_micros(rng.gen_range(0..micros)),
                torn_segment,
            })
            .collect();

        // WAL-mode server crashes: a uniform time per event, cycling through
        // the crash-point lattice so every point is hit before any repeats.
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_WAL);
        let mut wal_crashes: Vec<WalCrashFault> = (0..plan.wal_crashes as usize)
            .map(|i| WalCrashFault {
                time: SimTime::from_micros(rng.gen_range(0..micros)),
                point: WalCrashPoint::ALL[i % WalCrashPoint::ALL.len()],
            })
            .collect();

        client_crashes.sort_by_key(|c| (c.time, c.client.0));
        server_crashes.sort_by_key(|a| a.time);
        wal_crashes.sort_by_key(|a| a.time);
        nvfs_obs::counter_add("faults.schedules_compiled", 1);
        nvfs_obs::counter_add(
            "faults.client_crashes_scheduled",
            client_crashes.len() as u64,
        );
        nvfs_obs::counter_add(
            "faults.server_crashes_scheduled",
            server_crashes.len() as u64,
        );
        if !wal_crashes.is_empty() {
            nvfs_obs::counter_add("faults.wal_crashes_scheduled", wal_crashes.len() as u64);
        }
        Ok(FaultSchedule {
            seed,
            plan: plan.clone(),
            client_crashes,
            server_crashes,
            wal_crashes,
        })
    }
}

/// One boundary class the durability-oracle crash-point sweep pins every
/// scheduled client crash to. From a single compiled `(seed, plan)`
/// schedule, [`FaultSchedule::apply_crash_point`] derives one variant
/// schedule per kind, so the sweep explores every interesting recovery
/// boundary without perturbing crash placement or any other RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPointKind {
    /// Healthy board, untorn drain: the baseline full recovery.
    FullDrain,
    /// The drain is cut after exactly `n` 4 KB blocks — swept over
    /// `0..=board blocks` to hit every mid-drain boundary.
    TornDrainBlocks(u64),
    /// Every battery cell dies before the board is drained: recovery must
    /// return nothing.
    DeadBoard,
    /// Every battery cell dies one microsecond *after* the drain: the
    /// closest surviving edge of battery death.
    BatteryEdgeAlive,
    /// The crash lands one microsecond before the next flush-tick
    /// boundary, maximising data still dirty in the cache.
    PreFlush,
    /// The crash lands one microsecond after the flush-tick boundary.
    PostFlush,
}

impl CrashPointKind {
    /// Short static label for reports and events.
    fn label(&self) -> &'static str {
        match self {
            CrashPointKind::FullDrain => "full-drain",
            CrashPointKind::TornDrainBlocks(_) => "mid-drain",
            CrashPointKind::DeadBoard => "dead-board",
            CrashPointKind::BatteryEdgeAlive => "battery-edge",
            CrashPointKind::PreFlush => "pre-flush",
            CrashPointKind::PostFlush => "post-flush",
        }
    }
}

impl fmt::Display for CrashPointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashPointKind::TornDrainBlocks(n) => write!(f, "mid-drain@{n}blk"),
            other => f.write_str(other.label()),
        }
    }
}

impl FaultSchedule {
    /// Derives the crash-point variant of this schedule for `kind`: every
    /// scheduled client crash is pinned to that boundary while everything
    /// else (crash clients, relocation delays, server crashes) is kept
    /// verbatim. `flush_tick` is the consumer's flush cadence (e.g. the
    /// cluster simulator's 5-second cleaner period), used to place the
    /// pre-/post-flush edges.
    pub fn apply_crash_point(
        &self,
        kind: CrashPointKind,
        flush_tick: SimDuration,
    ) -> FaultSchedule {
        let mut out = self.clone();
        for crash in &mut out.client_crashes {
            match kind {
                CrashPointKind::FullDrain => {
                    crash.torn_drain = None;
                    crash.torn_drain_blocks = None;
                }
                CrashPointKind::TornDrainBlocks(n) => {
                    crash.torn_drain = None;
                    crash.torn_drain_blocks = Some(n);
                }
                CrashPointKind::DeadBoard => {
                    for cell in &mut crash.battery_failures {
                        *cell = SimTime::ZERO;
                    }
                }
                CrashPointKind::BatteryEdgeAlive => {
                    let edge = crash
                        .recovery_time()
                        .saturating_add(SimDuration::from_micros(1));
                    for cell in &mut crash.battery_failures {
                        *cell = edge;
                    }
                }
                CrashPointKind::PreFlush | CrashPointKind::PostFlush => {
                    let tick = flush_tick.as_micros().max(1);
                    let next = (crash.time.as_micros() / tick + 1) * tick;
                    crash.time = match kind {
                        CrashPointKind::PreFlush => SimTime::from_micros(next.saturating_sub(1)),
                        _ => SimTime::from_micros(next.saturating_add(1)),
                    };
                }
            }
        }
        out.client_crashes.sort_by_key(|c| (c.time, c.client.0));
        out
    }
}

/// End-to-end crash/recovery accounting for one run, per fault kind.
///
/// All fields are byte or event counts, so two runs can be compared for
/// determinism with `==` and per-model results merged with [`merge`].
///
/// [`merge`]: ReliabilityStats::merge
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Client crash events executed.
    pub client_crashes: u64,
    /// Server crash events executed.
    pub server_crashes: u64,
    /// Dirty bytes held by crashed clients at their crash instants — the
    /// bytes the paper's reliability argument is about.
    pub bytes_at_risk: u64,
    /// …of which: preserved in NVRAM at crash time (snapshot onto a board).
    pub bytes_in_nvram: u64,
    /// Bytes a recovery drain turned back into durable server writes.
    pub bytes_recovered: u64,
    /// Bytes lost because they sat in a volatile cache when the client
    /// died (the paper's 30-second delayed-write window, §2.3).
    pub bytes_lost_window: u64,
    /// Bytes lost because every board battery had died before recovery.
    pub bytes_lost_battery: u64,
    /// Bytes lost to torn (partially applied) drains or segment writes.
    pub bytes_lost_torn: u64,
    /// Server-side bytes lost from the volatile dirty buffer at a server
    /// crash (data not yet staged to NVRAM or disk).
    pub bytes_lost_buffer: u64,
    /// Server-side NVRAM-staged bytes replayed into the log on restart.
    pub bytes_replayed: u64,
    /// Server-side bytes a torn replay segment write had to write a second
    /// time (wasted disk work; nothing is lost because NVRAM still holds
    /// the data).
    pub bytes_rewritten_torn: u64,
    /// Boards drained successfully (batteries held).
    pub boards_recovered: u64,
    /// Boards found dead at recovery time.
    pub boards_dead: u64,
    /// Bytes a cache model was forced to push toward an unreachable server
    /// while a network partition was open (shed on the wire; only the
    /// degraded-mode network runs of PR 7 populate this).
    pub bytes_lost_partition: u64,
}

impl ReliabilityStats {
    /// Total bytes lost across every fault kind.
    pub fn bytes_lost(&self) -> u64 {
        self.bytes_lost_window
            + self.bytes_lost_battery
            + self.bytes_lost_torn
            + self.bytes_lost_buffer
            + self.bytes_lost_partition
    }

    /// Bytes lost as a percentage of bytes at risk (0 when nothing was at
    /// risk).
    pub fn loss_pct(&self) -> f64 {
        let at_risk = self.bytes_at_risk + self.bytes_lost_buffer + self.bytes_replayed;
        if at_risk == 0 {
            return 0.0;
        }
        100.0 * self.bytes_lost() as f64 / at_risk as f64
    }

    /// Folds another run's accounting into this one.
    pub fn merge(&mut self, other: &ReliabilityStats) {
        self.client_crashes += other.client_crashes;
        self.server_crashes += other.server_crashes;
        self.bytes_at_risk += other.bytes_at_risk;
        self.bytes_in_nvram += other.bytes_in_nvram;
        self.bytes_recovered += other.bytes_recovered;
        self.bytes_lost_window += other.bytes_lost_window;
        self.bytes_lost_battery += other.bytes_lost_battery;
        self.bytes_lost_torn += other.bytes_lost_torn;
        self.bytes_lost_buffer += other.bytes_lost_buffer;
        self.bytes_replayed += other.bytes_replayed;
        self.bytes_rewritten_torn += other.bytes_rewritten_torn;
        self.boards_recovered += other.boards_recovered;
        self.boards_dead += other.boards_dead;
        self.bytes_lost_partition += other.bytes_lost_partition;
    }

    /// Folds this run's accounting into the `faults.*` counters of the
    /// `nvfs-obs` metrics registry (once per completed run).
    pub fn fold_into_obs(&self) {
        use nvfs_obs::counter_add;
        counter_add("faults.client_crashes", self.client_crashes);
        counter_add("faults.server_crashes", self.server_crashes);
        counter_add("faults.bytes_at_risk", self.bytes_at_risk);
        counter_add("faults.bytes_in_nvram", self.bytes_in_nvram);
        counter_add("faults.bytes_recovered", self.bytes_recovered);
        counter_add("faults.bytes_lost_window", self.bytes_lost_window);
        counter_add("faults.bytes_lost_battery", self.bytes_lost_battery);
        counter_add("faults.bytes_lost_torn", self.bytes_lost_torn);
        counter_add("faults.bytes_lost_buffer", self.bytes_lost_buffer);
        counter_add("faults.bytes_replayed", self.bytes_replayed);
        counter_add("faults.bytes_rewritten_torn", self.bytes_rewritten_torn);
        counter_add("faults.boards_recovered", self.boards_recovered);
        counter_add("faults.boards_dead", self.boards_dead);
        // Guarded so crash-only runs keep their manifests byte-identical:
        // the counter exists only when a network run actually shed bytes.
        if self.bytes_lost_partition > 0 {
            counter_add("faults.bytes_lost_partition", self.bytes_lost_partition);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlanConfig {
        FaultPlanConfig::new(8, SimDuration::from_secs(3600))
            .with_client_crashes(4)
            .with_server_crashes(2)
            .with_torn_probability(0.5)
    }

    #[test]
    fn compile_is_deterministic() {
        let a = FaultSchedule::compile(1992, &plan()).unwrap();
        let b = FaultSchedule::compile(1992, &plan()).unwrap();
        assert_eq!(a, b);
        let c = FaultSchedule::compile(1993, &plan()).unwrap();
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn crashes_hit_distinct_clients_in_time_order() {
        let s = FaultSchedule::compile(7, &plan()).unwrap();
        let mut clients: Vec<u32> = s.client_crashes.iter().map(|c| c.client.0).collect();
        clients.sort_unstable();
        clients.dedup();
        assert_eq!(clients.len(), 4, "each client crashes at most once");
        assert!(s.client_crashes.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(s
            .client_crashes
            .iter()
            .all(|c| c.time <= SimTime::ZERO + SimDuration::from_secs(3600)));
    }

    #[test]
    fn wal_crashes_cycle_the_point_lattice_in_time_order() {
        let s = FaultSchedule::compile(7, &plan().with_wal_crashes(6)).unwrap();
        assert_eq!(s.wal_crashes.len(), 6);
        assert!(s.wal_crashes.windows(2).all(|w| w[0].time <= w[1].time));
        // Before sorting by time the points cycle the lattice, so every
        // point appears at least once in any batch of >= 4.
        for point in WalCrashPoint::ALL {
            assert!(
                s.wal_crashes.iter().any(|c| c.point == point),
                "missing {point}"
            );
        }
        // The WAL stream is independent: plain plans are unperturbed.
        let plain = FaultSchedule::compile(7, &plan()).unwrap();
        assert!(plain.wal_crashes.is_empty());
        assert_eq!(plain.client_crashes, s.client_crashes);
        assert_eq!(plain.server_crashes, s.server_crashes);
    }

    #[test]
    fn battery_clock_is_sorted_and_redundancy_is_a_view() {
        let s = FaultSchedule::compile(11, &plan()).unwrap();
        for c in &s.client_crashes {
            assert_eq!(c.battery_failures.len(), MAX_BOARD_BATTERIES as usize);
            assert!(c.battery_failures.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(c.battery_clock(1).len(), 1);
            assert_eq!(c.battery_clock(3).len(), 3);
        }
    }

    #[test]
    fn redundancy_choice_does_not_move_crash_times() {
        let one = FaultSchedule::compile(42, &plan().with_batteries(1)).unwrap();
        let three = FaultSchedule::compile(42, &plan().with_batteries(3)).unwrap();
        for (a, b) in one.client_crashes.iter().zip(&three.client_crashes) {
            assert_eq!((a.time, a.client), (b.time, b.client));
            assert_eq!(a.battery_failures, b.battery_failures);
        }
        assert_eq!(one.server_crashes, three.server_crashes);
    }

    #[test]
    fn invalid_plans_are_typed_errors() {
        let d = SimDuration::from_secs(10);
        assert_eq!(
            FaultSchedule::compile(0, &FaultPlanConfig::new(0, d).with_client_crashes(1)),
            Err(FaultError::NoClients)
        );
        assert_eq!(
            FaultSchedule::compile(0, &FaultPlanConfig::new(2, d).with_client_crashes(3)),
            Err(FaultError::TooManyCrashes {
                crashes: 3,
                clients: 2
            })
        );
        assert_eq!(
            FaultSchedule::compile(0, &FaultPlanConfig::new(2, d).with_batteries(0)),
            Err(FaultError::NoBatteries)
        );
        assert_eq!(
            FaultSchedule::compile(0, &FaultPlanConfig::new(2, d).with_batteries(9)),
            Err(FaultError::TooManyBatteries { requested: 9 })
        );
        assert_eq!(
            FaultSchedule::compile(0, &FaultPlanConfig::new(2, d).with_torn_probability(1.5)),
            Err(FaultError::BadProbability { value: 1.5 })
        );
        assert_eq!(
            FaultSchedule::compile(
                0,
                &FaultPlanConfig::new(2, SimDuration::ZERO).with_client_crashes(1)
            ),
            Err(FaultError::ZeroDuration)
        );
        let err = FaultError::TooManyCrashes {
            crashes: 3,
            clients: 2,
        };
        assert!(err.to_string().contains("3 client crashes"));
    }

    #[test]
    fn reliability_stats_merge_and_totals() {
        let mut a = ReliabilityStats {
            client_crashes: 1,
            bytes_at_risk: 100,
            bytes_recovered: 60,
            bytes_lost_window: 40,
            ..ReliabilityStats::default()
        };
        let b = ReliabilityStats {
            client_crashes: 1,
            bytes_at_risk: 50,
            bytes_lost_battery: 30,
            bytes_lost_torn: 20,
            ..ReliabilityStats::default()
        };
        a.merge(&b);
        assert_eq!(a.client_crashes, 2);
        assert_eq!(a.bytes_at_risk, 150);
        assert_eq!(a.bytes_lost(), 90);
        assert_eq!(a.loss_pct(), 60.0);
        assert_eq!(ReliabilityStats::default().loss_pct(), 0.0);
    }

    #[test]
    fn zero_duration_compiles_when_nothing_is_scheduled() {
        // A zero-length trace with no crash events is a valid (empty)
        // plan; the same duration with any crash is a typed error, and
        // neither case may panic.
        let empty = FaultPlanConfig::new(4, SimDuration::ZERO);
        let s = FaultSchedule::compile(3, &empty).unwrap();
        assert!(s.client_crashes.is_empty());
        assert!(s.server_crashes.is_empty());
        assert_eq!(
            FaultSchedule::compile(3, &empty.clone().with_server_crashes(1)),
            Err(FaultError::ZeroDuration)
        );
    }

    #[test]
    fn zero_clients_supports_server_only_plans() {
        // `clients == 0` is how the LFS server study runs: client crashes
        // are impossible, server crashes are fine.
        let plan = FaultPlanConfig::new(0, SimDuration::from_secs(100)).with_server_crashes(3);
        let s = FaultSchedule::compile(5, &plan).unwrap();
        assert!(s.client_crashes.is_empty());
        assert_eq!(s.server_crashes.len(), 3);
    }

    #[test]
    fn torn_probability_one_tears_every_fault() {
        let plan = FaultPlanConfig::new(8, SimDuration::from_secs(3600))
            .with_client_crashes(8)
            .with_server_crashes(4)
            .with_torn_probability(1.0);
        let s = FaultSchedule::compile(13, &plan).unwrap();
        assert!(s.client_crashes.iter().all(|c| c.torn_drain.is_some()));
        assert!(s.server_crashes.iter().all(|c| c.torn_segment.is_some()));
        for c in &s.client_crashes {
            let f = c.torn_drain.unwrap();
            assert!((0.1..0.9).contains(&f), "fraction {f} outside draw range");
            assert_eq!(c.torn_drain_blocks, None, "compile never pins blocks");
        }
        // …and probability zero tears nothing, with no panic at either edge.
        let s = FaultSchedule::compile(13, &plan.with_torn_probability(0.0)).unwrap();
        assert!(s.client_crashes.iter().all(|c| c.torn_drain.is_none()));
        assert!(s.server_crashes.iter().all(|c| c.torn_segment.is_none()));
    }

    #[test]
    fn single_battery_boards_compile_with_full_sample() {
        let plan = FaultPlanConfig::new(4, SimDuration::from_secs(3600))
            .with_client_crashes(2)
            .with_batteries(1);
        let s = FaultSchedule::compile(21, &plan).unwrap();
        for c in &s.client_crashes {
            // The sample is always MAX_BOARD_BATTERIES wide; redundancy is
            // a view, so a 1-battery board sees only the earliest death.
            assert_eq!(c.battery_failures.len(), MAX_BOARD_BATTERIES as usize);
            assert_eq!(c.battery_clock(1), &c.battery_failures[..1]);
        }
        assert_eq!(
            FaultSchedule::compile(
                21,
                &FaultPlanConfig::new(4, SimDuration::from_secs(1))
                    .with_battery_mtbf(SimDuration::ZERO)
            ),
            Err(FaultError::ZeroMtbf)
        );
    }

    #[test]
    fn crash_points_pin_only_their_own_dimension() {
        let base = FaultSchedule::compile(42, &plan()).unwrap();
        let tick = SimDuration::from_secs(5);

        let full = base.apply_crash_point(CrashPointKind::FullDrain, tick);
        assert!(full
            .client_crashes
            .iter()
            .all(|c| c.torn_drain.is_none() && c.torn_drain_blocks.is_none()));

        let torn = base.apply_crash_point(CrashPointKind::TornDrainBlocks(2), tick);
        assert!(torn
            .client_crashes
            .iter()
            .all(|c| c.torn_drain_blocks == Some(2) && c.torn_drain.is_none()));
        // Crash placement is untouched.
        for (a, b) in base.client_crashes.iter().zip(&torn.client_crashes) {
            assert_eq!((a.time, a.client), (b.time, b.client));
        }

        let dead = base.apply_crash_point(CrashPointKind::DeadBoard, tick);
        assert!(dead
            .client_crashes
            .iter()
            .all(|c| c.battery_failures.iter().all(|&t| t == SimTime::ZERO)));

        let alive = base.apply_crash_point(CrashPointKind::BatteryEdgeAlive, tick);
        for c in &alive.client_crashes {
            let edge = c
                .recovery_time()
                .saturating_add(SimDuration::from_micros(1));
            assert!(c.battery_failures.iter().all(|&t| t == edge));
        }

        for kind in [CrashPointKind::PreFlush, CrashPointKind::PostFlush] {
            let nudged = base.apply_crash_point(kind, tick);
            for c in &nudged.client_crashes {
                let off = c.time.as_micros() % tick.as_micros();
                let expect = match kind {
                    CrashPointKind::PreFlush => tick.as_micros() - 1,
                    _ => 1,
                };
                assert_eq!(off, expect, "{kind}: crash not on the flush edge");
            }
            assert!(nudged
                .client_crashes
                .windows(2)
                .all(|w| (w[0].time, w[0].client.0) <= (w[1].time, w[1].client.0)));
        }
        assert_eq!(
            CrashPointKind::TornDrainBlocks(3).to_string(),
            "mid-drain@3blk"
        );
        assert_eq!(CrashPointKind::DeadBoard.label(), "dead-board");
    }
}
