//! The composable simulation engine: [`SimSession`] + [`RunHook`].
//!
//! PRs 2–4 each bolted a new concern (fault injection, observability,
//! the durability oracle) onto [`ClusterSim`](crate::ClusterSim) as yet
//! another `run_*` entry point, all funnelling into one five-argument
//! core driver. This module replaces that driver with an interposition
//! boundary: [`SimEngine`] owns the pure cluster mechanics (caches,
//! consistency server, cleaner, crash/drain bookkeeping) and a stack of
//! [`RunHook`]s decides *which* concerns ride along on a given run —
//! warm-up resets ([`WarmupReset`]), write-log capture
//! ([`WriteLogCapture`]), fault injection ([`FaultInjector`]),
//! durability judging ([`OracleJudge`]) and observability
//! ([`ObsRecorder`]) are all ordinary hooks, so previously-impossible
//! compositions (warmup + faults + oracle) fall out for free.
//!
//! # Ordering guarantees
//!
//! Hooks never call each other. Engine mechanics instead *queue* typed
//! events ([`CrashEvent`], [`DrainEvent`], [`FlushEvent`]) and the driver
//! broadcasts each queued event to every hook in stack order at fixed
//! dispatch points: after the per-op `before_op` round, after the
//! cleaner advance, after the op applies, and after each hook's
//! `finish`. Within one dispatch, events are delivered in the exact
//! order the mechanics produced them, so two hooks always observe the
//! same interleaving the old monolithic driver produced.
//!
//! The canonical stack order, the one
//! [`SessionBuilder::run`](crate::SessionBuilder::run) applies, is
//! `[WarmupReset, NetFaultInjector, FaultInjector, CorruptionInjector,
//! ObsRecorder, OracleJudge, WriteLogCapture]` (omitting whichever are
//! unused). `ObsRecorder` must precede `OracleJudge`: both emit obs
//! events for the same drain (`recovery_drain` vs `oracle_verdict`),
//! and when a schedule's relocation delay is zero their timestamps tie,
//! so submission order is what keeps the rendered JSONL stable.
//!
//! # Determinism contract
//!
//! With the same `(config, ops, hook stacks)`, a session is
//! byte-identical at any `--jobs` count: the engine iterates clients in
//! `BTreeMap` order, drains boards in `(recovery time, client)` order,
//! dispatches events in queue order, and sorts the final write log with
//! a stable sort so same-time writes keep cache-before-recovery order.
//! See DESIGN.md § Engine architecture.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nvfs_faults::{ClientCrashFault, FaultSchedule, ReliabilityStats};
use nvfs_nvram::NvramBoard;
use nvfs_oracle::{DrainExpectation, DurableMap, DurablePromise, Oracle};
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{ClientId, FileId, SimTime, BLOCK_CLEANER_PERIOD, BLOCK_SIZE, DELAYED_WRITE_BACK};

use crate::client::{ClientCache, FlushCause, Placement, ServerWrite};
use crate::config::{ConsistencyMode, PolicyKind, SimConfig};
use crate::consistency::ConsistencyServer;
use crate::metrics::TrafficStats;
use crate::omniscient::OmniscientSchedule;
use crate::policy::Policy;
use crate::recovery::{recover_up_to, snapshot_nvram, RecoveryError};
use crate::sim::RunReport;

/// Index of the first steady-state op for a warm-up `fraction` over a
/// stream of `len` ops.
///
/// The cut is computed as `floor(len * fraction)`: the warm-up prefix
/// is rounded *down*, so up to one op that the exact fraction would
/// have claimed stays in the measured suffix. (The old driver relied
/// on `as usize` silently truncating; the rounding is now explicit and
/// shared with the experiments that mirror it.)
///
/// # Panics
///
/// Panics unless `0.0 <= fraction < 1.0`.
pub fn warmup_cut(len: usize, fraction: f64) -> usize {
    assert!((0.0..1.0).contains(&fraction), "warmup must be in [0, 1)");
    (len as f64 * fraction).floor() as usize
}

/// Whether a hook wants the current op applied to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpAction {
    /// Apply the op normally.
    Apply,
    /// Skip the op (its client has crashed, for example). Any hook
    /// voting `Skip` suppresses the op; bookkeeping (op count, cleaner
    /// advance, fault clock) still runs.
    Skip,
}

/// A client crash the engine just executed: the client's trace is cut,
/// its NVRAM contents are on a board in transit, and its durable
/// promise was captured *before* any recovery code ran.
#[derive(Debug, Clone)]
pub struct CrashEvent {
    /// The crashed client.
    pub(crate) client: ClientId,
    /// When the crash fired.
    pub(crate) time: SimTime,
    /// The cache model's durability promise at the crash instant;
    /// `None` when the client had no cache (it never issued an op).
    promise: Option<DurablePromise>,
}

/// A relocated NVRAM board finished (or failed) its recovery drain.
#[derive(Debug, Clone)]
pub struct DrainEvent {
    /// The client whose board drained.
    pub(crate) client: ClientId,
    /// When that client crashed — with `client`, the incident identity.
    pub(crate) crash_time: SimTime,
    /// When the drain ran (crash time + relocation delay).
    at: SimTime,
    /// The drain byte cap (`u64::MAX` for a full drain).
    cap: u64,
    /// Bytes successfully replayed to the server.
    bytes: u64,
    /// Bytes lost (torn drain remainder, or everything on a dead board).
    bytes_lost: u64,
    /// The recovered ranges, or `None` when the board died in transit.
    pub(crate) recovered: Option<DurableMap>,
}

/// A file's dirty data was flushed to the server outside recovery —
/// one event per [`ConsistencyServer::note_flush`] the mechanics
/// perform (cleaner write-back, consistency recall, fsync, migration).
/// Recovery drains are reported as [`DrainEvent`]s instead.
#[derive(Debug, Clone)]
pub struct FlushEvent {
    /// When the flush happened.
    pub at: SimTime,
    /// The client that held the data.
    pub client: ClientId,
    /// The flushed file.
    pub file: FileId,
    /// Why it was flushed.
    pub cause: FlushCause,
}

/// A queued engine event awaiting broadcast to the hook stack.
#[derive(Debug, Clone)]
enum SessionEvent {
    Crash(CrashEvent),
    Drain(DrainEvent),
    Flush(FlushEvent),
}

/// An interposition point on a simulation run.
///
/// All methods have no-op defaults; a hook implements only the
/// callbacks it cares about. Hooks receive `&mut SimEngine` so they can
/// drive mechanics (crash a client, reset counters) but they never see
/// each other — cross-hook communication happens only through the
/// engine's event queue, which the [`SimSession`] driver broadcasts in
/// stack order (see the module docs for the ordering guarantees).
pub trait RunHook {
    /// Called once per op, before the cleaner advances and the op
    /// applies; return [`OpAction::Skip`] to suppress the op.
    fn before_op(&mut self, engine: &mut SimEngine<'_>, index: usize, op: &Op) -> OpAction {
        let _ = (engine, index, op);
        OpAction::Apply
    }

    /// A non-recovery flush reached the server.
    fn on_flush(&mut self, engine: &mut SimEngine<'_>, event: &FlushEvent) {
        let _ = (engine, event);
    }

    /// A client crashed and its board entered transit.
    fn on_crash(&mut self, engine: &mut SimEngine<'_>, event: &CrashEvent) {
        let _ = (engine, event);
    }

    /// A board's recovery drain completed (or the board died).
    fn on_drain(&mut self, engine: &mut SimEngine<'_>, event: &DrainEvent) {
        let _ = (engine, event);
    }

    /// The op stream is exhausted; fire any trailing work (faults
    /// scheduled past the end of the trace, for example). Runs before
    /// the engine's end-of-trace accounting.
    fn finish(&mut self, engine: &mut SimEngine<'_>) {
        let _ = engine;
    }

    /// Final harvest, after the engine folded end-of-trace accounting
    /// into its stats; extract results here.
    fn collect(&mut self, engine: &mut SimEngine<'_>) {
        let _ = engine;
    }

    /// Whether this hook consumes [`FlushEvent`]s. Defaults to `true`
    /// so third-party `on_flush` implementors keep working; the
    /// built-in hooks override it to `false`, which lets the engine
    /// skip queueing/broadcasting a flush event per flushed file on the
    /// hot path.
    fn wants_flush_events(&self) -> bool {
        true
    }
}

/// The cluster mechanics a hook stack drives: one [`ClientCache`] per
/// client, the [`ConsistencyServer`], the 5-second cleaner, and the
/// crash/drain bookkeeping. Hooks receive `&mut SimEngine` at every
/// callback.
#[derive(Debug)]
pub struct SimEngine<'cfg> {
    pub(crate) config: &'cfg SimConfig,
    policy_schedule: Option<Arc<OmniscientSchedule>>,
    pub(crate) clients: BTreeMap<ClientId, ClientCache>,
    /// Its per-file rows also list the caches that may hold the file's
    /// blocks ([`ConsistencyServer::holders`]): truncate, delete and a
    /// caching-disabled open visit those caches, in client order, instead
    /// of every cache in the cluster.
    server: ConsistencyServer,
    pub(crate) stats: TrafficStats,
    reliability: ReliabilityStats,
    next_tick: SimTime,
    run_cleaner: bool,
    recovery_writes: Vec<ServerWrite>,
    pending: Vec<SessionEvent>,
    ops_replayed: u64,
    sim_end: SimTime,
    /// Whether any hook in the current stack consumes flush events; when
    /// false the engine skips queueing them entirely (hot-path win).
    flush_events: bool,
    /// Network partition state, installed by [`crate::net::NetFaultInjector`];
    /// `None` (the default) leaves every existing path byte-identical.
    pub(crate) net: Option<crate::net::NetState>,
    /// Shed writes recovered from crashed caches (see
    /// [`ClientCache::take_shed_writes`]).
    shed_writes: Vec<ServerWrite>,
    /// Reused buffer for per-tick written-back file ids.
    writeback_scratch: Vec<FileId>,
}

impl<'cfg> SimEngine<'cfg> {
    fn new(config: &'cfg SimConfig, ops: &OpStream) -> Self {
        let policy_schedule = match config.policy {
            PolicyKind::Omniscient => Some(Arc::new(OmniscientSchedule::build(ops))),
            _ => None,
        };
        SimEngine {
            config,
            policy_schedule,
            clients: BTreeMap::new(),
            server: ConsistencyServer::with_mode(config.consistency),
            stats: TrafficStats::default(),
            reliability: ReliabilityStats::default(),
            next_tick: SimTime::ZERO + BLOCK_CLEANER_PERIOD,
            run_cleaner: Placement::of(config.model).sweeps(),
            recovery_writes: Vec::new(),
            pending: Vec::new(),
            ops_replayed: 0,
            sim_end: SimTime::ZERO,
            flush_events: true,
            net: None,
            shed_writes: Vec::new(),
            writeback_scratch: Vec::new(),
        }
    }

    /// The traffic counters accumulated so far.
    fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The crash/recovery accounting accumulated so far.
    fn reliability(&self) -> &ReliabilityStats {
        &self.reliability
    }

    /// Ops replayed so far (skipped ops count: their time still passes).
    fn ops_replayed(&self) -> u64 {
        self.ops_replayed
    }

    /// The time of the last op seen.
    pub(crate) fn sim_end(&self) -> SimTime {
        self.sim_end
    }

    /// The clients whose caches may hold blocks of `file`: the caches a
    /// truncate, a delete or a caching-disabled open visits, in the
    /// order it visits them (client order).
    pub fn holders(&self, file: FileId) -> &[ClientId] {
        self.server.holders(file)
    }

    /// Re-derives every client's severed flag from the installed network
    /// partition windows at instant `at`. No-op without a network plan.
    pub(crate) fn sync_net_severed(&mut self, at: SimTime) {
        if let Some(net) = &self.net {
            for (&cid, cache) in self.clients.iter_mut() {
                cache.set_severed(net.severed(cid, at));
            }
        }
    }

    /// When a partition has the server unreachable at `at`, a recovered
    /// board cannot drain until the partition heals; otherwise `at`.
    fn recovery_drain_time(&self, at: SimTime) -> SimTime {
        match &self.net {
            Some(net) => net.drain_time(at),
            None => at,
        }
    }

    /// Drains every write shed during partitions — from live caches and
    /// from the stash crashed caches left behind — in client order.
    pub(crate) fn take_shed_writes(&mut self) -> Vec<ServerWrite> {
        let mut out = std::mem::take(&mut self.shed_writes);
        for cache in self.clients.values_mut() {
            out.append(&mut cache.take_shed_writes());
        }
        out
    }

    /// Accounts bytes lost to an open partition (degraded-mode loss).
    pub(crate) fn note_partition_loss(&mut self, bytes: u64) {
        self.reliability.bytes_lost_partition += bytes;
    }

    /// Zeroes every traffic counter — the engine's and each cache's —
    /// without touching cache *contents*, so the remaining run measures
    /// steady state only ([`WarmupReset`]'s lever).
    fn reset_counters(&mut self) {
        self.stats = TrafficStats::default();
        for cache in self.clients.values_mut() {
            cache.reset_counters();
        }
    }

    /// Cuts `fault.client`'s trace: everything still dirty is at risk,
    /// whatever the model kept in NVRAM is snapshotted onto a board
    /// (returned for the caller to put in transit), and the client's
    /// pre-crash server writes and device counters are folded in here
    /// since its cache is dropped. The durable promise is captured
    /// straight from the cache, *before* the snapshot path runs — a
    /// broken snapshot must show up as `LostDurable`, not be trusted.
    /// Queues a [`CrashEvent`].
    fn crash_client(
        &mut self,
        fault: &ClientCrashFault,
        board_batteries: u8,
    ) -> Option<NvramBoard> {
        self.reliability.client_crashes += 1;
        let mut promise = None;
        let board = if let Some(mut cache) = self.clients.remove(&fault.client) {
            let at_risk = cache.remaining_dirty_bytes();
            promise = Some(DurablePromise::capture(
                fault.client,
                fault.time,
                cache.nvram_dirty_contents(),
            ));
            let board = snapshot_nvram(&cache, fault.client).with_batteries(board_batteries);
            self.reliability.bytes_at_risk += at_risk;
            self.reliability.bytes_in_nvram += board.dirty_bytes();
            self.reliability.bytes_lost_window += at_risk - board.dirty_bytes();
            let d = cache.device();
            self.stats.nvram_reads += d.reads();
            self.stats.nvram_writes += d.writes();
            self.stats.nvram_bytes += d.bytes_transferred();
            self.recovery_writes.append(&mut cache.take_server_writes());
            self.shed_writes.append(&mut cache.take_shed_writes());
            Some(board)
        } else {
            None
        };
        self.pending.push(SessionEvent::Crash(CrashEvent {
            client: fault.client,
            time: fault.time,
            promise,
        }));
        board
    }

    /// Drains a relocated board through the §4 recovery flow: replayed
    /// bytes become server writes, losses (dead batteries, torn-drain
    /// remainders) become reported accounting, never panics. Queues a
    /// [`DrainEvent`] carrying the recovered ranges (or `None` for a
    /// dead board) so judging hooks can diff them against the promise.
    fn drain_board(
        &mut self,
        mut board: NvramBoard,
        client: ClientId,
        crash_time: SimTime,
        at: SimTime,
        cap: u64,
    ) {
        match recover_up_to(&mut board, at, cap) {
            Ok(outcome) => {
                self.reliability.boards_recovered += 1;
                self.reliability.bytes_recovered += outcome.bytes;
                self.reliability.bytes_lost_torn += outcome.bytes_lost;
                self.stats.server_write_bytes += outcome.bytes;
                self.stats.recovery_bytes += outcome.bytes;
                for w in &outcome.writes {
                    self.server.note_flush(w.file, w.client);
                }
                self.pending.push(SessionEvent::Drain(DrainEvent {
                    client,
                    crash_time,
                    at,
                    cap,
                    bytes: outcome.bytes,
                    bytes_lost: outcome.bytes_lost,
                    recovered: Some(outcome.recovered),
                }));
                self.recovery_writes.extend(outcome.writes);
            }
            Err(RecoveryError::DeadBoard { bytes_lost, .. }) => {
                self.reliability.boards_dead += 1;
                self.reliability.bytes_lost_battery += bytes_lost;
                self.pending.push(SessionEvent::Drain(DrainEvent {
                    client,
                    crash_time,
                    at,
                    cap,
                    bytes: 0,
                    bytes_lost,
                    recovered: None,
                }));
            }
        }
    }

    /// Merges every cache's server-write log (in client order), then
    /// the recovery writes, into one time-ordered log. The sort is
    /// stable, so same-time writes keep cache-before-recovery order.
    fn take_write_log(&mut self) -> Vec<ServerWrite> {
        let mut writes: Vec<ServerWrite> = Vec::new();
        for cache in self.clients.values_mut() {
            writes.append(&mut cache.take_server_writes());
        }
        writes.append(&mut self.recovery_writes);
        writes.sort_by_key(|w| w.time);
        writes
    }

    /// Advance the 5-second block cleaner up to `now` (volatile and
    /// hybrid models only): each tick writes back blocks older than the
    /// 30-second delay, queueing one [`FlushEvent`] per flushed file.
    /// With a network plan installed, every flush instant — each tick
    /// and the final `now` — sees severed flags current for that
    /// instant, so partition epochs cut write-backs mid-gap.
    fn advance_cleaner(&mut self, now: SimTime) {
        self.advance_cleaner_ticks(now);
        if self.net.is_some() {
            self.sync_net_severed(now);
        }
    }

    fn advance_cleaner_ticks(&mut self, now: SimTime) {
        if !self.run_cleaner {
            return;
        }
        while self.next_tick <= now {
            // Idle fast-forward: once no cache holds anything the cleaner
            // could ever flush, every remaining tick in the gap is a
            // no-op, so jump the cursor arithmetically. The cursor stays
            // on the same `epoch + k·period` lattice, so this is
            // bit-exact with ticking through the gap one period at a
            // time. Caches only shed data inside this loop, never gain
            // it, so the check cannot flip back to pending.
            if self.clients.values().all(|c| !c.cleaner_pending()) {
                let gap = now.as_micros() - self.next_tick.as_micros();
                let steps = gap / BLOCK_CLEANER_PERIOD.as_micros() + 1;
                self.next_tick = SimTime::from_micros(
                    self.next_tick.as_micros() + steps * BLOCK_CLEANER_PERIOD.as_micros(),
                );
                return;
            }
            let tick = self.next_tick;
            if self.net.is_some() {
                self.sync_net_severed(tick);
            }
            if tick >= SimTime::ZERO + DELAYED_WRITE_BACK {
                let cutoff = tick - DELAYED_WRITE_BACK;
                let SimEngine {
                    clients,
                    server,
                    stats,
                    pending,
                    flush_events,
                    writeback_scratch,
                    ..
                } = self;
                for (&cid, cache) in clients.iter_mut() {
                    cache.writeback_older_than_into(cutoff, tick, stats, writeback_scratch);
                    for &file in writeback_scratch.iter() {
                        server.note_flush(file, cid);
                        if *flush_events {
                            pending.push(SessionEvent::Flush(FlushEvent {
                                at: tick,
                                client: cid,
                                file,
                                cause: FlushCause::WriteBack,
                            }));
                        }
                    }
                }
            }
            self.next_tick += BLOCK_CLEANER_PERIOD;
        }
    }

    /// Replays one op against the caches and the consistency server.
    /// Flush events are queued only when some hook wants them.
    fn apply_op(&mut self, op: &Op) {
        let SimEngine {
            config,
            policy_schedule,
            clients,
            server,
            stats,
            pending,
            flush_events,
            ..
        } = self;
        macro_rules! client {
            ($id:expr) => {
                clients.entry($id).or_insert_with(|| {
                    ClientCache::new(
                        config,
                        Policy::from_kind(config.policy, policy_schedule.clone()),
                        $id,
                    )
                })
            };
        }
        macro_rules! flush_event {
            ($client:expr, $file:expr, $cause:expr) => {
                if *flush_events {
                    pending.push(SessionEvent::Flush(FlushEvent {
                        at: op.time,
                        client: $client,
                        file: $file,
                        cause: $cause,
                    }))
                }
            };
        }

        match &op.kind {
            OpKind::Open { file, mode } => {
                let outcome = server.on_open(*file, op.client, *mode);
                if let Some(w) = outcome.recall_from {
                    if let Some(cache) = clients.get_mut(&w) {
                        cache.flush_file(*file, FlushCause::Callback, op.time, stats);
                    }
                    // After the recall the writer holds nothing dirty,
                    // whether or not any bytes moved.
                    server.note_flush(*file, w);
                    flush_event!(w, *file, FlushCause::Callback);
                }
                if outcome.invalidate_opener {
                    // Stale copies from a previous open are discarded.
                    client!(op.client).invalidate_file(*file, FlushCause::Callback, op.time, stats);
                }
                if outcome.disable_caching {
                    // Only holders can have blocks to flush or drop.
                    for c in server.holders(*file) {
                        if let Some(cache) = clients.get_mut(c) {
                            cache.invalidate_file(*file, FlushCause::Callback, op.time, stats);
                        }
                    }
                }
            }
            OpKind::Close { file } => {
                server.on_close(*file, op.client);
            }
            OpKind::Read { file, range } => {
                stats.app_read_bytes += range.len();
                if server.is_disabled(*file) {
                    stats.concurrent_read_bytes += range.len();
                } else {
                    // Block-on-demand consistency: recall only the dirty
                    // blocks this read actually touches (§2.3, [21]).
                    if config.consistency == ConsistencyMode::BlockOnDemand {
                        if let Some(w) = server.last_writer(*file) {
                            if w != op.client {
                                let mut recalled = 0;
                                if let Some(writer) = clients.get_mut(&w) {
                                    recalled = writer.flush_range(
                                        *file,
                                        *range,
                                        FlushCause::Callback,
                                        op.time,
                                        stats,
                                    );
                                }
                                if recalled > 0 {
                                    flush_event!(w, *file, FlushCause::Callback);
                                    // The reader's copies of those
                                    // blocks are stale.
                                    client!(op.client).invalidate_range(
                                        *file,
                                        *range,
                                        FlushCause::Callback,
                                        op.time,
                                        stats,
                                    );
                                }
                            }
                        }
                    }
                    client!(op.client).read(*file, *range, op.time, stats);
                    server.note_holder(*file, op.client);
                }
            }
            OpKind::Write { file, range } => {
                stats.app_write_bytes += range.len();
                if server.is_disabled(*file) {
                    stats.concurrent_write_bytes += range.len();
                } else {
                    client!(op.client).write(*file, *range, op.time, stats);
                    server.note_holder(*file, op.client);
                    server.note_write(*file, op.client);
                }
            }
            OpKind::Truncate { file, new_len } => {
                for c in server.holders(*file) {
                    if let Some(cache) = clients.get_mut(c) {
                        cache.truncate_file(*file, *new_len, stats);
                    }
                }
            }
            OpKind::Delete { file } => {
                for c in server.on_delete(*file) {
                    if let Some(cache) = clients.get_mut(&c) {
                        cache.delete_file(*file, stats);
                    }
                }
            }
            OpKind::Fsync { file } => {
                if let Some(cache) = clients.get_mut(&op.client) {
                    // Only the volatile model actually sends the data
                    // to the server; the NVRAM models keep it dirty
                    // locally, so the last-writer record must survive.
                    if cache.fsync(*file, op.time, stats) {
                        server.note_flush(*file, op.client);
                        flush_event!(op.client, *file, FlushCause::Fsync);
                    }
                }
            }
            OpKind::Migrate { files, .. } => {
                if let Some(cache) = clients.get_mut(&op.client) {
                    for file in files {
                        cache.flush_file(*file, FlushCause::Migration, op.time, stats);
                        server.note_flush(*file, op.client);
                        flush_event!(op.client, *file, FlushCause::Migration);
                    }
                }
            }
        }
    }

    /// End of trace: dirty bytes still cached count as eventual
    /// traffic, and surviving caches' NVRAM device counters fold in.
    fn final_accounting(&mut self) {
        for cache in self.clients.values() {
            self.stats.remaining_dirty_bytes += cache.remaining_dirty_bytes();
            debug_assert!(cache.check_invariants());
        }
        for cache in self.clients.values_mut() {
            let d = cache.device();
            self.stats.nvram_reads += d.reads();
            self.stats.nvram_writes += d.writes();
            self.stats.nvram_bytes += d.bytes_transferred();
        }
    }
}

/// Broadcasts every queued engine event to every hook in stack order.
/// Loops because a hook's handler may itself drive mechanics that
/// queue further events.
fn dispatch(engine: &mut SimEngine<'_>, hooks: &mut [&mut dyn RunHook]) {
    while !engine.pending.is_empty() {
        let batch = std::mem::take(&mut engine.pending);
        for event in &batch {
            for hook in hooks.iter_mut() {
                match event {
                    SessionEvent::Crash(e) => hook.on_crash(engine, e),
                    SessionEvent::Drain(e) => hook.on_drain(engine, e),
                    SessionEvent::Flush(e) => hook.on_flush(engine, e),
                }
            }
        }
    }
}

/// A single simulation run: a [`SimEngine`] driven over one op stream
/// by a caller-assembled [`RunHook`] stack.
///
/// # Examples
///
/// A hand-assembled stack, as [`SessionBuilder`](crate::SessionBuilder)
/// assembles the shipped hooks (a custom [`RunHook`] joins the same
/// way): warm-up, fault injection and durability judging on one run.
///
/// ```
/// use nvfs_core::{
///     FaultInjector, ObsRecorder, OracleJudge, SimConfig, SimSession, WarmupReset,
/// };
/// use nvfs_faults::{FaultPlanConfig, FaultSchedule};
/// use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
/// use nvfs_types::SimDuration;
///
/// let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
/// let ops = traces.trace(6).ops();
/// let plan = FaultPlanConfig::new(8, SimDuration::from_hours(24)).with_client_crashes(2);
/// let schedule = FaultSchedule::compile(7, &plan).unwrap();
/// let config = SimConfig::unified(1 << 20, 512 << 10);
/// let (mut warm, mut faults) = (
///     WarmupReset::fraction(ops.len(), 0.3),
///     FaultInjector::new(&schedule),
/// );
/// let (mut obs, mut judge) = (ObsRecorder::default(), OracleJudge::default());
/// let out = SimSession::new(&config).run(
///     ops,
///     &mut [&mut warm, &mut faults, &mut obs, &mut judge],
/// );
/// assert_eq!(out.reliability.client_crashes, 2);
/// assert_eq!(judge.into_oracle().summary().violations(), 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SimSession<'a> {
    config: &'a SimConfig,
}

impl<'a> SimSession<'a> {
    /// A session over the given configuration.
    pub fn new(config: &'a SimConfig) -> Self {
        SimSession { config }
    }

    /// Drives the engine over `ops` with the given hook stack and
    /// returns a report holding the stats and reliability accounting.
    /// Its other sections stay empty: hook results (write logs, oracles)
    /// stay in the hooks themselves, which the caller harvests.
    pub fn run(&self, ops: &OpStream, hooks: &mut [&mut dyn RunHook]) -> RunReport {
        let mut engine = SimEngine::new(self.config, ops);
        engine.flush_events = hooks.iter().any(|h| h.wants_flush_events());

        // The drive loop: one op at a time against the full cluster.
        for (index, op) in ops.iter().enumerate() {
            engine.ops_replayed += 1;
            engine.sim_end = op.time;
            let mut action = OpAction::Apply;
            for hook in hooks.iter_mut() {
                if hook.before_op(&mut engine, index, op) == OpAction::Skip {
                    action = OpAction::Skip;
                }
            }
            dispatch(&mut engine, hooks);
            engine.advance_cleaner(op.time);
            dispatch(&mut engine, hooks);
            if action == OpAction::Apply {
                engine.apply_op(op);
            }
            dispatch(&mut engine, hooks);
        }

        for i in 0..hooks.len() {
            hooks[i].finish(&mut engine);
            dispatch(&mut engine, hooks);
        }
        engine.final_accounting();
        for hook in hooks.iter_mut() {
            hook.collect(&mut engine);
        }
        RunReport {
            stats: engine.stats,
            reliability: engine.reliability,
            ..RunReport::default()
        }
    }
}

/// Hook: resets every counter after a warm-up prefix, so the session's
/// output describes steady state only.
///
/// The paper notes its own simulations "started with empty caches,
/// thereby misclassifying some writes as new data rather than
/// overwrites" — this quantifies that cold-start bias.
#[derive(Debug, Clone, Copy)]
pub struct WarmupReset {
    reset_at: usize,
}

impl WarmupReset {
    /// Reset after the first `fraction` of a `len`-op stream (see
    /// [`warmup_cut`] for the rounding contract).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction < 1.0`.
    pub fn fraction(len: usize, fraction: f64) -> Self {
        WarmupReset {
            reset_at: warmup_cut(len, fraction),
        }
    }
}

impl RunHook for WarmupReset {
    fn before_op(&mut self, engine: &mut SimEngine<'_>, index: usize, _op: &Op) -> OpAction {
        if index == self.reset_at {
            engine.reset_counters();
        }
        OpAction::Apply
    }

    fn wants_flush_events(&self) -> bool {
        false
    }
}

/// Hook: harvests the time-ordered server-write log — the input for a
/// server-side (LFS) simulation downstream.
#[derive(Debug, Clone, Default)]
pub struct WriteLogCapture {
    writes: Vec<ServerWrite>,
}

impl WriteLogCapture {
    /// An empty capture.
    pub fn new() -> Self {
        WriteLogCapture::default()
    }

    /// The captured log (call after the session ran).
    pub fn take(&mut self) -> Vec<ServerWrite> {
        std::mem::take(&mut self.writes)
    }
}

impl RunHook for WriteLogCapture {
    fn collect(&mut self, engine: &mut SimEngine<'_>) {
        self.writes = engine.take_write_log();
    }

    fn wants_flush_events(&self) -> bool {
        false
    }
}

/// Hook: replays a [`FaultSchedule`] against the run — each scheduled
/// client crash cuts that client's trace at the fault time, snapshots
/// its NVRAM contents onto a removable board, and — after the board's
/// relocation delay, with its batteries aged on the schedule's failure
/// clock — drains the board through the §4 recovery flow. Losses are
/// reported in the session's [`ReliabilityStats`], never panics.
#[derive(Debug)]
pub struct FaultInjector<'s> {
    schedule: &'s FaultSchedule,
    next_crash: usize,
    crashed: BTreeSet<ClientId>,
    in_transit: Vec<(NvramBoard, &'s ClientCrashFault)>,
}

impl<'s> FaultInjector<'s> {
    /// An injector over a compiled schedule.
    pub fn new(schedule: &'s FaultSchedule) -> Self {
        FaultInjector {
            schedule,
            next_crash: 0,
            crashed: BTreeSet::new(),
            in_transit: Vec::new(),
        }
    }

    /// Fires every crash due by `now`, then every drain due by `now`.
    fn advance(&mut self, engine: &mut SimEngine<'_>, now: SimTime) {
        let feed = &self.schedule.client_crashes;
        while self.next_crash < feed.len() && feed[self.next_crash].time <= now {
            let fault = &feed[self.next_crash];
            self.crashed.insert(fault.client);
            if let Some(board) = engine.crash_client(fault, self.schedule.plan.board_batteries) {
                self.in_transit.push((board, fault));
            }
            self.next_crash += 1;
        }
        self.drain_due(engine, now);
    }

    /// Drains every board whose relocation completed by `now`, in
    /// (recovery time, client) order so the result is deterministic.
    /// Batteries age on the schedule's failure clock while the board
    /// is without bus power. With a network plan installed, a board due
    /// while the server is partitioned waits for the heal — and its
    /// batteries keep aging through the wait.
    fn drain_due(&mut self, engine: &mut SimEngine<'_>, now: SimTime) {
        loop {
            let due = self
                .in_transit
                .iter()
                .enumerate()
                .filter(|(_, (_, f))| engine.recovery_drain_time(f.recovery_time()) <= now)
                .min_by_key(|(_, (_, f))| {
                    (engine.recovery_drain_time(f.recovery_time()), f.client.0)
                })
                .map(|(i, _)| i);
            let Some(idx) = due else { break };
            let (mut board, fault) = self.in_transit.remove(idx);
            let at = engine.recovery_drain_time(fault.recovery_time());
            board
                .batteries_mut()
                .age_to(at, fault.battery_clock(self.schedule.plan.board_batteries));
            let cap = match (fault.torn_drain_blocks, fault.torn_drain) {
                (Some(blocks), _) => blocks * BLOCK_SIZE,
                (None, Some(fraction)) => (board.dirty_bytes() as f64 * fraction) as u64,
                (None, None) => u64::MAX,
            };
            engine.drain_board(board, fault.client, fault.time, at, cap);
        }
    }
}

impl RunHook for FaultInjector<'_> {
    fn wants_flush_events(&self) -> bool {
        false
    }

    fn before_op(&mut self, engine: &mut SimEngine<'_>, _index: usize, op: &Op) -> OpAction {
        self.advance(engine, op.time);
        // A crashed workstation issues no further ops: its trace is
        // cut at the fault time.
        if self.crashed.contains(&op.client) {
            OpAction::Skip
        } else {
            OpAction::Apply
        }
    }

    /// Faults scheduled past the end of the recorded trace still fire:
    /// the plan's duration may exceed the op stream's.
    fn finish(&mut self, engine: &mut SimEngine<'_>) {
        self.advance(engine, SimTime::MAX);
    }
}

/// Hook: judges every crash + recovery against the durability
/// [`Oracle`]. At each [`CrashEvent`] it stores the promise the engine
/// captured before recovery ran; at each [`DrainEvent`] it diffs the
/// recovered ranges against the shadow model's independent prediction.
#[derive(Debug, Default)]
pub struct OracleJudge {
    oracle: Oracle,
    promises: BTreeMap<(SimTime, ClientId), DurablePromise>,
}

impl OracleJudge {
    /// A judge with an empty oracle.
    pub fn new() -> Self {
        OracleJudge::default()
    }

    /// The oracle with one report per judged recovery.
    pub fn into_oracle(self) -> Oracle {
        self.oracle
    }
}

impl RunHook for OracleJudge {
    fn wants_flush_events(&self) -> bool {
        false
    }

    fn on_crash(&mut self, _engine: &mut SimEngine<'_>, event: &CrashEvent) {
        if let Some(promise) = &event.promise {
            self.promises
                .insert((event.time, event.client), promise.clone());
        }
    }

    fn on_drain(&mut self, _engine: &mut SimEngine<'_>, event: &DrainEvent) {
        let Some(promise) = self.promises.get(&(event.crash_time, event.client)) else {
            return;
        };
        match &event.recovered {
            Some(observed) => {
                let expect = DrainExpectation {
                    board_dead: false,
                    max_bytes: event.cap,
                };
                self.oracle.judge(promise, expect, observed);
            }
            None => {
                self.oracle
                    .judge(promise, DrainExpectation::dead(), &DurableMap::new());
            }
        }
    }
}

/// Hook: observability instrumentation — emits the `fault_fired` /
/// `recovery_drain` events as they happen and folds the run's totals
/// into the obs registry in one pass at the end (never per op).
///
/// Every canonical stack includes this hook; in a custom stack it must
/// precede [`OracleJudge`] so same-timestamp events keep their
/// submission order (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsRecorder;

impl ObsRecorder {
    /// A recorder.
    pub fn new() -> Self {
        ObsRecorder
    }
}

impl RunHook for ObsRecorder {
    fn wants_flush_events(&self) -> bool {
        false
    }

    fn on_crash(&mut self, _engine: &mut SimEngine<'_>, event: &CrashEvent) {
        nvfs_obs::event("fault_fired", event.time.as_micros())
            .str("fault", "client-crash")
            .u64("client", event.client.0 as u64)
            .emit();
    }

    fn on_drain(&mut self, _engine: &mut SimEngine<'_>, event: &DrainEvent) {
        nvfs_obs::event("recovery_drain", event.at.as_micros())
            .u64("client", event.client.0 as u64)
            .u64("bytes", event.bytes)
            .u64("lost_bytes", event.bytes_lost)
            .emit();
    }

    fn collect(&mut self, engine: &mut SimEngine<'_>) {
        nvfs_obs::counter_add("core.runs", 1);
        nvfs_obs::counter_add("core.ops_replayed", engine.ops_replayed());
        nvfs_obs::gauge_set("core.sim_end_us", engine.sim_end().as_micros());
        nvfs_obs::timing::set_span_sim_us(engine.sim_end().as_micros());
        engine.stats().fold_into_obs();
        engine.reliability().fold_into_obs();
    }
}
