//! NVRAM corruption injection, protection modes, and the background
//! scrub.
//!
//! The fault lattice so far (crashes, batteries, torn writes, partitions)
//! never corrupts a byte the hardware claims is durable; this hook asks
//! the paper's harder §2.3 question: what happens when a stray kernel
//! write, a bit flip, or media decay damages NVRAM-resident dirty data
//! *after* the cache model promised it?
//!
//! [`CorruptionInjector`] replays a compiled [`CorruptionSchedule`]
//! against a run under one of the three [`ProtectionMode`]s and an
//! optional background scrub interval. Corruption is **pure metadata**:
//! it never alters simulated traffic, write logs, or existing counters —
//! the hook keeps one byte ledger of which promised bytes hold wrong
//! contents and follows them to one of five mutually exclusive fates:
//!
//! * **vacated** — the damaged bytes were overwritten, truncated,
//!   deleted, invalidated, or lost to an independent fault (torn drain,
//!   dead board) before anyone consumed them; the corruption became moot.
//! * **bounced** — a stray write hit a write-protected board outside an
//!   open protect window and never landed at all (not counted as
//!   corruption).
//! * **detected** — a checksum verification (`Verified` read-back/drain,
//!   or any mode's scrub) caught the damage: honest, reported loss
//!   ([`ScrubReport::bytes_detected`]).
//! * **repaired** — the scrub found a damaged *clean* block whose good
//!   copy exists on disk and restored it (charged as server read
//!   traffic).
//! * **silent** — the damaged bytes reached the server or survived to
//!   the end of the run passing as good data
//!   ([`ScrubReport::bytes_silent`] — the worst outcome).
//!
//! A checksum mismatch is modelled as the ledger itself: a block
//! verifies clean exactly when the ledger holds no corrupt byte in it,
//! so detection needs no separate checksum table.
//!
//! The conservation identity `detected + silent + vacated + repaired ==
//! corrupted` holds for every mode, interval, and schedule
//! ([`ScrubReport::conservation_holds`]); `verify-scrub` proves it
//! across the whole sweep lattice.

use std::collections::{BTreeMap, BTreeSet};

use nvfs_faults::corrupt::{CorruptionEvent, CorruptionKind, CorruptionSchedule};
use nvfs_nvram::protect::{protect_window_micros, ProtectionMode};
use nvfs_oracle::DurableMap;
use nvfs_trace::op::{Op, OpKind};
use nvfs_types::{ByteRange, ClientId, FileId, RangeSet, SimDuration, SimTime, BLOCK_SIZE};

use crate::config::CacheModelKind;
use crate::session::{CrashEvent, DrainEvent, FlushEvent, OpAction, RunHook, SimEngine};

/// Per-client corruption bookkeeping: which promised (dirty) bytes hold
/// wrong contents, and how many clean-region bytes are damaged.
#[derive(Debug, Clone, Default)]
struct ClientLedger {
    /// Corrupt byte ranges within the client's NVRAM-dirty contents.
    dirty: DurableMap,
    /// Corrupt bytes in the board's clean region (unified model only —
    /// elsewhere the non-dirty region holds no data worth repairing).
    clean_bytes: u64,
}

impl ClientLedger {
    /// Corrupt dirty bytes across every file.
    fn dirty_bytes(&self) -> u64 {
        self.dirty.values().map(RangeSet::len_bytes).sum()
    }

    /// Cuts bytes out of `file`'s corrupt ranges with `cut` (which
    /// returns the bytes it removed), dropping the file once empty.
    fn cut(&mut self, file: FileId, cut: impl FnOnce(&mut RangeSet) -> u64) -> u64 {
        let Some(set) = self.dirty.get_mut(&file) else {
            return 0;
        };
        let removed = cut(set);
        if set.is_empty() {
            self.dirty.remove(&file);
        }
        removed
    }
}

/// Removes from `set` every byte outside `live`; returns the bytes removed.
fn keep_within(set: &mut RangeSet, live: &RangeSet) -> u64 {
    let mut gone = set.clone();
    gone.subtract(live);
    set.subtract(&gone)
}

/// End-of-run accounting for one corruption-injected session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubReport {
    /// The protection mode the run was judged under.
    pub mode: ProtectionMode,
    /// Corruption events that landed on a live board.
    pub events: u64,
    /// Bytes of promised (dirty) data corrupted.
    pub bytes_corrupted_dirty: u64,
    /// Bytes of clean-region data corrupted (unified model only).
    pub bytes_corrupted_clean: u64,
    /// Stray-write bytes bounced by write protection (never landed).
    pub bytes_bounced: u64,
    /// Corrupt bytes caught by a checksum check — honest, reported loss.
    pub bytes_detected: u64,
    /// Corrupt bytes that reached the server (or survived the run)
    /// passing as good data — the undetected-corruption number.
    pub bytes_silent: u64,
    /// Corrupt clean bytes the scrub restored from disk.
    pub bytes_repaired: u64,
    /// Corrupt bytes mooted before consumption (overwrite, truncate,
    /// delete, invalidation, torn/dead-board loss).
    pub bytes_vacated: u64,
    /// Background scrub sweeps performed.
    pub scrub_ticks: u64,
    /// Dirty blocks the scrub read across all sweeps (its cost driver).
    pub blocks_scanned: u64,
}

impl ScrubReport {
    /// Corrupt promised bytes that were *not* repaired: detected loss,
    /// silent propagation, and vacated damage.
    pub fn bytes_unrecoverable(&self) -> u64 {
        self.bytes_detected + self.bytes_silent + self.bytes_vacated
    }

    /// The conservation identity: every corrupt byte lands in exactly
    /// one of the four terminal buckets.
    pub fn conservation_holds(&self) -> bool {
        self.bytes_unrecoverable() + self.bytes_repaired
            == self.bytes_corrupted_dirty + self.bytes_corrupted_clean
    }

    /// Folds `other` into `self` (`mode` must match).
    pub fn merge(&mut self, other: &ScrubReport) {
        debug_assert_eq!(self.mode, other.mode, "merging reports across modes");
        self.events += other.events;
        self.bytes_corrupted_dirty += other.bytes_corrupted_dirty;
        self.bytes_corrupted_clean += other.bytes_corrupted_clean;
        self.bytes_bounced += other.bytes_bounced;
        self.bytes_detected += other.bytes_detected;
        self.bytes_silent += other.bytes_silent;
        self.bytes_repaired += other.bytes_repaired;
        self.bytes_vacated += other.bytes_vacated;
        self.scrub_ticks += other.scrub_ticks;
        self.blocks_scanned += other.blocks_scanned;
    }

    /// Books corrupt bytes that left NVRAM for the server (a flush, a
    /// recovery drain, or the end-of-run write-back): under `Verified`
    /// the checksum read-back catches them (detected); every other mode
    /// ships them as good data (silent).
    fn propagate(&mut self, bytes: u64) {
        if self.mode.verifies_reads() {
            self.bytes_detected += bytes;
        } else {
            self.bytes_silent += bytes;
        }
    }
}

/// Hook: replays a [`CorruptionSchedule`] under a
/// [`ProtectionMode`] with an optional background scrub, classifying
/// every corrupt byte's fate into a [`ScrubReport`] (see the module
/// docs for the decision tree). Requires the serial drive loop — it
/// consumes per-op [`FlushEvent`]s to catch corrupt data the moment it
/// propagates to the server.
#[derive(Debug)]
pub struct CorruptionInjector<'s> {
    schedule: &'s CorruptionSchedule,
    mode: ProtectionMode,
    scrub_interval: Option<SimDuration>,
    next_event: usize,
    next_scrub: SimTime,
    ledgers: BTreeMap<ClientId, ClientLedger>,
    in_transit: BTreeMap<(ClientId, SimTime), ClientLedger>,
    last_write: BTreeMap<ClientId, SimTime>,
    crashed: BTreeSet<ClientId>,
    report: ScrubReport,
}

impl<'s> CorruptionInjector<'s> {
    /// An injector over a compiled schedule, judged under `mode`, with a
    /// background scrub sweeping every `scrub_interval` (or never, when
    /// `None`).
    pub fn new(
        schedule: &'s CorruptionSchedule,
        mode: ProtectionMode,
        scrub_interval: Option<SimDuration>,
    ) -> Self {
        CorruptionInjector {
            schedule,
            mode,
            scrub_interval,
            next_event: 0,
            next_scrub: match scrub_interval {
                Some(interval) => SimTime::ZERO + interval,
                None => SimTime::MAX,
            },
            ledgers: BTreeMap::new(),
            in_transit: BTreeMap::new(),
            last_write: BTreeMap::new(),
            crashed: BTreeSet::new(),
            report: ScrubReport {
                mode,
                ..ScrubReport::default()
            },
        }
    }

    /// The finished report (call after the session ran).
    pub fn into_report(self) -> ScrubReport {
        self.report
    }

    /// Processes corruption events and scrub ticks chronologically up to
    /// `now`; on a time tie the event lands first (the scrub then sees
    /// the fresh damage in the same instant).
    fn advance(&mut self, engine: &mut SimEngine<'_>, now: SimTime) {
        loop {
            let event_due = self
                .schedule
                .events
                .get(self.next_event)
                .map(|e| e.time)
                .filter(|&t| t <= now);
            let tick_due = (self.next_scrub <= now).then_some(self.next_scrub);
            match (event_due, tick_due) {
                (Some(et), Some(tt)) if et > tt => self.scrub_tick(engine, tt),
                (Some(_), _) => {
                    let ev = self.schedule.events[self.next_event];
                    self.inject(engine, &ev);
                    self.next_event += 1;
                }
                (None, Some(tt)) => self.scrub_tick(engine, tt),
                (None, None) => break,
            }
        }
    }

    /// Applies one corruption event to its target board. No-op when the
    /// client has no live cache (never active, or already crashed).
    fn inject(&mut self, engine: &SimEngine<'_>, ev: &CorruptionEvent) {
        self.resync(engine, ev.client);
        let Some(cache) = engine.clients.get(&ev.client) else {
            return;
        };

        // Write-protected boards bounce stray writes outside the open
        // window after a legitimate write; physical damage bypasses.
        if ev.kind.respects_write_protect() && self.mode.bounces_stray_writes() {
            let open = self.last_write.get(&ev.client).is_some_and(|lw| {
                let t = ev.time.as_micros();
                t >= lw.as_micros() && t <= lw.as_micros() + protect_window_micros()
            });
            if !open {
                self.report.bytes_bounced += ev.len_bytes;
                return;
            }
        }

        // Flatten the board: dirty contents first (in deterministic
        // cache order), clean region after, over [0, capacity).
        let capacity = engine.config.nvram_bytes;
        let mut flat: Vec<(FileId, ByteRange, u64)> = Vec::new();
        let mut cursor = 0u64;
        for (file, set) in cache.nvram_dirty_contents() {
            for r in set.iter() {
                flat.push((file, r, cursor));
                cursor += r.len();
            }
        }
        let dirty_total = cursor;

        let (hits, clean_hit) = match ev.kind {
            CorruptionKind::Decay => {
                let hits: Vec<(FileId, ByteRange)> = flat.iter().map(|&(f, r, _)| (f, r)).collect();
                (hits, capacity.saturating_sub(dirty_total))
            }
            CorruptionKind::StrayWrite | CorruptionKind::BitFlip => {
                if capacity == 0 {
                    return;
                }
                let off = ((ev.offset_fraction * capacity as f64) as u64).min(capacity - 1);
                let len = ev.len_bytes.max(1).min(capacity - off);
                let target = ByteRange::new(off, off + len);
                let mut hits = Vec::new();
                for &(file, r, flat_start) in &flat {
                    let seg = ByteRange::new(flat_start, flat_start + r.len());
                    if let Some(ov) = seg.intersection(target) {
                        if !ov.is_empty() {
                            let s = r.start + (ov.start - seg.start);
                            hits.push((file, ByteRange::new(s, s + ov.len())));
                        }
                    }
                }
                let clean_region = ByteRange::new(dirty_total.min(capacity), capacity);
                let clean_hit = clean_region
                    .intersection(target)
                    .map(ByteRange::len)
                    .unwrap_or(0);
                (hits, clean_hit)
            }
        };

        let unified = engine.config.model == CacheModelKind::Unified;
        let ledger = self.ledgers.entry(ev.client).or_default();
        // A byte hit twice stays corrupt once: two scribbles never
        // restore the original.
        let mut added_dirty = 0;
        for &(file, r) in &hits {
            added_dirty += ledger.dirty.entry(file).or_default().insert(r);
        }
        // Clean-region damage matters only where the non-dirty region
        // holds real (re-readable) data: the unified model's read cache.
        // Write-aside boards keep nothing clean worth repairing.
        let added_clean = if unified {
            let clean_room = capacity.saturating_sub(dirty_total);
            clean_hit.min(clean_room.saturating_sub(ledger.clean_bytes))
        } else {
            0
        };
        ledger.clean_bytes += added_clean;

        self.report.events += 1;
        self.report.bytes_corrupted_dirty += added_dirty;
        self.report.bytes_corrupted_clean += added_clean;
        nvfs_obs::event("corruption_injected", ev.time.as_micros())
            .str("kind", ev.kind.label())
            .u64("client", ev.client.0 as u64)
            .u64("dirty_bytes", added_dirty)
            .u64("clean_bytes", added_clean)
            .emit();
    }

    /// One background scrub sweep: reads every dirty block of every live
    /// board (the scan cost), detects every corrupt byte on the ledger,
    /// repairs clean blocks from their disk copy, and reports dirty
    /// damage as honest unrecoverable loss (dirty data has no copy
    /// anywhere else).
    fn scrub_tick(&mut self, engine: &mut SimEngine<'_>, at: SimTime) {
        self.report.scrub_ticks += 1;
        let mut blocks = 0u64;
        for cache in engine.clients.values() {
            for (_, set) in cache.nvram_dirty_contents() {
                for r in set.iter() {
                    blocks += r.end.div_ceil(BLOCK_SIZE) - r.start / BLOCK_SIZE;
                }
            }
        }
        self.report.blocks_scanned += blocks;

        let clients: Vec<ClientId> = self.ledgers.keys().copied().collect();
        for cid in clients {
            self.resync(engine, cid);
            let Some(ledger) = self.ledgers.remove(&cid) else {
                continue;
            };
            // Dirty damage: detected, but unrecoverable — the only copy
            // of dirty data is the damaged one.
            self.report.bytes_detected += ledger.dirty_bytes();
            // Clean damage: the good copy is on disk — repair it,
            // charging the re-read as server read traffic.
            if ledger.clean_bytes > 0 {
                engine.stats.server_read_bytes += ledger.clean_bytes;
                self.report.bytes_repaired += ledger.clean_bytes;
                nvfs_obs::event("scrub_repair", at.as_micros())
                    .u64("client", cid.0 as u64)
                    .u64("bytes", ledger.clean_bytes)
                    .emit();
            }
        }
        self.next_scrub += self
            .scrub_interval
            .expect("tick only fires with an interval");
    }

    /// Drops ledger ranges that are no longer dirty in the live cache:
    /// data invalidated without a flush event (consistency-disable,
    /// stale-open invalidation) was discarded, so its damage is moot.
    fn resync(&mut self, engine: &SimEngine<'_>, client: ClientId) {
        let Some(ledger) = self.ledgers.get_mut(&client) else {
            return;
        };
        let Some(cache) = engine.clients.get(&client) else {
            return;
        };
        let mut current: BTreeMap<FileId, RangeSet> = BTreeMap::new();
        for (file, set) in cache.nvram_dirty_contents() {
            current.entry(file).or_default().union_with(set);
        }
        let empty = RangeSet::default();
        let files: Vec<FileId> = ledger.dirty.keys().copied().collect();
        for file in files {
            let live = current.get(&file).unwrap_or(&empty);
            self.report.bytes_vacated += ledger.cut(file, |set| keep_within(set, live));
        }
    }

    /// Books corrupt ranges that left a live cache with a flush as
    /// propagated ([`ScrubReport::propagate`]).
    fn classify_propagated(&mut self, engine: &SimEngine<'_>, client: ClientId, file: FileId) {
        let Some(ledger) = self.ledgers.get_mut(&client) else {
            return;
        };
        if !ledger.dirty.contains_key(&file) {
            return;
        }
        let mut still = RangeSet::default();
        if let Some(cache) = engine.clients.get(&client) {
            for (f, s) in cache.nvram_dirty_contents() {
                if f == file {
                    still.union_with(s);
                }
            }
        }
        let gone = ledger.cut(file, |set| keep_within(set, &still));
        self.report.propagate(gone);
    }
}

impl RunHook for CorruptionInjector<'_> {
    // Consumes flush events (the `wants_flush_events` default):
    // corruption classification is inherently per-op.

    fn before_op(&mut self, engine: &mut SimEngine<'_>, _index: usize, op: &Op) -> OpAction {
        self.advance(engine, op.time);
        // Overwritten, truncated or deleted damage is moot in every mode:
        // write allocation replaces contents (and the checksum) without
        // reading the old bytes back.
        let vacated = match &op.kind {
            OpKind::Write { file, range } => {
                if !self.crashed.contains(&op.client) {
                    self.last_write.insert(op.client, op.time);
                }
                match self.ledgers.get_mut(&op.client) {
                    Some(ledger) if engine.clients.contains_key(&op.client) => {
                        ledger.cut(*file, |set| set.remove(*range))
                    }
                    _ => 0,
                }
            }
            OpKind::Truncate { file, new_len } => self
                .ledgers
                .values_mut()
                .map(|ledger| ledger.cut(*file, |set| set.truncate(*new_len)))
                .sum(),
            OpKind::Delete { file } => self
                .ledgers
                .values_mut()
                .map(|ledger| ledger.cut(*file, |set| std::mem::take(set).len_bytes()))
                .sum(),
            _ => 0,
        };
        self.report.bytes_vacated += vacated;
        OpAction::Apply
    }

    fn on_flush(&mut self, engine: &mut SimEngine<'_>, event: &FlushEvent) {
        self.classify_propagated(engine, event.client, event.file);
    }

    fn on_crash(&mut self, _engine: &mut SimEngine<'_>, event: &CrashEvent) {
        self.crashed.insert(event.client);
        if let Some(ledger) = self.ledgers.remove(&event.client) {
            self.in_transit.insert((event.client, event.time), ledger);
        }
    }

    fn on_drain(&mut self, _engine: &mut SimEngine<'_>, event: &DrainEvent) {
        let Some(mut ledger) = self.in_transit.remove(&(event.client, event.crash_time)) else {
            return;
        };
        match &event.recovered {
            Some(recovered) => {
                // Drained corrupt bytes reached the server; the rest fell
                // to the torn-drain cut (already honest loss).
                let empty = RangeSet::default();
                for (file, drained) in &mut ledger.dirty {
                    let rec = recovered.get(file).unwrap_or(&empty);
                    self.report.bytes_vacated += keep_within(drained, rec);
                    self.report.propagate(drained.len_bytes());
                }
            }
            None => {
                // Dead board: everything on it — damaged or not — is
                // already reported as battery loss; the corruption is moot.
                self.report.bytes_vacated += ledger.dirty_bytes();
            }
        }
        // The board's clean region dies with the board either way.
        self.report.bytes_vacated += ledger.clean_bytes;
    }

    fn finish(&mut self, engine: &mut SimEngine<'_>) {
        // Remaining scrub ticks run on the sim clock up to the end of
        // the trace; events scheduled past it still land (the plan's
        // duration may exceed the op stream's).
        self.advance(engine, engine.sim_end());
        while self.next_event < self.schedule.events.len() {
            let ev = self.schedule.events[self.next_event];
            self.inject(engine, &ev);
            self.next_event += 1;
        }

        // Final audit. Dirty data still cached counts as eventual write
        // traffic (the engine's end-of-trace accounting), so corrupt
        // ranges still present will propagate.
        let clients: Vec<ClientId> = self.ledgers.keys().copied().collect();
        for cid in clients {
            self.resync(engine, cid);
        }
        for (_, ledger) in std::mem::take(&mut self.ledgers) {
            self.report.propagate(ledger.dirty_bytes());
            // Clean blocks always have a good disk copy: the eventual
            // re-read repairs them (charged), scrub or no scrub.
            if ledger.clean_bytes > 0 {
                engine.stats.server_read_bytes += ledger.clean_bytes;
                self.report.bytes_repaired += ledger.clean_bytes;
            }
        }
        // Boards still in transit (no drain ever ran — possible only
        // without a FaultInjector downstream): contents never consumed.
        for (_, ledger) in std::mem::take(&mut self.in_transit) {
            self.report.bytes_vacated += ledger.dirty_bytes() + ledger.clean_bytes;
        }
    }

    fn collect(&mut self, _engine: &mut SimEngine<'_>) {
        let r = &self.report;
        nvfs_obs::counter_add("corruption.events", r.events);
        nvfs_obs::counter_add("corruption.bytes_dirty", r.bytes_corrupted_dirty);
        nvfs_obs::counter_add("corruption.bytes_clean", r.bytes_corrupted_clean);
        nvfs_obs::counter_add("scrub.ticks", r.scrub_ticks);
        nvfs_obs::counter_add("scrub.blocks_scanned", r.blocks_scanned);
        nvfs_obs::counter_add("scrub.bytes_repaired", r.bytes_repaired);
        nvfs_obs::counter_add("scrub.bytes_detected", r.bytes_detected);
        nvfs_obs::counter_add("scrub.bytes_silent", r.bytes_silent);
        nvfs_obs::counter_add("scrub.bytes_vacated", r.bytes_vacated);
        nvfs_obs::counter_add("scrub.bytes_bounced", r.bytes_bounced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::ClusterSim;
    use nvfs_faults::corrupt::CorruptionPlanConfig;
    use nvfs_faults::{FaultPlanConfig, FaultSchedule};
    use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};

    fn traces() -> SpriteTraceSet {
        SpriteTraceSet::generate(&TraceSetConfig::tiny())
    }

    fn corruption(seed: u64) -> CorruptionSchedule {
        let plan = CorruptionPlanConfig::new(8, SimDuration::from_hours(24))
            .with_stray_writes(6)
            .with_bit_flips(4)
            .with_decay_events(2);
        CorruptionSchedule::compile(seed, &plan).unwrap()
    }

    fn run(
        seed: u64,
        mode: ProtectionMode,
        interval: Option<SimDuration>,
    ) -> (ScrubReport, nvfs_oracle::OracleSummary) {
        let traces = traces();
        let ops = traces.trace(6).ops();
        let config = SimConfig::unified(8 << 20, 16 * BLOCK_SIZE);
        let fault_plan =
            FaultPlanConfig::new(8, SimDuration::from_hours(24)).with_client_crashes(3);
        let schedule = FaultSchedule::compile(seed, &fault_plan).unwrap();
        let corruption = corruption(seed);
        let report = ClusterSim::new(config)
            .session(ops)
            .faults(&schedule)
            .corruption(&corruption, mode, interval)
            .judged()
            .run();
        (report.scrub, report.oracle.summary())
    }

    #[test]
    fn conservation_holds_for_every_mode_and_interval() {
        for mode in ProtectionMode::ALL {
            for interval in [
                None,
                Some(SimDuration::from_secs(1)),
                Some(SimDuration::from_secs(60)),
                Some(SimDuration::from_secs(3600)),
            ] {
                let (report, oracle) = run(42, mode, interval);
                assert!(
                    report.conservation_holds(),
                    "{mode} {interval:?}: {report:?}"
                );
                assert!(report.events > 0, "schedule must land events");
                assert_eq!(oracle.violations(), 0, "oracle stays clean: {mode}");
            }
        }
    }

    #[test]
    fn verified_mode_never_goes_silent() {
        for interval in [None, Some(SimDuration::from_secs(60))] {
            let (report, _) = run(42, ProtectionMode::Verified, interval);
            assert_eq!(report.bytes_silent, 0, "{interval:?}: {report:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(
            7,
            ProtectionMode::Unprotected,
            Some(SimDuration::from_secs(60)),
        );
        let b = run(
            7,
            ProtectionMode::Unprotected,
            Some(SimDuration::from_secs(60)),
        );
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn corruption_is_pure_metadata() {
        // A corruption-injected run must leave the simulated traffic and
        // the write log byte-identical to the same run without it (the
        // only stats delta allowed is the scrub's repair read charge,
        // absent when no clean bytes are repaired under interval None
        // and a write-aside... simplest: compare reliability + writes).
        let traces = traces();
        let ops = traces.trace(6).ops();
        let config = SimConfig::unified(8 << 20, 16 * BLOCK_SIZE);
        let fault_plan =
            FaultPlanConfig::new(8, SimDuration::from_hours(24)).with_client_crashes(3);
        let schedule = FaultSchedule::compile(11, &fault_plan).unwrap();
        let sim = ClusterSim::new(config.clone());
        let baseline = sim.session(ops).faults(&schedule).writes().run();
        let corruption = corruption(11);
        let with_corruption = sim
            .session(ops)
            .faults(&schedule)
            .corruption(&corruption, ProtectionMode::Unprotected, None)
            .judged()
            .writes()
            .run();
        assert_eq!(baseline.reliability, with_corruption.reliability);
        assert_eq!(baseline.writes, with_corruption.writes);
        assert_eq!(
            baseline.stats.server_write_bytes,
            with_corruption.stats.server_write_bytes
        );
        assert_eq!(with_corruption.oracle.summary().violations(), 0);
        assert!(with_corruption.scrub.conservation_holds());
    }

    #[test]
    fn write_protection_bounces_strays_but_not_flips() {
        let (unprotected, _) = run(42, ProtectionMode::Unprotected, None);
        let (protected, _) = run(42, ProtectionMode::WriteProtected, None);
        assert_eq!(unprotected.bytes_bounced, 0);
        // The same schedule under write protection bounces at least the
        // strays that fell outside every open window.
        assert!(
            protected.bytes_bounced > 0,
            "some stray must miss a window: {protected:?}"
        );
        assert!(
            protected.bytes_corrupted_dirty + protected.bytes_corrupted_clean
                <= unprotected.bytes_corrupted_dirty + unprotected.bytes_corrupted_clean,
            "protection cannot increase damage"
        );
    }

    #[test]
    fn scrub_converts_silent_to_detected() {
        let (no_scrub, _) = run(42, ProtectionMode::Unprotected, None);
        let (scrubbed, _) = run(
            42,
            ProtectionMode::Unprotected,
            Some(SimDuration::from_secs(1)),
        );
        assert!(scrubbed.scrub_ticks > 0);
        assert!(
            scrubbed.bytes_silent <= no_scrub.bytes_silent,
            "a tight scrub can only shrink the silent window: {} vs {}",
            scrubbed.bytes_silent,
            no_scrub.bytes_silent
        );
    }
}
