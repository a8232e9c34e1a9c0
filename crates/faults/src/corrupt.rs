//! Deterministic NVRAM corruption schedules.
//!
//! The paper's §2.3 reliability concern is not only power loss: NVRAM "is
//! vulnerable to operating system errors" — a stray kernel write scribbles
//! over cached dirty data as easily as over any other RAM, and the media
//! itself can decay. This module compiles the *attack side* of that story:
//! a [`CorruptionSchedule`] of stray-write scribbles, single-bit flips and
//! whole-board decay events, placed on the sim clock as a pure function of
//! `(seed, plan)`.
//!
//! The schedule says nothing about protection; the defenses
//! (write-protect windows, checksum verification, the background scrub)
//! are `nvfs_nvram::protect`'s modes, and the injection hook in
//! `nvfs_core::scrub` interprets events against them. Corruption never alters simulated traffic — it damages *contents*,
//! which the oracle and scrub accounting observe.
//!
//! # Determinism contract
//!
//! Each corruption kind draws from its own RNG stream derived from the
//! seed, exactly like [`FaultSchedule::compile`](crate::FaultSchedule::compile):
//! changing the number of bit flips never moves a stray write, and no
//! corruption knob ever perturbs the existing crash/battery/torn/net
//! streams (distinct stream constants).
//!
//! # Examples
//!
//! ```
//! use nvfs_faults::corrupt::{CorruptionPlanConfig, CorruptionSchedule};
//! use nvfs_types::SimDuration;
//!
//! let plan = CorruptionPlanConfig::new(4, SimDuration::from_secs(600))
//!     .with_stray_writes(3)
//!     .with_bit_flips(2);
//! let a = CorruptionSchedule::compile(42, &plan).unwrap();
//! let b = CorruptionSchedule::compile(42, &plan).unwrap();
//! assert_eq!(a, b, "same (seed, plan) => identical schedule");
//! assert_eq!(a.events.len(), 5);
//! ```

use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_types::{ClientId, SimDuration, SimTime};

use crate::FaultError;

const STREAM_STRAY: u64 = 0x7374_7261_7977_7206; // "straywr"
const STREAM_FLIP: u64 = 0x6269_7466_6c69_7007; // "bitflip"
const STREAM_DECAY: u64 = 0x6465_6361_7979_7908; // "decayyy"

/// Smallest stray-write scribble the compiler will emit, so a stray write
/// is never weaker than a bit flip.
const MIN_STRAY_BYTES: u64 = 512;

/// Largest stray-write scribble, in bytes.
const MAX_STRAY_BYTES: u64 = 64 * 1024;

/// The kinds of NVRAM corruption the schedule can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CorruptionKind {
    /// A stray kernel write scribbling a contiguous byte range of the
    /// board. Bounced by write-protection outside open windows.
    StrayWrite,
    /// A single-bit flip in one byte (media error). Bypasses protection.
    BitFlip,
    /// Whole-board decay: every cell on the board is suspect. Bypasses
    /// protection.
    Decay,
}

impl CorruptionKind {
    /// Every kind, in scribble → flip → decay order.
    pub const ALL: [CorruptionKind; 3] = [
        CorruptionKind::StrayWrite,
        CorruptionKind::BitFlip,
        CorruptionKind::Decay,
    ];

    /// Short static label for reports and events.
    pub fn label(&self) -> &'static str {
        match self {
            CorruptionKind::StrayWrite => "stray-write",
            CorruptionKind::BitFlip => "bit-flip",
            CorruptionKind::Decay => "decay",
        }
    }

    /// Whether write-protect hardware can bounce this kind (only actual
    /// writes go through the protection logic; media errors do not).
    pub fn respects_write_protect(&self) -> bool {
        matches!(self, CorruptionKind::StrayWrite)
    }
}

impl std::fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Plan knobs for a corruption schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionPlanConfig {
    /// Clients in the cluster (events target one board each).
    clients: u32,
    /// Trace duration events are placed within.
    duration: SimDuration,
    /// Stray-write scribbles to schedule.
    stray_writes: u32,
    /// Single-bit flips to schedule.
    bit_flips: u32,
    /// Whole-board decay events to schedule.
    decay_events: u32,
}

impl CorruptionPlanConfig {
    /// A plan with no events scheduled; add kinds with the builders.
    pub fn new(clients: u32, duration: SimDuration) -> Self {
        CorruptionPlanConfig {
            clients,
            duration,
            stray_writes: 0,
            bit_flips: 0,
            decay_events: 0,
        }
    }

    /// Sets the number of stray-write scribbles.
    pub fn with_stray_writes(mut self, n: u32) -> Self {
        self.stray_writes = n;
        self
    }

    /// Sets the number of single-bit flips.
    pub fn with_bit_flips(mut self, n: u32) -> Self {
        self.bit_flips = n;
        self
    }

    /// Sets the number of whole-board decay events.
    pub fn with_decay_events(mut self, n: u32) -> Self {
        self.decay_events = n;
        self
    }

    /// Total events the plan schedules.
    fn total_events(&self) -> u32 {
        self.stray_writes + self.bit_flips + self.decay_events
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`FaultError::NoClients`] when events are requested for an empty
    /// cluster; [`FaultError::ZeroDuration`] when events are requested on
    /// a zero-length trace.
    fn validate(&self) -> Result<(), FaultError> {
        if self.total_events() == 0 {
            return Ok(());
        }
        if self.clients == 0 {
            return Err(FaultError::NoClients);
        }
        if self.duration == SimDuration::ZERO {
            return Err(FaultError::ZeroDuration);
        }
        Ok(())
    }
}

/// One scheduled corruption event against one client's board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionEvent {
    /// When the damage lands.
    pub time: SimTime,
    /// The client whose board is hit.
    pub client: ClientId,
    /// What kind of damage.
    pub kind: CorruptionKind,
    /// Where on the board, as a fraction of its capacity in `[0, 1)`.
    /// Decay events cover the whole board and carry `0.0`.
    pub offset_fraction: f64,
    /// Bytes scribbled for a stray write; `1` for a bit flip; `0` for
    /// decay (meaning "the whole board").
    pub len_bytes: u64,
}

/// A compiled, chronologically sorted corruption schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionSchedule {
    /// The seed the schedule was compiled from.
    seed: u64,
    /// The plan the schedule was compiled from.
    plan: CorruptionPlanConfig,
    /// Every event, sorted by `(time, client)`.
    pub events: Vec<CorruptionEvent>,
}

impl CorruptionSchedule {
    /// Compiles the deterministic schedule for `(seed, plan)`.
    ///
    /// Each kind draws from its own stream, so per-kind knobs are
    /// independent: adding bit flips never moves a stray write.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] when the plan is inconsistent (see
    /// `CorruptionPlanConfig::validate`).
    pub fn compile(
        seed: u64,
        plan: &CorruptionPlanConfig,
    ) -> Result<CorruptionSchedule, FaultError> {
        plan.validate()?;
        let micros = plan.duration.as_micros().max(1);
        let mut events = Vec::with_capacity(plan.total_events() as usize);

        // Stray writes: uniform time, client, board offset and length.
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_STRAY);
        for _ in 0..plan.stray_writes {
            events.push(CorruptionEvent {
                time: SimTime::from_micros(rng.gen_range(0..micros)),
                client: ClientId(rng.gen_range(0..plan.clients)),
                kind: CorruptionKind::StrayWrite,
                offset_fraction: rng.gen::<f64>(),
                len_bytes: rng.gen_range(MIN_STRAY_BYTES..=MAX_STRAY_BYTES),
            });
        }

        // Bit flips: uniform time, client and board offset; one byte.
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_FLIP);
        for _ in 0..plan.bit_flips {
            events.push(CorruptionEvent {
                time: SimTime::from_micros(rng.gen_range(0..micros)),
                client: ClientId(rng.gen_range(0..plan.clients)),
                kind: CorruptionKind::BitFlip,
                offset_fraction: rng.gen::<f64>(),
                len_bytes: 1,
            });
        }

        // Decay: uniform time and client; the whole board is suspect.
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_DECAY);
        for _ in 0..plan.decay_events {
            events.push(CorruptionEvent {
                time: SimTime::from_micros(rng.gen_range(0..micros)),
                client: ClientId(rng.gen_range(0..plan.clients)),
                kind: CorruptionKind::Decay,
                offset_fraction: 0.0,
                len_bytes: 0,
            });
        }

        // Chronological order.
        events.sort_by_key(|e| (e.time, e.client, e.kind));

        nvfs_obs::counter_add("faults.corruption_schedules_compiled", 1);
        nvfs_obs::counter_add("faults.corruption_events_scheduled", events.len() as u64);

        Ok(CorruptionSchedule {
            seed,
            plan: plan.clone(),
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> CorruptionPlanConfig {
        CorruptionPlanConfig::new(8, SimDuration::from_secs(3600))
            .with_stray_writes(4)
            .with_bit_flips(3)
            .with_decay_events(2)
    }

    #[test]
    fn compile_is_deterministic_and_sorted() {
        let a = CorruptionSchedule::compile(7, &plan()).unwrap();
        let b = CorruptionSchedule::compile(7, &plan()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 9);
        assert!(a.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn seeds_differ() {
        let a = CorruptionSchedule::compile(1, &plan()).unwrap();
        let b = CorruptionSchedule::compile(2, &plan()).unwrap();
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn kind_knobs_are_stream_independent() {
        // Adding bit flips must not move the stray writes, and vice versa.
        let base = CorruptionSchedule::compile(42, &plan()).unwrap();
        let more_flips = CorruptionSchedule::compile(42, &plan().with_bit_flips(7)).unwrap();
        let strays = |s: &CorruptionSchedule| {
            s.events
                .iter()
                .filter(|e| e.kind == CorruptionKind::StrayWrite)
                .map(|e| (e.time, e.client, e.len_bytes))
                .collect::<Vec<_>>()
        };
        let decays = |s: &CorruptionSchedule| {
            s.events
                .iter()
                .filter(|e| e.kind == CorruptionKind::Decay)
                .map(|e| (e.time, e.client))
                .collect::<Vec<_>>()
        };
        assert_eq!(strays(&base), strays(&more_flips));
        assert_eq!(decays(&base), decays(&more_flips));
        let more_strays = CorruptionSchedule::compile(42, &plan().with_stray_writes(9)).unwrap();
        let flips = |s: &CorruptionSchedule| {
            s.events
                .iter()
                .filter(|e| e.kind == CorruptionKind::BitFlip)
                .map(|e| (e.time, e.client))
                .collect::<Vec<_>>()
        };
        assert_eq!(flips(&base), flips(&more_strays));
    }

    #[test]
    fn corruption_streams_do_not_touch_fault_streams() {
        // The whole point of the keying: a corruption plan compiled under
        // the same seed as a fault plan shares no draws with it.
        let faults = crate::FaultSchedule::compile(
            42,
            &crate::FaultPlanConfig::new(8, SimDuration::from_secs(3600)).with_client_crashes(3),
        )
        .unwrap();
        let _ = CorruptionSchedule::compile(42, &plan()).unwrap();
        let again = crate::FaultSchedule::compile(
            42,
            &crate::FaultPlanConfig::new(8, SimDuration::from_secs(3600)).with_client_crashes(3),
        )
        .unwrap();
        assert_eq!(faults, again, "fault schedules are pure of corruption");
    }

    #[test]
    fn event_shapes_match_their_kinds() {
        let s = CorruptionSchedule::compile(3, &plan()).unwrap();
        for e in &s.events {
            match e.kind {
                CorruptionKind::StrayWrite => {
                    assert!(e.len_bytes >= MIN_STRAY_BYTES);
                    assert!(e.len_bytes <= 64 * 1024);
                    assert!((0.0..1.0).contains(&e.offset_fraction));
                }
                CorruptionKind::BitFlip => {
                    assert_eq!(e.len_bytes, 1);
                    assert!((0.0..1.0).contains(&e.offset_fraction));
                }
                CorruptionKind::Decay => {
                    assert_eq!(e.len_bytes, 0);
                    assert_eq!(e.offset_fraction, 0.0);
                }
            }
            assert!(e.client.0 < 8);
            assert!(e.time <= SimTime::ZERO + SimDuration::from_secs(3600));
        }
    }

    #[test]
    fn empty_plan_compiles_empty_and_bad_plans_fail() {
        let empty = CorruptionPlanConfig::new(0, SimDuration::ZERO);
        assert!(CorruptionSchedule::compile(1, &empty)
            .unwrap()
            .events
            .is_empty());
        assert_eq!(
            CorruptionSchedule::compile(
                1,
                &CorruptionPlanConfig::new(0, SimDuration::from_secs(1)).with_bit_flips(1)
            ),
            Err(FaultError::NoClients)
        );
        assert_eq!(
            CorruptionSchedule::compile(
                1,
                &CorruptionPlanConfig::new(2, SimDuration::ZERO).with_stray_writes(1)
            ),
            Err(FaultError::ZeroDuration)
        );
    }

    #[test]
    fn kind_labels_and_protection_interaction() {
        for kind in CorruptionKind::ALL {
            assert_eq!(kind.to_string(), kind.label());
        }
        assert!(CorruptionKind::StrayWrite.respects_write_protect());
        assert!(!CorruptionKind::BitFlip.respects_write_protect());
        assert!(!CorruptionKind::Decay.respects_write_protect());
    }
}
