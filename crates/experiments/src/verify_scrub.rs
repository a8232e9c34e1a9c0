//! Corruption sweep — protection modes × corruption kinds × crash points
//! (`nvfs verify-scrub`).
//!
//! `verify-crash` proves recovery honest when the hardware is; this sweep
//! asks what happens when it is not. Every protection mode
//! ([`ProtectionMode`]) is replayed against every corruption kind
//! ([`CorruptionKind`]) across a lattice of crash points and all eight
//! traces, with the background checksum scrub running throughout, and each
//! run is double-judged: the durability oracle must stay clean (corruption
//! is pure metadata — it never changes what recovery produces), and the
//! [`ScrubReport`] must satisfy the conservation identity
//! `detected + silent + vacated + repaired == corrupted` byte for byte.
//!
//! The defense claims the sweep proves:
//!
//! * `Verified` never lets a corrupt byte pass silently — every
//!   propagation is caught by a checksum read-back and counted in
//!   [`ScrubReport::bytes_detected`] (honest loss), so its silent column
//!   is all zeros;
//! * `Unprotected` does ship silent corruption under the same schedules
//!   — the undetected-corruption number the paper's §2.3 defenses exist
//!   to eliminate;
//! * `WriteProtected` bounces stray writes that miss the open protect
//!   window, shrinking damage without detecting the rest.
//!
//! Everything is a pure function of `(seed, scale)` and byte-identical at
//! any `--jobs` count; CI diffs the rendered report against a golden copy.

use nvfs_core::{ClusterSim, RunSummary, ScrubReport, SimConfig};
use nvfs_faults::corrupt::{CorruptionKind, CorruptionPlanConfig, CorruptionSchedule};
use nvfs_faults::{CrashPointKind, FaultError, FaultPlanConfig, FaultSchedule};
use nvfs_nvram::protect::ProtectionMode;
use nvfs_report::{Cell, Table};
use nvfs_types::{SimDuration, BLOCK_SIZE};

use crate::env::Env;
use crate::sweep::sweep;
use crate::verify_crash::{FLUSH_TICK, NVRAM_BLOCKS};
use crate::VOLATILE_BYTES;

/// Background scrub period for the sweep and for `scrub-overhead`'s
/// defended modes: long against the 5-second flush tick, so propagation
/// races the scrub realistically.
pub(crate) const SCRUB_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// The crash points each (mode, kind) pair is swept through: a full
/// drain, a dead board, a mid-drain tear, and a crash pinned just before
/// a flush boundary.
const CRASH_POINTS: [CrashPointKind; 4] = [
    CrashPointKind::FullDrain,
    CrashPointKind::DeadBoard,
    CrashPointKind::TornDrainBlocks(2),
    CrashPointKind::PreFlush,
];

/// The corruption plan for one trace: a handful of each damage kind, one
/// kind per row so the sweep isolates each defense against each threat.
fn corruption_plan(
    clients: u32,
    duration: SimDuration,
    kind: CorruptionKind,
) -> CorruptionPlanConfig {
    let plan = CorruptionPlanConfig::new(clients, duration);
    match kind {
        CorruptionKind::StrayWrite => plan.with_stray_writes(6),
        CorruptionKind::BitFlip => plan.with_bit_flips(6),
        CorruptionKind::Decay => plan.with_decay_events(2),
    }
}

/// One row of the sweep: a protection mode replayed against one
/// corruption kind through one crash point across every trace.
#[derive(Debug, Clone, PartialEq)]
struct ScrubRow {
    /// Protection mode under judgment.
    mode: ProtectionMode,
    /// Corruption kind injected.
    kind: CorruptionKind,
    /// The crash-point dimension pinned for this row.
    point: CrashPointKind,
    /// The judged runs merged across the trace set: durability-oracle
    /// verdicts and corruption accounting.
    pub(crate) run: RunSummary,
}

impl ScrubRow {
    /// Oracle violations, plus a broken conservation identity, plus any
    /// silent corruption under `Verified` (the mode that promises zero).
    /// Silent corruption under the other modes is the expected finding,
    /// not a violation.
    fn violations(&self) -> u64 {
        let scrub = &self.run.scrub;
        let broken = u64::from(!scrub.conservation_holds());
        let verified_silent =
            u64::from(self.mode == ProtectionMode::Verified && scrub.bytes_silent > 0);
        self.run.oracle.violations() + broken + verified_silent
    }
}

/// Output of the corruption sweep.
#[derive(Debug, Clone)]
pub struct VerifyScrub {
    /// The sweep seed.
    seed: u64,
    /// Verified runs folded into the rows.
    runs: u64,
    /// Rows in mode × kind × crash-point order.
    rows: Vec<ScrubRow>,
}

impl VerifyScrub {
    /// Total violations across the sweep.
    fn violations(&self) -> u64 {
        self.rows.iter().map(ScrubRow::violations).sum()
    }

    /// Whether every row held its contract.
    fn is_clean(&self) -> bool {
        self.violations() == 0
    }

    /// Why the sweep fails, if it does: any row that broke its contract.
    pub fn failure(&self) -> Option<String> {
        let n = self.violations();
        (n > 0).then(|| format!("corruption sweep found {n} violation(s)"))
    }

    /// Total silent bytes shipped by one mode across the sweep.
    fn silent_bytes(&self, mode: ProtectionMode) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.run.scrub.bytes_silent)
            .sum()
    }

    /// One-line machine-readable verdict (stable key order), as printed
    /// by `nvfs verify-scrub` and parsed by CI.
    fn verdict_json(&self) -> String {
        let total =
            |f: fn(&ScrubReport) -> u64| self.rows.iter().map(|r| f(&r.run.scrub)).sum::<u64>();
        format!(
            concat!(
                "{{\"scrub\":\"{}\",\"seed\":{},\"runs\":{},\"events\":{},",
                "\"corrupted\":{},\"detected\":{},\"silent\":{},\"repaired\":{},",
                "\"vacated\":{},\"bounced\":{},\"silent_verified\":{},\"violations\":{}}}"
            ),
            if self.is_clean() { "clean" } else { "violated" },
            self.seed,
            self.runs,
            total(|r| r.events),
            total(|r| r.bytes_corrupted_dirty + r.bytes_corrupted_clean),
            total(|r| r.bytes_detected),
            total(|r| r.bytes_silent),
            total(|r| r.bytes_repaired),
            total(|r| r.bytes_vacated),
            total(|r| r.bytes_bounced),
            self.silent_bytes(ProtectionMode::Verified),
            self.violations(),
        )
    }

    /// The table plus the verdict line, as printed by `nvfs verify-scrub`.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n",
            scrub_table(self.seed, &self.rows).render(),
            self.verdict_json()
        )
    }
}

/// Renders the sweep table.
fn scrub_table(seed: u64, rows: &[ScrubRow]) -> Table {
    let mut table = Table::new(
        &format!("Corruption sweep — protection modes under fire (seed {seed})"),
        &[
            "mode",
            "corruption",
            "crash point",
            "events",
            "corrupt KB",
            "detect KB",
            "silent KB",
            "repair KB",
            "vacate KB",
            "bounce KB",
            "viol",
        ],
    );
    let kb = |b: u64| Cell::f1(b as f64 / 1024.0);
    for row in rows {
        let r = &row.run.scrub;
        table.push_row(vec![
            Cell::from(row.mode.label()),
            Cell::from(row.kind.label()),
            Cell::Text(row.point.to_string()),
            Cell::Int(r.events as i64),
            kb(r.bytes_corrupted_dirty + r.bytes_corrupted_clean),
            kb(r.bytes_detected),
            kb(r.bytes_silent),
            kb(r.bytes_repaired),
            kb(r.bytes_vacated),
            kb(r.bytes_bounced),
            Cell::Int(row.violations() as i64),
        ]);
    }
    table
}

/// Runs the full sweep under `seed`: every protection mode × corruption
/// kind × crash point × trace, on the unified model (the one whose clean
/// region holds repairable read-cache data).
pub fn run(env: &Env, seed: u64) -> Result<VerifyScrub, FaultError> {
    let keys: Vec<(ProtectionMode, CorruptionKind, CrashPointKind)> = ProtectionMode::ALL
        .into_iter()
        .flat_map(|mode| {
            CorruptionKind::ALL
                .into_iter()
                .flat_map(move |kind| CRASH_POINTS.map(|point| (mode, kind, point)))
        })
        .collect();
    let traces = env.traces.traces();
    let rows = sweep(
        &keys,
        traces,
        |&(mode, kind, point), trace| {
            let clients = trace.clients() as u32;
            let crashes = (clients / 2).clamp(1, 4);
            let plan = FaultPlanConfig::new(clients, trace.duration())
                .with_client_crashes(crashes)
                .with_torn_probability(0.5);
            let run_seed = seed ^ trace.number() as u64;
            let schedule =
                FaultSchedule::compile(run_seed, &plan)?.apply_crash_point(point, FLUSH_TICK);
            let corruption = CorruptionSchedule::compile(
                run_seed,
                &corruption_plan(clients, trace.duration(), kind),
            )?;
            let config = SimConfig::unified(VOLATILE_BYTES, NVRAM_BLOCKS * BLOCK_SIZE);
            let report = ClusterSim::new(config)
                .session(trace.ops())
                .faults(&schedule)
                .corruption(&corruption, mode, Some(SCRUB_INTERVAL))
                .judged()
                .run();
            Ok(ScrubRow {
                mode,
                kind,
                point,
                run: report.into_summary(),
            })
        },
        |row, next| row.run.merge(&next.run),
    )?;
    Ok(VerifyScrub {
        seed,
        runs: (keys.len() * traces.len()) as u64,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DEFAULT_SEED;

    #[test]
    fn tiny_sweep_is_clean_and_covers_the_lattice() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        assert!(out.is_clean(), "{}", out.render());
        assert_eq!(
            out.rows.len(),
            ProtectionMode::ALL.len() * CorruptionKind::ALL.len() * CRASH_POINTS.len()
        );
        // Every unbounced row lands events; write-protected stray rows
        // may legitimately bounce everything.
        assert!(out
            .rows
            .iter()
            .filter(|r| r.mode != ProtectionMode::WriteProtected
                || r.kind != CorruptionKind::StrayWrite)
            .all(|r| r.run.scrub.events > 0));
        // The headline claims: Verified ships zero silent bytes, while
        // Unprotected — same schedules — does not.
        assert_eq!(out.silent_bytes(ProtectionMode::Verified), 0);
        assert!(
            out.silent_bytes(ProtectionMode::Unprotected) > 0,
            "the unprotected sweep must exhibit the failure the defenses exist for"
        );
        // Write protection actually bounces something somewhere.
        assert!(out
            .rows
            .iter()
            .filter(|r| r.mode == ProtectionMode::WriteProtected)
            .any(|r| r.run.scrub.bytes_bounced > 0));
        // The scrub actually repairs clean-region damage somewhere, and
        // detects dirty damage where reads verify nothing.
        assert!(out.rows.iter().any(|r| r.run.scrub.bytes_repaired > 0));
        assert!(out
            .rows
            .iter()
            .filter(|r| r.mode == ProtectionMode::Unprotected)
            .any(|r| r.run.scrub.bytes_detected > 0));
        assert!(out.verdict_json().starts_with("{\"scrub\":\"clean\""));
    }

    #[test]
    fn sweep_is_reproducible() {
        let env = Env::tiny();
        let a = run(&env, 7).unwrap();
        let b = run(&env, 7).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn conservation_holds_for_every_mode_interval_and_seed() {
        // The satellite property: bytes repaired + bytes unrecoverable ==
        // bytes corrupted, for every protection mode and scrub interval,
        // across seeds — no corrupt byte is ever dropped or counted twice.
        let env = Env::tiny();
        let trace = env.traces.trace(6);
        let clients = trace.clients() as u32;
        let config = SimConfig::unified(VOLATILE_BYTES, NVRAM_BLOCKS * BLOCK_SIZE);
        let plan = FaultPlanConfig::new(clients, trace.duration())
            .with_client_crashes(2)
            .with_torn_probability(0.5);
        for seed in [7u64, 42, 1234] {
            let schedule = FaultSchedule::compile(seed, &plan).unwrap();
            let corruption = CorruptionSchedule::compile(
                seed,
                &CorruptionPlanConfig::new(clients, trace.duration())
                    .with_stray_writes(4)
                    .with_bit_flips(3)
                    .with_decay_events(1),
            )
            .unwrap();
            for mode in ProtectionMode::ALL {
                for interval in [
                    None,
                    Some(SimDuration::from_secs(1)),
                    Some(SCRUB_INTERVAL),
                    Some(SimDuration::from_secs(3600)),
                ] {
                    let run = ClusterSim::new(config.clone())
                        .session(trace.ops())
                        .faults(&schedule)
                        .corruption(&corruption, mode, interval)
                        .judged()
                        .run();
                    let report = &run.scrub;
                    assert_eq!(
                        report.bytes_repaired + report.bytes_unrecoverable(),
                        report.bytes_corrupted_dirty + report.bytes_corrupted_clean,
                        "seed {seed} {mode} {interval:?}: {report:?}"
                    );
                    assert!(report.conservation_holds());
                    assert_eq!(run.oracle.summary().violations(), 0);
                    if mode == ProtectionMode::Verified {
                        assert_eq!(report.bytes_silent, 0, "seed {seed} {interval:?}");
                    }
                }
            }
        }
    }
}
