//! Protection overhead vs undetected corruption (`nvfs experiments
//! --only scrub-overhead`).
//!
//! The §2.3 trade-off, measured: each protection mode is charged its
//! Table-1 NVRAM-rate time cost — write-protect toggles around every
//! NVRAM write, checksum verification over every NVRAM byte, scrub scans
//! over every swept block — and run against the same corruption schedule
//! on trace 7's unified model. The `unprotected` baseline runs bare (no
//! toggles, no checksums, no scrub — that is what unprotected means);
//! each defended mode carries its machinery plus the 60-second
//! background scrub. The table shows what each defense costs (as a
//! percentage of the raw NVRAM access time the cache already pays)
//! against what it buys (the silent-corruption column it drives to
//! zero).
//!
//! The acceptance checks: overhead must be ordered `unprotected <
//! write-protect < verified`, `verified` must ship zero silent bytes,
//! and `unprotected` must ship some — otherwise the study would prove
//! nothing.

use nvfs_core::{ClusterSim, ScrubReport, SimConfig};
use nvfs_faults::corrupt::{CorruptionPlanConfig, CorruptionSchedule};
use nvfs_faults::{FaultError, FaultPlanConfig, FaultSchedule};
use nvfs_nvram::protect::{
    scrub_overhead_ns, verify_overhead_ns, write_protect_overhead_ns, ProtectionMode,
    NVRAM_NS_PER_BYTE,
};
use nvfs_report::{Cell, Table};
use nvfs_types::{SimDuration, BLOCK_SIZE};

use crate::env::Env;
use crate::faults::BASE_BYTES;
use crate::sweep::sweep;
use crate::verify_crash::NVRAM_BLOCKS;
use crate::verify_scrub::SCRUB_INTERVAL;

/// The scrub each mode runs: the unprotected baseline has no checksums
/// to scrub; both defended modes sweep every [`SCRUB_INTERVAL`].
pub fn scrub_interval_for(mode: ProtectionMode) -> Option<SimDuration> {
    match mode {
        ProtectionMode::Unprotected => None,
        ProtectionMode::WriteProtected | ProtectionMode::Verified => Some(SCRUB_INTERVAL),
    }
}

/// One protection mode's cost/benefit row.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Protection mode measured.
    pub mode: ProtectionMode,
    /// Protection time charged (mode machinery + scrub scans), in ns.
    pub overhead_ns: u64,
    /// Overhead as a percentage of the raw NVRAM access time.
    pub overhead_pct: f64,
    /// Corruption accounting for the run.
    pub report: ScrubReport,
}

/// Output of the overhead study.
#[derive(Debug, Clone)]
pub struct ScrubOverhead {
    /// The study seed.
    pub seed: u64,
    /// One row per protection mode, in [`ProtectionMode::ALL`] order.
    pub rows: Vec<OverheadRow>,
}

impl ScrubOverhead {
    /// The row for one mode.
    pub fn row(&self, mode: ProtectionMode) -> &OverheadRow {
        self.rows
            .iter()
            .find(|r| r.mode == mode)
            .expect("every mode has a row")
    }

    /// Whether overhead is strictly ordered
    /// `unprotected < write-protect < verified`.
    pub fn ordering_holds(&self) -> bool {
        let o = |m| self.row(m).overhead_ns;
        o(ProtectionMode::Unprotected) < o(ProtectionMode::WriteProtected)
            && o(ProtectionMode::WriteProtected) < o(ProtectionMode::Verified)
    }

    /// Whether the modes deliver what they charge for: `verified` ships
    /// zero silent bytes, `unprotected` ships some, and every ledger
    /// balances.
    pub fn defense_holds(&self) -> bool {
        self.row(ProtectionMode::Verified).report.bytes_silent == 0
            && self.row(ProtectionMode::Unprotected).report.bytes_silent > 0
            && self.rows.iter().all(|r| r.report.conservation_holds())
    }

    /// Why the study fails, if it does: overhead out of order, or a mode
    /// that does not deliver its guarantee.
    pub fn failure(&self) -> Option<String> {
        if !self.ordering_holds() {
            Some("protection overhead is not ordered unprotected < write-protect < verified".into())
        } else {
            (!self.defense_holds())
                .then(|| "protection modes do not deliver their corruption guarantees".to_string())
        }
    }

    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            &format!(
                "Protection overhead vs undetected corruption (seed {}, trace 7)",
                self.seed
            ),
            &[
                "mode",
                "overhead ms",
                "overhead %",
                "events",
                "corrupt KB",
                "silent KB",
                "detect KB",
                "repair KB",
                "bounce KB",
            ],
        );
        let kb = |b: u64| Cell::f1(b as f64 / 1024.0);
        for row in &self.rows {
            let r = &row.report;
            table.push_row(vec![
                Cell::from(row.mode.label()),
                Cell::Float {
                    value: row.overhead_ns as f64 / 1e6,
                    precision: 3,
                },
                Cell::Pct(row.overhead_pct),
                Cell::Int(r.events as i64),
                kb(r.bytes_corrupted_dirty + r.bytes_corrupted_clean),
                kb(r.bytes_silent),
                kb(r.bytes_detected),
                kb(r.bytes_repaired),
                kb(r.bytes_bounced),
            ]);
        }
        table
    }
}

/// Runs the study under `seed`: trace 7's unified model, one run per
/// protection mode against the same corruption schedule, no crashes (so
/// overhead is measured on the pure caching path).
pub fn run(env: &Env, seed: u64) -> Result<ScrubOverhead, FaultError> {
    let trace = env.trace7();
    let clients = trace.clients() as u32;
    let schedule = FaultSchedule::compile(seed, &FaultPlanConfig::new(clients, trace.duration()))?;
    let corruption = CorruptionSchedule::compile(
        seed,
        &CorruptionPlanConfig::new(clients, trace.duration())
            .with_stray_writes(24)
            .with_bit_flips(16)
            .with_decay_events(6),
    )?;
    let config = SimConfig::unified(BASE_BYTES, NVRAM_BLOCKS * BLOCK_SIZE);
    let rows = sweep(
        &ProtectionMode::ALL,
        &[trace],
        |&mode, trace| {
            let run = ClusterSim::new(config.clone())
                .session(trace.ops())
                .faults(&schedule)
                .corruption(&corruption, mode, scrub_interval_for(mode))
                .run();
            let (stats, report) = (run.stats, run.scrub);
            let machinery = match mode {
                ProtectionMode::Unprotected => 0,
                ProtectionMode::WriteProtected => write_protect_overhead_ns(stats.nvram_writes),
                ProtectionMode::Verified => verify_overhead_ns(stats.nvram_bytes),
            };
            let overhead_ns = machinery + scrub_overhead_ns(report.blocks_scanned);
            let base_ns = stats.nvram_bytes * NVRAM_NS_PER_BYTE;
            let overhead_pct = if base_ns == 0 {
                0.0
            } else {
                100.0 * overhead_ns as f64 / base_ns as f64
            };
            Ok(OverheadRow {
                mode,
                overhead_ns,
                overhead_pct,
                report,
            })
        },
        |_, _| unreachable!("one trace, so one run per mode"),
    )?;
    Ok(ScrubOverhead { seed, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DEFAULT_SEED;

    #[test]
    fn overhead_is_ordered_and_defenses_deliver() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        assert_eq!(out.rows.len(), ProtectionMode::ALL.len());
        assert!(out.ordering_holds(), "{}", out.table().render());
        assert!(out.defense_holds(), "{}", out.table().render());
        assert_eq!(out.failure(), None);
        // The verified mode's overhead stays within the same order of
        // magnitude as the raw NVRAM cost (checksum = one extra pass).
        assert!(out.row(ProtectionMode::Verified).overhead_pct <= 200.0);
    }

    #[test]
    fn study_is_reproducible() {
        let env = Env::tiny();
        let a = run(&env, 9).unwrap();
        let b = run(&env, 9).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.table().render(), b.table().render());
    }
}
