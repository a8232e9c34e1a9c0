//! Durability oracle — deterministic crash-point sweep (`nvfs verify-crash`).
//!
//! The other fault runners *account* for what crashes cost; this one
//! *verifies* that recovery is exactly correct. From one `(seed, scale)`
//! pair it enumerates every interesting crash point for every cache model
//! — full drains, mid-drain tears at each 4 KB block boundary, boards with
//! every battery dead, battery deaths one microsecond after the drain, and
//! crashes pinned just before and just after a flush-tick boundary — and
//! replays each one under the shadow durability model
//! ([`nvfs_oracle::Oracle`]). Any byte the durability contract promised
//! that recovery failed to produce is a [`LostDurable`] verdict; any byte
//! recovery produced that was never promised is [`Resurrected`]; any byte
//! replayed twice for one crash incident is a [`DoubleReplay`].
//!
//! The server half sweeps torn replay-segment writes: a crash tears the
//! recovery write at a fraction of its blocks, the segment's summary
//! checksum fails, [`roll_forward`] truncates it, and the rewrite from
//! NVRAM must reconverge byte-for-byte with an untorn baseline run.
//!
//! The WAL half sweeps the write-ahead-log server mode through its four
//! crash points (mid-append, post-append, mid-truncation, torn record) at
//! a seed-chosen quartile of every workload, judging each run's crash and
//! shutdown records through [`nvfs_oracle::WalJudge`] — a byte is promised
//! the instant its record is durably appended, and each record carries
//! the promise at its instant, so a lost acked record, a resurrected torn
//! record, or a truncation that outran writeback all surface as typed
//! verdicts.
//!
//! Everything is a pure function of `(seed, scale)` and byte-identical at
//! any `--jobs` count; CI diffs the rendered report against a golden copy.
//!
//! [`LostDurable`]: nvfs_oracle::Verdict::LostDurable
//! [`Resurrected`]: nvfs_oracle::Verdict::Resurrected
//! [`DoubleReplay`]: nvfs_oracle::Verdict::DoubleReplay
//! [`roll_forward`]: nvfs_lfs::SegmentWriter::roll_forward

use std::convert::Infallible;

use nvfs_core::{CacheModelKind, ClusterSim, RunSummary, SimConfig};
use nvfs_faults::{
    CrashPointKind, FaultError, FaultPlanConfig, FaultSchedule, ServerCrashFault, WalCrashFault,
    WalCrashPoint,
};
use nvfs_lfs::wal_fs::{run_filesystem_wal_faulted, WalFsReport};
use nvfs_lfs::{run_filesystem_faulted, Chunks, LfsConfig, WalConfig};
use nvfs_oracle::{OracleSummary, WalJudge};
use nvfs_report::{Cell, Table};
use nvfs_types::{ClientId, FileId, RangeSet, SimDuration, SimTime, BLOCK_SIZE};

use crate::env::Env;
use crate::faults::{batteries_for, model_name, server_configs, MODELS};
use crate::sweep::sweep;
use crate::VOLATILE_BYTES;

/// NVRAM board size for the sweep: four 4 KB blocks, so the mid-drain
/// sweep `TornDrainBlocks(0..=4)` crosses every interior block boundary of
/// a full board.
pub(crate) const NVRAM_BLOCKS: u64 = 4;

/// Flush-tick period the pre/post-flush crash points are pinned against
/// (the cache models' 5-second write-back sweep).
pub(crate) const FLUSH_TICK: SimDuration = SimDuration::from_secs(5);

/// Torn replay-write fractions swept on the server side.
const SERVER_FRACTIONS: [f64; 3] = [0.3, 0.6, 0.9];

/// The crash points swept per cache model, in report order.
fn crash_points() -> Vec<CrashPointKind> {
    let mut kinds = vec![
        CrashPointKind::FullDrain,
        CrashPointKind::DeadBoard,
        CrashPointKind::BatteryEdgeAlive,
        CrashPointKind::PreFlush,
        CrashPointKind::PostFlush,
    ];
    for blocks in 0..=NVRAM_BLOCKS {
        kinds.push(CrashPointKind::TornDrainBlocks(blocks));
    }
    kinds
}

/// One row of the client sweep: a cache model replayed through one crash
/// point across every trace, judged by the shadow oracle.
#[derive(Debug, Clone, PartialEq)]
struct CrashPointRow {
    /// Cache model swept.
    model: CacheModelKind,
    /// The crash-point dimension pinned for this row.
    kind: CrashPointKind,
    /// The judged runs merged across the trace set. The bytes the
    /// reliability accounting says recoveries produced must equal the
    /// oracle's `bytes_observed`, or the row counts a violation.
    pub(crate) run: RunSummary,
}

impl CrashPointRow {
    /// Oracle violations plus any oracle-vs-accounting disagreement.
    fn violations(&self) -> u64 {
        let RunSummary {
            oracle,
            reliability,
            ..
        } = &self.run;
        oracle.violations() + u64::from(oracle.bytes_observed != reliability.bytes_recovered)
    }
}

/// One row of the server sweep: a write-buffer mode torn at one fraction,
/// aggregated over workloads and crash-time quartiles, checked for
/// equivalence with its untorn baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ServerCheckRow {
    /// Write-buffer mode name.
    mode: &'static str,
    /// Torn fraction applied to the replay write.
    fraction: f64,
    /// Crash cases checked.
    crashes: u64,
    /// NVRAM bytes replayed across the cases.
    bytes_replayed: u64,
    /// Bytes rewritten after checksum-detected truncation.
    bytes_rewritten: u64,
    /// Equivalence checks evaluated.
    checks: u64,
    /// Checks that failed.
    violations: u64,
}

/// One row of the WAL sweep: one [`WalCrashPoint`] judged across every
/// server workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WalSweepRow {
    /// The WAL crash point swept.
    point: WalCrashPoint,
    /// Merged oracle verdicts across the workload set (each run's
    /// shutdown truncation-invariant check included).
    summary: OracleSummary,
}

/// Output of the crash-point sweep.
#[derive(Debug, Clone)]
pub struct VerifyCrash {
    /// The sweep seed.
    seed: u64,
    /// Client rows, in `MODELS` × [`crash_points`] order.
    rows: Vec<CrashPointRow>,
    /// Merged oracle summary (client and WAL halves).
    summary: OracleSummary,
    /// Server rows, in mode × fraction order.
    server_rows: Vec<ServerCheckRow>,
    /// WAL rows, in [`WalCrashPoint::ALL`] order.
    wal_rows: Vec<WalSweepRow>,
}

impl VerifyCrash {
    /// Total violations across all three halves of the sweep.
    fn violations(&self) -> u64 {
        self.rows.iter().map(CrashPointRow::violations).sum::<u64>()
            + self.server_rows.iter().map(|r| r.violations).sum::<u64>()
            + wal_summary(&self.wal_rows).violations()
    }

    /// Whether every crash point recovered exactly the durable contract.
    pub fn is_clean(&self) -> bool {
        self.violations() == 0
    }

    /// Why the sweep fails, if it does: any violation in any half.
    pub fn failure(&self) -> Option<String> {
        let n = self.violations();
        (n > 0).then(|| format!("durability oracle found {n} violation(s)"))
    }

    /// One-line machine-readable verdict (stable key order), as printed by
    /// `nvfs verify-crash` and parsed by CI.
    pub fn verdict_json(&self) -> String {
        let server_checks: u64 = self.server_rows.iter().map(|r| r.checks).sum();
        let server_violations: u64 = self.server_rows.iter().map(|r| r.violations).sum();
        format!(
            concat!(
                "{{\"oracle\":\"{}\",\"seed\":{},\"crash_points\":{},\"clean\":{},",
                "\"lost_durable\":{},\"resurrected\":{},\"double_replay\":{},",
                "\"server_checks\":{},\"server_violations\":{}}}"
            ),
            if self.is_clean() { "clean" } else { "violated" },
            self.seed,
            self.summary.crash_points,
            self.summary.clean,
            self.summary.lost_durable,
            self.summary.resurrected,
            self.summary.double_replay,
            server_checks,
            server_violations,
        )
    }

    /// All three tables plus the verdict line, as printed by
    /// `nvfs verify-crash`.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}\n",
            client_table(self.seed, &self.rows).render(),
            server_table(self.seed, &self.server_rows).render(),
            wal_table(self.seed, &self.wal_rows).render(),
            self.verdict_json()
        )
    }
}

/// Merged summary of the WAL rows alone.
pub fn wal_summary(rows: &[WalSweepRow]) -> OracleSummary {
    let mut s = OracleSummary::default();
    for row in rows {
        s.merge(&row.summary);
    }
    s
}

/// The WAL table plus its own verdict line, as printed by
/// `nvfs verify-crash --wal` (the CI smoke golden).
pub fn render_wal(seed: u64, rows: &[WalSweepRow]) -> String {
    format!(
        "{}\n{}\n",
        wal_table(seed, rows).render(),
        wal_summary(rows).verdict_json(seed)
    )
}

/// The base fault plan for one trace: crash half the clients, torn drains
/// on half the crashes, batteries aging on an accelerated clock. Each
/// crash point then pins one dimension of this plan via
/// [`FaultSchedule::apply_crash_point`], leaving the rest seeded.
fn sweep_plan(clients: u32, duration: SimDuration, model: CacheModelKind) -> FaultPlanConfig {
    let micros = duration.as_micros();
    FaultPlanConfig::new(clients, duration)
        .with_client_crashes((clients / 2).max(1).min(clients))
        .with_batteries(batteries_for(model))
        .with_battery_mtbf(SimDuration::from_micros(micros.saturating_mul(4).max(1)))
        .with_torn_probability(0.5)
}

/// Runs the client half: every trace × model × crash point, one verified
/// run each, merged into per-(model, crash point) rows in sweep order.
fn client_sweep(env: &Env, seed: u64) -> Result<Vec<CrashPointRow>, FaultError> {
    let keys: Vec<(CacheModelKind, CrashPointKind)> = MODELS
        .into_iter()
        .flat_map(|model| crash_points().into_iter().map(move |kind| (model, kind)))
        .collect();
    sweep(
        &keys,
        env.traces.traces(),
        |&(model, kind), trace| {
            let plan = sweep_plan(trace.clients() as u32, trace.duration(), model);
            let schedule = FaultSchedule::compile(seed ^ trace.number() as u64, &plan)?
                .apply_crash_point(kind, FLUSH_TICK);
            let config = SimConfig::for_model(model, VOLATILE_BYTES, NVRAM_BLOCKS * BLOCK_SIZE);
            let report = ClusterSim::new(config)
                .session(trace.ops())
                .faults(&schedule)
                .judged()
                .run();
            Ok(CrashPointRow {
                model,
                kind,
                run: report.into_summary(),
            })
        },
        |row, next| row.run.merge(&next.run),
    )
}

/// Server write-buffer modes swept (the volatile `none` mode has nothing
/// to replay, hence nothing for a torn write to tear).
fn server_modes() -> Vec<(&'static str, LfsConfig)> {
    let mut modes = server_configs();
    modes.retain(|&(mode, _)| mode != "none");
    modes
}

/// Runs the server half: each write-buffer mode crashed at the quartiles
/// of every workload, torn at each fraction, and checked for byte-exact
/// equivalence with the untorn baseline crash.
fn server_sweep(env: &Env) -> Vec<ServerCheckRow> {
    let duration = env.trace_config.duration().as_micros();
    let n = env.server.len();
    // Input `i` is the crash at quartile `i / n` of workload `i % n`.
    let cases: Vec<usize> = (0..3 * n).collect();
    let Ok(rows) = sweep(
        &server_modes(),
        &cases,
        |&(mode, config), &i| {
            let workload = &env.server[i % n];
            let at = SimTime::from_micros(duration * (i / n + 1) as u64 / 4);
            let untorn = ServerCrashFault {
                time: at,
                torn_segment: None,
            };
            let (base_report, base_rel) = run_filesystem_faulted(workload, &config, &[untorn]);
            let mut out = Vec::with_capacity(SERVER_FRACTIONS.len());
            for &fraction in &SERVER_FRACTIONS {
                let torn = ServerCrashFault {
                    time: at,
                    torn_segment: Some(fraction),
                };
                let (report, rel) = run_filesystem_faulted(workload, &config, &[torn]);
                // The torn run must reconverge with the untorn baseline: the
                // tear may cost a rewrite but never change what reaches disk.
                let checks: [bool; 5] = [
                    report.data_bytes() == base_report.data_bytes(),
                    rel.bytes_replayed == base_rel.bytes_replayed,
                    rel.bytes_lost() == base_rel.bytes_lost(),
                    report.records.iter().all(|r| r.is_valid()),
                    rel.bytes_rewritten_torn % BLOCK_SIZE == 0,
                ];
                out.push(ServerCheckRow {
                    mode,
                    fraction,
                    crashes: 1,
                    bytes_replayed: rel.bytes_replayed,
                    bytes_rewritten: rel.bytes_rewritten_torn,
                    checks: checks.len() as u64,
                    violations: checks.iter().filter(|ok| !**ok).count() as u64,
                });
            }
            Ok::<_, Infallible>(out)
        },
        |rows, next| {
            for (row, case) in rows.iter_mut().zip(next) {
                row.crashes += case.crashes;
                row.bytes_replayed += case.bytes_replayed;
                row.bytes_rewritten += case.bytes_rewritten;
                row.checks += case.checks;
                row.violations += case.violations;
            }
        },
    );
    rows.into_iter().flatten().collect()
}

/// `chunks` as the `(file, ranges)` pairs the judge reads.
fn pairs(chunks: &Chunks) -> impl Iterator<Item = (&FileId, &RangeSet)> {
    chunks.iter().map(|(f, s)| (f, s))
}

/// Judges a WAL run through [`WalJudge`]: each crash against the promise
/// recorded at it, then the shutdown truncation-invariant check at
/// `finish_at` (which must lie strictly after the last crash).
pub fn judge_wal_report(
    client: ClientId,
    report: &WalFsReport,
    finish_at: SimTime,
) -> OracleSummary {
    let trace = &report.trace;
    let mut judge = WalJudge::new(client);
    for c in &trace.crashes {
        judge.crash(c.at, &c.promise, pairs(&c.replayed), pairs(&c.disk));
    }
    judge.finish(finish_at, &trace.final_promise, pairs(&trace.final_disk));
    judge.summary()
}

/// Runs the WAL half: every [`WalCrashPoint`] crashed into every server
/// workload at a seed-chosen quartile, judged through [`WalJudge`], merged
/// into per-point rows in lattice order.
pub fn wal_sweep(env: &Env, seed: u64) -> Vec<WalSweepRow> {
    let duration = env.trace_config.duration().as_micros();
    let config = WalConfig::sprite();
    let points: Vec<(usize, WalCrashPoint)> = WalCrashPoint::ALL.into_iter().enumerate().collect();
    let workloads: Vec<usize> = (0..env.server.len()).collect();
    let Ok(rows) = sweep(
        &points,
        &workloads,
        |&(point_idx, point), &i| {
            // A deterministic but seed- and case-varying quartile, so the
            // sweep crosses different log/dirty states without RNG state.
            let quartile = 1 + ((seed ^ i as u64 ^ point_idx as u64) % 3);
            let crash = WalCrashFault {
                time: SimTime::from_micros(duration * quartile / 4),
                point,
            };
            let (report, _) = run_filesystem_wal_faulted(&env.server[i], &config, &[crash]);
            let finish_at = SimTime::from_micros(duration * 2);
            Ok::<_, Infallible>(WalSweepRow {
                point,
                summary: judge_wal_report(ClientId(i as u32), &report, finish_at),
            })
        },
        |row, next| row.summary.merge(&next.summary),
    );
    rows
}

/// Renders the WAL sweep table.
fn wal_table(seed: u64, rows: &[WalSweepRow]) -> Table {
    let mut table = Table::new(
        &format!("Durability oracle — WAL crash-point sweep (seed {seed})"),
        &[
            "crash point",
            "incidents",
            "clean",
            "lost",
            "resurrected",
            "double-replay",
            "expected KB",
            "observed KB",
        ],
    );
    for row in rows {
        let lead = vec![Cell::from(row.point.label())];
        table.push_row(oracle_row(lead, &row.summary));
    }
    table
}

/// Appends the oracle columns both crash-point tables share to a row's
/// leading cells: crash points judged, clean, lost, resurrected,
/// double-replay, expected KB and observed KB.
fn oracle_row(mut cells: Vec<Cell>, s: &OracleSummary) -> Vec<Cell> {
    let kb = |b: u64| Cell::f1(b as f64 / 1024.0);
    cells.extend([
        Cell::Int(s.crash_points as i64),
        Cell::Int(s.clean as i64),
        Cell::Int(s.lost_durable as i64),
        Cell::Int(s.resurrected as i64),
        Cell::Int(s.double_replay as i64),
        kb(s.bytes_expected),
        kb(s.bytes_observed),
    ]);
    cells
}

/// Renders the client sweep table.
fn client_table(seed: u64, rows: &[CrashPointRow]) -> Table {
    let mut table = Table::new(
        &format!("Durability oracle — client crash-point sweep (seed {seed})"),
        &[
            "model",
            "crash point",
            "crashes",
            "clean",
            "lost",
            "resurrected",
            "double-replay",
            "expected KB",
            "observed KB",
        ],
    );
    for row in rows {
        let lead = vec![
            Cell::from(model_name(row.model)),
            Cell::Text(row.kind.to_string()),
        ];
        table.push_row(oracle_row(lead, &row.run.oracle));
    }
    table
}

/// Renders the server sweep table.
fn server_table(seed: u64, rows: &[ServerCheckRow]) -> Table {
    let mut table = Table::new(
        &format!("Durability oracle — torn replay-write sweep (seed {seed})"),
        &[
            "write buffer",
            "torn fraction",
            "crashes",
            "replayed KB",
            "rewritten KB",
            "checks",
            "violations",
        ],
    );
    let kb = |b: u64| Cell::f1(b as f64 / 1024.0);
    for row in rows {
        table.push_row(vec![
            Cell::from(row.mode),
            Cell::Float {
                value: row.fraction,
                precision: 1,
            },
            Cell::Int(row.crashes as i64),
            kb(row.bytes_replayed),
            kb(row.bytes_rewritten),
            Cell::Int(row.checks as i64),
            Cell::Int(row.violations as i64),
        ]);
    }
    table
}

/// Runs the full sweep under `seed`.
pub fn run(env: &Env, seed: u64) -> Result<VerifyCrash, FaultError> {
    let rows = client_sweep(env, seed)?;
    let server_rows = server_sweep(env);
    let wal_rows = wal_sweep(env, seed);
    let mut summary = wal_summary(&wal_rows);
    for row in &rows {
        summary.merge(&row.run.oracle);
    }
    Ok(VerifyCrash {
        seed,
        rows,
        summary,
        server_rows,
        wal_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DEFAULT_SEED;

    #[test]
    fn tiny_sweep_is_clean_everywhere() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        assert!(out.is_clean(), "{}", out.render());
        assert!(out.summary.crash_points > 0);
        assert_eq!(out.summary.clean, out.summary.crash_points);
        // Every model × crash point row actually judged something.
        assert!(out.rows.iter().all(|r| r.run.oracle.crash_points > 0));
        // The dead-board rows must observe zero bytes.
        for row in &out.rows {
            if row.kind == CrashPointKind::DeadBoard {
                assert_eq!(row.run.oracle.bytes_observed, 0, "{}", row.kind);
            }
        }
        assert!(out.verdict_json().starts_with("{\"oracle\":\"clean\""));
    }

    #[test]
    fn sweep_is_reproducible() {
        let env = Env::tiny();
        let a = run(&env, 7).unwrap();
        let b = run(&env, 7).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.server_rows, b.server_rows);
    }

    #[test]
    fn wal_rows_cover_the_crash_point_lattice() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        assert_eq!(out.wal_rows.len(), WalCrashPoint::ALL.len());
        for (row, point) in out.wal_rows.iter().zip(WalCrashPoint::ALL) {
            assert_eq!(row.point, point);
            // 8 workload crashes + 8 shutdown truncation checks per point.
            assert_eq!(row.summary.crash_points, 16, "{point}");
            assert_eq!(row.summary.violations(), 0, "{point}");
        }
        // Post-append crashes force real replays, so the sweep exercises
        // the promise machinery rather than judging empty incidents.
        assert!(wal_summary(&out.wal_rows).bytes_observed > 0);
        assert!(render_wal(out.seed, &out.wal_rows).contains("WAL crash-point sweep"));
        assert!(wal_summary(&out.wal_rows)
            .verdict_json(out.seed)
            .starts_with("{\"oracle\":\"clean\""));
    }

    #[test]
    fn server_rows_cover_every_mode_and_fraction() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        assert_eq!(out.server_rows.len(), 2 * SERVER_FRACTIONS.len());
        assert!(out.server_rows.iter().all(|r| r.violations == 0));
        assert!(
            out.server_rows.iter().any(|r| r.bytes_rewritten > 0),
            "some torn write must actually be detected and rewritten"
        );
    }
}
