//! Reliability scorecard — bytes lost under an identical seeded fault
//! schedule, per cache model and per server write-buffer mode.
//!
//! The paper's argument is ultimately about *reliability*: NVRAM makes
//! cached writes "as permanent as data on disk" (§2.3, §4). This runner
//! compiles one deterministic [`FaultSchedule`] per trace and replays it
//! against each client cache model, so the models are compared on bytes
//! lost under the *same* crashes: the volatile baseline loses its whole
//! 30-second delayed-write window, the write-aside board (one battery)
//! loses only what dies with its battery, and the triply-redundant unified
//! board loses next to nothing. A second table does the §3 study server
//! side: a server crash costs the volatile dirty buffer, while NVRAM-staged
//! data is replayed into the log on restart.
//!
//! Everything is a pure function of `(seed, scale)`, so the rendered
//! scorecard is byte-identical across runs and `--jobs` counts.

use nvfs_core::{CacheModelKind, ClusterSim, RunSummary, SimConfig};
use nvfs_faults::{FaultError, FaultPlanConfig, FaultSchedule, ReliabilityStats};
use nvfs_lfs::{run_server_faulted, LfsConfig, SEGMENT_BYTES};
use nvfs_oracle::OracleSummary;
use nvfs_report::{Cell, Table};
use nvfs_types::SimDuration;

use crate::env::Env;
use crate::sweep::sweep;

/// Default schedule seed; `nvfs faults --seed` overrides it.
pub const DEFAULT_SEED: u64 = 42;

/// Volatile cache size shared by every model (as in `nvfs client-sim`).
pub const BASE_BYTES: u64 = 8 << 20;

/// NVRAM size for the models that have a board: a single block, so the
/// dirty bytes one board exposes to a battery failure stay comparable to
/// the ≤ 30 seconds of writes the volatile baseline exposes at every
/// crash. (The NVRAM models cap dirty data at board capacity — pressure
/// forces a write-through — so board size directly bounds per-crash loss.)
pub const NVRAM_BYTES: u64 = 4096;

/// Client cache models compared, ordered by expected bytes lost.
pub const MODELS: [CacheModelKind; 4] = [
    CacheModelKind::Volatile,
    CacheModelKind::WriteAside,
    CacheModelKind::Hybrid,
    CacheModelKind::Unified,
];

/// Battery redundancy per model: Table 1's SIMM-style parts carry one or
/// two cells, full boards are triply redundant. The volatile model has no
/// board at all; its entry only keeps the plan valid.
pub const fn batteries_for(model: CacheModelKind) -> u8 {
    match model {
        CacheModelKind::Volatile => 1,
        CacheModelKind::WriteAside => 1,
        CacheModelKind::Hybrid => 2,
        CacheModelKind::Unified => 3,
    }
}

/// Display name of a model, matching `nvfs client-sim --model`.
pub const fn model_name(model: CacheModelKind) -> &'static str {
    match model {
        CacheModelKind::Volatile => "volatile",
        CacheModelKind::WriteAside => "write-aside",
        CacheModelKind::Hybrid => "hybrid",
        CacheModelKind::Unified => "unified",
    }
}

/// Parses a `model_name` back into a kind (for the CLI `--model` flag).
pub fn parse_model(name: &str) -> Option<CacheModelKind> {
    MODELS.into_iter().find(|m| model_name(*m) == name)
}

/// Output of the reliability study.
#[derive(Debug, Clone)]
pub struct Faults {
    /// The schedule seed everything was compiled from.
    pub seed: u64,
    /// Per-model client-crash runs, in [`MODELS`] order.
    pub models: Vec<(CacheModelKind, RunSummary)>,
    /// Per-buffer-mode server-crash accounting.
    pub server_modes: Vec<(&'static str, ReliabilityStats)>,
}

impl Faults {
    /// The merged reliability accounting of one cache model.
    pub fn model(&self, kind: CacheModelKind) -> Option<&ReliabilityStats> {
        let (_, run) = self.models.iter().find(|(m, _)| *m == kind)?;
        Some(&run.reliability)
    }

    /// §2.3/§4's qualitative claim as a strict ordering on bytes lost.
    pub fn loss_ordering_holds(&self) -> bool {
        match (
            self.model(CacheModelKind::Volatile),
            self.model(CacheModelKind::WriteAside),
            self.model(CacheModelKind::Unified),
        ) {
            (Some(v), Some(w), Some(u)) => {
                v.bytes_lost() > w.bytes_lost() && w.bytes_lost() > u.bytes_lost()
            }
            _ => false,
        }
    }

    /// Why the study fails, if it does: the loss ordering is violated.
    pub fn failure(&self) -> Option<String> {
        (!self.loss_ordering_holds()).then(|| {
            "bytes-lost ordering volatile > write-aside > unified does not hold".to_string()
        })
    }

    /// Both tables plus the ordering verdict, as printed by `nvfs faults`.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\nloss ordering (bytes lost): volatile > write-aside > unified — {}\n",
            client_table(self.seed, &self.models).render(),
            server_table(self.seed, &self.server_modes).render(),
            if self.loss_ordering_holds() {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        )
    }
}

/// The fault plan applied to one client trace: crash half the clients,
/// batteries aging on an accelerated clock (mean lifetime four trace
/// lengths, so single-battery boards die occasionally while triply
/// redundant ones essentially never do), boards relocated after about a
/// sixth of the trace. Torn drains are left to the server half so the
/// client comparison isolates the window-vs-battery story.
pub(crate) fn client_plan(
    clients: u32,
    duration: SimDuration,
    model: CacheModelKind,
) -> FaultPlanConfig {
    let micros = duration.as_micros();
    FaultPlanConfig::new(clients, duration)
        .with_client_crashes((clients / 2).max(1).min(clients))
        .with_batteries(batteries_for(model))
        .with_battery_mtbf(SimDuration::from_micros(micros.saturating_mul(4).max(1)))
        .with_relocation_delay(SimDuration::from_micros((micros / 6).max(1)))
}

/// Runs every trace against each of `models` under the seeded schedule,
/// judged by the shadow durability oracle when `judged`, one row per
/// model with the runs merged in trace order.
pub fn client_reliability(
    env: &Env,
    seed: u64,
    models: &[CacheModelKind],
    judged: bool,
) -> Result<Vec<(CacheModelKind, RunSummary)>, FaultError> {
    sweep(
        models,
        env.traces.traces(),
        |&model, trace| {
            let plan = client_plan(trace.clients() as u32, trace.duration(), model);
            // Each trace gets its own schedule stream; the per-model plans
            // share everything except battery redundancy, so all models see
            // the same crashes at the same times.
            let schedule = FaultSchedule::compile(seed ^ trace.number() as u64, &plan)?;
            let sim = ClusterSim::new(SimConfig::for_model(model, BASE_BYTES, NVRAM_BYTES));
            let session = sim.session(trace.ops()).faults(&schedule);
            let report = if judged { session.judged() } else { session }.run();
            Ok((model, report.into_summary()))
        },
        |(_, row), (_, next)| row.merge(&next),
    )
}

/// The durability oracle's verdicts on exactly the runs
/// [`client_reliability`] accounts for. Backs the `nvfs faults --oracle`
/// flag, which must exit nonzero if the accounted scorecard ever
/// disagrees with the durability contract.
pub fn oracle_summary(
    env: &Env,
    seed: u64,
    models: &[CacheModelKind],
) -> Result<OracleSummary, FaultError> {
    let mut total = RunSummary::default();
    for (_, run) in client_reliability(env, seed, models, true)? {
        total.merge(&run);
    }
    Ok(total.oracle)
}

/// Server write-buffer modes compared under the same crash schedule.
fn server_configs() -> Vec<(&'static str, LfsConfig)> {
    vec![
        ("none", LfsConfig::direct()),
        ("fsync-absorb", LfsConfig::with_fsync_buffer(512 << 10)),
        ("stage-all", LfsConfig::with_staging_buffer(SEGMENT_BYTES)),
    ]
}

/// Runs the eight server file systems under `config` with the seeded
/// server-crash schedule.
pub fn server_reliability(
    env: &Env,
    seed: u64,
    config: &LfsConfig,
) -> Result<ReliabilityStats, FaultError> {
    let plan = FaultPlanConfig::new(0, env.trace_config.duration())
        .with_server_crashes(4)
        .with_torn_probability(0.6);
    let schedule = FaultSchedule::compile(seed, &plan)?;
    let (_, reliability) = run_server_faulted(&env.server, config, &schedule.server_crashes);
    Ok(reliability)
}

/// Renders the client-crash half of the scorecard for `models`.
pub fn client_table(seed: u64, models: &[(CacheModelKind, RunSummary)]) -> Table {
    let mut table = Table::new(
        &format!("Reliability scorecard — client crashes (seed {seed})"),
        &[
            "model",
            "crashes",
            "at-risk KB",
            "in-NVRAM KB",
            "recovered KB",
            "lost KB",
            "lost %",
            "boards dead",
        ],
    );
    let kb = |b: u64| Cell::f1(b as f64 / 1024.0);
    for (model, RunSummary { reliability: s, .. }) in models {
        table.push_row(vec![
            Cell::from(model_name(*model)),
            Cell::Int(s.client_crashes as i64),
            kb(s.bytes_at_risk),
            kb(s.bytes_in_nvram),
            kb(s.bytes_recovered),
            kb(s.bytes_lost()),
            Cell::Pct(s.loss_pct()),
            Cell::Int(s.boards_dead as i64),
        ]);
    }
    table
}

/// Renders the server-crash half of the scorecard.
pub fn server_table(seed: u64, modes: &[(&'static str, ReliabilityStats)]) -> Table {
    let mut table = Table::new(
        &format!("Reliability scorecard — server crashes (seed {seed})"),
        &[
            "write buffer",
            "crashes",
            "buffer lost KB",
            "replayed KB",
            "torn rewrite KB",
            "lost %",
        ],
    );
    let kb = |b: u64| Cell::f1(b as f64 / 1024.0);
    for (name, s) in modes {
        table.push_row(vec![
            Cell::from(*name),
            Cell::Int(s.server_crashes as i64),
            kb(s.bytes_lost_buffer),
            kb(s.bytes_replayed),
            kb(s.bytes_rewritten_torn),
            Cell::Pct(s.loss_pct()),
        ]);
    }
    table
}

/// Runs the full study under `seed`.
pub fn run(env: &Env, seed: u64) -> Result<Faults, FaultError> {
    let models = client_reliability(env, seed, &MODELS, false)?;
    let mut server_modes = Vec::new();
    for (name, config) in server_configs() {
        server_modes.push((name, server_reliability(env, seed, &config)?));
    }
    Ok(Faults {
        seed,
        models,
        server_modes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatile_loses_more_than_write_aside_loses_more_than_unified() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        assert!(out.loss_ordering_holds(), "{}", out.render());
        let v = out.model(CacheModelKind::Volatile).unwrap();
        assert_eq!(
            v.bytes_in_nvram, 0,
            "the volatile model has no board to preserve anything"
        );
        assert_eq!(v.bytes_lost_window, v.bytes_at_risk);
    }

    #[test]
    fn all_models_see_the_same_crashes() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        let counts: Vec<u64> = out
            .models
            .iter()
            .map(|(_, run)| run.reliability.client_crashes)
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn staging_buffer_turns_buffer_loss_into_replay() {
        let out = run(&Env::tiny(), DEFAULT_SEED).unwrap();
        let of = |name: &str| {
            out.server_modes
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| *s)
                .unwrap()
        };
        let none = of("none");
        let absorb = of("fsync-absorb");
        let staged = of("stage-all");
        assert!(none.bytes_lost_buffer > 0, "volatile buffer must lose data");
        assert_eq!(none.bytes_replayed, 0, "no NVRAM, nothing to replay");
        assert!(staged.bytes_replayed > absorb.bytes_replayed);
        assert!(absorb.bytes_replayed > 0, "staged data replays on restart");
        // The 30-second dirty cache is volatile in every mode; what the
        // NVRAM buffer changes is how much of the in-flight data survives.
        assert!(none.loss_pct() > absorb.loss_pct());
        assert!(absorb.loss_pct() > staged.loss_pct());
    }

    #[test]
    fn plain_faults_schedules_are_clean_under_the_oracle() {
        let seed = DEFAULT_SEED;
        let s = oracle_summary(&Env::tiny(), seed, &MODELS).unwrap();
        assert_eq!(s.violations(), 0, "{}", s.verdict_json(seed));
        assert!(s.crash_points > 0);
        assert!(s
            .verdict_json(seed)
            .starts_with("{\"oracle\":\"clean\",\"seed\":42"));
    }

    #[test]
    fn scorecard_is_reproducible() {
        let env = Env::tiny();
        let a = run(&env, 7).unwrap();
        let b = run(&env, 7).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.models, b.models);
    }
}
