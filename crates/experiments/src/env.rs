//! Shared workload environment for experiment runners.
//!
//! Generating the synthetic trace set is the most expensive step of most
//! experiments, so runners share one [`Env`]. The [`Scale`] enum is the
//! single source of truth for the three workload sizes (`tiny`, `small`,
//! `paper`) — the CLI parses `--scale` straight into it via
//! [`FromStr`] and every consumer derives its trace/server configuration
//! from the same value.

use std::fmt;
use std::str::FromStr;

use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, FsWorkload, ServerWorkloadConfig};
use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};

/// Workload scale: one name selecting both the client-trace and
/// server-workload configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Scale {
    /// Minimal workloads for unit tests.
    Tiny,
    /// Reduced-scale workloads preserving all shapes; the CLI default.
    #[default]
    Small,
    /// Full paper-scale workloads (24-hour traces; slow).
    Paper,
}

impl Scale {
    /// The canonical lowercase name (`"tiny"`, `"small"`, `"paper"`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Client-trace configuration at this scale.
    pub fn trace_config(self) -> TraceSetConfig {
        match self {
            Scale::Tiny => TraceSetConfig::tiny(),
            Scale::Small => TraceSetConfig::small(),
            Scale::Paper => TraceSetConfig::paper(),
        }
    }

    /// Server LFS-workload configuration at this scale.
    pub fn server_config(self) -> ServerWorkloadConfig {
        match self {
            Scale::Tiny => ServerWorkloadConfig::tiny(),
            Scale::Small => ServerWorkloadConfig::small(),
            Scale::Paper => ServerWorkloadConfig::paper(),
        }
    }

    /// Generates the full workload environment at this scale.
    pub fn env(self) -> Env {
        Env::new(self.trace_config(), self.server_config())
    }
}

impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale {other:?} (tiny|small|paper)")),
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Pre-generated workloads at a chosen scale.
#[derive(Debug, Clone)]
pub struct Env {
    /// The eight client traces.
    pub traces: SpriteTraceSet,
    /// The eight server file-system workloads.
    pub server: Vec<FsWorkload>,
    /// The client trace configuration used.
    pub trace_config: TraceSetConfig,
}

impl Env {
    /// Builds an environment from explicit configurations.
    fn new(trace_config: TraceSetConfig, server_config: ServerWorkloadConfig) -> Self {
        Env {
            traces: SpriteTraceSet::generate(&trace_config),
            server: sprite_server_workloads(&server_config),
            trace_config,
        }
    }

    /// Reduced-scale environment preserving all workload shapes; the
    /// default for examples and integration tests.
    pub fn small() -> Self {
        Scale::Small.env()
    }

    /// Minimal environment for unit tests.
    pub fn tiny() -> Self {
        Scale::Tiny.env()
    }

    /// The paper's "typical" trace 7 (zero-based index 6), used by
    /// Figures 4–6.
    pub fn trace7(&self) -> &nvfs_trace::synth::Trace {
        self.traces.trace(6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scale, smallest first.
    const ALL: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Paper];

    #[test]
    fn tiny_env_has_all_workloads() {
        let env = Env::tiny();
        assert_eq!(env.traces.traces().len(), 8);
        assert_eq!(env.server.len(), 8);
        assert_eq!(env.trace7().number(), 7);
    }

    #[test]
    fn scale_round_trips_through_name() {
        for scale in ALL {
            assert_eq!(scale.name().parse::<Scale>(), Ok(scale));
            assert_eq!(scale.to_string(), scale.name());
        }
        assert_eq!(Scale::default(), Scale::Small);
    }

    #[test]
    fn experiments_doc_enumerates_every_scale() {
        // The CLI and EXPERIMENTS.md must agree on the valid scale set, so
        // adding or deleting a scale updates both.
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
                .unwrap();
        let enumeration = ALL.iter().map(|s| s.name()).collect::<Vec<_>>().join("|");
        assert!(
            doc.contains(&format!("--scale {enumeration}")),
            "EXPERIMENTS.md does not enumerate `--scale {enumeration}`"
        );
    }

    #[test]
    fn scale_rejects_unknown_names_with_the_valid_set() {
        let err = "huge".parse::<Scale>().unwrap_err();
        assert_eq!(err, "unknown scale \"huge\" (tiny|small|paper)");
    }
}
