//! The unified experiment registry: every paper artifact behind one table.
//!
//! Each CLI-visible experiment is an [`Entry`] — a name, the paper
//! artifact it reproduces, whether it belongs to the default `nvfs
//! experiments` run, the name of the CSV file it exports (if any), and a
//! run function producing [`Artifacts`]. The `nvfs` binary routes
//! `experiments`, `export-csv`, the scorecard, and its usage text through
//! this one registry, so adding an experiment is a single new row here —
//! no per-module match arms anywhere else. A plain table or figure needs
//! no code beyond its row: the row's run is a one-line closure over the
//! `table` or `figure` constructor of [`Artifacts`], which renders the
//! text and the CSV body together.
//!
//! Ordering is part of the contract: [`all`] yields entries in the
//! canonical output order, the default-run subset preserves the historic
//! `nvfs experiments` order, and the CSV-bearing subset preserves the
//! historic `export-csv` file order. Every run function is deterministic
//! for a given [`Env`], so rendered artifacts are byte-identical at any
//! `--jobs` count.

use nvfs_report::{render_plot, Figure, Table};

use crate::env::Env;
use crate::faults::DEFAULT_SEED;

/// Everything one experiment run produces: the rendered text artifact,
/// the body of its CSV export (its [`Entry`] row names the file), and an
/// optional failure verdict (an experiment can render successfully yet
/// still fail its acceptance check — the scorecard does exactly that).
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// Rendered tables/figures, printed verbatim to stdout.
    pub text: String,
    /// The CSV body `nvfs export-csv` writes, for entries that export one.
    pub csv: Option<String>,
    /// `Some(reason)` when the experiment ran but its verdict is a fail.
    pub failure: Option<String>,
}

impl Artifacts {
    /// Text-only artifacts.
    fn new(text: String) -> Self {
        Artifacts {
            text,
            ..Artifacts::default()
        }
    }

    /// A table artifact: the rendered table, exported as its CSV.
    fn table(table: &Table) -> Self {
        Artifacts {
            text: table.render(),
            csv: Some(table.to_csv()),
            failure: None,
        }
    }

    /// A figure artifact: the point list plus an ASCII plot (log-scaled x
    /// when `log_x`), exported as the figure's CSV.
    fn figure(figure: &Figure, log_x: bool) -> Self {
        Artifacts {
            text: format!("{}{}", figure.render(), render_plot(figure, log_x)),
            csv: Some(figure.to_csv()),
            failure: None,
        }
    }

    /// Attaches the failure verdict, if any.
    fn with_failure(mut self, failure: Option<String>) -> Self {
        self.failure = failure;
        self
    }
}

/// One registry row: static metadata plus the run function.
pub struct Entry {
    name: &'static str,
    artifact: &'static str,
    default_run: bool,
    csv: Option<&'static str>,
    run_fn: fn(&Env) -> Result<Artifacts, String>,
}

impl Entry {
    const fn new(
        name: &'static str,
        artifact: &'static str,
        default_run: bool,
        csv: Option<&'static str>,
        run_fn: fn(&Env) -> Result<Artifacts, String>,
    ) -> Self {
        Entry {
            name,
            artifact,
            default_run,
            csv,
            run_fn,
        }
    }

    /// The CLI id (e.g. `"fig3"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Runs the experiment against a pre-generated environment.
    pub fn run(&self, env: &Env) -> Result<Artifacts, String> {
        (self.run_fn)(env)
    }
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("name", &self.name)
            .field("artifact", &self.artifact)
            .field("default_run", &self.default_run)
            .field("csv", &self.csv)
            .finish_non_exhaustive()
    }
}

/// The registry, in canonical output order: the default-run artifacts
/// first (the historic `nvfs experiments` order), then the opt-in
/// entries (`nvram-speed`, `faults`, `verify-net`, `lfs-wal-vs-buffer`,
/// `scorecard`, `verify-scrub`, `scrub-overhead`).
static REGISTRY: [Entry; 28] = [
    Entry::new(
        "tab1",
        "Table 1 — NVRAM costs",
        true,
        Some("tab1_costs.csv"),
        |_| Ok(Artifacts::table(&crate::tab1::run().table)),
    ),
    Entry::new(
        "fig2",
        "Figure 2 — byte lifetimes",
        true,
        Some("fig2_byte_lifetimes.csv"),
        |env| Ok(Artifacts::figure(&crate::fig2::run(env).figure, true)),
    ),
    Entry::new(
        "tab2",
        "Table 2 — fate of written bytes",
        true,
        Some("tab2_write_fates.csv"),
        |env| Ok(Artifacts::table(&crate::tab2::run(env).table)),
    ),
    Entry::new(
        "fig3",
        "Figure 3 — omniscient policy vs NVRAM size",
        true,
        Some("fig3_omniscient.csv"),
        |env| Ok(Artifacts::figure(&crate::fig3::run(env).figure, true)),
    ),
    Entry::new(
        "fig4",
        "Figure 4 — replacement policies",
        true,
        Some("fig4_policies.csv"),
        |env| Ok(Artifacts::figure(&crate::fig4::run(env).figure, true)),
    ),
    Entry::new(
        "fig5",
        "Figure 5 — cache models, total traffic",
        true,
        Some("fig5_models.csv"),
        |env| Ok(Artifacts::figure(&crate::fig5::run(env).figure, false)),
    ),
    Entry::new(
        "fig6",
        "Figure 6 — NVRAM vs volatile cost-effectiveness",
        true,
        Some("fig6_cost_effectiveness.csv"),
        |env| Ok(Artifacts::figure(&crate::fig6::run(env).figure, false)),
    ),
    Entry::new(
        "tab3",
        "Table 3 — forced partial segments",
        true,
        Some("tab3_partial_segments.csv"),
        |env| Ok(Artifacts::table(&crate::tab3::run(env).table)),
    ),
    Entry::new(
        "tab4",
        "Table 4 — partial segment sizes & space cost",
        true,
        Some("tab4_partial_sizes.csv"),
        |env| Ok(Artifacts::table(&crate::tab4::run(env).table)),
    ),
    Entry::new(
        "write-buffer",
        "§3 — ½ MB write buffer reductions",
        true,
        Some("write_buffer.csv"),
        |env| Ok(Artifacts::table(&crate::write_buffer::run(env).table)),
    ),
    Entry::new(
        "disk-sort",
        "§3 — random vs sorted disk writes",
        true,
        Some("disk_sort.csv"),
        |_| Ok(Artifacts::table(&crate::disk_sort::run().table)),
    ),
    Entry::new(
        "bus-nvram",
        "§2.6 — bus traffic & NVRAM access counts",
        true,
        Some("bus_nvram.csv"),
        |env| Ok(Artifacts::table(&crate::bus_nvram::run(env).table)),
    ),
    Entry::new(
        "presto",
        "§3 — NFS synchronous writes vs server NVRAM",
        true,
        Some("presto.csv"),
        |_| Ok(Artifacts::table(&crate::presto::run().table)),
    ),
    Entry::new(
        "pipeline",
        "extension — client NVRAM's effect on the server's LFS",
        true,
        Some("pipeline.csv"),
        |env| Ok(Artifacts::table(&crate::pipeline::run(env).table)),
    ),
    Entry::new(
        "ablations",
        "extensions — §2.6 hybrid model, dirty-block preference",
        true,
        None,
        |env| {
            let hybrid = crate::ablations::hybrid(env).figure.render();
            let dirty = crate::ablations::dirty_preference(env).render();
            Ok(Artifacts::new(format!("{hybrid}{dirty}")))
        },
    ),
    Entry::new(
        "consistency",
        "extension — block-by-block consistency",
        true,
        None,
        |env| {
            let table = crate::consistency_protocol::run(env).table;
            Ok(Artifacts::new(table.render()))
        },
    ),
    Entry::new(
        "read-latency",
        "§3 closing analysis — optimal write size, read penalty",
        true,
        None,
        |_| {
            let out = crate::read_latency::run();
            let (table, figure) = (out.table.render(), out.figure.render());
            let plot = render_plot(&out.figure, false);
            Ok(Artifacts::new(format!("{table}{figure}{plot}")))
        },
    ),
    Entry::new(
        "lfs-vs-ffs",
        "§3 framing — LFS amortization vs update-in-place",
        true,
        None,
        |env| Ok(Artifacts::new(crate::lfs_vs_ffs::run(env).render())),
    ),
    Entry::new(
        "server-cache",
        "§3 opening — server NVRAM cache absorbs client writes",
        true,
        None,
        |env| Ok(Artifacts::new(crate::server_cache::run(env).render())),
    ),
    Entry::new(
        "diagrams",
        "Figures 1 and 7 rendered from live simulator state",
        true,
        None,
        |_| {
            let (fig1, fig7) = (crate::diagrams::figure1(), crate::diagrams::figure7());
            Ok(Artifacts::new(format!("{fig1}\n{fig7}")))
        },
    ),
    Entry::new(
        "warmup",
        "methodology — quantifying the cold-start caveat",
        true,
        None,
        |env| Ok(Artifacts::new(crate::warmup::run(env).render())),
    ),
    Entry::new(
        "nvram-speed",
        "extension — §2.6 NVRAM access-time sensitivity",
        false,
        Some("nvram_speed.csv"),
        |env| Ok(Artifacts::table(&crate::nvram_speed::run(env))),
    ),
    Entry::new(
        "faults",
        "§2.3/§4 — bytes lost under a seeded fault schedule",
        false,
        None,
        |env| {
            let out = crate::faults::run(env, DEFAULT_SEED, false).map_err(|e| e.to_string())?;
            Ok(Artifacts::new(out.render()).with_failure(out.failure()))
        },
    ),
    Entry::new(
        "verify-net",
        "robustness — network judge: partitions, retries, degraded modes",
        false,
        None,
        |env| {
            let out = crate::verify_net::run(env, DEFAULT_SEED)?;
            Ok(Artifacts::new(out.render()).with_failure(out.failure()))
        },
    ),
    Entry::new(
        "lfs-wal-vs-buffer",
        "extension — logging vs paging: NVRAM WAL vs write buffer",
        false,
        None,
        |env| {
            let out = crate::lfs_wal_vs_buffer::run(env);
            let failure = crate::scorecard::wal_checks(&out)
                .into_iter()
                .find(|c| !c.passed())
                .map(|c| format!("{} fails: {} (measured {})", c.id, c.paper, c.measured));
            Ok(Artifacts::new(out.table.render()).with_failure(failure))
        },
    ),
    Entry::new(
        "scorecard",
        "every paper claim evaluated with PASS/FAIL verdicts",
        false,
        None,
        |env| {
            let card = crate::scorecard::run(env);
            let (table, passed, total) = (card.table.render(), card.passed(), card.checks.len());
            let text = format!("{table}\n{passed} of {total} checks passed\n");
            let failure = (!card.all_passed()).then(|| "scorecard has failures".to_string());
            Ok(Artifacts::new(text).with_failure(failure))
        },
    ),
    Entry::new(
        "verify-scrub",
        "robustness — corruption sweep: protection modes under fire",
        false,
        None,
        |env| {
            let out = crate::verify_scrub::run(env, DEFAULT_SEED).map_err(|e| e.to_string())?;
            Ok(Artifacts::new(out.render()).with_failure(out.failure()))
        },
    ),
    Entry::new(
        "scrub-overhead",
        "robustness — protection overhead vs undetected corruption",
        false,
        None,
        |env| {
            let out = crate::scrub_overhead::run(env, DEFAULT_SEED).map_err(|e| e.to_string())?;
            Ok(Artifacts::new(out.table().render()).with_failure(out.failure()))
        },
    ),
];

/// Every registered experiment, in canonical output order.
pub fn all() -> &'static [Entry] {
    &REGISTRY
}

/// Looks up an entry by CLI id.
fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Looks up an entry by CLI id, failing with a message that lists every
/// valid id (so a typo at the command line is self-correcting).
pub fn find_or_suggest(name: &str) -> Result<&'static Entry, String> {
    find(name).ok_or_else(|| {
        let valid: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        format!(
            "unknown experiment {name:?}; valid ids: {}",
            valid.join(", ")
        )
    })
}

/// The entries a bare `nvfs experiments` runs, in output order.
pub fn default_entries() -> impl Iterator<Item = &'static Entry> {
    REGISTRY.iter().filter(|e| e.default_run)
}

/// The entries `nvfs export-csv` runs (those exporting a CSV file), each
/// with its file name, in output order.
pub fn csv_entries() -> impl Iterator<Item = (&'static str, &'static Entry)> {
    REGISTRY.iter().filter_map(|e| Some((e.csv?, e)))
}

/// One line per entry — `id  artifact` — for `nvfs experiments --list`
/// and the CI drift check against `nvfs help`.
pub fn list_text() -> String {
    let mut s = String::new();
    for e in &REGISTRY {
        s.push_str(&format!("{:<13} {}\n", e.name, e.artifact));
    }
    s
}

/// The README experiment table, regenerated from the registry (a test
/// asserts the README embeds this verbatim).
pub fn readme_table() -> String {
    let mut s =
        String::from("| id | paper artifact | default run | CSV export |\n|---|---|---|---|\n");
    for e in &REGISTRY {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            e.name,
            e.artifact,
            if e.default_run { "yes" } else { "—" },
            e.csv.unwrap_or("—"),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_lookup_works() {
        let mut seen = std::collections::BTreeSet::new();
        for e in all() {
            assert!(seen.insert(e.name()), "duplicate id {}", e.name());
            assert!(std::ptr::eq(find(e.name()).unwrap(), e));
            assert!(!e.artifact.is_empty());
        }
    }

    #[test]
    fn default_entries_preserve_the_historic_experiments_order() {
        let ids: Vec<&str> = default_entries().map(Entry::name).collect();
        assert_eq!(
            ids,
            [
                "tab1",
                "fig2",
                "tab2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "tab3",
                "tab4",
                "write-buffer",
                "disk-sort",
                "bus-nvram",
                "presto",
                "pipeline",
                "ablations",
                "consistency",
                "read-latency",
                "lfs-vs-ffs",
                "server-cache",
                "diagrams",
                "warmup",
            ]
        );
    }

    #[test]
    fn csv_entries_preserve_the_historic_export_order() {
        let names: Vec<&str> = csv_entries().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "tab1_costs.csv",
                "fig2_byte_lifetimes.csv",
                "tab2_write_fates.csv",
                "fig3_omniscient.csv",
                "fig4_policies.csv",
                "fig5_models.csv",
                "fig6_cost_effectiveness.csv",
                "tab3_partial_segments.csv",
                "tab4_partial_sizes.csv",
                "write_buffer.csv",
                "disk_sort.csv",
                "bus_nvram.csv",
                "presto.csv",
                "pipeline.csv",
                "nvram_speed.csv",
            ]
        );
    }

    #[test]
    fn typo_error_lists_every_valid_id() {
        let err = find_or_suggest("fig9").unwrap_err();
        assert!(err.starts_with("unknown experiment \"fig9\""));
        for e in all() {
            assert!(err.contains(e.name()), "error omits {}", e.name());
        }
    }

    #[test]
    fn entries_export_exactly_their_declared_csvs() {
        let env = Env::tiny();
        for id in ["tab1", "disk-sort", "diagrams"] {
            let e = find(id).unwrap();
            let art = e.run(&env).unwrap();
            assert_eq!(art.csv.is_some(), e.csv.is_some(), "{id}");
            assert!(!art.text.is_empty(), "{id}");
            assert!(art.failure.is_none(), "{id}");
        }
    }
}
