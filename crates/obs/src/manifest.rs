//! Run manifests: a machine-readable record of what a command ran and
//! what it measured.
//!
//! Every `nvfs` subcommand can emit one via `--manifest-out`. The JSON
//! document has two top-level sections with deliberately different
//! contracts:
//!
//! * `run` — **deterministic**: command, scale, seed, config digest,
//!   phase names with simulated time, and the full metric snapshot. For a
//!   fixed command line this section is byte-identical across `--jobs`
//!   counts, runs, and machines; golden files and `nvfs obs diff` gate on
//!   it.
//! * `meta` — **volatile by design**: git revision, job count,
//!   wall-clock per phase, parallel-task totals, traced event count.
//!   Diffs report it informationally and never fail on it.
//!
//! Commands describe themselves through the process-wide context
//! ([`set_scale`], [`set_seed`], [`set_config_digest`]) before
//! [`RunManifest::collect`] snapshots everything.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Mutex;

use crate::json::{self, Json};
use crate::metrics::Snapshot;
use crate::timing::SpanRecord;

#[derive(Debug, Clone, Default)]
struct Context {
    scale: Option<String>,
    seed: Option<u64>,
    config_digest: Option<String>,
}

static CTX: Mutex<Option<Context>> = Mutex::new(None);

fn with_ctx<R>(f: impl FnOnce(&mut Context) -> R) -> R {
    let mut guard = CTX.lock().expect("manifest context poisoned");
    f(guard.get_or_insert_with(Context::default))
}

/// Records the workload scale (`tiny` / `small` / `paper`) for the manifest.
pub fn set_scale(scale: &str) {
    with_ctx(|c| c.scale = Some(scale.to_string()));
}

/// Records the seed the command ran with.
pub fn set_seed(seed: u64) {
    with_ctx(|c| c.seed = Some(seed));
}

/// Records the command's config digest, a fixed-width hex string.
pub fn set_config_digest(hex: String) {
    with_ctx(|c| c.config_digest = Some(hex));
}

/// Clears the context (part of the tests' `sink::reset`).
#[cfg(test)]
pub(crate) fn reset_context() {
    *CTX.lock().expect("manifest context poisoned") = None;
}

/// A collected manifest, ready to render.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// The subcommand that ran.
    command: String,
    /// Workload scale, if the command has one.
    scale: Option<String>,
    /// Seed, if the command has one.
    seed: Option<u64>,
    /// Canonical configuration digest, if the command set one.
    config_digest: Option<String>,
    /// Deterministic metric snapshot.
    metrics: Snapshot,
    /// Span records (one per name per task shard) in submission order.
    spans: Vec<SpanRecord>,
    /// Job count the process ran with (meta).
    jobs: usize,
    /// Git revision of the working tree, or `"unknown"` (meta).
    git_rev: String,
    /// Number of traced events (meta: depends on `--trace-out`).
    trace_events: u64,
    /// `(count, cumulative wall µs)` of parallel tasks (meta).
    par_tasks: (u64, u64),
}

impl RunManifest {
    /// Snapshots the global observability state into a manifest.
    pub fn collect(command: &str, jobs: usize) -> RunManifest {
        let (scale, seed, config_digest) =
            with_ctx(|c| (c.scale.clone(), c.seed, c.config_digest.clone()));
        RunManifest {
            command: command.to_string(),
            scale,
            seed,
            config_digest,
            metrics: Snapshot::take(),
            spans: crate::timing::spans(),
            jobs,
            git_rev: git_rev(),
            trace_events: crate::events::count(),
            par_tasks: crate::timing::task_totals(),
        }
    }

    /// Renders the deterministic `run` section (canonical form: fixed key
    /// order, sorted metric names). Byte-identical at any `--jobs` count.
    fn render_run(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "    \"command\": \"{}\",", json::escape(&self.command));
        if let Some(scale) = &self.scale {
            let _ = writeln!(out, "    \"scale\": \"{}\",", json::escape(scale));
        }
        if let Some(seed) = self.seed {
            let _ = writeln!(out, "    \"seed\": {seed},");
        }
        if let Some(digest) = &self.config_digest {
            let _ = writeln!(out, "    \"config_digest\": \"{}\",", json::escape(digest));
        }
        out.push_str("    \"phases\": [");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n      {{\"name\": \"{}\", {}\"sim_us\": {}}}",
                json::escape(&span.name),
                count_field(span),
                span.sim_us
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("],\n");
        let _ = writeln!(out, "    \"metrics\": {}", self.metrics.render_json("    "));
        out.push_str("  }");
        out
    }

    /// Renders the full manifest document (`meta` + `run`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"nvfs_manifest\": 1,\n  \"meta\": {\n");
        let _ = writeln!(out, "    \"git_rev\": \"{}\",", json::escape(&self.git_rev));
        let _ = writeln!(out, "    \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "    \"trace_events\": {},", self.trace_events);
        let _ = writeln!(out, "    \"par_tasks\": {},", self.par_tasks.0);
        let _ = writeln!(out, "    \"par_task_wall_us\": {},", self.par_tasks.1);
        out.push_str("    \"phases\": [");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n      {{\"name\": \"{}\", {}\"wall_ms\": {:.3}, \"excl_ms\": {:.3}}}",
                json::escape(&span.name),
                count_field(span),
                span.wall_ms,
                span.excl_ms
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  },\n");
        let _ = write!(out, "  \"run\": {}\n}}\n", self.render_run());
        out
    }
}

/// The `"count": N, ` field of a phase folded from N > 1 spans; empty for
/// a single span, so single-span phases render as they always have.
fn count_field(span: &SpanRecord) -> String {
    if span.count > 1 {
        format!("\"count\": {}, ", span.count)
    } else {
        String::new()
    }
}

/// Best-effort git revision of the current working tree: `git rev-parse
/// HEAD`, suffixed `+dirty` when `git status --porcelain` lists any
/// change, so a run on an uncommitted tree is not stamped with its
/// parent's revision. When git cannot run, falls back to reading
/// `.git/HEAD` (no dirty mark). Returns `"unknown"` when not in a
/// repository.
pub fn git_rev() -> String {
    git_cli_rev().unwrap_or_else(|| head_rev(Path::new(".git")))
}

/// The revision and dirty mark from the git command line, or `None` when
/// git cannot run here.
fn git_cli_rev() -> Option<String> {
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"])?;
    let dirty = !git(&["status", "--porcelain"])?.is_empty();
    Some(if dirty { format!("{rev}+dirty") } else { rev })
}

/// The revision `git_dir/HEAD` names, following a ref one level (loose or
/// packed) without shelling out; `"unknown"` when it cannot be read.
fn head_rev(git_dir: &Path) -> String {
    let head = match std::fs::read_to_string(git_dir.join("HEAD")) {
        Ok(h) => h,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
            return rev.trim().to_string();
        }
        // Packed refs: scan packed-refs for the ref name.
        if let Ok(packed) = std::fs::read_to_string(git_dir.join("packed-refs")) {
            for line in packed.lines() {
                if let Some(rev) = line.strip_suffix(reference) {
                    return rev.trim().to_string();
                }
            }
        }
        return "unknown".to_string();
    }
    head.to_string()
}

/// Outcome of comparing two manifests.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Whether the deterministic `run` sections are identical.
    pub runs_match: bool,
    /// Human-readable difference lines (`run:` prefixed lines are
    /// failures; `meta:` lines are informational).
    lines: Vec<String>,
}

impl DiffReport {
    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "run sections {}",
            if self.runs_match { "MATCH" } else { "DIFFER" }
        );
        out
    }
}

/// Parses a manifest document, returning `(meta, run)`.
pub fn parse_manifest(text: &str) -> Result<(Json, Json), String> {
    let doc = json::parse(text)?;
    if doc.get("nvfs_manifest").and_then(Json::as_u64) != Some(1) {
        return Err("not an nvfs manifest (missing \"nvfs_manifest\": 1)".into());
    }
    let meta = doc
        .get("meta")
        .cloned()
        .ok_or("manifest has no meta section")?;
    let run = doc
        .get("run")
        .cloned()
        .ok_or("manifest has no run section")?;
    Ok((meta, run))
}

/// Diffs two manifest documents: config drift and metric deltas from the
/// deterministic `run` sections, wall-clock movement from `meta`
/// (informational only).
pub fn diff(a_text: &str, b_text: &str) -> Result<DiffReport, String> {
    let (a_meta, a_run) = parse_manifest(a_text)?;
    let (b_meta, b_run) = parse_manifest(b_text)?;
    let mut lines = Vec::new();

    for key in ["command", "scale", "seed", "config_digest"] {
        let (av, bv) = (a_run.get(key), b_run.get(key));
        if av != bv {
            lines.push(format!(
                "run: {key} drift: {} -> {}",
                render_opt(av),
                render_opt(bv)
            ));
        }
    }

    let phase_names = |run: &Json| -> Vec<String> {
        match run.get("phases") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|p| p.get("name").and_then(Json::as_str).map(String::from))
                .collect(),
            _ => Vec::new(),
        }
    };
    let (ap, bp) = (phase_names(&a_run), phase_names(&b_run));
    if ap != bp {
        lines.push(format!("run: phases drift: {ap:?} -> {bp:?}"));
    }

    for family in ["counters", "gauges"] {
        let collect = |run: &Json| -> Vec<(String, u64)> {
            run.get("metrics")
                .and_then(|m| m.get(family))
                .and_then(Json::members)
                .map(|members| {
                    members
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let (am, bm) = (collect(&a_run), collect(&b_run));
        let mut names: Vec<&String> = am.iter().chain(&bm).map(|(k, _)| k).collect();
        names.sort();
        names.dedup();
        for name in names {
            let av = am.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
            let bv = bm.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
            if av != bv {
                let delta = bv.unwrap_or(0) as i128 - av.unwrap_or(0) as i128;
                lines.push(format!(
                    "run: {family}.{name}: {} -> {} ({}{delta})",
                    av.map_or("absent".into(), |v| v.to_string()),
                    bv.map_or("absent".into(), |v| v.to_string()),
                    if delta >= 0 { "+" } else { "" },
                ));
            }
        }
    }
    let histos = |run: &Json| {
        run.get("metrics")
            .and_then(|m| m.get("histograms"))
            .cloned()
    };
    if histos(&a_run) != histos(&b_run) {
        lines.push("run: histograms differ".to_string());
    }

    let runs_match = a_run == b_run;
    if !runs_match && lines.is_empty() {
        lines.push("run: sections differ structurally".to_string());
    }

    // Informational wall-clock movement per phase: the k-th phase of a
    // name in A against the k-th phase of that name in B.
    let walls = |meta: &Json| -> Vec<(String, f64)> {
        match meta.get("phases") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|p| {
                    let name = p.get("name")?.as_str()?.to_string();
                    let ms = p.get("wall_ms")?.as_f64()?;
                    Some((name, ms))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let mut b_walls = walls(&b_meta);
    for (name, a_ms) in walls(&a_meta) {
        if let Some(at) = b_walls.iter().position(|(n, _)| *n == name) {
            let (_, b_ms) = b_walls.remove(at);
            lines.push(format!("meta: phase {name}: {a_ms:.1} ms -> {b_ms:.1} ms"));
        }
    }
    if a_meta.get("jobs") != b_meta.get("jobs") {
        lines.push(format!(
            "meta: jobs: {} -> {}",
            render_opt(a_meta.get("jobs")),
            render_opt(b_meta.get("jobs"))
        ));
    }

    Ok(DiffReport { runs_match, lines })
}

fn render_opt(v: Option<&Json>) -> String {
    v.map_or("absent".to_string(), |v| v.to_string())
}

/// Pretty-prints a parsed manifest for `nvfs obs show`.
pub fn render_summary(text: &str) -> Result<String, String> {
    let (meta, run) = parse_manifest(text)?;
    let mut out = String::new();
    let field = |run: &Json, key: &str| {
        run.get(key).map_or("-".to_string(), |v| {
            v.to_string().trim_matches('"').to_string()
        })
    };
    let _ = writeln!(out, "command:       {}", field(&run, "command"));
    let _ = writeln!(out, "scale:         {}", field(&run, "scale"));
    let _ = writeln!(out, "seed:          {}", field(&run, "seed"));
    let _ = writeln!(out, "config digest: {}", field(&run, "config_digest"));
    let _ = writeln!(out, "git rev:       {}", field(&meta, "git_rev"));
    let _ = writeln!(out, "jobs:          {}", field(&meta, "jobs"));
    let _ = writeln!(out, "trace events:  {}", field(&meta, "trace_events"));
    if let Some(Json::Arr(phases)) = meta.get("phases") {
        // One row per phase name, in first-seen order: a name recorded by
        // several tasks sums their calls and wall time.
        let mut rows: Vec<(&str, u64, f64, f64)> = Vec::new();
        for p in phases {
            let name = p.get("name").and_then(Json::as_str).unwrap_or("?");
            let count = p.get("count").and_then(Json::as_u64).unwrap_or(1);
            let ms = |key| p.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let (wall, excl) = (ms("wall_ms"), ms("excl_ms"));
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => {
                    r.1 += count;
                    r.2 += wall;
                    r.3 += excl;
                }
                None => rows.push((name, count, wall, excl)),
            }
        }
        if !rows.is_empty() {
            let _ = writeln!(out, "phases:");
            for (name, calls, wall, excl) in rows {
                let _ = writeln!(
                    out,
                    "  {name:<16} {calls:>6} calls {wall:>10.1} ms wall {excl:>10.1} ms excl"
                );
            }
        }
    }
    if let Some(counters) = run
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Json::members)
    {
        let _ = writeln!(out, "counters:");
        for (name, v) in counters {
            let _ = writeln!(out, "  {:<36} {}", name, v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{reset, test_lock};

    #[test]
    fn head_rev_reads_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("nvfs-head-rev-{}", std::process::id()));
        let git = dir.join(".git");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(head_rev(&git), "unknown", "no repository");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(head_rev(&git), "unknown", "a ref that names nothing");
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(head_rev(&git), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(
            head_rev(&git),
            "def456",
            "a loose ref wins over a packed one"
        );
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(head_rev(&git), "0123abcd", "a detached head");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample(seed: u64, extra_counter: u64) -> String {
        reset();
        set_scale("tiny");
        set_seed(seed);
        set_config_digest(format!("seed={seed}"));
        crate::metrics::counter_add("t.manifest.bytes", 100 + extra_counter);
        crate::timing::span("phase-a", || {});
        RunManifest::collect("faults", 4).render()
    }

    #[test]
    fn manifest_parses_and_summarizes() {
        let _g = test_lock();
        let text = sample(42, 0);
        let (meta, run) = parse_manifest(&text).expect("parses");
        assert_eq!(run.get("command").and_then(Json::as_str), Some("faults"));
        assert_eq!(run.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(meta.get("jobs").and_then(Json::as_u64), Some(4));
        let summary = render_summary(&text).unwrap();
        assert!(summary.contains("command:       faults"));
        assert!(summary.contains("t.manifest.bytes"));
        reset();
    }

    #[test]
    fn identical_manifests_match() {
        let _g = test_lock();
        let a = sample(42, 0);
        let b = sample(42, 0);
        let report = diff(&a, &b).unwrap();
        assert!(report.runs_match, "{}", report.render());
        reset();
    }

    #[test]
    fn diff_reports_config_drift_and_metric_deltas() {
        let _g = test_lock();
        let a = sample(42, 0);
        let b = sample(43, 5);
        let report = diff(&a, &b).unwrap();
        assert!(!report.runs_match);
        let text = report.render();
        assert!(text.contains("seed drift"), "{text}");
        assert!(text.contains("config_digest drift"), "{text}");
        assert!(
            text.contains("counters.t.manifest.bytes: 100 -> 105 (+5)"),
            "{text}"
        );
        reset();
    }

    #[test]
    fn diff_pairs_repeated_phases_by_occurrence() {
        let manifest = |walls: [f64; 3]| {
            let phases: Vec<String> = walls
                .iter()
                .map(|ms| format!("{{\"name\": \"drain\", \"wall_ms\": {ms}}}"))
                .collect();
            format!(
                "{{\"nvfs_manifest\": 1, \"meta\": {{\"phases\": [{}]}}, \"run\": {{}}}}",
                phases.join(", ")
            )
        };
        let report = diff(&manifest([1.0, 2.0, 3.0]), &manifest([4.0, 5.0, 6.0])).unwrap();
        assert!(report.runs_match);
        assert_eq!(
            report.lines,
            [
                "meta: phase drain: 1.0 ms -> 4.0 ms",
                "meta: phase drain: 2.0 ms -> 5.0 ms",
                "meta: phase drain: 3.0 ms -> 6.0 ms",
            ]
        );
    }

    #[test]
    fn folded_phases_render_their_count() {
        let _g = test_lock();
        reset();
        crate::timing::span("once", || {});
        for _ in 0..3 {
            crate::timing::span("drain", || crate::timing::set_span_sim_us(5));
        }
        let text = RunManifest::collect("faults", 1).render();
        assert!(
            text.contains("{\"name\": \"once\", \"sim_us\": 0}"),
            "{text}"
        );
        assert!(
            text.contains("{\"name\": \"drain\", \"count\": 3, \"sim_us\": 5}"),
            "{text}"
        );
        assert!(text.contains("{\"name\": \"drain\", \"count\": 3, \"wall_ms\": "));
        let summary = render_summary(&text).unwrap();
        assert!(
            summary
                .lines()
                .any(|l| l.starts_with("  drain ") && l.contains(" 3 calls")),
            "{summary}"
        );
        reset();
    }

    #[test]
    fn non_manifest_input_is_rejected() {
        assert!(parse_manifest("{\"x\": 1}").is_err());
        assert!(parse_manifest("not json").is_err());
    }
}
