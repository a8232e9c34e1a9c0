//! `nvfs` — command-line driver for the reproduction toolkit.
//!
//! ```text
//! nvfs gen-traces   [--scale S] [--out DIR]          write synthetic traces to files
//! nvfs trace-stats  <FILE>                           stats + lint for a trace file
//! nvfs client-sim   <FILE> [--model M] [--volatile-mb N] [--nvram-mb N]
//!                   [--policy P] [--consistency C]   run the client cache simulator
//! nvfs lifetime     <FILE>                           byte-lifetime fates + delay sweep
//! nvfs lfs          [--scale S] [--buffer-kb N]      Tables 3-4 + write-buffer study
//! nvfs faults       [--scale S] [--seed N] [--model M]  reliability under injected faults
//! nvfs experiments  [--scale S] [--list] [--only ID] [ID...]  regenerate paper artifacts
//! nvfs export-csv   [--scale S] --out DIR            write every artifact as CSV
//! nvfs bench        [--scale S] [--out FILE] [--iters N] [--profile]
//!                                                    time sequential vs parallel
//! ```
//!
//! Scales: `tiny`, `small` (default), `paper`, `mega`.
//!
//! A global `--jobs N` flag (or the `NVFS_JOBS` environment variable)
//! bounds the worker threads used for trace generation, sweeps, and
//! experiment fan-out; stdout is byte-identical at any job count.
//!
//! Global observability flags (any command): `--trace-out FILE` records
//! the typed event stream as JSONL, `--manifest-out FILE` writes a run
//! manifest (seed, config digest, phases, metric snapshot). Both are
//! byte-identical at any job count except the manifest's explicitly
//! volatile `meta` section. `nvfs obs show|diff` reads them back.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Prints a line, ignoring a closed pipe: `nvfs … | head` must neither
/// panic nor abandon work that writes files as a side effect, so once the
/// reader is gone the remaining output is silently dropped while the
/// command runs to completion.
macro_rules! outln {
    ($($arg:tt)*) => {{
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, $($arg)*);
    }};
}

/// [`outln!`] without the trailing newline.
macro_rules! out {
    ($($arg:tt)*) => {{
        let mut stdout = std::io::stdout().lock();
        let _ = write!(stdout, $($arg)*);
    }};
}

use nvfs::core::lifetime::LifetimeLog;
use nvfs::core::{ClusterSim, ConsistencyMode, PolicyKind, SimConfig};
use nvfs::experiments as exp;
use nvfs::experiments::env::Env;
use nvfs::experiments::registry;
use nvfs::experiments::Scale;
use nvfs::report::catching;
use nvfs::trace::serialize::{parse_ops, render_ops};
use nvfs::trace::stats::TraceStats;
use nvfs::trace::synth::SpriteTraceSet;
use nvfs::trace::validate::validate_ignoring_leaks;
use nvfs::trace::OpStream;
use nvfs::types::SimDuration;

fn main() -> ExitCode {
    let mut args: VecDeque<String> = std::env::args().skip(1).collect();
    // `--jobs N` is global (any position); it configures the process-wide
    // worker count before any command runs. Resolution order: --jobs, then
    // NVFS_JOBS, then the machine's available parallelism.
    match take_flag(&mut args, "--jobs") {
        Ok(Some(v)) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => nvfs::par::set_jobs(n),
            _ => {
                eprintln!("error: --jobs requires a positive integer, got {v:?}");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Global observability flags: `--trace-out FILE` records the typed
    // event stream, `--manifest-out FILE` writes a run manifest. Both are
    // parsed before dispatch so every subcommand honours them.
    let (trace_out, manifest_out) = match (
        take_flag(&mut args, "--trace-out"),
        take_flag(&mut args, "--manifest-out"),
    ) {
        (Ok(t), Ok(m)) => (t, m),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace_out.is_some() {
        nvfs::obs::set_trace_enabled(true);
    }
    let Some(command) = args.pop_front() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // The whole command runs inside a root span, so every manifest has at
    // least one phase even when the command doesn't time its own stages.
    let result = nvfs::obs::span(&command, || match command.as_str() {
        "gen-traces" => cmd_gen_traces(args),
        "trace-stats" => cmd_trace_stats(args),
        "client-sim" => cmd_client_sim(args),
        "lifetime" => cmd_lifetime(args),
        "lfs" => cmd_lfs(args),
        "faults" => cmd_faults(args),
        "verify-crash" => cmd_verify_crash(args),
        "verify-net" => cmd_verify_net(args),
        "verify-scrub" => cmd_verify_scrub(args),
        "experiments" => cmd_experiments(args),
        "scorecard" => cmd_scorecard(args),
        "export-csv" => cmd_export_csv(args),
        "bench" => cmd_bench(args),
        "obs" => cmd_obs(args),
        "help" | "--help" | "-h" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    });
    let result = result.and_then(|()| write_obs_outputs(&command, trace_out, manifest_out));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the `--trace-out` JSONL stream and the `--manifest-out` run
/// manifest after a successful command. Confirmations go to stderr so
/// stdout stays byte-identical with and without the flags.
fn write_obs_outputs(
    command: &str,
    trace_out: Option<String>,
    manifest_out: Option<String>,
) -> Result<(), String> {
    if let Some(path) = trace_out {
        fs::write(&path, nvfs::obs::events::render_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[obs] wrote trace {path}");
    }
    if let Some(path) = manifest_out {
        let manifest = nvfs::obs::RunManifest::collect(command, nvfs::par::jobs());
        fs::write(&path, manifest.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[obs] wrote manifest {path}");
    }
    Ok(())
}

/// Wraps the registry's experiment ids into indented usage-text lines, so
/// the `nvfs help` id list can never drift from the registry.
fn experiment_id_lines() -> String {
    let mut lines = String::new();
    let mut line = String::from("               ids:");
    for entry in registry::all() {
        if line.len() + 1 + entry.name().len() > 78 {
            lines.push_str(&line);
            lines.push('\n');
            line = String::from("                   ");
        }
        line.push(' ');
        line.push_str(entry.name());
    }
    lines.push_str(&line);
    lines
}

/// Builds the usage text (the experiment id list comes from the registry).
fn usage() -> String {
    format!(
        "usage: nvfs [--jobs N] [--trace-out FILE] [--manifest-out FILE] <command> [options]
commands:
  gen-traces   [--scale tiny|small|paper|mega] [--out DIR]
  trace-stats  <FILE>
  client-sim   <FILE> [--model volatile|write-aside|unified|hybrid]
               [--volatile-mb N] [--nvram-mb N]
               [--policy lru|random|omniscient] [--consistency whole-file|block]
  lifetime     <FILE>
  lfs          [--scale S] [--buffer-kb N]
  faults       [--scale S] [--seed N] [--model volatile|write-aside|hybrid|unified]
               [--oracle]
               reliability scorecard: bytes lost per cache model under one
               seeded fault schedule (client crashes, battery death, torn
               writes, server crashes); --oracle also judges every recovery
               of the selected model(s) against the shadow durability
               model and fails on violations
  verify-crash [--scale S] [--seed N] [--wal]
               durability oracle: deterministic crash-point sweep (full,
               mid-drain per block, dead board, battery edge, pre/post
               flush) plus torn replay-write checks and the WAL server
               mode's crash-point lattice (mid-append, post-append,
               mid-truncation, torn record); prints a one-line JSON
               verdict and exits nonzero on any violation; --wal runs and
               prints only the WAL sweep (the CI smoke golden)
  verify-net   [--scale S] [--seed N]
               network judge: deterministic net-fault sweep (client and
               server partitions, drops, duplicates, reordering, composed
               crashes) proving no acked byte is lost, no request applies
               twice, and the partition loss ordering volatile >
               write-aside > unified; exits nonzero on any violation
  verify-scrub [--scale S] [--seed N]
               corruption judge: deterministic sweep of protection modes
               (unprotected, write-protect, verified) against corruption
               kinds (stray writes, bit flips, board decay) across crash
               points, with a 60 s background checksum scrub; proves
               every corrupt byte lands in exactly one fate (detected,
               repaired, vacated, bounced, silent) and that verified +
               scrub ships zero silent bytes; exits nonzero on violation
  experiments  [--scale S] [--list] [--only ID] [ID...]
{ids}
               --list prints every registered id with its paper artifact;
               --only ID runs a single experiment by registry lookup
  scorecard    [--scale S]
  export-csv   [--scale S] --out DIR
  bench        [--scale S] [--out FILE] [--iters N] [--profile]
               time sequential vs parallel passes (default --out
               BENCH.json); --iters repeats the whole matrix, --profile
               prints a per-phase exclusive-time
               table aggregated from the observability timing spans
  obs          show FILE | diff A B       pretty-print or compare run manifests

parallelism:
  --jobs N     worker threads for trace generation, sweeps, and experiment
               fan-out; overrides the NVFS_JOBS environment variable, which
               overrides the machine's available parallelism. Output is
               byte-identical at any job count (diagnostics go to stderr).

observability (global, any command):
  --trace-out FILE     record the typed event stream as JSONL (one event
                       per line, sorted by simulated time; byte-identical
                       at any job count)
  --manifest-out FILE  write a run manifest: seed, config digest, phases,
                       and the full metric snapshot. The `run` section is
                       deterministic; `meta` (wall clock, git rev, jobs)
                       is volatile. Compare with `nvfs obs diff`.",
        ids = experiment_id_lines()
    )
}

/// Removes a value-less `--flag`, returning whether it was present.
fn take_switch(args: &mut VecDeque<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Pulls `--flag VALUE` out of the argument list, if present.
fn take_flag(args: &mut VecDeque<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        let mut rest = args.split_off(pos);
        rest.pop_front();
        let value = rest
            .pop_front()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        args.append(&mut rest);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Fails with `<command>: unexpected argument "…"` if anything is left
/// once the command has taken its flags and operands, so a typo cannot
/// silently run the defaults.
fn reject_leftovers(args: &VecDeque<String>, command: &str) -> Result<(), String> {
    match args.front() {
        Some(arg) => Err(format!("{command}: unexpected argument {arg:?}")),
        None => Ok(()),
    }
}

/// Resolves the `--scale` flag to a [`Scale`], noting its canonical name
/// in the run-manifest context.
fn parse_scale(args: &mut VecDeque<String>) -> Result<Scale, String> {
    let scale = match take_flag(args, "--scale")? {
        Some(value) => value.parse()?,
        None => Scale::default(),
    };
    nvfs::obs::manifest::set_scale(scale.name());
    Ok(scale)
}

/// Fingerprints a command's resolved configuration into the run-manifest
/// context via the workspace's canonical digest ([`nvfs::obs::digest`]).
fn note_config(parts: &[(&str, &str)]) {
    let mut d = nvfs::obs::digest::Digest::new();
    for (key, value) in parts {
        d.update(key);
        d.update("=");
        d.update(value);
        d.update(";");
    }
    nvfs::obs::manifest::set_config_digest(d.hex());
}

/// Reads and parses the trace at `path`, rejecting one that breaks session
/// discipline (files left open at the end are allowed).
fn load_ops(path: &str) -> Result<OpStream, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ops = parse_ops(&text).map_err(|e| format!("{path}: {e}"))?;
    let violations = validate_ignoring_leaks(&ops);
    match violations.first() {
        None => Ok(ops),
        Some(first) => Err(format!(
            "{path}: {} lint violation(s), first: {first}",
            violations.len()
        )),
    }
}

fn cmd_gen_traces(mut args: VecDeque<String>) -> Result<(), String> {
    let cfg = parse_scale(&mut args)?.trace_config();
    let out = PathBuf::from(take_flag(&mut args, "--out")?.unwrap_or_else(|| "traces".into()));
    reject_leftovers(&args, "gen-traces")?;
    fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    eprintln!("[gen-traces] jobs = {}", nvfs::par::jobs());
    let set = SpriteTraceSet::generate(&cfg);
    for trace in set.traces() {
        let path = out.join(format!("trace{}.ops", trace.number()));
        fs::write(&path, render_ops(trace.ops()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let s = TraceStats::for_stream(trace.ops());
        outln!(
            "{}: {} ops, {:.1} MB written, {:.1} MB read",
            path.display(),
            s.ops,
            s.write_bytes as f64 / (1 << 20) as f64,
            s.read_bytes as f64 / (1 << 20) as f64,
        );
    }
    Ok(())
}

fn cmd_trace_stats(mut args: VecDeque<String>) -> Result<(), String> {
    let path = args.pop_front().ok_or("trace-stats requires a file")?;
    reject_leftovers(&args, "trace-stats")?;
    let ops = load_ops(&path)?;
    let s = TraceStats::for_stream(&ops);
    outln!("ops:          {}", s.ops);
    outln!(
        "write bytes:  {} ({:.2} MB)",
        s.write_bytes,
        s.write_bytes as f64 / (1 << 20) as f64
    );
    outln!(
        "read bytes:   {} ({:.2} MB)",
        s.read_bytes,
        s.read_bytes as f64 / (1 << 20) as f64
    );
    outln!("files:        {}", s.files);
    outln!("clients:      {}", s.clients);
    outln!("opens:        {}", s.opens);
    outln!("deletes:      {}", s.deletes);
    outln!("fsyncs:       {}", s.fsyncs);
    // `load_ops` rejects a trace with lint violations.
    outln!("lint:         clean");
    Ok(())
}

fn cmd_client_sim(mut args: VecDeque<String>) -> Result<(), String> {
    let model = take_flag(&mut args, "--model")?.unwrap_or_else(|| "unified".into());
    let volatile_mb: u64 = take_flag(&mut args, "--volatile-mb")?
        .unwrap_or_else(|| "8".into())
        .parse()
        .map_err(|_| "bad --volatile-mb")?;
    let nvram_mb: u64 = take_flag(&mut args, "--nvram-mb")?
        .unwrap_or_else(|| "1".into())
        .parse()
        .map_err(|_| "bad --nvram-mb")?;
    let policy = match take_flag(&mut args, "--policy")?.as_deref() {
        None | Some("lru") => PolicyKind::Lru,
        Some("random") => PolicyKind::Random { seed: 1992 },
        Some("omniscient") => PolicyKind::Omniscient,
        Some(other) => return Err(format!("unknown policy {other:?}")),
    };
    let consistency = match take_flag(&mut args, "--consistency")?.as_deref() {
        None | Some("whole-file") => ConsistencyMode::WholeFile,
        Some("block") => ConsistencyMode::BlockOnDemand,
        Some(other) => return Err(format!("unknown consistency mode {other:?}")),
    };
    let path = args.pop_front().ok_or("client-sim requires a trace file")?;
    reject_leftovers(&args, "client-sim")?;
    let ops = load_ops(&path)?;

    if volatile_mb == 0 {
        return Err("--volatile-mb must be at least 1".to_string());
    }
    if nvram_mb == 0 && model != "volatile" {
        return Err(format!(
            "--nvram-mb must be at least 1 for the {model} model"
        ));
    }
    let kind =
        exp::faults::parse_model(&model).ok_or_else(|| format!("unknown model {model:?}"))?;
    let bytes = |flag: &str, mb: u64| {
        mb.checked_mul(1 << 20)
            .ok_or_else(|| format!("{flag} {mb} is too large"))
    };
    let cfg = SimConfig::for_model(
        kind,
        bytes("--volatile-mb", volatile_mb)?,
        bytes("--nvram-mb", nvram_mb)?,
    )
    .with_policy(policy)
    .with_consistency(consistency);
    note_config(&[
        ("command", "client-sim"),
        ("trace", &path),
        ("model", &model),
        ("volatile_mb", &volatile_mb.to_string()),
        ("nvram_mb", &nvram_mb.to_string()),
        ("policy", &format!("{policy:?}")),
        ("consistency", &format!("{consistency:?}")),
    ]);
    let stats = ClusterSim::new(cfg).session(&ops).run().stats;

    let mb = |b: u64| b as f64 / (1 << 20) as f64;
    outln!("model:              {kind:?}");
    outln!("app writes:         {:>10.2} MB", mb(stats.app_write_bytes));
    outln!("app reads:          {:>10.2} MB", mb(stats.app_read_bytes));
    outln!(
        "server writes:      {:>10.2} MB",
        mb(stats.server_write_bytes)
    );
    outln!("  write-back:       {:>10.2} MB", mb(stats.writeback_bytes));
    outln!(
        "  replacement:      {:>10.2} MB",
        mb(stats.replacement_bytes)
    );
    outln!("  callbacks:        {:>10.2} MB", mb(stats.callback_bytes));
    outln!("  migration:        {:>10.2} MB", mb(stats.migration_bytes));
    outln!("  fsync:            {:>10.2} MB", mb(stats.fsync_bytes));
    outln!(
        "server reads:       {:>10.2} MB",
        mb(stats.server_read_bytes)
    );
    outln!(
        "absorbed:           {:>10.2} MB",
        mb(stats.absorbed_bytes())
    );
    outln!(
        "remaining dirty:    {:>10.2} MB",
        mb(stats.remaining_dirty_bytes)
    );
    outln!(
        "net write traffic:  {:>9.1}%",
        stats.net_write_traffic_pct()
    );
    outln!(
        "net total traffic:  {:>9.1}%",
        stats.net_total_traffic_pct()
    );
    outln!(
        "read hit ratio:     {:>9.1}%",
        100.0 * stats.read_hit_ratio()
    );
    if kind.has_nvram() {
        outln!("nvram accesses:     {:>10}", stats.nvram_accesses());
    }
    Ok(())
}

fn cmd_lifetime(mut args: VecDeque<String>) -> Result<(), String> {
    let path = args.pop_front().ok_or("lifetime requires a trace file")?;
    reject_leftovers(&args, "lifetime")?;
    let ops = load_ops(&path)?;
    let log = LifetimeLog::analyze(&ops);
    outln!(
        "total writes: {:.2} MB",
        log.total_write_bytes as f64 / (1 << 20) as f64
    );
    outln!(
        "absorbed (infinite NVRAM): {:.1}%",
        100.0 * log.absorbed_fraction()
    );
    outln!("\nfate breakdown:");
    for (fate, bytes) in log.bytes_by_fate() {
        outln!(
            "  {:<12} {:>10.2} MB ({:>5.1}%)",
            format!("{fate:?}"),
            bytes as f64 / (1 << 20) as f64,
            100.0 * bytes as f64 / log.total_write_bytes.max(1) as f64,
        );
    }
    outln!("\nnet write traffic vs write-back delay:");
    for mins in [0.05, 0.5, 5.0, 30.0, 240.0, 10_000.0] {
        let d = SimDuration::from_secs_f64(mins * 60.0);
        outln!(
            "  {:>9.2} min  {:>5.1}%",
            mins,
            log.net_write_traffic_at_delay(d)
        );
    }
    Ok(())
}

fn cmd_lfs(mut args: VecDeque<String>) -> Result<(), String> {
    let scale = parse_scale(&mut args)?;
    let buffer_kb: u64 = take_flag(&mut args, "--buffer-kb")?
        .unwrap_or_else(|| "512".into())
        .parse()
        .map_err(|_| "bad --buffer-kb")?;
    reject_leftovers(&args, "lfs")?;
    let env = scale.env();
    note_config(&[
        ("command", "lfs"),
        ("scale", scale.name()),
        ("buffer_kb", &buffer_kb.to_string()),
    ]);
    eprintln!("[lfs] jobs = {}", nvfs::par::jobs());
    outln!("{}", exp::tab3::run(&env).table.render());
    outln!("{}", exp::tab4::run(&env).table.render());
    outln!(
        "{}",
        exp::write_buffer::run_with_capacity(&env, buffer_kb << 10)
            .table
            .render()
    );
    Ok(())
}

/// The preamble shared by the four fault studies. Call it after taking
/// the command's own flags: it parses `--scale` and `--seed`, rejects any
/// argument left over, notes the seed and `config` in the run manifest,
/// and only then generates the workloads.
fn fault_study(
    args: &mut VecDeque<String>,
    command: &str,
    config: &[(&str, &str)],
) -> Result<(Env, u64), String> {
    let scale = parse_scale(args)?;
    let seed: u64 = match take_flag(args, "--seed")? {
        Some(v) => v.parse().map_err(|_| "bad --seed")?,
        None => exp::faults::DEFAULT_SEED,
    };
    reject_leftovers(args, command)?;
    nvfs::obs::manifest::set_seed(seed);
    let seed_text = seed.to_string();
    let base = [
        ("command", command),
        ("scale", scale.name()),
        ("seed", &seed_text),
    ];
    note_config(&[&base[..], config].concat());
    eprintln!("[{command}] jobs = {}", nvfs::par::jobs());
    Ok((scale.env(), seed))
}

fn cmd_faults(mut args: VecDeque<String>) -> Result<(), String> {
    let model = take_flag(&mut args, "--model")?;
    let models = match &model {
        Some(name) => vec![exp::faults::parse_model(name).ok_or_else(|| {
            format!("unknown model {name:?} (volatile|write-aside|hybrid|unified)")
        })?],
        None => exp::faults::MODELS.to_vec(),
    };
    let oracle = take_switch(&mut args, "--oracle");
    let model = model.as_deref().unwrap_or("all");
    let (env, seed) = fault_study(&mut args, "faults", &[("model", model)])?;
    // With --oracle the one client sweep is also judged by the shadow
    // durability model: any recovery that lost a promised byte,
    // resurrected an unpromised one, or replayed a byte twice fails the
    // run. Judging leaves the accounting, and so the tables, unchanged.
    let rows = if models.len() == 1 {
        // One model: just that row of the client scorecard (the CI fault
        // matrix runs this once per model and diffs against a golden file).
        let rows = catching("faults", || {
            exp::faults::client_reliability(&env, seed, &models, oracle).map_err(|e| e.to_string())
        })?;
        outln!("{}", exp::faults::client_table(seed, &rows).render());
        rows
    } else {
        let out = catching("faults", || {
            exp::faults::run(&env, seed, oracle).map_err(|e| e.to_string())
        })?;
        outln!("{}", out.render());
        if let Some(reason) = out.failure() {
            return Err(reason);
        }
        out.models
    };
    if oracle {
        let mut summary = nvfs::oracle::OracleSummary::default();
        for (_, run) in &rows {
            summary.merge(&run.oracle);
        }
        outln!("{}", summary.verdict_json(seed));
        if summary.violations() > 0 {
            return Err(format!(
                "durability oracle found {} violation(s)",
                summary.violations()
            ));
        }
    }
    Ok(())
}

fn cmd_verify_crash(mut args: VecDeque<String>) -> Result<(), String> {
    let wal_only = take_switch(&mut args, "--wal");
    let (env, seed) = fault_study(&mut args, "verify-crash", &[])?;
    if wal_only {
        // The CI smoke path: just the WAL crash-point lattice, judged and
        // rendered with its own verdict line, diffed against a golden.
        let rows = catching("verify-crash", || {
            Ok::<_, String>(exp::verify_crash::wal_sweep(&env, seed))
        })?;
        out!("{}", exp::verify_crash::render_wal(seed, &rows));
        let violations = exp::verify_crash::wal_summary(&rows).violations();
        if violations > 0 {
            return Err(format!(
                "durability oracle found {violations} WAL violation(s)"
            ));
        }
        return Ok(());
    }
    let out = catching("verify-crash", || {
        exp::verify_crash::run(&env, seed).map_err(|e| e.to_string())
    })?;
    outln!("{}", out.render());
    out.failure().map_or(Ok(()), Err)
}

fn cmd_verify_net(mut args: VecDeque<String>) -> Result<(), String> {
    let (env, seed) = fault_study(&mut args, "verify-net", &[])?;
    let out = catching("verify-net", || exp::verify_net::run(&env, seed))?;
    outln!("{}", out.render());
    out.failure().map_or(Ok(()), Err)
}

fn cmd_verify_scrub(mut args: VecDeque<String>) -> Result<(), String> {
    let (env, seed) = fault_study(&mut args, "verify-scrub", &[])?;
    let out = catching("verify-scrub", || {
        exp::verify_scrub::run(&env, seed).map_err(|e| e.to_string())
    })?;
    outln!("{}", out.render());
    out.failure().map_or(Ok(()), Err)
}

fn cmd_experiments(mut args: VecDeque<String>) -> Result<(), String> {
    // `--list` prints the registry and exits before any workload is
    // generated; CI diffs this output against the ids in `nvfs help`.
    if take_switch(&mut args, "--list") {
        out!("{}", registry::list_text());
        return Ok(());
    }
    // `--only NAME` resolves before the (possibly expensive) environment
    // is built, so a typo fails fast with the full list of valid ids.
    let only = match take_flag(&mut args, "--only")? {
        Some(name) => Some(registry::find_or_suggest(&name)?),
        None => None,
    };
    let scale = parse_scale(&mut args)?;
    let env = scale.env();
    let ids: Vec<String> = match only {
        Some(entry) => vec![entry.name().to_string()],
        None if args.is_empty() => registry::default_entries()
            .map(|e| e.name().to_string())
            .collect(),
        None => args.into_iter().collect(),
    };
    note_config(&[
        ("command", "experiments"),
        ("scale", scale.name()),
        ("ids", &ids.join(",")),
    ]);
    let jobs = nvfs::par::jobs();
    // Independent experiment ids render in parallel; output is printed in
    // request order, so stdout is byte-identical to a sequential run (the
    // per-experiment jobs diagnostic goes to stderr for the same reason).
    let rendered = nvfs::par::par_map(ids, jobs, |id| {
        eprintln!("[{id}] jobs = {jobs}");
        run_experiment(&env, &id)
    });
    for text in rendered {
        out!("{}", text?);
    }
    Ok(())
}

/// Runs one registered experiment, mapping a failed verdict to an error.
fn run_experiment(env: &Env, id: &str) -> Result<String, String> {
    catching(id, || {
        let artifacts = registry::find_or_suggest(id)?.run(env)?;
        match artifacts.failure {
            Some(reason) => Err(reason),
            None => Ok(artifacts.text),
        }
    })
}

fn cmd_scorecard(mut args: VecDeque<String>) -> Result<(), String> {
    let scale = parse_scale(&mut args)?;
    reject_leftovers(&args, "scorecard")?;
    let env = scale.env();
    note_config(&[("command", "scorecard"), ("scale", scale.name())]);
    eprintln!("[scorecard] jobs = {}", nvfs::par::jobs());
    let artifacts = catching("scorecard", || {
        registry::find_or_suggest("scorecard")?.run(&env)
    })?;
    out!("{}", artifacts.text);
    artifacts.failure.map_or(Ok(()), Err)
}

fn cmd_export_csv(mut args: VecDeque<String>) -> Result<(), String> {
    let scale = parse_scale(&mut args)?;
    let out = PathBuf::from(take_flag(&mut args, "--out")?.ok_or("export-csv requires --out DIR")?);
    reject_leftovers(&args, "export-csv")?;
    let env = scale.env();
    note_config(&[("command", "export-csv"), ("scale", scale.name())]);
    fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let jobs = nvfs::par::jobs();
    eprintln!("[export-csv] jobs = {jobs}");
    // CSV-bearing entries are independent; compute all in parallel, then
    // write in the registry's fixed order so both the files and the log
    // lines match a sequential run byte for byte.
    let entries: Vec<(&str, &registry::Entry)> = registry::csv_entries().collect();
    let rendered = nvfs::par::par_map(entries, jobs, |(name, entry)| {
        entry.run(&env).map(|a| (name, a.csv))
    });
    for result in rendered {
        let (name, csv) = result?;
        let csv = csv.expect("an entry that names a CSV file exports one");
        let path: &Path = &out.join(name);
        fs::write(path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        outln!("wrote {}", path.display());
    }
    Ok(())
}

/// Stages timed by `nvfs bench`, in pass order.
const BENCH_STAGES: [&str; 8] = [
    "gen-traces",
    "fig2",
    "fig3",
    "tab3",
    "wal",
    "scrub",
    "verify-net",
    "scorecard",
];

fn cmd_bench(mut args: VecDeque<String>) -> Result<(), String> {
    use nvfs::par::bench;
    use nvfs::trace::synth::lfs_workload::sprite_server_workloads;

    let scale = parse_scale(&mut args)?;
    let (cfg, server_cfg) = (scale.trace_config(), scale.server_config());
    let out = PathBuf::from(take_flag(&mut args, "--out")?.unwrap_or_else(|| "BENCH.json".into()));
    let iters: usize = match take_flag(&mut args, "--iters")? {
        Some(v) => v
            .parse()
            .map_err(|e| format!("--iters {v:?}: {e}"))
            .and_then(|n: usize| {
                if n == 0 {
                    Err("--iters must be at least 1".to_string())
                } else {
                    Ok(n)
                }
            })?,
        None => 1,
    };
    let profile = take_switch(&mut args, "--profile");
    reject_leftovers(&args, "bench")?;
    note_config(&[("command", "bench"), ("scale", scale.name())]);

    let parallel = nvfs::par::jobs();
    let passes: &[usize] = if parallel == 1 { &[1] } else { &[1, parallel] };
    let rev = nvfs::obs::manifest::git_rev();
    let mut records = Vec::new();
    let mut reference: Option<String> = None;
    for iter in 1..=iters {
        for &jobs in passes {
            nvfs::par::set_jobs(jobs);
            eprintln!("[bench] pass with jobs = {jobs} (iteration {iter}/{iters})");
            let mut pass = Vec::new();
            let traces = bench::timed(&mut pass, BENCH_STAGES[0], jobs, || {
                SpriteTraceSet::generate(&cfg)
            });
            let env = Env {
                traces,
                server: sprite_server_workloads(&server_cfg),
                trace_config: cfg.clone(),
            };
            let f2 = bench::timed(&mut pass, BENCH_STAGES[1], jobs, || exp::fig2::run(&env));
            let f3 = bench::timed(&mut pass, BENCH_STAGES[2], jobs, || exp::fig3::run(&env));
            let t3 = bench::timed(&mut pass, BENCH_STAGES[3], jobs, || exp::tab3::run(&env));
            let wal = bench::timed(&mut pass, BENCH_STAGES[4], jobs, || {
                exp::lfs_wal_vs_buffer::run(&env)
            });
            let scrub = bench::timed(&mut pass, BENCH_STAGES[5], jobs, || {
                exp::scrub_overhead::run(&env, exp::faults::DEFAULT_SEED)
            })
            .map_err(|e| e.to_string())?;
            let net = bench::timed(&mut pass, BENCH_STAGES[6], jobs, || {
                exp::verify_net::run(&env, exp::faults::DEFAULT_SEED)
            })?;
            let card = bench::timed(&mut pass, BENCH_STAGES[7], jobs, || {
                exp::scorecard::run(&env)
            });
            bench::annotate(&mut pass, scale.name(), &rev, iter);
            records.append(&mut pass);
            // Determinism gate: the rendered artifacts (traces included)
            // must be byte-identical across job counts and repetitions.
            // Streamed through the workspace's canonical digest instead of
            // holding concatenated renders.
            let mut digest = nvfs::obs::digest::Digest::new();
            digest.update(&render_ops(env.traces.trace(0).ops()));
            digest.update(&f2.figure.render());
            digest.update(&f3.figure.render());
            digest.update(&t3.table.render());
            digest.update(&wal.table.render());
            digest.update(&scrub.table().render());
            digest.update(&net.render());
            digest.update(&card.table.render());
            let digest = digest.hex();
            match &reference {
                None => reference = Some(digest),
                Some(first) if *first == digest => {}
                Some(_) => {
                    return Err(format!(
                        "jobs={jobs} produced different artifacts than jobs=1"
                    ));
                }
            }
        }
    }
    // Restore the requested job count for any later work in this process.
    nvfs::par::set_jobs(parallel);

    fs::write(&out, bench::to_json(&records))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    outln!("wrote {}", out.display());
    for r in &records {
        outln!(
            "  {:<12} jobs={:<3} iter={:<3} {:>10.1} ms",
            r.name,
            r.jobs,
            r.iter,
            r.wall_ms
        );
    }
    if profile {
        outln!("{}", render_profile());
    }
    Ok(())
}

/// Aggregates every observability span record so far by name: call count
/// (each record counts the spans folded into it), total inclusive wall,
/// and total **exclusive** wall (the column that sums to real elapsed time
/// without double-billing nested phases). Sorted by exclusive time,
/// heaviest first.
fn render_profile() -> String {
    use std::collections::BTreeMap;
    let mut by_name: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for span in nvfs::obs::timing::spans() {
        let slot = by_name.entry(span.name).or_insert((0, 0.0, 0.0));
        slot.0 += span.count;
        slot.1 += span.wall_ms;
        slot.2 += span.excl_ms;
    }
    let mut rows: Vec<(String, (u64, f64, f64))> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2).then_with(|| a.0.cmp(&b.0)));
    let mut out = String::from("profile (per-phase, aggregated):\n");
    let _ = writeln!(
        out,
        "  {:<24} {:>6} {:>12} {:>12}",
        "phase", "calls", "wall ms", "excl ms"
    );
    for (name, (calls, wall, excl)) in &rows {
        let _ = writeln!(out, "  {name:<24} {calls:>6} {wall:>12.1} {excl:>12.1}");
    }
    out.trim_end().to_string()
}

fn cmd_obs(mut args: VecDeque<String>) -> Result<(), String> {
    let usage = "usage: nvfs obs show FILE | nvfs obs diff A B";
    let sub = args.pop_front().ok_or(usage)?;
    let read = |path: &str| -> Result<String, String> {
        fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    match sub.as_str() {
        "show" => {
            let path = args.pop_front().ok_or(usage)?;
            let summary = nvfs::obs::manifest::render_summary(&read(&path)?)
                .map_err(|e| format!("{path}: {e}"))?;
            outln!("{summary}");
            Ok(())
        }
        "diff" => {
            let a = args.pop_front().ok_or(usage)?;
            let b = args.pop_front().ok_or(usage)?;
            let report = nvfs::obs::manifest::diff(&read(&a)?, &read(&b)?)?;
            outln!("{}", report.render().trim_end());
            if report.runs_match {
                Ok(())
            } else {
                Err(format!("run sections differ: {a} vs {b}"))
            }
        }
        other => Err(format!("unknown obs subcommand {other:?}\n{usage}")),
    }
}
