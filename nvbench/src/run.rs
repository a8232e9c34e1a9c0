//! One benchmark run: set-up, the timed phase, the checks, and either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, Digest};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    self, check_pass, run_cell, run_twin, twins, Cell, CellOut, Counts, Grid, Inputs, Twin,
    Workload, DEFAULT_SEED,
};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed phase repeats the grid for (at least one pass).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Worker threads.
    pub jobs: usize,
    /// Grid size.
    pub grid: Grid,
    /// Where the traced run writes its spans.
    pub spans_out: Option<String>,
}

/// One metric as printed in the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Cells attempted over all passes.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Every failure message.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest form that reads back exactly.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The outputs of one pass over the grid.
struct Pass {
    wall_ms: f64,
    outs: Vec<CellOut>,
    /// Per worker thread, when its last cell ended (ms into the pass).
    worker_done_ms: Vec<f64>,
    digest: u64,
}

fn run_pass(inputs: &Inputs, cells: &[Cell], jobs: usize, tracer: &Tracer) -> Pass {
    let start = Instant::now();
    let done: std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, f64>> =
        Default::default();
    let outs = tracer.span("bench.pass", None, None, |pass| {
        let indexed: Vec<(usize, &Cell)> = cells.iter().enumerate().collect();
        nvfs_par::par_map(indexed, jobs, |(i, cell)| {
            let out = tracer.span("bench.cell", pass, Some(i), |parent| {
                run_cell(inputs, cell, i, tracer, parent)
            });
            let end = start.elapsed().as_secs_f64() * 1e3;
            let mut d = done.lock().expect("worker clock poisoned");
            let t = d.entry(std::thread::current().id()).or_insert(0.0);
            *t = t.max(end);
            out
        })
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Pass {
        wall_ms,
        digest: digest_of(&outs),
        outs,
        worker_done_ms: done
            .into_inner()
            .expect("worker clock poisoned")
            .into_values()
            .collect(),
    }
}

fn digest_of(outs: &[CellOut]) -> u64 {
    let mut d = Digest::default();
    for o in outs {
        d.u64(o.digest);
    }
    d.value()
}

/// The twin pass of a traced run: every cell of the grid once more, fanned
/// out at `--jobs` like any pass, each beside the twins that isolate one
/// layer's cost by difference. A cell and its twins run back to back on
/// the same worker, in alternating order, while the other worker runs
/// another cell: both sides of a difference run under the conditions of a
/// timed pass. Returns the pass (for the checks) and the twins' counts.
fn twin_pass(
    inputs: &Inputs,
    cells: &[Cell],
    twins: Vec<Vec<Twin>>,
    digests: &[u64],
    jobs: usize,
    tracer: &Tracer,
) -> (Pass, Vec<Result<Counts, String>>) {
    let start = Instant::now();
    let results = tracer.span("bench.twin_pass", None, None, |pass| {
        let indexed: Vec<(usize, Vec<Twin>)> = twins.into_iter().enumerate().collect();
        nvfs_par::par_map(indexed, jobs, |(i, twins)| {
            tracer.span("bench.cell", pass, Some(i), |parent| {
                let run_twins = || -> Vec<_> {
                    twins
                        .iter()
                        .map(|&t| run_twin(inputs, cells, i, digests[i], t, tracer, parent))
                        .collect()
                };
                if i % 2 == 0 {
                    let out = run_cell(inputs, &cells[i], i, tracer, parent);
                    (out, run_twins())
                } else {
                    let twinned = run_twins();
                    (run_cell(inputs, &cells[i], i, tracer, parent), twinned)
                }
            })
        })
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (outs, twinned): (Vec<CellOut>, Vec<_>) = results.into_iter().unzip();
    let pass = Pass {
        wall_ms,
        digest: digest_of(&outs),
        outs,
        worker_done_ms: Vec::new(),
    };
    (pass, twinned.into_iter().flatten().collect())
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn read_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs set-up from scratch `reps` times (at least once); returns the last
/// inputs and the host seconds of each.
fn setup_reps(args: &RunArgs, reps: usize, tracer: &Tracer) -> Result<(Inputs, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut inputs = None;
    for _ in 0..reps.max(1) {
        // Drop the previous inputs first, so each set-up starts from the
        // same heap state and peak memory holds one copy.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(workloads::setup(
            args.workload,
            args.grid,
            args.seed,
            tracer,
        )?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((inputs.expect("at least one set-up"), times))
}

/// Runs the benchmark once.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    nvfs_par::set_jobs(args.jobs);
    let cells = workloads::cells(args.workload, args.grid);
    if args.trace {
        traced(args, &cells)
    } else {
        timed(args, &cells)
    }
}

/// Folds pass-level failures into the attempted/failed tally.
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: Option<u64>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: None,
        }
    }

    /// Tallies a warm-up pass over the first cells of the grid: only the
    /// per-cell checks apply to it.
    fn add_cells(&mut self, outs: &[CellOut]) -> u64 {
        self.attempted += outs.len() as u64;
        let mut failed = 0;
        for (i, o) in outs.iter().enumerate() {
            self.failures
                .extend(o.failures.iter().map(|f| format!("cell {i}: {f}")));
            failed += u64::from(!o.failures.is_empty());
        }
        self.failed += failed;
        failed
    }

    /// Tallies a pass over the whole grid: the per-cell checks, the checks
    /// across cells, and the digest.
    fn add(&mut self, args: &RunArgs, cells: &[Cell], pass: &Pass) {
        let failed = self.add_cells(&pass.outs);
        let cross = check_pass(args.workload, cells, &pass.outs);
        let expected = match self.digest {
            Some(d) => Some(d),
            None if args.seed == DEFAULT_SEED && args.grid == Grid::Full => {
                Some(args.workload.recorded_digest())
            }
            None => None,
        };
        let mismatch = expected.filter(|&e| e != pass.digest);
        if let Some(expected) = mismatch {
            self.failures.push(format!(
                "digest {:016x} differs from the expected {expected:016x}",
                pass.digest
            ));
        }
        if !cross.is_empty() || mismatch.is_some() {
            // A shape broken across cells, or outputs that differ from
            // another pass over the same inputs (or from the recorded
            // default-seed outputs): no cell of the pass can be trusted.
            self.failed += pass.outs.len() as u64 - failed;
        }
        self.failures.extend(cross);
        self.digest.get_or_insert(pass.digest);
    }
}

/// Runs the first cell of each worker once, untimed, so the timed passes
/// find the allocator's arenas and the caches warm.
fn warm_up(inputs: &Inputs, cells: &[Cell], jobs: usize, tally: &mut Tally) {
    let warm = run_pass(
        inputs,
        &cells[..jobs.min(cells.len())],
        jobs,
        &Tracer::new(false),
    );
    tally.add_cells(&warm.outs);
}

fn timed(args: &RunArgs, cells: &[Cell]) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let (inputs, mut setup_s) = setup_reps(args, 1, &off)?;
    let mut tally = Tally::new();
    warm_up(&inputs, cells, args.jobs, &mut tally);
    let mut passes = Vec::new();
    let mut peak_rss_mb = None;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(&inputs, cells, args.jobs, &off);
        tally.add(args, cells, &pass);
        passes.push(pass);
        // Peak memory of one set-up and one pass over the grid. Every
        // further pass, and every further set-up, fragments the two
        // workers' heaps a little more, and how many of them fit in the
        // timed phase depends on the machine's speed.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(read_peak_rss_mb()?);
        }
    }
    let peak_rss_mb = peak_rss_mb.expect("at least one timed pass");
    drop(inputs);
    let (_, more) = setup_reps(args, args.workload.setup_reps() - 1, &off)?;
    setup_s.extend(more);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms / 1e3).collect();
    let wall_s = median(&walls);
    let first = &passes[0];
    let ops: u64 = first.outs.iter().map(|o| o.ops).sum();
    let app: u64 = first.outs.iter().map(|o| o.app_write_bytes).sum();
    let next: u64 = first.outs.iter().map(|o| o.next_write_bytes).sum();
    let (acks, fsync_ns) = first
        .outs
        .iter()
        .fold((0, 0.0), |(a, n), o| (a + o.fsync_acks, n + o.fsync_ns));
    let failed_pct = 100.0 * tally.failed as f64 / tally.attempted as f64;

    println!(
        "workload {} seed {} jobs {} grid {:?}: {} cells x {} passes, {} sim ops per pass",
        args.workload.name(),
        args.seed,
        args.jobs,
        args.grid,
        cells.len(),
        passes.len(),
        ops
    );
    println!("digest {:016x}", tally.digest.unwrap_or(0));
    println!(
        "pass walls (s): {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "setups: {} in {:.3} s, median {:.4} s",
        setup_s.len(),
        setup_s.iter().sum::<f64>(),
        median(&setup_s)
    );
    println!(
        "first pass cells (ms / sim ops): {}",
        first
            .outs
            .iter()
            .map(|o| format!("{:.0}/{}", o.host_ms, o.ops))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("failed_pct {failed_pct:.3} %");
    if acks > 0 {
        println!(
            "fsync_ms_sim {:.6} ms (sim) over {acks} acknowledged fsyncs",
            fsync_ns / acks as f64 / 1e6
        );
    }
    for f in &tally.failures {
        println!("FAILED {f}");
    }

    let metrics = vec![
        Metric {
            name: "wall_s",
            value: wall_s,
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: ops as f64 / wall_s,
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
        Metric {
            name: "passed_pct",
            value: 100.0 - failed_pct,
            unit: "%",
        },
        Metric {
            name: "net_write_pct",
            value: 100.0 * next as f64 / app.max(1) as f64,
            unit: "%",
        },
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        failures: tally.failures,
    })
}

/// Per-layer metrics of the result line, in order, with their units.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("trace.gen_ms", "ms"),
    ("trace.ops", "count"),
    ("cell.count", "count"),
    ("cell.p50_ms", "ms"),
    ("cell.max_ms", "ms"),
    ("cell.ns_per_op", "ns"),
    ("par.busy_pct", "%"),
    ("par.wait_ms", "ms"),
    ("par.straggler_ms", "ms"),
    ("obs.overhead_pct", "%"),
    ("trace.generate.share_pct", "%"),
    ("trace.server_workloads.share_pct", "%"),
    ("faults.compile.share_pct", "%"),
    ("core.run.share_pct", "%"),
    ("core.run_omniscient.share_pct", "%"),
    ("core.run_with_faults_verified.share_pct", "%"),
    ("core.run_with_net_faults_verified.share_pct", "%"),
    ("core.run_with_corruption_verified.share_pct", "%"),
    ("lfs.run_server.share_pct", "%"),
    ("lfs.run_server_wal.share_pct", "%"),
    ("disk.disk_time.share_pct", "%"),
    ("bench.share_pct", "%"),
    ("omniscient.build_pct", "%"),
    ("policy.extra_pct", "%"),
    ("shard.speedup", "x"),
    ("oracle.judge_pct", "%"),
    ("net.rpc_pct", "%"),
    ("scrub.cost_pct", "%"),
    ("omniscient.blocks", "count"),
    ("policy.evictions", "count"),
    ("session.ops", "count"),
    ("client.nvram_accesses", "count"),
    ("client.read_hit_pct", "%"),
    ("client.writeback_bytes", "bytes"),
    ("client.replacement_bytes", "bytes"),
    ("consistency.callback_bytes", "bytes"),
    ("consistency.concurrent_write_bytes", "bytes"),
    ("faults.client_crashes", "count"),
    ("faults.bytes_lost", "bytes"),
    ("oracle.crashes_judged", "count"),
    ("net.requests", "count"),
    ("net.useful_pct", "%"),
    ("scrub.blocks_scanned", "count"),
    ("scrub.bytes_detected", "bytes"),
    ("scrub.bytes_silent", "bytes"),
    ("lfs.segments_written", "count"),
    ("lfs.segments_partial", "count"),
    ("wal.appended", "count"),
    ("wal.forced_segments", "count"),
    ("fsync_ms_sim", "sim_ms"),
];

/// Whether a per-layer metric is a count of simulated work, which must
/// repeat exactly across runs and job counts (the rest are host times).
pub fn is_simulated(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "sim_ms")
        || matches!(name, "client.read_hit_pct" | "net.useful_pct")
}

fn traced(args: &RunArgs, cells: &[Cell]) -> Result<Outcome, String> {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let run_start = Instant::now();
    let (inputs, _) = setup_reps(args, 1, &tracer)?;
    let mut tally = Tally::new();
    warm_up(&inputs, cells, args.jobs, &mut tally);
    // Untraced and traced passes alternate, so the tracing overhead is
    // measured against passes made under the same machine conditions.
    let (mut plain, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first_traced: Option<Pass> = None;
    let mut par_samples = Vec::new();
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let p = run_pass(&inputs, cells, args.jobs, &off);
        tally.add(args, cells, &p);
        let busy: f64 = p.outs.iter().map(|o| o.host_ms).sum();
        let earliest_done = p
            .worker_done_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        par_samples.push((
            100.0 * busy / (p.wall_ms * args.jobs as f64),
            p.wall_ms * args.jobs as f64 - busy,
            p.wall_ms - earliest_done,
        ));
        plain.push(p.wall_ms);
        let t = run_pass(&inputs, cells, args.jobs, &tracer);
        tally.add(args, cells, &t);
        traced_walls.push(t.wall_ms);
        first_traced.get_or_insert(t);
    }
    let pass = first_traced.expect("at least one traced pass");
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for o in &pass.outs {
        for (k, v) in &o.counts {
            *counts.entry(k).or_insert(0) += v;
        }
    }
    let digests: Vec<u64> = pass.outs.iter().map(|o| o.digest).collect();
    // The self-time table covers the workload's own calls; the twin pass
    // is reported only through the differences it isolates.
    let own_spans = tracer.spans().len();
    let (twinned, twin_counts) = twin_pass(
        &inputs,
        cells,
        twins(args.workload, cells),
        &digests,
        args.jobs,
        &tracer,
    );
    tally.add(args, cells, &twinned);
    for result in twin_counts {
        match result {
            Ok(c) => {
                for (k, v) in c {
                    *counts.entry(k).or_insert(0) += v;
                }
            }
            Err(e) => {
                tally.failures.push(e);
                tally.failed += 1;
            }
        }
    }
    let run_ms = run_start.elapsed().as_secs_f64() * 1e3;
    let spans = tracer.spans();
    if let Some(path) = &args.spans_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, trace::to_json(&spans)).map_err(|e| format!("{path}: {e}"))?;
    }

    let cell_ms: Vec<f64> = pass.outs.iter().map(|o| o.host_ms).collect();
    let ops: u64 = pass.outs.iter().map(|o| o.ops).sum();
    let (acks, fsync_ns) = pass
        .outs
        .iter()
        .fold((0, 0.0), |(a, n), o| (a + o.fsync_acks, n + o.fsync_ns));
    let entries = entry_table(&spans[..own_spans]);
    let total_self: f64 = entries.values().map(|t| t.self_ms).sum();
    let derived = Derived::from_twin_pass(&spans[own_spans..], cells);
    let hit = counts.get("client.read_hit_blocks").copied().unwrap_or(0);
    let miss = counts.get("client.read_miss_blocks").copied().unwrap_or(0);
    let requests = counts.get("net.requests").copied().unwrap_or(0);
    let retries = counts.get("net.retries").copied().unwrap_or(0);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert(
        "trace.gen_ms",
        trace::total_ms(&spans, "trace.generate")
            + trace::total_ms(&spans, "trace.server_workloads"),
    );
    values.insert("trace.ops", inputs.generated_ops() as f64);
    values.insert("cell.count", cells.len() as f64);
    values.insert("cell.p50_ms", median(&cell_ms));
    values.insert("cell.max_ms", cell_ms.iter().copied().fold(0.0, f64::max));
    values.insert(
        "cell.ns_per_op",
        1e6 * cell_ms.iter().sum::<f64>() / ops.max(1) as f64,
    );
    values.insert(
        "par.busy_pct",
        median(&par_samples.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    values.insert(
        "par.wait_ms",
        median(&par_samples.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    values.insert(
        "par.straggler_ms",
        median(&par_samples.iter().map(|s| s.2).collect::<Vec<_>>()),
    );
    let (plain_ms, traced_ms) = (median(&plain), median(&traced_walls));
    values.insert(
        "obs.overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
    );
    for (name, _) in PER_LAYER {
        if let Some(l) = name.strip_suffix(".share_pct") {
            let own = entries.get(l).map_or(0.0, |t| t.self_ms);
            values.insert(name, pct(own, total_self));
        }
    }
    values.insert(
        "omniscient.build_pct",
        pct(derived.build_ms, derived.omniscient_ms),
    );
    values.insert(
        "policy.extra_pct",
        pct(derived.policy_extra_ms(), derived.omniscient_ms),
    );
    values.insert(
        "shard.speedup",
        if derived.sharded_ms > 0.0 {
            derived.serial_ms / derived.sharded_ms
        } else {
            0.0
        },
    );
    values.insert(
        "oracle.judge_pct",
        pct(derived.faults_ms - derived.unjudged_ms, derived.faults_ms),
    );
    values.insert(
        "net.rpc_pct",
        pct(derived.net_ms - derived.faults_ms, derived.faults_ms),
    );
    values.insert(
        "scrub.cost_pct",
        pct(derived.corruption_ms - derived.faults_ms, derived.faults_ms),
    );
    values.insert("client.read_hit_pct", pct(hit as f64, (hit + miss) as f64));
    values.insert(
        "net.useful_pct",
        pct(requests as f64, (requests + retries) as f64),
    );
    values.insert(
        "fsync_ms_sim",
        if acks > 0 {
            fsync_ns / acks as f64 / 1e6
        } else {
            0.0
        },
    );
    for (name, _) in PER_LAYER {
        if !values.contains_key(name) {
            values.insert(name, count(name));
        }
    }

    print_report(
        args, &entries, total_self, run_ms, &derived, &counts, &values, plain_ms, traced_ms,
    );
    println!("digest {:016x}", tally.digest.unwrap_or(0));
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values[name],
            unit,
        })
        .collect();
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        failures: tally.failures,
    })
}

/// Self time and calls per entry point. A span covers one call into an
/// entry point and everything below it, so a row is that call's time, not
/// one layer's: layers below an entry point are isolated only by the twin
/// differences. The harness's own spans fold into one `bench` row.
fn entry_table(spans: &[Span]) -> BTreeMap<&'static str, trace::NameTotals> {
    let mut out: BTreeMap<&'static str, trace::NameTotals> = BTreeMap::new();
    for (name, t) in trace::by_name(spans) {
        let row = if name.starts_with("bench.") {
            "bench"
        } else {
            name
        };
        let e = out.entry(row).or_default();
        e.self_ms += t.self_ms;
        e.calls += t.calls;
    }
    out
}

/// Layer costs isolated by the difference between a cell and its twin.
#[derive(Debug, Default)]
struct Derived {
    /// Omniscient cells, ms.
    omniscient_ms: f64,
    /// Their LRU twins, ms.
    lru_ms: f64,
    /// Schedule builds, one per omniscient cell's trace, ms.
    build_ms: f64,
    /// Sharded client cells (`ClusterSim::run` under LRU), ms.
    sharded_ms: f64,
    /// Their serial twins, ms.
    serial_ms: f64,
    /// Judged crash cells, ms.
    faults_ms: f64,
    /// Their unjudged twins, ms.
    unjudged_ms: f64,
    /// Judged network cells, ms.
    net_ms: f64,
    /// Judged corruption cells, ms.
    corruption_ms: f64,
}

impl Derived {
    /// Reads the differences off the spans of the twin pass.
    fn from_twin_pass(spans: &[Span], cells: &[Cell]) -> Derived {
        let total = |name| trace::total_ms(spans, name);
        // Every omniscient cell builds the schedule of its own stream, and
        // every stream has as many omniscient cells as the grid has NVRAM
        // sizes: the cells' builds cost the average twin build each.
        let builds = spans
            .iter()
            .filter(|s| s.name == "twin.schedule_build")
            .count();
        let omniscient_cells = cells
            .iter()
            .filter(|c| {
                matches!(
                    c,
                    Cell::Client {
                        policy: nvfs_core::PolicyKind::Omniscient,
                        ..
                    }
                )
            })
            .count();
        let build_ms = if builds > 0 {
            total("twin.schedule_build") * omniscient_cells as f64 / builds as f64
        } else {
            0.0
        };
        Derived {
            omniscient_ms: total("core.run_omniscient"),
            lru_ms: total("twin.lru"),
            build_ms,
            sharded_ms: if total("twin.serial") > 0.0 {
                total("core.run")
            } else {
                0.0
            },
            serial_ms: total("twin.serial"),
            faults_ms: total("core.run_with_faults_verified"),
            unjudged_ms: total("twin.unjudged"),
            net_ms: total("core.run_with_net_faults_verified"),
            corruption_ms: total("core.run_with_corruption_verified"),
        }
    }

    fn policy_extra_ms(&self) -> f64 {
        self.omniscient_ms - self.lru_ms - self.build_ms
    }
}

/// `part` as a percentage of `whole` (0 when there is no whole).
fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

#[allow(clippy::too_many_arguments)]
fn print_report(
    args: &RunArgs,
    entries: &BTreeMap<&'static str, trace::NameTotals>,
    total_self: f64,
    run_ms: f64,
    derived: &Derived,
    counts: &BTreeMap<&'static str, u64>,
    values: &BTreeMap<&'static str, f64>,
    plain_ms: f64,
    traced_ms: f64,
) {
    println!(
        "traced run: workload {} seed {} jobs {} grid {:?}, {:.1} ms",
        args.workload.name(),
        args.seed,
        args.jobs,
        args.grid,
        run_ms
    );
    println!(
        "where the time went (self time per entry point of set-up and the traced passes, largest first):"
    );
    println!(
        "  {:<36} {:>12} {:>8} {:>8}",
        "entry point", "self ms", "calls", "share"
    );
    let mut rows: Vec<_> = entries.iter().collect();
    rows.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
    for (name, t) in rows {
        println!(
            "  {:<36} {:>12.1} {:>8} {:>7.1}%",
            name,
            t.self_ms,
            t.calls,
            100.0 * t.self_ms / total_self.max(1e-9)
        );
    }
    println!(
        "obs.overhead_pct {:.2} % (traced pass {:.1} ms vs untraced {:.1} ms)",
        values["obs.overhead_pct"], traced_ms, plain_ms
    );
    let d = derived;
    let evictions = counts.get("policy.evictions").copied().unwrap_or(0);
    let lines: [(&str, f64, bool); 8] = [
        ("omniscient.build_ms", d.build_ms, d.omniscient_ms > 0.0),
        (
            "policy.extra_ms",
            d.policy_extra_ms(),
            d.omniscient_ms > 0.0,
        ),
        (
            "policy.us_per_eviction",
            1e3 * d.policy_extra_ms() / evictions.max(1) as f64,
            d.omniscient_ms > 0.0,
        ),
        ("session.serial_ms", d.serial_ms, d.serial_ms > 0.0),
        ("session.sharded_ms", d.sharded_ms, d.serial_ms > 0.0),
        (
            "oracle.judge_ms",
            d.faults_ms - d.unjudged_ms,
            d.faults_ms > 0.0,
        ),
        ("net.rpc_ms", d.net_ms - d.faults_ms, d.faults_ms > 0.0),
        ("scrub.ms", d.corruption_ms - d.faults_ms, d.faults_ms > 0.0),
    ];
    println!("layer costs isolated by twin calls:");
    for (name, v, shown) in lines {
        if shown {
            println!("  {name:<24} {v:>12.3}");
        }
    }
    println!("per-layer metrics:");
    for (name, unit) in PER_LAYER {
        println!("  {name:<44} {:>16.4} {unit}", values[name]);
    }
}
