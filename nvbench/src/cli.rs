//! Command-line front end.
//!
//! ```text
//! nvbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--jobs J]
//!         [--grid full|reduced] [--spans-out PATH]
//! nvbench steady --workload W [--runs N] [--seed N] [--seeds distinct|same] [--seconds S] [--trace 0|1]
//!         [--out FILE]
//! nvbench compare PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]
//! ```

use crate::run::{run, RunArgs};
use crate::workloads::{Grid, Workload, DEFAULT_SEED};

/// Worker threads when `--jobs` is not given.
pub const DEFAULT_JOBS: usize = 2;

/// Seconds of the timed phase when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Parses `args` and runs the chosen mode; returns the exit code.
pub fn main(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("steady") => crate::steady::main(&args[1..]),
        Some("compare") => crate::compare::main(&args[1..]),
        Some("-h" | "--help") => {
            println!("{}", USAGE);
            Ok(0)
        }
        _ => {
            let run_args = parse_run_args(args)?;
            let outcome = run(&run_args)?;
            println!("{}", outcome.json());
            Ok(if outcome.failed == 0 && outcome.failures.is_empty() {
                0
            } else {
                1
            })
        }
    }
}

const USAGE: &str = "usage:
  nvbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--jobs J] [--grid full|reduced] [--spans-out PATH]
  nvbench steady --workload W [--runs N] [--seed N] [--seeds distinct|same] [--seconds S] [--trace 0|1] [--out FILE]
  nvbench compare PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]
workloads: omniscient-sweep, cache-models, durability, server-log";

/// Options shared by the run and steadiness modes; `extra` receives any
/// flag this parser does not know, with its value.
pub fn parse_run_args_with(
    args: &[String],
    mut extra: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut out = RunArgs {
        workload: Workload::OmniscientSweep,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        jobs: DEFAULT_JOBS,
        grid: Grid::Full,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {what} expected, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => out.seed = num("an unsigned integer")?,
            "--seconds" => {
                out.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("--seconds: a non-negative number expected, got {value:?}")
                    })?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: 0 or 1 expected, got {value:?}")),
                }
            }
            "--jobs" => {
                out.jobs = usize::try_from(num("a positive integer")?)
                    .ok()
                    .filter(|j| *j >= 1)
                    .ok_or("--jobs: a positive integer expected")?
            }
            "--grid" => out.grid = Grid::parse(value)?,
            "--spans-out" => out.spans_out = Some(value.clone()),
            other => {
                if !extra(other, value)? {
                    return Err(format!("unknown flag {other}\n{USAGE}"));
                }
            }
        }
    }
    out.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if out.trace && out.spans_out.is_none() {
        out.spans_out = Some(format!(
            ".bench_out/spans-{}-seed{}.json",
            out.workload.name(),
            out.seed
        ));
    }
    Ok(out)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    parse_run_args_with(args, |_, _| Ok(false))
}
