//! Steadiness mode: runs one workload N times, each in its own process,
//! and prints per metric the median, the quartiles and IQR ÷ median — the
//! spread a metric's bound must cover.
//!
//! By default run i uses seed S+i, so the spread mixes the inputs' variance
//! with the machine's; `--seeds same` repeats seed S on every run, so the
//! spread is the machine's alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::Command;

use crate::cli::parse_run_args_with;
use crate::stats::{quartiles, Json};

/// Runs the steadiness mode; returns the exit code.
pub fn main(args: &[String]) -> Result<i32, String> {
    let mut runs = 5u64;
    let mut out_path: Option<String> = None;
    let mut same_seed = false;
    let base = parse_run_args_with(args, |flag, value| match flag {
        "--runs" => {
            runs = value
                .parse()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("--runs: a positive integer expected, got {value:?}"))?;
            Ok(true)
        }
        "--out" => {
            out_path = Some(value.to_string());
            Ok(true)
        }
        "--seeds" => {
            same_seed = match value {
                "distinct" => false,
                "same" => true,
                _ => return Err(format!("--seeds: distinct or same expected, got {value:?}")),
            };
            Ok(true)
        }
        _ => Ok(false),
    })?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut out_file = match &out_path {
        Some(p) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map_err(|e| format!("{p}: {e}"))?,
        ),
        None => None,
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut code = 0;
    for i in 0..runs {
        let seed = if same_seed {
            base.seed
        } else {
            base.seed.wrapping_add(i)
        };
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            base.workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &base.seconds.to_string(),
            "--trace",
            if base.trace { "1" } else { "0" },
            "--jobs",
            &base.jobs.to_string(),
            "--grid",
            match base.grid {
                crate::workloads::Grid::Full => "full",
                crate::workloads::Grid::Reduced => "reduced",
            },
        ]);
        let output = cmd
            .output()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let result = Json::parse(line).map_err(|e| format!("seed {seed}: bad result line: {e}"))?;
        if !output.status.success() {
            eprintln!("seed {seed}: run failed ({})", output.status);
            code = 1;
        }
        if let Some(f) = out_file.as_mut() {
            writeln!(
                f,
                "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"result\": {line}}}",
                base.workload.name(),
                u8::from(base.trace)
            )
            .map_err(|e| format!("writing results: {e}"))?;
        }
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let unit = m.get("unit").and_then(Json::str).unwrap_or("").to_string();
                if let Some(v) = m.get("value").and_then(Json::num) {
                    values
                        .entry(name.clone())
                        .or_insert((unit, Vec::new()))
                        .1
                        .push(v);
                }
            }
        }
        eprintln!("seed {seed}: done");
    }
    let seeds = if same_seed {
        format!("seed {} every run", base.seed)
    } else {
        format!("seeds {}..{}", base.seed, base.seed.wrapping_add(runs - 1))
    };
    println!(
        "{} x{runs} ({seeds}), {} s each:",
        base.workload.name(),
        base.seconds
    );
    println!(
        "  {:<36} {:>14} {:>14} {:>14} {:>10}  unit",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for (name, (unit, v)) in &values {
        let (q1, med, q3) = quartiles(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("  {name:<36} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>10.4}  {unit}");
    }
    Ok(code)
}
