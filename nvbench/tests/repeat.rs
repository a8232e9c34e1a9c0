//! Every per-layer count and every simulated metric repeats exactly: twice
//! at one worker thread and once at two, on each workload's reduced grid.

use std::process::Command;

use nvbench::run::{is_simulated, PER_LAYER};
use nvbench::stats::Json;
use nvbench::workloads::Workload;

/// Runs the benchmark binary and returns its result line and digest.
fn run(workload: Workload, jobs: u32, trace: bool) -> (Json, String) {
    let spans = std::env::temp_dir().join(format!(
        "nvbench-repeat-{}-{}-{jobs}.json",
        workload.name(),
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_nvbench"))
        .args([
            "--workload",
            workload.name(),
            "--grid",
            "reduced",
            "--seconds",
            "0",
        ])
        .args([
            "--jobs",
            &jobs.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--spans-out", spans.to_str().expect("temp path is UTF-8")])
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_file(&spans);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{} failed:\n{stdout}",
        workload.name()
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .expect("a digest line")
        .to_string();
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    (result, digest)
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::num)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn counts_and_simulated_metrics_repeat_across_runs_and_job_counts() {
    for w in Workload::ALL {
        let (layers, digest) = run(w, 1, true);
        for (again, jobs) in [(run(w, 1, true), 1), (run(w, 2, true), 2)] {
            assert_eq!(again.1, digest, "{}: digest at --jobs {jobs}", w.name());
            for (name, unit) in PER_LAYER.iter().filter(|(n, u)| is_simulated(n, u)) {
                assert_eq!(
                    value(&again.0, name).to_bits(),
                    value(&layers, name).to_bits(),
                    "{}: {name} ({unit}) at --jobs {jobs}",
                    w.name()
                );
            }
        }
        let (e2e_1, d1) = run(w, 1, false);
        let (e2e_2, d2) = run(w, 2, false);
        assert_eq!(
            (&d1, &d2),
            (&digest, &digest),
            "{}: timed-run digests",
            w.name()
        );
        assert_eq!(
            value(&e2e_1, "net_write_pct").to_bits(),
            value(&e2e_2, "net_write_pct").to_bits(),
            "{}: net_write_pct",
            w.name()
        );
    }
}
