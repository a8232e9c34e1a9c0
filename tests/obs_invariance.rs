//! Observability determinism: metric snapshots, event traces, and manifest
//! `run` sections must be byte-identical at any `--jobs` count, and the
//! tiny fault-matrix manifest must match the golden copy checked into
//! `tests/golden/`.
//!
//! Job counts are compared across *processes* (the obs registry is
//! process-global), driving the real binary exactly as CI does.

use std::path::PathBuf;
use std::process::{Command, Output};

fn nvfs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nvfs"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvfs-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs the tiny fault matrix with obs outputs enabled, returning
/// `(stdout, trace JSONL, manifest text)`.
fn faults_run(dir: &std::path::Path, jobs: &str) -> (String, String, String) {
    let trace = dir.join(format!("trace-j{jobs}.jsonl"));
    let manifest = dir.join(format!("manifest-j{jobs}.json"));
    let out = nvfs(&[
        "--jobs",
        jobs,
        "--trace-out",
        trace.to_str().unwrap(),
        "--manifest-out",
        manifest.to_str().unwrap(),
        "faults",
        "--scale",
        "tiny",
        "--seed",
        "42",
    ]);
    assert!(
        out.status.success(),
        "jobs={jobs}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        std::fs::read_to_string(&trace).expect("trace written"),
        std::fs::read_to_string(&manifest).expect("manifest written"),
    )
}

/// Extracts the deterministic `run` section, rendered canonically.
fn run_section(manifest: &str) -> String {
    let (_, run) = nvfs::obs::manifest::parse_manifest(manifest).expect("manifest parses");
    run.to_string()
}

#[test]
fn jobs_do_not_change_metrics_or_events() {
    let dir = tempdir("jobs");
    let (stdout1, trace1, manifest1) = faults_run(&dir, "1");
    let (stdout8, trace8, manifest8) = faults_run(&dir, "8");

    assert_eq!(stdout1, stdout8, "stdout differs between jobs 1 and 8");
    assert_eq!(trace1, trace8, "event JSONL differs between jobs 1 and 8");
    assert!(!trace1.is_empty() && trace1.lines().count() > 100);
    assert_eq!(
        run_section(&manifest1),
        run_section(&manifest8),
        "manifest run sections differ between jobs 1 and 8"
    );

    // Every trace line is a JSON object with monotonically increasing seq
    // and nondecreasing t_us.
    let (mut seq, mut t) = (0u64, 0u64);
    for line in trace1.lines() {
        let v = nvfs::obs::json::parse(line).expect("trace line parses");
        assert_eq!(v.get("seq").and_then(|s| s.as_u64()), Some(seq));
        let t_us = v.get("t_us").and_then(|s| s.as_u64()).expect("t_us");
        assert!(t_us >= t, "t_us regressed at seq {seq}");
        (seq, t) = (seq + 1, t_us);
    }

    // `nvfs obs diff` agrees, and only flags volatile meta fields.
    let m1 = dir.join("manifest-j1.json");
    let m8 = dir.join("manifest-j8.json");
    let diff = nvfs(&["obs", "diff", m1.to_str().unwrap(), m8.to_str().unwrap()]);
    assert!(diff.status.success(), "obs diff rejected equal runs");
    let text = String::from_utf8_lossy(&diff.stdout);
    assert!(text.contains("run sections MATCH"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The scorecard is the widest fan-out in the pipeline (14 parts in task
/// frames, each fanning out its own sessions over the whole pool): its
/// stdout and its manifest `run` section must not move between
/// `--jobs 1` and `--jobs 8`.
#[test]
fn scorecard_is_jobs_invariant_end_to_end() {
    let dir = tempdir("scorecard");
    let run = |jobs: &str| {
        let manifest = dir.join(format!("scorecard-j{jobs}.json"));
        let out = nvfs(&[
            "--jobs",
            jobs,
            "--manifest-out",
            manifest.to_str().unwrap(),
            "scorecard",
            "--scale",
            "tiny",
        ]);
        assert!(
            out.status.success(),
            "jobs={jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            std::fs::read_to_string(&manifest).expect("manifest written"),
        )
    };
    let (stdout1, manifest1) = run("1");
    let (stdout8, manifest8) = run("8");
    assert_eq!(stdout1, stdout8, "scorecard stdout differs, jobs 1 vs 8");
    assert!(stdout1.contains("37 of 37 checks passed"), "{stdout1}");
    assert_eq!(
        run_section(&manifest1),
        run_section(&manifest8),
        "scorecard manifest run sections differ, jobs 1 vs 8"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The verification sweeps replay every session serially but fan out
/// across sessions, and the experiments fan out across cells, so a report
/// must not depend on `--jobs`. Runs each of `commands` at `--jobs 1` and
/// at `--jobs {jobs}` and checks that the concatenated stdout and each
/// manifest's `run` section are byte-identical across the two, that stdout
/// carries `marker` (a report's clean verdict) when one is given, and that
/// it matches the golden copy checked into `tests/golden/`.
fn check_report(commands: &[&[&str]], jobs: &str, golden_name: &str, marker: Option<&str>) {
    let cmd = commands
        .iter()
        .map(|args| args.join(" "))
        .collect::<Vec<_>>()
        .join("; ");
    let dir = tempdir(&commands[0].join("-"));
    let run = |jobs: &str| {
        let mut stdout = String::new();
        let mut runs = Vec::new();
        for (i, args) in commands.iter().enumerate() {
            let manifest = dir.join(format!("manifest-{i}-j{jobs}.json"));
            let mut full = vec!["--jobs", jobs, "--manifest-out", manifest.to_str().unwrap()];
            full.extend_from_slice(args);
            let out = nvfs(&full);
            assert!(
                out.status.success(),
                "{}, jobs={jobs}: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr)
            );
            stdout.push_str(&String::from_utf8_lossy(&out.stdout));
            let manifest = std::fs::read_to_string(&manifest).expect("manifest written");
            runs.push(run_section(&manifest));
        }
        (stdout, runs)
    };
    let (stdout1, runs1) = run("1");
    let (stdout_n, runs_n) = run(jobs);
    assert_eq!(stdout1, stdout_n, "{cmd}: stdout differs, jobs 1 vs {jobs}");
    assert_eq!(
        runs1, runs_n,
        "{cmd}: manifest run sections differ, jobs 1 vs {jobs}"
    );
    if let Some(marker) = marker {
        assert!(stdout1.contains(marker), "{cmd}: {stdout1}");
    }
    let golden = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(golden_name),
    )
    .expect("golden report present");
    assert_eq!(
        stdout1, golden,
        "{cmd}: output drifted from tests/golden/{golden_name}; \
         regenerate it if the change is intentional"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_net_is_jobs_invariant_and_matches_golden() {
    check_report(
        &[&["verify-net", "--scale", "tiny"]],
        "8",
        "net_tiny.txt",
        Some("\"net_judge\":\"clean\""),
    );
}

#[test]
fn verify_scrub_is_jobs_invariant_and_matches_golden() {
    check_report(
        &[&["verify-scrub", "--scale", "tiny"]],
        "8",
        "scrub_tiny.txt",
        Some("\"scrub\":\"clean\""),
    );
}

#[test]
fn verify_crash_is_jobs_invariant_and_matches_goldens() {
    check_report(
        &[&["verify-crash", "--scale", "tiny", "--seed", "42"]],
        "8",
        "oracle_tiny.txt",
        Some("\"oracle\":\"clean\""),
    );
    check_report(
        &[&["verify-crash", "--wal", "--scale", "tiny", "--seed", "42"]],
        "8",
        "wal_tiny.txt",
        Some("\"oracle\":\"clean\""),
    );
}

/// The experiments that no other golden covers: the full default tiny run
/// followed by `nvram-speed`, which sits outside it, at `--jobs 1` and
/// `--jobs 2`.
#[test]
fn experiments_are_jobs_invariant_and_match_golden() {
    check_report(
        &[
            &["experiments", "--scale", "tiny"],
            &["experiments", "--only", "nvram-speed", "--scale", "tiny"],
        ],
        "2",
        "experiments_tiny.txt",
        None,
    );
}

/// The LFS server drive loop at small scale, both buffers: Tables 3 and 4,
/// the write buffer and logging vs paging.
#[test]
fn lfs_tables_are_jobs_invariant_and_match_golden() {
    check_report(
        &[
            &["lfs", "--scale", "small"],
            &[
                "experiments",
                "--only",
                "lfs-wal-vs-buffer",
                "--scale",
                "small",
            ],
        ],
        "2",
        "lfs_small.txt",
        None,
    );
}

/// The LFS experiments outside `nvfs lfs`: client NVRAM vs the server log,
/// LFS vs update-in-place, the Figure 1 and 7 diagrams, read latency.
#[test]
fn lfs_extras_are_jobs_invariant_and_match_golden() {
    check_report(
        &[
            &["experiments", "--only", "pipeline", "--scale", "tiny"],
            &["experiments", "--only", "lfs-vs-ffs", "--scale", "tiny"],
            &["experiments", "--only", "diagrams", "--scale", "tiny"],
            &["experiments", "--only", "read-latency", "--scale", "tiny"],
        ],
        "2",
        "lfs_extras_tiny.txt",
        None,
    );
}

/// Figures 3 and 4: the omniscient, LRU and Random policies through the
/// client caches.
#[test]
fn client_cache_figures_are_jobs_invariant_and_match_golden() {
    check_report(
        &[
            &["experiments", "--only", "fig3", "--scale", "tiny"],
            &["experiments", "--only", "fig4", "--scale", "tiny"],
        ],
        "2",
        "client_cache_tiny.txt",
        None,
    );
}

/// Each NVRAM protection mode's cost against its byte fates.
#[test]
fn scrub_overhead_is_jobs_invariant_and_matches_golden() {
    check_report(
        &[&["experiments", "--only", "scrub-overhead", "--scale", "tiny"]],
        "2",
        "scrub_overhead_tiny.txt",
        None,
    );
}

/// Runs the command line `args` (split at whitespace, with every `{dir}`
/// replaced by a fresh temporary directory) and checks the `run` section
/// of the manifest it writes to `{dir}/manifest.json` against
/// `tests/golden/<golden>`.
fn check_manifest(args: &str, golden: &str) {
    let dir = tempdir(golden);
    let dir_str = dir.to_str().unwrap();
    let args: Vec<String> = args
        .split_whitespace()
        .map(|a| a.replace("{dir}", dir_str))
        .collect();
    let out = nvfs(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read_to_string(golden_path).expect("golden manifest present");
    assert_eq!(
        run_section(&manifest),
        run_section(&expected),
        "run section drifted from tests/golden/{golden}; \
         regenerate it if the change is intentional"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_matches_golden() {
    check_manifest(
        "--jobs 2 --trace-out {dir}/trace-j2.jsonl --manifest-out {dir}/manifest.json \
         faults --scale tiny --seed 42",
        "manifest_faults_tiny.json",
    );
}

/// The RPC layer's work counts (`net.*`, `oracle.net_*`) under the tiny
/// verify-net sweep, pinned so a change to the retry state machine shows
/// which counters moved.
#[test]
fn net_manifest_matches_golden() {
    check_manifest(
        "--jobs 2 --manifest-out {dir}/manifest.json verify-net --scale tiny",
        "manifest_net_tiny.json",
    );
}

/// The WAL layer's work counts (`wal.*`), the segments behind them
/// (`lfs.*`) and the `wal_drain` phase counts under the tiny WAL crash
/// sweep, pinned so a change to how the log or the segment writer counts
/// shows which counters moved.
#[test]
fn wal_manifest_matches_golden() {
    check_manifest(
        "--jobs 2 --manifest-out {dir}/manifest.json verify-crash --wal --scale tiny --seed 42",
        "manifest_wal_tiny.json",
    );
}

/// Figure 7 drives a segment writer of its own, outside any LFS run, so
/// its `lfs.*` counts reach the manifest only if it publishes them too.
#[test]
fn diagrams_manifest_matches_golden() {
    check_manifest(
        "--jobs 2 --manifest-out {dir}/manifest.json experiments --only diagrams --scale tiny",
        "manifest_diagrams_tiny.json",
    );
}

#[test]
fn obs_show_and_diff_detect_drift() {
    let dir = tempdir("cli");
    let (_, _, manifest) = faults_run(&dir, "2");
    let m = dir.join("manifest-j2.json");

    let show = nvfs(&["obs", "show", m.to_str().unwrap()]);
    assert!(show.status.success());
    let text = String::from_utf8_lossy(&show.stdout);
    assert!(
        text.contains("command:") && text.contains("faults"),
        "{text}"
    );
    assert!(text.contains("counters:"), "{text}");

    // A different seed must be flagged as a run-section difference.
    let other = dir.join("manifest-seed7.json");
    let out = nvfs(&[
        "--manifest-out",
        other.to_str().unwrap(),
        "faults",
        "--scale",
        "tiny",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());
    let diff = nvfs(&["obs", "diff", m.to_str().unwrap(), other.to_str().unwrap()]);
    assert!(!diff.status.success(), "obs diff missed a seed change");
    let text = String::from_utf8_lossy(&diff.stdout);
    assert!(text.contains("run sections DIFFER"), "{text}");

    // Corrupt input is a clean error, not a panic.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "not json").unwrap();
    let show = nvfs(&["obs", "show", bad.to_str().unwrap()]);
    assert!(!show.status.success());

    drop(manifest);
    let _ = std::fs::remove_dir_all(&dir);
}
