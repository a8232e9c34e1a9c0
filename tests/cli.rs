//! End-to-end tests of the `nvfs` command-line tool: generate traces to
//! disk, lint them, replay them through the simulator, and export CSVs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn nvfs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nvfs"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvfs-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn help_lists_commands() {
    let out = nvfs(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["gen-traces", "client-sim", "lifetime", "export-csv"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

/// `nvfs help` must name every registered experiment — the in-process
/// twin of CI's drift check between `help` and `experiments --list`.
#[test]
fn help_lists_every_registered_experiment() {
    let out = nvfs(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for entry in nvfs::experiments::registry::all() {
        assert!(text.contains(entry.name()), "help missing {}", entry.name());
    }
}

/// `experiments --list` is exactly the registry listing.
#[test]
fn experiments_list_matches_registry() {
    let out = nvfs(&["experiments", "--list"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        nvfs::experiments::registry::list_text()
    );
}

/// The README experiment table is regenerated from the registry; this
/// fails when a registry edit isn't mirrored into the README.
#[test]
fn readme_embeds_the_registry_table() {
    let readme = include_str!("../README.md");
    let table = nvfs::experiments::registry::readme_table();
    assert!(
        readme.contains(&table),
        "README experiment table drifted from registry::readme_table();\n\
         regenerate it:\n{table}"
    );
}

#[test]
fn experiments_only_runs_a_single_experiment() {
    let out = nvfs(&["experiments", "--scale", "tiny", "--only", "disk-sort"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Disk bandwidth"));
    assert!(!text.contains("Table 1"), "--only must run one experiment");
}

/// A typo'd `--only` fails fast (before workload generation) with the
/// full list of valid ids.
#[test]
fn experiments_only_typo_lists_valid_ids() {
    let out = nvfs(&["experiments", "--only", "disk-sortt"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment \"disk-sortt\""), "{err}");
    for id in ["disk-sort", "tab1", "scorecard"] {
        assert!(err.contains(id), "error omits valid id {id}: {err}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = nvfs(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_stats_sim_lifetime_round_trip() {
    let dir = tempdir("roundtrip");
    let out_flag = dir.to_str().unwrap();

    let gen = nvfs(&["gen-traces", "--scale", "tiny", "--out", out_flag]);
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let trace7 = dir.join("trace7.ops");
    assert!(trace7.exists());

    let stats = nvfs(&["trace-stats", trace7.to_str().unwrap()]);
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("write bytes:"));
    assert!(text.contains("lint:"));

    let sim = nvfs(&[
        "client-sim",
        "--model",
        "unified",
        "--volatile-mb",
        "2",
        "--nvram-mb",
        "1",
        trace7.to_str().unwrap(),
    ]);
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    let text = String::from_utf8_lossy(&sim.stdout);
    assert!(text.contains("net write traffic:"));
    assert!(text.contains("nvram accesses:"));

    let lt = nvfs(&["lifetime", trace7.to_str().unwrap()]);
    assert!(lt.status.success());
    assert!(String::from_utf8_lossy(&lt.stdout).contains("fate breakdown:"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_sim_rejects_bad_model() {
    let dir = tempdir("badmodel");
    let trace = dir.join("t.ops");
    std::fs::write(&trace, "# empty\n").unwrap();
    let out = nvfs(&["client-sim", "--model", "bogus", trace.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown model"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Inputs whose block math used to overflow inside the simulator: each
/// must be a one-line `error:` with exit 1, never a panic.
#[test]
fn client_sim_rejects_overflowing_inputs() {
    let dir = tempdir("overflow");
    for (trace, flags, reason) in [
        (
            "5 4294967295 w 4294967295 18446744073709551000 18446744073709551615\n",
            &[][..],
            "line 1: end past the last addressable block",
        ),
        (
            "1000 0 D 3\n",
            &["--volatile-mb", "17592186044416"],
            "--volatile-mb 17592186044416 is too large",
        ),
    ] {
        let path = dir.join("t.ops");
        std::fs::write(&path, trace).unwrap();
        let mut args = vec!["client-sim"];
        args.extend(flags);
        args.push(path.to_str().unwrap());
        let out = nvfs(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(reason),
            "{args:?}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_subset_runs() {
    let out = nvfs(&["experiments", "--scale", "tiny", "tab1", "disk-sort"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1"));
    assert!(text.contains("Disk bandwidth"));
}

#[test]
fn export_csv_writes_every_artifact() {
    let dir = tempdir("csv");
    let out = nvfs(&[
        "export-csv",
        "--scale",
        "tiny",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in [
        "tab1_costs.csv",
        "fig2_byte_lifetimes.csv",
        "fig3_omniscient.csv",
        "tab3_partial_segments.csv",
        "write_buffer.csv",
        "nvram_speed.csv",
    ] {
        let p = dir.join(name);
        assert!(p.exists(), "missing {name}");
        let body = std::fs::read_to_string(&p).unwrap();
        assert!(body.lines().count() > 1, "{name} has no data rows");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_profile_calls_count_every_span_opened() {
    // The profile folds repeated spans into one record per name and task,
    // yet its calls column must still count every span the run opened: one
    // `span` begin event each in the trace.
    use std::collections::BTreeMap;
    use std::io::BufRead;

    let dir = tempdir("bench-profile");
    let trace = dir.join("trace.jsonl");
    let out = nvfs(&[
        "--jobs",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
        "bench",
        "--scale",
        "tiny",
        "--profile",
        "--out",
        dir.join("bench.json").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let calls: BTreeMap<String, u64> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("profile"))
        .skip(2)
        .map(|l| {
            let mut cols = l.split_whitespace();
            let name = cols.next().unwrap().to_string();
            (name, cols.next().unwrap().parse().unwrap())
        })
        .collect();

    let mut opened: BTreeMap<String, u64> = BTreeMap::new();
    let file = std::fs::File::open(&trace).expect("trace written");
    for line in std::io::BufReader::new(file).lines() {
        let line = line.unwrap();
        if line.contains("\"kind\": \"span\"") && line.contains("\"phase\": \"begin\"") {
            let name = line.split("\"name\": \"").nth(1).unwrap();
            let name = name.split('"').next().unwrap();
            *opened.entry(name.to_string()).or_default() += 1;
        }
    }
    // The command's own span is still open when the profile prints.
    assert_eq!(opened.remove("bench"), Some(1));
    assert_eq!(calls, opened, "{stdout}");
    assert!(calls["wal_drain"] > 1, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `faults --model M --oracle` judges only the selected model's
/// schedules: the verdict's `crash_points` equals the `crashes` column of
/// the one row printed above it.
#[test]
fn faults_oracle_judges_only_the_selected_model() {
    let out = nvfs(&[
        "faults", "--scale", "tiny", "--seed", "42", "--model", "unified", "--oracle",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("unified "))
        .expect("unified row printed");
    let crashes = row.split_whitespace().nth(1).unwrap();
    let verdict = stdout.lines().last().unwrap();
    assert!(
        verdict.contains(&format!("\"crash_points\":{crashes},")),
        "{stdout}"
    );
}

/// Every command that takes flags rejects leftover arguments, and bad
/// flag values, with a one-line error before generating any workload (no
/// jobs banner on stderr), so a typo such as `--sed 7` cannot silently
/// run the defaults.
#[test]
fn fault_studies_reject_leftover_arguments() {
    for (args, reason) in [
        (
            &["verify-net", "--scale", "tiny", "--bogus"][..],
            "unexpected argument",
        ),
        (&["faults", "--sed", "7"], "unexpected argument"),
        (&["verify-crash", "--wal", "extra"], "unexpected argument"),
        (
            &["verify-scrub", "--scale", "tiny", "--seed", "1", "2"],
            "unexpected argument",
        ),
        (
            &["gen-traces", "--bogus"],
            "gen-traces: unexpected argument \"--bogus\"",
        ),
        (
            &["lfs", "--scale", "tiny", "--bogus"],
            "lfs: unexpected argument",
        ),
        (&["lfs", "--buffer-kb", "abc"], "bad --buffer-kb"),
        (&["scorecard", "--bogus"], "scorecard: unexpected argument"),
        (
            &["export-csv", "--out", "csv", "--bogus"],
            "export-csv: unexpected argument",
        ),
        (
            &["client-sim", "--model", "volatile", "t.ops", "extra"],
            "client-sim: unexpected argument",
        ),
        (
            &["lifetime", "t.ops", "extra"],
            "lifetime: unexpected argument",
        ),
        (
            &["trace-stats", "t.ops", "--bogus"],
            "trace-stats: unexpected argument",
        ),
        (
            &["bench", "--scale", "tiny", "--bogus"],
            "bench: unexpected argument",
        ),
    ] {
        let out = nvfs(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(reason),
            "{args:?}: {err}"
        );
    }
}
