//! End-to-end tests of the `nvfs` command-line tool: generate traces to
//! disk, lint them, replay them through the simulator, and export CSVs.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest one command may run: past it, the test fails as a hang
/// instead of stalling the suite.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

fn nvfs(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nvfs"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let stdout = read_all(child.stdout.take().expect("piped stdout"));
    let stderr = read_all(child.stderr.take().expect("piped stderr"));
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("nvfs {args:?} still running after {CHILD_TIMEOUT:?}");
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    Output {
        status,
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
}

/// Drains a child's pipe on its own thread, so a chatty child never
/// blocks on a full pipe while the caller waits for it to exit.
fn read_all(mut pipe: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        pipe.read_to_end(&mut bytes).expect("read child pipe");
        bytes
    })
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
            "0 0 O 1 W\n1000000 0 w 1 0 18446744073709547520\n2000000 0 C 1\n",
            &[][..],
            "line 2: reads and writes span more than 16777216 blocks of 4 KB",
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

/// A bad size or model flag is reported before the trace is read, so it
/// names the flag even when the trace file does not exist.
#[test]
fn client_sim_checks_flags_before_reading_the_trace() {
    let missing = tempdir("flags-first").join("missing.ops");
    for (flags, reason) in [
        (
            &["--volatile-mb", "0"][..],
            "--volatile-mb must be at least 1",
        ),
        (
            &["--nvram-mb", "0"],
            "--nvram-mb must be at least 1 for the unified model",
        ),
        (&["--model", "bogus"], "unknown model \"bogus\""),
        (
            &["--volatile-mb", "17592186044416"],
            "--volatile-mb 17592186044416 is too large",
        ),
    ] {
        let mut args = vec!["client-sim"];
        args.extend(flags);
        args.push(missing.to_str().unwrap());
        let out = nvfs(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.trim_end(), format!("error: {reason}"), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(missing.parent().unwrap());
}

/// An unwritable `--trace-out` or `--manifest-out` fails before the
/// command runs: one `error:` line, no report on stdout.
#[test]
fn unwritable_obs_outputs_fail_before_any_work() {
    let dir = tempdir("obs-unwritable");
    let bad = dir.join("no-such-dir").join("x");
    let bad = bad.to_str().unwrap();
    for flag in ["--manifest-out", "--trace-out"] {
        let out = nvfs(&[flag, bad, "lfs", "--scale", "tiny"]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{flag}: {err}");
        assert!(
            err.starts_with(&format!("error: cannot write {bad}: ")),
            "{flag}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// When `--trace-out` and `--manifest-out` name one file, the manifest,
/// written last, replaces the longer trace rather than overwriting only
/// its start.
#[test]
fn obs_outputs_naming_one_file_hold_the_manifest() {
    let dir = tempdir("obs-one-file");
    let path = dir.join("obs.json");
    let path = path.to_str().unwrap();
    let out = nvfs(&[
        "--trace-out",
        path,
        "--manifest-out",
        path,
        "lfs",
        "--scale",
        "tiny",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let show = nvfs(&["obs", "show", path]);
    assert!(
        show.status.success(),
        "{}",
        String::from_utf8_lossy(&show.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The largest file id replays like any other: a second client's open of
/// file 4294967295 recalls and invalidates its blocks under every model
/// (the block-order range end for that file once wrapped and panicked).
#[test]
fn client_sim_replays_the_largest_file_id() {
    let dir = tempdir("maxfile");
    let path = dir.join("t.ops");
    std::fs::write(
        &path,
        "5 0 O 4294967295 W\n\
         6 0 w 4294967295 0 4096\n\
         7 0 F 4294967295\n\
         8 0 C 4294967295\n\
         9 1 O 4294967295 R\n",
    )
    .unwrap();
    for model in ["volatile", "write-aside", "hybrid", "unified"] {
        let out = nvfs(&["client-sim", "--model", model, path.to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{model}: {}",
            String::from_utf8_lossy(&out.stderr)
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
    for (name, _) in nvfs::experiments::registry::csv_entries() {
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

    // bench.json holds one row per stage in pass order, each with the same
    // keys in the same order and the pass's job count, scale and iteration.
    use nvfs::obs::json::{parse, Json};
    let text = std::fs::read_to_string(dir.join("bench.json")).expect("bench.json written");
    let Ok(Json::Arr(rows)) = parse(&text) else {
        panic!("bench.json is not a JSON array: {text}");
    };
    let stages = [
        "gen-traces",
        "fig2",
        "fig3",
        "tab3",
        "wal",
        "scrub",
        "verify-net",
        "scorecard",
    ];
    assert_eq!(rows.len(), stages.len(), "{text}");
    for (row, stage) in rows.iter().zip(stages) {
        let Json::Obj(members) = row else {
            panic!("row is not an object: {text}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["name", "wall_ms", "excl_ms", "jobs", "scale", "rev", "iter"]
        );
        assert_eq!(row.get("name"), Some(&Json::Str(stage.into())), "{text}");
        assert_eq!(row.get("jobs").and_then(Json::as_u64), Some(1), "{text}");
        assert_eq!(row.get("scale"), Some(&Json::Str("tiny".into())), "{text}");
        assert_eq!(row.get("iter").and_then(Json::as_u64), Some(1), "{text}");
    }
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
            &["gen-traces", "--scale", "mega", "--bogus"],
            "unknown scale \"mega\" (tiny|small|paper)",
        ),
        (
            &["lfs", "--scale", "tiny", "--bogus"],
            "lfs: unexpected argument",
        ),
        (&["lfs", "--buffer-kb", "abc"], "bad --buffer-kb"),
        (
            &["lfs", "--buffer-kb", "0"],
            "--buffer-kb must be at least 1",
        ),
        (
            &["lfs", "--buffer-kb", "18014398509481984"],
            "--buffer-kb 18014398509481984 is too large",
        ),
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

/// Every command that reads a trace rejects one that breaks session
/// discipline with a one-line error, rather than reporting numbers for
/// it. The trace's times run backwards; parsing sorts them, which leaves
/// two writes to a file that was never opened.
#[test]
fn trace_commands_reject_lint_violations() {
    let dir = tempdir("lint");
    let path = dir.join("backwards.ops");
    std::fs::write(&path, "2000000 0 w 1 0 4096\n1000000 0 w 1 0 4096\n").unwrap();
    let path = path.to_str().unwrap();
    for args in [
        &["trace-stats", path][..],
        &["lifetime", path],
        &["client-sim", "--model", "volatile", path],
    ] {
        let out = nvfs(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.trim_end(),
            format!(
                "error: {path}: 2 lint violation(s), first: op 0 at 1.000s: \
                 AccessWithoutOpen {{ client: ClientId(0), file: FileId(1) }}"
            ),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded mutation fuzzer over trace lines: fields swapped, replaced by
/// extreme or negative values (in one line or down a whole column), times
/// reordered, lines cut short. Every command that reads a trace either
/// runs it (exit 0) or rejects it with exactly one `error:` line (exit 1);
/// a panic (exit 101) or a hang never passes.
///
/// Each mutated trace that every command runs is lint-clean, so it is
/// mutated once more: one read or write is stretched past the 2^24-block
/// cap, which every command must then reject at the cap. Without the cap
/// the block cache would walk that range for hours.
#[test]
fn mutated_traces_exit_zero_or_with_one_error_line() {
    use nvfs::rng::{Rng, SeedableRng, StdRng};

    const BASE: &str = "0 0 O 1 W\n\
                        1000 0 w 1 0 8192\n\
                        2000 0 r 1 0 4096\n\
                        3000 0 F 1\n\
                        4000 0 T 1 4096\n\
                        5000 0 C 1\n\
                        6000 1 O 1 R\n\
                        7000 1 r 1 0 4096\n\
                        8000 1 C 1\n\
                        9000 0 M 7 1 1\n\
                        10000 0 O 2 RW\n\
                        11000 0 w 2 100 5000\n\
                        12000 0 C 2\n\
                        13000 0 D 2\n";
    const EXTREMES: [&str; 8] = [
        "0",
        "-1",
        "4294967295",
        "4294967296",
        // An end at 2^40 bytes and the last whole-block end: lint-clean
        // ranges the block cache could walk for hours.
        "1099511627776",
        "18446744073709547520",
        "18446744073709551615",
        "-9223372036854775808",
    ];
    let dir = tempdir("mutate");
    let path = dir.join("t.ops");
    let path_str = path.to_str().unwrap();
    let mut rng = StdRng::seed_from_u64(0x7ACE_0008);
    let mut exits = [0u32; 2];
    let mut stretched = 0u32;
    // Runs every trace command on `trace`; returns how many exited 0 and
    // how many rejected it at the block cap.
    let run_all = |trace: &str, case: u32| {
        std::fs::write(&path, trace).unwrap();
        let mut runs = vec![vec!["trace-stats", path_str], vec!["lifetime", path_str]];
        for model in ["volatile", "write-aside", "hybrid", "unified"] {
            runs.push(vec!["client-sim", "--model", model, path_str]);
        }
        let mut outcome = [0u32; 2];
        for args in runs {
            let out = nvfs(&args);
            let err = String::from_utf8_lossy(&out.stderr);
            match out.status.code() {
                Some(0) => outcome[0] += 1,
                Some(1) => {
                    outcome[1] += u32::from(err.contains("blocks of 4 KB"));
                    assert_eq!(
                        err.lines().count(),
                        1,
                        "case {case} {args:?}:\n{trace}{err}"
                    );
                    assert!(
                        err.starts_with("error: "),
                        "case {case} {args:?}:\n{trace}{err}"
                    );
                }
                code => panic!("case {case} {args:?} exited {code:?}:\n{trace}{err}"),
            }
        }
        outcome
    };
    for case in 0..64 {
        let mut lines: Vec<String> = BASE.lines().map(str::to_string).collect();
        for _ in 0..rng.gen_range(1..4u32) {
            let i = rng.gen_range(0..lines.len());
            let mut fields: Vec<String> = lines[i].split_whitespace().map(str::to_string).collect();
            match rng.gen_range(0..5u32) {
                0 if fields.len() > 1 => {
                    let (a, b) = (
                        rng.gen_range(0..fields.len()),
                        rng.gen_range(0..fields.len()),
                    );
                    fields.swap(a, b);
                    lines[i] = fields.join(" ");
                }
                1 if !fields.is_empty() => {
                    let f = rng.gen_range(0..fields.len());
                    fields[f] = EXTREMES[rng.gen_range(0..EXTREMES.len())].to_string();
                    lines[i] = fields.join(" ");
                }
                2 if !fields.is_empty() => {
                    let j = rng.gen_range(0..lines.len());
                    let time_j = lines[j].split_whitespace().next().unwrap_or("").to_string();
                    let time_i = std::mem::replace(&mut fields[0], time_j);
                    lines[i] = fields.join(" ");
                    let mut other: Vec<String> =
                        lines[j].split_whitespace().map(str::to_string).collect();
                    if let Some(t) = other.first_mut() {
                        *t = time_i;
                    }
                    lines[j] = other.join(" ");
                }
                3 => {
                    // One extreme value down a whole column.
                    let f = rng.gen_range(0..6usize);
                    let v = EXTREMES[rng.gen_range(0..EXTREMES.len())];
                    for line in &mut lines {
                        let mut fields: Vec<&str> = line.split_whitespace().collect();
                        if let Some(field) = fields.get_mut(f) {
                            *field = v;
                        }
                        *line = fields.join(" ");
                    }
                }
                _ => {
                    let cut = rng.gen_range(0..=lines[i].len());
                    lines[i].truncate(cut);
                }
            }
        }
        let trace = lines.join("\n") + "\n";
        let [ran, _] = run_all(&trace, case);
        exits[0] += ran;
        exits[1] += 6 - ran;
        if ran < 6 {
            continue;
        }
        // Stretch one read or write to cover bytes 0 to 2^40, or 0 to the
        // last whole block: 2^28 blocks or more, one range alone.
        let rw: Vec<usize> = (0..lines.len())
            .filter(|&j| matches!(lines[j].split_whitespace().nth(2), Some("r" | "w")))
            .collect();
        if rw.is_empty() {
            continue;
        }
        let j = rw[case as usize % rw.len()];
        let mut fields: Vec<&str> = lines[j].split_whitespace().collect();
        fields[4] = "0";
        fields[5] = ["1099511627776", "18446744073709547520"][case as usize % 2];
        lines[j] = fields.join(" ");
        let trace = lines.join("\n") + "\n";
        assert_eq!(run_all(&trace, case), [0, 6], "case {case}:\n{trace}");
        stretched += 1;
    }
    // The mutations must reach both outcomes, and the block cap.
    assert!(exits.iter().all(|&n| n > 20), "{exits:?}");
    assert!(stretched > 2, "{stretched} traces stretched past the cap");
    let _ = std::fs::remove_dir_all(&dir);
}
