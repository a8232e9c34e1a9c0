//! Wall-clock timing harness for the experiment pipeline.
//!
//! Thin shim over [`nvfs_obs::timing`] spans: each stage reports both
//! inclusive wall time and **exclusive** wall time (children subtracted),
//! so a stage timed inside another stage no longer bills its milliseconds
//! twice in the `BENCH_*.json` trajectory. Spans also land in the run
//! manifest's `meta` section, keeping the two reports consistent.

use std::fmt::Write as _;

/// One timed run: an experiment name, its wall-clock milliseconds
/// (inclusive and exclusive of nested stages), the job count it ran with,
/// and the run provenance (workload scale, git revision, iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment or stage name (e.g. `"gen-traces"`, `"fig3"`).
    pub name: String,
    /// Inclusive wall-clock duration in milliseconds.
    pub wall_ms: f64,
    /// Exclusive wall-clock milliseconds: inclusive minus same-thread
    /// nested stages.
    excl_ms: f64,
    /// Job count the stage ran with.
    pub jobs: usize,
    /// Workload scale name the stage ran at (e.g. `"tiny"`); empty until
    /// [`annotate`]d.
    scale: String,
    /// Git revision of the working tree, or `"unknown"`; empty until
    /// [`annotate`]d.
    rev: String,
    /// 1-based repetition this record belongs to (`--iters`).
    pub iter: usize,
}

/// Times `f` as an observability span and appends a [`BenchRecord`] for
/// it to `records`. Provenance fields start blank (iteration 1); callers
/// that know the scale/revision/iteration stamp them with [`annotate`].
pub fn timed<R>(
    records: &mut Vec<BenchRecord>,
    name: &str,
    jobs: usize,
    f: impl FnOnce() -> R,
) -> R {
    let (out, span) = nvfs_obs::timing::timed(name, f);
    records.push(BenchRecord {
        name: span.name,
        wall_ms: span.wall_ms,
        excl_ms: span.excl_ms,
        jobs,
        scale: String::new(),
        rev: String::new(),
        iter: 1,
    });
    out
}

/// Stamps run provenance onto `records`: the workload scale, the git
/// revision, and which repetition the records belong to.
pub fn annotate(records: &mut [BenchRecord], scale: &str, rev: &str, iter: usize) {
    for r in records {
        r.scale = scale.to_string();
        r.rev = rev.to_string();
        r.iter = iter;
    }
}

/// Serializes records as a JSON array of
/// `{name, wall_ms, excl_ms, jobs, scale, rev, iter}` rows.
///
/// Hand-rolled (the workspace builds offline, without serde); names are
/// plain ASCII experiment identifiers, escaped defensively anyway.
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"excl_ms\": {:.3}, \"jobs\": {}, \
             \"scale\": \"{}\", \"rev\": \"{}\", \"iter\": {}}}{sep}",
            nvfs_obs::json::escape(&r.name),
            r.wall_ms,
            r.excl_ms,
            r.jobs,
            nvfs_obs::json::escape(&r.scale),
            nvfs_obs::json::escape(&r.rev),
            r.iter
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_appends_records_in_order() {
        let mut records = Vec::new();
        let a = timed(&mut records, "first", 1, || 1);
        let b = timed(&mut records, "second", 4, || 2);
        assert_eq!((a, b), (1, 2));
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "first");
        assert_eq!(records[1].jobs, 4);
    }

    #[test]
    fn nested_stages_report_exclusive_time() {
        let mut records = Vec::new();
        timed(&mut records, "outer", 1, || {
            let mut inner_records = Vec::new();
            timed(&mut inner_records, "inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        });
        let outer = &records[0];
        assert!(outer.wall_ms >= 18.0, "wall {}", outer.wall_ms);
        // Exclusive time excludes the nested stage's sleep: summing
        // excl_ms across stages counts each millisecond once.
        assert!(
            outer.excl_ms < outer.wall_ms - 15.0,
            "excl {} vs wall {}",
            outer.excl_ms,
            outer.wall_ms
        );
    }

    #[test]
    fn annotate_stamps_provenance_on_every_record() {
        let mut records = Vec::new();
        timed(&mut records, "first", 1, || ());
        timed(&mut records, "second", 2, || ());
        annotate(&mut records, "tiny", "abc123", 3);
        for r in &records {
            assert_eq!(r.scale, "tiny");
            assert_eq!(r.rev, "abc123");
            assert_eq!(r.iter, 3);
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let records = vec![
            BenchRecord {
                name: "gen-traces".into(),
                wall_ms: 12.5,
                excl_ms: 12.5,
                jobs: 1,
                scale: "tiny".into(),
                rev: "abc123".into(),
                iter: 1,
            },
            BenchRecord {
                name: "fig3".into(),
                wall_ms: 0.25,
                excl_ms: 0.25,
                jobs: 4,
                scale: "mega".into(),
                rev: "abc123".into(),
                iter: 2,
            },
        ];
        let json = to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains(
            "{\"name\": \"gen-traces\", \"wall_ms\": 12.500, \"excl_ms\": 12.500, \"jobs\": 1, \
             \"scale\": \"tiny\", \"rev\": \"abc123\", \"iter\": 1},"
        ));
        assert!(json.contains(
            "{\"name\": \"fig3\", \"wall_ms\": 0.250, \"excl_ms\": 0.250, \"jobs\": 4, \
             \"scale\": \"mega\", \"rev\": \"abc123\", \"iter\": 2}\n"
        ));
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        let records = vec![BenchRecord {
            name: "a\"b\\c\nd".into(),
            wall_ms: 1.0,
            excl_ms: 1.0,
            jobs: 1,
            scale: String::new(),
            rev: String::new(),
            iter: 1,
        }];
        let json = to_json(&records);
        assert!(json.contains("a\\\"b\\\\c\\u000ad"));
    }

    #[test]
    fn empty_record_set_is_valid_json() {
        assert_eq!(to_json(&[]), "[\n]\n");
    }
}
