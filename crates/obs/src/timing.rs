//! Nesting-safe wall-clock spans.
//!
//! [`timed`] measures a closure and reports both **inclusive** wall time
//! and **exclusive** wall time (inclusive minus same-thread child spans).
//! Exclusive time is what fixes the old `bench` double-count: a phase
//! timed inside another phase no longer bills its milliseconds twice.
//! Nesting is tracked per thread — spans running inside `par_map` tasks
//! subtract their own children, not their siblings on other threads.
//!
//! Wall-clock values are inherently nondeterministic, so span records are
//! **never** merged into the metrics registry: they flow into the run
//! manifest's volatile `meta` section. Only the span *names*, in
//! submission order, enter the deterministic `run` section. When tracing
//! is enabled each span additionally emits `span` begin/end events (at
//! `t_us = 0`, outside simulated time).
//!
//! A completed span folds into its task shard's record of the same name:
//! the record counts the calls, sums their wall and exclusive time and
//! keeps the largest `sim_us`. A span repeated inside one task (a
//! background drain, say) therefore costs one record however often it
//! runs, and a repeat allocates nothing. Shards are per task path, so the
//! folded records are the same at any job count.
//!
//! A span's simulated time (`sim_us`, part of the deterministic `run`
//! section) is the largest value noted via [`set_span_sim_us`] by work
//! inside it, or 0 if none. That work includes `nvfs-par` tasks the span
//! submitted: each task runs under [`capture_sim_us`] and `par_map` folds
//! the captured maximum back into the submitting thread's open span at
//! join. Notes from work outside the span, on this thread or any other,
//! never reach it, so the value is the same at any job count.
//!
//! Per-task totals from `nvfs-par` land here too, via [`add_task_wall`]:
//! a cumulative task count and wall-clock sum, reported in manifest meta.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::sink;

/// One or more completed spans of the same name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. a bench stage or CLI phase).
    pub name: String,
    /// Completed spans folded into this record (1 for a single call).
    pub count: u64,
    /// Inclusive wall-clock milliseconds, summed over the calls.
    pub wall_ms: f64,
    /// Exclusive wall-clock milliseconds (children subtracted), summed
    /// over the calls.
    pub excl_ms: f64,
    /// The largest simulated microseconds noted via [`set_span_sim_us`]
    /// by work inside any of the calls; 0 if none.
    pub sim_us: u64,
}

thread_local! {
    /// Child wall ms accumulated by each open span on this thread.
    static STACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Largest simulated µs noted inside each open span or task capture on
    /// this thread, innermost last.
    static SIM: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` inside a named span, folding it into the current task shard's
/// record of that name and returning this call's own record alongside the
/// result.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, SpanRecord) {
    let (out, wall_ms, excl_ms, sim_us) = measure(name, f);
    let record = SpanRecord {
        name: name.to_string(),
        count: 1,
        wall_ms,
        excl_ms,
        sim_us,
    };
    (out, record)
}

/// Runs `f` inside a named span, discarding this call's record (the span
/// is still folded into the manifest's record of that name).
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    measure(name, f).0
}

/// Runs `f` as span `name` and folds it into the current task shard.
/// Returns the result, inclusive and exclusive wall ms, and `sim_us`.
fn measure<R>(name: &str, f: impl FnOnce() -> R) -> (R, f64, f64, u64) {
    crate::events::event("span", 0)
        .owned("name", name)
        .str("phase", "begin")
        .emit();
    STACK.with(|s| s.borrow_mut().push(0.0));
    let start = Instant::now();
    let (out, sim_us) = capture_sim_us(f);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // Work inside this span is inside its parent too.
    set_span_sim_us(sim_us);
    let child_ms = STACK.with(|s| s.borrow_mut().pop()).unwrap_or(0.0);
    STACK.with(|s| {
        if let Some(parent_child_ms) = s.borrow_mut().last_mut() {
            *parent_child_ms += wall_ms;
        }
    });
    let excl_ms = (wall_ms - child_ms).max(0.0);
    sink::with_local(|l| match l.spans.iter_mut().find(|r| r.name == name) {
        Some(r) => {
            r.count += 1;
            r.wall_ms += wall_ms;
            r.excl_ms += excl_ms;
            r.sim_us = r.sim_us.max(sim_us);
        }
        None => l.spans.push(SpanRecord {
            name: name.to_string(),
            count: 1,
            wall_ms,
            excl_ms,
            sim_us,
        }),
    });
    crate::events::event("span", 0)
        .owned("name", name)
        .str("phase", "end")
        .emit();
    (out, wall_ms, excl_ms, sim_us)
}

/// Notes simulated time reached by the running workload: the innermost
/// open span (or task capture) on this thread, and through it every
/// enclosing one, reports at least `sim_us`. A no-op outside any span.
pub fn set_span_sim_us(sim_us: u64) {
    SIM.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            *top = (*top).max(sim_us);
        }
    });
}

/// Runs `f` and returns the largest simulated time noted inside it (0 if
/// none), without passing it to any enclosing span. `nvfs-par` runs every
/// task body this way and folds the result into the submitting thread's
/// open span with [`set_span_sim_us`] at join: a task may run on a worker
/// thread with no open span, so its notes travel back this way.
pub fn capture_sim_us<R>(f: impl FnOnce() -> R) -> (R, u64) {
    SIM.with(|s| s.borrow_mut().push(0));
    let out = f();
    let sim_us = SIM.with(|s| s.borrow_mut().pop()).unwrap_or(0);
    (out, sim_us)
}

/// All recorded span records: one per name per task shard, merged in
/// submission order.
pub fn spans() -> Vec<SpanRecord> {
    sink::merged_shards()
        .into_iter()
        .flat_map(|s| s.spans)
        .collect()
}

static TASKS: AtomicU64 = AtomicU64::new(0);
static TASK_WALL_US: AtomicU64 = AtomicU64::new(0);

/// Accumulates one parallel task's wall time (called by `nvfs-par`).
pub fn add_task_wall(wall: std::time::Duration) {
    TASKS.fetch_add(1, Ordering::Relaxed);
    TASK_WALL_US.fetch_add(wall.as_micros() as u64, Ordering::Relaxed);
}

/// `(task count, cumulative wall µs)` accumulated by [`add_task_wall`].
pub(crate) fn task_totals() -> (u64, u64) {
    (
        TASKS.load(Ordering::Relaxed),
        TASK_WALL_US.load(Ordering::Relaxed),
    )
}

/// Zeroes the per-task totals (tests only).
#[cfg(test)]
fn reset_task_totals() {
    TASKS.store(0, Ordering::Relaxed);
    TASK_WALL_US.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{reset, test_lock};

    #[test]
    fn nested_spans_do_not_double_count() {
        let _g = test_lock();
        reset();
        let (_, outer) = timed("outer", || {
            let (_, inner) = timed("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            assert!(inner.wall_ms >= 18.0, "inner {}", inner.wall_ms);
        });
        assert!(outer.wall_ms >= 18.0);
        // The outer span's exclusive time excludes the inner sleep.
        assert!(
            outer.excl_ms < outer.wall_ms - 15.0,
            "excl {} vs wall {}",
            outer.excl_ms,
            outer.wall_ms
        );
        let names: Vec<String> = spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["inner".to_string(), "outer".to_string()]);
        reset();
    }

    #[test]
    fn sim_time_is_the_largest_note_inside_the_span() {
        let _g = test_lock();
        reset();
        let (_, outer) = timed("outer", || {
            let (_, inner) = timed("inner", || set_span_sim_us(1_000_000));
            assert_eq!(inner.sim_us, 1_000_000);
            set_span_sim_us(400);
        });
        // The child's note is inside the parent too.
        assert_eq!(outer.sim_us, 1_000_000);
        // A later span reports its own notes, however small.
        let (_, later) = timed("later", || set_span_sim_us(500));
        assert_eq!(later.sim_us, 500);
        let (_, idle) = timed("idle", || ());
        assert_eq!(idle.sim_us, 0);
        reset();
    }

    #[test]
    fn span_ignores_notes_from_other_threads() {
        let _g = test_lock();
        reset();
        let (_, rec) = timed("phase", || {
            // Another thread's workload, not submitted by this span.
            std::thread::spawn(|| timed("elsewhere", || set_span_sim_us(7_000_000)).1)
                .join()
                .unwrap();
            set_span_sim_us(250);
        });
        assert_eq!(rec.sim_us, 250);
        reset();
    }

    #[test]
    fn span_sees_notes_from_its_task_captures() {
        let _g = test_lock();
        reset();
        // What `par_map` does: capture each task on a worker thread, then
        // fold the largest value into the submitter at join.
        let (_, rec) = timed("phase", || {
            let captured: Vec<u64> = [3_000, 9_000, 0]
                .map(|t| {
                    std::thread::spawn(move || {
                        capture_sim_us(|| {
                            if t > 0 {
                                set_span_sim_us(t)
                            }
                        })
                        .1
                    })
                })
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            assert_eq!(captured, vec![3_000, 9_000, 0]);
            set_span_sim_us(captured.into_iter().max().unwrap());
        });
        assert_eq!(rec.sim_us, 9_000);
        // A capture on the span's own thread does not leak into it unless
        // folded.
        let (_, rec) = timed("unfolded", || capture_sim_us(|| set_span_sim_us(5)));
        assert_eq!(rec.sim_us, 0);
        reset();
    }

    #[test]
    fn repeated_spans_fold_into_one_record() {
        let _g = test_lock();
        reset();
        let mut wall = 0.0;
        crate::sink::task_frame(&[], 0, || {
            for i in 0..1_000u64 {
                let (_, rec) = timed("drain", || set_span_sim_us(i * 7 % 1_000));
                wall += rec.wall_ms;
            }
        });
        let recs = spans();
        assert_eq!(recs.len(), 1, "{recs:?}");
        let rec = &recs[0];
        assert_eq!((rec.name.as_str(), rec.count), ("drain", 1_000));
        assert_eq!(rec.sim_us, 999);
        assert!(
            (rec.wall_ms - wall).abs() < 1e-6,
            "{} vs {wall}",
            rec.wall_ms
        );
        assert!(
            (rec.excl_ms - wall).abs() < 1e-6,
            "no children: excl is wall"
        );
        reset();
    }

    #[test]
    fn folded_parent_subtracts_every_child() {
        let _g = test_lock();
        reset();
        let sleep = || std::thread::sleep(std::time::Duration::from_millis(4));
        let (_, outer) = timed("outer", || {
            for _ in 0..5 {
                span("child", sleep);
            }
        });
        let recs = spans();
        let child = recs.iter().find(|r| r.name == "child").unwrap();
        assert_eq!(child.count, 5);
        assert!(child.wall_ms >= 19.0, "{child:?}");
        // The parent's own time is what is left after all five children.
        let left = outer.wall_ms - child.wall_ms;
        assert!((outer.excl_ms - left).abs() < 1e-6, "{outer:?} {child:?}");
        reset();
    }

    #[test]
    fn task_frames_keep_separate_records_in_path_order() {
        let _g = test_lock();
        reset();
        // Submitted out of order, as a parallel run may finish them.
        for index in [1, 0] {
            crate::sink::task_frame(&[], index, || {
                for _ in 0..=index {
                    span("work", || set_span_sim_us(u64::from(index) + 10));
                }
            });
        }
        let got: Vec<(String, u64, u64)> = spans()
            .into_iter()
            .map(|r| (r.name, r.count, r.sim_us))
            .collect();
        assert_eq!(
            got,
            vec![("work".into(), 1, 10), ("work".into(), 2, 11)],
            "one record per task, merged in path order"
        );
        reset();
    }

    #[test]
    fn timed_returns_the_individual_call() {
        let _g = test_lock();
        reset();
        span("stage", || set_span_sim_us(900));
        let (_, rec) = timed("stage", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            set_span_sim_us(100);
        });
        assert_eq!((rec.count, rec.sim_us), (1, 100));
        let folded = &spans()[0];
        assert_eq!((folded.count, folded.sim_us), (2, 900));
        assert!(folded.wall_ms > rec.wall_ms, "{folded:?} vs {rec:?}");
        reset();
    }

    #[test]
    fn task_totals_accumulate() {
        let _g = test_lock();
        reset_task_totals();
        add_task_wall(std::time::Duration::from_micros(500));
        add_task_wall(std::time::Duration::from_micros(300));
        assert_eq!(task_totals(), (2, 800));
        reset_task_totals();
    }
}
