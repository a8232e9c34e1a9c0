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

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. a bench stage or CLI phase).
    pub name: String,
    /// Inclusive wall-clock milliseconds.
    pub wall_ms: f64,
    /// Exclusive wall-clock milliseconds (children subtracted).
    pub excl_ms: f64,
    /// The largest simulated microseconds noted via [`set_span_sim_us`]
    /// by work inside the span; 0 if none.
    pub sim_us: u64,
}

thread_local! {
    /// Child wall ms accumulated by each open span on this thread.
    static STACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Largest simulated µs noted inside each open span or task capture on
    /// this thread, innermost last.
    static SIM: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` inside a named span, recording a [`SpanRecord`] into the
/// current task shard and returning it alongside the result.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, SpanRecord) {
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
    let record = SpanRecord {
        name: name.to_string(),
        wall_ms,
        excl_ms: (wall_ms - child_ms).max(0.0),
        sim_us,
    };
    sink::with_local(|l| l.spans.push(record.clone()));
    crate::events::event("span", 0)
        .owned("name", name)
        .str("phase", "end")
        .emit();
    (out, record)
}

/// Runs `f` inside a named span, discarding the record (it is still
/// collected for the manifest).
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    timed(name, f).0
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

/// All recorded spans, merged in submission order.
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
pub fn task_totals() -> (u64, u64) {
    (
        TASKS.load(Ordering::Relaxed),
        TASK_WALL_US.load(Ordering::Relaxed),
    )
}

/// Zeroes the per-task totals (part of [`crate::reset`]).
pub(crate) fn reset_task_totals() {
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
    fn task_totals_accumulate() {
        let _g = test_lock();
        reset_task_totals();
        add_task_wall(std::time::Duration::from_micros(500));
        add_task_wall(std::time::Duration::from_micros(300));
        assert_eq!(task_totals(), (2, 800));
        reset_task_totals();
    }
}
