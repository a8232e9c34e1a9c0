//! Deterministic parallel execution for the experiment pipeline.
//!
//! Every artifact in this reproduction is assembled from independent
//! trace-driven simulations — eight synthetic Sprite traces, per-trace
//! cache analyses, cache-size and policy sweeps. [`par_map`] fans those
//! tasks out over scoped threads (`std::thread::scope`, no external
//! dependencies) while keeping a hard invariant: **the output is
//! byte-identical to the sequential run at any job count.**
//!
//! Three rules uphold the invariant, and every caller in the workspace
//! follows them:
//!
//! 1. results are joined in submission order ([`par_map`] returns
//!    `Vec<R>` indexed exactly like its input);
//! 2. each task seeds its own RNG from its input, never from shared or
//!    ambient state;
//! 3. tasks share no mutable state (enforced by the `Sync` bound on the
//!    closure — interior mutability would need locks a caller has no
//!    reason to add).
//!
//! The effective job count is resolved once per process by [`jobs`]:
//! an explicit [`set_jobs`] (the CLI's `--jobs N`) wins, then the
//! `NVFS_JOBS` environment variable, then
//! [`std::thread::available_parallelism`]. `jobs = 1` short-circuits to a
//! plain sequential loop, so single-core runs pay no threading overhead.
//!
//! Every task runs inside an `nvfs-obs` *task frame* tagged with the
//! item's submission index, so metrics and trace events recorded by task
//! bodies merge in submission order — the observability layer inherits
//! the same any-job-count invariant as the results themselves. Simulated
//! time a task notes ([`nvfs_obs::timing::capture_sim_us`]) folds back
//! into the submitting thread's open span at join, so a span's `sim_us`
//! covers the tasks it submitted and nothing else. Task wall
//! time accumulates into the manifest's volatile `meta` section via
//! [`nvfs_obs::timing::add_task_wall`].
//!
//! The [`bench`](mod@bench) module is the matching timing harness: nesting-safe
//! [`nvfs_obs::timing`] spans serialized as JSON rows
//! (`{name, wall_ms, excl_ms, jobs}`) for the repository's
//! `BENCH_*.json` trajectory.
//!
//! # Examples
//!
//! ```
//! let squares = nvfs_par::par_map((0..100u64).collect(), 4, |x| x * x);
//! assert_eq!(squares[7], 49); // input order preserved
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod bench;

/// Applies `f` to every item on up to `jobs` scoped worker threads,
/// returning the results **in input order**.
///
/// Work is claimed item-by-item from a shared atomic cursor, so uneven
/// task sizes (trace 3 and 4 are several times larger than the typical
/// traces) load-balance automatically. With `jobs <= 1` or a single item
/// the call degenerates to a sequential loop on the calling thread.
///
/// # Panics
///
/// Propagates the first panic raised inside `f` (the scope joins every
/// worker before unwinding).
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // Capture the submitting context's task path before fan-out: worker
    // threads have empty thread-local paths, and nested par_map tasks must
    // record under `outer_index/inner_index` for deterministic merging.
    let base = nvfs_obs::task_path();
    // Largest simulated time any task noted; folded into the caller's
    // open span once every task has joined.
    let sim_us = AtomicU64::new(0);
    let permits = if jobs <= 1 || n <= 1 {
        WorkerPermits(0)
    } else {
        acquire_extra_workers(jobs.min(n) - 1)
    };
    if permits.0 == 0 {
        let out = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_task(&base, i as u32, &sim_us, || f(item)))
            .collect();
        nvfs_obs::timing::set_span_sim_us(sim_us.into_inner());
        return out;
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i].lock().expect("input slot poisoned").take();
        let item = item.expect("each index is claimed exactly once");
        let out = run_task(&base, i as u32, &sim_us, || f(item));
        *results[i].lock().expect("result slot poisoned") = Some(out);
    };
    std::thread::scope(|scope| {
        for _ in 0..permits.0 {
            scope.spawn(work);
        }
        // The calling thread is a worker too: `permits.0` extra threads
        // plus this one, never more than `jobs.min(n)` in total.
        work();
    });
    drop(permits);
    nvfs_obs::timing::set_span_sim_us(sim_us.into_inner());
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker stored every claimed slot")
        })
        .collect()
}

/// Extra worker threads currently alive across *all* in-flight `par_map`
/// calls in the process. The calling thread of each `par_map` is free, so
/// with `jobs = J` at most `J - 1` extras may exist at once.
static EXTRA_WORKERS_IN_USE: AtomicUsize = AtomicUsize::new(0);

/// Leased extra-worker slots; returned to the pool on drop (including
/// unwinds, so a panicking task cannot leak capacity).
struct WorkerPermits(usize);

impl Drop for WorkerPermits {
    fn drop(&mut self) {
        if self.0 > 0 {
            EXTRA_WORKERS_IN_USE.fetch_sub(self.0, Ordering::Relaxed);
        }
    }
}

/// Tries to lease up to `want` extra worker threads against the global
/// `jobs() - 1` cap. Grants whatever is available (possibly zero): a
/// nested `par_map` whose outer fan-out already holds every slot simply
/// runs sequentially on its calling thread, so nesting never multiplies
/// threads — the process-wide worker count stays bounded by `jobs()`.
///
/// Results are unaffected either way: `par_map` output is byte-identical
/// at any worker count, so an under-granted lease only changes timing.
fn acquire_extra_workers(want: usize) -> WorkerPermits {
    let cap = jobs().saturating_sub(1);
    if want == 0 || cap == 0 {
        return WorkerPermits(0);
    }
    let mut granted = 0;
    let _ = EXTRA_WORKERS_IN_USE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |in_use| {
        granted = want.min(cap.saturating_sub(in_use));
        (granted > 0).then_some(in_use + granted)
    });
    WorkerPermits(granted)
}

/// Runs one `par_map` item inside its observability task frame (shared by
/// the sequential and parallel paths, which is what keeps shard layout
/// independent of the job count), raises `sim_us` to the simulated time
/// it noted, and accumulates its wall time into the manifest's volatile
/// per-task totals.
fn run_task<R>(base: &[u32], index: u32, sim_us: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let start = std::time::Instant::now();
    let (out, noted) = nvfs_obs::timing::capture_sim_us(|| {
        nvfs_obs::task_frame(base, index, || {
            nvfs_obs::counter_add("par.tasks", 1);
            f()
        })
    });
    sim_us.fetch_max(noted, Ordering::Relaxed);
    nvfs_obs::timing::add_task_wall(start.elapsed());
    out
}

/// Job count explicitly requested for this process (0 = unset).
static CONFIGURED_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide job count (the CLI's `--jobs N`).
///
/// Values are clamped to at least 1. Call before the first [`jobs`] read;
/// later calls still take effect for subsequent reads.
pub fn set_jobs(n: usize) {
    CONFIGURED_JOBS.store(n.max(1), Ordering::Relaxed);
}

/// Resolves the effective job count: [`set_jobs`] > `NVFS_JOBS` >
/// [`std::thread::available_parallelism`].
///
/// Unparsable or zero `NVFS_JOBS` values are ignored rather than
/// honored, so a broken environment degrades to hardware parallelism.
pub fn jobs() -> usize {
    let configured = CONFIGURED_JOBS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    if let Some(n) = env_jobs() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_jobs() -> Option<usize> {
    let raw = std::env::var("NVFS_JOBS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 4, |x| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(items, 8, |i| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_at_every_job_count() {
        let expected: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        for jobs in [1, 2, 3, 4, 7, 64, 100] {
            let out = par_map((0..64u64).collect(), jobs, |i| i.wrapping_mul(0x9E3779B9));
            assert_eq!(out, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            par_map((0..16u32).collect(), 4, |i| {
                if i == 9 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn single_job_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        let out = par_map(vec![(), ()], 1, |()| std::thread::current().id());
        assert!(out.iter().all(|&id| id == caller));
    }

    #[test]
    fn non_clone_items_and_results_work() {
        // Ownership is moved through the slots; no Clone bound anywhere.
        let items: Vec<String> = (0..10).map(|i| i.to_string()).collect();
        let out = par_map(items, 4, |s| s + "!");
        assert_eq!(out[3], "3!");
    }

    #[test]
    fn env_jobs_parses_defensively() {
        // Unit-tests the parser only; the env var itself is process-global
        // and not mutated here.
        assert_eq!(
            "4".trim().parse::<usize>().ok().filter(|n| *n >= 1),
            Some(4)
        );
        assert_eq!("0".trim().parse::<usize>().ok().filter(|n| *n >= 1), None);
        assert_eq!("x".trim().parse::<usize>().ok().filter(|n| *n >= 1), None);
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn spans_see_sim_time_noted_by_their_tasks_at_any_job_count() {
        for jobs in [1, 4] {
            let (_, rec) = nvfs_obs::timed("sweep", || {
                par_map((1..=8u64).collect(), jobs, |i| {
                    nvfs_obs::timing::set_span_sim_us(i * 1_000)
                })
            });
            assert_eq!(rec.sim_us, 8_000, "jobs={jobs}");
            // A span that submits no work reports none, whatever ran before.
            let (_, idle) = nvfs_obs::timed("idle", || ());
            assert_eq!(idle.sim_us, 0, "jobs={jobs}");
        }
    }

    #[test]
    fn nested_par_map_stays_within_worker_cap() {
        // With the permit system, an outer fan-out holding every extra
        // worker forces inner par_map calls onto their calling threads:
        // concurrent task bodies never exceed the process-wide job count.
        set_jobs(3);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let body = |x: u64| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        };
        let out = par_map((0..4u64).collect(), 4, |outer| {
            par_map((0..4u64).collect(), 4, |inner| body(outer * 10 + inner))
        });
        assert_eq!(out[3], vec![30, 31, 32, 33]);
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "peak {} exceeded the jobs=3 cap",
            peak.load(Ordering::SeqCst)
        );
    }
}
