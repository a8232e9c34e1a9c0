//! Shard machinery shared by the metrics registry, the event-trace layer,
//! and the span timers.
//!
//! Every recording call lands in a **thread-local buffer** tagged with the
//! current *task path* — the submission-order position of the enclosing
//! `nvfs-par` task, e.g. `[2, 5]` for item 5 of a `par_map` nested inside
//! item 2 of an outer one (the main thread records under the empty path).
//! A buffer is flushed to the global shard list when its task frame ends,
//! and merges happen in `(path, flush-sequence)` order, which equals
//! submission order. That single rule is what makes every snapshot
//! byte-identical at any `--jobs` count: a parallel run flushes exactly
//! the shards a sequential run does, just from different threads.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::events::Event;
use crate::timing::SpanRecord;

/// Power-of-two histogram bucket count: bucket `i` holds values whose
/// bit-length is `i` (bucket 0 holds the value zero).
pub(crate) const HISTO_BUCKETS: usize = 65;

/// One flushed task buffer, tagged for deterministic merging.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Submission path of the task that produced this shard.
    path: Vec<u32>,
    /// Global flush sequence — tie-break for repeated flushes of the same
    /// path (only the main thread's root path flushes more than once, and
    /// it does so in program order).
    seq: u64,
    pub(crate) counters: BTreeMap<&'static str, u64>,
    /// Gauge sets in recording order; merge applies them in shard order so
    /// the last write in submission order wins.
    pub(crate) gauges: Vec<(&'static str, u64)>,
    pub(crate) histos: BTreeMap<&'static str, Box<[u64; HISTO_BUCKETS]>>,
    pub(crate) events: Vec<Event>,
    pub(crate) spans: Vec<SpanRecord>,
}

impl Shard {
    fn new(path: Vec<u32>) -> Self {
        Shard {
            path,
            seq: 0,
            counters: BTreeMap::new(),
            gauges: Vec::new(),
            histos: BTreeMap::new(),
            events: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histos.is_empty()
            && self.events.is_empty()
            && self.spans.is_empty()
    }
}

thread_local! {
    static LOCAL: RefCell<Shard> = RefCell::new(Shard::new(Vec::new()));
}

static SHARDS: Mutex<Vec<Shard>> = Mutex::new(Vec::new());
static FLUSH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs `f` against the current thread's buffer.
pub(crate) fn with_local<R>(f: impl FnOnce(&mut Shard) -> R) -> R {
    LOCAL.with(|l| f(&mut l.borrow_mut()))
}

/// The current task path (for handing to worker threads).
pub fn task_path() -> Vec<u32> {
    with_local(|l| l.path.clone())
}

/// Runs `f` in a fresh task frame at `base + [index]`, flushing the
/// frame's recordings to the global shard list when `f` returns.
///
/// `base` is the *submitting* context's path ([`task_path`] captured
/// before fan-out) so worker threads inherit the correct position even
/// though their own thread-local path is empty. `nvfs-par` calls this for
/// every `par_map` item on both its sequential and parallel paths, which
/// is what keeps shard layout independent of the job count.
pub fn task_frame<R>(base: &[u32], index: u32, f: impl FnOnce() -> R) -> R {
    let mut path = base.to_vec();
    path.push(index);
    let saved = with_local(|l| std::mem::replace(l, Shard::new(path)));
    let out = f();
    let fresh = with_local(|l| std::mem::replace(l, saved));
    flush_shard(fresh);
    out
}

/// Flushes the calling thread's buffer (keeping its path) so its contents
/// become visible to snapshots. Called automatically by every snapshot on
/// the snapshotting thread.
fn flush_local() {
    let shard = with_local(|l| {
        let path = l.path.clone();
        std::mem::replace(l, Shard::new(path))
    });
    flush_shard(shard);
}

fn flush_shard(mut shard: Shard) {
    if shard.is_empty() {
        return;
    }
    shard.seq = FLUSH_SEQ.fetch_add(1, Ordering::Relaxed);
    SHARDS.lock().expect("shard list poisoned").push(shard);
}

/// Clones the flushed shards in deterministic merge order.
pub(crate) fn merged_shards() -> Vec<Shard> {
    flush_local();
    let mut shards = SHARDS.lock().expect("shard list poisoned").clone();
    shards.sort_by(|a, b| a.path.cmp(&b.path).then(a.seq.cmp(&b.seq)));
    shards
}

/// Clears all recorded state: flushed shards and the calling thread's
/// buffer. Other threads' unflushed buffers are untouched (worker threads
/// only hold data inside task frames, which always flush).
#[cfg(test)]
pub(crate) fn reset() {
    SHARDS.lock().expect("shard list poisoned").clear();
    FLUSH_SEQ.store(0, Ordering::Relaxed);
    with_local(|l| {
        let path = l.path.clone();
        *l = Shard::new(path);
    });
    crate::manifest::reset_context();
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_frames_tag_shards_with_submission_paths() {
        let _g = test_lock();
        reset();
        crate::metrics::counter_add("sink.test.root", 1);
        task_frame(&[], 1, || crate::metrics::counter_add("sink.test.t1", 10));
        task_frame(&[], 0, || {
            crate::metrics::counter_add("sink.test.t0", 5);
            let base = task_path();
            assert_eq!(base, vec![0]);
            task_frame(&base, 2, || crate::metrics::counter_add("sink.test.t02", 7));
        });
        let shards = merged_shards();
        let paths: Vec<Vec<u32>> = shards.iter().map(|s| s.path.clone()).collect();
        assert_eq!(
            paths,
            vec![vec![], vec![0], vec![0, 2], vec![1]],
            "shards merge in submission (path) order"
        );
        reset();
    }

    #[test]
    fn reset_clears_everything() {
        let _g = test_lock();
        reset();
        crate::metrics::counter_add("sink.test.gone", 3);
        reset();
        assert!(merged_shards().is_empty());
    }
}
