//! The opt-in structured event-trace layer.
//!
//! Instrumented code emits **typed events** — `write_back`, `cache_evict`,
//! `seg_write`, `fault_fired`, `span` — tagged with simulated time and a
//! small set of fields. Tracing is off by default: [`event`] checks one
//! relaxed atomic load and returns a no-op builder, so disabled call sites
//! cost a branch (callers must not format strings before the builder gate;
//! field values are plain integers and `&'static str`s precisely so
//! there's nothing to precompute).
//!
//! When enabled (`--trace-out`), events buffer in the per-task shards and
//! [`render_jsonl`] merges them in submission order, stably sorts by
//! simulated time, and assigns final sequence numbers — producing a JSONL
//! stream that is byte-identical at any `--jobs` count.
//!
//! # Event schema
//!
//! One JSON object per line: `{"seq": N, "t_us": N, "kind": "...",
//! "<field>": ...}`. Kinds and fields in use:
//!
//! | kind             | fields                                         |
//! |------------------|------------------------------------------------|
//! | `span`           | `name`, `phase` (`begin`/`end`)                |
//! | `write_back`     | `cause`, `client`, `file`, `bytes`             |
//! | `cache_evict`    | `client`, `file`, `dirty` (0/1)                |
//! | `seg_write`      | `cause`, `seg`, `data_bytes`, `files`, `partial` |
//! | `fault_fired`    | `fault` (kind), `client`                       |
//! | `recovery_drain` | `client`, `bytes`, `lost_bytes`                |

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::sink;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the event-trace layer on or off (off by default).
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether events are currently recorded.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// A field value: integers or static strings only, so emission never
/// allocates until the event is actually recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val {
    /// Unsigned integer field.
    U64(u64),
    /// Static string field (event vocabulary, causes, names).
    Str(&'static str),
    /// Owned string field (span names arriving as `&str`).
    Owned(String),
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Simulated time in microseconds (0 for events outside sim time,
    /// e.g. spans).
    pub t_us: u64,
    /// Event kind (see the module-level schema table).
    pub kind: &'static str,
    /// Ordered fields.
    pub fields: Vec<(&'static str, Val)>,
}

/// Builder returned by [`event`]; a no-op shell when tracing is off.
#[must_use = "call .emit() to record the event"]
pub struct EventBuilder {
    ev: Option<Event>,
}

impl EventBuilder {
    /// Attaches an unsigned integer field.
    #[inline]
    pub fn u64(mut self, key: &'static str, v: u64) -> Self {
        if let Some(ev) = &mut self.ev {
            ev.fields.push((key, Val::U64(v)));
        }
        self
    }

    /// Attaches a static string field.
    #[inline]
    pub fn str(mut self, key: &'static str, v: &'static str) -> Self {
        if let Some(ev) = &mut self.ev {
            ev.fields.push((key, Val::Str(v)));
        }
        self
    }

    /// Attaches an owned string field (allocates only when enabled).
    #[inline]
    pub(crate) fn owned(mut self, key: &'static str, v: &str) -> Self {
        if let Some(ev) = &mut self.ev {
            ev.fields.push((key, Val::Owned(v.to_string())));
        }
        self
    }

    /// Records the event into the current task shard.
    #[inline]
    pub fn emit(self) {
        if let Some(ev) = self.ev {
            sink::with_local(|l| l.events.push(ev));
        }
    }
}

/// Starts an event of `kind` at simulated time `t_us`. Returns a no-op
/// builder when tracing is disabled.
#[inline]
pub fn event(kind: &'static str, t_us: u64) -> EventBuilder {
    EventBuilder {
        ev: trace_enabled().then(|| Event {
            t_us,
            kind,
            fields: Vec::new(),
        }),
    }
}

/// All recorded events in canonical order: shards merged in submission
/// order, then stably sorted by simulated time.
pub fn sorted() -> Vec<Event> {
    let mut events: Vec<Event> = sink::merged_shards()
        .into_iter()
        .flat_map(|s| s.events)
        .collect();
    events.sort_by_key(|e| e.t_us); // stable: submission order breaks ties
    events
}

/// Renders the canonical event stream as JSONL (one event per line, final
/// sequence numbers assigned after the sort).
pub fn render_jsonl() -> String {
    let mut out = String::new();
    for (seq, ev) in sorted().iter().enumerate() {
        let _ = write!(
            out,
            "{{\"seq\": {seq}, \"t_us\": {}, \"kind\": \"{}\"",
            ev.t_us, ev.kind
        );
        for (key, val) in &ev.fields {
            match val {
                Val::U64(v) => {
                    let _ = write!(out, ", \"{key}\": {v}");
                }
                Val::Str(s) => {
                    let _ = write!(out, ", \"{key}\": \"{}\"", crate::json::escape(s));
                }
                Val::Owned(s) => {
                    let _ = write!(out, ", \"{key}\": \"{}\"", crate::json::escape(s));
                }
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Number of events recorded so far.
pub(crate) fn count() -> u64 {
    sink::merged_shards()
        .iter()
        .map(|s| s.events.len() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{reset, task_frame, test_lock};

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = test_lock();
        reset();
        set_trace_enabled(false);
        event("write_back", 5).u64("bytes", 4096).emit();
        assert_eq!(count(), 0);
        reset();
    }

    #[test]
    fn events_sort_by_time_with_submission_order_ties() {
        let _g = test_lock();
        reset();
        set_trace_enabled(true);
        // Submitted out of task order on purpose: task 1 first.
        task_frame(&[], 1, || {
            event("seg_write", 10).str("cause", "fsync").emit();
            event("seg_write", 5).u64("seg", 1).emit();
        });
        task_frame(&[], 0, || event("seg_write", 5).u64("seg", 0).emit());
        set_trace_enabled(false);
        let evs = sorted();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].t_us, 5);
        // Tie at t=5: task 0 precedes task 1 in submission order.
        assert_eq!(evs[0].fields, vec![("seg", Val::U64(0))]);
        assert_eq!(evs[1].fields, vec![("seg", Val::U64(1))]);
        assert_eq!(evs[2].t_us, 10);
        let jsonl = render_jsonl();
        assert!(
            jsonl.starts_with("{\"seq\": 0, \"t_us\": 5, \"kind\": \"seg_write\", \"seg\": 0}\n")
        );
        assert_eq!(jsonl.lines().count(), 3);
        reset();
    }
}
