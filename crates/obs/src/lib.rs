//! # nvfs-obs — deterministic observability for the nvfs toolkit
//!
//! A zero-dependency metrics/tracing/manifest layer with one governing
//! rule: **nothing observable depends on the job count**. Simulation
//! crates record counters, gauges, histograms, and typed events into
//! per-task shards (`sink`); snapshots merge those shards in submission
//! order, so `--jobs 8` produces byte-identical metric snapshots, event
//! streams, and manifest `run` sections to `--jobs 1`.
//!
//! The pieces:
//!
//! * `metrics` — always-on counters / gauges / power-of-two histograms;
//! * [`events`] — opt-in typed event traces (`--trace-out`), JSONL output;
//! * [`timing`] — nesting-safe wall-clock spans (exclusive time fixes the
//!   old bench double-count), also the stage timer of `nvfs bench`; wall
//!   time stays out of the registry;
//! * [`manifest`] — `RunManifest` with a deterministic `run` section and a
//!   volatile `meta` section, plus parse/diff for `nvfs obs`;
//! * [`json`] — the minimal parser/renderer backing show/diff;
//! * `sink` — the shard machinery (`task_frame` is called by `nvfs-par`
//!   around every task).
//!
//! All state is process-global; a CLI invocation is one run. Modules
//! named without a link are private; what other crates need from them is
//! re-exported at the crate root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod events;
pub mod json;
pub mod manifest;
mod metrics;
mod sink;
pub mod timing;

pub use events::{event, set_trace_enabled};
pub use manifest::RunManifest;
pub use metrics::{counter_add, gauge_set, histogram_record, histogram_record_all};
pub use sink::{task_frame, task_path};
pub use timing::{span, timed};
