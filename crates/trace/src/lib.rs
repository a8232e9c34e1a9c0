//! Trace events, canonical op streams, and synthetic Sprite workloads.
//!
//! The paper's simulations are trace-driven (§2.2): raw Sprite trace
//! records are first lowered into "read, write, delete, flush, and
//! invalidate operations on ranges of bytes", which the cache simulator
//! then replays. This crate provides all three layers:
//!
//! * [`event`] — raw trace records (opens, closes, seeks, transfers,
//!   truncations, deletions, fsyncs, migrations);
//! * [`convert`] — the lowering pass that replays file offsets to produce
//!   explicit byte ranges;
//! * [`op`] — the canonical, time-ordered [`op::OpStream`] consumed by the
//!   simulators;
//! * [`synth`] — deterministic synthetic workloads standing in for the
//!   unavailable Sprite traces (see `DESIGN.md` for the substitution
//!   rationale);
//! * [`stats`] — summary statistics;
//! * [`validate`] — well-formedness checks on op streams;
//! * [`serialize`] — a line-oriented text format for saving and replaying
//!   op streams.
//!
//! # Examples
//!
//! ```
//! use nvfs_trace::stats::TraceStats;
//! use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
//!
//! let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
//! let stats = TraceStats::for_stream(set.trace(0).ops());
//! assert!(stats.write_bytes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod convert;
pub mod event;
pub mod op;
pub mod serialize;
pub mod stats;
pub mod synth;
pub mod validate;

pub use op::OpStream;
