//! Synthetic workload generation.
//!
//! The Sprite traces and server counters the paper measured are not
//! available, so this module synthesizes deterministic equivalents:
//!
//! * `sprite` — eight client-side day traces (see [`SpriteTraceSet`]);
//! * [`lfs_workload`] — server-side dirty-byte/fsync arrival streams for
//!   the eight LFS file systems of Table 3;
//! * [`dist`] — the small sampling helpers both generators share.

pub mod dist;
pub mod lfs_workload;
mod sprite;

pub use sprite::{SpriteTraceSet, Trace, TraceSetConfig};
