//! # nvfs — NVRAM for fast, reliable file systems
//!
//! A trace-driven simulation toolkit reproducing Baker, Asami, Deprit,
//! Ousterhout & Seltzer, *Non-Volatile Memory for Fast, Reliable File
//! Systems* (ASPLOS 1992).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — ids, simulated time, byte-range algebra, and the FNV-1a
//!   hasher behind every checksum and config digest.
//! * [`trace`] — trace events, op streams, and the synthetic Sprite workload
//!   generator (eight 24-hour traces; traces 3 and 4 carry the large-file
//!   simulation workloads).
//! * [`nvram`] — NVRAM device/battery/crash models and the Table 1 cost
//!   catalogue.
//! * [`core`] — the client cache study (§2): volatile, write-aside and
//!   unified cache models, LRU/random/omniscient replacement, the Sprite
//!   consistency protocol, byte-lifetime analysis, and cost-effectiveness.
//! * [`disk`] — parametric disk model with FIFO/elevator scheduling.
//! * [`lfs`] — the log-structured file system study (§3): segments,
//!   fsync-forced partial segments, and the NVRAM segment write buffer.
//! * [`wal`] — the NVRAM write-ahead log: an append-only log of checksummed,
//!   sequence-numbered records where `fsync` acks as soon as its record is
//!   durably appended, segments drain lazily in the background, and the log
//!   truncates only once its records' segment writes complete.
//! * [`server`] — Sprite vs NFS server protocols and Prestoserve-style
//!   server-side NVRAM.
//! * [`report`] — tables, figure series, and the experiment registry.
//! * [`experiments`] — runners that regenerate every table and figure of the
//!   paper.
//! * [`faults`] — deterministic fault-injection schedules (client/server
//!   crashes, battery aging, torn writes) and end-to-end reliability
//!   accounting for the §2.3/§4 crash studies.
//! * [`oracle`] — the crash-consistency durability oracle: a shadow model
//!   of each cache model's durability contract, diffed against recovered
//!   state after every injected crash to yield typed verdicts (`Clean`,
//!   `LostDurable`, `Resurrected`, `DoubleReplay`) and prove replay
//!   idempotent.
//! * [`rng`] — the self-contained xoshiro256++ PRNG every simulation seeds
//!   from (no external dependencies, stable streams).
//! * [`par`] — deterministic parallel fan-out ([`par::par_map`]); output
//!   is byte-identical at any job count.
//! * [`obs`] — deterministic observability: the metrics registry, the
//!   opt-in event-trace layer (`--trace-out`), wall-clock timing spans,
//!   and run manifests (`--manifest-out`).
//!   Snapshots, event streams, and manifest `run` sections are
//!   byte-identical at any job count.
//!
//! # Quickstart
//!
//! ```
//! use nvfs::core::{CacheModelKind, ClusterSim, SimConfig};
//! use nvfs::trace::synth::{SpriteTraceSet, TraceSetConfig};
//!
//! // Generate a small deterministic Sprite-like trace and run the unified
//! // NVRAM cache model over it.
//! let traces = SpriteTraceSet::generate(&TraceSetConfig::small());
//! let cfg = SimConfig::unified(8 << 20, 1 << 20);
//! let stats = ClusterSim::new(cfg).session(traces.trace(6).ops()).run().stats;
//! assert!(stats.server_write_bytes <= stats.app_write_bytes);
//! ```

pub use nvfs_core as core;
pub use nvfs_disk as disk;
pub use nvfs_experiments as experiments;
pub use nvfs_faults as faults;
pub use nvfs_lfs as lfs;
pub use nvfs_nvram as nvram;
pub use nvfs_obs as obs;
pub use nvfs_oracle as oracle;
pub use nvfs_par as par;
pub use nvfs_report as report;
pub use nvfs_rng as rng;
pub use nvfs_server as server;
pub use nvfs_trace as trace;
pub use nvfs_types as types;
pub use nvfs_wal as wal;
