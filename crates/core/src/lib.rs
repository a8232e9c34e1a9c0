//! Client NVRAM file-cache simulation — the paper's §2 study.
//!
//! This crate implements the trace-driven client cache simulator of Baker
//! et al., *Non-Volatile Memory for Fast, Reliable File Systems* (ASPLOS
//! 1992), §2:
//!
//! * `config` — the cache models ([`CacheModelKind`]) and NVRAM
//!   replacement policies ([`PolicyKind`]);
//! * [`block_store`] — the 4 KB block cache with LRU and dirty-age indexes;
//! * [`client`] — per-client model semantics (volatile / write-aside /
//!   unified, Figure 1, and the §2.6 hybrid), told apart by where each
//!   keeps dirty data;
//! * [`consistency`] — Sprite's server-side consistency protocol
//!   (last-writer recall, concurrent write-sharing);
//! * `policy` / [`omniscient`] — LRU, random, and omniscient replacement;
//! * [`session`] — the composable engine: [`SimSession`] drives a
//!   [`SimEngine`] under a caller-assembled [`RunHook`] stack;
//! * `sim` — the multi-client [`ClusterSim`] facade: one
//!   [`SessionBuilder`] stacks the canonical hooks for a run and returns
//!   one [`RunReport`];
//! * [`lifetime`] — the infinite-cache byte-lifetime pass (Figure 2,
//!   Table 2);
//! * [`cost`] — the §2.7 NVRAM-vs-DRAM cost-effectiveness arithmetic;
//! * `recovery` — §4 crash recovery: snapshotting a crashed client's
//!   NVRAM onto a removable board and recovering it elsewhere;
//! * `scrub` — §2.3 corruption defenses: the [`CorruptionInjector`]
//!   hook replays stray-write / bit-flip / decay schedules under a
//!   protection mode with a background checksum scrub, classifying every
//!   corrupt byte as detected, silent, repaired, or vacated.
//!
//! Modules named without a link are private to the crate; what other
//! crates need from them is re-exported at the crate root.
//!
//! # Examples
//!
//! ```
//! use nvfs_core::{ClusterSim, SimConfig};
//! use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
//!
//! let traces = SpriteTraceSet::generate(&TraceSetConfig::tiny());
//! let unified = ClusterSim::new(SimConfig::unified(2 << 20, 1 << 20));
//! let stats = unified.session(traces.trace(6).ops()).run().stats;
//! assert!(stats.net_write_traffic_pct() < 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod block_store;
pub mod client;
mod config;
pub mod consistency;
pub mod cost;
pub mod lifetime;
mod metrics;
mod net;
pub mod omniscient;
mod policy;
mod recovery;
mod scrub;
pub mod session;
mod sim;

pub use config::{CacheModelKind, ConsistencyMode, PolicyKind, SimConfig};
pub use lifetime::{ByteFate, LifetimeLog};
pub use metrics::TrafficStats;
pub use net::NetFaultInjector;
pub use omniscient::OmniscientSchedule;
pub use recovery::recover_up_to;
pub use scrub::{CorruptionInjector, ScrubReport};
pub use session::{
    warmup_cut, FaultInjector, FlushEvent, ObsRecorder, OpAction, OracleJudge, RunHook, SimEngine,
    SimSession, WarmupReset, WriteLogCapture,
};
pub use sim::{ClusterSim, RunReport, RunSummary, SessionBuilder};
