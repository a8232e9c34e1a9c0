//! Client NVRAM file-cache simulation — the paper's §2 study.
//!
//! This crate implements the trace-driven client cache simulator of Baker
//! et al., *Non-Volatile Memory for Fast, Reliable File Systems* (ASPLOS
//! 1992), §2:
//!
//! * [`config`] — the three cache models ([`CacheModelKind`]) and NVRAM
//!   replacement policies ([`PolicyKind`]);
//! * [`block_store`] — the 4 KB block cache with LRU and dirty-age indexes;
//! * [`client`] — per-client model semantics (volatile / write-aside /
//!   unified, Figure 1);
//! * [`consistency`] — Sprite's server-side consistency protocol
//!   (last-writer recall, concurrent write-sharing);
//! * [`policy`] / [`omniscient`] — LRU, random, and omniscient replacement;
//! * [`session`] — the composable engine: [`SimSession`] drives a
//!   [`SimEngine`] under a caller-assembled [`RunHook`] stack;
//! * [`sim`] — the multi-client [`ClusterSim`] facade: one
//!   [`SessionBuilder`] stacks the canonical hooks for a run and returns
//!   one [`RunReport`];
//! * [`lifetime`] — the infinite-cache byte-lifetime pass (Figure 2,
//!   Table 2);
//! * [`cost`] — the §2.7 NVRAM-vs-DRAM cost-effectiveness arithmetic;
//! * [`recovery`] — §4 crash recovery: snapshotting a crashed client's
//!   NVRAM onto a removable board and recovering it elsewhere;
//! * [`scrub`] — §2.3 corruption defenses: the [`CorruptionInjector`]
//!   hook replays stray-write / bit-flip / decay schedules under a
//!   protection mode with a background checksum scrub, classifying every
//!   corrupt byte as detected, silent, repaired, or vacated.
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

pub mod block_store;
pub mod client;
pub mod config;
pub mod consistency;
pub mod cost;
pub mod lifetime;
pub mod metrics;
pub mod net;
pub mod omniscient;
pub mod policy;
pub mod recovery;
pub mod scrub;
pub mod session;
pub mod sim;

pub use client::{ClientCache, FlushCause};
pub use config::{CacheModelKind, ConsistencyMode, PolicyKind, SimConfig};
pub use consistency::ConsistencyServer;
pub use lifetime::{ByteFate, FateRecord, LifetimeLog};
pub use metrics::TrafficStats;
pub use net::{NetFaultInjector, NetReport, NetStats};
pub use omniscient::OmniscientSchedule;
pub use policy::Policy;
pub use recovery::{recover, recover_up_to, snapshot_nvram, RecoveryError, RecoveryOutcome};
pub use scrub::{CorruptionInjector, ScrubReport};
pub use session::{
    warmup_cut, CrashEvent, DrainEvent, FaultInjector, FlushEvent, ObsRecorder, OpAction,
    OracleJudge, RunHook, SimEngine, SimSession, WarmupReset, WriteLogCapture,
};
pub use sim::{ClusterSim, RunReport, RunSummary, SessionBuilder};
