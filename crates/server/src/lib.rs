//! File-server models: synchronous-write protocols, Prestoserve-style
//! server NVRAM, and the end-to-end client→LFS composition.
//!
//! The paper's §3 contrasts NFS (synchronous writes, where server NVRAM
//! buys "up to 50%" gains) with write-optimized file systems like Sprite
//! LFS (asynchronous, where NVRAM still removes the fsync-forced partial
//! segments). This crate provides:
//!
//! * [`presto`] — NFS-synchronous vs Prestoserve-buffered write servicing
//!   over the parametric disk model;
//! * [`e2e`] — a composed pipeline that feeds the client-cache simulator's
//!   actual server-bound write stream into the LFS simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod e2e;
pub mod presto;
