//! Host-time benchmark of the nvfs simulator.
//!
//! Four seeded workloads drive the simulator through each layer's public
//! entry points and time those calls from outside; see `README.md` in
//! this package for the workloads, the metrics and how to read them.

pub mod cli;
pub mod compare;
pub mod run;
pub mod stats;
pub mod steady;
pub mod trace;
pub mod workloads;
