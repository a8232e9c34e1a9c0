//! Parametric disk model with FIFO and elevator scheduling.
//!
//! Supports the §3 arguments of Baker et al. (ASPLOS 1992): how much disk
//! bandwidth random block writes waste, how much a sorted NVRAM-buffered
//! batch recovers, and the per-access service times the LFS simulator uses
//! to account segment writes.
//!
//! # Examples
//!
//! ```
//! use nvfs_disk::{DiskParams, DiskQueue, Discipline, DiskRequest};
//!
//! let batch: Vec<DiskRequest> =
//!     (0..100).map(|i| DiskRequest { addr: i * 7_919 * 4096 % (200 << 20), len: 4096 }).collect();
//! let fifo = DiskQueue::new(DiskParams::sprite_era()).service_batch(&batch, Discipline::Fifo);
//! let sorted = DiskQueue::new(DiskParams::sprite_era()).service_batch(&batch, Discipline::Elevator);
//! assert!(sorted.total_ms < fifo.total_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod model;
mod sched;

pub use model::DiskParams;
pub use sched::{Discipline, DiskQueue, DiskRequest};
