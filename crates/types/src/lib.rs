//! Base types shared by every `nvfs` crate.
//!
//! This crate defines the vocabulary of the simulation toolkit that reproduces
//! Baker et al., *Non-Volatile Memory for Fast, Reliable File Systems*
//! (ASPLOS 1992):
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time,
//!   plus the Sprite policy constants (30-second delayed write-back,
//!   5-second block cleaner period).
//! * [`ClientId`], [`FileId`], [`ProcessId`], [`BlockId`] — entity identifiers.
//! * [`ByteRange`] and [`RangeSet`] — half-open byte intervals and disjoint
//!   interval sets, the workhorses of byte-level dirty tracking and the
//!   byte-lifetime analysis of §2.3 of the paper.
//! * [`block`] — 4 KB cache/FS block geometry helpers.
//! * [`framing`] — the FNV-1a checksummed record framing shared by the LFS
//!   segment summary blocks and the NVRAM write-ahead log.
//! * `hash` — the fixed, unseeded [`BlockHasher`] behind the lookup-only
//!   [`BlockMap`] index of the client block store.
//!
//! Modules named without a link are private to the crate; what other
//! crates need from them is re-exported at the crate root.
//!
//! # Examples
//!
//! ```
//! use nvfs_types::{ByteRange, RangeSet};
//!
//! let mut dirty = RangeSet::new();
//! dirty.insert(ByteRange::new(0, 4096));
//! dirty.insert(ByteRange::new(8192, 12288));
//! assert_eq!(dirty.len_bytes(), 8192);
//! dirty.remove(ByteRange::new(0, 2048));
//! assert_eq!(dirty.len_bytes(), 6144);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod block;
pub mod framing;
mod hash;
mod id;
mod range;
mod time;

pub use block::{blocks_of_range, BLOCK_SIZE};
pub use framing::Fnv64;
pub use hash::{BlockHasher, BlockMap};
pub use id::{BlockId, BlockIndex, ClientId, FileId, ProcessId};
pub use range::{ByteRange, RangeSet};
pub use time::{SimDuration, SimTime, BLOCK_CLEANER_PERIOD, DELAYED_WRITE_BACK};
