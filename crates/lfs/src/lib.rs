//! Log-structured file system simulation — the paper's §3 study.
//!
//! Implements a Sprite-style LFS substrate and the NVRAM write-buffer
//! proposal of Baker et al. (ASPLOS 1992), §3:
//!
//! * [`layout`] — segments, metadata blocks, summary blocks (Figure 7) and
//!   the partial-segment space-overhead arithmetic;
//! * `dirty` — the server's in-memory dirty-data cache with the 30-second
//!   age rule;
//! * `log` — the segment packer/writer and the live-block table;
//! * [`fs`] — the trace-driven file-system simulator: one drive loop
//!   (sweep clock, crash cursor, full-segment and shutdown flushes) with a
//!   non-volatile buffer in front of the segment log. This module holds the
//!   *paging* buffer with three write-buffer modes (none / fsync-absorbing
//!   / full staging), producing the [`fs::FsReport`]s behind Tables 3 and 4
//!   and the 10–25% / 90% disk-write-reduction claims;
//! * [`wal_fs`] — the *logging* buffer for the same loop: `fsync` appends
//!   exact bytes to an NVRAM log and acks immediately, segments drain
//!   lazily, and the log truncates only after writeback completes;
//! * [`read_latency`] — the §3 closing analysis: M/G/1 read response time
//!   vs write size (optimal ≈ two tracks; full segments cost ~14%);
//! * [`ffs_baseline`] — the traditional update-in-place comparator that the
//!   log-structured design amortizes away.
//!
//! Modules named without a link are private to the crate; what other
//! crates need from them is re-exported at the crate root.
//!
//! # Examples
//!
//! ```
//! use nvfs_lfs::fs::{run_filesystem, LfsConfig};
//! use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};
//!
//! let ws = sprite_server_workloads(&ServerWorkloadConfig::tiny());
//! let direct = run_filesystem(&ws[0], &LfsConfig::direct());
//! let buffered = run_filesystem(&ws[0], &LfsConfig::with_fsync_buffer(512 << 10));
//! assert!(buffered.disk_write_accesses() < direct.disk_write_accesses());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dirty;
pub mod ffs_baseline;
pub mod fs;
pub mod layout;
mod log;
pub mod read_latency;
pub mod wal_fs;

pub use dirty::DirtyCache;
pub use fs::{run_filesystem_faulted, run_server, run_server_faulted, LfsConfig};
pub use layout::{SegmentCause, SEGMENT_BYTES};
pub use log::{Chunks, SegmentUsage, SegmentWriter};
pub use wal_fs::{run_server_wal, run_server_wal_faulted, WalConfig};
