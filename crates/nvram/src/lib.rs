//! NVRAM hardware models: device, batteries, crash recovery, and costs.
//!
//! The paper treats NVRAM as "RAM with battery backup" whose essential
//! properties are (a) it survives machine failures, (b) it may be slower
//! than DRAM, (c) it costs several times more per megabyte (Table 1), and
//! (d) a board can be moved to another machine to recover its contents
//! after a client crash (§4). This crate models exactly those properties:
//!
//! * `device` — the NVRAM access counters behind §2.6's comparison of
//!   the cache models (how much slower NVRAM costs is priced by the
//!   `nvram-speed` experiment);
//! * `battery` — the battery bank state machine (the Table 1 components
//!   carry one to three lithium batteries with failover);
//! * `board` — a removable board holding dirty byte ranges, with the
//!   crash → move → recover flow of §4;
//! * [`cost`] — the Table 1 price catalogue and the cost-effectiveness
//!   arithmetic of §2.7;
//! * [`protect`] — write-protection modes: the §2.3 defense against
//!   stray kernel writes and media decay, with protect-window timing and
//!   checksum hashing charged at Table 1 access rates.
//!
//! Modules named without a link are private to the crate; what other
//! crates need from them is re-exported at the crate root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod battery;
mod board;
pub mod cost;
mod device;
pub mod protect;

pub use battery::{BatteryBank, BatteryState};
pub use board::{NvramBoard, RecoveredData};
pub use device::NvramDevice;
