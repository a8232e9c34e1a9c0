//! §4 crash recovery, integrated with the cache simulator.
//!
//! "Modified data may become unavailable if it resides in an NVRAM cache on
//! a crashed client. To avoid this problem for clients that do not recover
//! quickly, it must be possible to move an NVRAM component to another
//! client and retrieve its data from the new location."
//!
//! [`snapshot_nvram`] captures a crashed client's NVRAM contents onto a
//! removable [`NvramBoard`]; [`recover_up_to`] drains a (possibly relocated)
//! board into the write stream a recovery agent would send to the file
//! server. Together with [`ClientCache`] this closes the loop: dirty data
//! that was "as permanent as disk" in the simulation really can be turned
//! back into server writes after a crash.

use std::error::Error;
use std::fmt;

use nvfs_nvram::{NvramBoard, RecoveredData};
use nvfs_types::{ClientId, SimTime};

use crate::client::{ClientCache, FlushCause, ServerWrite};

/// Captures the dirty contents of a crashed client's NVRAM onto a board
/// installed in that client.
///
/// Only data the model guarantees to be in NVRAM is captured: for the
/// volatile model that is nothing (a crash loses everything not yet
/// written back), which is exactly the paper's motivation.
pub(crate) fn snapshot_nvram(cache: &ClientCache, host: ClientId) -> NvramBoard {
    let mut board = NvramBoard::new(host);
    for (file, ranges) in cache.nvram_dirty_contents() {
        for r in ranges.iter() {
            board.store(file, r);
        }
    }
    board
}

/// Recovery of a relocated board failed outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// Every battery on the board had died before it was drained: the
    /// contents are gone and the recovery agent has nothing to send.
    DeadBoard {
        /// The client the board was installed in when it was drained.
        host: ClientId,
        /// Dirty bytes that were on the board and are now lost.
        bytes_lost: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::DeadBoard { host, bytes_lost } => write!(
                f,
                "board on {host} found with all batteries dead; {bytes_lost} dirty bytes lost"
            ),
        }
    }
}

impl Error for RecoveryError {}

/// Outcome of recovering a board on a healthy client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The writes sent to the server to make the data durable on disk.
    pub(crate) writes: Vec<ServerWrite>,
    /// The exact byte ranges, per file, that made it off the board — the
    /// observed durable state the durability oracle diffs against its
    /// shadow model.
    pub recovered: RecoveredData,
    /// Total bytes recovered.
    pub bytes: u64,
    /// Bytes the drain failed to apply (torn drains; zero on full
    /// recovery).
    pub bytes_lost: u64,
}

/// Drains `board` on the client it has been moved to, producing the write
/// stream the recovery agent sends to the server. The drain is cut short
/// after `max_bytes` (pass `u64::MAX` for a whole drain) — the torn-drain
/// case. The un-applied remainder is reported in
/// `RecoveryOutcome::bytes_lost` rather than silently dropped.
///
/// # Errors
///
/// A board whose batteries all died before the drain returns
/// `RecoveryError::DeadBoard` carrying the byte count that was lost —
/// `bytes == 0`, no writes are fabricated, and the caller decides how to
/// report the loss.
pub fn recover_up_to(
    board: &mut NvramBoard,
    at: SimTime,
    max_bytes: u64,
) -> Result<RecoveryOutcome, RecoveryError> {
    let host = board.host();
    if !board.batteries().preserves_data() {
        let (_, bytes_lost) = board.drain_up_to(0);
        return Err(RecoveryError::DeadBoard { host, bytes_lost });
    }
    let (contents, bytes_lost): (RecoveredData, u64) = board.drain_up_to(max_bytes);
    let mut writes = Vec::new();
    let mut bytes = 0;
    for (file, ranges) in &contents {
        let len = ranges.len_bytes();
        bytes += len;
        writes.push(ServerWrite {
            time: at,
            client: host,
            file: *file,
            bytes: len,
            cause: FlushCause::Recovery,
        });
    }
    Ok(RecoveryOutcome {
        writes,
        recovered: contents,
        bytes,
        bytes_lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheModelKind, PolicyKind, SimConfig};
    use crate::metrics::TrafficStats;
    use crate::policy::Policy;
    use nvfs_types::{ByteRange, FileId, RangeSet, BLOCK_SIZE};

    fn cache(model: CacheModelKind) -> ClientCache {
        let mut cfg = SimConfig::volatile(8 * BLOCK_SIZE);
        cfg.model = model;
        cfg.nvram_bytes = 4 * BLOCK_SIZE;
        ClientCache::new(&cfg, Policy::from_kind(PolicyKind::Lru, None), ClientId(0))
    }

    fn write_block(c: &mut ClientCache, file: u32, block: u64, t: u64) {
        let mut stats = TrafficStats::default();
        c.write(
            FileId(file),
            ByteRange::at(block * BLOCK_SIZE, BLOCK_SIZE),
            SimTime::from_secs(t),
            &mut stats,
        );
    }

    #[test]
    fn nvram_models_survive_crashes() {
        for model in [CacheModelKind::WriteAside, CacheModelKind::Unified] {
            let mut c = cache(model);
            write_block(&mut c, 1, 0, 1);
            write_block(&mut c, 2, 3, 2);
            let mut board = snapshot_nvram(&c, ClientId(0));
            assert_eq!(board.dirty_bytes(), 2 * BLOCK_SIZE, "{model:?}");
            board.move_to(ClientId(5));
            let outcome = recover_up_to(&mut board, SimTime::from_secs(100), u64::MAX)
                .expect("batteries held");
            assert_eq!(outcome.bytes, 2 * BLOCK_SIZE, "{model:?}");
            assert_eq!(outcome.writes.len(), 2);
            assert_eq!(outcome.bytes_lost, 0);
            assert!(outcome.writes.iter().all(|w| w.client == ClientId(5)));
            assert!(outcome
                .writes
                .iter()
                .all(|w| w.cause == FlushCause::Recovery));
        }
    }

    #[test]
    fn volatile_model_loses_everything() {
        let mut c = cache(CacheModelKind::Volatile);
        write_block(&mut c, 1, 0, 1);
        let board = snapshot_nvram(&c, ClientId(0));
        assert_eq!(
            board.dirty_bytes(),
            0,
            "a volatile cache has no NVRAM to save"
        );
    }

    #[test]
    fn hybrid_loses_only_the_unaged_window() {
        let mut c = cache(CacheModelKind::Hybrid);
        let mut stats = TrafficStats::default();
        write_block(&mut c, 1, 0, 1);
        // Age the first block into NVRAM; the second stays volatile.
        c.writeback_older_than_into(
            SimTime::from_secs(5),
            SimTime::from_secs(35),
            &mut stats,
            &mut Vec::new(),
        );
        write_block(&mut c, 2, 0, 40);
        let board = snapshot_nvram(&c, ClientId(0));
        assert_eq!(
            board.dirty_bytes(),
            BLOCK_SIZE,
            "only the aged block survives"
        );
        assert_eq!(c.remaining_dirty_bytes(), 2 * BLOCK_SIZE);
    }

    /// Regression test: a dead board must never report its (stale) contents
    /// as recovered — zero bytes, zero writes, data did not survive.
    #[test]
    fn dead_batteries_mean_no_recovery() {
        let mut c = cache(CacheModelKind::Unified);
        write_block(&mut c, 1, 0, 1);
        let mut board = snapshot_nvram(&c, ClientId(0));
        assert_eq!(board.dirty_bytes(), BLOCK_SIZE);
        for _ in 0..3 {
            board.batteries_mut().fail_one();
        }
        let err = recover_up_to(&mut board, SimTime::from_secs(10), u64::MAX)
            .expect_err("a dead board must not pretend to recover");
        assert_eq!(
            err,
            RecoveryError::DeadBoard {
                host: ClientId(0),
                bytes_lost: BLOCK_SIZE,
            }
        );
        assert!(err.to_string().contains("batteries dead"));
        // The board really is empty afterwards: a retry finds nothing more
        // to lose and nothing to fabricate.
        let err =
            recover_up_to(&mut board, SimTime::from_secs(11), u64::MAX).expect_err("still dead");
        assert_eq!(
            err,
            RecoveryError::DeadBoard {
                host: ClientId(0),
                bytes_lost: 0,
            }
        );
    }

    #[test]
    fn torn_drain_reports_partial_recovery() {
        let mut c = cache(CacheModelKind::Unified);
        write_block(&mut c, 1, 0, 1);
        write_block(&mut c, 2, 1, 2);
        let mut board = snapshot_nvram(&c, ClientId(0));
        // The budget covers one block plus 100 spare bytes: the torn cut
        // lands on the block boundary, so exactly one whole block survives
        // and exactly one whole block is lost — no write record is split.
        let outcome = recover_up_to(&mut board, SimTime::from_secs(10), BLOCK_SIZE + 100)
            .expect("batteries held");
        assert_eq!(outcome.bytes, BLOCK_SIZE);
        assert_eq!(outcome.bytes_lost, BLOCK_SIZE);
        let recovered: u64 = outcome.recovered.values().map(RangeSet::len_bytes).sum();
        assert_eq!(recovered, outcome.bytes);
    }

    #[test]
    fn write_aside_snapshot_matches_remaining_dirty() {
        let mut c = cache(CacheModelKind::WriteAside);
        write_block(&mut c, 1, 0, 1);
        write_block(&mut c, 1, 1, 2);
        let board = snapshot_nvram(&c, ClientId(0));
        assert_eq!(board.dirty_bytes(), c.remaining_dirty_bytes());
    }
}
