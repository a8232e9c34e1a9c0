//! Sprite's cache consistency protocol, server side (§2.1).
//!
//! "Sprite file servers maintain consistency between client caches. The
//! server keeps track of the last client to write each file. If another
//! client opens that file, the server recalls any dirty data not yet
//! flushed from the last writer's cache. If two or more clients have the
//! same file open simultaneously, and at least one of them has it open for
//! writing, the server disables client caching on the file until all the
//! clients have closed it."

use std::collections::BTreeMap;

use nvfs_trace::event::OpenMode;
use nvfs_types::{ClientId, FileId};

use crate::block_store::FileMap;
use crate::config::ConsistencyMode;

/// What the server demands of the clients when a file is opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenOutcome {
    /// A client whose dirty data for this file must be recalled (flushed to
    /// the server) before the open proceeds.
    pub recall_from: Option<ClientId>,
    /// The opener should discard any cached blocks of this file — another
    /// client wrote it since, so the copies are stale.
    pub invalidate_opener: bool,
    /// Caching was just disabled (concurrent write-sharing): every client
    /// must flush dirty data for the file and stop caching it.
    pub(crate) disable_caching: bool,
}

/// Per-file server state.
#[derive(Debug, Clone, Default)]
struct FileState {
    last_writer: Option<ClientId>,
    /// Per-client (total opens, writing opens).
    opens: BTreeMap<ClientId, (u32, u32)>,
    caching_disabled: bool,
    /// Clients whose cache may hold blocks of the file, sorted.
    holders: Vec<ClientId>,
}

impl FileState {
    fn writers(&self) -> u32 {
        self.opens.values().map(|&(_, w)| w).sum()
    }
}

/// The server's consistency state machine.
///
/// # Examples
///
/// ```
/// use nvfs_core::consistency::ConsistencyServer;
/// use nvfs_trace::event::OpenMode;
/// use nvfs_types::{ClientId, FileId};
///
/// let mut server = ConsistencyServer::new();
/// server.on_open(FileId(0), ClientId(0), OpenMode::Write);
/// server.note_write(FileId(0), ClientId(0));
/// server.on_close(FileId(0), ClientId(0));
/// // A second client opens the file: the server recalls client 0's data.
/// let outcome = server.on_open(FileId(0), ClientId(1), OpenMode::Read);
/// assert_eq!(outcome.recall_from, Some(ClientId(0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConsistencyServer {
    /// One row per file, from its first open or cached access to its
    /// delete. Lookups only: never walked in hash order.
    files: FileMap<FileState>,
    mode: ConsistencyMode,
}

impl ConsistencyServer {
    /// Creates a server using Sprite's whole-file protocol.
    pub fn new() -> Self {
        ConsistencyServer::default()
    }

    /// Creates a server using the given protocol granularity.
    pub fn with_mode(mode: ConsistencyMode) -> Self {
        ConsistencyServer {
            mode,
            ..ConsistencyServer::default()
        }
    }

    /// Registers an open and returns the required client actions.
    pub fn on_open(&mut self, file: FileId, client: ClientId, mode: OpenMode) -> OpenOutcome {
        let state = self.files.entry(file).or_default();
        let mut outcome = OpenOutcome::default();

        // Whole-file consistency: recall the last writer's dirty data and
        // have the opener discard stale copies. The block-on-demand
        // protocol defers both to read time, so the last-writer record is
        // kept.
        if self.mode == ConsistencyMode::WholeFile {
            if let Some(w) = state.last_writer {
                if w != client {
                    outcome.recall_from = Some(w);
                    outcome.invalidate_opener = true;
                    state.last_writer = None;
                }
            }
        }

        let entry = state.opens.entry(client).or_insert((0, 0));
        entry.0 += 1;
        if mode.is_write() {
            entry.1 += 1;
        }

        // Concurrent write-sharing check.
        if !state.caching_disabled && state.opens.len() >= 2 && state.writers() >= 1 {
            state.caching_disabled = true;
            outcome.disable_caching = true;
        }
        outcome
    }

    /// Registers a close. Returns `true` if caching was re-enabled for the
    /// file (the last sharer closed it).
    pub fn on_close(&mut self, file: FileId, client: ClientId) -> bool {
        let Some(state) = self.files.get_mut(&file) else {
            return false;
        };
        if let Some(entry) = state.opens.get_mut(&client) {
            entry.0 = entry.0.saturating_sub(1);
            // Conservatively retire a writing open first.
            entry.1 = entry.1.min(entry.0);
            if entry.0 == 0 {
                state.opens.remove(&client);
            }
        }
        if state.caching_disabled && state.opens.is_empty() {
            state.caching_disabled = false;
            return true;
        }
        false
    }

    /// Records that `client` wrote `file` through its cache.
    pub fn note_write(&mut self, file: FileId, client: ClientId) {
        let state = self.files.entry(file).or_default();
        if !state.caching_disabled {
            state.last_writer = Some(client);
        }
    }

    /// Records that `client` flushed all its dirty data for `file` (e.g.
    /// delayed write-back), so no recall will be needed.
    pub fn note_flush(&mut self, file: FileId, client: ClientId) {
        if let Some(state) = self.files.get_mut(&file) {
            if state.last_writer == Some(client) {
                state.last_writer = None;
            }
        }
    }

    /// The client currently recorded as the last writer of `file`, if any.
    pub(crate) fn last_writer(&self, file: FileId) -> Option<ClientId> {
        self.files.get(&file).and_then(|s| s.last_writer)
    }

    /// Whether caching is currently disabled for `file`.
    pub fn is_disabled(&self, file: FileId) -> bool {
        self.files.get(&file).is_some_and(|s| s.caching_disabled)
    }

    /// Records that `client`'s cache may now hold blocks of `file`.
    ///
    /// A cache gains a file's blocks only through its own client's reads
    /// and writes, so truncate, delete and a caching-disabled open need
    /// visit only these caches.
    pub(crate) fn note_holder(&mut self, file: FileId, client: ClientId) {
        let holders = &mut self.files.entry(file).or_default().holders;
        if let Err(at) = holders.binary_search(&client) {
            holders.insert(at, client);
        }
    }

    /// The clients whose caches may hold blocks of `file`, in client
    /// order.
    pub(crate) fn holders(&self, file: FileId) -> &[ClientId] {
        self.files.get(&file).map_or(&[], |s| &s.holders)
    }

    /// Drops all state for a deleted file and returns its holders, in
    /// client order.
    pub fn on_delete(&mut self, file: FileId) -> Vec<ClientId> {
        self.files
            .remove(&file)
            .map_or_else(Vec::new, |s| s.holders)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(1);
    const A: ClientId = ClientId(0);
    const B: ClientId = ClientId(1);

    #[test]
    fn same_client_reopen_triggers_nothing() {
        let mut s = ConsistencyServer::new();
        s.on_open(F, A, OpenMode::Write);
        s.note_write(F, A);
        s.on_close(F, A);
        let o = s.on_open(F, A, OpenMode::ReadWrite);
        assert_eq!(o, OpenOutcome::default());
    }

    #[test]
    fn foreign_open_recalls_last_writer() {
        let mut s = ConsistencyServer::new();
        s.on_open(F, A, OpenMode::Write);
        s.note_write(F, A);
        s.on_close(F, A);
        let o = s.on_open(F, B, OpenMode::Read);
        assert_eq!(o.recall_from, Some(A));
        assert!(o.invalidate_opener);
        assert!(
            !o.disable_caching,
            "sequential sharing keeps caching enabled"
        );
        // The recall clears the last-writer record.
        s.on_close(F, B);
        let o2 = s.on_open(F, B, OpenMode::Read);
        assert_eq!(o2.recall_from, None);
    }

    #[test]
    fn concurrent_write_sharing_disables_caching() {
        let mut s = ConsistencyServer::new();
        s.on_open(F, A, OpenMode::Write);
        let o = s.on_open(F, B, OpenMode::Read);
        assert!(o.disable_caching);
        assert!(s.is_disabled(F));
        // Stays disabled until everyone closes.
        assert!(!s.on_close(F, A));
        assert!(s.is_disabled(F));
        assert!(s.on_close(F, B));
        assert!(!s.is_disabled(F));
    }

    #[test]
    fn two_readers_do_not_disable_caching() {
        let mut s = ConsistencyServer::new();
        s.on_open(F, A, OpenMode::Read);
        let o = s.on_open(F, B, OpenMode::Read);
        assert!(!o.disable_caching);
        assert!(!s.is_disabled(F));
    }

    #[test]
    fn reader_then_writer_disables() {
        let mut s = ConsistencyServer::new();
        s.on_open(F, A, OpenMode::Read);
        let o = s.on_open(F, B, OpenMode::Write);
        assert!(o.disable_caching);
    }

    #[test]
    fn note_flush_clears_recall() {
        let mut s = ConsistencyServer::new();
        s.on_open(F, A, OpenMode::Write);
        s.note_write(F, A);
        s.on_close(F, A);
        s.note_flush(F, A);
        let o = s.on_open(F, B, OpenMode::Read);
        assert_eq!(o.recall_from, None);
    }

    #[test]
    fn delete_clears_state() {
        let mut s = ConsistencyServer::new();
        s.on_open(F, A, OpenMode::Write);
        s.on_open(F, B, OpenMode::Write);
        assert!(s.is_disabled(F));
        s.on_delete(F);
        assert!(!s.is_disabled(F));
    }

    #[test]
    fn block_on_demand_defers_recall_to_reads() {
        let mut s = ConsistencyServer::with_mode(ConsistencyMode::BlockOnDemand);
        assert_eq!(s.mode, ConsistencyMode::BlockOnDemand);
        s.on_open(F, A, OpenMode::Write);
        s.note_write(F, A);
        s.on_close(F, A);
        // A foreign open triggers no whole-file recall…
        let o = s.on_open(F, B, OpenMode::Read);
        assert_eq!(o.recall_from, None);
        assert!(!o.invalidate_opener);
        // …because the last-writer record is preserved for read time.
        assert_eq!(s.last_writer(F), Some(A));
        // Concurrent write-sharing still disables caching.
        let o2 = s.on_open(F, A, OpenMode::Write);
        assert!(o2.disable_caching);
    }

    #[test]
    fn nested_opens_by_same_client_counted() {
        let mut s = ConsistencyServer::new();
        s.on_open(F, A, OpenMode::Write);
        s.on_open(F, A, OpenMode::Read);
        // Still a single client: no sharing.
        assert!(!s.is_disabled(F));
        s.on_close(F, A);
        // One open remains; a foreign writer now triggers disable.
        let o = s.on_open(F, B, OpenMode::Write);
        assert!(o.disable_caching);
    }
}
