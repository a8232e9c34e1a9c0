//! Raw trace events.
//!
//! These mirror the vocabulary of the Sprite traces used by the paper
//! (§2.2): the traces "record key file system operations such as file opens,
//! closes, and seeks", plus truncation/deletion events, consistency-relevant
//! opens, explicit `fsync` calls, and process migrations. Read and write
//! traffic is recorded as transfer lengths at the current file offset; the
//! conversion pass ([`crate::convert`]) deduces the byte ranges, exactly as
//! the paper's first simulation pass did.

use nvfs_types::{ClientId, FileId, ProcessId, SimTime};

/// Access mode requested by an [`EventKind::Open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpenMode {
    /// Read-only open.
    Read,
    /// Write-only open (e.g. creating a new file).
    Write,
    /// Open for both reading and writing.
    ReadWrite,
}

impl OpenMode {
    /// Whether this mode can dirty data.
    pub const fn is_write(self) -> bool {
        matches!(self, OpenMode::Write | OpenMode::ReadWrite)
    }
}

/// One record of a raw trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event occurred.
    pub time: SimTime,
    /// The client workstation that issued it.
    pub client: ClientId,
    /// The process that issued it (used for migration accounting).
    pub pid: ProcessId,
    /// What happened.
    pub kind: EventKind,
}

/// The kind of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A file was opened; the file offset resets to zero.
    Open {
        /// File being opened.
        file: FileId,
        /// Requested access mode.
        mode: OpenMode,
    },
    /// A file was closed by this client/process.
    Close {
        /// File being closed.
        file: FileId,
    },
    /// The file offset was repositioned.
    Seek {
        /// File whose offset moves.
        file: FileId,
        /// New absolute offset.
        offset: u64,
    },
    /// `len` bytes were read at the current offset (offset advances).
    Read {
        /// File being read.
        file: FileId,
        /// Transfer length in bytes.
        len: u64,
    },
    /// `len` bytes were written at the current offset (offset advances).
    Write {
        /// File being written.
        file: FileId,
        /// Transfer length in bytes.
        len: u64,
    },
    /// The file was truncated to `new_len` bytes.
    Truncate {
        /// File being truncated.
        file: FileId,
        /// New file length.
        new_len: u64,
    },
    /// The file was deleted.
    Delete {
        /// File being deleted.
        file: FileId,
    },
    /// The application forced the file's dirty data to stable storage.
    Fsync {
        /// File being fsync'd.
        file: FileId,
    },
    /// The process migrated to another client, flushing its dirty data
    /// (Sprite flushes a migrating process's modified file data to the
    /// server so the destination sees it).
    Migrate {
        /// Destination workstation.
        to: ClientId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_mode_write_detection() {
        assert!(!OpenMode::Read.is_write());
        assert!(OpenMode::Write.is_write());
        assert!(OpenMode::ReadWrite.is_write());
    }
}
