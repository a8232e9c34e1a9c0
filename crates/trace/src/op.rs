//! Canonical simulator operations.
//!
//! The paper's first pass "processed the trace data to convert it into read,
//! write, delete, flush, and invalidate operations on ranges of bytes"
//! (§2.2). [`Op`] is that canonical form: byte ranges are explicit, file
//! offsets are gone, and open/close markers remain so that the cache
//! consistency protocol (last-writer recall, concurrent write-sharing) can
//! be replayed by the cache simulator.

use nvfs_types::{ByteRange, ClientId, FileId, ProcessId, SimTime};

use crate::event::OpenMode;

/// A canonical operation with explicit byte ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// When the operation occurred.
    pub time: SimTime,
    /// The client workstation that issued it.
    pub client: ClientId,
    /// What happened.
    pub kind: OpKind,
}

/// The kind of an [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// A file was opened (drives the consistency protocol).
    Open {
        /// File being opened.
        file: FileId,
        /// Requested access mode.
        mode: OpenMode,
    },
    /// A file was closed.
    Close {
        /// File being closed.
        file: FileId,
    },
    /// Bytes were read.
    Read {
        /// File being read.
        file: FileId,
        /// Range of bytes read.
        range: ByteRange,
    },
    /// Bytes were written (become dirty in the writer's cache).
    Write {
        /// File being written.
        file: FileId,
        /// Range of bytes written.
        range: ByteRange,
    },
    /// Bytes at and beyond `new_len` died by truncation.
    Truncate {
        /// File being truncated.
        file: FileId,
        /// New file length.
        new_len: u64,
    },
    /// Every byte of the file died.
    Delete {
        /// File being deleted.
        file: FileId,
    },
    /// The application forced this file's dirty bytes to stable storage.
    Fsync {
        /// File being fsync'd.
        file: FileId,
    },
    /// A process migrated; the files it had dirtied on `client` must be
    /// flushed to the server before execution resumes on `to`.
    Migrate {
        /// The migrating process.
        pid: ProcessId,
        /// Destination workstation.
        to: ClientId,
        /// Files whose dirty data must be flushed.
        files: Vec<FileId>,
    },
}

impl Op {
    /// The file this op refers to, if exactly one.
    pub(crate) fn file(&self) -> Option<FileId> {
        match &self.kind {
            OpKind::Open { file, .. }
            | OpKind::Close { file }
            | OpKind::Read { file, .. }
            | OpKind::Write { file, .. }
            | OpKind::Truncate { file, .. }
            | OpKind::Delete { file }
            | OpKind::Fsync { file } => Some(*file),
            OpKind::Migrate { .. } => None,
        }
    }
}

/// An ordered stream of canonical operations.
///
/// Invariant: ops are sorted by time (ties keep insertion order).
///
/// # Examples
///
/// ```
/// use nvfs_trace::op::{Op, OpKind, OpStream};
/// use nvfs_types::{ByteRange, ClientId, FileId, SimTime};
///
/// let mut s = OpStream::new();
/// s.push(Op {
///     time: SimTime::from_secs(1),
///     client: ClientId(0),
///     kind: OpKind::Write { file: FileId(0), range: ByteRange::new(0, 4096) },
/// });
/// assert_eq!(s.len(), 1);
/// assert_eq!(s.app_write_bytes(), 4096);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStream {
    ops: Vec<Op>,
}

impl OpStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        OpStream::default()
    }

    /// Appends an op.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `op.time` precedes the last op's time.
    pub fn push(&mut self, op: Op) {
        debug_assert!(
            self.ops.last().is_none_or(|last| last.time <= op.time),
            "ops must be pushed in time order"
        );
        self.ops.push(op);
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, Op> {
        self.ops.iter()
    }

    /// Borrows the ops as a slice.
    pub fn as_slice(&self) -> &[Op] {
        &self.ops
    }

    /// Total bytes written by applications in this stream.
    pub fn app_write_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match &o.kind {
                OpKind::Write { range, .. } => range.len(),
                _ => 0,
            })
            .sum()
    }

    /// Total bytes read by applications in this stream.
    pub fn app_read_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match &o.kind {
                OpKind::Read { range, .. } => range.len(),
                _ => 0,
            })
            .sum()
    }

    /// Time of the last op, or zero for an empty stream.
    pub fn end_time(&self) -> SimTime {
        self.ops.last().map_or(SimTime::ZERO, |o| o.time)
    }
}

impl FromIterator<Op> for OpStream {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        let mut ops: Vec<Op> = iter.into_iter().collect();
        ops.sort_by_key(|o| o.time);
        OpStream { ops }
    }
}

impl<'a> IntoIterator for &'a OpStream {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl IntoIterator for OpStream {
    type Item = Op;
    type IntoIter = std::vec::IntoIter<Op>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_types::ProcessId;

    fn op(t: u64, kind: OpKind) -> Op {
        Op {
            time: SimTime::from_secs(t),
            client: ClientId(0),
            kind,
        }
    }

    #[test]
    fn byte_accounting() {
        let s: OpStream = vec![
            op(
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            ),
            op(
                1,
                OpKind::Read {
                    file: FileId(0),
                    range: ByteRange::new(0, 40),
                },
            ),
            op(
                2,
                OpKind::Write {
                    file: FileId(1),
                    range: ByteRange::new(0, 60),
                },
            ),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.app_write_bytes(), 160);
        assert_eq!(s.app_read_bytes(), 40);
        assert_eq!(s.end_time(), SimTime::from_secs(2));
    }

    #[test]
    fn op_metadata() {
        let w = op(
            0,
            OpKind::Write {
                file: FileId(2),
                range: ByteRange::new(0, 10),
            },
        );
        assert_eq!(w.file(), Some(FileId(2)));
        let m = op(
            0,
            OpKind::Migrate {
                pid: ProcessId(1),
                to: ClientId(1),
                files: vec![FileId(0)],
            },
        );
        assert_eq!(m.file(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn push_rejects_time_regression() {
        let mut s = OpStream::new();
        s.push(op(5, OpKind::Close { file: FileId(0) }));
        s.push(op(4, OpKind::Close { file: FileId(0) }));
    }
}
