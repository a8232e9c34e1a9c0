//! Lowering raw trace events into canonical ops.
//!
//! This is the paper's first simulation pass (§2.2): the raw Sprite traces
//! record opens, closes and seeks with the current file offset, "making it
//! possible to deduce the order and amount of read and write traffic to
//! files". [`lower`] replays offsets to turn length-only transfers into
//! explicit byte ranges, and expands process migrations into the list of
//! files whose dirty data must be flushed.

use std::collections::{BTreeMap, BTreeSet};

use nvfs_types::{ByteRange, ClientId, FileId, ProcessId};

use crate::event::{EventKind, TraceEvent};
use crate::op::{Op, OpKind, OpStream};

/// Per-(client, file) offset cursor.
#[derive(Debug, Default)]
struct Cursor {
    offset: u64,
}

/// Lowers a time-ordered slice of raw events into an [`OpStream`].
///
/// Reads and writes are converted from `(current offset, length)` form into
/// explicit [`ByteRange`]s. `Migrate` events are expanded with the set of
/// files the migrating process has written on the source client since its
/// last migration. A transfer on a file with no preceding open is
/// tolerated: the file is treated as implicitly opened at offset zero.
///
/// # Examples
///
/// ```
/// use nvfs_trace::convert::lower;
/// use nvfs_trace::event::{EventKind, OpenMode, TraceEvent};
/// use nvfs_types::{ClientId, FileId, ProcessId, SimTime};
///
/// let events = vec![
///     TraceEvent {
///         time: SimTime::ZERO,
///         client: ClientId(0),
///         pid: ProcessId(0),
///         kind: EventKind::Open { file: FileId(0), mode: OpenMode::Write },
///     },
///     TraceEvent {
///         time: SimTime::from_secs(1),
///         client: ClientId(0),
///         pid: ProcessId(0),
///         kind: EventKind::Write { file: FileId(0), len: 100 },
///     },
/// ];
/// let ops = lower(&events);
/// assert_eq!(ops.len(), 2);
/// assert_eq!(ops.app_write_bytes(), 100);
/// ```
pub fn lower(events: &[TraceEvent]) -> OpStream {
    let mut out = OpStream::new();
    let mut cursors: BTreeMap<(ClientId, FileId), Cursor> = BTreeMap::new();
    let mut written_by: BTreeMap<(ClientId, ProcessId), BTreeSet<FileId>> = BTreeMap::new();

    for ev in events {
        match ev.kind {
            EventKind::Open { file, mode } => {
                cursors.insert((ev.client, file), Cursor::default());
                out.push(Op {
                    time: ev.time,
                    client: ev.client,
                    kind: OpKind::Open { file, mode },
                });
            }
            EventKind::Close { file } => {
                cursors.remove(&(ev.client, file));
                out.push(Op {
                    time: ev.time,
                    client: ev.client,
                    kind: OpKind::Close { file },
                });
            }
            EventKind::Seek { file, offset } => {
                cursors.entry((ev.client, file)).or_default().offset = offset;
            }
            EventKind::Read { file, len } => {
                let range = advance(&mut cursors, ev.client, file, len);
                out.push(Op {
                    time: ev.time,
                    client: ev.client,
                    kind: OpKind::Read { file, range },
                });
            }
            EventKind::Write { file, len } => {
                let range = advance(&mut cursors, ev.client, file, len);
                written_by
                    .entry((ev.client, ev.pid))
                    .or_default()
                    .insert(file);
                out.push(Op {
                    time: ev.time,
                    client: ev.client,
                    kind: OpKind::Write { file, range },
                });
            }
            EventKind::Truncate { file, new_len } => {
                if let Some(c) = cursors.get_mut(&(ev.client, file)) {
                    c.offset = c.offset.min(new_len);
                }
                out.push(Op {
                    time: ev.time,
                    client: ev.client,
                    kind: OpKind::Truncate { file, new_len },
                });
            }
            EventKind::Delete { file } => {
                cursors.remove(&(ev.client, file));
                out.push(Op {
                    time: ev.time,
                    client: ev.client,
                    kind: OpKind::Delete { file },
                });
            }
            EventKind::Fsync { file } => {
                out.push(Op {
                    time: ev.time,
                    client: ev.client,
                    kind: OpKind::Fsync { file },
                });
            }
            EventKind::Migrate { to } => {
                let files: Vec<FileId> = written_by
                    .remove(&(ev.client, ev.pid))
                    .map(|s| s.into_iter().collect())
                    .unwrap_or_default();
                out.push(Op {
                    time: ev.time,
                    client: ev.client,
                    kind: OpKind::Migrate {
                        pid: ev.pid,
                        to,
                        files,
                    },
                });
            }
        }
    }
    out
}

fn advance(
    cursors: &mut BTreeMap<(ClientId, FileId), Cursor>,
    client: ClientId,
    file: FileId,
    len: u64,
) -> ByteRange {
    let cursor = cursors.entry((client, file)).or_default();
    let range = ByteRange::at(cursor.offset, len);
    cursor.offset = range.end;
    range
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpenMode;
    use nvfs_types::SimTime;

    fn ev(t: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_secs(t),
            client: ClientId(0),
            pid: ProcessId(0),
            kind,
        }
    }

    #[test]
    fn offsets_advance_sequentially() {
        let events = vec![
            ev(
                0,
                EventKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            ev(
                1,
                EventKind::Write {
                    file: FileId(0),
                    len: 100,
                },
            ),
            ev(
                2,
                EventKind::Write {
                    file: FileId(0),
                    len: 50,
                },
            ),
        ];
        let ops = lower(&events);
        let ranges: Vec<ByteRange> = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Write { range, .. } => Some(range),
                _ => None,
            })
            .collect();
        assert_eq!(
            ranges,
            vec![ByteRange::new(0, 100), ByteRange::new(100, 150)]
        );
    }

    #[test]
    fn seek_repositions() {
        let events = vec![
            ev(
                0,
                EventKind::Open {
                    file: FileId(0),
                    mode: OpenMode::ReadWrite,
                },
            ),
            ev(
                1,
                EventKind::Seek {
                    file: FileId(0),
                    offset: 4096,
                },
            ),
            ev(
                2,
                EventKind::Read {
                    file: FileId(0),
                    len: 10,
                },
            ),
        ];
        let ops = lower(&events);
        let read = ops.iter().find_map(|o| match o.kind {
            OpKind::Read { range, .. } => Some(range),
            _ => None,
        });
        assert_eq!(read, Some(ByteRange::new(4096, 4106)));
    }

    #[test]
    fn reopen_resets_offset() {
        let events = vec![
            ev(
                0,
                EventKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            ev(
                1,
                EventKind::Write {
                    file: FileId(0),
                    len: 10,
                },
            ),
            ev(2, EventKind::Close { file: FileId(0) }),
            ev(
                3,
                EventKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            ev(
                4,
                EventKind::Write {
                    file: FileId(0),
                    len: 10,
                },
            ),
        ];
        let ops = lower(&events);
        let last_write = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Write { range, .. } => Some(range),
                _ => None,
            })
            .next_back();
        assert_eq!(last_write, Some(ByteRange::new(0, 10)));
    }

    #[test]
    fn implicit_open_starts_at_offset_zero() {
        let events = vec![
            ev(
                0,
                EventKind::Write {
                    file: FileId(9),
                    len: 5,
                },
            ),
            ev(
                1,
                EventKind::Write {
                    file: FileId(9),
                    len: 3,
                },
            ),
        ];
        let ops = lower(&events);
        let writes: Vec<(FileId, ByteRange)> = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Write { file, range } => Some((file, range)),
                _ => None,
            })
            .collect();
        assert_eq!(ops.len(), 2, "no open op is invented");
        assert_eq!(
            writes,
            vec![
                (FileId(9), ByteRange::new(0, 5)),
                (FileId(9), ByteRange::new(5, 8))
            ]
        );
    }

    #[test]
    fn migrate_collects_written_files() {
        let events = vec![
            ev(
                0,
                EventKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            ev(
                1,
                EventKind::Write {
                    file: FileId(0),
                    len: 10,
                },
            ),
            ev(2, EventKind::Migrate { to: ClientId(1) }),
            ev(3, EventKind::Migrate { to: ClientId(2) }),
        ];
        let ops = lower(&events);
        let migrates: Vec<&Op> = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Migrate { .. }))
            .collect();
        assert_eq!(migrates.len(), 2);
        match &migrates[0].kind {
            OpKind::Migrate { files, .. } => assert_eq!(files, &vec![FileId(0)]),
            _ => unreachable!(),
        }
        // Second migrate: the write set was consumed by the first.
        match &migrates[1].kind {
            OpKind::Migrate { files, .. } => assert!(files.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn truncate_clamps_cursor() {
        let events = vec![
            ev(
                0,
                EventKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            ev(
                1,
                EventKind::Write {
                    file: FileId(0),
                    len: 100,
                },
            ),
            ev(
                2,
                EventKind::Truncate {
                    file: FileId(0),
                    new_len: 20,
                },
            ),
            ev(
                3,
                EventKind::Write {
                    file: FileId(0),
                    len: 10,
                },
            ),
        ];
        let ops = lower(&events);
        let last_write = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Write { range, .. } => Some(range),
                _ => None,
            })
            .next_back();
        assert_eq!(last_write, Some(ByteRange::new(20, 30)));
    }
}
