//! Well-formedness validation for op streams.
//!
//! The simulators are tolerant of odd inputs (the paper's own traces had
//! truncation artifacts), but a *generator* should produce clean streams.
//! [`validate`] checks the session discipline the paper's traces follow and
//! returns every violation, so tests can assert a stream is well-formed and
//! tools can lint imported traces.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use nvfs_types::{ClientId, FileId, SimTime};

use crate::op::{OpKind, OpStream};

/// One violation found in a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending op.
    index: usize,
    /// When it happened.
    time: SimTime,
    /// What is wrong.
    kind: ViolationKind,
}

/// The kinds of violation [`validate`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ViolationKind {
    /// Ops are not sorted by time.
    TimeRegression,
    /// A read or write referenced a file the client has not opened.
    AccessWithoutOpen {
        /// The client at fault.
        client: ClientId,
        /// The file accessed.
        file: FileId,
    },
    /// A close without a matching open.
    CloseWithoutOpen {
        /// The client at fault.
        client: ClientId,
        /// The file closed.
        file: FileId,
    },
    /// An operation referenced a deleted file before it was recreated.
    UseAfterDelete {
        /// The file at fault.
        file: FileId,
    },
    /// A file was still open when the stream ended.
    LeakedOpen {
        /// The client holding the file open.
        client: ClientId,
        /// The file left open.
        file: FileId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {} at {}: {:?}", self.index, self.time, self.kind)
    }
}

/// Validates session discipline over `ops`, returning every violation.
///
/// Reads/writes must occur inside an open session of the same client;
/// closes must match opens; deleted files must be re-opened (recreated)
/// before reuse; opens should be closed by the end of the stream.
///
/// # Examples
///
/// ```
/// use nvfs_trace::op::OpStream;
/// use nvfs_trace::validate::validate;
///
/// assert!(validate(&OpStream::new()).is_empty());
/// ```
pub fn validate(ops: &OpStream) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut open: BTreeMap<(ClientId, FileId), u32> = BTreeMap::new();
    let mut deleted: BTreeSet<FileId> = BTreeSet::new();
    let mut last_time = SimTime::ZERO;

    for (index, op) in ops.iter().enumerate() {
        let mut report = |kind: ViolationKind| {
            violations.push(Violation {
                index,
                time: op.time,
                kind,
            });
        };
        if op.time < last_time {
            report(ViolationKind::TimeRegression);
        }
        last_time = last_time.max(op.time);

        match &op.kind {
            OpKind::Open { file, .. } => {
                deleted.remove(file);
                *open.entry((op.client, *file)).or_insert(0) += 1;
            }
            OpKind::Close { file } => match open.get_mut(&(op.client, *file)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    if *n == 0 {
                        open.remove(&(op.client, *file));
                    }
                }
                _ => report(ViolationKind::CloseWithoutOpen {
                    client: op.client,
                    file: *file,
                }),
            },
            OpKind::Read { file, .. } | OpKind::Write { file, .. } => {
                if deleted.contains(file) {
                    report(ViolationKind::UseAfterDelete { file: *file });
                } else if !open.contains_key(&(op.client, *file)) {
                    report(ViolationKind::AccessWithoutOpen {
                        client: op.client,
                        file: *file,
                    });
                }
            }
            OpKind::Truncate { file, .. } | OpKind::Fsync { file } => {
                if deleted.contains(file) {
                    report(ViolationKind::UseAfterDelete { file: *file });
                }
            }
            OpKind::Delete { file } => {
                deleted.insert(*file);
                // A delete implicitly ends every session on the file.
                let holders: Vec<(ClientId, FileId)> =
                    open.keys().filter(|(_, f)| f == file).copied().collect();
                for k in holders {
                    open.remove(&k);
                }
            }
            OpKind::Migrate { .. } => {}
        }
    }
    for ((client, file), _) in open {
        violations.push(Violation {
            index: ops.len(),
            time: last_time,
            kind: ViolationKind::LeakedOpen { client, file },
        });
    }
    violations
}

/// Violations ignoring leaked opens (a day-long trace legitimately ends
/// with editors still running, as the paper's traces did).
pub fn validate_ignoring_leaks(ops: &OpStream) -> Vec<Violation> {
    validate(ops)
        .into_iter()
        .filter(|v| !matches!(v.kind, ViolationKind::LeakedOpen { .. }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpenMode;
    use crate::op::Op;
    use nvfs_types::ByteRange;

    fn op(t: u64, client: u32, kind: OpKind) -> Op {
        Op {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            kind,
        }
    }

    #[test]
    fn clean_session_passes() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                1,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 10),
                },
            ),
            op(2, 0, OpKind::Close { file: FileId(0) }),
        ]
        .into_iter()
        .collect();
        assert!(validate(&ops).is_empty());
    }

    #[test]
    fn access_without_open_is_flagged() {
        let ops: OpStream = vec![op(
            0,
            1,
            OpKind::Read {
                file: FileId(5),
                range: ByteRange::new(0, 10),
            },
        )]
        .into_iter()
        .collect();
        let v = validate(&ops);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0].kind,
            ViolationKind::AccessWithoutOpen {
                client: ClientId(1),
                file: FileId(5)
            }
        ));
    }

    #[test]
    fn use_after_delete_is_flagged_until_recreate() {
        let ops: OpStream = vec![
            op(
                0,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(1, 0, OpKind::Delete { file: FileId(0) }),
            op(2, 0, OpKind::Fsync { file: FileId(0) }),
            op(
                3,
                0,
                OpKind::Open {
                    file: FileId(0),
                    mode: OpenMode::Write,
                },
            ),
            op(
                4,
                0,
                OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 10),
                },
            ),
            op(5, 0, OpKind::Close { file: FileId(0) }),
        ]
        .into_iter()
        .collect();
        let v = validate(&ops);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0].kind,
            ViolationKind::UseAfterDelete { file: FileId(0) }
        ));
    }

    #[test]
    fn close_without_open_and_leaks() {
        let ops: OpStream = vec![
            op(0, 0, OpKind::Close { file: FileId(0) }),
            op(
                1,
                0,
                OpKind::Open {
                    file: FileId(1),
                    mode: OpenMode::Read,
                },
            ),
        ]
        .into_iter()
        .collect();
        let v = validate(&ops);
        assert_eq!(v.len(), 2);
        assert!(matches!(v[0].kind, ViolationKind::CloseWithoutOpen { .. }));
        assert!(matches!(v[1].kind, ViolationKind::LeakedOpen { .. }));
        assert_eq!(validate_ignoring_leaks(&ops).len(), 1);
    }

    #[test]
    fn synthetic_traces_are_well_formed() {
        use crate::synth::{SpriteTraceSet, TraceSetConfig};
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        for trace in set.traces() {
            let v = validate_ignoring_leaks(trace.ops());
            // The generator interleaves activities, so a deleted autosave
            // file may have in-flight events; anything else is a bug.
            for violation in &v {
                assert!(
                    matches!(violation.kind, ViolationKind::UseAfterDelete { .. }),
                    "trace {}: {violation}",
                    trace.number()
                );
            }
        }
    }
}
