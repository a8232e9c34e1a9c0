//! A compact, line-oriented text format for op streams.
//!
//! Lets tools persist synthetic traces and replay them later (or import
//! externally produced traces), in the spirit of the original Sprite trace
//! files. One op per line:
//!
//! ```text
//! <micros> <client> O <file> R|W|RW      open
//! <micros> <client> C <file>             close
//! <micros> <client> r <file> <start> <end>   read
//! <micros> <client> w <file> <start> <end>   write
//! <micros> <client> T <file> <new_len>   truncate
//! <micros> <client> D <file>             delete
//! <micros> <client> F <file>             fsync
//! <micros> <client> M <pid> <to> [file,...]  migrate
//! ```
//!
//! Lines starting with `#` and blank lines are ignored.

use std::fmt::Write as _;

use nvfs_types::{ByteRange, ClientId, FileId, ProcessId, SimTime, BLOCK_SIZE};

use crate::event::OpenMode;
use crate::op::{Op, OpKind, OpStream};

/// Error from [`parse_ops`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpsError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseOpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseOpsError {}

/// Renders `ops` in the line format.
///
/// # Examples
///
/// ```
/// use nvfs_trace::op::OpStream;
/// use nvfs_trace::serialize::{parse_ops, render_ops};
///
/// let text = render_ops(&OpStream::new());
/// assert!(parse_ops(&text).unwrap().is_empty());
/// ```
pub fn render_ops(ops: &OpStream) -> String {
    let mut out = String::with_capacity(ops.len() * 24);
    out.push_str("# nvfs op stream v1\n");
    for op in ops {
        let t = op.time.as_micros();
        let c = op.client.0;
        match &op.kind {
            OpKind::Open { file, mode } => {
                let m = match mode {
                    OpenMode::Read => "R",
                    OpenMode::Write => "W",
                    OpenMode::ReadWrite => "RW",
                };
                let _ = writeln!(out, "{t} {c} O {} {m}", file.0);
            }
            OpKind::Close { file } => {
                let _ = writeln!(out, "{t} {c} C {}", file.0);
            }
            OpKind::Read { file, range } => {
                let _ = writeln!(out, "{t} {c} r {} {} {}", file.0, range.start, range.end);
            }
            OpKind::Write { file, range } => {
                let _ = writeln!(out, "{t} {c} w {} {} {}", file.0, range.start, range.end);
            }
            OpKind::Truncate { file, new_len } => {
                let _ = writeln!(out, "{t} {c} T {} {new_len}", file.0);
            }
            OpKind::Delete { file } => {
                let _ = writeln!(out, "{t} {c} D {}", file.0);
            }
            OpKind::Fsync { file } => {
                let _ = writeln!(out, "{t} {c} F {}", file.0);
            }
            OpKind::Migrate { pid, to, files } => {
                let list: Vec<String> = files.iter().map(|f| f.0.to_string()).collect();
                let _ = writeln!(out, "{t} {c} M {} {} {}", pid.0, to.0, list.join(","));
            }
        }
    }
    out
}

/// Parses the line format back into an [`OpStream`].
///
/// # Errors
///
/// Returns the first malformed line with its 1-based number.
pub fn parse_ops(text: &str) -> Result<OpStream, ParseOpsError> {
    let mut ops = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: &str| ParseOpsError {
            line: line_no,
            message: message.to_string(),
        };
        let mut parts = line.split_whitespace();
        let time = SimTime::from_micros(
            parts
                .next()
                .ok_or_else(|| err("missing time"))?
                .parse()
                .map_err(|_| err("bad time"))?,
        );
        let client = ClientId(
            parts
                .next()
                .ok_or_else(|| err("missing client"))?
                .parse()
                .map_err(|_| err("bad client"))?,
        );
        let tag = parts.next().ok_or_else(|| err("missing op tag"))?;
        let mut num = |name: &str| -> Result<u64, ParseOpsError> {
            parts
                .next()
                .ok_or_else(|| err(&format!("missing {name}")))?
                .parse()
                .map_err(|_| err(&format!("bad {name}")))
        };
        let id32 = |name: &str, v: u64| -> Result<u32, ParseOpsError> {
            u32::try_from(v).map_err(|_| err(&format!("{name} out of range")))
        };
        // A byte offset whose 4 KB block would end past `u64::MAX` cannot
        // be cached: block math on it overflows.
        let offset = |name: &str, v: u64| -> Result<u64, ParseOpsError> {
            v.checked_next_multiple_of(BLOCK_SIZE)
                .map(|_| v)
                .ok_or_else(|| err(&format!("{name} past the last addressable block")))
        };
        let kind = match tag {
            "O" => {
                let file = FileId(id32("file", num("file")?)?);
                let mode = match parts.next().ok_or_else(|| err("missing mode"))? {
                    "R" => OpenMode::Read,
                    "W" => OpenMode::Write,
                    "RW" => OpenMode::ReadWrite,
                    other => return Err(err(&format!("bad mode {other:?}"))),
                };
                OpKind::Open { file, mode }
            }
            "C" => OpKind::Close {
                file: FileId(id32("file", num("file")?)?),
            },
            "r" | "w" => {
                let file = FileId(id32("file", num("file")?)?);
                let start = num("start")?;
                let end = offset("end", num("end")?)?;
                if end < start {
                    return Err(err("range end before start"));
                }
                let range = ByteRange::new(start, end);
                if tag == "r" {
                    OpKind::Read { file, range }
                } else {
                    OpKind::Write { file, range }
                }
            }
            "T" => {
                let file = FileId(id32("file", num("file")?)?);
                OpKind::Truncate {
                    file,
                    new_len: offset("new_len", num("new_len")?)?,
                }
            }
            "D" => OpKind::Delete {
                file: FileId(id32("file", num("file")?)?),
            },
            "F" => OpKind::Fsync {
                file: FileId(id32("file", num("file")?)?),
            },
            "M" => {
                let pid = ProcessId(id32("pid", num("pid")?)?);
                let to = ClientId(id32("to", num("to")?)?);
                let files = match parts.next() {
                    None | Some("") => Vec::new(),
                    Some(list) => list
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse().map(FileId).map_err(|_| err("bad file list")))
                        .collect::<Result<Vec<_>, _>>()?,
                };
                OpKind::Migrate { pid, to, files }
            }
            other => return Err(err(&format!("unknown op tag {other:?}"))),
        };
        ops.push(Op { time, client, kind });
    }
    ops.sort_by_key(|o| o.time);
    Ok(ops.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SpriteTraceSet, TraceSetConfig};

    #[test]
    fn round_trips_a_synthetic_trace() {
        let set = SpriteTraceSet::generate(&TraceSetConfig::tiny());
        let ops = set.trace(0).ops();
        let text = render_ops(ops);
        let parsed = parse_ops(&text).expect("round trip parses");
        assert_eq!(&parsed, ops);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let parsed = parse_ops("# header\n\n  \n1000 0 D 3\n").unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn migrate_with_empty_file_list() {
        let parsed = parse_ops("5 1 M 7 2\n").unwrap();
        match &parsed.as_slice()[0].kind {
            OpKind::Migrate { pid, to, files } => {
                assert_eq!(pid.0, 7);
                assert_eq!(to.0, 2);
                assert!(files.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_ops("1000 0 D 3\nbogus line\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        assert!(
            parse_ops("1 0 r 0 10 5\n").is_err(),
            "inverted range rejected"
        );
        assert!(parse_ops("1 0 O 0 X\n").is_err(), "bad mode rejected");
        assert!(parse_ops("1 0 Z 0\n").is_err(), "unknown tag rejected");
        assert!(
            parse_ops("1 0 D 4294967297\n").is_err(),
            "oversized id rejected"
        );
    }

    #[test]
    fn offsets_stop_at_the_last_whole_block() {
        let last = u64::MAX - (BLOCK_SIZE - 1);
        assert!(parse_ops(&format!("1 0 w 0 0 {last}\n")).is_ok());
        assert!(parse_ops(&format!("1 0 T 0 {last}\n")).is_ok());
        for line in [
            format!("1 0 w 0 0 {}", last + 1),
            format!("1 0 r 0 {} {}", u64::MAX - 615, u64::MAX),
            format!("1 0 T 0 {}", u64::MAX),
        ] {
            let e = parse_ops(&format!("1 0 D 3\n{line}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{line}");
            assert!(e.message.contains("past the last addressable block"), "{e}");
        }
    }

    #[test]
    fn parser_sorts_by_time() {
        let parsed = parse_ops("2000 0 D 1\n1000 0 D 0\n").unwrap();
        let times: Vec<u64> = parsed.iter().map(|o| o.time.as_micros()).collect();
        assert_eq!(times, vec![1000, 2000]);
    }
}
