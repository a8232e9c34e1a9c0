//! The §3 opening remark: "Servers can also use NVRAM file caches to
//! absorb write traffic, producing reductions in the server-disk traffic
//! similar to those in the client-server traffic."
//!
//! We feed the write stream that volatile clients actually send to the
//! server (repeated flushes of the same files) into a single cache — the
//! server's — and compare a volatile server cache against one with NVRAM.
//! The same mechanism that absorbed overwrites at the clients absorbs the
//! repeat-flush traffic at the server before it reaches the disk.

use nvfs_core::client::ServerWrite;
use nvfs_core::{ClusterSim, SimConfig};
use nvfs_report::{Cell, Table};
use nvfs_trace::event::OpenMode;
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{ByteRange, ClientId};

use crate::env::Env;
use crate::VOLATILE_BYTES;

/// Re-expresses the client→server write log as ops against the *server's*
/// cache: each flush of a file rewrites its head bytes, so repeated flushes
/// of the same data overwrite in the server cache just as repeated
/// application writes did in the client caches.
fn server_ops_from_writes(writes: &[ServerWrite]) -> OpStream {
    let server = ClientId(0);
    let mut ops = Vec::with_capacity(writes.len() * 2);
    let mut opened = std::collections::BTreeSet::new();
    for w in writes {
        if w.bytes == 0 {
            continue;
        }
        if opened.insert(w.file) {
            ops.push(Op {
                time: w.time,
                client: server,
                kind: OpKind::Open {
                    file: w.file,
                    mode: OpenMode::Write,
                },
            });
        }
        ops.push(Op {
            time: w.time,
            client: server,
            kind: OpKind::Write {
                file: w.file,
                range: ByteRange::new(0, w.bytes),
            },
        });
    }
    ops.into_iter().collect()
}

/// Runs the comparison on Trace 7: volatile clients (8 MB) produce the
/// server's arrival stream; the server then uses either a 4 MB volatile
/// cache or the same cache with 1 MB of NVRAM (unified). One row per
/// server cache: arriving, disk-bound and absorbed megabytes.
pub(crate) fn run(env: &Env) -> Table {
    let clients = ClusterSim::new(SimConfig::volatile(VOLATILE_BYTES));
    let writes = clients.session(env.trace7().ops()).writes().run().writes;
    let server_ops = server_ops_from_writes(&writes);
    let arriving_bytes = server_ops.app_write_bytes();

    let replay = |cfg: SimConfig| ClusterSim::new(cfg).session(&server_ops).run().stats;
    let volatile = replay(SimConfig::volatile(4 << 20));
    let nvram = replay(SimConfig::unified(4 << 20, 1 << 20));

    let mut table = Table::new(
        "§3: a server NVRAM cache absorbs client write traffic before the disk",
        &[
            "Server cache",
            "Arriving MB",
            "Disk-bound MB",
            "Absorbed MB",
        ],
    );
    let mb = |b: u64| Cell::f1(b as f64 / (1 << 20) as f64);
    for (name, s) in [("volatile 4 MB", &volatile), ("4 MB + 1 MB NVRAM", &nvram)] {
        table.push_row(vec![
            Cell::from(name),
            mb(arriving_bytes),
            mb(s.server_write_bytes + s.remaining_dirty_bytes),
            mb(s.absorbed_bytes()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_nvram_absorbs_like_client_nvram() {
        let out = run(&Env::tiny());
        // Rows: volatile, NVRAM; columns 1-3: arriving, disk-bound and
        // absorbed megabytes.
        let mb = |row, col| crate::cell_value(&out, row, col);
        assert!(mb(0, 1) > 0.0);
        // "…producing reductions in the server-disk traffic similar to
        // those in the client-server traffic."
        let reduction = 1.0 - mb(1, 2) / mb(0, 2);
        assert!(
            reduction > 0.15,
            "reduction {reduction:.2} (volatile {} MB nvram {} MB)",
            mb(0, 2),
            mb(1, 2)
        );
        // The NVRAM cache absorbed overwrites the volatile cache could not.
        assert!(mb(1, 3) > mb(0, 3));
    }

    #[test]
    fn ops_conversion_preserves_bytes_and_order() {
        use nvfs_core::client::FlushCause;
        use nvfs_types::{FileId, SimTime};
        let writes = vec![
            ServerWrite {
                time: SimTime::from_secs(1),
                client: ClientId(3),
                file: FileId(7),
                bytes: 1000,
                cause: FlushCause::WriteBack,
            },
            ServerWrite {
                time: SimTime::from_secs(2),
                client: ClientId(3),
                file: FileId(7),
                bytes: 800,
                cause: FlushCause::WriteBack,
            },
        ];
        let ops = server_ops_from_writes(&writes);
        assert_eq!(ops.app_write_bytes(), 1800);
        // One open, two writes; the second write overlaps the first.
        assert_eq!(ops.len(), 3);
    }
}
