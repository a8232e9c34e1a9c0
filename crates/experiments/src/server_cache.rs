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
use nvfs_core::{ClusterSim, SimConfig, TrafficStats};
use nvfs_report::{Cell, Table};
use nvfs_trace::event::OpenMode;
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{ByteRange, ClientId};

use crate::env::Env;

/// Output of the server-cache experiment.
#[derive(Debug, Clone)]
pub struct ServerCache {
    /// The rendered comparison.
    pub table: Table,
    /// Bytes arriving at the server from the clients.
    pub arriving_bytes: u64,
    /// Disk-bound bytes with a volatile server cache.
    pub volatile: TrafficStats,
    /// Disk-bound bytes with an NVRAM server cache.
    pub nvram: TrafficStats,
}

impl ServerCache {
    /// Fractional reduction in disk-bound write traffic from server NVRAM.
    pub fn reduction(&self) -> f64 {
        let v = self.volatile.server_write_bytes + self.volatile.remaining_dirty_bytes;
        let n = self.nvram.server_write_bytes + self.nvram.remaining_dirty_bytes;
        if v == 0 {
            0.0
        } else {
            1.0 - n as f64 / v as f64
        }
    }
}

/// Re-expresses the client→server write log as ops against the *server's*
/// cache: each flush of a file rewrites its head bytes, so repeated flushes
/// of the same data overwrite in the server cache just as repeated
/// application writes did in the client caches.
pub fn server_ops_from_writes(writes: &[ServerWrite]) -> OpStream {
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
/// cache or the same cache with 1 MB of NVRAM (unified).
pub fn run(env: &Env) -> ServerCache {
    let clients = ClusterSim::new(SimConfig::volatile(8 << 20));
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
    ServerCache {
        table,
        arriving_bytes,
        volatile,
        nvram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_nvram_absorbs_like_client_nvram() {
        let out = run(&Env::tiny());
        assert!(out.arriving_bytes > 0);
        // "…producing reductions in the server-disk traffic similar to
        // those in the client-server traffic."
        assert!(
            out.reduction() > 0.15,
            "reduction {:.2} (volatile {:?} nvram {:?})",
            out.reduction(),
            out.volatile.server_write_bytes,
            out.nvram.server_write_bytes
        );
        // The NVRAM cache absorbed overwrites the volatile cache could not.
        assert!(out.nvram.absorbed_bytes() > out.volatile.absorbed_bytes());
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
