//! Extension experiment: client NVRAM's effect on the *server's* LFS.
//!
//! §3 notes that client fsyncs are what force LFS to write partial
//! segments. Client-side NVRAM (§2) absorbs those fsyncs before they ever
//! reach the server, so the two halves of the paper compose: this
//! experiment runs the full client→server pipeline under volatile and
//! unified client caches and compares the server's segment behaviour.

use nvfs_core::SimConfig;
use nvfs_lfs::fs::LfsConfig;
use nvfs_lfs::SegmentCause;
use nvfs_report::{Cell, Table};
use nvfs_server::e2e::{client_server_pipeline, PipelineReport};

use crate::env::Env;
use crate::VOLATILE_BYTES;

/// Output of the pipeline experiment.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The rendered comparison.
    pub table: Table,
    /// Pipeline with volatile clients.
    pub volatile: PipelineReport,
    /// Pipeline with unified-NVRAM clients.
    pub unified: PipelineReport,
}

/// Runs the composed pipeline on Trace 7 with 8 MB client caches (the
/// unified configuration adds 1 MB of client NVRAM).
pub fn run(env: &Env) -> Pipeline {
    let ops = env.trace7().ops();
    let lfs = LfsConfig::direct();
    let volatile = client_server_pipeline(ops, &SimConfig::volatile(VOLATILE_BYTES), &lfs);
    let unified = client_server_pipeline(ops, &SimConfig::unified(VOLATILE_BYTES, 1 << 20), &lfs);
    let mut table = Table::new(
        "Client NVRAM vs the server's LFS (Trace 7)",
        &[
            "Client cache",
            "Server write MB",
            "Server segments",
            "Fsync partials",
            "% partial",
        ],
    );
    for (name, p) in [("volatile", &volatile), ("unified + NVRAM", &unified)] {
        table.push_row(vec![
            Cell::from(name),
            Cell::f1(p.client.server_write_bytes as f64 / (1 << 20) as f64),
            Cell::from(p.server.disk_write_accesses()),
            Cell::from(p.server.count(SegmentCause::Fsync)),
            Cell::Pct(p.server.pct_partial()),
        ]);
    }
    Pipeline {
        table,
        volatile,
        unified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_nvram_removes_server_fsync_partials() {
        let out = run(&Env::tiny());
        assert!(out.volatile.server.count(SegmentCause::Fsync) > 0);
        assert_eq!(out.unified.server.count(SegmentCause::Fsync), 0);
    }

    #[test]
    fn client_nvram_shrinks_server_load() {
        let out = run(&Env::tiny());
        assert!(out.unified.client.server_write_bytes < out.volatile.client.server_write_bytes);
        assert!(
            out.unified.server.disk_write_accesses() <= out.volatile.server.disk_write_accesses()
        );
    }
}
