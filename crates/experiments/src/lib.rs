//! Experiment runners that regenerate every table and figure of Baker et
//! al., *Non-Volatile Memory for Fast, Reliable File Systems* (ASPLOS
//! 1992).
//!
//! Each module reproduces one artifact and returns both a rendered
//! [`nvfs_report::Table`]/[`nvfs_report::Figure`] and a findings struct the
//! integration tests assert tolerance bands on. The modules named without
//! a link are private: they return only their rendered output, which the
//! [`registry`] prints.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`tab1`] | Table 1 — NVRAM costs |
//! | [`fig2`] | Figure 2 — byte lifetimes |
//! | [`tab2`] | Table 2 — fate of written bytes |
//! | [`fig3`] | Figure 3 — omniscient policy vs NVRAM size |
//! | [`fig4`] | Figure 4 — replacement policies |
//! | [`fig5`] | Figure 5 — cache models, total traffic |
//! | [`fig6`] | Figure 6 — NVRAM vs volatile cost-effectiveness |
//! | [`tab3`] | Table 3 — forced partial segments |
//! | [`tab4`] | Table 4 — partial segment sizes & space cost |
//! | [`write_buffer`] | §3 — ½ MB write buffer reductions (10–25%, 90%) |
//! | [`disk_sort`] | §3 — random vs sorted disk writes (7% → 40%) |
//! | [`bus_nvram`] | §2.6 — bus traffic & NVRAM access counts |
//! | [`presto`] | §3 — NFS synchronous writes vs server NVRAM |
//! | [`pipeline`] | extension — client NVRAM's effect on the server's LFS |
//! | [`ablations`] | extensions — §2.6 hybrid model, dirty-block preference |
//! | [`consistency_protocol`] | extension — block-by-block consistency (\[21\]) |
//! | `nvram_speed` | extension — §2.6 NVRAM access-time sensitivity |
//! | [`read_latency`] | §3 closing analysis — optimal write size ≈ 2 tracks, full-segment read penalty |
//! | `diagrams` | Figures 1 and 7 rendered from live simulator state |
//! | `lfs_vs_ffs` | §3 framing — LFS amortization vs the update-in-place baseline |
//! | [`lfs_wal_vs_buffer`] | extension — logging vs paging: NVRAM write-ahead log vs write buffer |
//! | `server_cache` | §3 opening — a server NVRAM cache absorbs client write traffic |
//! | `warmup` | methodology — quantifying the paper's cold-start caveat |
//! | [`faults`] | §2.3/§4 — bytes lost under a seeded fault schedule, per cache model |
//! | [`verify_crash`] | robustness — durability oracle crash-point sweep with typed verdicts |
//! | [`verify_net`] | robustness — network judge: RPC retries, partitions, degraded modes |
//! | [`verify_scrub`] | robustness — corruption sweep: protection modes × corruption kinds × crash points |
//! | [`scrub_overhead`] | robustness — protection overhead vs undetected corruption |
//! | [`scorecard`] | every claim above evaluated programmatically with PASS/FAIL verdicts |
//!
//! All runners share an [`env::Env`] so the synthetic workloads are only
//! generated once, and every CLI-visible artifact above is also a row in
//! the [`registry`] — the single dispatch table behind `nvfs
//! experiments`, `export-csv`, and the scorecard. The four seeded fault
//! studies ([`faults`], [`verify_crash`], [`verify_net`], [`verify_scrub`])
//! run their key × trace grids through the one [`sweep`] driver.
//!
//! # Examples
//!
//! ```
//! use nvfs_experiments::{env::Env, tab3};
//!
//! let env = Env::tiny();
//! let out = tab3::run(&env);
//! println!("{}", out.table.render());
//! assert!(out.report("/user6").unwrap().pct_fsync_partial() > 70.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ablations;
pub mod bus_nvram;
pub mod consistency_protocol;
mod diagrams;
pub mod disk_sort;
pub mod env;
pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
mod lfs_vs_ffs;
pub mod lfs_wal_vs_buffer;
mod nvram_speed;
pub mod pipeline;
pub mod presto;
pub mod read_latency;
pub mod registry;
pub mod scorecard;
pub mod scrub_overhead;
mod server_cache;
pub mod sweep;
pub mod tab1;
pub mod tab2;
pub mod tab3;
pub mod tab4;
pub mod verify_crash;
pub mod verify_net;
pub mod verify_scrub;
mod warmup;
pub mod write_buffer;

pub use env::Scale;

/// Volatile cache size in front of the NVRAM in every client-cache
/// experiment (the Sprite average was ~7 MB).
pub(crate) const VOLATILE_BYTES: u64 = 8 << 20;

/// The number in one cell of a rendered table, so unit tests can check an
/// experiment's claims against exactly what it prints.
#[cfg(test)]
fn cell_value(table: &nvfs_report::Table, row: usize, col: usize) -> f64 {
    match &table.rows()[row][col] {
        nvfs_report::Cell::Int(v) => *v as f64,
        nvfs_report::Cell::Float { value, .. } | nvfs_report::Cell::Pct(value) => *value,
        other => panic!("cell ({row}, {col}) holds no number: {other:?}"),
    }
}
