//! The reproduction scorecard: every paper claim evaluated programmatically.
//!
//! Each entry names a claim from Baker et al. (ASPLOS 1992), the paper's
//! number, the value this reproduction measures, and the tolerance band the
//! measurement must fall in (the same bands `tests/paper_shapes.rs`
//! asserts). [`run`] produces a table a release pipeline can gate on.

use nvfs_report::{Cell, Table};

use crate::env::Env;
use crate::{
    bus_nvram, disk_sort, fig2, fig3, fig4, fig5, lfs_wal_vs_buffer, presto, read_latency,
    scrub_overhead, tab1, tab2, tab3, verify_net, write_buffer,
};

/// One evaluated claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// Claim identifier (matches DESIGN.md's experiment index).
    pub id: &'static str,
    /// The paper's statement of the number.
    pub paper: &'static str,
    /// The measured value.
    pub measured: f64,
    /// Inclusive tolerance band.
    pub band: (f64, f64),
}

impl Check {
    /// Whether the measurement lies inside the band.
    pub fn passed(&self) -> bool {
        self.measured >= self.band.0 && self.measured <= self.band.1
    }
}

/// The full scorecard.
#[derive(Debug, Clone)]
pub struct Scorecard {
    /// All evaluated claims.
    pub checks: Vec<Check>,
    /// The rendered table.
    pub table: Table,
}

impl Scorecard {
    /// Number of passing checks.
    pub fn passed(&self) -> usize {
        self.checks.iter().filter(|c| c.passed()).count()
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.passed() == self.checks.len()
    }

    /// A failing check's id, if any (for error messages).
    pub fn first_failure(&self) -> Option<&Check> {
        self.checks.iter().find(|c| !c.passed())
    }
}

/// One sub-experiment result, tagged by kind so the heterogeneous
/// results can share one [`nvfs_par::par_map`].
enum Part {
    Tab1(tab1::Tab1),
    Fig2(fig2::Fig2),
    Fig3(fig3::Fig3),
    Fig4(fig4::Fig4),
    Fig5(fig5::Fig5),
    Tab3(tab3::Tab3),
    WriteBuffer(write_buffer::WriteBuffer),
    DiskSort(disk_sort::DiskSort),
    BusNvram(Box<bus_nvram::BusNvram>),
    Presto(presto::Presto),
    ReadLatency(read_latency::ReadLatency),
    VerifyNet(verify_net::VerifyNet),
    WalVsBuffer(lfs_wal_vs_buffer::WalVsBuffer),
    ScrubOverhead(scrub_overhead::ScrubOverhead),
}

/// The independent sub-experiment results the scorecard evaluates, in
/// [`Part`] declaration order.
///
/// Gathered up front through one `par_map`, which leases workers from
/// the same pool as every nested sweep; results come back in submission
/// order, so the checks below — and the rendered table — are identical
/// at any job count.
fn gather(env: &Env) -> Vec<Part> {
    nvfs_par::par_map((0..14).collect(), nvfs_par::jobs(), |i: usize| match i {
        0 => Part::Tab1(tab1::run()),
        1 => Part::Fig2(fig2::run(env)),
        2 => Part::Fig3(fig3::run(env)),
        3 => Part::Fig4(fig4::run(env)),
        4 => Part::Fig5(fig5::run(env)),
        5 => Part::Tab3(tab3::run(env)),
        6 => Part::WriteBuffer(write_buffer::run(env)),
        7 => Part::DiskSort(disk_sort::run()),
        8 => Part::BusNvram(Box::new(bus_nvram::run(env))),
        9 => Part::Presto(presto::run()),
        10 => Part::ReadLatency(read_latency::run()),
        11 => Part::VerifyNet(
            verify_net::run(env, crate::faults::DEFAULT_SEED).expect("verify-net sweep failed"),
        ),
        12 => Part::WalVsBuffer(lfs_wal_vs_buffer::run(env)),
        _ => Part::ScrubOverhead(
            scrub_overhead::run(env, crate::faults::DEFAULT_SEED)
                .expect("scrub-overhead study failed"),
        ),
    })
}

/// Evaluates every claim over `env`.
pub fn run(env: &Env) -> Scorecard {
    let mut parts = gather(env).into_iter();
    macro_rules! next {
        ($kind:ident) => {
            match parts.next() {
                Some(Part::$kind(result)) => result,
                _ => unreachable!("par_map returns results in submission order"),
            }
        };
    }
    let t1 = next!(Tab1);
    let f2 = next!(Fig2);
    let f3 = next!(Fig3);
    let f4 = next!(Fig4);
    let f5 = next!(Fig5);
    let t3 = next!(Tab3);
    let wb = next!(WriteBuffer);
    let ds = next!(DiskSort);
    let bn = next!(BusNvram);
    let p = next!(Presto);
    let rl = next!(ReadLatency);
    let vn = next!(VerifyNet);
    let wl = next!(WalVsBuffer);
    let so = next!(ScrubOverhead);

    let mut checks = Vec::new();
    let mut push = |id, paper, measured, band| {
        checks.push(Check {
            id,
            paper,
            measured,
            band,
        })
    };

    // Table 1.
    push(
        "tab1.ratio16",
        "NVRAM ≈4x DRAM per MB at 16 MB",
        t1.ratio_at_16mb,
        (3.5, 4.5),
    );

    // Figure 2.
    let typical_30s: f64 = f2
        .die_within_30s
        .iter()
        .filter(|(n, _)| *n != 3 && *n != 4)
        .map(|(_, f)| 100.0 * f)
        .sum::<f64>()
        / 6.0;
    let large_30s: f64 = f2
        .die_within_30s
        .iter()
        .filter(|(n, _)| *n == 3 || *n == 4)
        .map(|(_, f)| 100.0 * f)
        .sum::<f64>()
        / 2.0;
    let large_30m: f64 = f2
        .die_within_30m
        .iter()
        .filter(|(n, _)| *n == 3 || *n == 4)
        .map(|(_, f)| 100.0 * f)
        .sum::<f64>()
        / 2.0;
    push(
        "fig2.typical30s",
        "35-50% of bytes die in 30 s (typical)",
        typical_30s,
        (25.0, 55.0),
    );
    push(
        "fig2.large30s",
        "5-10% die in 30 s (traces 3-4)",
        large_30s,
        (2.0, 18.0),
    );
    push(
        "fig2.large30m",
        ">80% die in 30 min (traces 3-4)",
        large_30m,
        (65.0, 100.0),
    );

    // Table 2 (reusing the Figure 2 lifetime logs).
    let t2 = tab2::run_with_logs(env, &f2.logs);
    push(
        "tab2.absorbed.all",
        "85% absorbed (all traces)",
        100.0 * t2.all.absorbed_fraction(),
        (75.0, 92.0),
    );
    push(
        "tab2.absorbed.typical",
        "65% absorbed (excl. 3-4)",
        100.0 * t2.typical.absorbed_fraction(),
        (55.0, 80.0),
    );
    push(
        "tab2.concurrent",
        "concurrent writes minuscule (<1%)",
        100.0 * t2.all.concurrent as f64 / t2.all.total.max(1) as f64,
        (0.0, 2.0),
    );

    // Figure 3 (Trace 7).
    let at = |mb: f64| f3.traffic(7, mb).expect("trace 7 swept");
    push(
        "fig3.1mb",
        "1 MB NVRAM cuts ~50% of write traffic",
        100.0 - at(1.0),
        (40.0, 80.0),
    );
    push(
        "fig3.tail",
        "<10% more from 1 MB to 8 MB",
        at(1.0) - at(8.0),
        (0.0, 12.0),
    );

    // Figure 4.
    let lru = f4.traffic("lru", 1.0).expect("swept");
    let omni = f4.traffic("omniscient", 1.0).expect("swept");
    let random = f4.traffic("random", 1.0).expect("swept");
    push(
        "fig4.omniscient",
        "omniscient 10-15% better than LRU (<=22%)",
        100.0 * (lru - omni) / lru,
        (0.0, 30.0),
    );
    push(
        "fig4.random",
        "random almost as good as LRU",
        100.0 * (random - lru) / lru,
        (-10.0, 30.0),
    );

    // Figure 5.
    let vol8 = f5.traffic("volatile", 8.0).expect("swept");
    let uni8 = f5.traffic("unified", 8.0).expect("swept");
    let wa8 = f5.traffic("write-aside", 8.0).expect("swept");
    push(
        "fig5.unified",
        "unified beats volatile at +8 MB",
        vol8 - uni8,
        (0.0, 40.0),
    );
    // The crossover needs read working sets larger than the cache, which
    // the tiny test scale lacks; `tests/paper_shapes.rs` asserts it
    // strictly at the small scale.
    push(
        "fig5.writeaside",
        "write-aside trails volatile at +8 MB",
        wa8 - vol8,
        (-5.0, 40.0),
    );

    // Table 3.
    let u6 = t3.report("/user6").expect("present");
    push(
        "tab3.user6.partial",
        "/user6 97% partial",
        u6.pct_partial(),
        (90.0, 100.0),
    );
    push(
        "tab3.user6.fsync",
        "/user6 92% fsync partials",
        u6.pct_fsync_partial(),
        (85.0, 100.0),
    );
    push(
        "tab3.user6.share",
        "/user6 has 89% of segment writes",
        t3.shares[0].1,
        (75.0, 95.0),
    );
    push(
        "tab3.swap.fsync",
        "/swap1 has no fsync partials",
        t3.report("/swap1").expect("present").pct_fsync_partial(),
        (0.0, 0.0),
    );

    // Write buffer.
    push(
        "wb.user6",
        "/user6 disk writes cut ~90%",
        100.0 * wb.of("/user6").expect("present").reduction,
        (80.0, 99.0),
    );
    let typical_red: f64 = ["/user1", "/user4", "/sprite/src/kernel", "/user2"]
        .iter()
        .map(|n| 100.0 * wb.of(n).expect("present").reduction)
        .sum::<f64>()
        / 4.0;
    push(
        "wb.typical",
        "most file systems cut 10-25%",
        typical_red,
        (5.0, 35.0),
    );
    push(
        "wb.staging",
        "full staging leaves zero partials",
        wb.staged_partials as f64,
        (0.0, 0.0),
    );

    // Disk sorting.
    let (fifo, sorted) = ds.at(1000).expect("1000-I/O batch swept");
    push(
        "sort.random",
        "random block writes use ~7% of bandwidth",
        100.0 * fifo,
        (3.0, 12.0),
    );
    push(
        "sort.sorted",
        "1000 sorted I/Os reach ~40%",
        100.0 * sorted,
        (25.0, 60.0),
    );

    // §2.6.
    push(
        "bus.ratio",
        "unified uses >=25% less bus traffic",
        bn.bus_ratio(),
        (4.0 / 3.0 * 0.95, 10.0),
    );
    push(
        "bus.accesses",
        "unified makes 2-2.5x NVRAM accesses",
        bn.access_ratio(),
        (1.5, 8.0),
    );

    // Prestoserve.
    push(
        "presto.latency",
        "server NVRAM slashes sync-write latency",
        p.latency_improvement(),
        (2.0, 1e9),
    );

    // Read latency ([3]).
    push(
        "readlat.optimal",
        "optimal write ~2 tracks (50-70 KB)",
        (rl.optimal_bytes >> 10) as f64,
        (32.0, 160.0),
    );
    push(
        "readlat.typical",
        "full segments cost ~14% read latency",
        rl.typical_penalty_pct,
        (8.0, 30.0),
    );
    push(
        "readlat.heavy",
        "up to ~37% under heavy load",
        rl.heavy_penalty_pct,
        (25.0, 100.0),
    );

    // Network judge (§2.3 degraded modes under partitions).
    push(
        "net.ordering",
        "partition loss: volatile > write-aside > unified",
        f64::from(vn.loss_ordering_holds()),
        (1.0, 1.0),
    );
    push(
        "net.contract",
        "no acked byte lost, none double-applied",
        (vn.summary.acked_lost + vn.summary.double_apply + vn.summary.partition_leak) as f64,
        (0.0, 0.0),
    );
    push(
        "net.dedup",
        "server dedup suppresses every duplicate",
        vn.summary.duplicates as f64,
        (1.0, 1e12),
    );

    // Write-ahead log (logging vs paging extension).
    push(
        "wal.latency",
        "WAL fsync <= write buffer's on >=6 of 8 FSs",
        wl.non_regressions() as f64,
        (6.0, 8.0),
    );
    push(
        "wal.loss",
        "post-append crashes lose no acknowledged byte",
        wl.post_append_violations as f64,
        (0.0, 0.0),
    );

    // NVRAM corruption defenses (§2.3 protection & scrub extension).
    use nvfs_nvram::protect::ProtectionMode;
    push(
        "scrub.verified",
        "verified + scrub ships zero silent bytes",
        f64::from(so.row(ProtectionMode::Verified).report.bytes_silent == 0),
        (1.0, 1.0),
    );
    push(
        "scrub.unprotected",
        "unprotected ships silent corruption",
        f64::from(so.row(ProtectionMode::Unprotected).report.bytes_silent > 0),
        (1.0, 1.0),
    );
    push(
        "scrub.overhead",
        "overhead ordered: none < write-protect < verified",
        f64::from(so.ordering_holds()),
        (1.0, 1.0),
    );
    push(
        "scrub.conservation",
        "every corrupt byte accounted to exactly one fate",
        f64::from(so.rows.iter().all(|r| r.report.conservation_holds())),
        (1.0, 1.0),
    );

    let mut table = Table::new(
        "Reproduction scorecard",
        &["Check", "Paper claim", "Measured", "Band", "Verdict"],
    );
    for c in &checks {
        table.push_row(vec![
            Cell::from(c.id),
            Cell::from(c.paper),
            Cell::f2(c.measured),
            Cell::from(format!("{:.1}..{:.1}", c.band.0, c.band.1)),
            Cell::from(if c.passed() { "PASS" } else { "FAIL" }),
        ]);
    }
    Scorecard { checks, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_passes_at_tiny_scale() {
        let card = run(&Env::tiny());
        assert!(
            card.all_passed(),
            "failed: {:?} ({} of {} passed)",
            card.first_failure(),
            card.passed(),
            card.checks.len()
        );
        assert!(card.checks.len() >= 20, "scorecard covers the paper");
    }

    #[test]
    fn table_mirrors_checks() {
        let card = run(&Env::tiny());
        assert_eq!(card.table.row_count(), card.checks.len());
        assert!(card.table.render().contains("PASS"));
    }
}
