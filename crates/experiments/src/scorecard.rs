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

/// Every scorecard part, in table order: each runs one experiment and
/// evaluates its claims.
const PARTS: [fn(&Env) -> Vec<Check>; 14] = [
    tab1_claims,
    fig2_claims,
    fig3_claims,
    fig4_claims,
    fig5_claims,
    tab3_claims,
    write_buffer_claims,
    disk_sort_claims,
    bus_nvram_claims,
    presto_claims,
    read_latency_claims,
    verify_net_claims,
    wal_vs_buffer_claims,
    scrub_overhead_claims,
];

fn check(id: &'static str, paper: &'static str, measured: f64, band: (f64, f64)) -> Check {
    Check {
        id,
        paper,
        measured,
        band,
    }
}

fn tab1_claims(_: &Env) -> Vec<Check> {
    vec![check(
        "tab1.ratio16",
        "NVRAM ≈4x DRAM per MB at 16 MB",
        tab1::run().ratio_at_16mb,
        (3.5, 4.5),
    )]
}

/// Figure 2, plus Table 2 reusing the Figure 2 lifetime logs.
fn fig2_claims(env: &Env) -> Vec<Check> {
    let f2 = fig2::run(env);
    // Mean percentage over traces 3-4 (`large`) or over the six others.
    let mean = |within: &[(usize, f64)], large: bool| {
        let picked = within.iter().filter(|(n, _)| (*n == 3 || *n == 4) == large);
        picked.map(|(_, f)| 100.0 * f).sum::<f64>() / if large { 2.0 } else { 6.0 }
    };
    let t2 = tab2::run_with_logs(env, &f2.logs);
    vec![
        check(
            "fig2.typical30s",
            "35-50% of bytes die in 30 s (typical)",
            mean(&f2.die_within_30s, false),
            (25.0, 55.0),
        ),
        check(
            "fig2.large30s",
            "5-10% die in 30 s (traces 3-4)",
            mean(&f2.die_within_30s, true),
            (2.0, 18.0),
        ),
        check(
            "fig2.large30m",
            ">80% die in 30 min (traces 3-4)",
            mean(&f2.die_within_30m, true),
            (65.0, 100.0),
        ),
        check(
            "tab2.absorbed.all",
            "85% absorbed (all traces)",
            100.0 * t2.all.absorbed_fraction(),
            (75.0, 92.0),
        ),
        check(
            "tab2.absorbed.typical",
            "65% absorbed (excl. 3-4)",
            100.0 * t2.typical.absorbed_fraction(),
            (55.0, 80.0),
        ),
        check(
            "tab2.concurrent",
            "concurrent writes minuscule (<1%)",
            100.0 * t2.all.concurrent as f64 / t2.all.total.max(1) as f64,
            (0.0, 2.0),
        ),
    ]
}

/// Figure 3 (Trace 7).
fn fig3_claims(env: &Env) -> Vec<Check> {
    let f3 = fig3::run(env);
    let at = |mb: f64| f3.traffic(7, mb).expect("trace 7 swept");
    vec![
        check(
            "fig3.1mb",
            "1 MB NVRAM cuts ~50% of write traffic",
            100.0 - at(1.0),
            (40.0, 80.0),
        ),
        check(
            "fig3.tail",
            "<10% more from 1 MB to 8 MB",
            at(1.0) - at(8.0),
            (0.0, 12.0),
        ),
    ]
}

fn fig4_claims(env: &Env) -> Vec<Check> {
    let f4 = fig4::run(env);
    let at = |policy: &str| f4.traffic(policy, 1.0).expect("swept");
    let lru = at("lru");
    vec![
        check(
            "fig4.omniscient",
            "omniscient 10-15% better than LRU (<=22%)",
            100.0 * (lru - at("omniscient")) / lru,
            (0.0, 30.0),
        ),
        check(
            "fig4.random",
            "random almost as good as LRU",
            100.0 * (at("random") - lru) / lru,
            (-10.0, 30.0),
        ),
    ]
}

fn fig5_claims(env: &Env) -> Vec<Check> {
    let f5 = fig5::run(env);
    let at8 = |model: &str| f5.traffic(model, 8.0).expect("swept");
    let vol8 = at8("volatile");
    vec![
        check(
            "fig5.unified",
            "unified beats volatile at +8 MB",
            vol8 - at8("unified"),
            (0.0, 40.0),
        ),
        // The crossover needs read working sets larger than the cache,
        // which the tiny test scale lacks; `tests/paper_shapes.rs` asserts
        // it strictly at the small scale.
        check(
            "fig5.writeaside",
            "write-aside trails volatile at +8 MB",
            at8("write-aside") - vol8,
            (-5.0, 40.0),
        ),
    ]
}

fn tab3_claims(env: &Env) -> Vec<Check> {
    let t3 = tab3::run(env);
    let u6 = t3.report("/user6").expect("present");
    vec![
        check(
            "tab3.user6.partial",
            "/user6 97% partial",
            u6.pct_partial(),
            (90.0, 100.0),
        ),
        check(
            "tab3.user6.fsync",
            "/user6 92% fsync partials",
            u6.pct_fsync_partial(),
            (85.0, 100.0),
        ),
        check(
            "tab3.user6.share",
            "/user6 has 89% of segment writes",
            t3.shares[0].1,
            (75.0, 95.0),
        ),
        check(
            "tab3.swap.fsync",
            "/swap1 has no fsync partials",
            t3.report("/swap1").expect("present").pct_fsync_partial(),
            (0.0, 0.0),
        ),
    ]
}

fn write_buffer_claims(env: &Env) -> Vec<Check> {
    let wb = write_buffer::run(env);
    let reduction = |name: &str| 100.0 * wb.of(name).expect("present").reduction;
    let typical = ["/user1", "/user4", "/sprite/src/kernel", "/user2"];
    vec![
        check(
            "wb.user6",
            "/user6 disk writes cut ~90%",
            reduction("/user6"),
            (80.0, 99.0),
        ),
        check(
            "wb.typical",
            "most file systems cut 10-25%",
            typical.iter().map(|n| reduction(n)).sum::<f64>() / 4.0,
            (5.0, 35.0),
        ),
        check(
            "wb.staging",
            "full staging leaves zero partials",
            wb.staged_partials as f64,
            (0.0, 0.0),
        ),
    ]
}

fn disk_sort_claims(_: &Env) -> Vec<Check> {
    let (fifo, sorted) = disk_sort::run().at(1000).expect("1000-I/O batch swept");
    vec![
        check(
            "sort.random",
            "random block writes use ~7% of bandwidth",
            100.0 * fifo,
            (3.0, 12.0),
        ),
        check(
            "sort.sorted",
            "1000 sorted I/Os reach ~40%",
            100.0 * sorted,
            (25.0, 60.0),
        ),
    ]
}

/// §2.6.
fn bus_nvram_claims(env: &Env) -> Vec<Check> {
    let bn = bus_nvram::run(env);
    vec![
        check(
            "bus.ratio",
            "unified uses >=25% less bus traffic",
            bn.bus_ratio(),
            (4.0 / 3.0 * 0.95, 10.0),
        ),
        check(
            "bus.accesses",
            "unified makes 2-2.5x NVRAM accesses",
            bn.access_ratio(),
            (1.5, 8.0),
        ),
    ]
}

fn presto_claims(_: &Env) -> Vec<Check> {
    vec![check(
        "presto.latency",
        "server NVRAM slashes sync-write latency",
        presto::run().latency_improvement(),
        (2.0, 1e9),
    )]
}

/// Read latency ([3]).
fn read_latency_claims(_: &Env) -> Vec<Check> {
    let rl = read_latency::run();
    vec![
        check(
            "readlat.optimal",
            "optimal write ~2 tracks (50-70 KB)",
            (rl.optimal_bytes >> 10) as f64,
            (32.0, 160.0),
        ),
        check(
            "readlat.typical",
            "full segments cost ~14% read latency",
            rl.typical_penalty_pct,
            (8.0, 30.0),
        ),
        check(
            "readlat.heavy",
            "up to ~37% under heavy load",
            rl.heavy_penalty_pct,
            (25.0, 100.0),
        ),
    ]
}

/// Network judge (§2.3 degraded modes under partitions).
fn verify_net_claims(env: &Env) -> Vec<Check> {
    let vn = verify_net::run(env, crate::faults::DEFAULT_SEED).expect("verify-net sweep failed");
    let s = &vn.summary;
    vec![
        check(
            "net.ordering",
            "partition loss: volatile > write-aside > unified",
            f64::from(vn.loss_ordering_holds()),
            (1.0, 1.0),
        ),
        check(
            "net.contract",
            "no acked byte lost, none double-applied",
            (s.acked_lost + s.double_apply + s.partition_leak) as f64,
            (0.0, 0.0),
        ),
        check(
            "net.dedup",
            "server dedup suppresses every duplicate",
            s.duplicates as f64,
            (1.0, 1e12),
        ),
    ]
}

fn wal_vs_buffer_claims(env: &Env) -> Vec<Check> {
    wal_checks(&lfs_wal_vs_buffer::run(env))
}

/// The write-ahead log's claims (logging vs paging extension); the
/// `lfs-wal-vs-buffer` experiment's verdict reads the same checks.
pub(crate) fn wal_checks(wl: &lfs_wal_vs_buffer::WalVsBuffer) -> Vec<Check> {
    vec![
        check(
            "wal.latency",
            "WAL fsync <= write buffer's on >=6 of 8 FSs",
            wl.non_regressions() as f64,
            (6.0, 8.0),
        ),
        check(
            "wal.loss",
            "post-append crashes lose no acknowledged byte",
            wl.post_append_violations as f64,
            (0.0, 0.0),
        ),
    ]
}

/// NVRAM corruption defenses (§2.3 protection & scrub extension).
fn scrub_overhead_claims(env: &Env) -> Vec<Check> {
    use nvfs_nvram::protect::ProtectionMode;
    let so =
        scrub_overhead::run(env, crate::faults::DEFAULT_SEED).expect("scrub-overhead study failed");
    let silent = |mode| so.row(mode).report.bytes_silent;
    vec![
        check(
            "scrub.verified",
            "verified + scrub ships zero silent bytes",
            f64::from(silent(ProtectionMode::Verified) == 0),
            (1.0, 1.0),
        ),
        check(
            "scrub.unprotected",
            "unprotected ships silent corruption",
            f64::from(silent(ProtectionMode::Unprotected) > 0),
            (1.0, 1.0),
        ),
        check(
            "scrub.overhead",
            "overhead ordered: none < write-protect < verified",
            f64::from(so.ordering_holds()),
            (1.0, 1.0),
        ),
        check(
            "scrub.conservation",
            "every corrupt byte accounted to exactly one fate",
            f64::from(so.rows.iter().all(|r| r.report.conservation_holds())),
            (1.0, 1.0),
        ),
    ]
}

/// Evaluates every claim over `env`.
///
/// The parts run through one `par_map` with one job: each still runs in
/// its own task frame at its table index, so metrics merge in the same
/// order at any job count, and the outer call leases no worker, so each
/// part's own sweep gets the whole pool.
pub fn run(env: &Env) -> Scorecard {
    let checks: Vec<Check> = nvfs_par::par_map(PARTS.to_vec(), 1, |part| part(env))
        .into_iter()
        .flatten()
        .collect();
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

    /// One tiny run, several questions: every claim passes, the table
    /// mirrors the checks, and the checks keep their ids and order.
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
        assert_eq!(card.table.row_count(), card.checks.len());
        assert!(card.table.render().contains("PASS"));
        // The parts' checks concatenate in table order.
        let ids: Vec<&str> = card.checks.iter().map(|c| c.id).collect();
        assert_eq!(
            ids,
            [
                "tab1.ratio16",
                "fig2.typical30s",
                "fig2.large30s",
                "fig2.large30m",
                "tab2.absorbed.all",
                "tab2.absorbed.typical",
                "tab2.concurrent",
                "fig3.1mb",
                "fig3.tail",
                "fig4.omniscient",
                "fig4.random",
                "fig5.unified",
                "fig5.writeaside",
                "tab3.user6.partial",
                "tab3.user6.fsync",
                "tab3.user6.share",
                "tab3.swap.fsync",
                "wb.user6",
                "wb.typical",
                "wb.staging",
                "sort.random",
                "sort.sorted",
                "bus.ratio",
                "bus.accesses",
                "presto.latency",
                "readlat.optimal",
                "readlat.typical",
                "readlat.heavy",
                "net.ordering",
                "net.contract",
                "net.dedup",
                "wal.latency",
                "wal.loss",
                "scrub.verified",
                "scrub.unprotected",
                "scrub.overhead",
                "scrub.conservation",
            ]
        );
    }
}
