//! Table 2 — summary of types of write traffic: the fate of every byte
//! written into an infinite non-volatile cache.

use nvfs_core::{ByteFate, LifetimeLog};
use nvfs_report::{Cell, Table};

use crate::env::Env;
use crate::fig2;

/// Aggregated fate totals for a set of traces.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FateTotals {
    /// Bytes overwritten in the cache.
    overwritten: u64,
    /// Bytes deleted/truncated in the cache.
    deleted: u64,
    /// Bytes recalled by consistency (includes migration flushes).
    pub called_back: u64,
    /// Bytes written through during concurrent write-sharing.
    pub concurrent: u64,
    /// Bytes remaining in the cache at trace end.
    remaining: u64,
    /// Total application writes.
    pub total: u64,
}

impl FateTotals {
    fn add(&mut self, log: &LifetimeLog) {
        let fates = log.bytes_by_fate();
        let get = |f: ByteFate| fates.get(&f).copied().unwrap_or(0);
        self.overwritten += get(ByteFate::Overwritten);
        self.deleted += get(ByteFate::Deleted);
        self.called_back += get(ByteFate::CalledBack) + get(ByteFate::Migrated);
        self.concurrent += get(ByteFate::Concurrent);
        self.remaining += get(ByteFate::Remaining);
        self.total += log.total_write_bytes;
    }

    /// Fraction absorbed (overwritten + deleted).
    pub fn absorbed_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.overwritten + self.deleted) as f64 / self.total as f64
    }

    fn pct(&self, v: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * v as f64 / self.total as f64
        }
    }
}

/// Output of the Table 2 reproduction.
#[derive(Debug, Clone)]
pub struct Tab2 {
    /// The rendered table (rows as in the paper, columns for All traces and
    /// for the typical traces only).
    pub table: Table,
    /// Totals over all eight traces.
    pub all: FateTotals,
    /// Totals excluding traces 3 and 4.
    pub typical: FateTotals,
}

/// Runs the fate analysis over every trace in `env`.
pub fn run(env: &Env) -> Tab2 {
    run_with_logs(env, &fig2::run(env).logs)
}

/// Builds Table 2 from precomputed lifetime logs (callers that already ran
/// the Figure 2 analysis, such as the scorecard, avoid repeating it).
pub(crate) fn run_with_logs(env: &Env, logs: &[LifetimeLog]) -> Tab2 {
    let mut all = FateTotals::default();
    let mut typical = FateTotals::default();
    for (trace, log) in env.traces.traces().iter().zip(logs) {
        all.add(log);
        if !trace.is_large_file_workload() {
            typical.add(log);
        }
    }

    let mb = |v: u64| Cell::f1(v as f64 / (1 << 20) as f64);
    let mut table = Table::new(
        "Table 2: Summary of types of write traffic",
        &[
            "Traffic type",
            "MB (all)",
            "% (all)",
            "MB (no 3 or 4)",
            "% (no 3 or 4)",
        ],
    );
    let mut row = |name: &str, a: u64, t: u64| {
        table.push_row(vec![
            Cell::from(name),
            mb(a),
            Cell::Pct(all.pct(a)),
            mb(t),
            Cell::Pct(typical.pct(t)),
        ]);
    };
    row("Overwritten", all.overwritten, typical.overwritten);
    row("Deleted", all.deleted, typical.deleted);
    row(
        "Total absorbed",
        all.overwritten + all.deleted,
        typical.overwritten + typical.deleted,
    );
    row("Called back", all.called_back, typical.called_back);
    row("Concurrent writes", all.concurrent, typical.concurrent);
    row(
        "Total server writes",
        all.called_back + all.concurrent,
        typical.called_back + typical.concurrent,
    );
    row("Remaining", all.remaining, typical.remaining);
    row("Total application writes", all.total, typical.total);

    Tab2 {
        table,
        all,
        typical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_partition_total_writes() {
        let out = run(&Env::tiny());
        for t in [&out.all, &out.typical] {
            let sum = t.overwritten + t.deleted + t.called_back + t.concurrent + t.remaining;
            assert_eq!(sum, t.total);
        }
        assert_eq!(out.table.row_count(), 8);
    }

    #[test]
    fn all_traces_absorb_more_than_typical() {
        // Traces 3 and 4 are dominated by short-lived simulation output, so
        // including them raises the absorbed fraction (85% vs 65% in the
        // paper).
        let out = run(&Env::tiny());
        assert!(out.all.absorbed_fraction() > out.typical.absorbed_fraction());
    }

    #[test]
    fn concurrent_writes_are_minuscule() {
        let out = run(&Env::tiny());
        assert!(out.all.pct(out.all.concurrent) < 2.0);
    }
}
