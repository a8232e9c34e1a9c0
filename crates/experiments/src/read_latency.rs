//! The §3 closing analysis: read response time versus LFS write size.
//!
//! Reproduces the two numbers the paper quotes from \[3\]: "the optimal
//! write size for an LFS is approximately two disk tracks, typically
//! 50 - 70 kilobytes", and "the increase in mean read response time due to
//! full segment writes is sometimes as much as 37%, but typically about
//! 14%."

use nvfs_lfs::read_latency::{ReadLatencyModel, WRITE_SIZE_GRID};
use nvfs_report::{Cell, Figure, Series, Table};

/// Output of the read-latency analysis.
#[derive(Debug, Clone)]
pub struct ReadLatency {
    /// Mean read response vs write size, one series per load level.
    pub(crate) figure: Figure,
    /// The summary table.
    pub(crate) table: Table,
    /// Optimal write size under the typical load, in bytes.
    pub optimal_bytes: u64,
    /// Full-segment penalty under the typical load, percent.
    pub typical_penalty_pct: f64,
    /// Full-segment penalty under the heavy load, percent.
    pub heavy_penalty_pct: f64,
}

/// Runs the analysis at the typical and heavy load points.
pub fn run() -> ReadLatency {
    let typical = ReadLatencyModel::typical();
    let heavy = ReadLatencyModel::heavy();
    let mut figure = Figure::new(
        "§3: mean read response time vs LFS write size",
        "Write size (KB)",
        "Mean read response (ms)",
    );
    for (name, model) in [("typical", &typical), ("heavy", &heavy)] {
        let points: Vec<(f64, f64)> = WRITE_SIZE_GRID
            .iter()
            .filter_map(|&w| {
                model
                    .mean_read_response_ms(w)
                    .map(|r| ((w >> 10) as f64, r))
            })
            .collect();
        figure.push(Series::new(name, points));
    }
    let optimal_bytes = typical.optimal_write_bytes(&WRITE_SIZE_GRID);
    let typical_penalty_pct = typical.full_segment_penalty_pct(&WRITE_SIZE_GRID, 512 << 10);
    let heavy_penalty_pct = heavy.full_segment_penalty_pct(&WRITE_SIZE_GRID, 512 << 10);

    let mut table = Table::new(
        "§3: optimal write size and full-segment read penalty",
        &[
            "Load",
            "Optimal write (KB)",
            "Response at optimum (ms)",
            "Response at 512 KB (ms)",
            "Penalty",
        ],
    );
    for (name, model) in [("typical", &typical), ("heavy", &heavy)] {
        let best = model.optimal_write_bytes(&WRITE_SIZE_GRID);
        table.push_row(vec![
            Cell::from(name),
            Cell::from((best >> 10) as usize),
            Cell::f1(
                model
                    .mean_read_response_ms(best)
                    .expect("optimum is stable"),
            ),
            Cell::f1(
                model
                    .mean_read_response_ms(512 << 10)
                    .expect("stable at 512 KB"),
            ),
            Cell::Pct(model.full_segment_penalty_pct(&WRITE_SIZE_GRID, 512 << 10)),
        ]);
    }
    ReadLatency {
        figure,
        table,
        optimal_bytes,
        typical_penalty_pct,
        heavy_penalty_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_bands() {
        let out = run();
        assert!(
            (32 << 10..=160 << 10).contains(&out.optimal_bytes),
            "optimum {} KB",
            out.optimal_bytes >> 10
        );
        assert!(
            (8.0..=30.0).contains(&out.typical_penalty_pct),
            "{}",
            out.typical_penalty_pct
        );
        assert!(out.heavy_penalty_pct > out.typical_penalty_pct);
        assert_eq!(out.figure.all_series().len(), 2);
        assert_eq!(out.table.row_count(), 2);
    }
}
