//! Read response time versus LFS write size (§3's closing analysis).
//!
//! "Extremely large write I/O's can cause potentially unacceptable latency
//! to any synchronous read requests that queue up behind them. Analytic
//! results in \[3\] show that the optimal write size for an LFS is
//! approximately two disk tracks, typically 50 - 70 kilobytes. The analytic
//! study reports that the increase in mean read response time due to full
//! segment writes is sometimes as much as 37%, but typically about 14%."
//!
//! [`ReadLatencyModel`] reproduces that analysis with an M/G/1 queue over
//! the parametric disk: reads and segment writes share the disk; larger
//! segments amortize positioning (lowering utilization) but lengthen the
//! residual service a read may queue behind. The trade-off has an interior
//! optimum that lands near two tracks for typical loads.

use nvfs_disk::DiskParams;

/// An open M/G/1 model of a disk shared by synchronous reads and LFS
/// segment writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadLatencyModel {
    /// The disk.
    disk: DiskParams,
    /// Synchronous read arrivals per second.
    read_rate_hz: f64,
    /// Bytes per read (file-cache misses are block-sized).
    read_bytes: u64,
    /// Dirty bytes generated per second (the log's write load).
    write_byte_rate: f64,
}

impl ReadLatencyModel {
    /// A typically loaded server: 10 cache-miss reads/s of 8 KB and
    /// 100 KB/s of log writes.
    pub fn typical() -> Self {
        ReadLatencyModel {
            disk: DiskParams::sprite_era(),
            read_rate_hz: 10.0,
            read_bytes: 8 << 10,
            write_byte_rate: 100.0 * 1024.0,
        }
    }

    /// A heavily write-loaded server (the "sometimes as much as 37%" case).
    pub fn heavy() -> Self {
        ReadLatencyModel {
            write_byte_rate: 300.0 * 1024.0,
            ..ReadLatencyModel::typical()
        }
    }

    /// Service time of one read, in seconds.
    fn read_service_s(&self) -> f64 {
        self.disk.service_time_ms(self.read_bytes) / 1000.0
    }

    /// Service time of one segment write of `write_bytes`, in seconds.
    fn write_service_s(&self, write_bytes: u64) -> f64 {
        self.disk.service_time_ms(write_bytes) / 1000.0
    }

    /// Total disk utilization with segments of `write_bytes`.
    fn utilization(&self, write_bytes: u64) -> f64 {
        let write_rate = self.write_byte_rate / write_bytes as f64;
        self.read_rate_hz * self.read_service_s() + write_rate * self.write_service_s(write_bytes)
    }

    /// Mean read response time (queueing + service) in milliseconds for
    /// segments of `write_bytes`, or `None` if the disk would saturate.
    ///
    /// Standard M/G/1 with deterministic service per class: the mean wait is
    /// the total residual work `Σ λᵢE[Sᵢ²]/2` inflated by `1/(1-ρ)`.
    pub fn mean_read_response_ms(&self, write_bytes: u64) -> Option<f64> {
        let rho = self.utilization(write_bytes);
        if rho >= 1.0 {
            return None;
        }
        let sr = self.read_service_s();
        let sw = self.write_service_s(write_bytes);
        let write_rate = self.write_byte_rate / write_bytes as f64;
        let residual = (self.read_rate_hz * sr * sr + write_rate * sw * sw) / 2.0;
        let wait = residual / (1.0 - rho);
        Some((wait + sr) * 1000.0)
    }

    /// The write size in `grid` minimizing mean read response time.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is empty or the disk saturates at every size.
    pub fn optimal_write_bytes(&self, grid: &[u64]) -> u64 {
        grid.iter()
            .filter_map(|&w| self.mean_read_response_ms(w).map(|r| (w, r)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one stable write size")
            .0
    }

    /// Percentage increase of mean read response when writing full
    /// segments of `full_bytes` instead of the optimal size from `grid`.
    pub fn full_segment_penalty_pct(&self, grid: &[u64], full_bytes: u64) -> f64 {
        let best = self.optimal_write_bytes(grid);
        let at_best = self.mean_read_response_ms(best).expect("optimum is stable");
        let at_full = self
            .mean_read_response_ms(full_bytes)
            .expect("full segments must not saturate the disk");
        100.0 * (at_full - at_best) / at_best
    }
}

/// The write-size grid used by the analysis (16 KB to a full segment).
pub const WRITE_SIZE_GRID: [u64; 9] = [
    16 << 10,
    32 << 10,
    48 << 10,
    64 << 10,
    96 << 10,
    128 << 10,
    192 << 10,
    256 << 10,
    512 << 10,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_write_size_is_about_two_tracks() {
        // "[3]: the optimal write size for an LFS is approximately two disk
        // tracks, typically 50 - 70 kilobytes."
        let m = ReadLatencyModel::typical();
        let best = m.optimal_write_bytes(&WRITE_SIZE_GRID);
        let two_tracks = 2 * m.disk.track_bytes;
        assert!(
            (32 << 10..=160 << 10).contains(&best),
            "optimum {} KB (two tracks = {} KB)",
            best >> 10,
            two_tracks >> 10
        );
    }

    #[test]
    fn full_segments_cost_about_fourteen_percent_typically() {
        let m = ReadLatencyModel::typical();
        let penalty = m.full_segment_penalty_pct(&WRITE_SIZE_GRID, 512 << 10);
        assert!(
            (8.0..=30.0).contains(&penalty),
            "typical penalty {penalty:.1}%"
        );
    }

    #[test]
    fn heavy_write_loads_reach_the_thirty_seven_percent_regime() {
        let m = ReadLatencyModel::heavy();
        let penalty = m.full_segment_penalty_pct(&WRITE_SIZE_GRID, 512 << 10);
        assert!(penalty > 25.0, "heavy penalty {penalty:.1}%");
        // And heavier loads always hurt more than typical ones.
        let typical =
            ReadLatencyModel::typical().full_segment_penalty_pct(&WRITE_SIZE_GRID, 512 << 10);
        assert!(penalty > typical);
    }

    #[test]
    fn saturation_is_reported_as_none() {
        let mut m = ReadLatencyModel::typical();
        m.read_rate_hz = 1000.0;
        assert_eq!(m.mean_read_response_ms(512 << 10), None);
    }

    #[test]
    fn response_has_an_interior_minimum() {
        let m = ReadLatencyModel::typical();
        let first = m.mean_read_response_ms(WRITE_SIZE_GRID[0]).unwrap();
        let best = m
            .mean_read_response_ms(m.optimal_write_bytes(&WRITE_SIZE_GRID))
            .unwrap();
        let last = m.mean_read_response_ms(512 << 10).unwrap();
        assert!(best < first, "tiny writes thrash positioning");
        assert!(best < last, "full segments lengthen residuals");
    }

    #[test]
    fn utilization_decreases_with_write_size() {
        let m = ReadLatencyModel::typical();
        assert!(m.utilization(32 << 10) > m.utilization(512 << 10));
    }
}
