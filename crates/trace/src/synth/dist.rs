//! Small sampling helpers used by the workload synthesizer.
//!
//! Implemented locally (rather than pulling in `rand_distr`) so the
//! generator stays dependency-light and fully deterministic under a seeded
//! [`nvfs_rng::Rng`].

use nvfs_rng::Rng;

/// Samples an exponential variate with the given `mean`.
///
/// # Panics
///
/// Panics if `mean` is not strictly positive and finite.
pub(crate) fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(
        mean > 0.0 && mean.is_finite(),
        "mean must be positive and finite"
    );
    // Inverse-CDF sampling; `gen` yields [0, 1), so 1-u is in (0, 1].
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// Samples a standard normal variate via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a log-normal variate with the given `median` and log-space
/// standard deviation `sigma`.
///
/// # Panics
///
/// Panics if `median` is not strictly positive or `sigma` is negative.
pub(crate) fn lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "median must be positive");
    assert!(sigma >= 0.0, "sigma must be non-negative");
    (median.ln() + sigma * standard_normal(rng)).exp()
}

/// A precomputed Zipf-like popularity distribution over `n` items.
///
/// Item `i` (zero-based) has weight `1 / (i + 1)^s`. Used to pick which
/// corpus file a read references: a few files are very hot, most are cold.
///
/// # Examples
///
/// ```
/// use nvfs_trace::synth::dist::Zipf;
/// use nvfs_rng::{SeedableRng, StdRng};
///
/// let z = Zipf::new(100, 0.9);
/// let mut rng = StdRng::seed_from_u64(1);
/// let i = z.sample(&mut rng);
/// assert!(i < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` items with skew `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(s >= 0.0, "skew must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples a zero-based item index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_rng::{SeedableRng, StdRng};

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean was {mean}");
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut v: Vec<f64> = (0..20_001)
            .map(|_| lognormal(&mut rng, 100.0, 1.0))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 100.0).abs() < 10.0, "median was {median}");
    }

    #[test]
    fn zipf_prefers_low_indices() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut head = 0;
        let n = 10_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s=1.0 over 1000 items, the top-10 share is ~39%.
        let share = head as f64 / n as f64;
        assert!(share > 0.3 && share < 0.5, "top-10 share was {share}");
    }

    #[test]
    fn zipf_with_zero_skew_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!(c > 1600 && c < 2400, "count was {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn samples_are_deterministic_for_seed() {
        let z = Zipf::new(50, 0.8);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
