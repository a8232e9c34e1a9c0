//! Deterministic pseudo-random numbers with no external dependencies.
//!
//! The build environment is offline, so the workspace cannot pull in the
//! `rand` crate. This crate provides the small API subset the simulators
//! actually use — [`StdRng`] seeded via [`SeedableRng::seed_from_u64`],
//! `gen`, `gen_range`, and `gen_bool` on the [`Rng`] trait — backed by
//! xoshiro256++ with SplitMix64 seed expansion.
//!
//! Determinism is the point, not cryptographic quality: every simulation
//! in this workspace derives its workload from a configured seed, and the
//! same seed must produce the same stream on every platform and at every
//! thread count. All state lives inside the generator value; nothing here
//! touches global or thread-local state, which is what makes per-task
//! seeding safe under [`nvfs-par`](https://example.org/nvfs)'s fan-out.
//!
//! # Examples
//!
//! ```
//! use nvfs_rng::{Rng, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1992);
//! let u: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&u));
//! let d = rng.gen_range(0..6u64);
//! assert!(d < 6);
//! let replay: Vec<u64> = {
//!     let mut r = StdRng::seed_from_u64(1992);
//!     (0..4).map(|_| r.next_u64()).collect()
//! };
//! let again: Vec<u64> = {
//!     let mut r = StdRng::seed_from_u64(1992);
//!     (0..4).map(|_| r.next_u64()).collect()
//! };
//! assert_eq!(replay, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::ops::{Range, RangeInclusive};

/// Types constructible from a seed. Mirrors `rand::SeedableRng` for the
/// one constructor the workspace uses.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of uniformly distributed pseudo-random values.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value of `T` (for `f64`: in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniformly distributed value in `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        f64::sample_standard(self) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Values samplable uniformly over their "standard" domain (the unit
/// interval for floats, the full range for integers).
pub trait Standard {
    /// Draws one value from `rng`.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Types with a uniform sampler over an arbitrary sub-range.
pub trait SampleUniform: Sized {
    /// A uniform value in `[lo, hi]` (both ends inclusive).
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Range shapes accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// A uniform integer in `[0, span]` via Lemire's widening-multiply method
/// with rejection, so every value is exactly equally likely.
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == u64::MAX {
        return rng.next_u64();
    }
    let n = span + 1;
    // Reject the biased tail: accept x only when x * n has no wrap-around
    // collision, i.e. the low word is >= the bias threshold.
    let threshold = n.wrapping_neg() % n;
    loop {
        let x = rng.next_u64();
        let wide = (x as u128) * (n as u128);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "empty range {lo}..={hi}");
                let span = (hi as i128 - lo as i128) as u64;
                let off = uniform_u64(rng, span);
                ((lo as i128) + off as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let u = f64::sample_standard(rng);
        // Half-open by construction (u < 1); the inclusive distinction is
        // immaterial for continuous draws.
        lo + u * (hi - lo)
    }
}

impl<T: SampleUniform + PartialOrd + HalfOpenEnd> SampleRange<T> for Range<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty range");
        T::sample_inclusive(rng, self.start, self.end.half_open_max())
    }
}

impl<T: SampleUniform + PartialOrd + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Converts a half-open upper bound into the inclusive maximum it admits.
trait HalfOpenEnd: Sized {
    /// The largest value strictly below `self` (identity for floats, where
    /// the sampler is half-open already).
    fn half_open_max(self) -> Self;
}

macro_rules! impl_half_open_int {
    ($($t:ty),*) => {$(
        impl HalfOpenEnd for $t {
            fn half_open_max(self) -> $t {
                self - 1
            }
        }
    )*};
}

impl_half_open_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl HalfOpenEnd for f64 {
    fn half_open_max(self) -> f64 {
        self
    }
}

/// The workspace's standard generator: xoshiro256++ seeded by SplitMix64.
///
/// Small (32 bytes), fast, passes BigCrush, and — unlike `rand`'s ChaCha12
/// `StdRng` — implementable in a page of dependency-free code. The stream
/// is stable: changing it invalidates every calibrated workload, so treat
/// the constants below as frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        StdRng { s }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut r = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn gen_range_half_open_and_inclusive() {
        let mut r = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = r.gen_range(3..7u64);
            assert!((3..7).contains(&v));
            let w = r.gen_range(3..=7u64);
            assert!((3..=7).contains(&w));
            let f = r.gen_range(-1.5..2.5f64);
            assert!((-1.5..2.5).contains(&f));
            let i = r.gen_range(-5..5i32);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn gen_range_single_value() {
        let mut r = StdRng::seed_from_u64(1);
        assert_eq!(r.gen_range(4..5u64), 4);
        assert_eq!(r.gen_range(4..=4u64), 4);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(1);
        let _ = r.gen_range(5..5u64);
    }

    #[test]
    fn gen_range_hits_all_values() {
        let mut r = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 6];
        for _ in 0..6000 {
            counts[r.gen_range(0..6usize)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((700..1300).contains(c), "value {i} drawn {c} times");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
        let mut r = StdRng::seed_from_u64(3);
        assert_eq!((0..100).filter(|_| r.gen_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| r.gen_bool(1.0)).count(), 100);
    }

    #[test]
    fn trait_object_friendly_generics() {
        // The `R: Rng + ?Sized` bounds used across the workspace.
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            f64::sample_standard(rng)
        }
        let mut r = StdRng::seed_from_u64(5);
        assert!((0.0..1.0).contains(&draw(&mut r)));
    }
}
