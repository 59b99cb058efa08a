//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no network access, so this workspace vendors
//! the *exact* API surface it consumes from `rand 0.8`: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] extension methods
//! `gen` / `gen_range` over the integer and float ranges the workloads
//! draw from. The generator is xoshiro256++ seeded via SplitMix64 —
//! deterministic in the seed, which is all the workload generators and
//! Monte Carlo tests require.
//!
//! Not a cryptographic RNG; not a statistics-grade uniform sampler
//! (`gen_range` uses modulo reduction). Both are fine for seeded test
//! workloads and are documented here so nobody mistakes this for the real
//! crate.

#![forbid(unsafe_code)]

/// Core source of randomness: 64 random bits at a time (object-safe).
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable by [`Rng::gen`].
pub trait FromRng {
    /// Draw one value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges samplable by [`Rng::gen_range`] (mirrors
/// `rand::distributions::uniform::SampleRange<T>`, so integer literals
/// infer their type from the call site).
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let x = rng.next_u64() as u128 % span;
                (self.start as i128 + x as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let x = rng.next_u64() as u128 % span;
                (lo as i128 + x as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = f64::from_rng(rng);
        self.start + (self.end - self.start) * unit
    }
}

/// Extension methods over any [`RngCore`] (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// Sample a value of type `T` (uniform `[0, 1)` for `f64`).
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Sample uniformly from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stands in for `rand`'s
    /// `StdRng`; same name so call sites compile unchanged).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut sm);
            }
            // All-zero state would be a fixed point; splitmix64 cannot
            // produce it from any seed, but keep the guard explicit.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} far from 1000");
        }
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw<R: super::RngCore + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(3);
        let x = draw(&mut rng);
        assert!((0.0..1.0).contains(&x));
    }
}
