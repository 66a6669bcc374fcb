//! Offline stand-in for the `rand` crate: a deterministic xoshiro256++
//! generator behind the `Rng`/`SeedableRng` API subset this workspace uses
//! (`StdRng::seed_from_u64`, `gen`, `gen_range`).
//!
//! Streams differ from the real `rand::StdRng` (which is ChaCha-based);
//! everything in this workspace treats the RNG as an arbitrary
//! deterministic source, so only reproducibility matters, not the exact
//! stream.

use std::ops::Range;

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling interface.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Sample a value of `T` from its canonical distribution
    /// (`f64`/`f32` uniform in `[0, 1)`, integers uniform over the type).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a half-open range.
    fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// Sample a bool with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

/// Types samplable from the canonical distribution.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types samplable uniformly from a `Range`.
pub trait UniformRange: Sized {
    /// Draw one value from `range`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                range.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_uniform_int!(usize, u64, u32, u16, u8);

macro_rules! impl_uniform_signed {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_uniform_signed!(i64, i32, i16, i8, isize);

impl UniformRange for f64 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        let u: f64 = Standard::sample(rng);
        range.start + u * (range.end - range.start)
    }
}

impl UniformRange for f32 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        let u: f32 = Standard::sample(rng);
        range.start + u * (range.end - range.start)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for `rand`'s StdRng).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let x: f64 = a.gen();
            let y: f64 = b.gen();
            assert_eq!(x, y);
            assert!((0.0..1.0).contains(&x));
            let r = a.gen_range(3usize..10);
            b.gen_range(3usize..10);
            assert!((3..10).contains(&r));
        }
    }
}
