//! Minimal re-implementation of the `rand` API surface used by this
//! workspace: a deterministic, seedable generator behind the familiar
//! `StdRng` / `SeedableRng` / `RngExt` names.
//!
//! The build environment has no access to crates.io (see shims/README.md).
//! The core generator is xoshiro256++ seeded via splitmix64 — high quality
//! for simulation / workload-generation purposes and fully deterministic
//! per seed, which is all the callers need. It is NOT cryptographically
//! secure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Construction of generators from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be produced uniformly at random by [`RngExt::random`].
pub trait Random {
    /// Draw one value from `rng`.
    fn random(rng: &mut rngs::StdRng) -> Self;
}

impl Random for u64 {
    fn random(rng: &mut rngs::StdRng) -> Self {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random(rng: &mut rngs::StdRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for f64 {
    fn random(rng: &mut rngs::StdRng) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for bool {
    fn random(rng: &mut rngs::StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types usable as [`RngExt::random_range`] bounds.
pub trait RangeSample: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`; callers guarantee `lo < hi`.
    fn sample(rng: &mut rngs::StdRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn sample(rng: &mut rngs::StdRng, lo: Self, hi: Self) -> Self {
                let span = (hi as u128) - (lo as u128);
                // Multiply-shift bounded sampling (Lemire); the tiny modulo
                // bias of a 64-bit draw over simulation-sized spans is
                // irrelevant here.
                let draw = (rng.next_u64() as u128) % span;
                lo + draw as $t
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize, i32, i64, isize);

/// Convenience methods on generators, mirroring the `rand` 0.9 `Rng` surface
/// this workspace uses.
pub trait RngExt {
    /// Draw one uniformly random value of type `T`.
    fn random<T: Random>(&mut self) -> T;

    /// Draw uniformly from a half-open range `lo..hi` (`lo < hi` required).
    fn random_range<T: RangeSample>(&mut self, range: std::ops::Range<T>) -> T;

    /// Fill `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]);
}

impl RngExt for rngs::StdRng {
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    fn random_range<T: RangeSample>(&mut self, range: std::ops::Range<T>) -> T {
        assert!(!range.is_empty(), "random_range called with empty range");
        T::sample(self, range.start, range.end)
    }

    fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Concrete generator implementations, mirroring `rand::rngs`.
pub mod rngs {
    use super::SeedableRng;

    /// Deterministic xoshiro256++ generator standing in for `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// Advance the generator and return the next 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the 64-bit seed into four state words with splitmix64,
            // as the xoshiro authors recommend.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn random_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn random_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v: usize = rng.random_range(0..10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn fill_covers_partial_words() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
