//! Drop-in replacement for the subset of `rand` 0.8 the workspace uses.
//!
//! The generator is xoshiro256\*\* seeded through SplitMix64 — a
//! well-studied, fast, 256-bit-state PRNG. It is **not** the same stream
//! as `rand::rngs::StdRng` (ChaCha12), but the API surface is identical
//! for every call site in this repository: `seed_from_u64`, `gen`,
//! `gen_range`, `gen_bool`, `fill`, `sample`, `shuffle`, `choose`.
//!
//! Everything here is deterministic: a given seed produces the same
//! stream on every platform, build and run.

use std::ops::{Range, RangeInclusive};

/// One round of SplitMix64; advances `state` and returns the next output.
///
/// Used for seeding (a single `u64` seed is expanded into 256 bits of
/// state) and for domain separation in [`crate::domain_rng`].
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source of random `u64`s — the object-safe core trait (mirrors
/// `rand::RngCore`).
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Construction from a `u64` seed (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds the generator from a single `u64` seed, expanded through
    /// SplitMix64.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A distribution that can produce values of `T` (mirrors
/// `rand::distributions::Distribution`).
pub trait Distribution<T> {
    /// Samples one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

impl<T, D: Distribution<T>> Distribution<T> for &D {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        (**self).sample(rng)
    }
}

/// The "natural" distribution of a type: uniform over `[0, 1)` for
/// floats, uniform over the full domain for integers and `bool`
/// (mirrors `rand::distributions::Standard`).
pub struct Standard;

macro_rules! standard_int {
    ($($t:ty),+) => {$(
        impl Distribution<$t> for Standard {
            fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Distribution<bool> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Distribution<f64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 high bits → uniform in [0, 1) on the dyadic grid.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types with a uniform sampler over a `lo..hi` / `lo..=hi` range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`
    /// (`inclusive = true`).
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = (hi as i128 - lo as i128 + if inclusive { 1 } else { 0 }) as u128;
                debug_assert!(span > 0);
                // Lemire-style widening multiply: maps a uniform u64 onto
                // [0, span) with negligible bias for the spans used here.
                let offset = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + offset) as $t
            }
        }
    )+};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty => $unit:ident),+) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let unit: $t = Standard.$unit(rng);
                let v = lo + (hi - lo) * unit;
                if !inclusive && v >= hi {
                    // Rounding can land exactly on `hi`; step back inside.
                    <$t>::max(lo, hi.next_down())
                } else {
                    v.clamp(lo, hi)
                }
            }
        }
    )+};
}

impl Standard {
    fn sample_f64<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        Distribution::<f64>::sample(self, rng)
    }

    fn sample_f32<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
        Distribution::<f32>::sample(self, rng)
    }
}
uniform_float!(f64 => sample_f64, f32 => sample_f32);

/// Range argument to [`Rng::gen_range`] (mirrors
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_between(rng, lo, hi, true)
    }
}

/// A uniform distribution over a range, usable with [`Rng::sample`]
/// (mirrors `rand::distributions::Uniform`).
pub struct Uniform<T> {
    lo: T,
    hi: T,
}

impl<T: SampleUniform> Uniform<T> {
    /// Uniform over `[lo, hi)`.
    pub fn new(lo: T, hi: T) -> Self {
        assert!(lo < hi, "cannot sample empty range");
        Self { lo, hi }
    }
}

impl<T: SampleUniform> Distribution<T> for Uniform<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        T::sample_between(rng, self.lo, self.hi, false)
    }
}

/// Slice types fillable by [`Rng::fill`] (mirrors `rand::Fill`).
pub trait Fill {
    /// Overwrites `self` with random data.
    fn fill_with<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_with<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

macro_rules! fill_via_standard {
    ($($t:ty),+) => {$(
        impl Fill for [$t] {
            fn fill_with<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
                for v in self.iter_mut() {
                    *v = Standard.sample(rng);
                }
            }
        }
    )+};
}
fill_via_standard!(u32, u64, usize, f32, f64);

/// Convenience methods layered over [`RngCore`] (mirrors `rand::Rng`).
///
/// Blanket-implemented for every `RngCore`, including `&mut dyn RngCore`.
pub trait Rng: RngCore {
    /// Samples from the [`Standard`] distribution of `T`.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
        Self: Sized,
    {
        Standard.sample(self)
    }

    /// Uniform draw from `range` (`lo..hi` or `lo..=hi`).
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Rg: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.gen::<f64>() < p
    }

    /// Fills `dest` (a primitive slice) with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T)
    where
        Self: Sized,
    {
        dest.fill_with(self)
    }

    /// Samples from an explicit distribution.
    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T
    where
        Self: Sized,
    {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The named generators (mirrors `rand::rngs`).
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator:
    /// xoshiro256\*\* (Blackman & Vigna), seeded through SplitMix64.
    ///
    /// Same name as `rand::rngs::StdRng` so call sites migrate with an
    /// import swap; the stream itself differs from upstream `StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
}

/// Slice helpers (mirrors `rand::seq`).
pub mod seq {
    use super::{RngCore, SampleUniform};

    /// Random slice operations (mirrors `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::sample_between(rng, 0, i, true);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[usize::sample_between(rng, 0, self.len(), false)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for state seeded by splitmix64 from 0 must be
        // stable forever: determinism is the whole point of this crate.
        let mut rng = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let mut rng2 = StdRng::seed_from_u64(0);
        let again: Vec<u64> = (0..3).map(|_| rng2.next_u64()).collect();
        assert_eq!(first, again);
        assert_ne!(first[0], first[1]);
    }

    #[test]
    fn gen_range_int_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3..7);
            assert!((3..7).contains(&v));
            let w = rng.gen_range(0..=5);
            assert!((0..=5).contains(&w));
            let s: i16 = rng.gen_range(-100i16..=100);
            assert!((-100..=100).contains(&s));
        }
    }

    #[test]
    fn gen_range_float_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v: f64 = rng.gen_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&v));
            let w: f32 = rng.gen_range(0.5f32..=1.5);
            assert!((0.5..=1.5).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_span() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        let mean: f64 = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "{mean}");
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b: Vec<usize> = (0..50).collect();
        a.shuffle(&mut StdRng::seed_from_u64(9));
        b.shuffle(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = StdRng::seed_from_u64(10);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let one = [42u8];
        assert_eq!(one.choose(&mut rng), Some(&42));
    }

    #[test]
    fn dyn_rng_core_usable_via_rng_trait() {
        // Mirrors the `&mut dyn RngCore` trait-object pattern in
        // fare-gnn's model builder.
        let mut rng = StdRng::seed_from_u64(11);
        let dynr: &mut dyn RngCore = &mut rng;
        let mut dynr = dynr;
        let v: f64 = (&mut dynr).gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn fill_fills_bytes_and_floats() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut bytes = [0u8; 13];
        rng.fill(&mut bytes[..]);
        assert!(bytes.iter().any(|&b| b != 0));
        let mut floats = [0.0f32; 5];
        rng.fill(&mut floats[..]);
        assert!(floats.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn sample_uniform_distribution() {
        let mut rng = StdRng::seed_from_u64(13);
        let d = Uniform::new(10usize, 20);
        for _ in 0..100 {
            let v = rng.sample(&d);
            assert!((10..20).contains(&v));
        }
    }
}
