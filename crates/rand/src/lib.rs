//! Vendored stand-in for the parts of the `rand` crate this workspace
//! uses, so builds never reach for a registry. The container this repo
//! grows in has no network access, which left the seed tree unbuildable;
//! every consumer only needs a deterministic, seedable PRNG with
//! `gen`/`gen_range`, so that is exactly what is provided.
//!
//! `StdRng` here is xoshiro256++ seeded via SplitMix64. It is **not**
//! the upstream ChaCha12 generator, so absolute random streams differ
//! from genuine `rand 0.8`; everything in this workspace only relies on
//! determinism for a fixed seed, which holds.
//!
//! There is no entropy-seeded constructor (`thread_rng`, `random`,
//! `from_entropy`, `OsRng`), and that absence is the workspace's ban on
//! ambient randomness: whoever adds one adds its path to the root
//! `clippy.toml` `disallowed-methods` in the same change.

/// Low-level source of randomness (subset of `rand_core::RngCore`).
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Seeding constructors (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from 32 bytes of seed material.
    fn from_seed(seed: [u8; 32]) -> Self;

    /// Creates a generator from a `u64` seed (the only constructor the
    /// workspace uses).
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = SplitMix64(state);
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(8) {
            chunk.copy_from_slice(&sm.next().to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

/// Values samplable uniformly over their whole domain (`rng.gen()`).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}
impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Standard for f64 {
    /// Uniform in [0, 1) with 53 bits of precision (matches upstream).
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Integer types usable as `gen_range` bounds.
pub trait SampleUniform: Copy + PartialOrd {
    /// Maps the value onto the u128 number line (two's complement shift
    /// for signed types, so ordering is preserved).
    fn to_u128(self) -> u128;
    /// Inverse of [`SampleUniform::to_u128`].
    fn from_u128(v: u128) -> Self;
}

macro_rules! impl_sample_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u128(self) -> u128 { self as u128 }
            #[allow(clippy::cast_possible_truncation)]
            fn from_u128(v: u128) -> Self { v as $t }
        }
    )*};
}
impl_sample_uniform_unsigned!(u8, u16, u32, u64, usize, u128);

macro_rules! impl_sample_uniform_signed {
    ($($t:ty : $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u128(self) -> u128 { (self as $u ^ (1 << (<$u>::BITS - 1))) as u128 }
            #[allow(clippy::cast_possible_truncation)]
            fn from_u128(v: u128) -> Self { ((v as $u) ^ (1 << (<$u>::BITS - 1))) as $t }
        }
    )*};
}
impl_sample_uniform_signed!(i8: u8, i16: u16, i32: u32, i64: u64, isize: usize);

/// Ranges acceptable to `gen_range` (subset of `rand::distributions::
/// uniform::SampleRange`).
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, width: u128) -> u128 {
    debug_assert!(width > 0);
    // Multiply-shift would bias high for tiny widths of u128; a simple
    // modulo is fine here — the bias is ~width/2^128 and nothing in the
    // workspace is statistically sensitive at that scale.
    let raw = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
    raw % width
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start.to_u128(), self.end.to_u128());
        assert!(lo < hi, "cannot sample empty range");
        T::from_u128(lo + uniform_below(rng, hi - lo))
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start().to_u128(), self.end().to_u128());
        assert!(lo <= hi, "cannot sample empty range");
        let width = hi - lo;
        if width == u128::MAX {
            return T::from_u128(u128::sample(rng));
        }
        T::from_u128(lo + uniform_below(rng, width + 1))
    }
}

/// High-level sampling methods (subset of `rand::Rng`), blanket-implemented
/// for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample over the whole domain of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample from a (half-open or inclusive) range.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli sample with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic seedable PRNG: xoshiro256++ (Blackman/Vigna).
    /// Fast, passes BigCrush, and — the property everything here rests
    /// on — produces an identical stream for an identical seed.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = (self.s[0].wrapping_add(self.s[3]))
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

    impl SeedableRng for StdRng {
        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state would be a fixed point; nudge it.
            if s == [0; 4] {
                s = [0x9e37_79b9_7f4a_7c15, 1, 2, 3];
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(7);
        let mut acc = 0.0;
        for _ in 0..10_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
            acc += v;
        }
        let mean = acc / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let u = r.gen_range(0usize..3);
            assert!(u < 3);
        }
        // Full-width inclusive range must not overflow.
        let _ = r.gen_range(0u128..=u128::MAX);
        let _ = r.gen_range(1u128..=u128::MAX);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
