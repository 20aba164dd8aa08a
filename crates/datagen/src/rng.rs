//! Deterministic pseudo-random number generation.
//!
//! The paper's portability/scalability requirements demand a generator that
//! is *deterministic and platform independent*: "All random functions …
//! base on a fixed seed. This makes data generation deterministic, i.e. the
//! parameter setting uniquely identifies the outcome" (Section IV). We
//! therefore ship our own small PRNG instead of depending on an external
//! crate whose stream might change across versions: SplitMix64 for
//! state initialization and a `xoshiro256**`-style core for the stream.
//! Output is bit-identical on every platform and Rust version.

/// SplitMix64 — the standard 64-bit mixing generator. Tiny state, solid
/// output, fully deterministic from the seed. It expands the user seed
/// into the xoshiro state below, and the workload model samples template
/// mixes and arrival gaps from it (re-exported as
/// `sp2b_core::workload::SplitMix64`): same seed ⇒ same stream, so a
/// run can be replayed exactly.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Deterministic PRNG: `xoshiro256**` seeded via [`SplitMix64`].
///
/// Not cryptographically secure (neither was the paper's generator); chosen
/// for speed, quality and a trivially portable implementation.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The fixed default seed used by the benchmark (generation is
    /// reproducible by default, as the paper requires).
    pub const DEFAULT_SEED: u64 = 0x5_B2BE_4C11;

    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: std::array::from_fn(|_| sm.next_u64()),
        }
    }

    /// Next raw 64-bit value (`xoshiro256**` scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift bounded sampling (Lemire); bias is < 2^-64 per
        // draw, far below anything the distributions can observe.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal variate (Box–Muller; fully deterministic).
    pub fn gaussian(&mut self) -> f64 {
        // Draw u in (0,1] to avoid ln(0).
        let mut u = self.f64();
        if u <= f64::MIN_POSITIVE {
            u = f64::MIN_POSITIVE;
        }
        let v = self.f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn gaussian_with(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.gaussian()
    }

    /// Picks a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle (deterministic given the stream position).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Weighted index sampling over non-negative weights summing to > 0.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0, "weights must have positive mass");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

impl Default for Rng {
    fn default() -> Self {
        Rng::new(Self::DEFAULT_SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "The parameter setting uniquely identifies the outcome" (Section
    /// IV): the streams every seeded document, template mix and arrival
    /// schedule derive from are pinned bit for bit.
    #[test]
    fn streams_match_their_golden_values() {
        let first3 = |seed| {
            let mut sm = SplitMix64::new(seed);
            [sm.next_u64(), sm.next_u64(), sm.next_u64()]
        };
        assert_eq!(
            first3(0),
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
        assert_eq!(
            first3(42),
            [
                0xBDD7_3226_2FEB_6E95,
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52
            ]
        );
        assert_eq!(SplitMix64::new(42).next_f64(), 0.7415648787718233);
        let mut rng = Rng::new(Rng::DEFAULT_SEED);
        assert_eq!(
            [rng.next_u64(), rng.next_u64(), rng.next_u64()],
            [
                0xC1F4_1F35_DFCD_7803,
                0xABED_2A05_B1C2_71B7,
                0x9F31_1F94_7330_3DE4
            ]
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(7);
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = Rng::new(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            match r.range_inclusive(0, 3) {
                0 => seen_lo = true,
                3 => seen_hi = true,
                _ => {}
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut r = Rng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut r = Rng::new(5);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn uniformity_rough_chi_square() {
        let mut r = Rng::new(1234);
        let mut buckets = [0u32; 16];
        for _ in 0..160_000 {
            buckets[r.below(16) as usize] += 1;
        }
        for b in buckets {
            // Expected 10_000 per bucket; allow 5% slack.
            assert!((9_500..10_500).contains(&b), "bucket {b}");
        }
    }
}
