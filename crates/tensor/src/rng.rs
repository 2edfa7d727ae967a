//! Seeded random-number utilities.
//!
//! Every stochastic choice in the reproduction — parameter initialization,
//! minibatch sampling, dropout masks, simulated learner jitter — flows
//! through a [`SeedRng`] so that experiments are bit-reproducible and the
//! "SASGD with T=1 equals synchronous SGD" integration tests can compare
//! trajectories exactly.

use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::tensor::Tensor;

/// A deterministic, splittable RNG (ChaCha8).
///
/// ChaCha8 is chosen over the default thread RNG because it is seedable
/// and portable across platforms. It is not free: the vendored generator
/// refills one 64-byte block at a time in scalar code, and the one draw per
/// activation behind `Dropout::forward` — 460 800 of them in a batch-32
/// step of the benchmark CNN — costs 4.8 ms of a 55 ms step, about 10.5 ns
/// a draw (EXPERIMENTS.md, *PR 19*). A four-block refill the compiler can
/// vectorise, emitting the identical word stream, is ROADMAP's next item
/// on that step.
#[derive(Clone, Debug)]
pub struct SeedRng {
    inner: ChaCha8Rng,
}

impl SeedRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeedRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream; `tag` distinguishes siblings.
    ///
    /// Used to give each simulated learner its own stream from one
    /// experiment seed without the streams being correlated.
    pub fn split(&self, tag: u64) -> Self {
        // Mix the tag through SplitMix64 so adjacent tags land far apart.
        let mut z = self
            .base_seed()
            .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SeedRng::new(z ^ (z >> 31))
    }

    fn base_seed(&self) -> u64 {
        // The ChaCha seed is 32 bytes; fold the first 8 back to u64.
        let seed = self.inner.get_seed();
        u64::from_le_bytes(seed[..8].try_into().expect("seed has >= 8 bytes"))
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal via Box–Muller (no extra dependency).
    pub fn normal(&mut self) -> f32 {
        loop {
            let u1 = self.uniform();
            if u1 > f32::EPSILON {
                let u2 = self.uniform();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            }
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is empty");
        self.inner.gen_range(0..n)
    }

    /// `true` with probability `p`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample from any `rand` distribution.
    pub fn sample<T, D: Distribution<T>>(&mut self, d: &D) -> T {
        d.sample(&mut self.inner)
    }

    /// Tensor with i.i.d. `N(0, std^2)` entries.
    pub fn normal_tensor(&mut self, dims: &[usize], std: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| self.normal() * std).collect();
        Tensor::from_vec(data, dims)
    }

    /// Tensor with i.i.d. uniform entries in `[-bound, bound]`.
    pub fn uniform_tensor(&mut self, dims: &[usize], bound: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| self.uniform_range(-bound, bound)).collect();
        Tensor::from_vec(data, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SeedRng::new(42);
        let mut b = SeedRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeedRng::new(1);
        let mut b = SeedRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_streams_are_deterministic_and_distinct() {
        let root = SeedRng::new(7);
        let mut c0 = root.split(0);
        let mut c0b = root.split(0);
        let mut c1 = root.split(1);
        assert_eq!(c0.uniform().to_bits(), c0b.uniform().to_bits());
        let overlap = (0..64).filter(|_| c0.uniform() == c1.uniform()).count();
        assert!(overlap < 4, "sibling streams look correlated");
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut r = SeedRng::new(3);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut r = SeedRng::new(9);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let k = r.below(5);
            assert!(k < 5);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SeedRng::new(11);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn tensor_inits_have_right_shape_and_spread() {
        let mut r = SeedRng::new(5);
        let t = r.normal_tensor(&[10, 10], 0.5);
        assert_eq!(t.numel(), 100);
        let u = r.uniform_tensor(&[100], 0.2);
        assert!(u.as_slice().iter().all(|&x| (-0.2..=0.2).contains(&x)));
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = SeedRng::new(13);
        let hits = (0..10_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((hits as f32 / 10_000.0 - 0.3).abs() < 0.02);
    }
}
