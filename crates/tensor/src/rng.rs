//! Seeded random-number utilities.
//!
//! Every stochastic choice in the reproduction — parameter initialization,
//! minibatch sampling, dropout masks, simulated learner jitter — flows
//! through a [`SeedRng`] so that experiments are bit-reproducible and the
//! "SASGD with T=1 equals synchronous SGD" integration tests can compare
//! trajectories exactly.

use rand::distributions::Distribution;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::parallel;
use crate::tensor::Tensor;

/// The `[0, 1)` float [`SeedRng::uniform`] makes of one stream word (the
/// 24 high bits, as `rand`'s `Standard` does).
#[inline]
fn unit_f32(word: u32) -> f32 {
    (word >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// `mband[i] = if next draw < keep { on } else { 0.0 }`, the draws taken
/// from `rng` a few blocks at a time.
fn fill_band(rng: &mut ChaCha8Rng, keep: f32, on: f32, mband: &mut [f32]) {
    let mut words = [0u32; 256];
    for part in mband.chunks_mut(words.len()) {
        let words = &mut words[..part.len()];
        rng.fill_u32(words);
        for (m, &w) in part.iter_mut().zip(&*words) {
            *m = if unit_f32(w) < keep { on } else { 0.0 };
        }
    }
}

/// A deterministic, splittable RNG (ChaCha8).
///
/// ChaCha8 is chosen over the default thread RNG because it is seedable,
/// portable across platforms and seekable: word `i` of the stream depends
/// only on the seed and `i`, which is what lets [`SeedRng::fill_keep_mask`]
/// write a dropout mask from whole blocks, on several workers, and still
/// consume exactly the draws the element-at-a-time loop did.
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
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        unit_f32(self.inner.next_u32())
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
    #[inline]
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// `mask[i] = if self.bernoulli(keep) { on } else { 0.0 }` for every
    /// `i` in order — the same draws, the same mask and the same stream
    /// position afterwards — generated a block of the key stream at a time
    /// rather than a call per element, and (word `i` being a function of
    /// the seed and `i` alone) in one band per worker when the mask is
    /// large enough for this thread's width.
    // hot-path: dropout mask, one draw per activation — no allocation allowed
    pub fn fill_keep_mask(&mut self, keep: f32, on: f32, mask: &mut [f32]) {
        // A draw is a few dozen integer operations, not one.
        const WORK_PER_DRAW: usize = 8;
        let start = self.inner.get_word_pos();
        let inner = &self.inner;
        let n = mask.len();
        let band = parallel::block_len(n, n * WORK_PER_DRAW);
        parallel::for_each_chunk_mut(mask, band, n * WORK_PER_DRAW, |j, mband| {
            // lint:allow(hot-alloc): the generator is plain data; this copies ~140 bytes on the stack
            let mut rng = inner.clone();
            rng.set_word_pos(start + (j * band) as u128);
            fill_band(&mut rng, keep, on, mband);
        });
        self.inner.set_word_pos(start + n as u128);
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

    #[test]
    fn uniform_is_the_standard_distribution_of_the_word_stream() {
        let (mut a, mut b) = (SeedRng::new(21), SeedRng::new(21));
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.inner.gen::<f32>().to_bits());
        }
    }

    #[test]
    fn keep_mask_fill_equals_single_draws() {
        // Empty, sub-block, block-straddling and banded lengths from
        // aligned and mid-block starts, at widths 1 and 3 (uneven bands).
        for pre in [0usize, 1, 7, 16, 29] {
            for n in [0usize, 1, 15, 16, 17, 100, 1000, 100_001] {
                let mut single = SeedRng::new(5);
                let mut bulk = SeedRng::new(5);
                for _ in 0..pre {
                    single.uniform();
                    bulk.uniform();
                }
                let want: Vec<f32> = (0..n)
                    .map(|_| if single.bernoulli(0.5) { 2.0 } else { 0.0 })
                    .collect();
                let after = single.uniform();
                for width in [1, 3] {
                    let mut bulk = bulk.clone();
                    let mut got = vec![f32::NAN; n];
                    parallel::with_width(width, || bulk.fill_keep_mask(0.5, 2.0, &mut got));
                    assert_eq!(got, want, "pre {pre}, n {n}, width {width}");
                    assert_eq!(
                        bulk.uniform().to_bits(),
                        after.to_bits(),
                        "stream position, pre {pre}, n {n}, width {width}"
                    );
                }
            }
        }
    }
}
