//! Inverted dropout, matching Torch's `nn.Dropout` (the paper's stack).

use sasgd_tensor::Tensor;

use crate::layer::{Ctx, Layer};

/// Randomly zero activations with probability `p` during training, scaling
/// survivors by `1/(1-p)` so evaluation needs no correction.
pub struct Dropout {
    p: f32,
    /// Persistent mask buffer, refilled each stochastic forward.
    mask: Vec<f32>,
    mask_valid: bool,
}

impl Dropout {
    /// New dropout with drop probability `p` (the paper uses 0.5).
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Dropout {
            p,
            mask: Vec::new(),
            mask_valid: false,
        }
    }

    /// The drop probability.
    pub fn prob(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn forward(&mut self, mut input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        if !ctx.stochastic || self.p == 0.0 {
            self.mask_valid = false; // identity pass: backward must not reuse a stale mask
            return input;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        // One Bernoulli draw per element, in element order — the exact RNG
        // consumption the reproduction's seeds depend on.
        self.mask.resize(input.numel(), 0.0);
        ctx.rng.fill_keep_mask(keep, scale, &mut self.mask);
        for (x, &m) in input.as_mut_slice().iter_mut().zip(&self.mask) {
            *x *= m;
        }
        self.mask_valid = true;
        input
    }

    fn backward(&mut self, mut grad_out: Tensor, _: &[f32], _: &mut [f32], _: &mut Ctx) -> Tensor {
        // An invalid mask means the forward pass was an identity
        // (deterministic mode or p = 0): gradients pass through unchanged.
        if self.mask_valid {
            assert_eq!(grad_out.numel(), self.mask.len(), "gradient/mask length");
            self.mask_valid = false;
            for (g, &m) in grad_out.as_mut_slice().iter_mut().zip(&self.mask) {
                *g *= m;
            }
        }
        grad_out
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        in_dims.iter().product::<usize>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_tensor::SeedRng;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let y = d.forward(x.clone(), &[], &mut Ctx::eval());
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn train_mode_zeroes_and_scales() {
        let mut d = Dropout::new(0.5);
        let n = 10_000;
        let x = Tensor::full(&[n], 1.0);
        let mut ctx = Ctx::train(SeedRng::new(42));
        let y = d.forward(x, &[], &mut ctx);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let kept = y
            .as_slice()
            .iter()
            .filter(|&&v| (v - 2.0).abs() < 1e-6)
            .count();
        assert_eq!(zeros + kept, n, "values are either 0 or 1/keep");
        assert!((zeros as f32 / n as f32 - 0.5).abs() < 0.03);
        // Expectation preserved: mean stays near 1.
        assert!((y.sum() / n as f32 - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5);
        let x = Tensor::full(&[100], 1.0);
        let mut ctx = Ctx::train(SeedRng::new(7));
        let y = d.forward(x, &[], &mut ctx);
        let dx = d.backward(Tensor::full(&[100], 1.0), &[], &mut [], &mut ctx);
        for (yv, dv) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(yv, dv, "gradient gate must equal the forward mask");
        }
    }

    #[test]
    #[should_panic(expected = "gradient/mask length")]
    fn backward_rejects_a_gradient_of_another_length() {
        let mut d = Dropout::new(0.5);
        let mut ctx = Ctx::train(SeedRng::new(7));
        d.forward(Tensor::full(&[3], 1.0), &[], &mut ctx);
        d.backward(Tensor::full(&[5], 1.0), &[], &mut [], &mut ctx);
    }

    #[test]
    fn p_zero_is_identity_even_training() {
        let mut d = Dropout::new(0.0);
        let x = Tensor::from_vec(vec![4.0, 5.0], &[2]);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = d.forward(x.clone(), &[], &mut ctx);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn p_one_rejected() {
        Dropout::new(1.0);
    }

    #[test]
    fn measure_mode_is_identity_with_passthrough_grads() {
        let mut d = Dropout::new(0.5);
        // A training forward first, so a stale mask exists to be cleared.
        let _ = d.forward(
            Tensor::full(&[2], 1.0),
            &[],
            &mut Ctx::train(SeedRng::new(1)),
        );
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let mut mctx = Ctx::measure();
        let y = d.forward(x.clone(), &[], &mut mctx);
        assert_eq!(y.as_slice(), x.as_slice(), "measure forward is identity");
        let dx = d.backward(Tensor::full(&[2], 3.0), &[], &mut [], &mut mctx);
        assert_eq!(dx.as_slice(), &[3.0, 3.0], "gradients pass through");
    }
}
