//! Element-wise non-linearities: ReLU (CIFAR net) and Tanh (NLC net).
//!
//! Both layers keep their backward caches in persistent per-layer buffers
//! (`clear` + refill each step) rather than fresh allocations, so the
//! steady-state hot path does not touch the allocator.

use sasgd_tensor::{parallel, Tensor};

use crate::layer::{Ctx, Layer};

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
    mask_valid: bool,
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn forward(&mut self, mut input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        let n = input.numel();
        // Outside training nobody reads a mask: the lock-step walk below
        // then hands every band of activations an empty mask band.
        let mask: &mut [bool] = if ctx.training {
            self.mask.resize(n, false);
            self.mask_valid = true;
            &mut self.mask
        } else {
            &mut []
        };
        // Element-wise, so any band of activations is independent.
        let band = parallel::block_len(n, n);
        let xs = input.as_mut_slice();
        parallel::for_each_zip_chunks_mut(xs, band, mask, band, n, |_, xs, mask| {
            for (m, &x) in mask.iter_mut().zip(&*xs) {
                *m = x > 0.0;
            }
            // A select, not a conditional store: baseline x86-64 has no
            // masked store, so `if *x < 0.0 { *x = 0.0 }` is one
            // data-dependent branch per activation, and this is a compare
            // and a mask.
            for x in xs {
                *x = if *x < 0.0 { 0.0 } else { *x };
            }
        });
        input
    }

    fn backward(&mut self, mut grad_out: Tensor, _: &[f32], _: &mut [f32], _: &mut Ctx) -> Tensor {
        assert!(self.mask_valid, "backward without forward");
        assert_eq!(grad_out.numel(), self.mask.len(), "gradient/mask length");
        self.mask_valid = false;
        let n = grad_out.numel();
        let band = parallel::block_len(n, n);
        let mask = &self.mask;
        parallel::for_each_chunk_mut(grad_out.as_mut_slice(), band, n, |j, gs| {
            for (g, &m) in gs.iter_mut().zip(&mask[j * band..]) {
                *g = if m { *g } else { 0.0 };
            }
        });
        grad_out
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        in_dims.iter().product::<usize>() as u64
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    cached_out: Vec<f32>,
    cache_valid: bool,
}

impl Tanh {
    /// New Tanh.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn forward(&mut self, mut input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        input.as_mut_slice().iter_mut().for_each(|x| *x = x.tanh());
        if ctx.training {
            self.cached_out.clear();
            self.cached_out.extend_from_slice(input.as_slice());
            self.cache_valid = true;
        }
        input
    }

    fn backward(&mut self, mut grad_out: Tensor, _: &[f32], _: &mut [f32], _: &mut Ctx) -> Tensor {
        assert!(self.cache_valid, "backward without forward");
        assert_eq!(
            grad_out.numel(),
            self.cached_out.len(),
            "gradient/cache length"
        );
        self.cache_valid = false;
        for (g, &yv) in grad_out.as_mut_slice().iter_mut().zip(&self.cached_out) {
            *g *= 1.0 - yv * yv;
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
    fn relu_clamps_and_gates() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut r = Relu::new();
        // -0.0 is not `< 0.0` and NaN compares false: both pass through the
        // clamp unchanged, and neither is `> 0.0`, so both gate the gradient.
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.0, f32::NAN, f32::INFINITY], &[6]);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = r.forward(x, &[], &mut ctx);
        let want = Tensor::from_vec(vec![0.0, 0.0, 2.0, -0.0, f32::NAN, f32::INFINITY], &[6]);
        assert_eq!(bits(&y), bits(&want));
        let dx = r.backward(Tensor::full(&[6], 5.0), &[], &mut [], &mut ctx);
        let want = Tensor::from_vec(vec![0.0, 0.0, 5.0, 0.0, 0.0, 5.0], &[6]);
        assert_eq!(bits(&dx), bits(&want));
    }

    #[test]
    #[should_panic(expected = "gradient/mask length")]
    fn relu_backward_rejects_a_gradient_of_another_length() {
        let mut r = Relu::new();
        let mut ctx = Ctx::train(SeedRng::new(0));
        r.forward(Tensor::full(&[3], 1.0), &[], &mut ctx);
        r.backward(Tensor::full(&[4], 1.0), &[], &mut [], &mut ctx);
    }

    #[test]
    #[should_panic(expected = "gradient/cache length")]
    fn tanh_backward_rejects_a_gradient_of_another_length() {
        let mut t = Tanh::new();
        let mut ctx = Ctx::train(SeedRng::new(0));
        t.forward(Tensor::full(&[4], 1.0), &[], &mut ctx);
        t.backward(Tensor::full(&[3], 1.0), &[], &mut [], &mut ctx);
    }

    #[test]
    fn tanh_matches_derivative() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![0.3, -0.7], &[2]);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = t.forward(x.clone(), &[], &mut ctx);
        assert!((y.as_slice()[0] - 0.3f32.tanh()).abs() < 1e-6);
        let dx = t.backward(Tensor::full(&[2], 1.0), &[], &mut [], &mut ctx);
        for (i, &xv) in x.as_slice().iter().enumerate() {
            let expect = 1.0 - xv.tanh().powi(2);
            assert!((dx.as_slice()[i] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn activations_preserve_shape_and_have_no_params() {
        let r = Relu::new();
        assert_eq!(r.out_shape(&[64, 16, 16]), vec![64, 16, 16]);
        assert_eq!(r.param_len(), 0);
        let t = Tanh::new();
        assert_eq!(t.out_shape(&[10]), vec![10]);
        assert_eq!(t.param_len(), 0);
    }
}
