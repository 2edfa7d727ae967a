//! Fully connected layer, applied over the last input dimension.

use sasgd_tensor::{linalg, SeedRng, Tensor};

use crate::init;
use crate::layer::{add_grads, Ctx, Layer};

/// `y = x · W + b` with `W: [in, out]`, applied to any input whose last
/// dimension is `in` (leading dimensions are folded into rows). This lets
/// the same layer serve both the classifier heads (`[n, in]`) and the
/// per-timestep projection of the NLC network (`[n, len, in]`). Parameter
/// block: `W` row-major, then `b`.
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    cached_input: Option<Tensor>,
    cached_lead: Vec<usize>,
}

impl Linear {
    /// New `in_dim → out_dim` layer.
    pub fn new(in_dim: usize, out_dim: usize) -> Self {
        Linear {
            in_dim,
            out_dim,
            cached_input: None,
            cached_lead: Vec::new(),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The parameter half of the backward pass: `dW += Xᵀ G`,
    /// `db += colsum(G)`. Returns the cached input `X` and `G` (`grad_out`
    /// as `[rows, out]`) for the input half, or the workspace.
    // hot-path: per-step gradient GEMM; O(m) scratch must come from ctx.ws
    fn accumulate_grads(
        &mut self,
        grad_out: Tensor,
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) -> (Tensor, Tensor) {
        let x = self
            .cached_input
            .take()
            .expect("backward without forward (or eval-mode forward)");
        let rows = x.dims()[0];
        let g = grad_out.reshape(&[rows, self.out_dim]);
        let (din, dout) = (self.in_dim, self.out_dim);
        add_grads(grads, rows, ctx, |grads, ctx| {
            let (dweight, dbias) = grads.split_at_mut(din * dout);
            let (xs, gs) = (x.as_slice(), g.as_slice());
            linalg::gemm_tn_acc_ws(dweight, xs, gs, rows, din, dout, &mut ctx.ws);
            linalg::col_sums_into(&g, dbias);
        });
        (x, g)
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "Linear"
    }

    // hot-path: per-step matmul; O(m) scratch must come from ctx.ws
    fn forward(&mut self, input: Tensor, params: &[f32], ctx: &mut Ctx) -> Tensor {
        let dims = input.dims().to_vec(); // lint:allow(hot-alloc): O(ndims) shape metadata, not O(m)
        assert_eq!(
            *dims.last().expect("linear input needs >= 1 dim"),
            self.in_dim,
            "Linear expected last dim {}, got {:?}",
            self.in_dim,
            dims
        );
        let (weight, bias) = params.split_at(self.in_dim * self.out_dim);
        let rows: usize = dims[..dims.len() - 1].iter().product();
        let flat = input.reshape(&[rows, self.in_dim]);
        let mut out = Tensor::zeros_in(&[rows, self.out_dim], &mut ctx.ws);
        linalg::gemm_nn_ws(
            out.as_mut_slice(),
            flat.as_slice(),
            weight,
            rows,
            self.in_dim,
            self.out_dim,
            &mut ctx.ws,
        );
        linalg::add_bias_rows(&mut out, bias);
        if ctx.training {
            self.cached_input = Some(flat);
            // lint:allow(hot-alloc): O(ndims) shape metadata, not O(m)
            self.cached_lead = dims[..dims.len() - 1].to_vec();
        } else {
            ctx.ws.recycle(flat);
        }
        let mut out_dims = dims[..dims.len() - 1].to_vec(); // lint:allow(hot-alloc): O(ndims) shape metadata
        out_dims.push(self.out_dim);
        out.reshape(&out_dims)
    }

    // hot-path: per-step gradient GEMMs; O(m) scratch must come from ctx.ws
    fn backward(
        &mut self,
        grad_out: Tensor,
        params: &[f32],
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) -> Tensor {
        let (x, g) = self.accumulate_grads(grad_out, grads, ctx);
        let rows = x.dims()[0];
        // dX = G W^T
        let mut dx = Tensor::zeros_in(&[rows, self.in_dim], &mut ctx.ws);
        linalg::gemm_nt_ws(
            dx.as_mut_slice(),
            g.as_slice(),
            &params[..self.in_dim * self.out_dim],
            rows,
            self.out_dim,
            self.in_dim,
            &mut ctx.ws,
        );
        ctx.ws.recycle(x);
        ctx.ws.recycle(g);
        let mut in_dims = self.cached_lead.clone(); // lint:allow(hot-alloc): O(ndims) shape metadata
        in_dims.push(self.in_dim);
        dx.reshape(&in_dims)
    }

    // hot-path: the weight-gradient GEMM alone
    fn backward_params_only(
        &mut self,
        grad_out: Tensor,
        _: &[f32],
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) {
        let (x, g) = self.accumulate_grads(grad_out, grads, ctx);
        ctx.ws.recycle(x);
        ctx.ws.recycle(g);
    }

    fn param_len(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn init_params(&self, rng: &mut SeedRng, params: &mut [f32]) {
        init::torch_uniform(rng, params, self.in_dim);
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        let mut d = in_dims.to_vec();
        let last = d.last_mut().expect("linear input needs >= 1 dim");
        assert_eq!(*last, self.in_dim, "Linear shape mismatch");
        *last = self.out_dim;
        d
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        let rows: usize = in_dims[..in_dims.len() - 1].iter().product();
        (rows.max(1) * self.in_dim * self.out_dim) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::drawn_params;

    /// `layer` with a parameter block drawn from `rng`.
    fn linear(in_dim: usize, out_dim: usize, rng: &mut SeedRng) -> (Linear, Vec<f32>) {
        let l = Linear::new(in_dim, out_dim);
        let params = drawn_params(&l, rng);
        (l, params)
    }

    /// One training forward + backward of all-ones output gradient,
    /// accumulated into `grads`; returns `dL/dx`.
    fn run(l: &mut Linear, params: &[f32], grads: &mut [f32], x: &Tensor) -> Tensor {
        let mut ctx = Ctx::train(SeedRng::new(0));
        let out = l.forward(x.clone(), params, &mut ctx);
        l.backward(Tensor::full(out.dims(), 1.0), params, grads, &mut ctx)
    }

    fn fd_check(layer: &mut Linear, params: &[f32], x: &Tensor, param_probe: &[usize]) {
        // Loss = sum(outputs). Finite-difference the parameters.
        let mut grads = vec![0.0; layer.param_len()];
        run(layer, params, &mut grads, x);
        let eps = 1e-2f32;
        let base = layer.forward(x.clone(), params, &mut Ctx::eval()).sum();
        for &k in param_probe {
            let mut p2 = params.to_vec();
            p2[k] += eps;
            let up = layer.forward(x.clone(), &p2, &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            assert!(
                (fd - grads[k]).abs() < 0.02 * (1.0 + grads[k].abs()),
                "param {k}: fd {fd} vs analytic {}",
                grads[k]
            );
        }
    }

    #[test]
    fn forward_shape_2d_and_3d() {
        let (mut l, params) = linear(5, 3, &mut SeedRng::new(1));
        let mut ctx = Ctx::eval();
        let y = l.forward(Tensor::zeros(&[4, 5]), &params, &mut ctx);
        assert_eq!(y.dims(), &[4, 3]);
        let y3 = l.forward(Tensor::zeros(&[2, 7, 5]), &params, &mut ctx);
        assert_eq!(y3.dims(), &[2, 7, 3]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeedRng::new(2);
        let (mut l, params) = linear(4, 3, &mut rng);
        let x = rng.normal_tensor(&[5, 4], 1.0);
        fd_check(&mut l, &params, &x, &[0, 5, 11, 12, 14]);
    }

    #[test]
    fn gradients_match_fd_time_distributed() {
        let mut rng = SeedRng::new(3);
        let (mut l, params) = linear(4, 2, &mut rng);
        let x = rng.normal_tensor(&[2, 3, 4], 1.0);
        fd_check(&mut l, &params, &x, &[0, 3, 7, 8, 9]);
    }

    #[test]
    fn input_gradient_matches_fd() {
        let mut rng = SeedRng::new(4);
        let (mut l, params) = linear(3, 2, &mut rng);
        let x = rng.normal_tensor(&[2, 3], 1.0);
        let dx = run(&mut l, &params, &mut [0.0; 8], &x);
        let eps = 1e-2f32;
        let base = l.forward(x.clone(), &params, &mut Ctx::eval()).sum();
        for k in 0..x.numel() {
            let mut xp = x.clone();
            xp.as_mut_slice()[k] += eps;
            let up = l.forward(xp, &params, &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            assert!((fd - dx.as_slice()[k]).abs() < 0.02 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn batched_input_gradient_is_bitwise_matmul_nt() {
        // 20 rows (the NLC projection's batch-1 shape) is past the NT row
        // cutover, so dX runs transpose + NN kernel; it must still be the
        // dot kernel's bits, zeros in G (a ReLU/max-pool upstream) included.
        let mut rng = SeedRng::new(8);
        let (mut l, params) = linear(7, 5, &mut rng);
        let x = rng.normal_tensor(&[20, 7], 1.0);
        let mut g = rng.normal_tensor(&[20, 5], 1.0);
        for v in g.as_mut_slice().iter_mut().step_by(3) {
            *v = 0.0;
        }
        let mut ctx = Ctx::train(SeedRng::new(0));
        l.forward(x, &params, &mut ctx);
        let dx = l.backward(g.clone(), &params, &mut [0.0; 40], &mut ctx);
        let weight = Tensor::from_vec(params[..35].to_vec(), &[7, 5]);
        let want = linalg::matmul_nt(&g, &weight);
        assert_eq!(dx.dims(), want.dims());
        for (a, b) in dx.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut rng = SeedRng::new(5);
        let (mut l, params) = linear(2, 2, &mut rng);
        let x = rng.normal_tensor(&[1, 2], 1.0);
        let mut grads = vec![0.0; l.param_len()];
        run(&mut l, &params, &mut grads, &x);
        let g1 = grads.clone();
        run(&mut l, &params, &mut grads, &x);
        for (a, b) in g1.iter().zip(&grads) {
            assert!(
                (2.0 * a - b).abs() < 1e-5,
                "second pass should double grads"
            );
        }
    }

    #[test]
    fn weight_gradient_over_a_zeroed_block_is_bitwise_the_tn_product() {
        let mut rng = SeedRng::new(6);
        let (mut l, params) = linear(6, 4, &mut rng);
        let mut x = rng.normal_tensor(&[9, 6], 1.0);
        x.as_mut_slice()
            .iter_mut()
            .step_by(4)
            .for_each(|v| *v = 0.0);
        let mut grads = vec![0.0; l.param_len()];
        run(&mut l, &params, &mut grads, &x);
        let want = linalg::matmul_tn(&x, &Tensor::full(&[9, 4], 1.0));
        for (a, b) in grads[..24].iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn macs_and_shape() {
        let l = Linear::new(100, 200);
        assert_eq!(l.param_len(), 100 * 200 + 200);
        assert_eq!(l.out_shape(&[100]), vec![200]);
        assert_eq!(l.out_shape(&[7, 100]), vec![7, 200]);
        assert_eq!(l.macs(&[100]), 20_000);
        assert_eq!(l.macs(&[7, 100]), 140_000);
    }
}
