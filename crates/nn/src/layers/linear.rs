//! Fully connected layer, applied over the last input dimension.

use sasgd_tensor::{linalg, SeedRng, Tensor};

use crate::init;
use crate::layer::{Ctx, Layer};

/// `y = x · W + b` with `W: [in, out]`, applied to any input whose last
/// dimension is `in` (leading dimensions are folded into rows). This lets
/// the same layer serve both the classifier heads (`[n, in]`) and the
/// per-timestep projection of the NLC network (`[n, len, in]`).
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    weight: Tensor,
    bias: Vec<f32>,
    dweight: Tensor,
    dbias: Vec<f32>,
    cached_input: Option<Tensor>,
    cached_lead: Vec<usize>,
}

impl Linear {
    /// New layer with Torch-default initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeedRng) -> Self {
        Linear {
            in_dim,
            out_dim,
            weight: init::torch_uniform(rng, &[in_dim, out_dim], in_dim),
            bias: init::torch_uniform_bias(rng, out_dim, in_dim),
            dweight: Tensor::zeros(&[in_dim, out_dim]),
            dbias: vec![0.0; out_dim],
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
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "Linear"
    }

    // hot-path: per-step matmul; O(m) scratch must come from ctx.ws
    fn forward(&mut self, input: Tensor, ctx: &mut Ctx) -> Tensor {
        let dims = input.dims().to_vec(); // lint:allow(hot-alloc): O(ndims) shape metadata, not O(m)
        assert_eq!(
            *dims.last().expect("linear input needs >= 1 dim"),
            self.in_dim,
            "Linear expected last dim {}, got {:?}",
            self.in_dim,
            dims
        );
        let rows: usize = dims[..dims.len() - 1].iter().product();
        let flat = input.reshape(&[rows, self.in_dim]);
        let mut out = Tensor::zeros_in(&[rows, self.out_dim], &mut ctx.ws);
        linalg::gemm_nn_ws(
            out.as_mut_slice(),
            flat.as_slice(),
            self.weight.as_slice(),
            rows,
            self.in_dim,
            self.out_dim,
            &mut ctx.ws,
        );
        linalg::add_bias_rows(&mut out, &self.bias);
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
    fn backward(&mut self, grad_out: Tensor, ctx: &mut Ctx) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward without forward (or eval-mode forward)");
        let rows = x.dims()[0];
        let g = grad_out.reshape(&[rows, self.out_dim]);
        // dW += X^T G ; db += colsum(G) ; dX = G W^T
        let mut dw = Tensor::zeros_in(&[self.in_dim, self.out_dim], &mut ctx.ws);
        linalg::gemm_tn_ws(
            dw.as_mut_slice(),
            x.as_slice(),
            g.as_slice(),
            rows,
            self.in_dim,
            self.out_dim,
            &mut ctx.ws,
        );
        self.dweight.add_assign(&dw);
        ctx.ws.recycle(dw);
        linalg::col_sums_into(&g, &mut self.dbias);
        let mut dx = Tensor::zeros_in(&[rows, self.in_dim], &mut ctx.ws);
        linalg::gemm_nt_ws(
            dx.as_mut_slice(),
            g.as_slice(),
            self.weight.as_slice(),
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

    fn param_len(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn read_params(&self, out: &mut [f32]) {
        let w = self.weight.numel();
        out[..w].copy_from_slice(self.weight.as_slice());
        out[w..].copy_from_slice(&self.bias);
    }

    fn write_params(&mut self, src: &[f32]) {
        let w = self.weight.numel();
        self.weight.as_mut_slice().copy_from_slice(&src[..w]);
        self.bias.copy_from_slice(&src[w..]);
    }

    fn read_grads(&self, out: &mut [f32]) {
        let w = self.dweight.numel();
        out[..w].copy_from_slice(self.dweight.as_slice());
        out[w..].copy_from_slice(&self.dbias);
    }

    fn zero_grads(&mut self) {
        self.dweight.zero_();
        self.dbias.iter_mut().for_each(|x| *x = 0.0);
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

    fn fd_check(layer: &mut Linear, x: &Tensor, param_probe: &[usize]) {
        // Loss = sum(outputs). Finite-difference the parameters.
        let mut ctx = Ctx::train(SeedRng::new(0));
        let out = layer.forward(x.clone(), &mut ctx);
        let gones = Tensor::full(out.dims(), 1.0);
        layer.backward(gones, &mut ctx);
        let mut grads = vec![0.0; layer.param_len()];
        layer.read_grads(&mut grads);

        let mut params = vec![0.0; layer.param_len()];
        layer.read_params(&mut params);
        let eps = 1e-2f32;
        let base = {
            let mut c = Ctx::eval();
            layer.forward(x.clone(), &mut c).sum()
        };
        for &k in param_probe {
            let mut p2 = params.clone();
            p2[k] += eps;
            layer.write_params(&p2);
            let up = {
                let mut c = Ctx::eval();
                layer.forward(x.clone(), &mut c).sum()
            };
            layer.write_params(&params);
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
        let mut rng = SeedRng::new(1);
        let mut l = Linear::new(5, 3, &mut rng);
        let mut ctx = Ctx::eval();
        let y = l.forward(Tensor::zeros(&[4, 5]), &mut ctx);
        assert_eq!(y.dims(), &[4, 3]);
        let y3 = l.forward(Tensor::zeros(&[2, 7, 5]), &mut ctx);
        assert_eq!(y3.dims(), &[2, 7, 3]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeedRng::new(2);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = rng.normal_tensor(&[5, 4], 1.0);
        fd_check(&mut l, &x, &[0, 5, 11, 12, 14]);
    }

    #[test]
    fn gradients_match_fd_time_distributed() {
        let mut rng = SeedRng::new(3);
        let mut l = Linear::new(4, 2, &mut rng);
        let x = rng.normal_tensor(&[2, 3, 4], 1.0);
        fd_check(&mut l, &x, &[0, 3, 7, 8, 9]);
    }

    #[test]
    fn input_gradient_matches_fd() {
        let mut rng = SeedRng::new(4);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = rng.normal_tensor(&[2, 3], 1.0);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let out = l.forward(x.clone(), &mut ctx);
        let dx = l.backward(Tensor::full(out.dims(), 1.0), &mut ctx);
        let eps = 1e-2f32;
        let base = l.forward(x.clone(), &mut Ctx::eval()).sum();
        for k in 0..x.numel() {
            let mut xp = x.clone();
            xp.as_mut_slice()[k] += eps;
            let up = l.forward(xp, &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            assert!((fd - dx.as_slice()[k]).abs() < 0.02 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn batched_input_gradient_is_bitwise_matmul_nt() {
        // 20 rows (the NLC projection's batch-1 shape) is past the NT row
        // cutover, so dX runs transpose + axpy kernel; it must still be the
        // dot kernel's bits, zeros in G (a ReLU/max-pool upstream) included.
        let mut rng = SeedRng::new(8);
        let mut l = Linear::new(7, 5, &mut rng);
        let x = rng.normal_tensor(&[20, 7], 1.0);
        let mut g = rng.normal_tensor(&[20, 5], 1.0);
        for v in g.as_mut_slice().iter_mut().step_by(3) {
            *v = 0.0;
        }
        let mut ctx = Ctx::train(SeedRng::new(0));
        l.forward(x, &mut ctx);
        let dx = l.backward(g.clone(), &mut ctx);
        let want = linalg::matmul_nt(&g, &l.weight);
        assert_eq!(dx.dims(), want.dims());
        for (a, b) in dx.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = SeedRng::new(5);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = rng.normal_tensor(&[1, 2], 1.0);
        let run = |l: &mut Linear, x: &Tensor| {
            let mut ctx = Ctx::train(SeedRng::new(0));
            let out = l.forward(x.clone(), &mut ctx);
            l.backward(Tensor::full(out.dims(), 1.0), &mut ctx);
        };
        run(&mut l, &x);
        let mut g1 = vec![0.0; l.param_len()];
        l.read_grads(&mut g1);
        run(&mut l, &x);
        let mut g2 = vec![0.0; l.param_len()];
        l.read_grads(&mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            assert!(
                (2.0 * a - b).abs() < 1e-5,
                "second pass should double grads"
            );
        }
        l.zero_grads();
        let mut g3 = vec![0.0; l.param_len()];
        l.read_grads(&mut g3);
        assert!(g3.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = SeedRng::new(6);
        let l = Linear::new(3, 4, &mut rng);
        let mut buf = vec![0.0; l.param_len()];
        l.read_params(&mut buf);
        let mut l2 = Linear::new(3, 4, &mut SeedRng::new(99));
        l2.write_params(&buf);
        let mut buf2 = vec![0.0; l2.param_len()];
        l2.read_params(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn macs_and_shape() {
        let l = Linear::new(100, 200, &mut SeedRng::new(1));
        assert_eq!(l.param_len(), 100 * 200 + 200);
        assert_eq!(l.out_shape(&[100]), vec![200]);
        assert_eq!(l.out_shape(&[7, 100]), vec![7, 200]);
        assert_eq!(l.macs(&[100]), 20_000);
        assert_eq!(l.macs(&[7, 100]), 140_000);
    }
}
