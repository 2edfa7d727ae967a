//! Temporal (1-D) convolution and pooling for the NLC-F network (Table II).
//!
//! Inputs are `[n, len, dim]` sequences of word embeddings. The temporal
//! convolution with window `k` concatenates `k` consecutive timesteps and
//! applies a linear map — the Torch `nn.TemporalConvolution` the paper's
//! NLC-F model uses.

use sasgd_tensor::{linalg, SeedRng, Tensor, Workspace};

use crate::init;
use crate::layer::{add_grads, Ctx, Layer};

/// 1-D convolution over the time axis: `[len, din] -> [len-k+1, nkern]`.
/// Parameter block: the `[window*din, nkern]` weight, then the bias.
pub struct TemporalConv1d {
    din: usize,
    nkern: usize,
    window: usize,
    /// Unfolded input `[n*(len-k+1), window*din]` cached for backward.
    cached_unfold: Option<Tensor>,
    cached_in_dims: Vec<usize>,
}

impl TemporalConv1d {
    /// New temporal convolution (`nkern` kernels of width `window` over
    /// `din`-dimensional timesteps).
    pub fn new(din: usize, nkern: usize, window: usize) -> Self {
        assert!(window >= 1, "window must be >= 1");
        TemporalConv1d {
            din,
            nkern,
            window,
            cached_unfold: None,
            cached_in_dims: Vec::new(),
        }
    }

    /// Scalars in the weight part of the parameter block.
    fn weight_len(&self) -> usize {
        self.window * self.din * self.nkern
    }

    fn unfold(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let [n, len, din] = [input.dims()[0], input.dims()[1], input.dims()[2]];
        let olen = len + 1 - self.window;
        let fan_in = self.window * din;
        // Every row is overwritten below, so a stale workspace buffer is fine.
        let mut od = ws.take_f32_uninit(n * olen * fan_in);
        let id = input.as_slice();
        for s in 0..n {
            for t in 0..olen {
                let src = (s * len + t) * din;
                let dst = (s * olen + t) * fan_in;
                od[dst..dst + fan_in].copy_from_slice(&id[src..src + fan_in]);
            }
        }
        Tensor::from_vec(od, &[n * olen, fan_in])
    }

    /// The parameter half of the backward pass: `dW += Uᵀ G`,
    /// `db += colsum(G)`. Returns the cached unfolded input `U` and `G`
    /// (`grad_out` as `[rows, nkern]`) for the input half, or the workspace.
    fn accumulate_grads(
        &mut self,
        grad_out: Tensor,
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) -> (Tensor, Tensor) {
        let unfolded = self.cached_unfold.take().expect("backward without forward");
        let rows = unfolded.dims()[0];
        let g = grad_out.reshape(&[rows, self.nkern]);
        let (wlen, fan_in, nkern) = (self.weight_len(), self.window * self.din, self.nkern);
        add_grads(grads, rows, ctx, |grads, ctx| {
            let (dweight, dbias) = grads.split_at_mut(wlen);
            let (us, gs) = (unfolded.as_slice(), g.as_slice());
            linalg::gemm_tn_acc_ws(dweight, us, gs, rows, fan_in, nkern, &mut ctx.ws);
            linalg::col_sums_into(&g, dbias);
        });
        (unfolded, g)
    }
}

impl Layer for TemporalConv1d {
    fn name(&self) -> &'static str {
        "TemporalConv1d"
    }

    fn forward(&mut self, input: Tensor, params: &[f32], ctx: &mut Ctx) -> Tensor {
        let [n, len, din] = [input.dims()[0], input.dims()[1], input.dims()[2]];
        assert_eq!(din, self.din, "timestep width mismatch");
        assert!(len >= self.window, "sequence shorter than window");
        let (weight, bias) = params.split_at(self.weight_len());
        let olen = len + 1 - self.window;
        let rows = n * olen;
        let unfolded = self.unfold(&input, &mut ctx.ws);
        let mut out = Tensor::zeros_in(&[rows, self.nkern], &mut ctx.ws);
        linalg::gemm_nn_ws(
            out.as_mut_slice(),
            unfolded.as_slice(),
            weight,
            rows,
            self.window * din,
            self.nkern,
            &mut ctx.ws,
        );
        linalg::add_bias_rows(&mut out, bias);
        if ctx.training {
            self.cached_unfold = Some(unfolded);
            self.cached_in_dims = input.dims().to_vec();
        } else {
            ctx.ws.recycle(unfolded);
        }
        ctx.ws.recycle(input);
        out.reshape(&[n, olen, self.nkern])
    }

    fn backward(
        &mut self,
        grad_out: Tensor,
        params: &[f32],
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) -> Tensor {
        let (unfolded, g) = self.accumulate_grads(grad_out, grads, ctx);
        let [n, len, din] = [
            self.cached_in_dims[0],
            self.cached_in_dims[1],
            self.cached_in_dims[2],
        ];
        let olen = len + 1 - self.window;
        let rows = n * olen;
        let fan_in = self.window * din;
        // d(unfolded) = G W^T, then fold overlapping windows back.
        let mut dunf = Tensor::zeros_in(&[rows, fan_in], &mut ctx.ws);
        linalg::gemm_nt_ws(
            dunf.as_mut_slice(),
            g.as_slice(),
            &params[..self.weight_len()],
            rows,
            self.nkern,
            fan_in,
            &mut ctx.ws,
        );
        let mut din_t = Tensor::zeros_in(&[n, len, din], &mut ctx.ws);
        let dd = din_t.as_mut_slice();
        let ud = dunf.as_slice();
        for s in 0..n {
            for t in 0..olen {
                let src = (s * olen + t) * fan_in;
                let dst = (s * len + t) * din;
                for k in 0..fan_in {
                    dd[dst + k] += ud[src + k];
                }
            }
        }
        ctx.ws.recycle(dunf);
        ctx.ws.recycle(unfolded);
        ctx.ws.recycle(g);
        din_t
    }

    fn backward_params_only(
        &mut self,
        grad_out: Tensor,
        _: &[f32],
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) {
        let (unfolded, g) = self.accumulate_grads(grad_out, grads, ctx);
        ctx.ws.recycle(unfolded);
        ctx.ws.recycle(g);
    }

    fn param_len(&self) -> usize {
        self.weight_len() + self.nkern
    }

    fn init_params(&self, rng: &mut SeedRng, params: &mut [f32]) {
        init::torch_uniform(rng, params, self.window * self.din);
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        assert_eq!(in_dims.len(), 2, "TemporalConv1d expects [len, dim]");
        assert_eq!(in_dims[1], self.din);
        vec![in_dims[0] + 1 - self.window, self.nkern]
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        let olen = in_dims[0] + 1 - self.window;
        (olen * self.window * self.din * self.nkern) as u64
    }
}

/// Max-pool over the time axis: `[len, dim] -> [len/stride-ish, dim]`
/// (window `w`, stride `w`; the paper's `(2, 1)` pooling).
pub struct TemporalMaxPool {
    window: usize,
    /// Persistent argmax buffer, refilled each forward.
    cached_argmax: Vec<u32>,
    argmax_valid: bool,
    cached_in_dims: Vec<usize>,
}

impl TemporalMaxPool {
    /// New pool with window = stride = `window`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        TemporalMaxPool {
            window,
            cached_argmax: Vec::new(),
            argmax_valid: false,
            cached_in_dims: Vec::new(),
        }
    }
}

impl Layer for TemporalMaxPool {
    fn name(&self) -> &'static str {
        "TemporalMaxPool"
    }

    fn forward(&mut self, input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        let [n, len, dim] = [input.dims()[0], input.dims()[1], input.dims()[2]];
        let olen = len / self.window;
        assert!(olen >= 1, "sequence shorter than pool window");
        let mut out = Tensor::zeros_in(&[n, olen, dim], &mut ctx.ws);
        self.cached_argmax.resize(n * olen * dim, 0);
        let argmax = &mut self.cached_argmax;
        let id = input.as_slice();
        let od = out.as_mut_slice();
        for s in 0..n {
            for t in 0..olen {
                for d in 0..dim {
                    let mut best = f32::NEG_INFINITY;
                    let mut bidx = 0usize;
                    for k in 0..self.window {
                        let idx = (s * len + t * self.window + k) * dim + d;
                        if id[idx] > best {
                            best = id[idx];
                            bidx = idx;
                        }
                    }
                    let o = (s * olen + t) * dim + d;
                    od[o] = best;
                    argmax[o] = bidx as u32;
                }
            }
        }
        if ctx.training {
            self.argmax_valid = true;
            self.cached_in_dims = input.dims().to_vec();
        }
        ctx.ws.recycle(input);
        out
    }

    fn backward(&mut self, grad_out: Tensor, _: &[f32], _: &mut [f32], ctx: &mut Ctx) -> Tensor {
        assert!(self.argmax_valid, "backward without forward");
        self.argmax_valid = false;
        let mut din = Tensor::zeros_in(&self.cached_in_dims, &mut ctx.ws);
        let dd = din.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&self.cached_argmax) {
            dd[idx as usize] += g;
        }
        ctx.ws.recycle(grad_out);
        din
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![in_dims[0] / self.window, in_dims[1]]
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        in_dims.iter().product::<usize>() as u64
    }
}

/// Reduce the whole time axis to its per-feature maximum:
/// `[len, dim] -> [dim]`. Bridges the pooled sequence to the fixed-width
/// fully connected stack of Table II (max-over-time, Collobert-style).
#[derive(Default)]
pub struct GlobalMaxOverTime {
    /// Persistent argmax buffer, refilled each forward.
    cached_argmax: Vec<u32>,
    argmax_valid: bool,
    cached_in_dims: Vec<usize>,
}

impl GlobalMaxOverTime {
    /// New layer.
    pub fn new() -> Self {
        GlobalMaxOverTime::default()
    }
}

impl Layer for GlobalMaxOverTime {
    fn name(&self) -> &'static str {
        "GlobalMaxOverTime"
    }

    fn forward(&mut self, input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        let [n, len, dim] = [input.dims()[0], input.dims()[1], input.dims()[2]];
        let mut out = Tensor::zeros_in(&[n, dim], &mut ctx.ws);
        self.cached_argmax.resize(n * dim, 0);
        let argmax = &mut self.cached_argmax;
        let id = input.as_slice();
        let od = out.as_mut_slice();
        for s in 0..n {
            for d in 0..dim {
                let mut best = f32::NEG_INFINITY;
                let mut bidx = 0usize;
                for t in 0..len {
                    let idx = (s * len + t) * dim + d;
                    if id[idx] > best {
                        best = id[idx];
                        bidx = idx;
                    }
                }
                od[s * dim + d] = best;
                argmax[s * dim + d] = bidx as u32;
            }
        }
        if ctx.training {
            self.argmax_valid = true;
            self.cached_in_dims = input.dims().to_vec();
        }
        ctx.ws.recycle(input);
        out
    }

    fn backward(&mut self, grad_out: Tensor, _: &[f32], _: &mut [f32], ctx: &mut Ctx) -> Tensor {
        assert!(self.argmax_valid, "backward without forward");
        self.argmax_valid = false;
        let mut din = Tensor::zeros_in(&self.cached_in_dims, &mut ctx.ws);
        let dd = din.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&self.cached_argmax) {
            dd[idx as usize] += g;
        }
        ctx.ws.recycle(grad_out);
        din
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![in_dims[1]]
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        in_dims.iter().product::<usize>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::drawn_params;

    #[test]
    fn conv_shapes_match_table2() {
        let c = TemporalConv1d::new(200, 1000, 2);
        assert_eq!(c.param_len(), 200 * 2 * 1000 + 1000); // 401,000
        assert_eq!(c.out_shape(&[20, 200]), vec![19, 1000]);
    }

    #[test]
    fn conv_window1_equals_linear_map() {
        // With window 1 the temporal conv is a per-timestep linear layer.
        let mut rng = SeedRng::new(2);
        let mut c = TemporalConv1d::new(3, 2, 1);
        let params = drawn_params(&c, &mut rng);
        let x = rng.normal_tensor(&[1, 4, 3], 1.0);
        let mut ctx = Ctx::eval();
        let y = c.forward(x.clone(), &params, &mut ctx);
        assert_eq!(y.dims(), &[1, 4, 2]);
        // Manual check of one timestep.
        let (w, b) = params.split_at(6);
        let t0 = &x.as_slice()[0..3];
        for j in 0..2 {
            let expect = t0[0] * w[j] + t0[1] * w[2 + j] + t0[2] * w[4 + j] + b[j];
            assert!((y.as_slice()[j] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_backward_matches_fd() {
        let mut rng = SeedRng::new(3);
        let mut c = TemporalConv1d::new(3, 2, 2);
        let params = drawn_params(&c, &mut rng);
        let x = rng.normal_tensor(&[2, 5, 3], 1.0);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = c.forward(x.clone(), &params, &mut ctx);
        let mut grads = vec![0.0; c.param_len()];
        let dx = c.backward(Tensor::full(y.dims(), 1.0), &params, &mut grads, &mut ctx);
        let eps = 1e-2f32;
        let base = c.forward(x.clone(), &params, &mut Ctx::eval()).sum();
        for &k in &[0usize, 5, 11, 12, 13] {
            let mut p = params.clone();
            p[k] += eps;
            let up = c.forward(x.clone(), &p, &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            assert!(
                (fd - grads[k]).abs() < 0.05 * (1.0 + grads[k].abs()),
                "p[{k}] {fd} vs {}",
                grads[k]
            );
        }
        // Input gradient via fd on a couple of coordinates.
        for &k in &[0usize, 7, 20] {
            let mut xp = x.clone();
            xp.as_mut_slice()[k] += eps;
            let up = c.forward(xp, &params, &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            assert!((fd - dx.as_slice()[k]).abs() < 0.05 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn batched_input_gradient_is_bitwise_matmul_nt() {
        // One 20-step sequence unfolds to 19 rows (Table II's shape), past
        // the NT row cutover: d(unfolded) runs transpose + NN kernel and
        // must still fold back from the dot kernel's bits. G is mostly
        // zeros, as after the temporal max-pool.
        let mut rng = SeedRng::new(6);
        let (din, nkern, window, len) = (3, 4, 2, 20);
        let mut c = TemporalConv1d::new(din, nkern, window);
        let params = drawn_params(&c, &mut rng);
        let x = rng.normal_tensor(&[1, len, din], 1.0);
        let olen = len + 1 - window;
        let mut g = rng.normal_tensor(&[olen, nkern], 1.0);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let mut ctx = Ctx::train(SeedRng::new(0));
        c.forward(x, &params, &mut ctx);
        let mut grads = vec![0.0; c.param_len()];
        let dx = c.backward(
            g.clone().reshape(&[1, olen, nkern]),
            &params,
            &mut grads,
            &mut ctx,
        );
        let weight = Tensor::from_vec(params[..c.weight_len()].to_vec(), &[window * din, nkern]);
        let dunf = linalg::matmul_nt(&g, &weight);
        let mut want = vec![0.0f32; len * din];
        for t in 0..olen {
            for k in 0..window * din {
                want[t * din + k] += dunf.as_slice()[t * window * din + k];
            }
        }
        for (a, b) in dx.as_slice().iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn temporal_pool_and_global_max() {
        let x = Tensor::from_vec(
            vec![
                1.0, 10.0, // t0
                2.0, 9.0, // t1
                5.0, 0.0, // t2
                4.0, 8.0, // t3
            ],
            &[1, 4, 2],
        );
        let mut p = TemporalMaxPool::new(2);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = p.forward(x.clone(), &[], &mut ctx);
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[2.0, 10.0, 5.0, 8.0]);
        let dx = p.backward(Tensor::full(&[1, 2, 2], 1.0), &[], &mut [], &mut ctx);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]);

        let mut g = GlobalMaxOverTime::new();
        let z = g.forward(x, &[], &mut ctx);
        assert_eq!(z.dims(), &[1, 2]);
        assert_eq!(z.as_slice(), &[5.0, 10.0]);
        let dz = g.backward(Tensor::full(&[1, 2], 2.0), &[], &mut [], &mut ctx);
        assert_eq!(dz.as_slice(), &[0.0, 2.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn odd_length_pool_truncates() {
        let p = TemporalMaxPool::new(2);
        assert_eq!(p.out_shape(&[5, 7]), vec![2, 7]);
    }
}
