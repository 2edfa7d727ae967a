//! 2-D convolution layer (NCHW) wrapping the im2col kernels.

use sasgd_tensor::conv::{
    conv2d_backward_params_ws, conv2d_backward_ws, conv2d_forward_ws, Conv2dSpec,
};
use sasgd_tensor::{SeedRng, Tensor};

use crate::init;
use crate::layer::{add_grads, Ctx, Layer};

/// Spatial convolution: `[ci, h, w] -> [co, oh, ow]` per sample. Parameter
/// block: the `[co, ci·kh·kw]` weight, then the `[co]` bias.
pub struct Conv2d {
    spec: Conv2dSpec,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// New layer; `pad` and `stride` as in the paper's Torch models
    /// (stride 1; padding preserving size for the 5×5/3×3 stages).
    pub fn new(ci: usize, co: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        Conv2d {
            spec: Conv2dSpec {
                ci,
                co,
                kh,
                kw,
                stride,
                pad,
            },
            cached_input: None,
        }
    }

    /// The geometry of this convolution.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Scalars in the weight part of the parameter block.
    fn weight_len(&self) -> usize {
        self.spec.co * self.spec.patch_len()
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    // hot-path: delegates to the workspace-backed conv kernel
    fn forward(&mut self, input: Tensor, params: &[f32], ctx: &mut Ctx) -> Tensor {
        let (weight, bias) = params.split_at(self.weight_len());
        let out = conv2d_forward_ws(&input, weight, bias, &self.spec, &mut ctx.ws);
        if ctx.training {
            self.cached_input = Some(input);
        } else {
            ctx.ws.recycle(input);
        }
        out
    }

    // hot-path: delegates to the workspace-backed conv kernel
    fn backward(
        &mut self,
        grad_out: Tensor,
        params: &[f32],
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward without forward (or eval-mode forward)");
        let (w, spec) = (self.weight_len(), &self.spec);
        // One partial per image is added into the block.
        let dinput = add_grads(grads, input.dims()[0], ctx, |grads, ctx| {
            let (dweight, dbias) = grads.split_at_mut(w);
            let weight = &params[..w];
            conv2d_backward_ws(&input, weight, &grad_out, spec, dweight, dbias, &mut ctx.ws)
        });
        ctx.ws.recycle(input);
        ctx.ws.recycle(grad_out);
        dinput
    }

    // hot-path: delegates to the workspace-backed conv kernel
    fn backward_params_only(
        &mut self,
        grad_out: Tensor,
        _: &[f32],
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) {
        let input = self
            .cached_input
            .take()
            .expect("backward without forward (or eval-mode forward)");
        let (w, spec) = (self.weight_len(), &self.spec);
        add_grads(grads, input.dims()[0], ctx, |grads, ctx| {
            let (dweight, dbias) = grads.split_at_mut(w);
            conv2d_backward_params_ws(&input, &grad_out, spec, dweight, dbias, &mut ctx.ws);
        });
        ctx.ws.recycle(input);
        ctx.ws.recycle(grad_out);
    }

    fn param_len(&self) -> usize {
        self.weight_len() + self.spec.co
    }

    fn init_params(&self, rng: &mut SeedRng, params: &mut [f32]) {
        init::torch_uniform(rng, params, self.spec.patch_len());
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        assert_eq!(
            in_dims.len(),
            3,
            "Conv2d expects [c, h, w], got {in_dims:?}"
        );
        assert_eq!(in_dims[0], self.spec.ci, "channel mismatch");
        let (oh, ow) = self.spec.out_hw(in_dims[1], in_dims[2]);
        vec![self.spec.co, oh, ow]
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        self.spec.forward_macs(in_dims[1], in_dims[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::drawn_params;

    #[test]
    fn table1_first_layer_geometry() {
        let c = Conv2d::new(3, 64, 5, 5, 1, 2);
        assert_eq!(c.param_len(), 3 * 64 * 25 + 64); // 4,864
        assert_eq!(c.out_shape(&[3, 32, 32]), vec![64, 32, 32]);
    }

    #[test]
    fn forward_backward_roundtrip_with_fd() {
        let mut rng = SeedRng::new(2);
        let mut c = Conv2d::new(2, 3, 3, 3, 1, 1);
        let params = drawn_params(&c, &mut rng);
        let x = rng.normal_tensor(&[2, 2, 5, 5], 1.0);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let out = c.forward(x.clone(), &params, &mut ctx);
        assert_eq!(out.dims(), &[2, 3, 5, 5]);
        let mut grads = vec![0.0; c.param_len()];
        let dx = c.backward(Tensor::full(out.dims(), 1.0), &params, &mut grads, &mut ctx);
        assert_eq!(dx.dims(), x.dims());

        let eps = 1e-2f32;
        let base = c.forward(x.clone(), &params, &mut Ctx::eval()).sum();
        for &k in &[0usize, 10, 30, c.param_len() - 2, c.param_len() - 1] {
            let mut p = params.clone();
            p[k] += eps;
            let up = c.forward(x.clone(), &p, &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            assert!(
                (fd - grads[k]).abs() < 0.05 * (1.0 + grads[k].abs()),
                "param {k}: fd {fd} vs {}",
                grads[k]
            );
        }
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut rng = SeedRng::new(3);
        let mut c = Conv2d::new(1, 1, 2, 2, 1, 0);
        let params = drawn_params(&c, &mut rng);
        let x = rng.normal_tensor(&[1, 1, 3, 3], 1.0);
        c.forward(x, &params, &mut Ctx::eval());
        assert!(c.cached_input.is_none());
    }
}
