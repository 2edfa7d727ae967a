//! Max-pooling layer (NCHW).

use sasgd_tensor::pool::{maxpool2d_backward_into, maxpool2d_forward_into, Pool2dSpec};
use sasgd_tensor::Tensor;

use crate::layer::{Ctx, Layer};

/// Spatial max-pool; the paper uses 2×2 windows with stride 2 throughout.
pub struct MaxPool2d {
    spec: Pool2dSpec,
    /// Persistent argmax buffer, refilled each training forward.
    cached_argmax: Vec<u32>,
    argmax_valid: bool,
    cached_in_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Square window with stride = window.
    pub fn new(window: usize) -> Self {
        MaxPool2d {
            spec: Pool2dSpec::square(window),
            cached_argmax: Vec::new(),
            argmax_valid: false,
            cached_in_dims: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&mut self, input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        let [n, c] = [input.dims()[0], input.dims()[1]];
        let (oh, ow) = self.spec.out_hw(input.dims()[2], input.dims()[3]);
        let mut output = Tensor::zeros_in(&[n, c, oh, ow], &mut ctx.ws);
        self.cached_argmax.resize(n * c * oh * ow, 0);
        maxpool2d_forward_into(
            &input,
            &self.spec,
            output.as_mut_slice(),
            &mut self.cached_argmax,
        );
        if ctx.training {
            self.argmax_valid = true;
            self.cached_in_dims = input.dims().to_vec();
        }
        ctx.ws.recycle(input);
        output
    }

    fn backward(&mut self, grad_out: Tensor, _: &[f32], _: &mut [f32], ctx: &mut Ctx) -> Tensor {
        assert!(self.argmax_valid, "backward without forward");
        self.argmax_valid = false;
        let numel = self.cached_in_dims.iter().product();
        let mut din = Tensor::from_vec(ctx.ws.take_f32_uninit(numel), &self.cached_in_dims);
        maxpool2d_backward_into(&grad_out, &self.cached_argmax, din.as_mut_slice());
        ctx.ws.recycle(grad_out);
        din
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        assert_eq!(in_dims.len(), 3, "MaxPool2d expects [c, h, w]");
        let (oh, ow) = self.spec.out_hw(in_dims[1], in_dims[2]);
        vec![in_dims[0], oh, ow]
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        // Comparisons, not multiplies; count one op per input element read.
        let out = self.out_shape(in_dims);
        (out.iter().product::<usize>() * self.spec.wh * self.spec.ww) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_tensor::SeedRng;

    #[test]
    fn shape_pipeline() {
        let p = MaxPool2d::new(2);
        assert_eq!(p.out_shape(&[64, 32, 32]), vec![64, 16, 16]);
        assert_eq!(p.out_shape(&[128, 3, 3]), vec![128, 1, 1]);
    }

    #[test]
    fn backward_shape_restored() {
        let mut rng = SeedRng::new(1);
        let mut p = MaxPool2d::new(2);
        let x = rng.normal_tensor(&[2, 3, 4, 4], 1.0);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = p.forward(x.clone(), &[], &mut ctx);
        assert_eq!(y.dims(), &[2, 3, 2, 2]);
        let dx = p.backward(Tensor::full(y.dims(), 1.0), &[], &mut [], &mut ctx);
        assert_eq!(dx.dims(), x.dims());
        // Each 2x2 window contributed exactly one gradient unit.
        assert_eq!(dx.sum(), y.numel() as f32);
    }

    #[test]
    fn no_params() {
        let p = MaxPool2d::new(2);
        assert_eq!(p.param_len(), 0);
    }
}
