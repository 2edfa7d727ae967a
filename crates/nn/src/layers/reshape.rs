//! Shape-only layers.

use sasgd_tensor::Tensor;

use crate::layer::{Ctx, Layer};

/// Flatten all per-sample dimensions into one (`[n, c, h, w] -> [n, c*h*w]`),
/// feeding the classifier head of the CIFAR network.
#[derive(Default)]
pub struct Flatten {
    cached_in_dims: Vec<usize>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn forward(&mut self, input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        let dims = input.dims().to_vec();
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        if ctx.training {
            self.cached_in_dims = dims;
        }
        input.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: Tensor, _: &[f32], _: &mut [f32], _: &mut Ctx) -> Tensor {
        grad_out.reshape(&self.cached_in_dims.clone())
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![in_dims.iter().product()]
    }

    fn macs(&self, _in_dims: &[usize]) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_tensor::SeedRng;

    #[test]
    fn roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = f.forward(x, &[], &mut ctx);
        assert_eq!(y.dims(), &[2, 60]);
        let dx = f.backward(Tensor::zeros(&[2, 60]), &[], &mut [], &mut ctx);
        assert_eq!(dx.dims(), &[2, 3, 4, 5]);
    }

    #[test]
    fn per_sample_shape() {
        let f = Flatten::new();
        assert_eq!(f.out_shape(&[128, 1, 1]), vec![128]);
        assert_eq!(f.macs(&[128, 1, 1]), 0);
    }
}
