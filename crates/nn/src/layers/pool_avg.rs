//! Average pooling and local response normalization — the extra layers an
//! AlexNet-style network needs (§II: "other networks with deeper
//! structures such as AlexNet ... The approaches discussed in this paper
//! work for these networks also").

use sasgd_tensor::Tensor;

use crate::layer::{Ctx, Layer};

/// Spatial average pooling (window = stride, like the paper's max pools).
pub struct AvgPool2d {
    window: usize,
    cached_in_dims: Vec<usize>,
}

impl AvgPool2d {
    /// Square window with stride = window.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        AvgPool2d {
            window,
            cached_in_dims: Vec::new(),
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "AvgPool2d"
    }

    fn forward(&mut self, input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        let [n, c, h, w] = [
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        ];
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        assert!(oh >= 1 && ow >= 1, "input smaller than pool window");
        let mut out = Tensor::zeros_in(&[n, c, oh, ow], &mut ctx.ws);
        let id = input.as_slice();
        let od = out.as_mut_slice();
        let inv = 1.0 / (k * k) as f32;
        let mut o = 0usize;
        for img in 0..n {
            for ch in 0..c {
                let plane = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut s = 0.0f32;
                        for ky in 0..k {
                            for kx in 0..k {
                                s += id[plane + (oy * k + ky) * w + (ox * k + kx)];
                            }
                        }
                        od[o] = s * inv;
                        o += 1;
                    }
                }
            }
        }
        if ctx.training {
            self.cached_in_dims = input.dims().to_vec();
        }
        ctx.ws.recycle(input);
        out
    }

    fn backward(&mut self, grad_out: Tensor, _: &[f32], _: &mut [f32], ctx: &mut Ctx) -> Tensor {
        let [n, c, h, w] = [
            self.cached_in_dims[0],
            self.cached_in_dims[1],
            self.cached_in_dims[2],
            self.cached_in_dims[3],
        ];
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut din = Tensor::zeros_in(&[n, c, h, w], &mut ctx.ws);
        let gd = grad_out.as_slice();
        let dd = din.as_mut_slice();
        let mut o = 0usize;
        for img in 0..n {
            for ch in 0..c {
                let plane = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gd[o] * inv;
                        o += 1;
                        for ky in 0..k {
                            for kx in 0..k {
                                dd[plane + (oy * k + ky) * w + (ox * k + kx)] += g;
                            }
                        }
                    }
                }
            }
        }
        ctx.ws.recycle(grad_out);
        din
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![
            in_dims[0],
            in_dims[1] / self.window,
            in_dims[2] / self.window,
        ]
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        in_dims.iter().product::<usize>() as u64
    }
}

/// AlexNet-style local response normalization across channels:
/// `y = x / (k + α/n · Σ_{nearby channels} x²)^β`.
pub struct LocalResponseNorm {
    size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
    cached_input: Option<Tensor>,
}

impl LocalResponseNorm {
    /// AlexNet's published constants: `size=5, α=1e-4, β=0.75, k=2`.
    pub fn alexnet() -> Self {
        LocalResponseNorm {
            size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 2.0,
            cached_input: None,
        }
    }

    /// Custom constants.
    pub fn new(size: usize, alpha: f32, beta: f32, k: f32) -> Self {
        assert!(size >= 1);
        LocalResponseNorm {
            size,
            alpha,
            beta,
            k,
            cached_input: None,
        }
    }

    fn denom_at(&self, input: &Tensor, img: usize, ch: usize, y: usize, x: usize) -> f32 {
        let c = input.dims()[1];
        let half = self.size / 2;
        let lo = ch.saturating_sub(half);
        let hi = (ch + half).min(c - 1);
        let mut s = 0.0f32;
        for cc in lo..=hi {
            let v = input.at4(img, cc, y, x);
            s += v * v;
        }
        self.k + self.alpha / self.size as f32 * s
    }
}

impl Layer for LocalResponseNorm {
    fn name(&self) -> &'static str {
        "LocalResponseNorm"
    }

    fn forward(&mut self, input: Tensor, _: &[f32], ctx: &mut Ctx) -> Tensor {
        let [n, c, h, w] = [
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        ];
        let mut out = Tensor::zeros_in(&[n, c, h, w], &mut ctx.ws);
        for img in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        let d = self.denom_at(&input, img, ch, y, x);
                        let idx = out.idx4(img, ch, y, x);
                        out.as_mut_slice()[idx] = input.at4(img, ch, y, x) * d.powf(-self.beta);
                    }
                }
            }
        }
        if ctx.training {
            self.cached_input = Some(input);
        } else {
            ctx.ws.recycle(input);
        }
        out
    }

    fn backward(&mut self, grad_out: Tensor, _: &[f32], _: &mut [f32], ctx: &mut Ctx) -> Tensor {
        // Exact LRN backward couples nearby channels; we use the dominant
        // diagonal term d(y_i)/d(x_i) ≈ denom^{-β} − 2αβ/n · x_i² ·
        // denom^{-β-1}, the standard fast approximation (cross terms are
        // O(α) ≈ 1e-4 and negligible at these constants).
        let input = self.cached_input.take().expect("backward without forward");
        let [n, c, h, w] = [
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        ];
        let mut din = Tensor::zeros_in(&[n, c, h, w], &mut ctx.ws);
        for img in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        let d = self.denom_at(&input, img, ch, y, x);
                        let xi = input.at4(img, ch, y, x);
                        let diag = d.powf(-self.beta)
                            - 2.0 * self.alpha * self.beta / self.size as f32
                                * xi
                                * xi
                                * d.powf(-self.beta - 1.0);
                        let idx = din.idx4(img, ch, y, x);
                        din.as_mut_slice()[idx] = grad_out.at4(img, ch, y, x) * diag;
                    }
                }
            }
        }
        ctx.ws.recycle(input);
        ctx.ws.recycle(grad_out);
        din
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        (in_dims.iter().product::<usize>() * self.size) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_tensor::SeedRng;

    #[test]
    fn avg_pool_averages() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        let mut p = AvgPool2d::new(2);
        let y = p.forward(x, &[], &mut Ctx::eval());
        assert_eq!(y.as_slice(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        let mut p = AvgPool2d::new(2);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let _ = p.forward(x, &[], &mut ctx);
        let din = p.backward(
            Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]),
            &[],
            &mut [],
            &mut ctx,
        );
        assert_eq!(din.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avg_pool_backward_matches_fd() {
        let mut rng = SeedRng::new(1);
        let x = rng.normal_tensor(&[1, 2, 4, 4], 1.0);
        let mut p = AvgPool2d::new(2);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = p.forward(x.clone(), &[], &mut ctx);
        let din = p.backward(Tensor::full(y.dims(), 1.0), &[], &mut [], &mut ctx);
        let eps = 1e-2f32;
        let base = p.forward(x.clone(), &[], &mut Ctx::eval()).sum();
        for &k in &[0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[k] += eps;
            let up = p.forward(xp, &[], &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            assert!(
                (fd - din.as_slice()[k]).abs() < 1e-3,
                "k={k}: {fd} vs {}",
                din.as_slice()[k]
            );
        }
    }

    #[test]
    fn lrn_is_nearly_identity_at_alexnet_constants() {
        // With α=1e-4 the normalization is a gentle squash: outputs close
        // to x/k^β.
        let mut rng = SeedRng::new(2);
        let x = rng.normal_tensor(&[1, 8, 3, 3], 1.0);
        let mut lrn = LocalResponseNorm::alexnet();
        let y = lrn.forward(x.clone(), &[], &mut Ctx::eval());
        let scale = 2.0f32.powf(-0.75);
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!(
                (a - b * scale).abs() < 0.01 * (1.0 + b.abs()),
                "{a} vs {}",
                b * scale
            );
        }
    }

    #[test]
    fn lrn_squashes_large_activations_more() {
        // The response ratio y/x falls as the local energy grows.
        let small = Tensor::full(&[1, 5, 1, 1], 0.1);
        let large = Tensor::full(&[1, 5, 1, 1], 50.0);
        let mut lrn = LocalResponseNorm::new(5, 0.1, 0.75, 2.0);
        let ys = lrn.forward(small, &[], &mut Ctx::eval());
        let yl = lrn.forward(large, &[], &mut Ctx::eval());
        let rs = ys.as_slice()[0] / 0.1;
        let rl = yl.as_slice()[0] / 50.0;
        assert!(
            rl < rs,
            "large inputs must be squashed harder: {rl} vs {rs}"
        );
    }

    #[test]
    fn lrn_backward_matches_fd_at_small_alpha() {
        let mut rng = SeedRng::new(3);
        let x = rng.normal_tensor(&[1, 4, 2, 2], 1.0);
        let mut lrn = LocalResponseNorm::alexnet();
        let mut ctx = Ctx::train(SeedRng::new(0));
        let y = lrn.forward(x.clone(), &[], &mut ctx);
        let din = lrn.backward(Tensor::full(y.dims(), 1.0), &[], &mut [], &mut ctx);
        let eps = 1e-2f32;
        let base = lrn.forward(x.clone(), &[], &mut Ctx::eval()).sum();
        for &k in &[0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[k] += eps;
            let up = lrn.forward(xp, &[], &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            // Diagonal approximation: allow the O(α) cross-term slack.
            assert!((fd - din.as_slice()[k]).abs() < 0.02 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn shapes_and_param_counts() {
        let p = AvgPool2d::new(2);
        assert_eq!(p.out_shape(&[16, 8, 8]), vec![16, 4, 4]);
        assert_eq!(p.param_len(), 0);
        let l = LocalResponseNorm::alexnet();
        assert_eq!(l.out_shape(&[16, 8, 8]), vec![16, 8, 8]);
        assert_eq!(l.param_len(), 0);
    }
}
