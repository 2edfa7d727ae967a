//! Max-pooling kernels with argmax bookkeeping for the backward pass.
//!
//! Both passes split across the `n·c` independent planes of the batch;
//! within a plane the window scan order is fixed, so results are bitwise
//! identical at any width.

use crate::parallel;
use crate::shape::pool_out;
use crate::tensor::Tensor;

/// Geometry of one max-pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool2dSpec {
    /// Window height.
    pub wh: usize,
    /// Window width.
    pub ww: usize,
    /// Stride (same both axes; the paper's networks use stride = window).
    pub stride: usize,
}

impl Pool2dSpec {
    /// Square window with stride equal to the window (the paper's setting).
    pub fn square(k: usize) -> Self {
        Pool2dSpec {
            wh: k,
            ww: k,
            stride: k,
        }
    }

    /// Output spatial size.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            pool_out(h, self.wh, self.stride),
            pool_out(w, self.ww, self.stride),
        )
    }
}

/// Result of a pooling forward pass: outputs plus the flat input index that
/// won each window (needed to route gradients back).
pub struct PoolForward {
    /// `[n, c, oh, ow]` pooled values.
    pub output: Tensor,
    /// For each output element, the flat index into the input that supplied
    /// the maximum.
    pub argmax: Vec<u32>,
}

/// Max-pool an NCHW batch into caller-provided output/argmax buffers
/// (`[n*c*oh*ow]` each). Every element of both buffers is written, so
/// they may hold stale values on entry.
pub fn maxpool2d_forward_into(
    input: &Tensor,
    spec: &Pool2dSpec,
    output: &mut [f32],
    argmax: &mut [u32],
) {
    let [n, c, h, w] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(output.len(), n * c * oh * ow, "pool output size");
    assert_eq!(argmax.len(), n * c * oh * ow, "pool argmax size");
    let id = input.as_slice();
    let out_plane = oh * ow;
    let spec = *spec;
    let scan = |p: usize, oplane: &mut [f32], aplane: &mut [u32]| {
        // p enumerates (img, channel) planes in row-major order.
        let plane = p * h * w;
        let mut o = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ky in 0..spec.wh {
                    let iy = oy * spec.stride + ky;
                    for kx in 0..spec.ww {
                        let ix = ox * spec.stride + kx;
                        let idx = plane + iy * w + ix;
                        if id[idx] > best {
                            best = id[idx];
                            best_idx = idx;
                        }
                    }
                }
                oplane[o] = best;
                aplane[o] = best_idx as u32;
                o += 1;
            }
        }
    };
    parallel::for_each_zip_chunks_mut(output, out_plane, argmax, out_plane, id.len(), scan);
}

/// Max-pool an NCHW batch.
pub fn maxpool2d_forward(input: &Tensor, spec: &Pool2dSpec) -> PoolForward {
    let [n, c, h, w] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    let (oh, ow) = spec.out_hw(h, w);
    let mut output = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0u32; n * c * oh * ow];
    maxpool2d_forward_into(input, spec, output.as_mut_slice(), &mut argmax);
    PoolForward { output, argmax }
}

/// Route output gradients back to the winning input positions.
///
/// When `grad_out` is NCHW the scatter runs plane by plane: each `(img,
/// channel)` plane's argmax targets stay inside that plane's slice of the
/// input, so planes write disjoint regions and the in-plane scatter keeps
/// the serial output order (overlapping windows hit the same winner in the
/// same sequence).
pub fn maxpool2d_backward(grad_out: &Tensor, argmax: &[u32], input_numel: usize) -> Tensor {
    let mut din = vec![0.0f32; input_numel];
    maxpool2d_backward_into(grad_out, argmax, &mut din);
    Tensor::from_vec(din, &[input_numel])
}

/// [`maxpool2d_backward`] into a caller-provided input-gradient slice.
/// Every element is written (`+0.0`, then the winners' gradients), each
/// plane by the worker that scatters into it, so `din` may hold stale
/// values on entry.
pub fn maxpool2d_backward_into(grad_out: &Tensor, argmax: &[u32], din: &mut [f32]) {
    assert_eq!(grad_out.numel(), argmax.len(), "argmax length mismatch");
    let input_numel = din.len();
    let dims = grad_out.dims();
    let planes = if dims.len() == 4 {
        dims[0] * dims[1]
    } else {
        1
    };
    let gd = grad_out.as_slice();
    if planes > 1 && input_numel.is_multiple_of(planes) && gd.len().is_multiple_of(planes) {
        let in_plane = input_numel / planes;
        let out_plane = gd.len() / planes;
        parallel::for_each_chunk_mut(din, in_plane, input_numel, |p, dplane| {
            dplane.fill(0.0);
            let base = p * in_plane;
            let lo = p * out_plane;
            for (g, &idx) in gd[lo..lo + out_plane]
                .iter()
                .zip(&argmax[lo..lo + out_plane])
            {
                dplane[idx as usize - base] += g;
            }
        });
    } else {
        din.fill(0.0);
        for (g, &idx) in gd.iter().zip(argmax) {
            din[idx as usize] += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedRng;

    #[test]
    fn forward_picks_window_max() {
        // One 4x4 plane; 2x2 pooling -> each quadrant's max.
        let input = Tensor::from_vec(
            vec![
                1., 2., 5., 0., //
                3., 4., 1., 1., //
                0., 9., 2., 2., //
                8., 7., 3., 6.,
            ],
            &[1, 1, 4, 4],
        );
        let f = maxpool2d_forward(&input, &Pool2dSpec::square(2));
        assert_eq!(f.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(f.output.as_slice(), &[4., 5., 9., 6.]);
        assert_eq!(f.argmax, vec![5, 2, 9, 15]);
    }

    #[test]
    fn odd_input_drops_trailing_row_col() {
        // 3x3 with 2x2 stride-2 pooling -> 1x1 (paper's final pool: 3 -> 1).
        let input = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 1, 3, 3]);
        let f = maxpool2d_forward(&input, &Pool2dSpec::square(2));
        assert_eq!(f.output.dims(), &[1, 1, 1, 1]);
        assert_eq!(f.output.as_slice(), &[5.0]);
    }

    #[test]
    fn backward_routes_to_argmax_only() {
        let input = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        let f = maxpool2d_forward(&input, &Pool2dSpec::square(2));
        let g = Tensor::from_vec(vec![2.5], &[1, 1, 1, 1]);
        let din = maxpool2d_backward(&g, &f.argmax, 4);
        assert_eq!(din.as_slice(), &[0., 0., 0., 2.5]);
    }

    #[test]
    fn backward_is_gradient_of_sum() {
        let mut r = SeedRng::new(8);
        let input = r.normal_tensor(&[2, 3, 6, 6], 1.0);
        let spec = Pool2dSpec::square(2);
        let f = maxpool2d_forward(&input, &spec);
        let grad_out = Tensor::full(&[2, 3, 3, 3], 1.0);
        let din = maxpool2d_backward(&grad_out, &f.argmax, input.numel());
        let eps = 1e-2f32;
        let base = f.output.sum();
        for &k in &[0usize, 10, 50, 100, 200] {
            let mut xp = input.clone();
            xp.as_mut_slice()[k] += eps;
            let up = maxpool2d_forward(&xp, &spec).output.sum();
            let fd = (up - base) / eps;
            let an = din.as_slice()[k];
            // Max is piecewise linear; away from ties fd == an exactly.
            assert!((fd - an).abs() < 0.51, "x[{k}]: fd {fd} vs {an}");
        }
    }
}
