//! 2-D convolution kernels (im2col formulation).
//!
//! A convolution with kernel `[co, ci, kh, kw]` over an NCHW input is
//! lowered to a patch matrix (`im2col`, one row of length `ci*kh*kw` per
//! output pixel) times the weight matrix. The backward pass reuses the
//! same lowering: the weight gradient is a `patchᵀ · grad_out` product and
//! the input gradient scatters back through `col2im`. This mirrors how the
//! paper's Torch backend executes convolutions, so the FLOP model in
//! `sasgd-nn` can count the same multiply–accumulate operations a GPU
//! would perform.
//!
//! The hot path works **one image at a time**: each pass — forward,
//! backward, parameters-only backward — is a single fork-join region over
//! the images of the minibatch ([`parallel::for_each_item_mut`]), and a
//! worker lowers, multiplies and scatters one image before it takes the
//! next, so an image's patch rows (≤ 300 KB at the Table I shapes) stay in
//! that worker's L2 instead of a minibatch-sized matrix streaming through
//! DRAM. Per-worker scratch is one buffer from a [`Workspace`], so a
//! steady-state training loop stops allocating. The per-image reference
//! implementations survive as [`conv2d_forward_ref`] /
//! [`conv2d_backward_ref`]: they are the bitwise oracle the proptests
//! compare against and the "before" baseline of the `hotpath` benchmark.
//!
//! Every accumulation keeps the reference order — ascending inner index,
//! `g == 0.0` skipped where the reference skipped it, per-image weight /
//! bias partials added to the accumulators in image order — so the fast and
//! reference paths are bitwise identical at any width.

use crate::linalg;
use crate::parallel;
use crate::shape::conv_out;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Geometry of one convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub ci: usize,
    /// Output channels (number of kernels).
    pub co: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same both axes).
    pub stride: usize,
    /// Zero padding (same both axes).
    pub pad: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an `h`-by-`w` input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out(h, self.kh, self.stride, self.pad),
            conv_out(w, self.kw, self.stride, self.pad),
        )
    }

    /// Elements in one lowered patch row.
    pub fn patch_len(&self) -> usize {
        self.ci * self.kh * self.kw
    }

    /// Multiply–accumulates in the forward pass for one `h`-by-`w` image.
    pub fn forward_macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.out_hw(h, w);
        (oh * ow * self.co * self.patch_len()) as u64
    }
}

/// Lower one image `[ci, h, w]` into a caller-provided patch matrix slice
/// `[oh*ow * ci*kh*kw]`. Writes **every** element (padding positions get an
/// explicit `0.0`), so the output buffer may hold stale values on entry.
///
/// Rows whose `kw`-wide window is fully in-bounds are copied with
/// `copy_from_slice`; only boundary rows take the per-element branch.
// hot-path: patch lowering, called per image per step — no allocation allowed
pub fn im2col_into(img: &[f32], ci: usize, h: usize, w: usize, spec: &Conv2dSpec, out: &mut [f32]) {
    debug_assert_eq!(img.len(), ci * h * w);
    let (oh, ow) = spec.out_hw(h, w);
    let plen = spec.patch_len();
    debug_assert_eq!(out.len(), oh * ow * plen);
    let (kh, kw, stride, pad) = (spec.kh, spec.kw, spec.stride, spec.pad);
    for oy in 0..oh {
        for ox in 0..ow {
            let mut k = (oy * ow + ox) * plen;
            let ix0 = (ox * stride) as isize - pad as isize;
            let row_in_x = ix0 >= 0 && (ix0 as usize) + kw <= w;
            for c in 0..ci {
                let base = c * h * w;
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    let dst = &mut out[k..k + kw];
                    if row_in_x && iy >= 0 && (iy as usize) < h {
                        let src = base + iy as usize * w + ix0 as usize;
                        dst.copy_from_slice(&img[src..src + kw]);
                    } else {
                        for (kx, d) in dst.iter_mut().enumerate() {
                            let ix = ix0 + kx as isize;
                            *d = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                img[base + iy as usize * w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                    k += kw;
                }
            }
        }
    }
}

/// Lower one image `[ci, h, w]` (flat slice) into a patch matrix
/// `[oh*ow, ci*kh*kw]`.
pub fn im2col(img: &[f32], ci: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::zeros(&[oh * ow, spec.patch_len()]);
    im2col_into(img, ci, h, w, spec, out.as_mut_slice());
    out
}

/// The original per-element `im2col` (no contiguous-run fast path), kept
/// as the independent bitwise reference for the proptests.
pub fn im2col_ref(img: &[f32], ci: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    debug_assert_eq!(img.len(), ci * h * w);
    let (oh, ow) = spec.out_hw(h, w);
    let plen = spec.patch_len();
    let mut out = Tensor::zeros(&[oh * ow, plen]);
    let od = out.as_mut_slice();
    for oy in 0..oh {
        for ox in 0..ow {
            let row = (oy * ow + ox) * plen;
            let mut k = row;
            for c in 0..ci {
                let base = c * h * w;
                for ky in 0..spec.kh {
                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                    for kx in 0..spec.kw {
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        od[k] = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            img[base + iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        k += 1;
                    }
                }
            }
        }
    }
    out
}

/// Lower a whole batch `[n, ci, h, w]` into one stacked patch matrix
/// `[n*oh*ow, ci*kh*kw]` — image `i`'s rows land exactly where the
/// per-image loop would put them, images split across this thread's workers.
/// The conv passes lower one image at a time instead; this is the
/// minibatch-wide lowering for probes that time it on its own.
pub fn im2col_batch_into(
    input: &[f32],
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    out: &mut [f32],
) {
    let (oh, ow) = spec.out_hw(h, w);
    let block = oh * ow * spec.patch_len();
    let in_stride = ci * h * w;
    debug_assert_eq!(input.len(), n * in_stride);
    debug_assert_eq!(out.len(), n * block);
    parallel::for_each_chunk_mut(out, block, n * block, |img, oblk| {
        im2col_into(
            &input[img * in_stride..(img + 1) * in_stride],
            ci,
            h,
            w,
            spec,
            oblk,
        );
    });
}

/// [`im2col_batch_into`] allocating its `[n*oh*ow, ci*kh*kw]` output.
pub fn im2col_batch(input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let [n, ci, h, w] = nchw(input);
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::zeros(&[n * oh * ow, spec.patch_len()]);
    im2col_batch_into(input.as_slice(), n, ci, h, w, spec, out.as_mut_slice());
    out
}

/// Scatter a patch-matrix gradient slice `[oh*ow * ci*kh*kw]` back onto an
/// image gradient `[ci, h, w]` (accumulating; inverse of [`im2col_into`]).
///
/// Each `kw`-wide window row is one contiguous run of `img_grad`: the
/// in-bounds `kx` range is worked out once per output pixel, so the inner
/// loop is a plain slice add. Every `+=` lands in the order of the
/// per-element walk (out-of-bounds terms were never added).
// hot-path: gradient scatter, called per image per step — no allocation allowed
pub fn col2im_into(
    cols: &[f32],
    ci: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    img_grad: &mut [f32],
) {
    debug_assert_eq!(img_grad.len(), ci * h * w);
    let (oh, ow) = spec.out_hw(h, w);
    let plen = spec.patch_len();
    debug_assert_eq!(cols.len(), oh * ow * plen);
    let (kh, kw, stride, pad) = (spec.kh, spec.kw, spec.stride, spec.pad);
    for oy in 0..oh {
        for ox in 0..ow {
            let mut k = (oy * ow + ox) * plen;
            // Window columns `kx0..kx1` land on image columns `x0..`, the
            // part of `ix0 + kx` inside `0..w`.
            let ix0 = (ox * stride) as isize - pad as isize;
            let kx0 = (-ix0).clamp(0, kw as isize) as usize;
            let kx1 = (w as isize - ix0).clamp(kx0 as isize, kw as isize) as usize;
            let x0 = (ix0 + kx0 as isize) as usize;
            for c in 0..ci {
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy >= 0 && (iy as usize) < h && kx0 < kx1 {
                        let at = (c * h + iy as usize) * w + x0;
                        let dst = &mut img_grad[at..at + kx1 - kx0];
                        for (d, &v) in dst.iter_mut().zip(&cols[k + kx0..k + kx1]) {
                            *d += v;
                        }
                    }
                    k += kw;
                }
            }
        }
    }
}

/// Scatter a patch-matrix gradient `[oh*ow, ci*kh*kw]` back onto an image
/// gradient `[ci, h, w]` (accumulating; inverse of [`im2col`]).
pub fn col2im(
    cols: &Tensor,
    ci: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    img_grad: &mut [f32],
) {
    col2im_into(cols.as_slice(), ci, h, w, spec, img_grad);
}

/// Scatter a stacked batch patch-matrix gradient `[n*oh*ow, ci*kh*kw]`
/// back onto a batch image gradient `[n, ci, h, w]` (accumulating), each
/// image in the existing per-image scatter order, images split across this
/// thread's workers (their output slices are disjoint). Like
/// [`im2col_batch_into`], for probes: the conv passes scatter per image.
pub fn col2im_batch(
    cols: &[f32],
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    grad: &mut [f32],
) {
    let (oh, ow) = spec.out_hw(h, w);
    let block = oh * ow * spec.patch_len();
    let in_stride = ci * h * w;
    debug_assert_eq!(cols.len(), n * block);
    debug_assert_eq!(grad.len(), n * in_stride);
    parallel::for_each_chunk_mut(grad, in_stride, n * block, |img, gimg| {
        col2im_into(&cols[img * block..(img + 1) * block], ci, h, w, spec, gimg);
    });
}

/// `[n, ci, h, w]` of a 4-D tensor.
fn nchw(t: &Tensor) -> [usize; 4] {
    let d = t.dims();
    [d[0], d[1], d[2], d[3]]
}

fn forward_asserts(input: &Tensor, weight: &[f32], bias: &[f32], spec: &Conv2dSpec) {
    assert_eq!(input.dims()[1], spec.ci, "input channels mismatch");
    assert_eq!(
        weight.len(),
        spec.co * spec.patch_len(),
        "weight shape mismatch"
    );
    assert_eq!(bias.len(), spec.co, "bias length mismatch");
}

/// Forward convolution over a batch, scratch space from a [`Workspace`].
///
/// `input`: `[n, ci, h, w]`; `weight`: `[co, ci*kh*kw]` (pre-flattened,
/// row-major); `bias`: `[co]`. Returns `[n, co, oh, ow]`.
///
/// One region over the images: a worker lowers an image into its own patch
/// rows, multiplies them by `weightᵀ` (transposed once per call) on the
/// compacting NN kernel — the non-zeros of 16 patch rows at a time are
/// listed without a branch and each 32-channel panel of an output pixel is
/// folded over its row's list in registers, so the exact zeros of a
/// post-ReLU/dropout input (about 55 % of a patch row) and all zero padding
/// cost neither a multiply nor a mispredicted test — and writes the
/// `[npix, co]` product plus bias straight into that image's `[co, npix]`
/// output. Each output element is still the ascending-index fold of
/// `patch[l] · weight[co][l]` plus `bias[co]`, so for finite inputs results
/// are bitwise identical to the per-column `dot` of [`conv2d_forward_ref`].
// hot-path: all scratch comes from the Workspace arena
pub fn conv2d_forward_ws(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    ws: &mut Workspace,
) -> Tensor {
    let [n, ci, h, w] = nchw(input);
    forward_asserts(input, weight, bias, spec);
    let (oh, ow) = spec.out_hw(h, w);
    let (npix, plen, co) = (oh * ow, spec.patch_len(), spec.co);
    let in_stride = ci * h * w;

    let mut wt = ws.take_f32_uninit(plen * co);
    linalg::transpose_into(&mut wt, weight, co, plen);
    let work = n * npix * plen * co / parallel::MACS_PER_UNIT;
    // Per worker: one image's patch rows and its [npix, co] product.
    let mut scratch = ws.take_f32_uninit(parallel::workers(n, work) * npix * (plen + co));
    let mut od = ws.take_f32_uninit(n * co * npix);
    let x = input.as_slice();
    parallel::for_each_item_mut(
        n,
        work,
        &mut od,
        &mut scratch,
        &mut (),
        &mut [],
        |img, oimg, s, _| {
            let (cols, prod) = s.split_at_mut(npix * plen);
            im2col_into(
                &x[img * in_stride..(img + 1) * in_stride],
                ci,
                h,
                w,
                spec,
                cols,
            );
            linalg::matmul_into(prod, cols, &wt, npix, plen, co);
            for (c, orow) in oimg.chunks_mut(npix).enumerate() {
                let b = bias[c];
                for (pix, o) in orow.iter_mut().enumerate() {
                    *o = prod[pix * co + c] + b;
                }
            }
        },
    );
    ws.give_f32(wt);
    ws.give_f32(scratch);
    Tensor::from_vec(od, &[n, co, oh, ow])
}

/// Forward convolution over a batch (fresh scratch space per call; hot
/// loops should pass a persistent [`Workspace`] to [`conv2d_forward_ws`]).
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, bias: &[f32], spec: &Conv2dSpec) -> Tensor {
    conv2d_forward_ws(input, weight.as_slice(), bias, spec, &mut Workspace::new())
}

/// The original per-image forward path (one `im2col` + one small GEMM per
/// image, fresh allocations): the bitwise reference for the batched
/// kernel and the "before" baseline of the `hotpath` benchmark.
pub fn conv2d_forward_ref(
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: &Conv2dSpec,
) -> Tensor {
    let [n, ci, h, w] = nchw(input);
    forward_asserts(input, weight.as_slice(), bias, spec);
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::zeros(&[n, spec.co, oh, ow]);
    let in_stride = ci * h * w;
    let out_stride = spec.co * oh * ow;
    let id = input.as_slice();
    let wd = weight.as_slice();
    let plen = spec.patch_len();
    let work = n * out_stride * plen / parallel::MACS_PER_UNIT;
    parallel::for_each_chunk_mut(out.as_mut_slice(), out_stride, work, |img, oimg| {
        let cols = im2col_ref(&id[img * in_stride..(img + 1) * in_stride], ci, h, w, spec);
        // oimg[co][pix] = dot(weight[co], cols[pix]), one column at a time.
        let cd = cols.as_slice();
        for (co, orow) in oimg.chunks_mut(oh * ow).enumerate() {
            let wrow = &wd[co * plen..(co + 1) * plen];
            let b = bias[co];
            for (pix, o) in orow.iter_mut().enumerate() {
                *o = linalg::dot(wrow, &cd[pix * plen..(pix + 1) * plen]);
                *o += b;
            }
        }
    });
    out
}

/// Gradients of one convolution.
pub struct Conv2dGrads {
    /// `[n, ci, h, w]` gradient w.r.t. the input.
    pub dinput: Tensor,
    /// `[co, ci*kh*kw]` gradient w.r.t. the flattened weights.
    pub dweight: Tensor,
    /// `[co]` gradient w.r.t. the bias.
    pub dbias: Vec<f32>,
}

/// The backward region both entry points run: one pass over the images
/// that *accumulates* the weight and bias gradients into `dweight`
/// (`[co, ci*kh*kw]`) and `dbias` (`[co]`) and, given `Some((weight,
/// dinput))`, writes the input gradient `[n, ci, h, w]`.
///
/// Per image a worker lowers the patch rows again (trading FLOPs for
/// memory, as cuDNN's low-workspace algorithms do) and computes
/// `dW_img = G_img · cols_img` on the compacting NN kernel: the image's
/// NCHW `grad_out` block is `[co, npix]` — the left operand as it lies —
/// so every weight-gradient element is the ascending-pixel fold of
/// `g · patch` from `+0.0` with `g == 0.0` skipped, the reference's order.
/// `db` is the same fold of `g` alone. The caller's images add their
/// partials to the accumulators as they finish; the other workers' images
/// park theirs, folded in image order after the region. With `dinput` the
/// worker goes on to `Gᵀ_img · weight` (the patch gradient, ascending
/// output channel, zeros skipped) and scatters it through [`col2im_into`].
// hot-path: all scratch comes from the Workspace arena
fn backward_images(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    dweight: &mut [f32],
    dbias: &mut [f32],
    dinput: Option<(&[f32], &mut [f32])>,
    ws: &mut Workspace,
) {
    let [n, ci, h, w] = nchw(input);
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(
        grad_out.dims(),
        &[n, spec.co, oh, ow],
        "grad_out shape mismatch"
    );
    let (npix, plen, co) = (oh * ow, spec.patch_len(), spec.co);
    let wlen = co * plen;
    assert_eq!(dweight.len(), wlen, "dweight shape mismatch");
    assert_eq!(dbias.len(), co, "dbias length mismatch");
    let (in_stride, out_stride) = (ci * h * w, co * npix);

    let (weight, dx): (&[f32], &mut [f32]) = match dinput {
        Some((weight, dx)) => (weight, dx),
        None => (&[], &mut []),
    };
    let passes = if dx.is_empty() { 1 } else { 2 };
    let work = passes * n * npix * plen * co / parallel::MACS_PER_UNIT;
    // Per worker: one image's patch rows and dW/db partial, then — with
    // dinput — its Gᵀ and patch gradient.
    let per = npix * plen + wlen + co + (passes - 1) * npix * (co + plen);
    let mut scratch = ws.take_f32_uninit(parallel::workers(n, work) * per);
    let mut park = ws.take_f32_uninit((n - parallel::lead_items(n, work)) * (wlen + co));
    let (x, g) = (input.as_slice(), grad_out.as_slice());
    let mut acc = (dweight, dbias);
    parallel::for_each_item_mut(
        n,
        work,
        dx,
        &mut scratch,
        &mut acc,
        &mut park,
        |img, dimg, s, partial| {
            let (cols, s) = s.split_at_mut(npix * plen);
            let (own, s) = s.split_at_mut(wlen + co);
            im2col_into(
                &x[img * in_stride..(img + 1) * in_stride],
                ci,
                h,
                w,
                spec,
                cols,
            );
            let gimg = &g[img * out_stride..(img + 1) * out_stride];
            let (slot, lead) = match partial {
                parallel::Partial::Lead(acc) => (own, Some(acc)),
                parallel::Partial::Park(slot) => (slot, None),
            };
            let (dw, db) = slot.split_at_mut(wlen);
            linalg::matmul_into(dw, gimg, cols, co, npix, plen);
            for (b, grow) in db.iter_mut().zip(gimg.chunks(npix)) {
                *b = grow
                    .iter()
                    .filter(|&&v| v != 0.0)
                    .fold(0.0, |sum, &v| sum + v);
            }
            if let Some((dweight, dbias)) = lead {
                add_into(dweight, dw);
                add_into(dbias, db);
            }
            if !dimg.is_empty() {
                let (gt, dcols) = s.split_at_mut(npix * co);
                linalg::transpose_into(gt, gimg, co, npix);
                linalg::matmul_into(dcols, gt, weight, npix, co, plen);
                dimg.fill(0.0);
                col2im_into(dcols, ci, h, w, spec, dimg);
            }
        },
    );

    // Each accumulator element adds the parked partials in image order;
    // bands of elements are independent of each other.
    let (dweight, dbias) = acc;
    let band = parallel::block_len(wlen, park.len());
    parallel::for_each_chunk_mut(dweight, band, park.len(), |j, dband| {
        for p in park.chunks(wlen + co) {
            add_into(dband, &p[j * band..]);
        }
    });
    for p in park.chunks(wlen + co) {
        add_into(dbias, &p[wlen..]);
    }
    ws.give_f32(scratch);
    ws.give_f32(park);
}

/// `acc[i] += v[i]` over `acc`'s length.
fn add_into(acc: &mut [f32], v: &[f32]) {
    for (a, &b) in acc.iter_mut().zip(v) {
        *a += b;
    }
}

/// Backward convolution over a batch, scratch space from a [`Workspace`]:
/// returns `[n, ci, h, w]`, the gradient w.r.t. the input, and
/// *accumulates* the weight and bias gradients into `dweight`
/// (`[co, ci*kh*kw]`) and `dbias` (`[co]`).
///
/// `grad_out`: `[n, co, oh, ow]`. One region over the images; per image the
/// parameter partial, then the patch gradient scattered back through
/// `col2im` (see `backward_images`). Over `+0.0` accumulators bitwise
/// identical to [`conv2d_backward_ref`] at any thread count.
// hot-path: all scratch comes from the Workspace arena
pub fn conv2d_backward_ws(
    input: &Tensor,
    weight: &[f32],
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    dweight: &mut [f32],
    dbias: &mut [f32],
    ws: &mut Workspace,
) -> Tensor {
    let mut dinput = ws.take_f32_uninit(input.numel());
    backward_images(
        input,
        grad_out,
        spec,
        dweight,
        dbias,
        Some((weight, &mut dinput)),
        ws,
    );
    Tensor::from_vec(dinput, input.dims())
}

/// [`conv2d_backward_ws`] without the input gradient: accumulates bit for
/// bit the same `dweight` / `dbias` and skips each image's patch-gradient
/// product and `col2im` scatter — for the first layer of a model, whose
/// input gradient nobody reads.
// hot-path: all scratch comes from the Workspace arena
pub fn conv2d_backward_params_ws(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    dweight: &mut [f32],
    dbias: &mut [f32],
    ws: &mut Workspace,
) {
    backward_images(input, grad_out, spec, dweight, dbias, None, ws);
}

/// Backward convolution over a batch into fresh gradients (fresh scratch
/// space per call too; hot loops pass a persistent [`Workspace`] and their
/// accumulators to [`conv2d_backward_ws`]).
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Conv2dGrads {
    let mut dweight = Tensor::zeros(weight.dims());
    let mut dbias = vec![0.0f32; spec.co];
    let dinput = conv2d_backward_ws(
        input,
        weight.as_slice(),
        grad_out,
        spec,
        dweight.as_mut_slice(),
        &mut dbias,
        &mut Workspace::new(),
    );
    Conv2dGrads {
        dinput,
        dweight,
        dbias,
    }
}

/// The original per-image backward path (fused dW/db/dcols loop per image,
/// fresh allocations): the bitwise reference for the batched kernel and
/// the "before" baseline of the `hotpath` benchmark.
pub fn conv2d_backward_ref(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Conv2dGrads {
    let [n, ci, h, w] = nchw(input);
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(
        grad_out.dims(),
        &[n, spec.co, oh, ow],
        "grad_out shape mismatch"
    );
    let plen = spec.patch_len();
    let in_stride = ci * h * w;
    let out_stride = spec.co * oh * ow;
    let id = input.as_slice();
    let gd = grad_out.as_slice();
    let wd = weight.as_slice();

    // Per-image partials, reduced serially in image order afterwards so
    // the dweight/dbias sums accumulate identically at any thread count.
    let work = 2 * n * out_stride * plen / parallel::MACS_PER_UNIT;
    let partials: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = parallel::map_collect(n, work, |img| {
        let cols = im2col_ref(&id[img * in_stride..(img + 1) * in_stride], ci, h, w, spec);
        let cd = cols.as_slice();
        let gimg = &gd[img * out_stride..(img + 1) * out_stride];
        let mut dw = vec![0.0f32; spec.co * plen];
        let mut db = vec![0.0f32; spec.co];
        let mut dcols = Tensor::zeros(&[oh * ow, plen]);
        {
            let dc = dcols.as_mut_slice();
            for pix in 0..oh * ow {
                let patch = &cd[pix * plen..(pix + 1) * plen];
                let dpatch = &mut dc[pix * plen..(pix + 1) * plen];
                for co in 0..spec.co {
                    let g = gimg[co * oh * ow + pix];
                    if g == 0.0 {
                        continue;
                    }
                    db[co] += g;
                    let wrow = &wd[co * plen..(co + 1) * plen];
                    let dwrow = &mut dw[co * plen..(co + 1) * plen];
                    for k in 0..plen {
                        dwrow[k] += g * patch[k];
                        dpatch[k] += g * wrow[k];
                    }
                }
            }
        }
        let mut dimg = vec![0.0f32; in_stride];
        col2im(&dcols, ci, h, w, spec, &mut dimg);
        (dimg, dw, db)
    });

    let mut dinput = Tensor::zeros(&[n, ci, h, w]);
    let mut dweight = Tensor::zeros(&[spec.co, plen]);
    let mut dbias = vec![0.0f32; spec.co];
    for (img, (dimg, dw, db)) in partials.into_iter().enumerate() {
        dinput.as_mut_slice()[img * in_stride..(img + 1) * in_stride].copy_from_slice(&dimg);
        for (a, b) in dweight.as_mut_slice().iter_mut().zip(&dw) {
            *a += b;
        }
        for (a, b) in dbias.iter_mut().zip(&db) {
            *a += b;
        }
    }
    Conv2dGrads {
        dinput,
        dweight,
        dbias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedRng;

    fn naive_conv(input: &Tensor, weight: &Tensor, bias: &[f32], spec: &Conv2dSpec) -> Tensor {
        let [n, ci, h, w] = nchw(input);
        let (oh, ow) = spec.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, spec.co, oh, ow]);
        for img in 0..n {
            for (co, &bias_v) in bias.iter().enumerate().take(spec.co) {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut s = bias_v;
                        for c in 0..ci {
                            for ky in 0..spec.kh {
                                for kx in 0..spec.kw {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                        continue;
                                    }
                                    let wv = weight.as_slice()
                                        [co * spec.patch_len() + (c * spec.kh + ky) * spec.kw + kx];
                                    s += wv * input.at4(img, c, iy as usize, ix as usize);
                                }
                            }
                        }
                        let idx = out.idx4(img, co, oy, ox);
                        out.as_mut_slice()[idx] = s;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive_padded() {
        let spec = Conv2dSpec {
            ci: 3,
            co: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let mut r = SeedRng::new(1);
        let input = r.normal_tensor(&[2, 3, 6, 6], 1.0);
        let weight = r.normal_tensor(&[4, spec.patch_len()], 0.3);
        let bias = vec![0.1, -0.2, 0.3, 0.0];
        let fast = conv2d_forward(&input, &weight, &bias, &spec);
        let slow = naive_conv(&input, &weight, &bias, &spec);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn forward_matches_naive_strided_unpadded() {
        let spec = Conv2dSpec {
            ci: 2,
            co: 3,
            kh: 2,
            kw: 2,
            stride: 2,
            pad: 0,
        };
        let mut r = SeedRng::new(2);
        let input = r.normal_tensor(&[1, 2, 5, 5], 1.0);
        let weight = r.normal_tensor(&[3, spec.patch_len()], 0.3);
        let bias = vec![0.0; 3];
        assert!(conv2d_forward(&input, &weight, &bias, &spec)
            .allclose(&naive_conv(&input, &weight, &bias, &spec), 1e-4));
    }

    #[test]
    fn batched_forward_is_bitwise_reference() {
        let spec = Conv2dSpec {
            ci: 3,
            co: 5,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let mut r = SeedRng::new(12);
        let dense = r.normal_tensor(&[3, 3, 7, 7], 1.0);
        // Shaped like what conv2-4 see: ReLU then dropout zero most of the
        // entries (here ~3/4) — exact zeros the batched GEMM skips and the
        // per-image dot does not.
        let mut sparse = dense.clone();
        for v in sparse.as_mut_slice() {
            if *v < 0.0 || r.bernoulli(0.5) {
                *v = 0.0;
            }
        }
        let weight = r.normal_tensor(&[5, spec.patch_len()], 0.3);
        let bias = vec![0.1, -0.2, 0.3, 0.0, 0.7];
        for input in [dense, sparse] {
            let fast = conv2d_forward(&input, &weight, &bias, &spec);
            let reference = conv2d_forward_ref(&input, &weight, &bias, &spec);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&reference));
        }
    }

    #[test]
    fn batched_backward_is_bitwise_reference() {
        let spec = Conv2dSpec {
            ci: 2,
            co: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let mut r = SeedRng::new(13);
        let input = r.normal_tensor(&[3, 2, 6, 6], 1.0);
        let weight = r.normal_tensor(&[4, spec.patch_len()], 0.3);
        let (oh, ow) = spec.out_hw(6, 6);
        let mut grad_out = r.normal_tensor(&[3, 4, oh, ow], 1.0);
        // Exercise the zero-skip rule too.
        for (i, g) in grad_out.as_mut_slice().iter_mut().enumerate() {
            if i % 5 == 0 {
                *g = 0.0;
            }
        }
        let fast = conv2d_backward(&input, &weight, &grad_out, &spec);
        let reference = conv2d_backward_ref(&input, &weight, &grad_out, &spec);
        assert_eq!(fast.dinput.as_slice(), reference.dinput.as_slice());
        assert_eq!(fast.dweight.as_slice(), reference.dweight.as_slice());
        assert_eq!(fast.dbias, reference.dbias);
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        // Same convolution twice through one workspace (dirty buffers on
        // the second pass) must equal the fresh-allocation run.
        let spec = Conv2dSpec {
            ci: 2,
            co: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let mut r = SeedRng::new(14);
        let input = r.normal_tensor(&[2, 2, 5, 5], 1.0);
        let weight = r.normal_tensor(&[3, spec.patch_len()], 0.3);
        let bias = vec![0.1, 0.2, 0.3];
        let fresh = conv2d_forward(&input, &weight, &bias, &spec);
        let mut ws = Workspace::new();
        let first = conv2d_forward_ws(&input, weight.as_slice(), &bias, &spec, &mut ws);
        let f = first.as_slice().to_vec();
        ws.recycle(first);
        let second = conv2d_forward_ws(&input, weight.as_slice(), &bias, &spec, &mut ws);
        assert_eq!(second.as_slice(), fresh.as_slice());
        assert_eq!(second.as_slice(), &f[..]);
    }

    #[test]
    fn im2col_fast_path_matches_reference() {
        for &(h, w, spec) in &[
            (
                6usize,
                6usize,
                Conv2dSpec {
                    ci: 2,
                    co: 1,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    pad: 1,
                },
            ),
            (
                5,
                7,
                Conv2dSpec {
                    ci: 3,
                    co: 1,
                    kh: 2,
                    kw: 4,
                    stride: 2,
                    pad: 0,
                },
            ),
            (
                4,
                4,
                Conv2dSpec {
                    ci: 1,
                    co: 1,
                    kh: 5,
                    kw: 5,
                    stride: 1,
                    pad: 2,
                },
            ),
        ] {
            let mut r = SeedRng::new(15);
            let img = r.normal_tensor(&[spec.ci, h, w], 1.0);
            let fast = im2col(img.as_slice(), spec.ci, h, w, &spec);
            let reference = im2col_ref(img.as_slice(), spec.ci, h, w, &spec);
            assert_eq!(fast.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the two lowerings are adjoint,
        // which is exactly what backprop relies on.
        let spec = Conv2dSpec {
            ci: 2,
            co: 1,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let mut r = SeedRng::new(3);
        let x = r.normal_tensor(&[1, 2, 4, 4], 1.0);
        let cols = im2col(x.as_slice(), 2, 4, 4, &spec);
        let y = r.normal_tensor(&[cols.dims()[0], cols.dims()[1]], 1.0);
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let mut back = vec![0.0f32; 2 * 4 * 4];
        col2im(&y, 2, 4, 4, &spec, &mut back);
        let rhs: f32 = x.as_slice().iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = Conv2dSpec {
            ci: 2,
            co: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let mut r = SeedRng::new(4);
        let input = r.normal_tensor(&[1, 2, 4, 4], 1.0);
        let weight = r.normal_tensor(&[2, spec.patch_len()], 0.3);
        let bias = vec![0.05, -0.05];
        // Loss = sum of outputs; grad_out = ones.
        let (oh, ow) = spec.out_hw(4, 4);
        let grad_out = Tensor::full(&[1, 2, oh, ow], 1.0);
        let grads = conv2d_backward(&input, &weight, &grad_out, &spec);

        let eps = 1e-2f32;
        let base = conv2d_forward(&input, &weight, &bias, &spec).sum();
        // Check a scattering of weight coordinates.
        for &k in &[0usize, 5, 17, 20, 35] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[k] += eps;
            let up = conv2d_forward(&input, &wp, &bias, &spec).sum();
            let fd = (up - base) / eps;
            let an = grads.dweight.as_slice()[k];
            assert!(
                (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                "w[{k}]: fd {fd} vs {an}"
            );
        }
        // And input coordinates.
        for &k in &[0usize, 7, 15, 31] {
            let mut xp = input.clone();
            xp.as_mut_slice()[k] += eps;
            let up = conv2d_forward(&xp, &weight, &bias, &spec).sum();
            let fd = (up - base) / eps;
            let an = grads.dinput.as_slice()[k];
            assert!(
                (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                "x[{k}]: fd {fd} vs {an}"
            );
        }
        // Bias gradient of a sum-loss is the number of output pixels.
        for b in &grads.dbias {
            assert!((b - (oh * ow) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn macs_counting() {
        let spec = Conv2dSpec {
            ci: 3,
            co: 64,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 2,
        };
        // 32x32 output, 64 kernels, 75-long patches.
        assert_eq!(spec.forward_macs(32, 32), (32 * 32 * 64 * 75) as u64);
    }
}
