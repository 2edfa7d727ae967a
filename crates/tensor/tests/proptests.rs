//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for arbitrary shapes and data.

use proptest::prelude::*;
use sasgd_tensor::conv::{
    col2im, col2im_batch, conv2d_backward, conv2d_backward_params_ws, conv2d_backward_ws,
    conv2d_forward, conv2d_forward_ws, im2col, im2col_batch, im2col_ref, Conv2dSpec,
};
use sasgd_tensor::pool::{maxpool2d_backward, maxpool2d_forward, Pool2dSpec};
use sasgd_tensor::shape::{conv_out, pool_out};
use sasgd_tensor::{linalg, parallel, SeedRng, Tensor, Workspace};

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    SeedRng::new(seed).normal_tensor(dims, 1.0)
}

/// A `[m, k]` left operand shaped like a post-ReLU/dropout activation:
/// entries survive with probability `density`, the rest are exact zeros of
/// both signs, and one whole row is zero.
fn sparse_operand(m: usize, k: usize, density: f32, seed: u64) -> Vec<f32> {
    let mut r = SeedRng::new(seed);
    let zero_row = r.below(m);
    (0..m * k)
        .map(|i| {
            let v = r.normal();
            if i / k != zero_row && r.bernoulli(density) {
                v
            } else if i % 3 == 0 {
                -0.0
            } else {
                0.0
            }
        })
        .collect()
}

/// Bit patterns, so `-0.0` and `+0.0` compare unequal.
fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Bit patterns with every NaN mapped to one: which operand's payload a
/// NaN-meets-NaN add or multiply keeps is the compiler's operand order, not
/// the kernel's arithmetic.
fn bits_nan_canonical(x: &[f32]) -> Vec<u32> {
    let canon = |v: &f32| if v.is_nan() { f32::NAN } else { *v }.to_bits();
    x.iter().map(canon).collect()
}

/// The NN product by definition: each element the ascending-`l` fold of
/// `a[i,l] · b[l,j]` from `+0.0`, terms with `a[i,l] == 0` skipped.
fn naive_skip_zero_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for l in (0..k).filter(|&l| a[i * k + l] != 0.0) {
                out[i * n + j] += a[i * k + l] * b[l * n + j];
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compacting_nn_kernel_is_bitwise_the_streaming_walk_and_the_naive_fold(
        mi in 0usize..5, ni in 0usize..9, ki in 0usize..3, di in 0usize..4, seed in 0u64..1000
    ) {
        // Rows either side of the 16-row cutover and of the 16-row block;
        // widths straddling the 32- and 8-column panels and the scalar
        // tail; `k` below, at and across the 128-term block.
        let m = [15, 16, 17, 33, 150][mi];
        let n = [1, 7, 8, 31, 32, 33, 40, 75, 257][ni];
        let k = [1, 75, 288][ki];
        let mut a = sparse_operand(m, k, [0.0, 0.1, 0.45, 1.0][di], seed);
        let mut b = rand_tensor(&[k, n], seed + 1).into_vec();
        // Non-finite `b` in one row `l`, met by an exact zero (row 0:
        // skipped, never touched), a negative zero (row 1: skipped too) and
        // a non-zero (row 2); NaN and both infinities planted in `A`.
        let mut r = SeedRng::new(seed + 2);
        let l = r.below(k);
        for special in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            b[l * n + r.below(n)] = special;
            a[r.below(m) * k + r.below(k)] = special;
        }
        a[l] = 0.0;
        a[k + l] = -0.0;
        a[2 * k + l] = 1.5;

        // Oracle (i): one row per call is the < 16-row streaming walk.
        let mut streamed = vec![f32::NAN; m * n];
        for (orow, arow) in streamed.chunks_mut(n).zip(a.chunks(k)) {
            linalg::matmul_into(orow, arow, &b, 1, k, n);
        }
        // Oracle (ii): the definition.
        let naive = naive_skip_zero_nn(&a, &b, m, k, n);
        prop_assert_eq!(bits_nan_canonical(&streamed), bits_nan_canonical(&naive));

        let mut ws = Workspace::new();
        let mut got = vec![f32::NAN; m * n];
        linalg::matmul_into(&mut got, &a, &b, m, k, n);
        prop_assert_eq!(bits_nan_canonical(&got), bits_nan_canonical(&naive));
        // In uneven bands where the product is large enough to be cut.
        got.fill(f32::NAN);
        parallel::with_width(3, || linalg::matmul_into(&mut got, &a, &b, m, k, n));
        prop_assert_eq!(bits_nan_canonical(&got), bits_nan_canonical(&naive));
        got.fill(f32::NAN);
        linalg::gemm_nn_ws(&mut got, &a, &b, m, k, n, &mut ws);
        prop_assert_eq!(bits_nan_canonical(&got), bits_nan_canonical(&naive));
        // The compaction lists live on the stack: the NN seam neither draws
        // from the workspace nor parks anything in it.
        prop_assert_eq!(ws.pooled(), 0);

        // The NT seam's only scratch is the transposed `B`; a second call
        // reuses the parked buffer.
        let bt = rand_tensor(&[n, k], seed + 3);
        for _ in 0..2 {
            linalg::gemm_nt_ws(&mut got, &a, bt.as_slice(), m, k, n, &mut ws);
            prop_assert_eq!(ws.pooled(), usize::from(m >= linalg::NT_VIA_NN_ROWS));
        }
    }

    #[test]
    fn nt_dispatch_is_bitwise_dot_kernel(
        mi in 0usize..4, k in 1usize..70, n in 1usize..40, di in 0usize..3, seed in 0u64..1000
    ) {
        // Below the row cutover `gemm_nt_ws` is the dot kernel; at and above
        // it, transpose + the zero-skipping NN kernel. Same bits either way.
        let m = [1, linalg::NT_VIA_NN_ROWS - 1, linalg::NT_VIA_NN_ROWS, 150][mi];
        let a = sparse_operand(m, k, [1.0, 0.45, 0.05][di], seed);
        let b = rand_tensor(&[n, k], seed + 1);
        let mut want = vec![f32::NAN; m * n];
        linalg::matmul_nt_into(&mut want, &a, b.as_slice(), m, k, n);
        let mut got = vec![f32::NAN; m * n];
        linalg::gemm_nt_ws(&mut got, &a, b.as_slice(), m, k, n, &mut Workspace::new());
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn tn_accumulate_over_zeros_is_bitwise_the_overwriting_kernel(
        ki in 0usize..3, mi in 0usize..4, n in 1usize..40, di in 0usize..3, seed in 0u64..1000
    ) {
        // `A` carries exact zeros of both signs and a zero row, and both
        // operands a sprinkling of subnormals.
        let (k, m) = ([1, 3, 19][ki], [1, 7, 40, 150][mi]);
        let denorm = |x: &mut [f32]| x.iter_mut().step_by(7).for_each(|v| *v *= 1.0e-41);
        let mut a = sparse_operand(k, m, [1.0, 0.45, 0.05][di], seed);
        let mut b = rand_tensor(&[k, n], seed + 1).into_vec();
        denorm(&mut a);
        denorm(&mut b);
        let mut ws = Workspace::new();
        let mut want = vec![f32::NAN; m * n];
        linalg::gemm_tn_ws(&mut want, &a, &b, k, m, n, &mut ws);

        // The TN and NN seams are the slice kernels bit for bit (the NN
        // row reads the same `a` as an `[m, k]` operand).
        let mut reference = vec![f32::NAN; m * n];
        linalg::matmul_tn_into(&mut reference, &a, &b, k, m, n);
        prop_assert_eq!(bits(&want), bits(&reference));
        linalg::matmul_into(&mut reference, &a, &b, m, k, n);
        let mut nn = vec![f32::NAN; m * n];
        linalg::gemm_nn_ws(&mut nn, &a, &b, m, k, n, &mut ws);
        prop_assert_eq!(bits(&nn), bits(&reference));

        // Over a +0.0 block: the overwriting kernel's bits, which are also
        // those of the old "product into a temporary, added to a zeroed
        // accumulator".
        let mut got = vec![0.0f32; m * n];
        linalg::gemm_tn_acc_ws(&mut got, &a, &b, k, m, n, &mut ws);
        prop_assert_eq!(bits(&got), bits(&want));
        let temp_then_add: Vec<f32> = want.iter().map(|t| 0.0 + t).collect();
        prop_assert_eq!(bits(&got), bits(&temp_then_add));

        // Over what an earlier backward left: it adds (a second identical
        // pass doubles the gradient), up to the reassociation.
        let base = rand_tensor(&[m, n], seed + 2).into_vec();
        let mut acc = base.clone();
        linalg::gemm_tn_acc_ws(&mut acc, &a, &b, k, m, n, &mut ws);
        for ((g, b0), t) in acc.iter().zip(&base).zip(&want) {
            prop_assert!((g - (b0 + t)).abs() <= 1e-5 * (1.0 + b0.abs() + t.abs()),
                "{} vs {} + {}", g, b0, t);
        }
    }

    #[test]
    fn conv_forward_is_bitwise_serial_reference(
        n in 1usize..5, ci in 1usize..4, co in 1usize..8,
        kside in 1usize..4, side in 4usize..10, pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        // The batch-parallel conv must match a straight-line serial
        // reference with the kernel's exact accumulation order: per image,
        // out[co][pix] = dot(weight[co], cols[pix]) then + bias[co].
        let spec = Conv2dSpec { ci, co, kh: kside, kw: kside, stride: 1, pad };
        let input = rand_tensor(&[n, ci, side, side], seed);
        let weight = rand_tensor(&[co, spec.patch_len()], seed + 1);
        let bias: Vec<f32> = (0..co).map(|c| c as f32 * 0.1 - 0.2).collect();
        let out = conv2d_forward(&input, &weight, &bias, &spec);

        let (oh, ow) = spec.out_hw(side, side);
        let plen = spec.patch_len();
        let in_stride = ci * side * side;
        let mut expect = Vec::with_capacity(n * co * oh * ow);
        for img in 0..n {
            let cols = im2col(
                &input.as_slice()[img * in_stride..(img + 1) * in_stride],
                ci, side, side, &spec,
            );
            for (wrow, &b) in weight.as_slice().chunks(plen).zip(&bias) {
                for pix in 0..oh * ow {
                    let patch = &cols.as_slice()[pix * plen..(pix + 1) * plen];
                    let mut v = linalg::dot(wrow, patch);
                    v += b;
                    expect.push(v);
                }
            }
        }
        prop_assert_eq!(out.as_slice(), &expect[..]);
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000
    ) {
        let a = rand_tensor(&[m, k], seed);
        let b1 = rand_tensor(&[k, n], seed + 1);
        let mut b2 = rand_tensor(&[k, n], seed + 2);
        // A(B1+B2) == AB1 + AB2 (within fp tolerance).
        let mut sum_b = b1.clone();
        sum_b.add_assign(&b2);
        let lhs = linalg::matmul(&a, &sum_b);
        let mut rhs = linalg::matmul(&a, &b1);
        rhs.add_assign(&linalg::matmul(&a, &b2));
        prop_assert!(lhs.allclose(&rhs, 1e-3));
        b2.zero_();
        prop_assert_eq!(b2.sum(), 0.0);
    }

    #[test]
    fn matmul_identity_neutral(m in 1usize..12, n in 1usize..12, seed in 0u64..1000) {
        let a = rand_tensor(&[m, n], seed);
        prop_assert!(linalg::matmul(&a, &Tensor::eye(n)).allclose(&a, 1e-5));
        prop_assert!(linalg::matmul(&Tensor::eye(m), &a).allclose(&a, 1e-5));
    }

    #[test]
    fn transpose_kernels_agree(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
        // (A^T)^T B  via matmul_tn on A^T equals plain A·B.
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed + 1);
        let mut at = Tensor::zeros(&[k, m]);
        for i in 0..m {
            for j in 0..k {
                at.as_mut_slice()[j * m + i] = a.as_slice()[i * k + j];
            }
        }
        let via_tn = linalg::matmul_tn(&at, &b);
        let plain = linalg::matmul(&a, &b);
        prop_assert!(via_tn.allclose(&plain, 1e-4));
        // A·B^T via matmul_nt on B^T equals plain.
        let mut bt = Tensor::zeros(&[n, k]);
        for i in 0..k {
            for j in 0..n {
                bt.as_mut_slice()[j * k + i] = b.as_slice()[i * n + j];
            }
        }
        let via_nt = linalg::matmul_nt(&a, &bt);
        prop_assert!(via_nt.allclose(&plain, 1e-4));
    }

    #[test]
    fn conv_is_linear_in_input(
        h in 4usize..9, w in 4usize..9, pad in 0usize..2, seed in 0u64..500
    ) {
        let spec = Conv2dSpec { ci: 2, co: 3, kh: 3, kw: 3, stride: 1, pad };
        if h + 2 * pad < 3 || w + 2 * pad < 3 {
            return Ok(());
        }
        let x1 = rand_tensor(&[1, 2, h, w], seed);
        let x2 = rand_tensor(&[1, 2, h, w], seed + 1);
        let weight = rand_tensor(&[3, spec.patch_len()], seed + 2);
        let zeros = vec![0.0f32; 3];
        let mut sum_x = x1.clone();
        sum_x.add_assign(&x2);
        let lhs = conv2d_forward(&sum_x, &weight, &zeros, &spec);
        let mut rhs = conv2d_forward(&x1, &weight, &zeros, &spec);
        rhs.add_assign(&conv2d_forward(&x2, &weight, &zeros, &spec));
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn conv_1x1_is_channel_mixing(h in 2usize..6, w in 2usize..6, seed in 0u64..500) {
        // A 1×1 conv is a per-pixel linear map over channels.
        let spec = Conv2dSpec { ci: 2, co: 2, kh: 1, kw: 1, stride: 1, pad: 0 };
        let x = rand_tensor(&[1, 2, h, w], seed);
        let weight = rand_tensor(&[2, 2], seed + 1);
        let bias = vec![0.1f32, -0.2];
        let out = conv2d_forward(&x, &weight, &bias, &spec);
        for y in 0..h {
            for xx in 0..w {
                for (co, &b) in bias.iter().enumerate() {
                    let expect = weight.as_slice()[co * 2] * x.at4(0, 0, y, xx)
                        + weight.as_slice()[co * 2 + 1] * x.at4(0, 1, y, xx)
                        + b;
                    prop_assert!((out.at4(0, co, y, xx) - expect).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn im2col_rows_are_real_patches(h in 3usize..7, w in 3usize..7, seed in 0u64..500) {
        let spec = Conv2dSpec { ci: 1, co: 1, kh: 2, kw: 2, stride: 1, pad: 0 };
        let x = rand_tensor(&[1, 1, h, w], seed);
        let cols = im2col(x.as_slice(), 1, h, w, &spec);
        let (oh, ow) = spec.out_hw(h, w);
        for oy in 0..oh {
            for ox in 0..ow {
                let row = &cols.as_slice()[(oy * ow + ox) * 4..(oy * ow + ox) * 4 + 4];
                prop_assert_eq!(row[0], x.at4(0, 0, oy, ox));
                prop_assert_eq!(row[3], x.at4(0, 0, oy + 1, ox + 1));
            }
        }
    }

    #[test]
    fn maxpool_dominates_every_window_element(
        h in 2usize..8, w in 2usize..8, seed in 0u64..500
    ) {
        let x = rand_tensor(&[1, 1, h, w], seed);
        let f = maxpool2d_forward(&x, &Pool2dSpec::square(2));
        let (oh, ow) = Pool2dSpec::square(2).out_hw(h, w);
        for oy in 0..oh {
            for ox in 0..ow {
                let m = f.output.at4(0, 0, oy, ox);
                for ky in 0..2 {
                    for kx in 0..2 {
                        prop_assert!(m >= x.at4(0, 0, 2 * oy + ky, 2 * ox + kx));
                    }
                }
            }
        }
    }

    #[test]
    fn shape_formulas_are_consistent(input in 1usize..64, k in 1usize..6, s in 1usize..4) {
        // Padding with k-1 always admits the kernel; output is positive and
        // non-increasing in stride.
        let pad = k - 1;
        let o1 = conv_out(input, k, 1, pad);
        prop_assert!(o1 >= input, "full padding never shrinks below input");
        let os = conv_out(input, k, s, pad);
        prop_assert!(os >= 1 && os <= o1);
        if input >= k {
            let p1 = pool_out(input, k, s);
            prop_assert!(p1 >= 1);
        }
    }

    #[test]
    fn axpy_and_scale_algebra(n in 1usize..50, alpha in -2.0f32..2.0, seed in 0u64..500) {
        let a = rand_tensor(&[n], seed);
        let b = rand_tensor(&[n], seed + 1);
        // a + α·b computed two ways.
        let mut lhs = a.clone();
        lhs.axpy(alpha, &b);
        let mut scaled = b.clone();
        scaled.scale(alpha);
        let mut rhs = a.clone();
        rhs.add_assign(&scaled);
        prop_assert!(lhs.allclose(&rhs, 1e-5));
    }

    #[test]
    fn im2col_batch_matches_per_image_loop(
        n in 1usize..5, ci in 1usize..4, kside in 1usize..4,
        side in 3usize..9, pad in 0usize..3, stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec { ci, co: 1, kh: kside, kw: kside, stride, pad };
        if side + 2 * pad < kside {
            return Ok(());
        }
        let input = rand_tensor(&[n, ci, side, side], seed);
        let batched = im2col_batch(&input, &spec);
        let (oh, ow) = spec.out_hw(side, side);
        let plen = spec.patch_len();
        let in_stride = ci * side * side;
        // Rows for image i must land exactly where the per-image loop
        // (old implementation) puts them.
        let mut expect = Vec::with_capacity(n * oh * ow * plen);
        for img in 0..n {
            let cols = im2col_ref(
                &input.as_slice()[img * in_stride..(img + 1) * in_stride],
                ci, side, side, &spec,
            );
            expect.extend_from_slice(cols.as_slice());
        }
        prop_assert_eq!(batched.as_slice(), &expect[..]);
    }

    #[test]
    fn col2im_batch_matches_per_image_loop(
        n in 1usize..5, ci in 1usize..4, kside in 1usize..4,
        side in 3usize..9, pad in 0usize..3, stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec { ci, co: 1, kh: kside, kw: kside, stride, pad };
        if side + 2 * pad < kside {
            return Ok(());
        }
        let (oh, ow) = spec.out_hw(side, side);
        let plen = spec.patch_len();
        let cols = rand_tensor(&[n * oh * ow, plen], seed);
        let in_stride = ci * side * side;
        let mut batched = vec![0.0f32; n * in_stride];
        col2im_batch(cols.as_slice(), n, ci, side, side, &spec, &mut batched);
        let mut expect = vec![0.0f32; n * in_stride];
        for img in 0..n {
            let block = Tensor::from_vec(
                cols.as_slice()[img * oh * ow * plen..(img + 1) * oh * ow * plen].to_vec(),
                &[oh * ow, plen],
            );
            col2im(
                &block, ci, side, side, &spec,
                &mut expect[img * in_stride..(img + 1) * in_stride],
            );
        }
        prop_assert_eq!(&batched[..], &expect[..]);
    }

    #[test]
    fn conv_workspace_reuse_is_bitwise_fresh(
        n in 1usize..4, ci in 1usize..3, co in 1usize..5,
        side in 4usize..8, seed in 0u64..1000,
    ) {
        // Runs through a dirty, reused arena must equal fresh allocations.
        let spec = Conv2dSpec { ci, co, kh: 3, kw: 3, stride: 1, pad: 1 };
        let input = rand_tensor(&[n, ci, side, side], seed);
        let weight = rand_tensor(&[co, spec.patch_len()], seed + 1);
        let bias: Vec<f32> = (0..co).map(|c| 0.05 * c as f32).collect();
        let fresh_fwd = conv2d_forward(&input, &weight, &bias, &spec);
        let grad = rand_tensor(fresh_fwd.dims(), seed + 2);
        let fresh_bwd = conv2d_backward(&input, &weight, &grad, &spec);

        let mut ws = Workspace::new();
        let w = weight.as_slice();
        for _ in 0..2 {
            let fwd = conv2d_forward_ws(&input, w, &bias, &spec, &mut ws);
            let (mut dw, mut db) = (vec![0.0f32; w.len()], vec![0.0f32; co]);
            let dinput = conv2d_backward_ws(&input, w, &grad, &spec, &mut dw, &mut db, &mut ws);
            prop_assert_eq!(fwd.as_slice(), fresh_fwd.as_slice());
            prop_assert_eq!(dinput.as_slice(), fresh_bwd.dinput.as_slice());
            prop_assert_eq!(&dw[..], fresh_bwd.dweight.as_slice());
            prop_assert_eq!(&db, &fresh_bwd.dbias);
            // The parameter half on its own: the same bits, no dinput.
            let (mut dw_only, mut db_only) = (vec![0.0f32; w.len()], vec![0.0f32; co]);
            conv2d_backward_params_ws(&input, &grad, &spec, &mut dw_only, &mut db_only, &mut ws);
            prop_assert_eq!(bits(&dw_only), bits(&dw));
            prop_assert_eq!(bits(&db_only), bits(&db));
            ws.recycle(fwd);
            ws.recycle(dinput);
        }
    }

    #[test]
    fn argmax_is_maximal(n in 1usize..60, seed in 0u64..500) {
        let t = rand_tensor(&[n], seed);
        let i = t.argmax().expect("nonempty");
        let max = t.as_slice().iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        prop_assert_eq!(t.as_slice()[i], max);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The three `*_parallel_is_bitwise_equal` properties: a product gives
    // the same bits whatever width the calling thread has. Shapes straddle
    // the grain rule (4–6 M multiply–adds), so some cases stay one band
    // and the rest are cut in two and in three (uneven) bands.
    #[test]
    fn matmul_parallel_is_bitwise_equal(
        m in 300usize..700, k in 80usize..160, n in 50usize..100, seed in 0u64..1000
    ) {
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed + 1);
        let s = linalg::matmul(&a, &b);
        for width in [2, 3] {
            let p = parallel::with_width(width, || linalg::matmul(&a, &b));
            prop_assert_eq!(s.as_slice(), p.as_slice());
        }
    }

    #[test]
    fn matmul_tn_parallel_is_bitwise_equal(
        k in 80usize..160, m in 300usize..700, n in 50usize..100, seed in 0u64..1000
    ) {
        let a = rand_tensor(&[k, m], seed);
        let b = rand_tensor(&[k, n], seed + 1);
        let s = linalg::matmul_tn(&a, &b);
        for width in [2, 3] {
            let p = parallel::with_width(width, || linalg::matmul_tn(&a, &b));
            prop_assert_eq!(s.as_slice(), p.as_slice());
        }
    }

    #[test]
    fn matmul_nt_parallel_is_bitwise_equal(
        m in 300usize..700, k in 80usize..160, n in 50usize..100, seed in 0u64..1000
    ) {
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[n, k], seed + 1);
        let s = linalg::matmul_nt(&a, &b);
        for width in [2, 3] {
            let p = parallel::with_width(width, || linalg::matmul_nt(&a, &b));
            prop_assert_eq!(s.as_slice(), p.as_slice());
        }
    }
}

/// Width invariance for the banded kernels: the same calls under widths 1,
/// 2, 3 and 4 (3 does not divide the 8 images: uneven blocks) must give
/// bitwise-equal outputs, and the wide runs must really have fanned out.
/// Shapes are sized past the grain rule for every region of the conv and
/// pool kernels.
#[test]
fn kernels_are_bitwise_invariant_to_thread_count() {
    let spec = Conv2dSpec {
        ci: 8,
        co: 64,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let input = rand_tensor(&[8, 8, 32, 32], 99);
    let weight = rand_tensor(&[64, spec.patch_len()], 100);
    let bias = vec![0.1f32; 64];
    let pool = Pool2dSpec::square(2);
    // An NT product large enough to band at every width below.
    let (m, k, n) = (600, 137, 141);
    let nt_a = sparse_operand(m, k, 0.45, 101);
    let nt_b = rand_tensor(&[n, k], 102);
    let mut nt_serial = vec![f32::NAN; m * n];
    linalg::matmul_nt_into(&mut nt_serial, &nt_a, nt_b.as_slice(), m, k, n);

    let mut runs = Vec::new();
    for width in [1usize, 2, 3, 4] {
        let regions = parallel::regions_taken();
        runs.push(parallel::with_width(width, || {
            let mut nt = vec![f32::NAN; m * n];
            let mut ws = Workspace::new();
            linalg::gemm_nt_ws(&mut nt, &nt_a, nt_b.as_slice(), m, k, n, &mut ws);
            assert_eq!(bits(&nt), bits(&nt_serial), "NT dispatch at width {width}");
            let fwd = conv2d_forward(&input, &weight, &bias, &spec);
            let grad = Tensor::full(fwd.dims(), 0.5);
            let back = conv2d_backward(&input, &weight, &grad, &spec);
            let pf = maxpool2d_forward(&fwd, &pool);
            let pb = maxpool2d_backward(&pf.output, &pf.argmax, fwd.numel());
            (
                fwd.as_slice().to_vec(),
                back.dinput.as_slice().to_vec(),
                back.dweight.as_slice().to_vec(),
                back.dbias,
                pf.output.as_slice().to_vec(),
                pf.argmax,
                pb.as_slice().to_vec(),
            )
        }));
        if width > 1 {
            // NT, im2col ×2, the two conv GEMMs, both transposition
            // passes, the partials, col2im and the two pool passes.
            let fanned = parallel::regions_taken() - regions;
            assert!(
                fanned >= 10,
                "width {width}: only {fanned} regions fanned out"
            );
        }
    }
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "kernel outputs changed with width"
    );
}
