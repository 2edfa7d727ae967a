//! Matrix kernels: the workhorses behind the fully connected and
//! (via im2col) convolutional layers.
//!
//! Each product has one name. On a thread whose [`parallel`] width is above
//! 1 a large enough product is cut into one band of **independent output
//! rows** per worker; otherwise the same kernel walks all the rows. Within
//! one output element the reduction always runs in ascending inner-index
//! order with the same zero-skip, so the streaming, blocked and banded
//! walks produce bitwise identical results at any width — the property the
//! SASGD determinism contract needs, and what the proptests in
//! `tests/proptests.rs` check.
//!
//! The sequential NN GEMM (`mm_rows_blocked`) compacts, then accumulates in
//! registers. `A` is taken 16 rows and 128 columns at a time; the non-zero
//! `(l, a[i,l])` pairs of each row are written to a stack list without a
//! branch (`off[c] = l·n; val[c] = a; c += (a != 0.0) as usize`), and then
//! every 32-column panel of the output row is held in a `[f32; 32]`
//! accumulator, folded over that list in ascending `l` and stored once
//! (8-wide and scalar column tails the same way). What that replaces is one
//! `a == 0.0` test and one load–add–store of the output row through L1 *per
//! term*: on the 45 %-dense patch matrices a post-ReLU/dropout layer feeds
//! its convolution, the test mispredicts every other time, and the kernel
//! ran at 12–21 nominal GF/s where it now runs at 38–48 (`2·m·k·n` over
//! time, skipped zeros included; 20 → 20 on a dense `A` with hundreds of
//! output columns, where there was nothing to mispredict and a long row
//! amortised its round trip). A register panel *without* the compaction was
//! tried first and is slower than what it replaced — it pays the same
//! coin-flip branch once per panel instead of once per row (DESIGN.md §4h).
//! Bands of fewer than [`NT_VIA_NN_ROWS`] rows keep the streaming walk the
//! crate always had (`mm_rows_streamed`: 4 rows share each row of `B`, read
//! once and in order, 256 columns at a time), which is the right trade for
//! a batch-1 product against a 4 MB weight. Either walk, and any block
//! size, gives every output element the same terms in the same order from
//! the same `+0.0`: blocking changes only the *visit* order of (row,
//! column-panel) pairs, and storing and reloading an `f32` accumulator
//! between `k`-blocks is exact.
//!
//! The other inner loops are panel-vectorized: the axpy walks (TN, and the
//! streaming NN) cross the column panel in fixed 8-wide chunks plus a
//! scalar tail, and the dot-product kernel computes 8 output columns with 8
//! independent accumulators. Vectorizing across *columns* (independent
//! output elements) never reorders any single element's reduction, so this
//! is bitwise-invisible; it exists purely to break the FP-add latency chain
//! that a one-column scalar loop serializes on.
//!
//! Every GEMM also has a `*_into` entry point taking a caller-provided
//! output slice, so hot-path callers can feed buffers from a
//! [`Workspace`] instead of allocating per call.
//!
//! ## NT through the NN kernel
//!
//! `A · Bᵀ` has two kernels that give the same bits. The dot
//! kernel (`nt_rows`, behind [`matmul_nt_into`] / [`matmul_nt`]) reads a
//! row of `A` against eight rows of `B`: contiguous operands, but eight
//! strided streams and no zero-skip, about 8–9 GF/s on every shape. The NN
//! kernel (`mm_rows_blocked`, behind [`matmul_into`]) reads a row-major
//! right operand a 32-column panel at a time, which the compiler
//! vectorizes, and never multiplies an exact-zero entry of `A` — 20 GF/s on
//! a dense `A`, 38–48 nominal on the shapes training runs. So the layers'
//! NT seam, [`gemm_nt_ws`], transposes `B` into a [`Workspace`] buffer
//! (`n·k` moves against `2·m·n·k` flops) and runs the NN kernel whenever
//! the call has at least [`NT_VIA_NN_ROWS`] output rows: conv forward,
//! linear and temporal backward-dx at batch > 1 or on a sequence. GEMV-like
//! calls (batch-1 linears) stay on the dot kernel, where a transpose would
//! cost several times the product.
//!
//! Per output element both kernels fold `a[i,l]·b[j,l]` in ascending `l`
//! from `+0.0` with an unfused multiply and add. A skipped term is
//! `±0 · b = ±0` for finite `b`, and adding `±0` never changes an
//! accumulator that started at `+0.0` (it cannot reach `-0.0`: `x + (-x)`
//! rounds to `+0.0`). Hence **for finite inputs the two are bit-identical**
//! — `engine_golden` and every cross-backend test run unchanged through
//! the switch. The one divergence is the caveat NN and TN always carried:
//! an exact-zero `a` against a non-finite `b` is NaN in the dot kernel and
//! skipped (contributes nothing) in the NN kernel.

use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Row-block height of the streaming walk (`mm_rows_streamed`): rows of `A`
/// processed together, sharing each streamed row of `B`.
const MR: usize = 4;

/// Column-panel width of the streaming walk: output columns per pass, sized
/// so one panel of `C` plus a row of `B` stay in L1 (256 f32 = 1 KiB each).
const NC: usize = 256;

/// Width of the fixed vector panel in the inner kernels.
const VW: usize = 8;

/// Output rows at or above which [`gemm_nt_ws`] transposes `B` and runs the
/// NN kernel instead of the dot kernel. The transpose costs `n·k` moves
/// however few rows share it, so GEMV-like calls lose and a handful of rows
/// win: at `k,n = 1000,400` (the NLC temporal weight) 4 rows go 0.38 →
/// 0.48 ms, 8 rows break even, 16 rows 1.56 → 0.78 ms and 19 rows 1.43 →
/// 0.87 ms, while a batch-1 `1000×1000` linear would pay a 1.0 ms transpose
/// for a 0.24 ms dot. It is also where the NN kernel itself changes walk:
/// below it the streaming one, from it on the compacting one (a block of
/// rows has to share each slice of `B` for the compaction to pay). A
/// measured break-even with margin, not a setting: either side of it gives
/// the same bits.
pub const NT_VIA_NN_ROWS: usize = 16;

/// Row-block height of [`mm_rows_blocked`]: rows of `A` compacted together,
/// sharing each `KB`×`PW` slice of `B` while it is in L1.
const MB: usize = 16;

/// Inner-dimension block of [`mm_rows_blocked`]. 128 keeps the slice of `B`
/// under a panel (16 KiB) and the compaction lists (24 KiB, on the stack)
/// inside L1 together; measured, it is what puts the 19-row × `k = 1000`
/// NLC product ahead of the streaming walk rather than behind it (0.80 ms
/// streamed; 0.95 unblocked, 0.74 at 256, 0.64 at 128) and costs the conv
/// shapes nothing.
const KB: usize = 128;

/// Register-panel width of [`mm_rows_blocked`]: 32 `f32` accumulators are
/// eight 128-bit registers, half the baseline x86-64 file.
const PW: usize = 32;

/// Tile edge of [`transpose_into`]: a 32×32 `f32` tile touches 32 cache
/// lines on the strided side, well inside L1.
const TB: usize = 32;

/// `out = A · B` (`A: [m,k]`, `B: [k,n]`), the layers' NN seam:
/// [`matmul_into`]. The four `gemm_*_ws` seams share one signature, so
/// a layer passes its [`Workspace`] without knowing which of them draws
/// scratch from it (only [`gemm_nt_ws`] does: the NN kernel's compaction
/// lists are 24 KiB of stack).
// hot-path: GEMM seam (NN) — no allocation allowed
pub fn gemm_nn_ws(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    _ws: &mut Workspace,
) {
    matmul_into(out, a, b, m, k, n);
}

/// `out = A · Bᵀ` (`A: [m,k]`, `B: [n,k]`), the layers' NT seam.
/// [`NT_VIA_NN_ROWS`] or more output rows are computed as `A · (Bᵀ)` — `B`
/// transposed into a [`Workspace`] buffer, then [`matmul_into`] — and
/// fewer rows by the dot kernel [`matmul_nt_into`]. For finite inputs
/// the two are bitwise identical (module docs, *NT through the NN kernel*).
// hot-path: dispatched GEMM (NT) — the Bᵀ scratch comes from the Workspace
pub fn gemm_nt_ws(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
) {
    if m < NT_VIA_NN_ROWS {
        return matmul_nt_into(out, a, b, m, k, n);
    }
    assert_eq!(b.len(), n * k, "gemm_nt_ws rhs size");
    let mut bt = ws.take_f32_uninit(n * k);
    transpose_into(&mut bt, b, n, k);
    matmul_into(out, a, &bt, m, k, n);
    ws.give_f32(bt);
}

/// `out = Aᵀ · B` (`A: [k,m]`, `B: [k,n]`), the layers' TN seam:
/// [`matmul_tn_into`].
// hot-path: GEMM seam (TN) — no allocation allowed
pub fn gemm_tn_ws(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    _ws: &mut Workspace,
) {
    matmul_tn_into(out, a, b, k, m, n);
}

/// `out += Aᵀ · B`: [`gemm_tn_ws`] that accumulates, so a weight gradient
/// lands straight in its gradient block. It is [`matmul_tn_acc_into`]
/// — over a `+0.0`-filled `out`, bitwise [`gemm_tn_ws`].
// hot-path: weight-gradient GEMM seam — no allocation allowed
pub fn gemm_tn_acc_ws(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    _ws: &mut Workspace,
) {
    matmul_tn_acc_into(out, a, b, k, m, n);
}

/// `dst = srcᵀ` for row-major `src: [rows, cols]` (so `dst: [cols, rows]`),
/// walked in `TB`×`TB` tiles, bands of `dst` rows per worker. Pure data
/// movement; writes every element.
fn transpose_into(dst: &mut [f32], src: &[f32], rows: usize, cols: usize) {
    debug_assert_eq!(dst.len(), rows * cols);
    debug_assert_eq!(src.len(), rows * cols);
    if rows == 0 {
        return;
    }
    let band = parallel::block_len(cols, rows * cols);
    parallel::for_each_chunk_mut(dst, band * rows, rows * cols, |j, dband| {
        for r0 in (0..rows).step_by(TB) {
            let r1 = (r0 + TB).min(rows);
            for (t, dtile) in dband.chunks_mut(TB * rows).enumerate() {
                for (c, drow) in dtile.chunks_mut(rows).enumerate() {
                    let c = j * band + t * TB + c;
                    for (d, r) in drow[r0..r1].iter_mut().zip(r0..r1) {
                        *d = src[r * cols + c];
                    }
                }
            }
        }
    });
}

/// `orow += av * brow` over an 8-wide panel walk with a scalar tail.
/// Per element this is a single fused `+=` exactly like the scalar loop;
/// only the column walk is chunked, so results are bitwise unchanged.
#[inline]
fn axpy_row(orow: &mut [f32], brow: &[f32], av: f32) {
    debug_assert_eq!(orow.len(), brow.len());
    let mut oc = orow.chunks_exact_mut(VW);
    let mut bc = brow.chunks_exact(VW);
    for (og, bg) in oc.by_ref().zip(bc.by_ref()) {
        for t in 0..VW {
            og[t] += av * bg[t];
        }
    }
    for (o, &bv) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
        *o += av * bv;
    }
}

/// The streaming `out = A · B` walk, for a handful of rows: `MR` rows share
/// each row of `B`, read once and in order per `NC`-wide panel, and every
/// non-zero `a[i,l]` is one [`axpy_row`] into `out` — one branch and one trip
/// of the output row through L1 per term. That is the right trade for
/// GEMV-like calls against a large `B` (NLC's batch-1 linears read a 4 MB
/// weight exactly once) and the wrong one for tall products
/// ([`mm_rows_blocked`]).
fn mm_rows_streamed(out: &mut [f32], a: &[f32], b: &[f32], rows: usize, k: usize, n: usize) {
    out.iter_mut().for_each(|x| *x = 0.0);
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            for l in 0..k {
                let brow = &b[l * n + jc..l * n + jc + nc];
                for i in i0..i0 + mr {
                    let av = a[i * k + l];
                    if av == 0.0 {
                        continue;
                    }
                    let orow = &mut out[i * n + jc..i * n + jc + nc];
                    axpy_row(orow, brow, av);
                }
            }
            i0 += mr;
        }
        jc += nc;
    }
}

/// The non-zero entries of an `MB`×`KB` block of `A`: row `r`'s terms are
/// `off[r][..nnz[r]]` / `val[r][..nnz[r]]` in ascending `l`, each the
/// offset `l·n` of the row of `B` it multiplies and the value `a[r,l]`.
/// 24 KiB, on [`mm_rows_blocked`]'s stack.
struct Terms {
    off: [[usize; KB]; MB],
    val: [[f32; KB]; MB],
    nnz: [usize; MB],
}

impl Terms {
    /// List row `r`'s non-zeros among `arow`, a row of `A` from column `l0`
    /// on. Branch-free: every entry is stored and the cursor advances only
    /// past a non-zero, so `-0.0` is dropped and NaN kept exactly as the
    /// streaming walk's `a == 0.0` test decides.
    #[inline]
    fn compact(&mut self, r: usize, arow: &[f32], l0: usize, n: usize) {
        let (off, val) = (&mut self.off[r], &mut self.val[r]);
        let mut nnz = 0;
        for (l, &av) in arow.iter().enumerate() {
            off[nnz] = (l0 + l) * n;
            val[nnz] = av;
            nnz += usize::from(av != 0.0);
        }
        self.nnz[r] = nnz;
    }

    /// Columns `jc..jc + W` of every row of `oblk` (`[rows, n]`): hold the
    /// panel in a register accumulator — from `+0.0`, or with `resume` from
    /// what the row holds (an `f32` store and reload is exact) — fold
    /// `a · b[l, jc..jc + W]` over the row's list, store once.
    #[inline(always)]
    fn fold<const W: usize>(&self, oblk: &mut [f32], b: &[f32], n: usize, jc: usize, resume: bool) {
        for (r, orow) in oblk.chunks_mut(n).enumerate() {
            let opanel = &mut orow[jc..jc + W];
            let mut acc = [0.0f32; W];
            if resume {
                acc.copy_from_slice(opanel);
            }
            let nnz = self.nnz[r];
            for (&off, &av) in self.off[r][..nnz].iter().zip(&self.val[r][..nnz]) {
                let brow = &b[off + jc..][..W];
                for t in 0..W {
                    acc[t] += av * brow[t];
                }
            }
            opanel.copy_from_slice(&acc);
        }
    }
}

/// `out = A · B` on raw row-major slices for a band of rows:
/// `out: [rows, n]`, `a: [rows, k]`, `b: [k, n]`.
///
/// Compact, then accumulate in registers. `A` is taken `MB` rows and `KB`
/// columns at a time; each row's non-zeros go to a list ([`Terms`]), and
/// then every `PW`-column panel of `out` (8-wide and scalar tails alike) is
/// folded over that list in a register accumulator and stored once. The
/// only branch left is the loop bound, and the `KB`×`PW` slice of `B` a
/// panel reads stays in L1 across the block's rows.
///
/// Per element, terms accumulate from `+0.0` in ascending `l` with
/// `a[i,l] == 0` skipped — the order, seed and skip rule of
/// [`mm_rows_streamed`], which bands of fewer than [`NT_VIA_NN_ROWS`] rows
/// still take — so results are bitwise independent of the path and of
/// `MB`/`KB`/`PW`, for any input (NaN, `-0.0` and non-finite `b` included).
fn mm_rows_blocked(out: &mut [f32], a: &[f32], b: &[f32], rows: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), rows * n);
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(b.len(), k * n);
    if rows < NT_VIA_NN_ROWS || k == 0 || n == 0 {
        return mm_rows_streamed(out, a, b, rows, k, n);
    }
    let mut terms = Terms {
        off: [[0; KB]; MB],
        val: [[0.0; KB]; MB],
        nnz: [0; MB],
    };
    for (oblk, ablk) in out.chunks_mut(MB * n).zip(a.chunks(MB * k)) {
        for l0 in (0..k).step_by(KB) {
            let l1 = (l0 + KB).min(k);
            for (r, arow) in ablk.chunks(k).enumerate() {
                terms.compact(r, &arow[l0..l1], l0, n);
            }
            let resume = l0 > 0;
            let mut jc = 0;
            while jc + PW <= n {
                terms.fold::<PW>(oblk, b, n, jc, resume);
                jc += PW;
            }
            while jc + VW <= n {
                terms.fold::<VW>(oblk, b, n, jc, resume);
                jc += VW;
            }
            while jc < n {
                terms.fold::<1>(oblk, b, n, jc, resume);
                jc += 1;
            }
        }
    }
}

/// Run `kernel(r0, rows, oband)` over the `m` output rows of an `m·k·n`
/// product (`out: [m, n]`): one call for all of them on the calling thread,
/// or — when the product is large enough for this thread's width — one
/// band of `rows` rows from `r0` per worker.
fn for_each_band(
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    kernel: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let work = m * k * n / parallel::MACS_PER_UNIT;
    let band = parallel::block_len(m, work);
    if band >= m {
        return kernel(0, m, out);
    }
    parallel::for_each_chunk_mut(out, band * n, work, |j, oband| {
        kernel(j * band, oband.len() / n, oband);
    });
}

/// `out = A · B` on raw slices (cache-blocked), one band of output rows per
/// worker when the product is large enough for this thread's width.
// hot-path: per-minibatch GEMM — no allocation allowed
pub fn matmul_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), m * n, "matmul_into output size");
    assert_eq!(a.len(), m * k, "matmul_into lhs size");
    assert_eq!(b.len(), k * n, "matmul_into rhs size");
    for_each_band(out, (m, k, n), |r0, rows, oband| {
        mm_rows_blocked(oband, &a[r0 * k..(r0 + rows) * k], b, rows, k, n);
    });
}

/// `C = A · B` for `A: [m,k]`, `B: [k,n]` ([`matmul_into`] into a fresh
/// tensor).
///
/// # Panics
/// Panics if inner dimensions disagree or inputs are not matrices.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(out.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
    out
}

/// Rows `i0..i0 + rows` of `out += Aᵀ · B` (`oband: [rows, n]`),
/// `l`-outer: streams the band's columns of `A` and every row of `B` once.
/// Each element folds its terms onto what `oband` held, in ascending `l`
/// with `a[l,i] == 0` skipped.
fn tn_acc_band(
    oband: &mut [f32],
    a: &[f32],
    b: &[f32],
    (i0, rows): (usize, usize),
    k: usize,
    m: usize,
    n: usize,
) {
    for l in 0..k {
        let arow = &a[l * m + i0..l * m + i0 + rows];
        let brow = &b[l * n..(l + 1) * n];
        // Indexed, not `chunks_mut(n).zip(arow)`: seven in eight entries of
        // a conv layer's `Gᵀ` are zeros, and a skipped entry should cost a
        // load and a compare, not a slice split.
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy_row(&mut oband[i * n..(i + 1) * n], brow, av);
        }
    }
}

/// `out += Aᵀ · B` on raw slices for `A: [k,m]`, `B: [k,n]`, one band of
/// output rows per worker when large. Over a `+0.0`-filled `out` this is
/// [`matmul_tn_into`] bit for bit; and since a `+0.0`-seeded sum is never
/// `-0.0`, so is `0 + (0 + Σ)` — a temporary product added to a zeroed
/// accumulator.
// hot-path: weight-gradient GEMM, accumulated in place — no allocation allowed
pub fn matmul_tn_acc_into(out: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
    assert_eq!(out.len(), m * n, "matmul_tn_into output size");
    assert_eq!(a.len(), k * m, "matmul_tn_into lhs size");
    assert_eq!(b.len(), k * n, "matmul_tn_into rhs size");
    for_each_band(out, (m, k, n), |i0, rows, oband| {
        tn_acc_band(oband, a, b, (i0, rows), k, m, n);
    });
}

/// `out = Aᵀ · B` on raw slices for `A: [k,m]`, `B: [k,n]`: a `+0.0` fill,
/// then [`matmul_tn_acc_into`].
// hot-path: weight-gradient GEMM — no allocation allowed
pub fn matmul_tn_into(out: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
    out.fill(0.0);
    matmul_tn_acc_into(out, a, b, k, m, n);
}

/// `C = Aᵀ · B` for `A: [k,m]`, `B: [k,n]` without materializing `Aᵀ`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_tn_acc_into(out.as_mut_slice(), a.as_slice(), b.as_slice(), k, m, n);
    out
}

/// Band of rows of `C = A · Bᵀ`: each element is a dot product in
/// ascending `l` (no zero-skip, matching [`dot`]).
///
/// Columns are computed in panels of 8 with 8 *independent* accumulators —
/// each accumulator runs the exact `dot` fold for its own column, so the
/// panel walk is bitwise identical to calling [`dot`] per column while
/// letting 8 FP-add chains overlap instead of serializing on one.
pub(crate) fn nt_rows(out: &mut [f32], a: &[f32], b: &[f32], rows: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), rows * n);
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(b.len(), n * k);
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + VW <= n {
            let bs: [&[f32]; VW] = core::array::from_fn(|t| &b[(j + t) * k..(j + t + 1) * k]);
            let mut acc = [0.0f32; VW];
            for (l, &av) in arow.iter().enumerate() {
                for t in 0..VW {
                    acc[t] += av * bs[t][l];
                }
            }
            orow[j..j + VW].copy_from_slice(&acc);
            j += VW;
        }
        for jj in j..n {
            orow[jj] = dot(arow, &b[jj * k..(jj + 1) * k]);
        }
    }
}

/// `out = A · Bᵀ` on raw slices for `A: [m,k]`, `B: [n,k]` (the dot
/// kernel), one band of output rows per worker when large.
// hot-path: conv/linear forward GEMM — no allocation allowed
pub fn matmul_nt_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), m * n, "matmul_nt_into output size");
    assert_eq!(a.len(), m * k, "matmul_nt_into lhs size");
    assert_eq!(b.len(), n * k, "matmul_nt_into rhs size");
    for_each_band(out, (m, k, n), |r0, rows, oband| {
        nt_rows(oband, &a[r0 * k..(r0 + rows) * k], b, rows, k, n);
    });
}

/// `C = A · Bᵀ` for `A: [m,k]`, `B: [n,k]` without materializing `Bᵀ`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_nt_into(out.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
    out
}

/// Dot product of two equal-length slices.
#[inline]
// hot-path: innermost reduction — no allocation allowed
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // An explicit fold from +0.0: `Iterator::sum` starts `f32` sums at
    // -0.0 on current toolchains, which would make an all-(-0.0) (or empty)
    // dot differ in sign from the +0.0-seeded panel accumulators.
    a.iter().zip(b).fold(0.0f32, |s, (x, y)| s + x * y)
}

/// `y[j] += sum_i m[i][j]` — column sums accumulated into `y` (bias grads).
// hot-path: bias gradient accumulation — no allocation allowed
pub fn col_sums_into(m: &Tensor, y: &mut [f32]) {
    let (rows, cols) = (m.dims()[0], m.dims()[1]);
    assert_eq!(y.len(), cols, "col_sums_into width mismatch");
    let md = m.as_slice();
    for r in 0..rows {
        for (yj, &v) in y.iter_mut().zip(&md[r * cols..(r + 1) * cols]) {
            *yj += v;
        }
    }
}

/// Add a bias row vector to every row of a matrix in place.
// hot-path: bias add — no allocation allowed
pub fn add_bias_rows(m: &mut Tensor, bias: &[f32]) {
    let cols = m.dims()[1];
    assert_eq!(bias.len(), cols, "bias width mismatch");
    for row in m.as_mut_slice().chunks_mut(cols) {
        for (x, &b) in row.iter_mut().zip(bias) {
            *x += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a.as_slice()[i * k + l] * b.as_slice()[l * n + j];
                }
                c.as_mut_slice()[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let mut r = SeedRng::new(1);
        let a = r.normal_tensor(&[7, 5], 1.0);
        let b = r.normal_tensor(&[5, 9], 1.0);
        assert!(matmul(&a, &b).allclose(&naive(&a, &b), 1e-4));
    }

    #[test]
    fn blocked_kernel_handles_panel_boundaries() {
        // Shapes straddling the block edges of both walks.
        let mut r = SeedRng::new(7);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 3, 255),
            (9, 2, 257),
            (4, 4, 512),
            (3, 5, 7),
            (2, 3, 8),
            (6, 2, 9),
            // At and past the row cutover: MB, KB, PW and VW edges.
            (16, 128, 32),
            (17, 129, 41),
            (35, 300, 75),
        ] {
            let a = r.normal_tensor(&[m, k], 1.0);
            let b = r.normal_tensor(&[k, n], 1.0);
            assert!(
                matmul(&a, &b).allclose(&naive(&a, &b), 1e-3),
                "mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn banded_equals_single_band_bitwise() {
        // Big enough for the grain rule at widths 2 and 3 (uneven bands).
        let mut r = SeedRng::new(2);
        let a = r.normal_tensor(&[400, 160], 1.0);
        let b = r.normal_tensor(&[160, 100], 1.0);
        let at = r.normal_tensor(&[160, 400], 1.0);
        let bt = r.normal_tensor(&[100, 160], 1.0);
        let (nn, tn, nt) = (matmul(&a, &b), matmul_tn(&at, &b), matmul_nt(&a, &bt));
        for width in [2, 3] {
            let before = parallel::regions_taken();
            parallel::with_width(width, || {
                assert_eq!(
                    matmul(&a, &b).as_slice(),
                    nn.as_slice(),
                    "nn, width {width}"
                );
                assert_eq!(
                    matmul_tn(&at, &b).as_slice(),
                    tn.as_slice(),
                    "tn, width {width}"
                );
                assert_eq!(
                    matmul_nt(&a, &bt).as_slice(),
                    nt.as_slice(),
                    "nt, width {width}"
                );
            });
            assert!(
                parallel::regions_taken() >= before + 3,
                "width {width} never fanned out"
            );
        }
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let mut r = SeedRng::new(3);
        let a = r.normal_tensor(&[6, 4], 1.0);
        let b = r.normal_tensor(&[6, 5], 1.0);
        // A^T B where A:[6,4] -> At:[4,6]
        let mut at = Tensor::zeros(&[4, 6]);
        for i in 0..6 {
            for j in 0..4 {
                at.as_mut_slice()[j * 6 + i] = a.as_slice()[i * 4 + j];
            }
        }
        assert!(matmul_tn(&a, &b).allclose(&naive(&at, &b), 1e-4));

        let c = r.normal_tensor(&[3, 4], 1.0);
        let d = r.normal_tensor(&[7, 4], 1.0);
        let mut dt = Tensor::zeros(&[4, 7]);
        for i in 0..7 {
            for j in 0..4 {
                dt.as_mut_slice()[j * 7 + i] = d.as_slice()[i * 4 + j];
            }
        }
        assert!(matmul_nt(&c, &d).allclose(&naive(&c, &dt), 1e-4));
    }

    #[test]
    fn nt_panel_kernel_matches_per_column_dot() {
        // The 8-accumulator panel must equal the scalar dot per column at
        // the bit level, across panel-boundary widths.
        let mut r = SeedRng::new(9);
        for &(m, k, n) in &[(3usize, 5usize, 1usize), (2, 7, 8), (4, 3, 9), (1, 16, 23)] {
            let a = r.normal_tensor(&[m, k], 1.0);
            let b = r.normal_tensor(&[n, k], 1.0);
            let fast = matmul_nt(&a, &b);
            for i in 0..m {
                for j in 0..n {
                    let want = dot(
                        &a.as_slice()[i * k..(i + 1) * k],
                        &b.as_slice()[j * k..(j + 1) * k],
                    );
                    let got = fast.as_slice()[i * n + j];
                    assert_eq!(got.to_bits(), want.to_bits(), "({m},{k},{n}) at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn into_variants_match_tensor_variants_bitwise() {
        let mut r = SeedRng::new(11);
        let a = r.normal_tensor(&[70, 13], 1.0);
        let b = r.normal_tensor(&[13, 19], 1.0);
        let mut out = vec![1.0f32; 70 * 19]; // dirty buffer: kernels must overwrite
        matmul_into(&mut out, a.as_slice(), b.as_slice(), 70, 13, 19);
        assert_eq!(out, matmul(&a, &b).as_slice());

        let at = r.normal_tensor(&[13, 70], 1.0);
        let mut out = vec![1.0f32; 70 * 19];
        matmul_tn_into(&mut out, at.as_slice(), b.as_slice(), 13, 70, 19);
        assert_eq!(out, matmul_tn(&at, &b).as_slice());

        let bt = r.normal_tensor(&[19, 13], 1.0);
        let mut out = vec![1.0f32; 70 * 19];
        matmul_nt_into(&mut out, a.as_slice(), bt.as_slice(), 70, 13, 19);
        assert_eq!(out, matmul_nt(&a, &bt).as_slice());
    }

    #[test]
    fn identity_is_neutral() {
        let mut r = SeedRng::new(4);
        let a = r.normal_tensor(&[5, 5], 1.0);
        assert!(matmul(&a, &Tensor::eye(5)).allclose(&a, 1e-6));
        assert!(matmul(&Tensor::eye(5), &a).allclose(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn bias_and_col_sums() {
        let mut m = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        add_bias_rows(&mut m, &[10., 20.]);
        assert_eq!(m.as_slice(), &[11., 22., 13., 24.]);
        let mut sums = vec![0.0; 2];
        col_sums_into(&m, &mut sums);
        assert_eq!(sums, vec![24., 46.]);
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_folds_from_positive_zero() {
        // `Iterator::sum` seeds f32 sums with -0.0, so a dot whose every
        // product is -0.0 (or an empty one) used to come back -0.0 while
        // the +0.0-seeded panel accumulators of the same row said +0.0.
        assert_eq!(dot(&[], &[]).to_bits(), 0);
        assert_eq!(dot(&[0.0; 5], &[-1.0; 5]).to_bits(), 0);
        // n = 12: columns 0..8 take the panel, 8..12 the `dot` tail.
        let (m, k, n) = (16, 5, 12);
        let c = matmul_nt(&Tensor::zeros(&[m, k]), &Tensor::full(&[n, k], -1.0));
        for (i, v) in c.as_slice().iter().enumerate() {
            assert_eq!(v.to_bits(), 0, "column {} is not +0.0", i % n);
        }
    }

    #[test]
    fn transpose_into_handles_ragged_tiles() {
        // The last shape is past the grain rule: two bands at width 2.
        for &(rows, cols) in &[
            (1usize, 1usize),
            (1, 70),
            (70, 1),
            (33, 65),
            (64, 32),
            (700, 801),
        ] {
            let src: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            for width in [1, 2] {
                let mut dst = vec![f32::NAN; rows * cols];
                parallel::with_width(width, || transpose_into(&mut dst, &src, rows, cols));
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(dst[c * rows + r], src[r * cols + c], "{rows}x{cols}");
                    }
                }
            }
        }
    }

    #[test]
    fn nt_dispatch_keeps_gemv_rows_on_the_dot_kernel() {
        // The transposed copy is the only thing `gemm_nt_ws` parks in an
        // empty workspace, so `pooled()` tells which kernel ran.
        let (k, n) = (37, 11);
        let mut r = SeedRng::new(21);
        let b = r.normal_tensor(&[n, k], 1.0);
        for (m, via_nn) in [
            (1, false),
            (NT_VIA_NN_ROWS - 1, false),
            (NT_VIA_NN_ROWS, true),
            (3 * NT_VIA_NN_ROWS, true),
        ] {
            let a = r.normal_tensor(&[m, k], 1.0);
            let mut ws = Workspace::new();
            let mut got = vec![f32::NAN; m * n];
            gemm_nt_ws(&mut got, a.as_slice(), b.as_slice(), m, k, n, &mut ws);
            assert_eq!(ws.pooled(), usize::from(via_nn), "m = {m}");
            assert_eq!(got, matmul_nt(&a, &b).as_slice(), "m = {m}");
        }
    }

    #[test]
    fn nt_dispatch_diverges_only_on_zero_times_non_finite() {
        // The one stated divergence: an exact-zero `a` against a
        // non-finite `b` is NaN in the dot kernel and skipped by the axpy
        // kernel — the caveat NN and TN have always carried.
        let (k, n) = (4, 3);
        let mut b = vec![1.0f32; n * k];
        b[k + 2] = f32::INFINITY; // B[1, 2]
        let mut ws = Workspace::new();
        for (m, skipped) in [(NT_VIA_NN_ROWS - 1, false), (NT_VIA_NN_ROWS, true)] {
            let mut a = vec![1.0f32; m * k];
            a[2] = 0.0; // A[0, 2] meets B[1, 2]
            let mut out = vec![0.0f32; m * n];
            gemm_nt_ws(&mut out, &a, &b, m, k, n, &mut ws);
            assert_eq!(out[0], 3.0, "finite column, m = {m}");
            assert_eq!(out[n + 1], f32::INFINITY, "1·inf row, m = {m}");
            if skipped {
                assert_eq!(out[1], 3.0, "0·inf skipped, m = {m}");
            } else {
                assert!(out[1].is_nan(), "0·inf = NaN in the dot kernel, m = {m}");
            }
        }
    }
}
