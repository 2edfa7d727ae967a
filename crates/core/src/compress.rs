//! Gradient compression for sparse aggregation — the paper's "sparse
//! gradient aggregation" direction grown into an adaptive family.
//!
//! Every scheme carries **error feedback** (the part of the gradient a
//! round drops is folded into the next round's accumulator, so nothing is
//! permanently lost). [`ErrorFeedback`] is that round, once: one rank's
//! residual and schedule state, `encode` turning an accumulated gradient
//! into the payload the allreduce carries, `absorb` taking back what the
//! sparse tree trimmed. Each rank's exchange holds one and puts its payload
//! on the wire collectives, on either backend.
//!
//! * [`Compression::Uniform8Bit`] — linear quantization of every value to
//!   8 bits with a per-vector scale;
//! * [`Compression::Sparse`] — sparsification: a [`KSchedule`] chooses
//!   this round's k (fixed — [`Compression::topk`] is the plain spelling —
//!   norm-adaptive à la Deng et al., or allocated layer-wise by per-block
//!   gradient norm), optionally composed with 8-bit value quantization
//!   (`q8`) and a union-growth bound in the sparse tree reduce
//!   (`union_bound`).
//!
//! **The round** is two streaming passes over the codec's own residual and
//! one that reads only what can win; it builds no dense temporary
//! (DESIGN.md §4j): (A) `residual += gs` fused with per-block sums of
//! squares and the largest magnitude key of each 16-coordinate group,
//! counted in a histogram of group tops; (B) per block, that histogram
//! bounds the k-th largest key, and exact selection runs over only the
//! groups whose top reaches the bound, straight into the payload; (C) the
//! residual norm. Exactly k per block, larger magnitude first, ties to the
//! lower index, exact zeros never kept. [`Compression::compress_with`] is
//! a dense-form wrapper over the same round, so there is one selection
//! implementation.
//!
//! **NaN policy**: a NaN coordinate's selection key is that of +∞, so
//! selection always keeps it and the poison surfaces downstream instead
//! of making the kept set arbitrary. The f32 wire transmits the NaN
//! as-is; the 8-bit value lane cannot represent it, so quantized frames
//! drop that coordinate and the NaN stays in the error-feedback residual,
//! where it resurfaces every round rather than vanishing.
//!
//! **Quantized exactness**: quantization happens at *compression* time —
//! the payload holds exactly `q·scale` per coordinate, and the
//! quantization error lives in the residual. The wire can therefore ship
//! `(q, scale)` and the receiver's `q·scale` reconstruction is bitwise
//! identical to the sender's, keeping the tree reduce a plain f32 sum.
//!
//! [`Compression::wire_elements`] prices one leaf frame for the α–β cost
//! model; [`Compression::round_wire_bounds`] brackets the exact f32
//! element count a whole tree allreduce moves on the real wire, and the
//! engine's wire-accounting test reconciles it against the threaded
//! backend's traffic counters.

use sasgd_comm::sparse::{
    dense8_frame_elements, sparse8_frame_elements, sparse_frame_elements, SparseTreeOpts, SparseVec,
};

/// Histogram bins of the selection pass: the top 11 bits of a 31-bit
/// magnitude key (8 exponent + 3 mantissa bits).
const BINS: usize = 2048;
/// `key >> KEY_SHIFT` is a key's bin.
const KEY_SHIFT: u32 = 20;
/// The key of `±Inf` — and, by the NaN policy, of every NaN.
const INF_KEY: u32 = 0x7f80_0000;
/// Elements a streaming pass handles at a time: one tile of the residual
/// stays in L1 while the add, the sum of squares and the group maxima
/// each run their own loop over it. A multiple of [`LANES`] and of
/// [`GROUP`].
const TILE: usize = 4096;
/// Coordinates per group: pass A records each group's largest key, and
/// pass B reads only the groups whose top can make the cut. A block's
/// groups start at its first coordinate and never straddle two tiles.
const GROUP: usize = 16;
/// Independent f64 accumulators of [`sum_sq`]; element `i` feeds lane
/// `i % LANES`.
const LANES: usize = 8;

/// Selection key: the magnitude's bit pattern, which orders like the
/// magnitude itself. NaN maps to the +∞ key so it is always kept (see the
/// module-level NaN policy); `±0.0` is key 0.
fn key(v: f32) -> u32 {
    (v.to_bits() & 0x7fff_ffff).min(INF_KEY)
}

/// Add the squares of `v` into `acc`, lane `i % LANES` taking element `i`.
// hot-path: one pass over a residual tile
fn sq_lanes(acc: &mut [f64; LANES], v: &[f32]) {
    let mut chunks = v.chunks_exact(LANES);
    for c in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(c) {
            let x = f64::from(x);
            *a += x * x;
        }
    }
    for (a, &x) in acc.iter_mut().zip(chunks.remainder()) {
        let x = f64::from(x);
        *a += x * x;
    }
}

/// The lanes of [`sq_lanes`] combined pairwise, always in this order.
fn fold_lanes(a: &[f64; LANES]) -> f64 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

/// `Σ v²` in f64 over [`LANES`] fixed lanes: one serial f64 chain is
/// add-latency bound (≈ 3 ms at 1.7 M elements), eight vectorise. The
/// split is part of the definition, so the same input gives the same
/// bits everywhere. NaN coordinates yield NaN (callers treat that as
/// "hold the schedule steady").
// hot-path: the residual-norm pass
fn sum_sq(v: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    sq_lanes(&mut acc, v);
    fold_lanes(&acc)
}

/// Snap `v` onto the 8-bit grid `{-127..127}·scale`, returning the
/// reconstruction. `0` reconstructions are canonical `+0.0` (never
/// `-0.0`) so sparse wire frames, which drop exact zeros, round-trip the
/// dense form bitwise. NaN maps to `0.0` — the grid cannot carry it; the
/// caller's residual keeps the NaN alive.
fn quantize8(v: f32, scale: f32) -> f32 {
    if v.is_nan() {
        return 0.0;
    }
    let q = (v / scale).round().clamp(-127.0, 127.0);
    if q == 0.0 {
        0.0
    } else {
        q * scale
    }
}

/// Quantization scale for a vector whose largest magnitude is `maxabs`,
/// clamped away from zero: a subnormal `maxabs` used to underflow
/// `maxabs/127` to `0.0`, turning every `(v/scale)` into NaN (bugfix).
fn q8_scale_for(maxabs: f32) -> f32 {
    (maxabs / 127.0).max(f32::MIN_POSITIVE)
}

/// Reused buffers of the selection passes, so a steady-state round
/// allocates nothing but its payload.
#[derive(Default)]
struct Scratch {
    /// One [`BINS`]-bin histogram per block: of its group tops after pass
    /// A, then of its candidates' keys once pass B has them.
    hist: Vec<u32>,
    /// The top bin of each [`GROUP`], block by block (a block's groups
    /// start at its first coordinate).
    tops: Vec<u16>,
    /// `‖input‖₂` per block.
    norms: Vec<f64>,
    /// The candidate groups of the block in hand, in index order.
    visit: Vec<u32>,
    /// A copy of each candidate group's coordinates.
    cands: Vec<[f32; GROUP]>,
    /// Keys of the candidates inside the bucket holding the k-th.
    keys: Vec<u32>,
}

/// The largest key in `group`, folded over four `i32` lanes (keys are
/// below 2³¹, so signed lanes order them, and SSE2 has a signed 32-bit
/// compare but no unsigned one), then clamped so NaN keeps the +∞ key.
fn group_top(group: &[f32; GROUP]) -> u32 {
    let mut lanes = [0i32; 4];
    for quad in group.chunks_exact(4) {
        for (l, &v) in lanes.iter_mut().zip(quad) {
            *l = (*l).max((v.to_bits() & 0x7fff_ffff) as i32);
        }
    }
    let top = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    (top as u32).min(INF_KEY)
}

/// Bit `i` set for each coordinate `i` of `group` whose key is at least
/// `floor`. Up to [`INF_KEY`] the raw magnitude bits decide (a NaN's
/// bits pass every floor its +∞ key passes); no key lies above it.
fn at_or_above(group: &[f32; GROUP], floor: u32) -> u32 {
    if floor > INF_KEY {
        return 0;
    }
    let mut mask = 0;
    for (i, &v) in group.iter().enumerate() {
        mask |= u32::from((v.to_bits() & 0x7fff_ffff) as i32 >= floor as i32) << i;
    }
    mask
}

/// Up to [`GROUP`] coordinates as a whole group, zero-padded (a zero
/// is never a top, a candidate or a winner).
fn padded(coords: &[f32]) -> [f32; GROUP] {
    coords.try_into().unwrap_or_else(|_| {
        let mut group = [0.0; GROUP];
        group[..coords.len()].copy_from_slice(coords);
        group
    })
}

/// The bin of `hist` holding its k-th largest entry, and how many entries
/// the bins above it hold (always fewer than `k`); bin 0 when the whole
/// histogram holds fewer than `k`.
fn descend(hist: &[u32], k: usize) -> (usize, usize) {
    let (mut bin, mut above) = (BINS - 1, 0);
    while bin > 0 && above + (hist[bin] as usize) < k {
        above += hist[bin] as usize;
        bin -= 1;
    }
    (bin, above)
}

/// Pass A over one block: `res += gs` in place (when there is a `gs`),
/// returning the block's `Σ res²`, writing the top bin of each of its
/// groups to `tops` and counting them in `hist` — one increment per
/// [`GROUP`] coordinates.
// hot-path: touches every coordinate once per round
fn accumulate(res: &mut [f32], gs: Option<&[f32]>, hist: &mut [u32], tops: &mut [u16]) -> f64 {
    hist.fill(0);
    let mut acc = [0.0f64; LANES];
    for (t, tile) in res.chunks_mut(TILE).enumerate() {
        if let Some(gs) = gs {
            for (r, &g) in tile.iter_mut().zip(&gs[t * TILE..]) {
                *r += g;
            }
        }
        sq_lanes(&mut acc, tile);
        let tops = &mut tops[t * (TILE / GROUP)..];
        for (top, group) in tops.iter_mut().zip(tile.chunks(GROUP)) {
            let bin = group_top(&padded(group)) >> KEY_SHIFT;
            *top = bin as u16; // < BINS
            hist[bin as usize] += 1;
        }
    }
    fold_lanes(&acc)
}

/// Pass B over block `j`, `res[lo..lo + len]`, whose groups start at
/// `tops[g0]`: move its `k` largest-magnitude coordinates into `out` in
/// index order, zeroing their residual slots (unless `q8`, whose kept
/// slots take the quantization error later).
///
/// Exact, and blind to most of the block. Let `b` be the bin holding the
/// k-th largest group top: at least `k` distinct coordinates have keys at
/// or above `b`'s floor, so every winner does too, and sits in a group
/// whose top is in bin `b` or higher. Only those candidate groups are
/// read — copied out first, so their scattered reads overlap. A histogram
/// of their keys names the bucket holding the k-th; everything in a
/// higher bucket is kept, and the bucket's own keys are resolved in full —
/// larger key first, ties to the lower index. When `k` is at least the
/// number of groups the bound cuts nothing, and this is the per-coordinate
/// histogram pass A no longer makes. Exact zeros are never kept (they
/// carry no mass), so a block with fewer than `k` nonzeros keeps exactly
/// its nonzeros, and `k ≥ len` keeps every nonzero (lossless).
// hot-path: reads only the groups that can hold a winner
fn select_block(
    scratch: &mut Scratch,
    (j, g0): (usize, usize),
    res: &mut [f32],
    lo: usize,
    k: usize,
    q8: bool,
    out: &mut SparseVec,
) {
    let Scratch {
        hist,
        tops,
        visit,
        cands,
        keys,
        ..
    } = scratch;
    let hist = &mut hist[j * BINS..][..BINS];
    let tops = &tops[g0..][..res.len().div_ceil(GROUP)];
    // The bound, and the candidate groups: listed with no branch per
    // group, then copied.
    let (bound, _) = descend(hist, k);
    visit.clear();
    visit.resize(tops.len(), 0);
    let mut n = 0;
    for (g, &top) in tops.iter().enumerate() {
        visit[n] = g as u32;
        n += usize::from(usize::from(top) >= bound);
    }
    visit.truncate(n);
    cands.clear();
    cands.extend(visit.iter().map(|&g| {
        let at = g as usize * GROUP;
        padded(&res[at..res.len().min(at + GROUP)])
    }));
    // The candidates' keys at or above the bound's floor, histogrammed:
    // the bucket holding the k-th, and how many of the k it supplies.
    // Increments go round-robin to four tables, so a run of equal keys
    // does not serialise on store forwarding.
    let floor = ((bound as u32) << KEY_SHIFT).max(1);
    let mut tables = [[0u32; BINS]; 4];
    for group in cands.iter() {
        for (i, v) in group.iter().enumerate() {
            let bits = v.to_bits() & 0x7fff_ffff;
            tables[i % 4][(bits.min(INF_KEY) >> KEY_SHIFT) as usize] += u32::from(bits >= floor);
        }
    }
    for (b, h) in hist.iter_mut().enumerate() {
        *h = tables[0][b] + tables[1][b] + tables[2][b] + tables[3][b];
    }
    let (bucket, above) = descend(hist, k);
    let need = k - above;
    // The exact k-th key and how many coordinates tied at it make the cut.
    let floor = ((bucket as u32) << KEY_SHIFT).max(1);
    let ceil = (bucket as u32 + 1) << KEY_SHIFT;
    keys.clear();
    for group in cands.iter() {
        let mut mask = at_or_above(group, floor) & !at_or_above(group, ceil);
        while mask != 0 {
            keys.push(key(group[mask.trailing_zeros() as usize]));
            mask &= mask - 1;
        }
    }
    let (kth, mut ties) = if keys.len() < need {
        (0, 0) // the bucket ran out of nonzeros: every candidate is kept
    } else {
        let (larger, &mut kth, _) = keys.select_nth_unstable_by(need - 1, |a, b| b.cmp(a));
        (kth, need - larger.iter().filter(|&&key| key > kth).count())
    };
    // Emit in index order until the k are out.
    let mut left = k;
    for (&g, group) in visit.iter().zip(cands.iter()) {
        let mut mask = at_or_above(group, kth.max(1));
        while mask != 0 && left > 0 {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let key = key(group[c]);
            if key > kth || ties > 0 {
                ties -= usize::from(key == kth);
                left -= 1;
                let i = g as usize * GROUP + c;
                out.idx.push((lo + i) as u32); // m ≤ u32::MAX: `round` checked it
                out.val.push(group[c]);
                if !q8 {
                    res[i] = 0.0;
                }
            }
        }
        if left == 0 {
            break;
        }
    }
}

/// Largest-remainder apportionment of `k_total` over blocks proportional
/// to `weights`, capped at per-block `caps`. Deterministic: remainder
/// goes by descending fractional part, ties to the lower block index.
/// Degenerate weights (all zero, or non-finite totals, e.g. an Inf/NaN
/// block norm) fall back to capacity-proportional allocation.
fn apportion(weights: &[f64], caps: &[usize], k_total: usize) -> Vec<usize> {
    let n = weights.len();
    let mut ks = vec![0usize; n];
    if n == 0 || k_total == 0 {
        return ks;
    }
    let total: f64 = weights.iter().sum();
    let cap_total: usize = caps.iter().sum();
    let degenerate = !(total.is_finite() && total > 0.0);
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for j in 0..n {
        let share = if degenerate {
            caps[j] as f64 / cap_total as f64
        } else {
            weights[j] / total
        };
        let quota = k_total as f64 * share;
        // lint:allow(float-cast): quota ∈ [0, k_total] by construction;
        // floor of a finite non-negative f64 fits usize here.
        let fl = (quota.floor().max(0.0) as usize).min(caps[j]);
        ks[j] = fl;
        assigned += fl;
        fracs.push((quota - fl as f64, j));
    }
    fracs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    // Hand out the remainder one slot at a time, skipping saturated
    // blocks, until the budget is spent or every block is full.
    while assigned < k_total.min(cap_total) {
        let mut progressed = false;
        for &(_, j) in &fracs {
            if assigned == k_total.min(cap_total) {
                break;
            }
            if ks[j] < caps[j] {
                ks[j] += 1;
                assigned += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    ks
}

/// Elements of the frame a learner's own `nnz` kept coordinates travel
/// in: the composed 8-bit codec when `q8`, the f32 sparse frame otherwise.
fn leaf_frame_elements(q8: bool, nnz: usize) -> usize {
    if q8 {
        sparse8_frame_elements(nnz)
    } else {
        sparse_frame_elements(nnz)
    }
}

/// Messages a binomial-tree reduce to one root sends at each level:
/// `(subtree_size, messages)` per level, ascending. A vrank sends at its
/// lowest set bit `b`, carrying a partial that aggregates its size-`b`
/// subtree; the number of such vranks in `[1, p)` is the message count.
fn reduce_levels(p: usize) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    let mut bit = 1usize;
    while bit < p {
        let mut count = 0u64;
        let mut v = bit;
        while v < p {
            count += 1;
            v += 2 * bit;
        }
        out.push((bit, count));
        bit <<= 1;
    }
    out
}

/// Per-round k policy for [`Compression::Sparse`] — how many coordinates
/// each learner keeps, and how the budget is spread over the model.
///
/// All ratios are fractions of the model size `m`, in `(0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KSchedule {
    /// Keep `ceil(ratio·m)` every round (the static baseline).
    Fixed {
        /// Fraction of coordinates kept.
        ratio: f64,
    },
    /// Grow/shrink the ratio with the residual-to-gradient norm ratio
    /// `ρ = ‖residual‖/‖input‖` (Deng et al.): after each round,
    /// `ratio ← clamp(ratio·(1 + gain·(ρ − target)), min, max)`.
    /// Heavy truncation (ρ above target) buys more bandwidth next round;
    /// a well-captured gradient gives bandwidth back.
    NormAdaptive {
        /// Starting ratio.
        ratio0: f64,
        /// Lower clamp for the ratio.
        ratio_min: f64,
        /// Upper clamp for the ratio.
        ratio_max: f64,
        /// Residual-norm ratio the controller steers toward.
        target: f64,
        /// Multiplicative step size of the controller.
        gain: f64,
    },
    /// A global `ceil(ratio·m)` budget allocated across parameter blocks
    /// proportional to per-block gradient L2 norm (largest-remainder
    /// apportionment, capped at block size). Blocks come from the
    /// model's parameter layout via [`KState::new`]; with no block map
    /// this degrades to `Fixed`.
    LayerWise {
        /// Fraction of coordinates kept, summed over all blocks.
        ratio: f64,
    },
}

impl KSchedule {
    /// Fixed-ratio schedule.
    pub fn fixed(ratio: f64) -> Self {
        KSchedule::Fixed { ratio }
    }

    /// Norm-adaptive schedule with default controller settings: clamp to
    /// `[ratio0/4, min(16·ratio0, 1)]`, steer toward `ρ = 0.95`, gain
    /// `0.5`.
    pub fn norm_adaptive(ratio0: f64) -> Self {
        KSchedule::NormAdaptive {
            ratio0,
            ratio_min: ratio0 / 4.0,
            ratio_max: (16.0 * ratio0).min(1.0),
            target: 0.95,
            gain: 0.5,
        }
    }

    /// Layer-wise budget allocation at a fixed global ratio.
    pub fn layer_wise(ratio: f64) -> Self {
        KSchedule::LayerWise { ratio }
    }

    /// The ratio the schedule starts from.
    fn base_ratio(&self) -> f64 {
        match *self {
            KSchedule::Fixed { ratio } | KSchedule::LayerWise { ratio } => ratio,
            KSchedule::NormAdaptive { ratio0, .. } => ratio0,
        }
    }

    /// The range the per-round ratio can occupy over a run.
    pub fn ratio_bounds(&self) -> (f64, f64) {
        match *self {
            KSchedule::Fixed { ratio } | KSchedule::LayerWise { ratio } => (ratio, ratio),
            KSchedule::NormAdaptive {
                ratio_min,
                ratio_max,
                ..
            } => (ratio_min, ratio_max),
        }
    }

    /// The range of per-round kept-coordinate budgets for an `m`-element
    /// gradient.
    pub fn k_bounds(&self, m: usize) -> (usize, usize) {
        let (lo, hi) = self.ratio_bounds();
        (ratio_to_k(lo, m), ratio_to_k(hi, m))
    }

    /// Validate the schedule's parameters.
    ///
    /// # Panics
    /// Panics if a ratio is outside `(0, 1]`, bounds are inverted, or the
    /// controller constants are non-finite.
    pub fn validate(&self) {
        let ok_ratio = |r: f64| r > 0.0 && r <= 1.0;
        match *self {
            KSchedule::Fixed { ratio } | KSchedule::LayerWise { ratio } => {
                assert!(ok_ratio(ratio), "k-schedule ratio must be in (0,1]");
            }
            KSchedule::NormAdaptive {
                ratio0,
                ratio_min,
                ratio_max,
                target,
                gain,
            } => {
                assert!(
                    ok_ratio(ratio0) && ok_ratio(ratio_min) && ok_ratio(ratio_max),
                    "k-schedule ratio must be in (0,1]"
                );
                assert!(
                    ratio_min <= ratio0 && ratio0 <= ratio_max,
                    "norm-adaptive bounds must bracket ratio0"
                );
                assert!(
                    target.is_finite() && gain.is_finite(),
                    "norm-adaptive controller constants must be finite"
                );
            }
        }
    }

    /// Short label tag, e.g. `k1.0%`, `adk1.0%`, `lwk1.0%`.
    pub fn tag(&self) -> String {
        match *self {
            KSchedule::Fixed { ratio } => format!("k{:.1}%", ratio * 100.0),
            KSchedule::NormAdaptive { ratio0, .. } => format!("adk{:.1}%", ratio0 * 100.0),
            KSchedule::LayerWise { ratio } => format!("lwk{:.1}%", ratio * 100.0),
        }
    }
}

/// `ceil(ratio·m)` clamped to `[1, m]` (0 for an empty vector).
fn ratio_to_k(ratio: f64, m: usize) -> usize {
    // lint:allow(float-cast): ceil of ratio·m with ratio ∈ (0,1] is an
    // exact integer ≤ m; the clamp bounds any edge case.
    ((m as f64 * ratio).ceil() as usize).clamp(1.min(m), m)
}

/// Per-learner mutable schedule state: the current ratio of a
/// [`KSchedule`] and the model's parameter-block map for layer-wise
/// allocation.
///
/// Each learner owns one `KState` for the whole run; both backends drive
/// it with the same inputs in the same order, so the schedule itself is
/// deterministic and backend-agnostic.
#[derive(Clone, Debug)]
pub struct KState {
    schedule: KSchedule,
    ratio_now: f64,
    blocks: Vec<(usize, usize)>,
}

impl KState {
    /// Fresh state for `c`. `blocks` is the model's per-layer parameter
    /// block map (`Model::param_blocks`); only `LayerWise` reads it, and
    /// needs it to tile the parameter vector in order.
    ///
    /// # Panics
    /// Panics on invalid [`Compression::Sparse`] schedule parameters (see
    /// [`KSchedule::validate`]).
    pub fn new(c: &Compression, blocks: Vec<(usize, usize)>) -> Self {
        let schedule = match *c {
            Compression::Sparse { k, .. } => {
                k.validate();
                k
            }
            Compression::Uniform8Bit => KSchedule::Fixed { ratio: 1.0 },
        };
        KState {
            schedule,
            ratio_now: schedule.base_ratio(),
            blocks,
        }
    }

    /// The ratio the next round will use.
    pub fn ratio(&self) -> f64 {
        self.ratio_now
    }
}

/// A gradient compression scheme.
///
/// ```
/// use sasgd_core::Compression;
/// let g = [0.1f32, -5.0, 0.2, 3.0];
/// let c = Compression::topk(0.5).compress(&g);
/// // The two largest-magnitude coordinates survive; the rest feed the
/// // error-feedback residual.
/// assert_eq!(c.dense, vec![0.0, -5.0, 0.0, 3.0]);
/// assert_eq!(c.residual, vec![0.1, 0.0, 0.2, 0.0]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Compression {
    /// 8-bit linear quantization of every coordinate.
    Uniform8Bit,
    /// Sparsification: a [`KSchedule`] picks each round's k (the rest
    /// stay in the sender's residual), optionally composed with 8-bit
    /// value quantization and a union-growth bound in the sparse tree.
    Sparse {
        /// Per-round k policy.
        k: KSchedule,
        /// Quantize kept values to 8 bits (the composed
        /// sparsify+quantize wire codec, ~`k/4 + k` elements vs `2k`).
        q8: bool,
        /// Re-TopK merged partials at every tree level so nnz cannot
        /// grow with depth; trimmed mass folds back into rank-local
        /// residuals.
        union_bound: bool,
    },
}

/// Outcome of compressing one gradient vector.
pub struct Compressed {
    /// The reconstructed (lossy) dense vector that will be aggregated.
    pub dense: Vec<f32>,
    /// The residual to fold into the next accumulation (error feedback).
    pub residual: Vec<f32>,
    /// Nonzero coordinates in `dense` (what the sparse wire transmits).
    pub k_eff: usize,
    /// The schedule's kept-coordinate budget this round (`m` when the
    /// scheme is not sparse); also the union bound in the sparse tree.
    pub k_budget: usize,
    /// `‖residual‖₂`.
    pub residual_norm: f64,
    /// Quantization scale when values are on the 8-bit grid
    /// (`Uniform8Bit`, or `Sparse` with `q8`): every nonzero of `dense`
    /// is exactly `q·scale` for an integer `q ∈ [-127, 127]`.
    pub q8_scale: Option<f32>,
}

impl Compression {
    /// Plain top-k: keep the largest `ratio·m` coordinates
    /// (0 < ratio ≤ 1) every round, f32 values, unbounded tree.
    pub fn topk(ratio: f64) -> Self {
        Compression::Sparse {
            k: KSchedule::fixed(ratio),
            q8: false,
            union_bound: false,
        }
    }

    /// Compress `g` statelessly: adaptive schedules run from their
    /// starting ratio with no block map. Prefer
    /// [`Compression::compress_with`] inside a run.
    ///
    /// # Panics
    /// Panics if a ratio is outside `(0, 1]`.
    pub fn compress(&self, g: &[f32]) -> Compressed {
        self.compress_with(g, &mut KState::new(self, Vec::new()))
    }

    /// Compress `g`, returning the lossy dense reconstruction plus the
    /// residual, and advance the schedule state. The dense form of one
    /// [`ErrorFeedback`] round that starts from a zero residual: `dense`
    /// is the payload scattered over `+0.0`.
    ///
    /// # Panics
    /// Panics if a ratio is outside `(0, 1]`, or if a layer-wise block map
    /// does not tile `0..g.len()`.
    pub fn compress_with(&self, g: &[f32], state: &mut KState) -> Compressed {
        let mut residual = g.to_vec();
        let enc = round(self, state, &mut residual, None, &mut Scratch::default());
        let (dense, q8_scale) = match enc.payload {
            Payload::Sparse(sv, opts) => (sv.to_dense(), opts.q8_scale),
            Payload::Dense8(dense, scale) => (dense, scale),
        };
        Compressed {
            dense,
            residual,
            k_eff: enc.k_eff,
            k_budget: enc.k_budget,
            residual_norm: enc.residual_norm,
            q8_scale,
        }
    }

    /// `f32` elements of one *leaf* wire frame for an `m`-parameter
    /// gradient (for the α–β cost model): sparse ships a
    /// `[len, nnz, idx…, val…]` frame (`2 + 2k`); 8-bit ships a packed
    /// `[len, scale, q…]` frame (`2 + ⌈m/4⌉`); the composed sparse codec
    /// ships `[len, nnz, scale, idx…, q…]` (`3 + k + ⌈k/4⌉`).
    pub fn wire_elements(&self, m: usize) -> f64 {
        match *self {
            Compression::Uniform8Bit => dense8_frame_elements(m) as f64,
            Compression::Sparse { k, q8, .. } => {
                leaf_frame_elements(q8, ratio_to_k(k.base_ratio(), m)) as f64
            }
        }
    }

    /// Bracket the total `f32` elements one allreduce round of an
    /// `m`-parameter gradient moves on the real wire: a binomial-tree
    /// reduce to rank 0 plus a broadcast of the result, exactly what the
    /// threaded backend's traffic counters measure.
    ///
    /// For `Uniform8Bit` the count is exact (min == max). For sparse
    /// schemes the bracket assumes each learner's frame carries its full
    /// k budget of nonzeros (true whenever the gradient has at least k
    /// nonzeros); the upper bound lets merged partials grow to the union
    /// of their subtree (`subtree_size·k_max`, capped at `m`) unless the
    /// scheme is union-bounded, in which case every level stays at
    /// `k_max`.
    pub fn round_wire_bounds(&self, m: usize, p: usize) -> (u64, u64) {
        if p <= 1 {
            return (0, 0);
        }
        let levels = reduce_levels(p);
        let bcast_msgs = (p - 1) as u64;
        match *self {
            Compression::Uniform8Bit => {
                // Leaf senders ship the packed frame; internal partials
                // and the result broadcast ship dense f32.
                let mut total = bcast_msgs * m as u64;
                for &(bit, n) in &levels {
                    total += n * if bit == 1 {
                        dense8_frame_elements(m) as u64
                    } else {
                        m as u64
                    };
                }
                (total, total)
            }
            Compression::Sparse { k, q8, union_bound } => {
                // Leaf frames at the leaf codec size, internal/broadcast
                // frames at the f32 sparse size, nnz growing with subtree
                // size unless bounded.
                let (kmin, kmax) = k.k_bounds(m);
                let leaf = |nnz: usize| leaf_frame_elements(q8, nnz) as u64;
                let inner = |nnz: usize| sparse_frame_elements(nnz) as u64;
                let cap = |subtree: usize| {
                    if union_bound {
                        kmax
                    } else {
                        (subtree * kmax).min(m)
                    }
                };
                let mut min = bcast_msgs * inner(kmin);
                let mut max = bcast_msgs * inner(cap(p));
                for &(bit, n) in &levels {
                    let (lo, hi) = if bit == 1 {
                        (leaf(kmin), leaf(kmax))
                    } else {
                        (inner(kmin), inner(cap(bit)))
                    };
                    min += n * lo;
                    max += n * hi;
                }
                (min, max)
            }
        }
    }
}

/// What one rank contributes to a compressed allreduce: the form the
/// collective carries, not yet on any wire.
pub enum Payload {
    /// The kept coordinates and the options they travel the sparse tree
    /// under (this rank's union bound; its 8-bit grid, when the kept
    /// values sit on one).
    Sparse(SparseVec, SparseTreeOpts),
    /// Every coordinate, on this rank's 8-bit grid `q·scale`. No scale:
    /// the gradient was all zeros and travels as plain dense f32.
    Dense8(Vec<f32>, Option<f32>),
}

/// Outcome of one [`ErrorFeedback::encode`].
pub struct Encoded {
    /// What goes on the allreduce.
    pub payload: Payload,
    /// Nonzero coordinates in the payload.
    pub k_eff: usize,
    /// The schedule's kept-coordinate budget this round (`m` when the
    /// scheme is not sparse).
    pub k_budget: usize,
    /// `‖residual‖₂` left behind by this round's compression.
    pub residual_norm: f64,
}

/// One rank's error-feedback compression state: the scheme, the residual
/// it has not transmitted yet, and its k schedule. The only place the
/// round `input = gs + residual → compress → residual = what was dropped`
/// is written; the sparse tree hands trimmed mass back through
/// [`absorb`](ErrorFeedback::absorb).
pub struct ErrorFeedback {
    comp: Compression,
    residual: Vec<f32>,
    kstate: KState,
    scratch: Scratch,
}

impl ErrorFeedback {
    /// Fresh state (zero residual) for an `m`-parameter model whose
    /// per-layer parameter block map is `blocks` (`Model::param_blocks`).
    ///
    /// # Panics
    /// Panics on invalid schedule parameters (see [`KState::new`]).
    pub fn new(comp: Compression, m: usize, blocks: Vec<(usize, usize)>) -> Self {
        ErrorFeedback {
            comp,
            residual: vec![0.0; m],
            scratch: Scratch {
                // Every block's groups: at most one ragged group per block.
                tops: Vec::with_capacity(m.div_ceil(GROUP) + blocks.len()),
                ..Scratch::default()
            },
            kstate: KState::new(&comp, blocks),
        }
    }

    /// Compress `gs + residual` into this round's payload; what the
    /// payload does not carry becomes the new residual. Works in place on
    /// the residual: no dense temporary is built.
    pub fn encode(&mut self, gs: &[f32]) -> Encoded {
        let (comp, kstate) = (&self.comp, &mut self.kstate);
        round(
            comp,
            kstate,
            &mut self.residual,
            Some(gs),
            &mut self.scratch,
        )
    }

    /// Fold back the mass the sparse tree trimmed from partial sums this
    /// rank merged (`spill` of `sparse_allreduce_tree`), so it is
    /// retransmitted, not lost.
    pub fn absorb(&mut self, spill: &SparseVec) {
        for (&i, &v) in spill.idx.iter().zip(&spill.val) {
            self.residual[i as usize] += v;
        }
    }
}

/// `Uniform8Bit`'s round over `res` (already holding the input): every
/// coordinate snaps to the vector's 8-bit grid, the rounding error stays.
fn uniform8_round(res: &mut [f32]) -> Encoded {
    let m = res.len();
    let maxabs = res.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let (dense, scale, residual_norm) = if maxabs == 0.0 {
        // No grid to speak of: the zeros travel as plain dense f32.
        let dense = res.to_vec();
        res.fill(0.0);
        (dense, None, 0.0)
    } else {
        let scale = q8_scale_for(maxabs);
        let quantize = |r: &mut f32| {
            let rec = quantize8(*r, scale);
            *r -= rec;
            rec
        };
        let dense = res.iter_mut().map(quantize).collect();
        (dense, Some(scale), sum_sq(res).sqrt())
    };
    Encoded {
        payload: Payload::Dense8(dense, scale),
        k_eff: m,
        k_budget: m,
        residual_norm,
    }
}

/// One error-feedback round, in place. On entry `res` holds the residual
/// (`gs` is added to it) or, with no `gs`, the input itself; on exit it
/// holds what the returned payload does not carry. Pass A is
/// [`accumulate`] per block, pass B [`select_block`] per block once the
/// schedule has turned the block norms into budgets, pass C the norm.
// hot-path: the compressed round's largest span
fn round(
    comp: &Compression,
    state: &mut KState,
    res: &mut [f32],
    gs: Option<&[f32]>,
    scratch: &mut Scratch,
) -> Encoded {
    let m = res.len();
    let Compression::Sparse {
        q8, union_bound, ..
    } = *comp
    else {
        if let Some(gs) = gs {
            for (r, &g) in res.iter_mut().zip(gs) {
                *r += g;
            }
        }
        return uniform8_round(res);
    };
    state.schedule.validate();
    assert!(m <= u32::MAX as usize, "vector too long for wire");
    let k_total = ratio_to_k(state.ratio_now, m);
    let layered = matches!(state.schedule, KSchedule::LayerWise { .. }) && state.blocks.len() > 1;
    let whole = [(0, m)];
    let blocks: &[(usize, usize)] = if layered { &state.blocks } else { &whole };
    let tiled = blocks
        .iter()
        .try_fold(0, |at, &(lo, hi)| (lo == at && hi >= lo).then_some(hi));
    assert_eq!(tiled, Some(m), "parameter blocks must tile 0..m in order");

    let groups = |&(lo, hi): &(usize, usize)| (hi - lo).div_ceil(GROUP);
    scratch.hist.resize(blocks.len() * BINS, 0);
    scratch.tops.resize(blocks.iter().map(groups).sum(), 0);
    scratch.norms.clear();
    let mut g0 = 0;
    for (block, hist) in blocks.iter().zip(scratch.hist.chunks_mut(BINS)) {
        let (lo, hi) = *block;
        let tops = &mut scratch.tops[g0..g0 + groups(block)];
        let sum_sq = accumulate(&mut res[lo..hi], gs.map(|gs| &gs[lo..hi]), hist, tops);
        scratch.norms.push(sum_sq.sqrt());
        g0 += groups(block);
    }
    let ks = if layered {
        // lint:allow(hot-alloc): O(blocks) budgets, not O(m)
        let caps: Vec<usize> = blocks.iter().map(|&(lo, hi)| hi - lo).collect();
        apportion(&scratch.norms, &caps, k_total)
    } else {
        vec![k_total] // lint:allow(hot-alloc): one element
    };

    let mut sv = SparseVec::empty(m as u32);
    sv.idx.reserve(k_total);
    sv.val.reserve(k_total);
    let mut g0 = 0;
    for (j, (block, &k)) in blocks.iter().zip(&ks).enumerate() {
        let (lo, hi) = *block;
        if k > 0 {
            select_block(scratch, (j, g0), &mut res[lo..hi], lo, k, q8, &mut sv);
        }
        g0 += groups(block);
    }
    let q8_scale = q8.then(|| {
        // Kept values snap to their common grid. One that quantises to
        // zero (NaN included — the grid cannot carry it) leaves the
        // payload and stays whole in the residual; the others leave their
        // rounding error.
        let scale = q8_scale_for(sv.val.iter().fold(0.0f32, |a, &v| a.max(v.abs())));
        let mut kept = 0;
        for j in 0..sv.idx.len() {
            let (i, rec) = (sv.idx[j], quantize8(sv.val[j], scale));
            if rec != 0.0 {
                res[i as usize] -= rec;
                (sv.idx[kept], sv.val[kept]) = (i, rec);
                kept += 1;
            }
        }
        sv.idx.truncate(kept);
        sv.val.truncate(kept);
        scale
    });
    let residual_norm = sum_sq(res).sqrt();

    if let KSchedule::NormAdaptive {
        ratio_min,
        ratio_max,
        target,
        gain,
        ..
    } = state.schedule
    {
        let gn = scratch.norms[0]; // never layered: one block, the whole input
        let rho = if gn > 0.0 { residual_norm / gn } else { 0.0 };
        let next = state.ratio_now * (1.0 + gain * (rho - target));
        if next.is_finite() {
            state.ratio_now = next.clamp(ratio_min, ratio_max);
        }
    }
    let opts = SparseTreeOpts {
        union_bound: union_bound.then_some(k_total),
        q8_scale,
    };
    Encoded {
        k_eff: sv.nnz(),
        payload: Payload::Sparse(sv, opts),
        k_budget: k_total,
        residual_norm,
    }
}

/// The selection this module used before the histogram passes, kept as
/// the reference the fused round is property-tested against: a magnitude
/// copy, `select_nth_unstable_by` for the threshold, a two-pass fill of a
/// dense `d`, a rebuilt residual, serial f64 norms.
#[cfg(test)]
mod oracle {
    use super::{apportion, q8_scale_for, quantize8, ratio_to_k, KSchedule, KState};
    use sasgd_comm::sparse::SparseVec;

    fn mag(v: f32) -> f32 {
        if v.is_nan() {
            f32::INFINITY
        } else {
            v.abs()
        }
    }

    fn l2_norm(v: &[f32]) -> f64 {
        let sq = |&x: &f32| f64::from(x) * f64::from(x);
        v.iter().map(sq).sum::<f64>().sqrt()
    }

    fn keep_topk(g: &[f32], lo: usize, hi: usize, k: usize, d: &mut [f32]) {
        let len = hi - lo;
        if k >= len {
            d[lo..hi].copy_from_slice(&g[lo..hi]);
            return;
        }
        let mut mags: Vec<f32> = g[lo..hi].iter().map(|&v| mag(v)).collect();
        let idx = len - k;
        mags.select_nth_unstable_by(idx, f32::total_cmp);
        let thresh = mags[idx];
        let mut kept = 0usize;
        for (i, &v) in g[lo..hi].iter().enumerate() {
            if mag(v) > thresh {
                d[lo + i] = v;
                kept += 1;
            }
        }
        for (i, &v) in g[lo..hi].iter().enumerate() {
            if kept == k {
                break;
            }
            if d[lo + i] == 0.0 && mag(v) == thresh && v != 0.0 {
                d[lo + i] = v;
                kept += 1;
            }
        }
    }

    /// What one reference round produced.
    pub(super) struct Round {
        pub(super) payload: SparseVec,
        pub(super) k_eff: usize,
        pub(super) residual_norm: f64,
        pub(super) q8_scale: Option<f32>,
    }

    /// One sparse error-feedback round the old way; `residual` is replaced.
    pub(super) fn encode(
        q8: bool,
        state: &mut KState,
        residual: &mut Vec<f32>,
        gs: &[f32],
    ) -> Round {
        let g: Vec<f32> = gs.iter().zip(residual.iter()).map(|(a, b)| a + b).collect();
        let m = g.len();
        let k_total = ratio_to_k(state.ratio_now, m);
        let layer_wise = matches!(state.schedule, KSchedule::LayerWise { .. });
        let (blocks, ks) = if layer_wise && state.blocks.len() > 1 {
            let caps: Vec<usize> = state.blocks.iter().map(|&(lo, hi)| hi - lo).collect();
            let weights: Vec<f64> = state
                .blocks
                .iter()
                .map(|&(lo, hi)| l2_norm(&g[lo..hi]))
                .collect();
            (state.blocks.clone(), apportion(&weights, &caps, k_total))
        } else {
            (vec![(0, m)], vec![k_total])
        };
        let mut d = vec![0.0f32; m];
        *residual = vec![0.0f32; m];
        let mut q8_scale = None;
        if k_total >= m && blocks.len() == 1 && !q8 {
            d.copy_from_slice(&g);
        } else {
            for (&(lo, hi), &kj) in blocks.iter().zip(&ks) {
                if kj > 0 {
                    keep_topk(&g, lo, hi, kj, &mut d);
                }
            }
            if q8 {
                let scale = q8_scale_for(d.iter().fold(0.0f32, |a, &v| a.max(v.abs())));
                for v in d.iter_mut().filter(|v| **v != 0.0) {
                    *v = quantize8(*v, scale);
                }
                q8_scale = Some(scale);
            }
            for i in 0..m {
                if d[i] == 0.0 {
                    residual[i] = g[i];
                } else if q8 {
                    residual[i] = g[i] - d[i];
                }
            }
        }
        let residual_norm = l2_norm(residual);
        if let KSchedule::NormAdaptive {
            ratio_min,
            ratio_max,
            target,
            gain,
            ..
        } = state.schedule
        {
            let gn = l2_norm(&g);
            let rho = if gn > 0.0 { residual_norm / gn } else { 0.0 };
            let next = state.ratio_now * (1.0 + gain * (rho - target));
            if next.is_finite() {
                state.ratio_now = next.clamp(ratio_min, ratio_max);
            }
        }
        let payload = SparseVec::from_dense(&d);
        Round {
            k_eff: payload.nnz(),
            payload,
            residual_norm,
            q8_scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use sasgd_tensor::SeedRng;

    /// One coordinate of a property-test gradient. The modes between them
    /// cover what selection has to get right: plain values; a coarse grid
    /// (threshold ties, exact zeros); the special values (`±0.0`,
    /// subnormals, `±Inf`, NaN); nine decades of dynamic range (kept
    /// values that quantise to zero); mostly zeros (fewer nonzeros than k).
    fn draw(rng: &mut SeedRng, mode: usize) -> f32 {
        match mode {
            0 => rng.normal(),
            1 => (rng.below(9) as f32 - 4.0) * 0.25,
            2 => match rng.below(14) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => f32::NAN,
                5 => 1.0e-40,
                6 => -1.0e-42,
                7 => f32::MIN_POSITIVE,
                _ => rng.normal(),
            },
            3 => rng.normal() * 10f32.powi(rng.below(9) as i32 - 4),
            _ if rng.below(10) < 8 => 0.0,
            _ => (rng.below(5) as f32 - 2.0) * 0.5,
        }
    }

    /// Bit pattern with every NaN collapsed to one: which operand's
    /// payload a NaN sum carries is the compiler's choice, not ours.
    fn bits(v: f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Four rounds through the fused codec and the oracle side by side,
    /// coordinate `i` of every gradient (and of the spill a union-bounded
    /// tree would hand back between rounds) drawn by `draw_at(rng, i)`.
    fn fused_equals_oracle(
        comp: Compression,
        blocks: Vec<(usize, usize)>,
        m: usize,
        seed: u64,
        mut draw_at: impl FnMut(&mut SeedRng, usize) -> f32,
    ) -> Result<(), TestCaseError> {
        let Compression::Sparse { q8, .. } = comp else {
            panic!("the oracle is a sparse round");
        };
        let mut rng = SeedRng::new(seed);
        let mut fused = ErrorFeedback::new(comp, m, blocks.clone());
        let mut kstate = KState::new(&comp, blocks);
        let mut residual = vec![0.0f32; m];
        for round in 0..4 {
            let gs: Vec<f32> = (0..m).map(|i| draw_at(&mut rng, i)).collect();
            let want = oracle::encode(q8, &mut kstate, &mut residual, &gs);
            let got = fused.encode(&gs);
            let Payload::Sparse(sv, opts) = got.payload else {
                panic!("a sparse scheme ships sparse");
            };
            // `round` rides along so a failure says when it happened.
            let all_bits = |v: &[f32]| v.iter().map(|&v| bits(v)).collect::<Vec<_>>();
            prop_assert_eq!((round, &sv.idx), (round, &want.payload.idx));
            prop_assert_eq!(
                (round, all_bits(&sv.val)),
                (round, all_bits(&want.payload.val))
            );
            prop_assert_eq!((round, got.k_eff), (round, want.k_eff));
            prop_assert_eq!(opts.q8_scale.map(bits), want.q8_scale.map(bits));
            prop_assert_eq!(
                (round, all_bits(&fused.residual)),
                (round, all_bits(&residual))
            );
            prop_assert_eq!(
                bits(got.residual_norm as f32),
                bits(want.residual_norm as f32)
            );
            // The controller sees lane-split f64 norms where the oracle's
            // are serial: same ratio to rounding, same k (checked above).
            let (r, want_r) = (fused.kstate.ratio(), kstate.ratio());
            prop_assert!(
                (r - want_r).abs() <= 1e-12 * want_r,
                "ratio {r} vs {want_r}"
            );
            // What a union-bounded tree would hand back between rounds.
            let mut spill = SparseVec::empty(m as u32);
            for i in 0..m as u32 {
                if rng.below(7) == 0 {
                    spill.idx.push(i);
                    spill.val.push(draw_at(&mut rng, i as usize));
                }
            }
            fused.absorb(&spill);
            for (&i, &v) in spill.idx.iter().zip(&spill.val) {
                residual[i as usize] += v;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn fused_round_equals_the_select_nth_oracle(
            seed in 0u64..u64::MAX,
            m in 1usize..10_000,
            short in 0u8..2,
            cuts in proptest::collection::vec(0usize..10_000, 0..5),
            ratio in 0.002f64..1.15,
            schedule in 0usize..3,
            q8 in 0u8..2,
            mode in 0usize..5,
        ) {
            // Half the cases short blocks, half spanning several tiles.
            let m = if short == 1 { 1 + m % 299 } else { m };
            let ratio = ratio.min(1.0); // a good share of lossless rounds
            let k = match schedule {
                0 => KSchedule::fixed(ratio),
                1 => KSchedule::norm_adaptive(ratio),
                _ => KSchedule::layer_wise(ratio),
            };
            let comp = Compression::Sparse { k, q8: q8 == 1, union_bound: false };
            // Random tiling of 0..m; repeated cuts make empty blocks, no
            // cuts a single block.
            let mut edges: Vec<usize> = cuts.iter().map(|c| c % (m + 1)).collect();
            edges.extend([0, m]);
            edges.sort_unstable();
            let blocks: Vec<(usize, usize)> = edges.windows(2).map(|w| (w[0], w[1])).collect();
            fused_equals_oracle(comp, blocks, m, seed, |rng, _| draw(rng, mode))?;
        }
    }

    /// Inputs that sit on the edges of pass B's group bound, each against
    /// the oracle.
    #[test]
    fn fused_round_equals_the_oracle_on_the_bounds_edges() {
        // 9 000 coordinates: two whole tiles and a ragged third.
        let row = |name: &str, comp, blocks, draw_at: fn(&mut SeedRng, usize) -> f32| {
            if let Err(e) = fused_equals_oracle(comp, blocks, 9000, 7, draw_at) {
                panic!("{name}: {e}");
            }
        };
        fn small(rng: &mut SeedRng) -> f32 {
            rng.normal() * 1e-3
        }
        // k = 9, all of them in group 257 (third tile): one group's top
        // makes the bound.
        row(
            "all k winners in one group",
            Compression::topk(0.001),
            vec![],
            |rng, i| {
                if (4112..4121).contains(&i) {
                    i as f32
                } else {
                    small(rng)
                }
            },
        );
        // A 20-coordinate block in 2 groups carries nearly all the mass,
        // so its budget (capped at 20) outnumbers its groups.
        let layered = Compression::Sparse {
            k: KSchedule::layer_wise(0.1),
            q8: false,
            union_bound: false,
        };
        row(
            "k >= groups: a short block",
            layered,
            vec![(0, 20), (20, 9000)],
            |rng, i| rng.normal() * if i < 20 { 1e3 } else { 1e-3 },
        );
        // 900 kept of 563 groups: the bound visits every group.
        row(
            "k >= groups: ratio 0.1",
            Compression::topk(0.1),
            vec![],
            |rng, _| small(rng),
        );
        row(
            "every magnitude equal",
            Compression::topk(0.01),
            vec![],
            |_, i| [1.0, -1.0][i % 2],
        );
        row(
            "a NaN among small values",
            Compression::topk(0.001),
            vec![],
            |rng, i| if i == 5000 { f32::NAN } else { small(rng) },
        );
        // What the oracle agrees to on the last two rows.
        let ties: Vec<f32> = (0..9000).map(|i| [1.0, -1.0][i % 2]).collect();
        let kept = SparseVec::from_dense(&Compression::topk(0.01).compress(&ties).dense);
        assert_eq!(
            kept.idx,
            (0..90).collect::<Vec<u32>>(),
            "ties keep the lowest indices"
        );
        let mut rng = SeedRng::new(7);
        let mut nan: Vec<f32> = (0..9000).map(|_| rng.normal() * 1e-3).collect();
        nan[5000] = f32::NAN;
        assert!(
            Compression::topk(0.001).compress(&nan).dense[5000].is_nan(),
            "NaN kept"
        );
    }

    #[test]
    fn topk_keeps_exactly_k_and_preserves_total() {
        let g = vec![0.1, -5.0, 0.2, 3.0, -0.05, 0.0, 1.0, -0.3];
        let c = Compression::topk(0.25).compress(&g);
        let kept = c.dense.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(kept, 2);
        assert_eq!(c.k_eff, 2);
        assert_eq!(c.dense[1], -5.0);
        assert_eq!(c.dense[3], 3.0);
        // dense + residual == original, coordinate-wise.
        for ((&d, &r), &o) in c.dense.iter().zip(&c.residual).zip(&g) {
            assert_eq!(d + r, o);
        }
    }

    #[test]
    fn topk_full_ratio_is_lossless() {
        let g = vec![1.0, -2.0, 3.0];
        let c = Compression::topk(1.0).compress(&g);
        assert_eq!(c.dense, g);
        assert!(c.residual.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn topk_handles_ties_without_over_keeping() {
        let g = vec![2.0, -2.0, 2.0, 2.0];
        let c = Compression::topk(0.5).compress(&g);
        let kept = c.dense.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(kept, 2, "exactly k survive even with ties");
    }

    #[test]
    fn topk_with_fewer_nonzeros_than_k_keeps_exactly_the_nonzeros() {
        // k = 4 but only two nonzeros: the threshold lands on 0.0 and
        // the tie pass must not promote zeros. Everything real is kept,
        // the residual is exactly zero.
        let g = vec![0.0f32, 2.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        let c = Compression::topk(0.5).compress(&g);
        assert_eq!(c.dense, g);
        assert_eq!(c.k_eff, 2);
        assert!(c.residual.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn topk_keeps_nan_coordinates() {
        // Regression: `select_nth_unstable_by` used to map incomparable
        // pairs to Equal, so one NaN made the kept set arbitrary. Policy:
        // NaN magnitude is +∞ — always kept, poison surfaces downstream.
        let g = vec![1.0f32, f32::NAN, 3.0, 2.0];
        let c = Compression::topk(0.5).compress(&g);
        assert!(c.dense[1].is_nan(), "NaN coordinate must be kept");
        assert_eq!(c.dense[2], 3.0, "largest finite coordinate rides along");
        assert_eq!(c.dense[0], 0.0);
        assert_eq!(c.dense[3], 0.0);
        assert_eq!(c.residual[0], 1.0);
        assert_eq!(c.residual[1], 0.0);
        assert_eq!(c.residual[3], 2.0);
    }

    #[test]
    fn uniform8_subnormal_gradient_does_not_nan_poison() {
        // Regression: a subnormal maxabs underflowed `maxabs/127` to 0.0,
        // so every `(v/0.0)` became NaN/Inf and the "compressed" dense
        // vector poisoned the model.
        let g = vec![0.0f32, 1.0e-44, -1.0e-44, 0.0];
        let c = Compression::Uniform8Bit.compress(&g);
        for (i, (&d, &r)) in c.dense.iter().zip(&c.residual).enumerate() {
            assert!(d.is_finite(), "dense[{i}] = {d} must be finite");
            assert!(r.is_finite(), "residual[{i}] = {r} must be finite");
            assert_eq!(d + r, g[i], "mass conserved at {i}");
        }
    }

    #[test]
    fn quantized_zero_is_canonical_positive_zero() {
        // A tiny negative value rounds to q = -0.0; the reconstruction
        // must be +0.0 so the sparse wire (which drops exact zeros)
        // round-trips the dense form bitwise.
        let rec = quantize8(-1.0e-9, 1.0);
        assert_eq!(rec.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let mut rng = SeedRng::new(1);
        let g: Vec<f32> = (0..1000).map(|_| rng.normal() * 3.0).collect();
        let c = Compression::Uniform8Bit.compress(&g);
        let maxabs = g.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let step = maxabs / 127.0;
        for (&r, &o) in c.residual.iter().zip(&g) {
            assert!(r.abs() <= step / 2.0 + 1e-6, "residual {r} vs step {step}");
            let _ = o;
        }
    }

    #[test]
    fn quantization_of_zero_vector_is_identity() {
        let g = vec![0.0f32; 8];
        let c = Compression::Uniform8Bit.compress(&g);
        assert_eq!(c.dense, g);
    }

    #[test]
    fn composed_q8_values_sit_exactly_on_the_grid() {
        let mut rng = SeedRng::new(3);
        let g: Vec<f32> = (0..512).map(|_| rng.normal() * 2.0).collect();
        let c = Compression::Sparse {
            k: KSchedule::fixed(0.1),
            q8: true,
            union_bound: false,
        }
        .compress(&g);
        let scale = c.q8_scale.expect("composed codec sets a scale");
        let step = f64::from(scale);
        for (i, (&d, &r)) in c.dense.iter().zip(&c.residual).enumerate() {
            if d != 0.0 {
                // Exactly representable as q·scale — the wire recovers q
                // by rounding and reconstructs bitwise.
                let q = (d / scale).round();
                assert!(q.abs() <= 127.0);
                assert_eq!((q * scale).to_bits(), d.to_bits(), "coord {i}");
                // Kept coordinates obey the half-step quantization bound.
                assert!(
                    f64::from(r.abs()) <= step / 2.0 + 1e-9,
                    "residual {r} vs step {step} at {i}"
                );
            }
        }
    }

    #[test]
    fn composed_q8_transmits_zero_for_nan_and_keeps_it_in_residual() {
        let g = vec![1.0f32, f32::NAN, 3.0, 2.0];
        let c = Compression::Sparse {
            k: KSchedule::fixed(0.5),
            q8: true,
            union_bound: false,
        }
        .compress(&g);
        assert_eq!(c.dense[1], 0.0, "q8 grid cannot carry NaN");
        assert!(c.residual[1].is_nan(), "NaN persists in the residual");
        assert!(c.dense[2] != 0.0, "finite top coordinate still travels");
    }

    #[test]
    fn norm_adaptive_ratio_grows_under_heavy_truncation() {
        // Flat magnitudes: keeping 5% leaves ρ ≈ √0.95 > target, so the
        // controller should buy more bandwidth.
        let comp = Compression::Sparse {
            k: KSchedule::NormAdaptive {
                ratio0: 0.05,
                ratio_min: 0.0125,
                ratio_max: 0.8,
                target: 0.5,
                gain: 0.5,
            },
            q8: false,
            union_bound: false,
        };
        let mut state = KState::new(&comp, Vec::new());
        let g: Vec<f32> = (0..400).map(|i| 1.0 + (i % 7) as f32 * 0.01).collect();
        let r0 = state.ratio();
        for _ in 0..5 {
            comp.compress_with(&g, &mut state);
        }
        assert!(
            state.ratio() > r0 * 1.2,
            "ratio should grow: {r0} -> {}",
            state.ratio()
        );
        assert!(state.ratio() <= 0.8);
    }

    #[test]
    fn norm_adaptive_ratio_shrinks_when_residual_is_small() {
        // One dominant coordinate: k=1 already captures almost all mass,
        // ρ ≈ 0 < target, so the controller gives bandwidth back.
        let comp = Compression::Sparse {
            k: KSchedule::NormAdaptive {
                ratio0: 0.25,
                ratio_min: 0.01,
                ratio_max: 0.5,
                target: 0.5,
                gain: 0.5,
            },
            q8: false,
            union_bound: false,
        };
        let mut state = KState::new(&comp, Vec::new());
        let mut g = vec![1.0e-6f32; 64];
        g[11] = 100.0;
        let r0 = state.ratio();
        for _ in 0..5 {
            comp.compress_with(&g, &mut state);
        }
        assert!(
            state.ratio() < r0 * 0.8,
            "ratio should shrink: {r0} -> {}",
            state.ratio()
        );
        assert!(state.ratio() >= 0.01);
    }

    #[test]
    fn layer_wise_allocates_budget_by_block_norm() {
        let comp = Compression::Sparse {
            k: KSchedule::layer_wise(0.5),
            q8: false,
            union_bound: false,
        };
        // Block 0 carries essentially all the gradient mass.
        let mut state = KState::new(&comp, vec![(0, 4), (4, 8)]);
        let g = vec![10.0f32, 9.0, 8.0, 7.0, 0.1, 0.1, 0.1, 0.1];
        let c = comp.compress_with(&g, &mut state);
        assert_eq!(c.k_eff, 4);
        assert_eq!(&c.dense[..4], &g[..4], "budget lands on the heavy block");
        assert!(c.dense[4..].iter().all(|&v| v == 0.0));
        // Balanced blocks split the budget.
        let mut state = KState::new(&comp, vec![(0, 4), (4, 8)]);
        let g = vec![5.0f32, 4.0, 0.1, 0.1, 5.0, 4.0, 0.1, 0.1];
        let c = comp.compress_with(&g, &mut state);
        let kept0 = c.dense[..4].iter().filter(|&&v| v != 0.0).count();
        let kept1 = c.dense[4..].iter().filter(|&&v| v != 0.0).count();
        assert_eq!((kept0, kept1), (2, 2));
    }

    #[test]
    fn apportionment_is_exact_and_capped() {
        // Largest-remainder: budgets sum exactly to k_total when
        // capacity allows, and never exceed a block's size.
        let ks = apportion(&[3.0, 1.0, 1.0], &[10, 10, 10], 10);
        assert_eq!(ks.iter().sum::<usize>(), 10);
        assert_eq!(ks[0], 6);
        let ks = apportion(&[100.0, 1.0], &[2, 10], 8);
        assert_eq!(ks[0], 2, "saturated block stays capped");
        assert_eq!(ks.iter().sum::<usize>(), 8, "spill goes to open blocks");
        // Degenerate (all-zero) weights fall back to capacity shares.
        let ks = apportion(&[0.0, 0.0], &[4, 12], 4);
        assert_eq!(ks.iter().sum::<usize>(), 4);
        assert!(ks[1] >= ks[0]);
    }

    #[test]
    fn wire_elements_shrink() {
        let m = 506_378;
        assert!(Compression::topk(0.01).wire_elements(m) < m as f64 * 0.03);
        let packed = 2.0 + (m as f64 / 4.0).ceil();
        assert!((Compression::Uniform8Bit.wire_elements(m) - packed).abs() < 1e-9);
        let composed = Compression::Sparse {
            k: KSchedule::fixed(0.01),
            q8: true,
            union_bound: false,
        };
        let plain = Compression::Sparse {
            k: KSchedule::fixed(0.01),
            q8: false,
            union_bound: false,
        };
        assert!(composed.wire_elements(m) < plain.wire_elements(m) * 0.7);
    }

    #[test]
    fn round_wire_bounds_uniform8_is_exact_and_below_dense() {
        // p=4 tree: two leaf sends (packed), one internal send (dense m),
        // three broadcast messages (dense m).
        let (m, p) = (1000usize, 4usize);
        let packed = dense8_frame_elements(m) as u64;
        let (lo, hi) = Compression::Uniform8Bit.round_wire_bounds(m, p);
        assert_eq!(lo, hi, "uniform8 accounting is exact");
        assert_eq!(lo, 2 * packed + m as u64 + 3 * m as u64);
        let dense_round = 2 * (p as u64 - 1) * m as u64;
        assert!(lo < dense_round);
    }

    #[test]
    fn round_wire_bounds_bracket_union_growth() {
        let (m, p) = (10_000usize, 8usize);
        let fixed = Compression::Sparse {
            k: KSchedule::fixed(0.01),
            q8: false,
            union_bound: false,
        };
        let bounded = Compression::Sparse {
            k: KSchedule::fixed(0.01),
            q8: false,
            union_bound: true,
        };
        let (lo_f, hi_f) = fixed.round_wire_bounds(m, p);
        let (lo_b, hi_b) = bounded.round_wire_bounds(m, p);
        assert!(lo_f <= hi_f);
        assert_eq!(lo_f, lo_b, "full-overlap floor is codec-independent");
        assert!(
            hi_b < hi_f,
            "union bound caps depth growth: {hi_b} vs {hi_f}"
        );
        assert!(lo_b <= hi_b);
        // p=1: no communication at all.
        assert_eq!(fixed.round_wire_bounds(m, 1), (0, 0));
    }

    #[test]
    fn error_feedback_recovers_dropped_mass() {
        // Repeatedly compressing (gradient + residual) must transmit every
        // coordinate's mass eventually: after many rounds of a constant
        // gradient, the cumulative transmitted vector approaches
        // rounds × gradient.
        let g = vec![1.0f32, 0.2, 0.05, -0.6];
        let mut codec = ErrorFeedback::new(Compression::topk(0.25), 4, Vec::new());
        let mut transmitted = [0.0f32; 4];
        let rounds = 40;
        for _ in 0..rounds {
            let Payload::Sparse(sv, _) = codec.encode(&g).payload else {
                panic!("top-k ships sparse");
            };
            for (t, d) in transmitted.iter_mut().zip(sv.to_dense()) {
                *t += d;
            }
        }
        for (i, (&t, &gi)) in transmitted.iter().zip(&g).enumerate() {
            let expect = gi * rounds as f32;
            assert!(
                (t - expect).abs() <= gi.abs().max(1.0) * 2.0,
                "coord {i}: transmitted {t} vs {expect}"
            );
        }
    }

    #[test]
    fn error_feedback_conserves_mass_on_the_wire() {
        use sasgd_comm::sparse::{sparse_allreduce_tree, SparseLevelProfile};
        use sasgd_comm::world::CommWorld;

        // Dyadic gradients (multiples of 1/8, |g| < 64) keep every sum in
        // the test exact in f32, so conservation can be asserted to the
        // bit; the union bound makes the tree spill, which is the part of
        // the round a codec does not see until `absorb`.
        let (p, m, rounds) = (4usize, 96usize, 6usize);
        let comp = Compression::Sparse {
            k: KSchedule::layer_wise(0.125),
            q8: false,
            union_bound: true,
        };
        let blocks = vec![(0, 32), (32, 96)];
        let mut rng = SeedRng::new(11);
        let mut grad = || -> Vec<f32> {
            (0..m)
                .map(|_| (rng.below(1001) as f32 - 500.0) / 8.0)
                .collect()
        };
        let grads: Vec<Vec<Vec<f32>>> = (0..rounds)
            .map(|_| (0..p).map(|_| grad()).collect())
            .collect();

        // p codecs, each on its own rank of a real wire tree: what each
        // rank received in total, how much its trims spilled, its codec.
        let mut world = CommWorld::new(p);
        // lint:allow(raw-spawn): test host of rank threads over CommWorld endpoints
        let ranks: Vec<(Vec<f32>, usize, ErrorFeedback)> = std::thread::scope(|scope| {
            let handles: Vec<_> = world
                .communicators()
                .into_iter()
                .map(|mut comm| {
                    let (grads, blocks) = (&grads, blocks.clone());
                    scope.spawn(move || {
                        let mut codec = ErrorFeedback::new(comp, m, blocks);
                        let mut profile = SparseLevelProfile::default();
                        let (mut transmitted, mut spilled) = (vec![0.0f32; m], 0);
                        for round in grads {
                            let Payload::Sparse(mut sv, opts) =
                                codec.encode(&round[comm.rank()]).payload
                            else {
                                panic!("a sparse scheme ships sparse");
                            };
                            let spill =
                                sparse_allreduce_tree(&mut comm, &mut sv, opts, &mut profile)
                                    .expect("allreduce");
                            spilled += spill.nnz();
                            codec.absorb(&spill);
                            for (t, d) in transmitted.iter_mut().zip(sv.to_dense()) {
                                *t += d;
                            }
                        }
                        (transmitted, spilled, codec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect()
        });
        assert!(
            ranks.iter().map(|r| r.1).sum::<usize>() > 0,
            "the union bound must actually trim"
        );
        let transmitted = &ranks[0].0;
        for (r, rank) in ranks.iter().enumerate() {
            assert_eq!(&rank.0, transmitted, "rank {r} received another total");
        }
        // Σ transmitted + Σ residuals == Σ inputs, per coordinate.
        for j in 0..m {
            let input: f32 = grads.iter().flatten().map(|g| g[j]).sum();
            let owed: f32 = ranks.iter().map(|r| r.2.residual[j]).sum();
            assert_eq!(transmitted[j] + owed, input, "coordinate {j}");
        }
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0,1]")]
    fn bad_ratio_rejected() {
        Compression::topk(0.0).compress(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0,1]")]
    fn bad_schedule_ratio_rejected() {
        Compression::Sparse {
            k: KSchedule::fixed(1.5),
            q8: false,
            union_bound: false,
        }
        .compress(&[1.0]);
    }
}
