//! Full forward+backward hot-path harness: the PR-sized view that
//! `kernels.rs` is too narrow for. Times one training step (fwd + bwd, no
//! optimizer) of the Table I CNN and the Table II NLC network at batch 32
//! and 128, comparing
//!
//! * **before** — the pre-optimization path: per-image `*_ref` convolution
//!   kernels and a fresh workspace every step (every scratch buffer heap-
//!   allocated), and
//! * **after** — the per-image conv passes (one fork-join region per pass,
//!   each image lowered, multiplied and scattered by one worker) with one
//!   workspace arena persisted across steps.
//!
//! Both variants start from bit-identical parameters and consume identical
//! per-step RNG streams, so the first-step loss must agree bit for bit —
//! the harness records that check next to every timing. Steady-state heap
//! allocation counts come from the counting global allocator in
//! [`crate::alloc`] (installed by the `repro` binary), and `held_bytes` is
//! the capacity an "after" arena keeps between steady-state steps at width
//! 2 ([`Workspace::held_bytes`]): a number neither the runner's speed nor
//! its core count can move, which CI holds under a line so a
//! minibatch-sized scratch matrix cannot come back unnoticed. Results land in `BENCH_hotpath.json`.
//!
//! ## Engine step
//!
//! The suite above stops at `backward`. [`run_engine_step`] measures what
//! the engine adds around it — accumulate, local apply, the allreduce and
//! the global step — by running dense SASGD (`p = 2`, `T = 1`, batch 1) on
//! the full NLC network through `Executor` for one epoch and for two, and
//! charging the difference to the extra steps: set-up, arena warm-up and
//! teardown cancel. CI holds the allocated bytes per step under 1 MiB,
//! a seventh of one parameter vector. The one-epoch run also reports its
//! `peak_live_bytes`, the most heap it held at once above what was live
//! before it: a count of model-sized vectors per rank that no runner's
//! speed moves, which CI holds under a line too — and so does
//! `sparse_peak_live_bytes`, the same one-epoch run at layer-wise top-1 %
//! (the benchmark's `nlc_sparse_p2` codec), whose error-feedback residual
//! lives in the gradient arena.
//!
//! ## Encode
//!
//! [`run_encode`] times one rank's sparse round, `ErrorFeedback::encode`,
//! on the full NLC net's block map at layer-wise top-1 % (the benchmark's
//! `nlc_sparse_p2` setting), against one plain `acc += gs` pass over the
//! same `m` in the same process — the add backward makes onto the
//! accumulator, which carries the residual from round to round. The round
//! itself makes no add: it reads the accumulator once and then only the
//! groups that can win, so `encode_over_add` says how many add passes the
//! round costs, whatever the runner's speed. CI holds it under a line, and
//! `t1_round_over_add`, the dense `T = 1` round's ([`run_t1_round`]), too.
//!
//! ## Roofline sweep
//!
//! Alongside the model-level suite the harness sweeps the raw GEMM
//! kernels — NN / NT / TN at model-representative shapes — on two legs:
//! `serial` (width 1, the baseline every speedup is quoted against) and
//! `parallel` (same kernels, banded under a width of `max(2, cap)`). The
//! `nt` cells go
//! through [`linalg::gemm_nt_ws`], the dispatcher training calls
//! (transpose + the compacting NN kernel at these row counts); the dot
//! kernel it replaced stays in the sweep as the `nt_dot` oracle row. `A` is
//! filled at the density stated per shape, since the kernels skip its exact
//! zeros, and each shape reports two same-process ratios CI gates on:
//! `nt_over_nn` — serial dispatcher-NT GFLOP/s over serial NN GFLOP/s — and
//! `nn_over_nt_dot` — serial NN over the oracle, which falls back towards
//! 1.7 on `conv_im2col` if the NN kernel returns to a branch per term. Each
//! cell reports *nominal* GFLOP/s (`2·m·k·n` over time, skipped zeros
//! included); the parallel leg is *explicitly* at least 2 wide and the
//! [`parallel::regions_taken`] counter is recorded, so the artifact proves
//! intra-op threads actually engaged instead of silently serializing on
//! 1-core CI.

use std::time::Instant;

use sasgd_comm::collectives::Landing;
use sasgd_comm::{allreduce_over, CommWorld, Membership};
use sasgd_core::compress::ErrorFeedback;
use sasgd_core::{Algorithm, Backend, Compression, Executor, GammaP, KSchedule, TrainConfig};
use sasgd_data::nlc_like::{self, NlcLikeConfig};
use sasgd_nn::layers::{
    Dropout, Flatten, GlobalMaxOverTime, Linear, MaxPool2d, Relu, Tanh, TemporalConv1d,
    TemporalMaxPool,
};
use sasgd_nn::{init, layers::Conv2d, models, parallel, Ctx, Layer, Model};
use sasgd_tensor::conv::{conv2d_backward_ref, conv2d_forward_ref, Conv2dSpec};
use sasgd_tensor::{linalg, SeedRng, Tensor, Workspace};

use crate::alloc;
use crate::figures::Artifact;

/// Timing reps per variant (plus one warm-up step that also primes the
/// arena for the "after" path).
const REPS: usize = 3;
/// Steps averaged for the steady-state allocation count.
const ALLOC_STEPS: u64 = 2;
/// Kernel width of the steps `held_bytes` is measured after: 2, so that the
/// conv passes' per-worker scratch and parked partials are in it.
const HELD_WIDTH: usize = 2;

/// Model-representative GEMM shapes for the roofline sweep:
/// `(name, m, k, n, a_density)` as logical `A: [m,k] · B: [k,n]`, with
/// `a_density` the share of `A` that is non-zero.
const ROOFLINE_SHAPES: &[(&str, usize, usize, usize, f32)] = &[
    // Tall-skinny im2col product (CNN conv2 at batch 32, width/2); its
    // patches are post-ReLU/dropout activations plus zero padding.
    ("conv_im2col", 2048, 288, 64, 0.45),
    // What conv2's forward now runs: one image's 256 patch rows against
    // the transposed weight.
    ("conv_fwd_img", 256, 288, 64, 0.45),
    // conv2's per-image weight gradient: the image's [co, npix] gradient
    // block, 7/8 zeros after ReLU and dropout, times its patch rows.
    ("conv_dw_img", 64, 256, 288, 0.125),
    // NLC fully connected block at batch 128 (tanh activations: dense).
    ("nlc_linear", 128, 512, 512, 1.0),
    // Balanced reference point.
    ("square256", 256, 256, 256, 1.0),
];

/// Kernel rows per shape: the three layouts, plus the dot-product NT
/// kernel as an oracle row.
const ROOFLINE_KERNELS: [&str; 4] = ["nn", "nt", "nt_dot", "tn"];

/// One roofline row: a kernel at a shape, with one `(leg, ms, GFLOP/s)`
/// cell per leg.
pub struct RooflineRow {
    /// GEMM kernel: `nn`, `nt` (the training dispatcher), `nt_dot` (the
    /// dot-kernel oracle), or `tn`.
    pub kernel: &'static str,
    /// Shape label from the fixed `ROOFLINE_SHAPES` sweep.
    pub shape: &'static str,
    /// Logical GEMM extents.
    pub m: usize,
    /// Reduction extent.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Share of `A` that is non-zero.
    pub a_density: f32,
    /// `(leg name, best-of-REPS ms, GFLOP/s)` per leg, in sweep order.
    pub legs: Vec<(&'static str, f64, f64)>,
}

/// Results of the roofline sweep plus the evidence that the parallel
/// path genuinely ran.
pub struct Roofline {
    /// One row per kernel × shape.
    pub rows: Vec<RooflineRow>,
    /// [`parallel::regions_taken`] during the sweep — `> 0` proves the
    /// kernels fanned out (the parallel leg is ≥ 2 wide even on a 1-core
    /// machine).
    pub parallel_path_taken: u64,
}

impl RooflineRow {
    /// `(ms, GFLOP/s)` of the named leg, if this row ran it.
    fn leg(&self, name: &str) -> Option<(f64, f64)> {
        self.legs
            .iter()
            .find(|(l, _, _)| *l == name)
            .map(|&(_, ms, gflops)| (ms, gflops))
    }
}

impl Roofline {
    /// `(shape, ratio)` per swept shape: serial GFLOP/s of the `num` kernel's
    /// row over the `den` kernel's. The rows of a shape share `A`, `B` and
    /// the process, so the speed of the machine cancels.
    fn serial_ratio(&self, num: &str, den: &str) -> Vec<(&'static str, f64)> {
        let serial = |kernel, shape| {
            let row = self
                .rows
                .iter()
                .find(|r| r.kernel == kernel && r.shape == shape)?;
            Some(row.leg("serial")?.1)
        };
        self.rows
            .iter()
            .filter(|r| r.kernel == num)
            .filter_map(|r| Some((r.shape, serial(num, r.shape)? / serial(den, r.shape)?)))
            .collect()
    }

    /// The `nt` row (the dispatcher training calls) over the `nn` row:
    /// near 1.0 means forward GEMMs run at the backward kernel's speed.
    pub fn nt_over_nn(&self) -> Vec<(&'static str, f64)> {
        self.serial_ratio("nt", "nn")
    }

    /// The `nn` row over the `nt_dot` oracle, which neither skips zeros
    /// nor branches on them: how far the compacting kernel is ahead of a
    /// plain dot product on this `A`. On `conv_im2col` (45 % dense) the
    /// per-term-branch kernel it replaced scores ~1.7, this one ~5.
    pub fn nn_over_nt_dot(&self) -> Vec<(&'static str, f64)> {
        self.serial_ratio("nn", "nt_dot")
    }
}

/// Transpose a row-major `rows`×`cols` matrix (operand prep, unmeasured).
fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

/// Sweep the GEMM kernels across shapes and the two legs.
pub fn run_roofline() -> Roofline {
    // At least 2 wide on the parallel leg: oversubscription is
    // deterministic-safe, and it keeps the "did threads engage" check
    // meaningful on 1-core CI runners.
    let legs = [("serial", 1), ("parallel", parallel::cap().max(2))];

    parallel::reset_regions();
    let mut rng = SeedRng::new(0xF00F);
    let mut ws = Workspace::new();
    let mut rows = Vec::new();
    for &(shape, m, k, n, a_density) in ROOFLINE_SHAPES {
        let mut a = rng.normal_tensor(&[m, k], 1.0).into_vec();
        for v in &mut a {
            if !rng.bernoulli(a_density) {
                *v = 0.0;
            }
        }
        let b = rng.normal_tensor(&[k, n], 1.0).into_vec();
        let bt = transpose(&b, k, n); // physical [n, k] for the NT kernel
        let at = transpose(&a, m, k); // physical [k, m] for the TN kernel
        let mut out = vec![0.0f32; m * n];
        for kernel in ROOFLINE_KERNELS {
            let mut cells = Vec::new();
            for &(leg, width) in &legs {
                let mut best = f64::INFINITY;
                for _ in 0..REPS {
                    let t0 = Instant::now();
                    parallel::with_width(width, || match kernel {
                        "nn" => linalg::matmul_into(&mut out, &a, &b, m, k, n),
                        "nt" => linalg::gemm_nt_ws(&mut out, &a, &bt, m, k, n, &mut ws),
                        "nt_dot" => linalg::matmul_nt_into(&mut out, &a, &bt, m, k, n),
                        "tn" => linalg::matmul_tn_into(&mut out, &at, &b, k, m, n),
                        _ => unreachable!("kernel grid is fixed"),
                    });
                    best = best.min(t0.elapsed().as_secs_f64());
                }
                let gflops = 2.0 * (m * k * n) as f64 / best / 1e9;
                cells.push((leg, best * 1e3, gflops));
            }
            rows.push(RooflineRow {
                kernel,
                shape,
                m,
                k,
                n,
                a_density,
                legs: cells,
            });
        }
    }
    Roofline {
        rows,
        parallel_path_taken: parallel::regions_taken(),
    }
}

/// One benchmarked configuration: model × batch size, before/after times
/// and per-step steady-state allocation counts.
pub struct HotpathTiming {
    /// Configuration identifier (e.g. `table1_cnn_b32`).
    pub name: String,
    /// Best-of-`REPS` fwd+bwd step time on the pre-optimization path, ms.
    pub before_ms: f64,
    /// Best-of-`REPS` fwd+bwd step time on the batched/arena path, ms.
    pub after_ms: f64,
    /// Steady-state heap allocations per step, pre-optimization path.
    pub before_allocs: u64,
    /// Steady-state heap allocations per step, batched/arena path.
    pub after_allocs: u64,
    /// First-step losses of the two paths agreed bit for bit.
    pub loss_bitwise_equal: bool,
    /// Bytes a fresh "after" arena holds after a steady-state step at
    /// width `HELD_WIDTH`.
    pub held_bytes: usize,
}

/// Pre-PR convolution layer: per-image `*_ref` kernels, every intermediate
/// freshly heap-allocated. Same parameter block and initialization as
/// [`Conv2d`], so a model built from `Conv2dRef` layers is bit-identical
/// to its `Conv2d` twin.
struct Conv2dRef {
    spec: Conv2dSpec,
    cached_input: Option<Tensor>,
}

impl Conv2dRef {
    fn new(ci: usize, co: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        Conv2dRef {
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

    /// The `[co, patch]` weight tensor the `*_ref` kernels take, copied
    /// out of the parameter block.
    fn weight(&self, params: &[f32]) -> Tensor {
        let dims = [self.spec.co, self.spec.patch_len()];
        Tensor::from_vec(params[..dims[0] * dims[1]].to_vec(), &dims)
    }
}

impl Layer for Conv2dRef {
    fn name(&self) -> &'static str {
        "Conv2dRef"
    }

    fn forward(&mut self, input: Tensor, params: &[f32], ctx: &mut Ctx) -> Tensor {
        let weight = self.weight(params);
        let bias = &params[weight.numel()..];
        let out = conv2d_forward_ref(&input, &weight, bias, &self.spec);
        if ctx.training {
            self.cached_input = Some(input);
        }
        out
    }

    fn backward(
        &mut self,
        grad_out: Tensor,
        params: &[f32],
        grads: &mut [f32],
        _ctx: &mut Ctx,
    ) -> Tensor {
        let input = self.cached_input.take().expect("backward without forward");
        let got = conv2d_backward_ref(&input, &self.weight(params), &grad_out, &self.spec);
        let (dweight, dbias) = grads.split_at_mut(got.dweight.numel());
        for (a, b) in dweight.iter_mut().zip(got.dweight.as_slice()) {
            *a += b;
        }
        for (a, b) in dbias.iter_mut().zip(&got.dbias) {
            *a += b;
        }
        got.dinput
    }

    fn param_len(&self) -> usize {
        self.spec.co * self.spec.patch_len() + self.spec.co
    }

    fn init_params(&self, rng: &mut SeedRng, params: &mut [f32]) {
        init::torch_uniform(rng, params, self.spec.patch_len());
    }

    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
        let (oh, ow) = self.spec.out_hw(in_dims[1], in_dims[2]);
        vec![self.spec.co, oh, ow]
    }

    fn macs(&self, in_dims: &[usize]) -> u64 {
        self.spec.forward_macs(in_dims[1], in_dims[2])
    }
}

/// Table I CNN (width divided by `divisor`), with either the current
/// [`Conv2d`] layers or the pre-PR [`Conv2dRef`] ones. RNG draw order is
/// identical in both variants.
fn cnn_model(divisor: usize, reference: bool, rng: &mut SeedRng) -> Model {
    let c1 = 64 / divisor;
    let c2 = 128 / divisor;
    let c3 = 256 / divisor;
    let c4 = 128 / divisor;
    let conv = |ci, co, k, s, p| -> Box<dyn Layer> {
        if reference {
            Box::new(Conv2dRef::new(ci, co, k, k, s, p))
        } else {
            Box::new(Conv2d::new(ci, co, k, k, s, p))
        }
    };
    Model::new(
        vec![
            conv(3, c1, 5, 1, 2),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Dropout::new(0.5)),
            conv(c1, c2, 3, 1, 1),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Dropout::new(0.5)),
            conv(c2, c3, 3, 1, 1),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Dropout::new(0.5)),
            conv(c3, c4, 2, 1, 0),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Dropout::new(0.5)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(c4, 10)),
        ],
        &[3, 32, 32],
        rng,
    )
}

/// Table II NLC network (its layers have no `*_ref` twin: before/after
/// differ only in arena reuse).
fn nlc_model(seq_len: usize, rng: &mut SeedRng) -> Model {
    Model::new(
        vec![
            Box::new(Linear::new(100, 200)),
            Box::new(Tanh::new()),
            Box::new(TemporalConv1d::new(200, 1000, 2)),
            Box::new(TemporalMaxPool::new(2)),
            Box::new(Tanh::new()),
            Box::new(GlobalMaxOverTime::new()),
            Box::new(Linear::new(1000, 1000)),
            Box::new(Tanh::new()),
            Box::new(Linear::new(1000, 311)),
        ],
        &[seq_len, 100],
        rng,
    )
}

/// One training step (zero grads, forward+loss, backward). `ws` carries a
/// persistent arena across steps; `None` means a fresh workspace (and so
/// fresh heap allocations) every step — the pre-PR behaviour.
fn step(model: &mut Model, x: &Tensor, y: &[usize], seed: u64, ws: Option<&mut Workspace>) -> f32 {
    let mut ctx = Ctx::train(SeedRng::new(seed));
    if let Some(arena) = ws {
        ctx.ws = std::mem::take(arena);
        model.zero_grads();
        let out = model.forward_loss(x, y, &mut ctx);
        model.backward(&mut ctx);
        *arena = std::mem::take(&mut ctx.ws);
        out.loss
    } else {
        model.zero_grads();
        let out = model.forward_loss(x, y, &mut ctx);
        model.backward(&mut ctx);
        out.loss
    }
}

/// Benchmark one model/batch configuration: warm up, best-of-[`REPS`]
/// step times, then steady-state allocation counts over [`ALLOC_STEPS`].
fn run_case(
    name: &str,
    mut before: Model,
    mut after: Model,
    x: &Tensor,
    y: &[usize],
) -> HotpathTiming {
    // Identical per-step seeds on both paths: dropout masks match, so the
    // batched/arena path must reproduce the reference loss bit for bit.
    let before_loss = step(&mut before, x, y, 0, None);
    let mut ws = Workspace::new();
    let after_loss = step(&mut after, x, y, 0, Some(&mut ws));
    let loss_bitwise_equal = before_loss.to_bits() == after_loss.to_bits();

    let mut before_ms = f64::INFINITY;
    let mut after_ms = f64::INFINITY;
    for rep in 0..REPS {
        let seed = 1 + rep as u64;
        let t0 = Instant::now();
        step(&mut before, x, y, seed, None);
        before_ms = before_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        step(&mut after, x, y, seed, Some(&mut ws));
        after_ms = after_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    alloc::reset();
    for s in 0..ALLOC_STEPS {
        step(&mut before, x, y, 100 + s, None);
    }
    let before_allocs = alloc::allocs() / ALLOC_STEPS;
    alloc::reset();
    for s in 0..ALLOC_STEPS {
        step(&mut after, x, y, 100 + s, Some(&mut ws));
    }
    let after_allocs = alloc::allocs() / ALLOC_STEPS;

    // The footprint on a fresh arena at a fixed width, after a priming step
    // and a steady-state one: neither the runner's speed nor its core
    // count moves it.
    let mut fresh = Workspace::new();
    parallel::with_width(HELD_WIDTH, || {
        for s in 0..2 {
            step(&mut after, x, y, 200 + s, Some(&mut fresh));
        }
    });

    HotpathTiming {
        held_bytes: fresh.held_bytes(),
        name: name.to_string(),
        before_ms,
        after_ms,
        before_allocs,
        after_allocs,
        loss_bitwise_equal,
    }
}

/// Run the suite: Table I CNN and the NLC network at batch 32 and 128.
pub fn run_suite() -> Vec<HotpathTiming> {
    let mut rng = SeedRng::new(0xB0);
    let mut out = Vec::new();
    for &batch in &[32usize, 128] {
        let x = rng.normal_tensor(&[batch, 3, 32, 32], 1.0);
        let y: Vec<usize> = (0..batch).map(|i| i % 10).collect();
        out.push(run_case(
            &format!("table1_cnn_b{batch}"),
            cnn_model(1, true, &mut SeedRng::new(7)),
            cnn_model(1, false, &mut SeedRng::new(7)),
            &x,
            &y,
        ));
    }
    let seq = 20;
    for &batch in &[32usize, 128] {
        let x = rng.normal_tensor(&[batch, seq, 100], 1.0);
        let y: Vec<usize> = (0..batch).map(|i| i % 311).collect();
        out.push(run_case(
            &format!("nlc_b{batch}"),
            nlc_model(seq, &mut SeedRng::new(9)),
            nlc_model(seq, &mut SeedRng::new(9)),
            &x,
            &y,
        ));
    }
    out
}

/// Steady-state cost of one step-and-round of the threaded engine (see the
/// module docs, *Engine step*).
pub struct EngineStep {
    /// Wall-clock per step on a rank (the ranks step concurrently), ms.
    pub ms_per_step: f64,
    /// Heap allocations per rank-step.
    pub allocs_per_step: f64,
    /// Bytes allocated per rank-step.
    pub alloc_bytes_per_step: u64,
    /// Most heap bytes live at once during the one-epoch run, above what
    /// was live when it started: both ranks' models and whatever else the
    /// engine keeps per rank.
    pub peak_live_bytes: u64,
    /// [`peak_live_bytes`](Self::peak_live_bytes) of the one-epoch run at
    /// layer-wise top-1 %.
    pub sparse_peak_live_bytes: u64,
}

/// Sentences per epoch of [`run_engine_step`]: 32 steps per rank, enough
/// that the per-epoch evaluation's own buffers amortise.
const ENGINE_STEP_SAMPLES: usize = 64;

/// Dense SASGD at full NLC size for one epoch and for two, the difference
/// over the extra steps; and the one-epoch run's peak at layer-wise top-1 %.
pub fn run_engine_step() -> EngineStep {
    let (train, test) = nlc_like::generate(&NlcLikeConfig::scaled(ENGINE_STEP_SAMPLES, 16, 311));
    let factory = || models::nlc_net(20, &mut SeedRng::new(9));
    let measure = |algo: &Algorithm, epochs: usize| {
        let mut cfg = TrainConfig::new(epochs, 1, 0.01, 42);
        cfg.eval_cap = 16;
        let base = alloc::live_bytes();
        alloc::reset();
        let t0 = Instant::now();
        let h = Executor::new(Backend::Threaded).run(&factory, &train, &test, algo, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(h);
        let peak = alloc::peak_live_bytes().saturating_sub(base);
        (secs, alloc::allocs(), alloc::bytes(), peak)
    };
    let dense = Algorithm::sasgd(2, 1, GammaP::OverP);
    let (short, long) = (measure(&dense, 1), measure(&dense, 2));
    let top1 = Compression::Sparse {
        k: KSchedule::layer_wise(0.01),
        q8: false,
        union_bound: false,
    };
    let sparse = measure(&Algorithm::sasgd_compressed(2, 1, GammaP::OverP, top1), 1);
    let rank_steps = ENGINE_STEP_SAMPLES as f64; // batch 1: one per sample of the extra epoch
    EngineStep {
        ms_per_step: (long.0 - short.0) * 1e3 / (rank_steps / 2.0),
        allocs_per_step: long.1.saturating_sub(short.1) as f64 / rank_steps,
        alloc_bytes_per_step: long.2.saturating_sub(short.2) / ENGINE_STEP_SAMPLES as u64,
        peak_live_bytes: short.3,
        sparse_peak_live_bytes: sparse.3,
    }
}

/// An operation against a plain add pass over the same `m` (see the module
/// docs, *Encode*).
pub struct OverAdd {
    /// Median wall-clock of one operation, ms.
    pub op_ms: f64,
    /// Median wall-clock of one `acc += g` pass, ms.
    pub add_ms: f64,
}

impl OverAdd {
    /// `op_ms / add_ms`: the operation in units of one pass over `acc`.
    pub fn ratio(&self) -> f64 {
        self.op_ms / self.add_ms
    }

    /// Time `op(acc)` after an `acc += g` pass: medians of [`ROUNDS`] after a warm-up.
    fn measure(g: &[f32], mut op: impl FnMut(&mut [f32])) -> Self {
        let median = |mut ms: Vec<f64>| {
            ms.sort_by(f64::total_cmp);
            ms[ms.len() / 2]
        };
        let mut acc = vec![0.0f32; g.len()];
        let (mut op_ms, mut add_ms) = (Vec::new(), Vec::new());
        for round in 0..2 * ROUNDS {
            let t0 = Instant::now();
            acc.iter_mut().zip(g).for_each(|(a, &v)| *a += v);
            std::hint::black_box(&mut acc);
            let t1 = Instant::now();
            op(&mut acc);
            if round >= ROUNDS {
                add_ms.push((t1 - t0).as_secs_f64() * 1e3);
                op_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            }
        }
        OverAdd {
            op_ms: median(op_ms),
            add_ms: median(add_ms),
        }
    }
}

/// Timed rounds of [`OverAdd::measure`].
const ROUNDS: usize = 15;

/// Time `encode` at layer-wise top-1 % on the full NLC net's block map
/// (m = 1 733 511), and the `acc += gs` pass that feeds it each round.
pub fn run_encode() -> OverAdd {
    let blocks = models::nlc_net(20, &mut SeedRng::new(9)).param_blocks();
    let m = blocks.last().expect("the NLC net has parameters").1;
    // Per-block scales a decade apart, a third of the coordinates exactly
    // zero: batch-1 gradients are that sparse before the residual fills in.
    let mut rng = SeedRng::new(0xE7C0);
    let mut gs = vec![0.0f32; m];
    for (j, &(lo, hi)) in blocks.iter().enumerate() {
        let scale = 10f32.powi(-(j as i32 % 3));
        for v in &mut gs[lo..hi] {
            *v = if rng.below(3) == 0 {
                0.0
            } else {
                rng.normal() * scale
            };
        }
    }
    let comp = Compression::Sparse {
        k: KSchedule::layer_wise(0.01),
        q8: false,
        union_bound: false,
    };
    let mut codec = ErrorFeedback::new(comp, m, blocks);
    OverAdd::measure(&gs, |acc| {
        std::hint::black_box(codec.encode(acc));
    })
}

/// Rank 0's side of a dense `T = 1` round at `p = 2` on the NLC net's `m`
/// (the walk, and the [`Landing`] stepping `x` at the root) over an add pass.
pub fn run_t1_round() -> OverAdd {
    let m = models::nlc_net(20, &mut SeedRng::new(9)).param_len();
    let g = vec![1e-3f32; m];
    let mut world = CommWorld::new(2);
    // lint:allow(raw-spawn): bench host of rank threads over CommWorld endpoints
    std::thread::scope(|s| {
        let ranks: Vec<_> = (world.communicators().into_iter())
            .map(|mut comm| {
                let (g, mut x, mut grads) = (&g, vec![0.5f32; m], g.clone());
                s.spawn(move || {
                    OverAdd::measure(g, |_| {
                        let mut fold = Landing::new(&mut x, &mut grads, |n| 0.01 / n as f32);
                        allreduce_over(&mut comm, &mut Membership::new(2), &mut fold, None)
                            .expect("an in-process round");
                        fold.finish();
                    })
                })
            })
            .collect();
        let mut ranks = ranks.into_iter().map(|h| h.join().expect("a rank thread"));
        ranks.next().expect("rank 0")
    })
}

/// Hand-rolled JSON (the workspace builds offline, with no serde).
pub fn to_json(
    timings: &[HotpathTiming],
    roof: &Roofline,
    engine: &EngineStep,
    encode: &OverAdd,
    t1: &OverAdd,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"threads\": {},\n  \"alloc_counting\": {},\n  \
         \"parallel_path_taken\": {},\n  \"engine_step\": {{\"ms_per_step\": {:.3}, \
         \"allocs_per_step\": {:.1}, \"alloc_bytes_per_step\": {}, \"peak_live_bytes\": {}, \
         \"sparse_peak_live_bytes\": {}}},\n  \
         \"encode\": {{\"encode_ms\": {:.3}, \"add_ms\": {:.3}}},\n  \
         \"encode_over_add\": {:.2},\n  \
         \"t1_round_over_add\": {:.2},\n  \
         \"cases\": [\n",
        parallel::cap(),
        alloc::counting(),
        roof.parallel_path_taken,
        engine.ms_per_step,
        engine.allocs_per_step,
        engine.alloc_bytes_per_step,
        engine.peak_live_bytes,
        engine.sparse_peak_live_bytes,
        encode.op_ms,
        encode.add_ms,
        encode.ratio(),
        t1.ratio(),
    ));
    for (i, t) in timings.iter().enumerate() {
        let alloc_drop = if t.after_allocs > 0 {
            t.before_allocs as f64 / t.after_allocs as f64
        } else {
            0.0
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"before_ms\": {:.3}, \"after_ms\": {:.3}, \
             \"speedup\": {:.3}, \"before_allocs\": {}, \"after_allocs\": {}, \
             \"alloc_drop\": {:.1}, \"loss_bitwise_equal\": {}, \"held_bytes\": {}}}{}\n",
            t.name,
            t.before_ms,
            t.after_ms,
            t.before_ms / t.after_ms,
            t.before_allocs,
            t.after_allocs,
            alloc_drop,
            t.loss_bitwise_equal,
            t.held_bytes,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"roofline\": [\n");
    for (i, r) in roof.rows.iter().enumerate() {
        let serial_ms = r.leg("serial").map_or(f64::NAN, |(ms, _)| ms);
        let best_ms = r
            .legs
            .iter()
            .map(|&(_, ms, _)| ms)
            .fold(f64::INFINITY, f64::min);
        let mut legjson = String::new();
        for (j, (leg, ms, gflops)) in r.legs.iter().enumerate() {
            legjson.push_str(&format!(
                "\"{leg}\": {{\"ms\": {ms:.4}, \"gflops\": {gflops:.3}}}{}",
                if j + 1 < r.legs.len() { ", " } else { "" }
            ));
        }
        s.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"a_density\": {:.2}, \"best_over_serial\": {:.3}, \"legs\": {{{legjson}}}}}{}\n",
            r.kernel,
            r.shape,
            r.m,
            r.k,
            r.n,
            r.a_density,
            serial_ms / best_ms,
            if i + 1 < roof.rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let ratios = [
        ("nt_over_nn", roof.nt_over_nn()),
        ("nn_over_nt_dot", roof.nn_over_nt_dot()),
    ];
    for (i, (name, per_shape)) in ratios.iter().enumerate() {
        let cells: Vec<String> = per_shape
            .iter()
            .map(|(shape, ratio)| format!("\"{shape}\": {ratio:.3}"))
            .collect();
        s.push_str(&format!(
            "  \"{name}\": {{{}}}{}\n",
            cells.join(", "),
            if i + 1 < ratios.len() { "," } else { "" }
        ));
    }
    s.push_str("}\n");
    s
}

/// The `hotpath` repro target: run the suite and the roofline sweep, emit
/// a report plus `BENCH_hotpath.json`.
pub fn hotpath() -> Artifact {
    // The suite steps models on this thread, which nobody sized: give it
    // what a one-learner run gets.
    let timings = parallel::with_width(parallel::cap(), run_suite);
    let engine = run_engine_step();
    let encode = run_encode();
    let t1 = run_t1_round();
    let roof = run_roofline();
    let mut report = String::from(
        "Hot-path fwd+bwd step timings: per-image ref kernels + fresh buffers \
         (before) vs per-image conv passes + workspace arena (after)\n\n",
    );
    report.push_str(&format!(
        "{:<16} {:>10} {:>10} {:>8} {:>14} {:>13} {:>10}  bitwise\n",
        "case", "before ms", "after ms", "speedup", "allocs before", "allocs after", "held MiB"
    ));
    for t in &timings {
        report.push_str(&format!(
            "{:<16} {:>10.3} {:>10.3} {:>7.2}x {:>14} {:>13} {:>10.2}  {}\n",
            t.name,
            t.before_ms,
            t.after_ms,
            t.before_ms / t.after_ms,
            t.before_allocs,
            t.after_allocs,
            t.held_bytes as f64 / (1 << 20) as f64,
            if t.loss_bitwise_equal {
                "ok"
            } else {
                "DIVERGED"
            }
        ));
    }
    report.push_str(&format!(
        "\nengine step (dense SASGD, p=2, T=1, batch 1, full NLC net, through Executor): \
         {:.2} ms/step, {:.1} allocs and {} bytes allocated per rank-step, \
         {} bytes live at the one-epoch run's peak ({} at layer-wise top-1 %)\n",
        engine.ms_per_step,
        engine.allocs_per_step,
        engine.alloc_bytes_per_step,
        engine.peak_live_bytes,
        engine.sparse_peak_live_bytes
    ));
    report.push_str(&format!(
        "\nencode (layer-wise top-1 %, full NLC net, accumulator carried): {:.2} ms, \
         {:.2} ms for one plain acc += gs pass: encode_over_add = {:.2}; dense T = 1 round \
         at rank 0 of 2: {:.2} ms, t1_round_over_add = {:.2}\n",
        encode.op_ms,
        encode.add_ms,
        encode.ratio(),
        t1.op_ms,
        t1.ratio()
    ));
    if !alloc::counting() {
        report.push_str("\n(counting allocator not installed: alloc columns are zero)\n");
    }
    report.push_str(&format!(
        "\nthreads = {} (the cap the step timings above ran under)\n",
        parallel::cap()
    ));

    report.push_str("\nRoofline: GFLOP/s per kernel x shape x leg\n");
    report.push_str(
        "(serial = width 1; the parallel leg is >= 2 wide; nt = the gemm_nt_ws dispatcher, \
         nt_dot = the dot-kernel oracle; nominal GF/s, A zeros skipped)\n\n",
    );
    let leg_names: Vec<&str> = roof
        .rows
        .first()
        .map(|r| r.legs.iter().map(|&(l, _, _)| l).collect())
        .unwrap_or_default();
    report.push_str(&format!(
        "{:<8} {:<12} {:<16} {:>7}",
        "kernel", "shape", "m*k*n", "A dens"
    ));
    for l in &leg_names {
        report.push_str(&format!(" {l:>14}"));
    }
    report.push_str(&format!(" {:>12}\n", "best/serial"));
    for r in &roof.rows {
        report.push_str(&format!(
            "{:<8} {:<12} {:<16} {:>7.2}",
            r.kernel,
            r.shape,
            format!("{}x{}x{}", r.m, r.k, r.n),
            r.a_density
        ));
        let serial_ms = r.leg("serial").map_or(f64::NAN, |(ms, _)| ms);
        let mut best_ms = f64::INFINITY;
        for &(_, ms, gflops) in &r.legs {
            report.push_str(&format!(" {gflops:>14.3}"));
            best_ms = best_ms.min(ms);
        }
        report.push_str(&format!(" {:>11.2}x\n", serial_ms / best_ms));
    }
    for (title, per_shape) in [
        (
            "nt_over_nn (serial dispatcher-NT GF/s / NN GF/s, same A)",
            roof.nt_over_nn(),
        ),
        (
            "nn_over_nt_dot (serial NN GF/s / dot-kernel NT GF/s, same A)",
            roof.nn_over_nt_dot(),
        ),
    ] {
        report.push_str(&format!("\n{title}:"));
        for (shape, ratio) in per_shape {
            report.push_str(&format!("  {shape} {ratio:.2}"));
        }
        report.push('\n');
    }
    report.push_str(&format!(
        "\nparallel_path_taken = {} region(s) fanned out\n",
        roof.parallel_path_taken
    ));
    Artifact {
        name: "hotpath".to_string(),
        report,
        csvs: vec![(
            "BENCH_hotpath.json".to_string(),
            to_json(&timings, &roof, &engine, &encode, &t1),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_and_batched_cnn_agree_bitwise_on_small_model() {
        let mut before = cnn_model(8, true, &mut SeedRng::new(3));
        let mut after = cnn_model(8, false, &mut SeedRng::new(3));
        assert_eq!(before.param_vector(), after.param_vector());
        let mut rng = SeedRng::new(4);
        let x = rng.normal_tensor(&[2, 3, 32, 32], 1.0);
        let y = [0usize, 1];
        let mut ws = Workspace::new();
        for s in 0..2u64 {
            let lb = step(&mut before, &x, &y, s, None);
            let la = step(&mut after, &x, &y, s, Some(&mut ws));
            assert_eq!(lb.to_bits(), la.to_bits(), "step {s} loss diverged");
        }
        // Gradients too, not just the loss.
        let gb = before.grad_vector();
        let ga = after.grad_vector();
        for (i, (a, b)) in gb.iter().zip(&ga).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "grad[{i}] diverged");
        }
    }

    #[test]
    fn json_is_well_formed() {
        let t = vec![HotpathTiming {
            name: "t".into(),
            before_ms: 3.0,
            after_ms: 1.5,
            before_allocs: 500,
            after_allocs: 25,
            loss_bitwise_equal: true,
            held_bytes: 4096,
        }];
        let roof = Roofline {
            rows: vec![
                RooflineRow {
                    kernel: "nn",
                    shape: "square256",
                    m: 256,
                    k: 256,
                    n: 256,
                    a_density: 1.0,
                    legs: vec![("serial", 4.0, 8.4), ("parallel", 2.0, 16.8)],
                },
                RooflineRow {
                    kernel: "nt",
                    shape: "square256",
                    m: 256,
                    k: 256,
                    n: 256,
                    a_density: 1.0,
                    legs: vec![("serial", 5.0, 6.3)],
                },
                RooflineRow {
                    kernel: "nt_dot",
                    shape: "square256",
                    m: 256,
                    k: 256,
                    n: 256,
                    a_density: 1.0,
                    legs: vec![("serial", 10.0, 4.2)],
                },
            ],
            parallel_path_taken: 3,
        };
        let engine = EngineStep {
            ms_per_step: 6.25,
            allocs_per_step: 21.5,
            alloc_bytes_per_step: 40_960,
            peak_live_bytes: 27_000_000,
            sparse_peak_live_bytes: 26_000_000,
        };
        let encode = OverAdd {
            op_ms: 6.0,
            add_ms: 0.8,
        };
        let t1 = OverAdd {
            op_ms: 2.0,
            add_ms: 0.8,
        };
        let j = to_json(&t, &roof, &engine, &encode, &t1);
        assert!(j.contains(
            "\"engine_step\": {\"ms_per_step\": 6.250, \"allocs_per_step\": 21.5, \
             \"alloc_bytes_per_step\": 40960, \"peak_live_bytes\": 27000000, \
             \"sparse_peak_live_bytes\": 26000000}"
        ));
        assert!(j.contains("\"encode\": {\"encode_ms\": 6.000, \"add_ms\": 0.800},"));
        assert!(j.contains("\"encode_over_add\": 7.50,"));
        assert!(j.contains("\"t1_round_over_add\": 2.50,"));
        assert!(j.contains("\"speedup\": 2.000"));
        assert!(j.contains("\"alloc_drop\": 20.0"));
        assert!(j.contains("\"loss_bitwise_equal\": true, \"held_bytes\": 4096}"));
        assert!(j.contains("\"parallel_path_taken\": 3"));
        assert!(j.contains("\"roofline\""));
        assert!(j.contains("\"best_over_serial\": 2.000"));
        assert!(j.contains("\"a_density\": 1.00"));
        assert!(j.contains("\"nt_over_nn\": {\"square256\": 0.750},"));
        assert!(j.contains("\"nn_over_nt_dot\": {\"square256\": 2.000}\n"));
        // The top-level keys, exactly: nothing else rides in the artifact.
        let keys: Vec<&str> = j
            .lines()
            .filter_map(|l| l.strip_prefix("  \"")?.split('"').next())
            .collect();
        assert_eq!(
            keys,
            [
                "threads",
                "alloc_counting",
                "parallel_path_taken",
                "engine_step",
                "encode",
                "encode_over_add",
                "t1_round_over_add",
                "cases",
                "roofline",
                "nt_over_nn",
                "nn_over_nt_dot"
            ]
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn roofline_sweeps_both_legs() {
        let roof = run_roofline();
        // 4 kernel rows x 5 shapes, each with `serial` and `parallel`.
        assert_eq!(
            roof.rows.len(),
            ROOFLINE_SHAPES.len() * ROOFLINE_KERNELS.len()
        );
        for r in &roof.rows {
            let legs: Vec<&str> = r.legs.iter().map(|&(l, _, _)| l).collect();
            assert_eq!(legs, ["serial", "parallel"], "{}/{}", r.kernel, r.shape);
            for &(leg, ms, gflops) in &r.legs {
                assert!(ms > 0.0 && gflops > 0.0, "{leg} cell not measured");
            }
        }
        // One finite same-process ratio per shape for each CI gate.
        for ratios in [roof.nt_over_nn(), roof.nn_over_nt_dot()] {
            assert_eq!(ratios.len(), ROOFLINE_SHAPES.len());
            assert!(ratios.iter().all(|&(_, r)| r.is_finite() && r > 0.0));
        }
        // The parallel leg must prove it fanned out.
        assert!(roof.parallel_path_taken > 0, "no region fanned out");
    }
}
