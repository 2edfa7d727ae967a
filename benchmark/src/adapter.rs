//! Every call the benchmark makes into the program, in one file: the API
//! surface a later refactor must keep (or change here, and only here).
//!
//! * `build` / `Built::head` — datasets, model factory, `Algorithm`,
//!   `TrainConfig` from a workload spec and a seed;
//! * `run_engine` — the timed entry point, `Executor::try_run`;
//! * `run_replica` — the benchmark's own copy of the lockstep rank loop,
//!   made only of public layer functions, with a span around each call;
//! * `probe_tensor` — the GEMM and im2col kernels in isolation (`tensor`
//!   cannot be spanned from outside `nn`);
//! * `predict_comm_share` — the simnet cost model on the same config.

use std::time::Instant;

use sasgd_comm::collectives::{allreduce_tree, broadcast};
use sasgd_comm::sparse::{sparse_allreduce_tree_v2, SparseLevelProfile, SparseTreeOpts, SparseVec};
use sasgd_comm::world::{CommWorld, Communicator};
use sasgd_core::epoch_time::{epoch_time, Aggregation, Workload};
use sasgd_core::{
    Algorithm, Backend, Compression, Executor, GammaP, KSchedule, KState, TrainConfig,
};
use sasgd_data::cifar_like::{self, CifarLikeConfig};
use sasgd_data::nlc_like::{self, NlcLikeConfig};
use sasgd_data::{make_shards, Dataset, Shard};
use sasgd_nn::{models, Ctx, Model};
use sasgd_simnet::{CostModel, JitterModel};
use sasgd_tensor::conv::{self, Conv2dSpec};
use sasgd_tensor::{linalg, SeedRng, Tensor, Workspace};

use crate::alloc;
use crate::trace::{median, Tracer};
use crate::workloads::{conv_geoms, gemm_shapes, Algo, GemmKind, Net, Spec, GAMMA};

/// SplitMix64 finaliser: independent sub-seeds from the one CLI seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns: equal iff the vectors are bitwise equal
/// (up to hash collisions), printable in a report.
pub fn checksum(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Length and checksum of a parameter vector: what the gates compare, so
/// that no run has to keep the vector itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: usize,
    pub checksum: u64,
}

impl Fingerprint {
    pub fn of(values: &[f32]) -> Self {
        Self {
            len: values.len(),
            checksum: checksum(values),
        }
    }
}

/// A workload instantiated for one seed: the program's inputs.
pub struct Built {
    pub spec: &'static Spec,
    pub train: Dataset,
    pub test: Dataset,
    pub algo: Algorithm,
    pub cfg: TrainConfig,
    init_seed: u64,
    /// Seconds spent generating the two datasets.
    pub gen_s: f64,
}

fn compression(spec: &Spec) -> Option<Compression> {
    match spec.algo {
        Algo::SasgdSparse { ratio, .. } => Some(Compression::Sparse {
            k: KSchedule::layer_wise(ratio),
            q8: false,
            union_bound: false,
        }),
        _ => None,
    }
}

/// Datasets, algorithm and config of `spec`, all derived from `seed`.
pub fn build(spec: &'static Spec, seed: u64) -> Built {
    let t0 = Instant::now();
    let data_seed = derive_seed(seed, 1);
    let (train, test) = match spec.net {
        Net::Cnn { .. } => cifar_like::generate(&CifarLikeConfig {
            train: spec.train,
            test: spec.test,
            classes: spec.classes,
            seed: data_seed,
            ..CifarLikeConfig::default()
        }),
        Net::Nlc { seq_len } => nlc_like::generate(&NlcLikeConfig {
            train: spec.train,
            test: spec.test,
            classes: spec.classes,
            seq_len,
            seed: data_seed,
            ..NlcLikeConfig::default()
        }),
    };
    let gen_s = t0.elapsed().as_secs_f64();
    let algo = match spec.algo {
        Algo::Sequential => Algorithm::Sequential,
        Algo::Sasgd { t } => Algorithm::sasgd(spec.p, t, GammaP::OverP),
        Algo::SasgdSparse { t, .. } => Algorithm::sasgd_compressed(
            spec.p,
            t,
            GammaP::OverP,
            compression(spec).expect("sparse workload has a compression"),
        ),
    };
    let mut cfg = TrainConfig::new(spec.epochs, spec.batch, GAMMA, derive_seed(seed, 3));
    cfg.jitter = JitterModel::none();
    cfg.eval_cap = spec.eval_cap;
    Built {
        spec,
        train,
        test,
        algo,
        cfg,
        init_seed: derive_seed(seed, 2),
        gen_s,
    }
}

/// The first `n` samples of `d` as a dataset of their own.
fn head(d: &Dataset, n: usize) -> Dataset {
    let idx: Vec<usize> = (0..n.min(d.len())).collect();
    let (x, labels) = d.batch(&idx);
    Dataset::new(x.into_vec(), labels, d.sample_dims(), d.classes())
}

impl Built {
    /// A freshly initialised model — the same parameters on every call.
    pub fn model(&self) -> Model {
        let mut rng = SeedRng::new(self.init_seed);
        match self.spec.net {
            Net::Cnn { divisor } => models::cifar_cnn_scaled(divisor, &mut rng),
            Net::Nlc { seq_len } => models::nlc_net(seq_len, &mut rng),
        }
    }

    /// A one-epoch slice of this workload: `steps` minibatches of `batch`
    /// per rank over the head of the training set, same algorithm and seeds.
    pub fn head(&self, steps: usize, batch: usize, eval_cap: usize) -> Built {
        let mut cfg = self.cfg.clone();
        cfg.epochs = 1;
        cfg.batch_size = batch;
        cfg.eval_cap = eval_cap;
        Built {
            spec: self.spec,
            train: head(&self.train, steps * batch * self.spec.p),
            test: head(&self.test, eval_cap),
            algo: self.algo,
            cfg,
            init_seed: self.init_seed,
            gen_s: 0.0,
        }
    }

    /// Checksum of both datasets and the initial parameters.
    #[cfg(test)]
    pub fn fingerprint(&self) -> u64 {
        let all = |d: &Dataset| d.batch(&(0..d.len()).collect::<Vec<_>>());
        let (x, y) = all(&self.train);
        let (tx, ty) = all(&self.test);
        let labels: Vec<f32> = y.iter().chain(&ty).map(|&l| l as f32).collect();
        checksum(x.as_slice())
            ^ checksum(tx.as_slice()).rotate_left(1)
            ^ checksum(&labels).rotate_left(2)
            ^ checksum(&self.model().param_vector()).rotate_left(3)
    }

    /// Minibatches one rank takes per epoch. SASGD truncates to whole
    /// minibatches of the smallest shard; sequential SGD also takes the
    /// ragged last batch.
    pub fn steps_per_epoch(&self) -> usize {
        match self.spec.algo {
            Algo::Sequential => self.train.len().div_ceil(self.cfg.batch_size),
            _ => (self.train.len() / self.spec.p) / self.cfg.batch_size,
        }
    }

    /// Allreduce rounds of one run (the engine's `since_agg` carries across
    /// epoch boundaries, so it is the floor over the whole run).
    pub fn rounds(&self) -> usize {
        match self.spec.t() {
            0 => 0,
            t => self.cfg.epochs * self.steps_per_epoch() / t,
        }
    }

    /// Operations one run of this instance attempts.
    pub fn ops(&self) -> u64 {
        (self.spec.p * self.cfg.epochs * self.steps_per_epoch() + self.rounds()) as u64
    }
}

/// What one `Executor::try_run` returned, reduced to what the gates and
/// metrics read.
pub struct EngineRun {
    /// Wall-clock of the `try_run` call alone.
    pub wall_s: f64,
    pub records: usize,
    pub losses_finite: bool,
    pub final_train_loss: f64,
    /// Of `History.final_params`. The vector is dropped here: a run holds
    /// many units, and 6.9 MB kept per unit would make `peak_rss_mb` grow
    /// with the number of units a run fits.
    pub params: Fingerprint,
    pub wire_elements: Option<u64>,
    pub retired: usize,
}

pub fn run_engine(b: &Built, backend: Backend) -> Result<EngineRun, String> {
    let factory = || b.model();
    let t0 = Instant::now();
    let result = Executor::new(backend).try_run(&factory, &b.train, &b.test, &b.algo, &b.cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let h = result.map_err(|e| e.to_string())?;
    Ok(EngineRun {
        wall_s,
        records: h.records.len(),
        losses_finite: h
            .records
            .iter()
            .all(|r| r.train_loss.is_finite() && r.test_loss.is_finite()),
        final_train_loss: h
            .records
            .last()
            .map_or(f64::NAN, |r| f64::from(r.train_loss)),
        params: Fingerprint::of(&h.final_params.unwrap_or_default()),
        wire_elements: h.wire.map(|w| w.elements),
        retired: h.retirements.len(),
    })
}

/// What the replica loop produced besides its spans.
pub struct ReplicaRun {
    /// Wall-clock of the whole replica run, thread start-up included.
    pub wall_s: f64,
    /// One tracer per rank, in rank order.
    pub tracers: Vec<Tracer>,
    pub final_params: Vec<f32>,
    pub wire_elements: u64,
    pub wire_messages: u64,
    /// `k_eff` of every compressed round, all ranks.
    pub k_eff: Vec<usize>,
    /// Steady-state heap traffic: `(steps counted, heap calls, bytes)`.
    pub step_allocs: (u64, u64, u64),
}

struct RankOut {
    final_params: Vec<f32>,
    k_eff: Vec<usize>,
    step_allocs: (u64, u64, u64),
}

/// Steps a rank takes before its heap traffic counts as steady state (the
/// workspace arena fills on the first ones).
const ALLOC_WARMUP_STEPS: u64 = 2;

/// Pre-batched evaluation sets, as the engine's `EvalSets::prepare` builds
/// them: the first `cap` samples in chunks of 64.
fn eval_batches(d: &Dataset, cap: usize) -> (Vec<Tensor>, Vec<Vec<usize>>) {
    let n = if cap == 0 { d.len() } else { d.len().min(cap) };
    let idx: Vec<usize> = (0..n).collect();
    idx.chunks(64).map(|chunk| d.batch(chunk)).unzip()
}

/// The engine's per-epoch record, for its cost: both evaluations plus the
/// two-batch gradient-norm estimate. Leaves parameters and streams alone.
fn epoch_record(
    model: &mut Model,
    train: &(Vec<Tensor>, Vec<Vec<usize>>),
    test: &(Vec<Tensor>, Vec<Vec<usize>>),
    tr: &mut Tracer,
) -> f32 {
    let s = tr.begin("nn.evaluate");
    let (train_loss, _) = model.evaluate(&train.0, &train.1);
    let _ = model.evaluate(&test.0, &test.1);
    tr.end(s);
    let s = tr.begin("nn.grad_norm");
    let mut grad = vec![0.0f32; model.param_len()];
    for (x, y) in train.0.iter().zip(&train.1).take(2) {
        model.zero_grads();
        let mut ctx = Ctx::measure();
        model.forward_loss(x, y, &mut ctx);
        model.backward(&mut ctx);
        for (a, &b) in grad.iter_mut().zip(&model.grad_vector()) {
            *a += b;
        }
    }
    model.zero_grads();
    std::hint::black_box(grad.iter().map(|v| v * v).sum::<f32>().sqrt());
    tr.end(s);
    train_loss
}

/// One rank of the lockstep loop the threaded backend runs — sequential
/// SGD when `comm` is `None`, (compressed) SASGD otherwise — call for call
/// and stream for stream, so its `final_params` equal the engine's bitwise.
fn replica_rank(
    b: &Built,
    mut comm: Option<&mut Communicator>,
    shard: &Shard,
    tr: &mut Tracer,
) -> Result<RankOut, String> {
    let run = tr.begin("run");
    let cfg = &b.cfg;
    let rank = comm.as_ref().map_or(0, |c| c.rank());
    let t = b.spec.t();
    let comp = compression(b.spec);
    let steps_per_epoch = b.steps_per_epoch();

    let s = tr.begin("nn.model_init");
    let mut model = b.model();
    tr.end(s);
    let mut rng = SeedRng::new(cfg.seed).split(0x100 + rank as u64);
    let mut ws = Workspace::new();
    let m = model.param_len();
    let mut gs = vec![0.0f32; m];
    let mut x = model.param_vector();
    if let Some(c) = comm.as_deref_mut() {
        let s = tr.begin("comm.broadcast");
        broadcast(c, 0, &mut x).map_err(|e| format!("rank {rank} broadcast: {e}"))?;
        model.write_params(&x);
        tr.end(s);
    }
    let mut residual = vec![0.0f32; if comp.is_some() { m } else { 0 }];
    let mut kstate = comp.map(|c| KState::new(&c, model.param_blocks()));
    let evals = (rank == 0).then(|| {
        let s = tr.begin("data.eval_prepare");
        let sets = (
            eval_batches(&b.train, cfg.eval_cap),
            eval_batches(&b.test, cfg.eval_cap),
        );
        tr.end(s);
        sets
    });

    let mut since_agg = 0usize;
    let mut k_eff = Vec::new();
    let mut steps_done = 0u64;
    let mut step_allocs = (0u64, 0u64, 0u64);
    for epoch in 1..=cfg.epochs {
        let ep = tr.begin("epoch");
        let s = tr.begin("data.shuffle");
        let batches: Vec<Vec<usize>> = shard
            .epoch_iter(cfg.batch_size, &mut rng)
            .take(steps_per_epoch)
            .collect();
        tr.end(s);
        for (step, idx) in batches.iter().enumerate() {
            let gamma = cfg.gamma_at((epoch - 1) as f64 + step as f64 / steps_per_epoch as f64);
            let heap0 = alloc::thread_counts();
            let st = tr.begin("step");

            let s = tr.begin("data.batch");
            let (bx, by) = b.train.batch(idx);
            tr.end(s);
            let mut ctx = Ctx::train(rng.split(0xD5));
            let _ = rng.uniform();
            ctx.ws = std::mem::take(&mut ws);
            let s = tr.begin("nn.forward");
            model.zero_grads();
            model.forward_loss(&bx, &by, &mut ctx);
            tr.end(s);
            let s = tr.begin("nn.backward");
            model.backward(&mut ctx);
            tr.end(s);
            ws = std::mem::take(&mut ctx.ws);

            let s = tr.begin("core.accumulate");
            let g = model.grad_vector();
            for (a, &v) in gs.iter_mut().zip(&g) {
                *a += v;
            }
            tr.end(s);
            let s = tr.begin("core.local_apply");
            let mut params = model.param_vector();
            for (pv, &gv) in params.iter_mut().zip(&g) {
                *pv -= gamma * gv;
            }
            model.write_params(&params);
            tr.end(s);
            if comm.is_none() {
                // Sequential SGD never aggregates; it clears `gs` per step.
                let s = tr.begin("core.accumulate");
                gs.iter_mut().for_each(|v| *v = 0.0);
                tr.end(s);
            }
            // Freed inside the step, where the engine's `local_step` frees them.
            drop((g, params, bx, by));

            tr.end(st);
            steps_done += 1;
            if steps_done > ALLOC_WARMUP_STEPS {
                let heap1 = alloc::thread_counts();
                step_allocs.0 += 1;
                step_allocs.1 += heap1.0 - heap0.0;
                step_allocs.2 += heap1.1 - heap0.1;
            }

            since_agg += 1;
            let Some(c) = comm.as_deref_mut() else {
                continue;
            };
            if since_agg < t {
                continue;
            }
            let gp = GammaP::OverP.resolve(gamma, b.spec.p);
            let rd = tr.begin("round");
            let total: Vec<f32> = match (comp, kstate.as_mut()) {
                (Some(comp), Some(ks)) => {
                    let s = tr.begin("core.compress");
                    let input: Vec<f32> = gs.iter().zip(&residual).map(|(a, r)| a + r).collect();
                    let cmp = comp.compress_with(&input, ks);
                    residual = cmp.residual;
                    k_eff.push(cmp.k_eff);
                    tr.end(s);
                    let s = tr.begin("comm.codec");
                    let mut sv = SparseVec::from_dense(&cmp.dense);
                    tr.end(s);
                    let s = tr.begin("comm.allreduce");
                    let mut profile = SparseLevelProfile::default();
                    let opts = SparseTreeOpts {
                        union_bound: None,
                        q8_scale: cmp.q8_scale,
                    };
                    let spill = sparse_allreduce_tree_v2(c, &mut sv, opts, &mut profile)
                        .map_err(|e| format!("rank {rank} sparse allreduce: {e}"))?;
                    tr.end(s);
                    let s = tr.begin("comm.codec");
                    for (&i, &v) in spill.idx.iter().zip(&spill.val) {
                        residual[i as usize] += v;
                    }
                    let dense = sv.to_dense();
                    tr.end(s);
                    dense
                }
                _ => {
                    let s = tr.begin("comm.allreduce");
                    allreduce_tree(c, &mut gs)
                        .map_err(|e| format!("rank {rank} allreduce: {e}"))?;
                    tr.end(s);
                    // The engine applies a clone of the reduced buffer;
                    // the copy is part of what its global step costs.
                    let s = tr.begin("core.global_apply");
                    let total = gs.clone();
                    tr.end(s);
                    total
                }
            };
            let s = tr.begin("core.global_apply");
            for (xi, &g) in x.iter_mut().zip(&total) {
                *xi -= gp * g;
            }
            model.write_params(&x);
            gs.iter_mut().for_each(|v| *v = 0.0);
            tr.end(s);
            tr.end(rd);
            since_agg = 0;
        }
        if let Some((train, test)) = &evals {
            epoch_record(&mut model, train, test, tr);
        }
        tr.end(ep);
    }
    let final_params = model.param_vector();
    tr.end(run);
    Ok(RankOut {
        final_params,
        k_eff,
        step_allocs,
    })
}

/// Run the replica loop on `b` with spans and per-thread heap counting on.
pub fn run_replica(b: &Built) -> Result<ReplicaRun, String> {
    let base = Instant::now();
    let p = b.spec.p;
    let shards = make_shards(&b.train, p, b.cfg.shard_strategy);
    let mut tracers: Vec<Tracer> = (0..p).map(|r| Tracer::new(base, r)).collect();
    alloc::set_enabled(true);
    let (outs, wire) = if b.spec.t() == 0 {
        let out = replica_rank(b, None, &shards[0], &mut tracers[0]);
        (vec![out], (0, 0))
    } else {
        let mut world = CommWorld::new(p);
        let traffic = world.traffic();
        let comms = world.communicators();
        let outs = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .zip(&shards)
                .zip(tracers.iter_mut())
                .map(|((mut comm, shard), tr)| {
                    scope.spawn(move || replica_rank(b, Some(&mut comm), shard, tr))
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join()
                        .unwrap_or_else(|_| Err(format!("replica rank {rank} panicked")))
                })
                .collect::<Vec<_>>()
        });
        (outs, (traffic.elements_sent(), traffic.messages_sent()))
    };
    alloc::set_enabled(false);
    let wall_s = base.elapsed().as_secs_f64();
    let outs = outs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut run = ReplicaRun {
        wall_s,
        tracers,
        final_params: outs[0].final_params.clone(),
        wire_elements: wire.0,
        wire_messages: wire.1,
        k_eff: Vec::new(),
        step_allocs: (0, 0, 0),
    };
    for o in outs {
        run.k_eff.extend(o.k_eff);
        run.step_allocs.0 += o.step_allocs.0;
        run.step_allocs.1 += o.step_allocs.1;
        run.step_allocs.2 += o.step_allocs.2;
    }
    Ok(run)
}

/// The tensor layer in isolation, at the workload's shapes.
pub struct TensorProbe {
    pub gemm_ms_per_step: f64,
    /// Executed (non-skipped) GEMM flops per second.
    pub gemm_gflops: f64,
    pub im2col_ms_per_step: f64,
}

const PROBE_REPS: usize = 7;

fn time_reps(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Normal values, each kept with probability `density` and zeroed otherwise.
fn operand(len: usize, density: f64, rng: &mut SeedRng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let v = rng.normal();
            if density >= 1.0 || f64::from(rng.uniform()) < density {
                v
            } else {
                0.0
            }
        })
        .collect()
}

/// Time every GEMM and conv-lowering call of one training step of `spec`,
/// median of `PROBE_REPS` each, through the dispatchers `nn` calls.
pub fn probe_tensor(spec: &Spec, seed: u64) -> TensorProbe {
    let mut rng = SeedRng::new(derive_seed(seed, 4));
    let mut ws = Workspace::new();
    let mut gemm_s = 0.0;
    let mut flops = 0.0;
    for sh in gemm_shapes(spec.net, spec.batch) {
        let a = operand(sh.m * sh.k, sh.a_density, &mut rng);
        let bm = operand(sh.k * sh.n, 1.0, &mut rng);
        let mut out = vec![0.0f32; sh.m * sh.n];
        let per_call = time_reps(|| {
            let (a, bm) = (std::hint::black_box(&a), std::hint::black_box(&bm));
            match sh.kind {
                GemmKind::Nn => linalg::gemm_nn_ws(&mut out, a, bm, sh.m, sh.k, sh.n, &mut ws),
                GemmKind::Nt => linalg::gemm_nt_ws(&mut out, a, bm, sh.m, sh.k, sh.n, &mut ws),
                GemmKind::Tn => linalg::gemm_tn_ws(&mut out, a, bm, sh.k, sh.m, sh.n, &mut ws),
            }
            std::hint::black_box(&mut out);
        });
        gemm_s += per_call * sh.calls_per_step as f64;
        let executed = if sh.kind == GemmKind::Nt {
            1.0
        } else {
            sh.a_density
        };
        flops += 2.0 * sh.macs_per_step() as f64 * executed;
    }
    let mut im2col_s = 0.0;
    for g in conv_geoms(spec.net) {
        let cs = Conv2dSpec {
            ci: g.ci,
            co: g.co,
            kh: g.kernel,
            kw: g.kernel,
            stride: 1,
            pad: g.pad,
        };
        let n = spec.batch;
        let input = operand(n * g.ci * g.side * g.side, 1.0, &mut rng);
        let rows = n * g.out_side() * g.out_side();
        let mut cols = vec![0.0f32; rows * cs.patch_len()];
        // Forward lowers once; backward lowers again and scatters back.
        im2col_s += 2.0
            * time_reps(|| {
                conv::im2col_batch_into(
                    std::hint::black_box(&input),
                    n,
                    g.ci,
                    g.side,
                    g.side,
                    &cs,
                    &mut cols,
                );
                std::hint::black_box(&mut cols);
            });
        let mut grad = vec![0.0f32; input.len()];
        im2col_s += time_reps(|| {
            conv::col2im_batch(
                std::hint::black_box(&cols),
                n,
                g.ci,
                g.side,
                g.side,
                &cs,
                &mut grad,
            );
            std::hint::black_box(&mut grad);
        });
    }
    TensorProbe {
        gemm_ms_per_step: gemm_s * 1e3,
        gemm_gflops: if gemm_s > 0.0 {
            flops / gemm_s / 1e9
        } else {
            0.0
        },
        im2col_ms_per_step: im2col_s * 1e3,
    }
}

/// The simnet prediction of the share of compute+comm time spent
/// communicating, for this workload's (m, MACs, M, n, p, T) on the paper's
/// testbed cost model. Sparse rounds are costed at their leaf frame size.
pub fn predict_comm_share(b: &Built) -> f64 {
    let model = b.model();
    let m = model.param_len();
    let wire = compression(b.spec).map_or(m, |c| c.wire_elements(m).ceil() as usize);
    let w = Workload {
        name: b.spec.name,
        model_params: wire,
        macs_per_sample: model.macs_per_sample(),
        minibatch: b.cfg.batch_size,
        train_samples: b.train.len(),
    };
    let (kind, t) = match b.spec.t() {
        0 => (Aggregation::None, 1),
        t => (Aggregation::AllreduceTree, t),
    };
    epoch_time(
        &CostModel::paper_testbed(),
        &w,
        kind,
        b.spec.p,
        t,
        &JitterModel::none(),
        b.cfg.seed,
    )
    .comm_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{elementwise_ops_per_sample, WORKLOADS};

    #[test]
    fn gemm_shape_lists_sum_to_the_models_macs() {
        for spec in &WORKLOADS {
            let model = build_model_only(spec);
            let forward: u64 = gemm_shapes(spec.net, spec.batch)
                .iter()
                .filter(|s| s.forward)
                .map(|s| s.macs_per_step())
                .sum();
            assert_eq!(
                forward + spec.batch as u64 * elementwise_ops_per_sample(spec.net),
                spec.batch as u64 * model.macs_per_sample(),
                "{}: forward GEMM MACs plus elementwise operations per step",
                spec.name
            );
        }
    }

    fn build_model_only(spec: &Spec) -> Model {
        let mut rng = SeedRng::new(0);
        match spec.net {
            Net::Cnn { divisor } => models::cifar_cnn_scaled(divisor, &mut rng),
            Net::Nlc { seq_len } => models::nlc_net(seq_len, &mut rng),
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for spec in &WORKLOADS {
            let a = build(spec, 7).head(2, 2, 4).fingerprint();
            assert_eq!(
                a,
                build(spec, 7).head(2, 2, 4).fingerprint(),
                "{}",
                spec.name
            );
            assert_ne!(
                a,
                build(spec, 8).head(2, 2, 4).fingerprint(),
                "{}",
                spec.name
            );
        }
        let b = build(&WORKLOADS[0], 7);
        assert_ne!(b.cfg.seed, b.init_seed, "sub-seeds are independent streams");
    }

    #[test]
    fn step_round_and_operation_counts() {
        let seq = build(&WORKLOADS[0], 1).head(3, 32, 4);
        assert_eq!(
            (
                seq.train.len(),
                seq.steps_per_epoch(),
                seq.rounds(),
                seq.ops()
            ),
            (96, 3, 0, 3)
        );
        let ragged = Built {
            train: head(&seq.train, 70),
            ..seq
        };
        assert_eq!(
            ragged.steps_per_epoch(),
            3,
            "sequential keeps the ragged batch"
        );
        let mut cnn = build(&WORKLOADS[1], 1).head(7, 4, 4);
        assert_eq!(
            (cnn.train.len(), cnn.steps_per_epoch(), cnn.rounds()),
            (56, 7, 1)
        );
        cnn.cfg.epochs = 3;
        assert_eq!(
            cnn.rounds(),
            4,
            "7 steps x 3 epochs at T=5: rounds straddle epochs"
        );
        assert_eq!(cnn.ops(), 2 * 21 + 4);
    }

    #[test]
    fn replica_matches_the_engine_bitwise_on_a_slice() {
        for spec in &WORKLOADS {
            let slice = build(spec, 42).head(4, spec.batch.min(2), 4);
            let engine = run_engine(&slice, Backend::Threaded).unwrap();
            let replica = run_replica(&slice).unwrap();
            assert_eq!(
                engine.params.checksum,
                checksum(&replica.final_params),
                "{}",
                spec.name
            );
            assert_eq!(
                engine.wire_elements,
                Some(replica.wire_elements),
                "{}",
                spec.name
            );
        }
    }
}
