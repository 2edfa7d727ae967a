//! The distributed trainer: shared machinery plus the public [`train`]
//! entry point.
//!
//! All algorithms run *real* gradient math on model replicas; what is
//! simulated is the platform — per-minibatch compute times, aggregation
//! costs and learner jitter come from the `sasgd-simnet` cost model and
//! advance deterministic virtual clocks. A parameter server serves its
//! learners in virtual-time order, so gradient staleness emerges from the
//! same speed variations a real cluster has, while runs stay
//! bit-reproducible under a seed.

use sasgd_data::{Dataset, ShardStrategy};
use sasgd_nn::{Ctx, EvalTally, Model};
use sasgd_simnet::{CostModel, JitterModel};
use sasgd_tensor::{SeedRng, Tensor, Workspace};

use crate::algorithms::Algorithm;
use crate::engine::simulated;
use crate::history::{EpochRecord, History};
use crate::schedule::LrSchedule;

/// Everything a training run needs besides the data and the algorithm.
#[derive(Clone)]
pub struct TrainConfig {
    /// Collective epochs: total samples processed = `epochs × |train|`.
    pub epochs: usize,
    /// Minibatch size `M`.
    pub batch_size: usize,
    /// Base local learning rate `γ`.
    pub gamma: f32,
    /// How γ evolves over epochs (the paper uses [`LrSchedule::Constant`]).
    pub schedule: LrSchedule,
    /// Master seed (learner streams are split from it).
    pub seed: u64,
    /// Platform model for virtual-time accounting.
    pub cost: CostModel,
    /// Learner speed noise (drives staleness and stragglers).
    pub jitter: JitterModel,
    /// Cap on evaluation-set sizes (0 = evaluate on everything).
    pub eval_cap: usize,
    /// How training data is partitioned across learners. The default,
    /// [`ShardStrategy::Contiguous`], is IID for the shuffled synthetic
    /// datasets; [`ShardStrategy::ByClass`] builds the pathological
    /// non-IID partition where one-shot averaging collapses.
    pub shard_strategy: ShardStrategy,
}

impl TrainConfig {
    /// γ at a (fractional) collective epoch, per the schedule.
    pub fn gamma_at(&self, epoch: f64) -> f32 {
        self.schedule.at(self.gamma, epoch)
    }

    /// A convenient configuration for experiments: paper-testbed cost
    /// model, default jitter, evaluation capped at 2 000 samples.
    pub fn new(epochs: usize, batch_size: usize, gamma: f32, seed: u64) -> Self {
        TrainConfig {
            epochs,
            batch_size,
            gamma,
            schedule: LrSchedule::Constant,
            seed,
            cost: CostModel::paper_testbed(),
            jitter: JitterModel::default(),
            eval_cap: 2_000,
            shard_strategy: ShardStrategy::Contiguous,
        }
    }
}

/// Run `algo` on `(train_set, test_set)`, building learner replicas with
/// `factory` (which must return identically initialized models — close
/// over a fixed seed).
///
/// Returns the per-epoch [`History`] recorded from learner 0's
/// perspective, as the paper does ("we collect accuracy numbers from one
/// learner after it has made a complete pass of the input data").
pub fn train(
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> History {
    assert!(cfg.epochs > 0, "need at least one epoch");
    assert!(cfg.batch_size > 0, "need a positive minibatch size");
    assert!(!train_set.is_empty(), "empty training set");
    simulated::run(algo, factory, train_set, test_set, cfg)
        .unwrap_or_else(|e| panic!("Simulated backend running {algo:?}: {e}"))
}

// ---------------------------------------------------------------------------
// Shared internals used by the algorithm implementations.
// ---------------------------------------------------------------------------

/// Pre-batched evaluation sets (optionally capped).
pub(crate) struct EvalSets {
    train_x: Vec<Tensor>,
    train_y: Vec<Vec<usize>>,
    test_x: Vec<Tensor>,
    test_y: Vec<Vec<usize>>,
}

impl EvalSets {
    pub(crate) fn prepare(train: &Dataset, test: &Dataset, cap: usize) -> Self {
        let take = |d: &Dataset| -> (Vec<Tensor>, Vec<Vec<usize>>) {
            let n = if cap == 0 { d.len() } else { d.len().min(cap) };
            if n == 0 {
                return (Vec::new(), Vec::new());
            }
            let idx: Vec<usize> = (0..n).collect();
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for chunk in idx.chunks(64) {
                let (x, y) = d.batch(chunk);
                xs.push(x);
                ys.push(y);
            }
            (xs, ys)
        };
        let (train_x, train_y) = take(train);
        let (test_x, test_y) = take(test);
        EvalSets {
            train_x,
            train_y,
            test_x,
            test_y,
        }
    }

    /// Evaluate `model` and assemble a record, including a large-batch
    /// gradient-norm estimate (the empirical counterpart of the theory's
    /// average gradient norm; measured on up to [`GRAD_NORM_BATCHES`]
    /// evaluation batches in deterministic measurement mode — dropout
    /// disabled).
    ///
    /// Every pass draws on one arena. The measured train batches are not
    /// run a second time for the evaluation: dropout is off in both modes,
    /// so their loss and accuracy are the evaluation pass's bits. Their
    /// gradients sum in the gradient arena itself, zeroed before the first
    /// only: backward onto a non-zero arena adds bitwise. The passes leave
    /// the arena zeroed, or with `carry` (the arena is a codec's
    /// accumulator, [`Learner::carry`]) bitwise as they found it: it is set
    /// aside for them, the one model-sized allocation a record makes.
    pub(crate) fn record(
        &self,
        model: &mut Model,
        carry: bool,
        epoch: f64,
        compute_seconds: f64,
        comm_seconds: f64,
        samples: u64,
    ) -> EpochRecord {
        let carried = carry.then(|| model.lend_arenas(|_, g| std::mem::take(g)));
        let mut ctx = Ctx::measure();
        let (mut train, mut measured) = (EvalTally::default(), 0usize);
        for (x, y) in self.train_x.iter().zip(&self.train_y) {
            // Measurement mode: activations are cached so backward works,
            // but dropout stays off — this estimates the norm of the full
            // network's gradient, not of one sampled thinned network, and
            // repeated calls on the same parameters agree exactly.
            ctx.training = measured < GRAD_NORM_BATCHES;
            if measured == 0 {
                model.zero_grads();
            }
            train.add(&model.forward_loss(x, y, &mut ctx));
            if ctx.training {
                model.backward(&mut ctx);
                measured += 1;
            }
        }
        let grad_norm = mean_norm(model.grads(), measured);
        match carried {
            Some(acc) => model.lend_arenas(|_, g| *g = acc),
            None => model.zero_grads(),
        }
        ctx.training = false;
        let mut test = EvalTally::default();
        for (x, y) in self.test_x.iter().zip(&self.test_y) {
            test.add(&model.forward_loss(x, y, &mut ctx));
        }
        let (train_loss, train_acc) = train.mean();
        let (test_loss, test_acc) = test.mean();
        EpochRecord {
            epoch,
            train_loss,
            train_acc,
            test_loss,
            test_acc,
            compute_seconds,
            comm_seconds,
            samples,
            grad_norm,
        }
    }
}

/// Train batches whose gradients the per-record norm estimate averages.
const GRAD_NORM_BATCHES: usize = 2;

/// `‖Σ g / batches‖`, 0 over no batches.
fn mean_norm(grad: &[f32], batches: usize) -> f32 {
    if batches == 0 {
        return 0.0;
    }
    let inv = 1.0 / batches as f32;
    grad.iter()
        .map(|v| (v * inv) * (v * inv))
        .sum::<f32>()
        .sqrt()
}

/// One learner replica with its deterministic streams.
pub(crate) struct Learner {
    pub(crate) model: Model,
    /// Batch-order and dropout stream.
    pub(crate) rng: SeedRng,
    /// Jitter stream (separate so changing jitter never changes the math).
    pub(crate) jrng: SeedRng,
    /// Persistent speed factor.
    pub(crate) speed: f64,
    /// Gradient accumulator `gs` of Algorithm 1, sized by the first local
    /// step that accumulates: each step adds its gradient, and a round
    /// consumes it — the dense walk leaves it zeroed, a codec leaves in it
    /// what its payload did not carry, the error-feedback residual the
    /// next interval accumulates onto. A lattice point that never
    /// accumulates (SASGD at `T = 1`, which rounds on the gradient arena;
    /// EAMSGD's momentum steps) holds none.
    pub(crate) gs: Vec<f32>,
    /// The gradient arena is a codec's accumulator (SASGD at `T = 1` with
    /// compression): backward adds onto what the last round left in it,
    /// so no step and no evaluation may clear it.
    pub(crate) carry: bool,
    /// Scratch-buffer arena reused across this learner's steps, so the
    /// steady-state hot path stays off the allocator.
    pub(crate) ws: Workspace,
}

impl Learner {
    pub(crate) fn new(id: usize, model: Model, cfg: &TrainConfig) -> Self {
        let root = SeedRng::new(cfg.seed);
        Learner {
            model,
            rng: root.split(0x100 + id as u64),
            jrng: root.split(0x200 + id as u64),
            speed: cfg.jitter.learner_factor(id, cfg.seed),
            gs: Vec::new(),
            carry: false,
            ws: Workspace::new(),
        }
    }

    /// Draw this learner's next per-minibatch jitter factor.
    pub(crate) fn draw_jitter(&mut self, jm: &JitterModel) -> f64 {
        jm.minibatch_factor(&mut self.jrng)
    }

    /// Forward + backward on one minibatch: leaves the gradient in
    /// `model.grads()` — added onto what the arena held, when it
    /// [carries](Learner::carry) an accumulator, bitwise that plus the
    /// gradient a zeroed arena would get — and returns the loss,
    /// without touching parameters, `gs`, or the clock.
    // hot-path: once per step; O(m) scratch comes from the learner's Workspace
    pub(crate) fn compute_gradient(&mut self, data: &Dataset, idx: &[usize]) -> f32 {
        let (x, y) = data.batch(idx);
        let mut ctx = Ctx::train(self.rng.split(0xD5)); // fresh dropout stream per call
                                                        // Advance the dropout base stream so successive batches differ.
        let _ = self.rng.uniform();
        // Thread the learner's persistent arena through this step's context
        // so per-batch scratch buffers are reused instead of reallocated.
        ctx.ws = std::mem::take(&mut self.ws);
        if !self.carry {
            self.model.zero_grads();
        }
        let out = self.model.forward_loss(&x, &y, &mut ctx);
        self.model.backward(&mut ctx);
        self.ws = std::mem::take(&mut ctx.ws);
        out.loss
    }

    /// Accumulate the gradient `compute_gradient` left into `gs` and apply
    /// the local step `x ← x − γ·g`, in one pass over the three vectors —
    /// the step of a lattice point that keeps `x` and `gs`; at `T = 1` the
    /// round takes the gradient from the arena instead and no local step
    /// runs. The first call sizes `gs`.
    // hot-path: once per step, in place
    pub(crate) fn apply_local(&mut self, gamma: f32) {
        let (params, grads) = self.model.params_and_grads_mut();
        if self.gs.len() != grads.len() {
            self.gs.resize(grads.len(), 0.0);
        }
        if gamma == 0.0 {
            for (a, &g) in self.gs.iter_mut().zip(&*grads) {
                *a += g;
            }
            return;
        }
        for ((a, p), &g) in self.gs.iter_mut().zip(params).zip(&*grads) {
            *a += g;
            *p -= gamma * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;

    #[test]
    fn eval_sets_cap_applies() {
        let (train, test) = generate(&CifarLikeConfig::tiny(50, 30, 3));
        let ev = EvalSets::prepare(&train, &test, 10);
        assert_eq!(ev.train_y.iter().map(Vec::len).sum::<usize>(), 10);
        assert_eq!(ev.test_y.iter().map(Vec::len).sum::<usize>(), 10);
        let ev_all = EvalSets::prepare(&train, &test, 0);
        assert_eq!(ev_all.train_y.iter().map(Vec::len).sum::<usize>(), 50);
    }

    #[test]
    fn record_reports_consistent_fields() {
        let (train, test) = generate(&CifarLikeConfig::tiny(20, 10, 3));
        let ev = EvalSets::prepare(&train, &test, 0);
        let mut model = models::tiny_cnn(3, &mut SeedRng::new(0));
        let r = ev.record(&mut model, false, 2.0, 1.5, 0.5, 40);
        assert_eq!(r.epoch, 2.0);
        assert!(r.train_acc >= 0.0 && r.train_acc <= 1.0);
        assert!(r.test_loss > 0.0);
        assert_eq!(r.samples, 40);
    }

    #[test]
    fn grad_norm_is_invariant_across_records() {
        // The estimate must be a pure function of the parameters: it runs
        // in measurement mode (dropout off), so repeating it on the same
        // model — even one whose stack contains Dropout layers — yields
        // bitwise-identical norms and leaves no gradient state behind.
        use sasgd_nn::layers::{Dropout, Flatten, Linear, Relu};
        let (train, test) = generate(&CifarLikeConfig::tiny(16, 8, 3));
        let ev = EvalSets::prepare(&train, &test, 0);
        let mut model = Model::new(
            vec![
                Box::new(Flatten::new()),
                Box::new(Linear::new(3 * 8 * 8, 16)),
                Box::new(Relu::new()),
                Box::new(Dropout::new(0.5)),
                Box::new(Linear::new(16, 3)),
            ],
            &[3, 8, 8],
            &mut SeedRng::new(11),
        );
        let r1 = ev.record(&mut model, false, 0.0, 0.0, 0.0, 0);
        assert!(
            r1.grad_norm > 0.0,
            "fresh model must have a nonzero gradient"
        );
        assert!(
            model.grads().iter().all(|&g| g == 0.0),
            "gradients left behind"
        );
        let r2 = ev.record(&mut model, false, 0.0, 0.0, 0.0, 0);
        assert_eq!(
            r1.grad_norm, r2.grad_norm,
            "estimate must not sample dropout noise"
        );
    }

    #[test]
    fn record_leaves_a_carried_accumulator_bitwise_intact() {
        // A codec's accumulator at T = 1 is the gradient arena; rank 0
        // evaluates between rounds. The record must hand the arena back
        // as it found it, and report what a record on a zeroed arena does.
        let (train, test) = generate(&CifarLikeConfig::tiny(16, 8, 3));
        let ev = EvalSets::prepare(&train, &test, 0);
        let mut model = models::tiny_cnn(3, &mut SeedRng::new(4));
        let mut rng = SeedRng::new(5);
        let acc: Vec<f32> = (0..model.param_len()).map(|_| rng.normal()).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        model.params_and_grads_mut().1.copy_from_slice(&acc);
        let carried = ev.record(&mut model, true, 1.0, 0.0, 0.0, 8);
        assert_eq!(bits(model.grads()), bits(&acc), "accumulator disturbed");
        model.zero_grads();
        let plain = ev.record(&mut model, false, 1.0, 0.0, 0.0, 8);
        assert_eq!(carried.grad_norm.to_bits(), plain.grad_norm.to_bits());
        assert_eq!(carried.train_loss.to_bits(), plain.train_loss.to_bits());
        assert_eq!(carried.test_loss.to_bits(), plain.test_loss.to_bits());
    }
}
