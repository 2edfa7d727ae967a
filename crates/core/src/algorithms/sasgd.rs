//! SASGD — Algorithm 1 of the paper, as an engine strategy.
//!
//! `p` learners over disjoint data shards. Each learner runs `T` local
//! minibatch steps at rate `γ`, accumulating raw gradients into `gs`; a
//! global allreduce then sums the `gs` of all learners and every learner
//! applies `x ← x − γp·Σgs` to the *pre-interval* parameters before
//! continuing from the common `x`. The interval `T` amortizes the
//! communication; the allreduce replaces the parameter server. At `T = 1`
//! there is no interval to keep apart: the round's payload is each
//! learner's gradient arena and the total lands on `params` — no `x`, no
//! `gs`, no local step ([`Lattice::on_arena`]).
//!
//! Bulk-synchrony means each aggregation waits for the slowest learner —
//! the straggler penalty is charged to every learner's virtual clock as
//! communication (wait) time, matching how the paper measures "time spent
//! in communication" from a learner's perspective.
//!
//! With `compression`, each learner's accumulated gradient goes through
//! its own [`ErrorFeedback`] codec before the allreduce and the payloads
//! are combined through the in-memory mirrors of the wire collectives —
//! the same codec and the same combine order as the threaded backend's
//! `GradTree`, so compressed runs are bitwise identical across backends.
//! The aggregation cost is priced by the compressor's wire size.
//!
//! For `γp = γ/p` the global step averages the locally updated replicas,
//! so the averaging lattice is configuration, for any codec: an adaptive
//! schedule grows `T` when the displacement of `x` plateaus (Stich's Local
//! SGD), and `delayed` lands each round's total one round late, re-based
//! onto the local progress made meanwhile (Zhou et al.'s DaSGD) — the
//! allreduce overlaps compute at one round of staleness. The lattice's two
//! ends are the paper's baselines: at `p = 1`, `T = 1`, `γp = γ` the round
//! is the sequential step `x ← x − γ·g`, and `Fixed { t: 0 }` stretches the
//! interval to the whole run — one-shot averaging.

use sasgd_comm::sparse::{tree_combine_bounded, SparseLevelProfile};
use sasgd_data::Dataset;
use sasgd_nn::Model;

use crate::algorithms::GammaP;
use crate::compress::{Compression, ErrorFeedback, Payload};
use crate::engine::{
    aggregate_arenas, aggregate_dense, tree_reduce, AggregationStrategy, Lattice, Total,
};
use crate::history::{History, StalenessStats, WireStats};
use crate::schedule::{SyncPolicy, TSchedule};
use crate::trainer::{Learner, TrainConfig};

/// Algorithm 1 with optional compressed aggregation, an adaptive interval
/// and a one-round delay.
pub(crate) struct SasgdStrategy {
    p: usize,
    schedule: TSchedule,
    gamma_p: GammaP,
    compression: Option<Compression>,
    delayed: bool,
    /// The shared (pre-interval) parameter vector `x`; never allocated at
    /// `T = 1`, where it is every learner's `params`.
    x: Vec<f32>,
    /// Error-feedback state, one per learner (compressed runs only).
    codecs: Vec<ErrorFeedback>,
    /// The delay's snapshots and pending total; the plateau signal.
    lattice: Lattice,
    /// Signal from the latest round, consumed by [`Self::sync_signal`].
    signal: Option<f32>,
    /// Virtual time at which the in-flight allreduce completes (delayed).
    last_avail: f64,
    /// Sync rounds completed.
    rounds: u64,
    /// Cost of one (possibly compressed) allreduce.
    ar_seconds: f64,
    /// Parameter count (for wire accounting).
    m: usize,
}

impl SasgdStrategy {
    pub(crate) fn new(
        p: usize,
        schedule: TSchedule,
        gamma_p: GammaP,
        compression: Option<Compression>,
        delayed: bool,
    ) -> Self {
        assert!(p >= 1, "need at least one learner");
        SasgdStrategy {
            p,
            schedule,
            gamma_p,
            compression,
            delayed,
            x: Vec::new(),
            codecs: Vec::new(),
            // Rebuilt over `x0` in `setup`.
            lattice: Lattice::new(schedule, delayed, &[], p),
            signal: None,
            last_avail: 0.0,
            rounds: 0,
            ar_seconds: 0.0,
            m: 0,
        }
    }
}

impl AggregationStrategy for SasgdStrategy {
    fn p(&self) -> usize {
        self.p
    }

    fn sync_interval(&self) -> usize {
        self.schedule.initial_t()
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::new(self.schedule)
    }

    fn sync_signal(&mut self) -> Option<f32> {
        self.signal.take()
    }

    fn collective_tau(&self) -> u64 {
        self.delayed as u64
    }

    fn setup(&mut self, factory: &mut dyn FnMut() -> Model, x0: &[f32], cfg: &TrainConfig) -> f64 {
        self.m = x0.len();
        self.lattice = Lattice::new(self.schedule, self.delayed, x0, self.p);
        if !self.lattice.on_arena() {
            self.x = x0.to_vec();
        }
        self.ar_seconds = match self.compression {
            Some(c) => {
                // The layer-wise schedule needs the model's parameter-block
                // map; one throwaway replica yields the layout.
                let blocks = factory().param_blocks();
                self.codecs = (0..self.p)
                    .map(|_| ErrorFeedback::new(c, self.m, blocks.clone()))
                    .collect();
                cfg.cost
                    .allreduce_tree_elements(c.wire_elements(self.m), self.p)
                    .seconds
            }
            None => cfg.cost.allreduce_tree(self.m, self.p).seconds,
        };
        cfg.cost.broadcast(self.m, self.p)
    }

    /// At `T = 1` the gradient stays in the arena for the round
    /// ([`Lattice::on_arena`]): no accumulation, no local step.
    fn local_step(
        &mut self,
        l: &mut Learner,
        _id: usize,
        data: &Dataset,
        idx: &[usize],
        gamma: f32,
        step_s: f64,
        jitter: f64,
    ) {
        if self.lattice.on_arena() {
            l.compute_gradient(data, idx);
            l.advance(step_s, jitter);
        } else {
            l.local_step(data, idx, gamma, step_s, jitter);
        }
    }

    fn on_local_step(
        &mut self,
        l: &mut Learner,
        id: usize,
        data: &Dataset,
        idx: &[usize],
        gamma: f32,
    ) {
        self.local_step(l, id, data, idx, gamma, 0.0, 1.0);
    }

    /// One global aggregation: gather every learner's payload, combine in
    /// the wire collective's order (so the threaded backend reproduces
    /// these parameters bit for bit), global step, then the barrier —
    /// each learner waits for the slowest and pays the allreduce. Delayed,
    /// a learner waits only for the previous round's allreduce, and the
    /// one launched now completes `ar_seconds` after the slowest arrives.
    fn sync(&mut self, learners: &mut [Learner], gamma_now: f32, history: &mut History) {
        let gp = self.gamma_p.resolve(gamma_now, self.p);
        self.rounds += 1; // 1-based, matching the threaded backend's rounds
        if self.lattice.on_arena() {
            // The payloads are the gradient arenas; the total lands on
            // every learner's `params`, which are Algorithm 1's `x` here.
            if self.codecs.is_empty() {
                aggregate_arenas(gp, learners);
            } else {
                let total = self.compressed_total(learners, history);
                learners
                    .iter_mut()
                    .for_each(|l| total.step(l.model.params_mut(), gp));
            }
        } else if self.codecs.is_empty() && self.lattice.is_plain() {
            // Algorithm 1's own round, uncompressed: the payloads are the
            // `gs` themselves.
            aggregate_dense(&mut self.x, gp, learners);
        } else {
            let total = if self.codecs.is_empty() {
                let mut gs: Vec<&mut [f32]> = learners.iter_mut().map(|l| &mut l.gs[..]).collect();
                tree_reduce(&mut gs);
                learners[1..].iter_mut().for_each(|l| l.gs.fill(0.0));
                self.lattice.take_gs(&mut learners[0].gs)
            } else {
                let total = self.compressed_total(learners, history);
                learners.iter_mut().for_each(|l| l.gs.fill(0.0));
                total
            };
            let params = learners.iter_mut().map(|l| l.model.params_mut());
            self.signal = self.lattice.round(&mut self.x, total, gp, params);
        }
        let t_max = learners.iter().map(|l| l.clock).fold(0.0_f64, f64::max);
        for l in learners.iter_mut() {
            let charge = if self.delayed {
                (self.last_avail - l.clock).max(0.0)
            } else {
                t_max - l.clock + self.ar_seconds
            };
            l.charge_comm(charge);
        }
        self.last_avail = t_max + self.ar_seconds;
    }

    fn staleness(&self, syncs: u64) -> Option<StalenessStats> {
        // SASGD's staleness is T by construction — record it so staleness
        // reports can compare against the measured async distributions.
        let t = self.sync_interval();
        Some(StalenessStats {
            mean: t as f64,
            max: t as u64,
            pushes: syncs,
        })
    }

    fn wire(&self, syncs: u64, sparse_levels: &SparseLevelProfile) -> Option<WireStats> {
        // The counterpart of the threaded backend's counters, exact in
        // every arm: one broadcast of x0 ((p−1)·m elements over p−1
        // messages) plus, per aggregation, a tree allreduce — closed-form
        // for dense and Uniform8Bit, the accumulated per-level profile
        // for Sparse.
        let p1 = (self.p - 1) as u64;
        let bcast = p1 * self.m as u64;
        let (elements, messages) = match self.compression {
            None => (2 * p1 * self.m as u64 * syncs, 2 * p1 * syncs),
            Some(c @ Compression::Uniform8Bit) => (
                c.round_wire_bounds(self.m, self.p).0 * syncs,
                2 * p1 * syncs,
            ),
            Some(Compression::Sparse { .. }) => (
                sparse_levels.total_elements(),
                sparse_levels.total_messages(),
            ),
        };
        Some(WireStats {
            elements: bcast + elements,
            messages: p1 + messages,
        })
    }

    fn final_params(&mut self, learners: &[Learner]) -> Vec<f32> {
        self.lattice
            .final_params(&self.x, learners[0].model.params())
    }
}

impl SasgdStrategy {
    /// Every learner's payload — its `gs`, or at `T = 1` its gradient
    /// arena — through its codec, combined in the wire collective's order.
    fn compressed_total(&mut self, learners: &mut [Learner], history: &mut History) -> Total {
        let mut dense = Vec::new();
        let (mut sparse, mut opts) = (Vec::new(), Vec::new());
        let on_arena = self.lattice.on_arena();
        for (r, (l, codec)) in learners.iter_mut().zip(&mut self.codecs).enumerate() {
            let enc = codec.encode(if on_arena { l.model.grads() } else { &l.gs });
            // lint:allow(float-cast): telemetry narrowing — the norm is
            // accumulated in f64 for order-stability, reported in f32.
            history.push_sparsity(self.rounds, r, enc.k_eff, enc.residual_norm as f32);
            match enc.payload {
                Payload::Dense8(v, _) => dense.push(v),
                Payload::Sparse(sv, o) => {
                    sparse.push(sv);
                    opts.push(o);
                }
            }
        }
        if sparse.is_empty() {
            tree_reduce(&mut dense);
            return Total::Dense(dense.swap_remove(0));
        }
        let (total, spills, profile) = tree_combine_bounded(sparse, &opts);
        history.sparse_levels.merge(&profile);
        for (codec, spill) in self.codecs.iter_mut().zip(&spills) {
            codec.absorb(spill);
        }
        Total::Sparse(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cadence;
    use crate::Algorithm;
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    fn quiet_cfg(epochs: usize, gamma: f32) -> TrainConfig {
        let mut cfg = TrainConfig::new(epochs, 8, gamma, 42);
        cfg.jitter = JitterModel::none();
        cfg
    }

    #[test]
    fn learns_with_four_learners() {
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::sasgd(4, 2, GammaP::OverP);
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert!(
            h.records.last().expect("r").comm_seconds > 0.0,
            "p>1 must communicate"
        );
    }

    #[test]
    fn all_learners_hold_identical_params_after_sync() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let cfg = quiet_cfg(1, 0.05);
        // Run manually to inspect: easiest is T=1 where every step syncs,
        // so learner 0's history must equal a rerun's.
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::sasgd(2, 1, GammaP::OverP);
        let h1 = crate::train(&mut f1, &train, &test, &algo, &cfg);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let h2 = crate::train(&mut f2, &train, &test, &algo, &cfg);
        assert_eq!(
            h1.records.last().expect("r").train_loss,
            h2.records.last().expect("r").train_loss
        );
    }

    #[test]
    fn p1_t1_matches_sequential_trajectory() {
        // Algorithm 1 applies local steps to a scratch copy x' and the
        // global step to the pre-interval x. With p=1, T=1, local γ=0 and
        // γp=γ, every aggregation performs exactly x ← x − γ·g — i.e.
        // sequential SGD. The trajectories must coincide bitwise.
        let (train, test) = generate(&CifarLikeConfig::tiny(48, 16, 2));
        let sasgd_cfg = quiet_cfg(3, 0.0);
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let algo = Algorithm::sasgd(1, 1, GammaP::Fixed(0.05));
        let h_sasgd = crate::train(&mut f1, &train, &test, &algo, &sasgd_cfg);
        let seq_cfg = quiet_cfg(3, 0.05);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let h_seq = crate::train(&mut f2, &train, &test, &Algorithm::Sequential, &seq_cfg);
        for (a, b) in h_sasgd.records.iter().zip(&h_seq.records) {
            assert_eq!(a.train_loss, b.train_loss, "trajectories must coincide");
            assert_eq!(a.test_acc, b.test_acc);
        }
    }

    #[test]
    fn larger_t_means_less_comm_time() {
        // With jitter disabled every learner's virtual clock advances
        // identically, so the barrier wait is exactly zero and learner 0's
        // communication time must equal the initial broadcast plus one
        // tree allreduce per aggregation — ⌊steps/T⌋ of them, where
        // steps = epochs · ⌊(n/p)/M⌋. This pins the T-amortization claim
        // to the cost model instead of a magic ratio.
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 20, 2));
        let cfg = quiet_cfg(2, 0.02);
        let p = 4;
        let m = models::tiny_cnn(2, &mut SeedRng::new(1)).param_len();
        let bcast = cfg.cost.broadcast(m, p);
        let ar = cfg.cost.allreduce_tree(m, p).seconds;
        let steps = cfg.epochs * (train.len() / p / cfg.batch_size);
        let mut comm = Vec::new();
        for t in [1usize, 5] {
            let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
            let h = crate::train(
                &mut f,
                &train,
                &test,
                &Algorithm::sasgd(p, t, GammaP::OverP),
                &cfg,
            );
            let got = h.records.last().expect("r").comm_seconds;
            let expect = bcast + (steps / t) as f64 * ar;
            assert!(
                (got - expect).abs() <= 1e-9 * expect,
                "T={t}: comm {got} should equal broadcast + {} allreduces = {expect}",
                steps / t
            );
            comm.push(got);
        }
        assert!(
            comm[1] < comm[0],
            "T=5 comm {} should be below T=1 comm {}",
            comm[1],
            comm[0]
        );
    }

    #[test]
    fn simulated_wire_accounting_shrinks_under_topk() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let cfg = quiet_cfg(1, 0.02);
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let dense = crate::train(
            &mut f1,
            &train,
            &test,
            &Algorithm::sasgd(2, 2, GammaP::OverP),
            &cfg,
        );
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::sasgd_compressed(2, 2, GammaP::OverP, Compression::topk(0.1));
        let sparse = crate::train(&mut f2, &train, &test, &algo, &cfg);
        let (d, s) = (dense.wire.expect("wire"), sparse.wire.expect("wire"));
        assert!(
            s.elements < d.elements / 2,
            "TopK-10% wire {} vs dense {}",
            s.elements,
            d.elements
        );
    }

    #[test]
    #[should_panic(expected = "shards too small")]
    fn rejects_empty_per_learner_epochs() {
        let (train, test) = generate(&CifarLikeConfig::tiny(8, 4, 2));
        let cfg = quiet_cfg(1, 0.05);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
        crate::train(
            &mut f,
            &train,
            &test,
            &Algorithm::sasgd(8, 1, GammaP::OverP),
            &cfg,
        );
    }

    /// SASGD at `(p, schedule, delayed)`, uncompressed, `γp = γ/p`.
    fn lattice(p: usize, schedule: TSchedule, delayed: bool) -> Algorithm {
        Algorithm::Sasgd {
            p,
            schedule,
            gamma_p: GammaP::OverP,
            compression: None,
            delayed,
        }
    }

    fn event_cfg(epochs: usize) -> TrainConfig {
        let mut cfg = quiet_cfg(epochs, 0.05);
        cfg.cadence = Some(Cadence::EventDriven);
        cfg
    }

    #[test]
    fn adaptive_schedule_syncs_no_more_than_fixed_t0() {
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = event_cfg(6);
        let t0 = 2;
        let run = |schedule| {
            let mut f = || models::tiny_cnn(3, &mut SeedRng::new(5));
            crate::train(
                &mut f,
                &train_set,
                &test_set,
                &lattice(2, schedule, false),
                &cfg,
            )
        };
        let fixed = run(TSchedule::Fixed { t: t0 });
        let adaptive = run(TSchedule::AdaptivePlateau {
            t0,
            t_max: 16,
            patience: 1,
            rel_improve: 0.5,
        });
        // A 50% improvement bar with patience 1 plateaus almost every
        // round, so T must actually have grown.
        assert!(
            adaptive.sync_rounds < fixed.sync_rounds,
            "adaptive {} rounds vs fixed {}",
            adaptive.sync_rounds,
            fixed.sync_rounds
        );
    }

    #[test]
    fn delayed_rounds_learn_and_hide_the_allreduce() {
        // With jitter off every learner reaches the round at the same
        // time, so the synchronous round pays the full allreduce while
        // the delayed one only waits for the previous round's — already
        // finished once T compute steps outlast it.
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(160, 60, 3));
        let cfg = event_cfg(8);
        let run = |delayed| {
            let mut f = || models::tiny_cnn(3, &mut SeedRng::new(7));
            let algo = lattice(4, TSchedule::Fixed { t: 2 }, delayed);
            crate::train(&mut f, &train_set, &test_set, &algo, &cfg)
        };
        let (sync, delayed) = (run(false), run(true));
        assert!(
            delayed.final_test_acc() > 0.5,
            "acc {}",
            delayed.final_test_acc()
        );
        let st = delayed
            .staleness
            .expect("collective rounds record staleness");
        assert_eq!(st.max, 1, "staleness is one round by construction");
        let comm = |h: &History| h.records.last().expect("r").comm_seconds;
        assert!(
            comm(&delayed) < comm(&sync),
            "delayed comm {} should undercut synchronous {}",
            comm(&delayed),
            comm(&sync)
        );
    }

    #[test]
    fn p1_delay_is_nearly_transparent() {
        // With one learner the landed total is the learner's own progress,
        // so re-basing onto it is the identity up to f32 association: the
        // delayed run tracks the undelayed one to rounding noise.
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
        let cfg = event_cfg(3);
        let run = |delayed| {
            let mut f = || models::tiny_cnn(3, &mut SeedRng::new(9));
            let algo = lattice(1, TSchedule::Fixed { t: 2 }, delayed);
            let h = crate::train(&mut f, &train_set, &test_set, &algo, &cfg);
            h.final_params.expect("params")
        };
        let (plain, delayed) = (run(false), run(true));
        let max_diff = plain
            .iter()
            .zip(&delayed)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-4, "p=1 delay drifted {max_diff}");
    }

    #[test]
    fn sequential_sgd_learns_and_replays_without_communicating() {
        // Sequential SGD runs as SASGD at p = 1, T = 1, γp = γ: a round per
        // step, yet one learner has no peer: the cost model charges no
        // communication and neither backend puts anything on the wire.
        let (train, test) = generate(&CifarLikeConfig::tiny(120, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let run = |backend| {
            crate::Executor::new(backend).run(&factory, &train, &test, &Algorithm::Sequential, &cfg)
        };
        let (h, again, thr) = (
            run(crate::Backend::Simulated),
            run(crate::Backend::Simulated),
            run(crate::Backend::Threaded),
        );
        assert_eq!(
            (h.label.as_str(), thr.label.as_str()),
            ("SGD", "SGD-threaded")
        );
        assert_eq!(h.records.len(), 8);
        let first = h.records[0].train_loss;
        let last = h.records.last().expect("records").train_loss;
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert_eq!(h.sync_rounds, 8 * 120 / 8, "one round per step");
        assert_eq!(
            again.final_params, h.final_params,
            "pure function of the seed"
        );
        assert_eq!(thr.final_params, h.final_params, "bitwise across backends");
        // Simulated comm time is the cost model's; the threaded backend's
        // is the wall-clock of each round, global step included.
        assert_eq!(h.records.last().expect("r").comm_seconds, 0.0);
        for run in [&h, &thr] {
            assert_eq!(run.wire.expect("wire accounted").elements, 0);
        }
    }

    #[test]
    fn one_shot_averaging_is_one_round_after_the_last_step() {
        // T = 0 stretches the interval to the run: after the x0 broadcast
        // the learners train alone, and the one allreduce follows the last
        // step. Lockstep records every epoch; the event walk runs the whole
        // run as one block, so its one record follows the round.
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let p = 4;
        let m = models::tiny_cnn(2, &mut SeedRng::new(3)).param_len();
        let algo = Algorithm::model_average_once(p);
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        for (cadence, records) in [(Cadence::Lockstep, 3), (Cadence::EventDriven, 1)] {
            let mut cfg = quiet_cfg(3, 0.02);
            cfg.cadence = Some(cadence);
            let h = crate::Executor::new(crate::Backend::Simulated)
                .run(&factory, &train, &test, &algo, &cfg);
            assert_eq!(h.label, "ModelAvg(p=4)");
            assert_eq!(h.sync_rounds, 1, "{cadence:?}: exactly one round");
            assert_eq!(h.records.len(), records, "{cadence:?}");
            let bcast = cfg.cost.broadcast(m, p);
            let (end, mid) = h.records.split_last().expect("records");
            for r in mid {
                assert_eq!(
                    r.comm_seconds, bcast,
                    "{cadence:?}: no traffic while training"
                );
            }
            assert!(end.comm_seconds > bcast, "{cadence:?}: one final reduction");
        }
        // On threads the wire carries the broadcast and one allreduce:
        // (p−1)·m + 2(p−1)·m elements.
        let cfg = quiet_cfg(3, 0.02);
        let thr = crate::Executor::new(crate::Backend::Threaded)
            .run(&factory, &train, &test, &algo, &cfg);
        assert_eq!(thr.sync_rounds, 1);
        assert_eq!(
            thr.wire.expect("wire").elements,
            3 * (p as u64 - 1) * m as u64
        );
    }

    #[test]
    fn p1_averaging_is_just_sgd() {
        let (train, test) = generate(&CifarLikeConfig::tiny(80, 40, 3));
        let cfg = quiet_cfg(6, 0.05);
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::model_average_once(1);
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert_eq!(h.records.last().expect("r").comm_seconds, 0.0);
    }
}
