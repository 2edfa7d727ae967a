//! SASGD — Algorithm 1 of the paper, as an engine strategy.
//!
//! `p` learners over disjoint data shards. Each learner runs `T` local
//! minibatch steps at rate `γ`, accumulating raw gradients into `gs`; a
//! global allreduce then sums the `gs` of all learners and every learner
//! applies `x ← x − γp·Σgs` to the *pre-interval* parameters before
//! continuing from the common `x`. The interval `T` amortizes the
//! communication; the allreduce replaces the parameter server.
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

use sasgd_comm::sparse::{tree_combine_bounded, SparseLevelProfile};
use sasgd_data::Dataset;
use sasgd_nn::Model;

use crate::algorithms::GammaP;
use crate::compress::{Compression, ErrorFeedback, Payload};
use crate::engine::{aggregate_dense, simulated, tree_reduce, AggregationStrategy, Total};
use crate::history::{History, StalenessStats, WireStats};
use crate::trainer::{Learner, TrainConfig};

/// Algorithm 1 with optional compressed aggregation.
pub(crate) struct SasgdStrategy {
    p: usize,
    t: usize,
    gamma_p: GammaP,
    compression: Option<Compression>,
    /// The shared (pre-interval) parameter vector `x`.
    x: Vec<f32>,
    /// Error-feedback state, one per learner (compressed runs only).
    codecs: Vec<ErrorFeedback>,
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
        t: usize,
        gamma_p: GammaP,
        compression: Option<Compression>,
    ) -> Self {
        assert!(p >= 1, "need at least one learner");
        assert!(t >= 1, "aggregation interval must be positive");
        SasgdStrategy {
            p,
            t,
            gamma_p,
            compression,
            x: Vec::new(),
            codecs: Vec::new(),
            rounds: 0,
            ar_seconds: 0.0,
            m: 0,
        }
    }
}

impl AggregationStrategy for SasgdStrategy {
    fn label(&self) -> String {
        let (p, t) = (self.p, self.t);
        match self.compression {
            Some(_) => format!("SASGD-compressed(p={p},T={t})"),
            None => format!("SASGD(p={p},T={t})"),
        }
    }

    fn p(&self) -> usize {
        self.p
    }

    fn sync_interval(&self) -> usize {
        self.t
    }

    fn setup(&mut self, factory: &mut dyn FnMut() -> Model, x0: &[f32], cfg: &TrainConfig) -> f64 {
        self.m = x0.len();
        self.x = x0.to_vec();
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

    /// One global aggregation: gather every learner's payload, combine in
    /// the wire collective's order (so the threaded backend reproduces
    /// these parameters bit for bit), global step, then the barrier —
    /// each learner waits for the slowest and pays the allreduce.
    fn sync(&mut self, learners: &mut [Learner], gamma_now: f32, history: &mut History) {
        let gp = self.gamma_p.resolve(gamma_now, self.p);
        self.rounds += 1; // 1-based, matching the threaded backend's rounds
        if self.codecs.is_empty() {
            // Uncompressed run: the payloads are the `gs` themselves.
            aggregate_dense(&mut self.x, gp, learners);
        } else {
            let mut dense = Vec::new();
            let (mut sparse, mut opts) = (Vec::new(), Vec::new());
            for (r, (l, codec)) in learners.iter().zip(&mut self.codecs).enumerate() {
                let enc = codec.encode(&l.gs);
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
            let total = if sparse.is_empty() {
                tree_reduce(&mut dense);
                Total::Dense(dense.swap_remove(0))
            } else {
                let (total, spills, profile) = tree_combine_bounded(sparse, &opts);
                history.sparse_levels.merge(&profile);
                for (codec, spill) in self.codecs.iter_mut().zip(&spills) {
                    codec.absorb(spill);
                }
                Total::Sparse(total)
            };
            total.step(&mut self.x, gp);
            for l in learners.iter_mut() {
                l.model.params_mut().copy_from_slice(&self.x);
                l.gs.fill(0.0);
            }
        }
        let t_max = learners.iter().map(|l| l.clock).fold(0.0_f64, f64::max);
        for l in learners.iter_mut() {
            let wait = t_max - l.clock;
            l.charge_comm(wait + self.ar_seconds);
        }
    }

    fn staleness(&self, syncs: u64) -> Option<StalenessStats> {
        // SASGD's staleness is T by construction — record it so staleness
        // reports can compare against the measured async distributions.
        Some(StalenessStats {
            mean: self.t as f64,
            max: self.t as u64,
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
}

/// Run SASGD on the simulated backend. `T = 1` is classic bulk-synchronous
/// SGD; `p = 1` degrades to sequential SGD (with the global step folded
/// in).
#[allow(clippy::too_many_arguments)] // mirrors the Algorithm variant's fields
pub(crate) fn run(
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    gamma_p: GammaP,
    compression: Option<Compression>,
) -> History {
    let mut s = SasgdStrategy::new(p, t, gamma_p, compression);
    simulated::run_auto(&mut s, factory, train_set, test_set, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let h = run(&mut factory, &train, &test, &cfg, 4, 2, GammaP::OverP, None);
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
        let h1 = run(&mut f1, &train, &test, &cfg, 2, 1, GammaP::OverP, None);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let h2 = run(&mut f2, &train, &test, &cfg, 2, 1, GammaP::OverP, None);
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
        let h_sasgd = run(
            &mut f1,
            &train,
            &test,
            &sasgd_cfg,
            1,
            1,
            GammaP::Fixed(0.05),
            None,
        );
        let seq_cfg = quiet_cfg(3, 0.05);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let h_seq = crate::algorithms::sequential::run(&mut f2, &train, &test, &seq_cfg);
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
            let h = run(&mut f, &train, &test, &cfg, p, t, GammaP::OverP, None);
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
        let dense = run(&mut f1, &train, &test, &cfg, 2, 2, GammaP::OverP, None);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let sparse = run(
            &mut f2,
            &train,
            &test,
            &cfg,
            2,
            2,
            GammaP::OverP,
            Some(Compression::topk(0.1)),
        );
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
        run(&mut f, &train, &test, &cfg, 8, 1, GammaP::OverP, None);
    }
}
