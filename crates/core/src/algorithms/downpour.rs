//! Downpour ASGD (Dean et al., NIPS 2012) — the paper's main baseline.
//!
//! Dean et al. "divide the training data into a number of subsets and run
//! a copy of the model on each of these subsets": each asynchronous
//! learner iterates *its own shard* (reshuffled every pass), exactly like
//! SASGD's learners partition the data. Every `T` minibatches a learner
//! pushes its accumulated gradient to the parameter server — which applies
//! `x ← x − γ·gs` immediately — and pulls the current parameters back.
//! Between a learner's pull and its next push, other learners keep
//! mutating the server, so the pushed gradient is *stale*; the engine's
//! event-driven loop realizes exactly that interleaving in virtual-time
//! order, with staleness driven by the jitter model's speed variation.

use sasgd_data::Dataset;
use sasgd_nn::Model;

use crate::engine::{AggregationStrategy, Cadence, CommScope};
use crate::history::History;
use crate::trainer::{Learner, TrainConfig};

/// Asynchronous learners around a simulated parameter server: every `T`
/// minibatches a learner pushes `gs` (applied immediately) and pulls the
/// current parameters.
pub(crate) struct DownpourStrategy {
    p: usize,
    t: usize,
    /// Scale each push by γ/(1+τ) using the measured staleness τ.
    staleness_gamma: bool,
    /// The parameter-server state.
    ps: Vec<f32>,
    /// Lockstep-only: modeled PS round-trip seconds, set in `setup`.
    round_s: f64,
}

impl DownpourStrategy {
    pub(crate) fn new(p: usize, t: usize, staleness_gamma: bool) -> Self {
        assert!(p >= 1 && t >= 1);
        DownpourStrategy {
            p,
            t,
            staleness_gamma,
            ps: Vec::new(),
            round_s: 0.0,
        }
    }
}

impl AggregationStrategy for DownpourStrategy {
    fn p(&self) -> usize {
        self.p
    }

    fn cadence(&self) -> Cadence {
        Cadence::EventDriven
    }

    fn comm_scope(&self) -> CommScope {
        CommScope::Individual
    }

    fn sync_interval(&self) -> usize {
        self.t
    }

    fn setup(&mut self, _factory: &mut dyn FnMut() -> Model, x0: &[f32], cfg: &TrainConfig) -> f64 {
        self.ps = x0.to_vec();
        self.round_s = cfg.cost.ps_roundtrip(x0.len(), self.p).seconds;
        0.0
    }

    fn observe_staleness(&mut self, _id: usize, tau: u64, gamma: f32) -> f32 {
        if self.staleness_gamma {
            // lint:allow(float-cast): τ is a small update count.
            gamma / (1.0 + tau as f32)
        } else {
            gamma
        }
    }

    fn sync(&mut self, learners: &mut [Learner], gamma_now: f32, _history: &mut History) {
        // Lockstep Downpour: the same push/pull math, executed as a
        // bulk-synchronous round in rank order (τ = 0 by construction).
        let t_max = learners.iter().map(|l| l.clock).fold(0.0, f64::max);
        for (id, l) in learners.iter_mut().enumerate() {
            let gamma_eff = self.observe_staleness(id, 0, gamma_now);
            let wait = t_max - l.clock;
            self.event_sync_inner(l, gamma_eff);
            l.charge_comm(wait + self.round_s);
        }
    }

    fn on_local_step(
        &mut self,
        l: &mut Learner,
        _id: usize,
        data: &Dataset,
        idx: &[usize],
        gamma: f32,
    ) {
        // Local SGD step against the parameters pulled at the previous
        // sync; wall-clock time is accounted by the block event itself.
        l.local_step(data, idx, gamma, 0.0, 1.0);
    }

    fn event_sync(&mut self, l: &mut Learner, _id: usize, gamma: f32) {
        self.event_sync_inner(l, gamma);
    }
}

impl DownpourStrategy {
    fn event_sync_inner(&mut self, l: &mut Learner, gamma: f32) {
        // Push: the server applies the accumulated gradient at once.
        for (x, &g) in self.ps.iter_mut().zip(&l.gs) {
            *x -= gamma * g;
        }
        l.gs.iter_mut().for_each(|g| *g = 0.0);
        // Pull: fresh (possibly already-stale-tomorrow) parameters.
        l.model.params_mut().copy_from_slice(&self.ps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    #[test]
    fn single_learner_downpour_learns() {
        let (train, test) = generate(&CifarLikeConfig::tiny(80, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::Downpour {
            p: 1,
            t: 1,
            staleness_gamma: false,
        };
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert!(
            h.records.last().expect("r").comm_seconds > 0.0,
            "PS traffic even at p=1"
        );
    }

    #[test]
    fn records_land_once_per_collective_epoch() {
        // Learner 0 records whenever it finishes a pass over its shard
        // (n/p samples); with all p learners running that is ~n collective
        // samples between records, i.e. one epoch.
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let mut cfg = TrainConfig::new(8, 8, 0.02, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::Downpour {
            p: 4,
            t: 2,
            staleness_gamma: false,
        };
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        assert!(h.records.len() >= 2);
        let gap = h.records[1].epoch - h.records[0].epoch;
        assert!(
            (gap - 1.0).abs() < 0.5,
            "records ~1 collective epoch apart, gap {gap}"
        );
    }

    #[test]
    fn total_samples_respect_epoch_budget() {
        let (train, test) = generate(&CifarLikeConfig::tiny(40, 10, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.02, 1);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::Downpour {
            p: 2,
            t: 1,
            staleness_gamma: false,
        };
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        let total = h.records.last().expect("r").samples;
        // Budget 3 × 40 = 120, with at most one block (8 samples × 2
        // learners) of overshoot.
        assert!((120..=120 + 32).contains(&total), "samples {total}");
    }
}
