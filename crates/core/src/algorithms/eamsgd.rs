//! EAMSGD — elastic-averaging asynchronous SGD (Zhang, Choromanska, LeCun,
//! NIPS 2015), the paper's stronger baseline.
//!
//! Each learner runs *momentum* SGD on its own replica; every `τ` (= `T`)
//! minibatches it exchanges an elastic force with a center variable `x̃`
//! kept on the parameter server:
//!
//! ```text
//! diff = α (xᵢ − x̃);   xᵢ ← xᵢ − diff;   x̃ ← x̃ + diff
//! ```
//!
//! The default moving rate is `α = β/p` with `β = 0.9`, as recommended in
//! the EAMSGD paper. Communication cost per round equals a parameter-server
//! round trip (pull `x̃`, push `diff`). As in the EASGD/EAMSGD setting (and
//! [`super::downpour`]), the training data is partitioned across learners:
//! each replica streams minibatches from its own shard. Asynchrony is
//! realized by the engine's event-driven loop: completion events ordered
//! by virtual time.

use sasgd_data::Dataset;
use sasgd_nn::Model;

use crate::engine::{AggregationStrategy, Cadence, CommScope};
use crate::history::History;
use crate::trainer::{Learner, TrainConfig};

/// Asynchronous momentum-SGD replicas elastically coupled to a center
/// variable.
pub(crate) struct EamsgdStrategy {
    p: usize,
    t: usize,
    alpha: f32,
    momentum: f32,
    /// Scale the elastic moving rate by 1/(1+τ) using measured staleness.
    staleness_gamma: bool,
    /// Staleness observed for the learner about to exchange.
    last_tau: u64,
    /// The center variable `x̃` on the parameter server.
    center: Vec<f32>,
    /// Per-learner momentum buffers.
    velocities: Vec<Vec<f32>>,
    /// Lockstep-only: modeled PS round-trip seconds, set in `setup`.
    round_s: f64,
}

impl EamsgdStrategy {
    pub(crate) fn new(
        p: usize,
        t: usize,
        moving_rate: Option<f32>,
        momentum: f32,
        staleness_gamma: bool,
    ) -> Self {
        assert!(p >= 1 && t >= 1);
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        let alpha = moving_rate.unwrap_or(0.9 / p as f32);
        assert!(alpha > 0.0 && alpha <= 1.0, "moving rate out of range");
        EamsgdStrategy {
            p,
            t,
            alpha,
            momentum,
            staleness_gamma,
            last_tau: 0,
            center: Vec::new(),
            velocities: Vec::new(),
            round_s: 0.0,
        }
    }

    /// The moving rate for the next exchange, staleness-scaled when
    /// enabled.
    fn alpha_eff(&self) -> f32 {
        if self.staleness_gamma {
            // lint:allow(float-cast): τ is a small update count.
            self.alpha / (1.0 + self.last_tau as f32)
        } else {
            self.alpha
        }
    }
}

impl AggregationStrategy for EamsgdStrategy {
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
        self.center = x0.to_vec();
        self.velocities = vec![vec![0.0; x0.len()]; self.p];
        self.round_s = cfg.cost.ps_roundtrip(x0.len(), self.p).seconds;
        0.0
    }

    /// The rate the exchange applies is the moving rate, not `γ`: that is
    /// what the staleness series records, as the threaded exchange does.
    fn observe_staleness(&mut self, _id: usize, tau: u64, _gamma: f32) -> f32 {
        self.last_tau = tau;
        self.alpha_eff()
    }

    fn sync(&mut self, learners: &mut [Learner], _gamma_now: f32, _history: &mut History) {
        // Lockstep EAMSGD: the same elastic exchange, executed as a
        // bulk-synchronous round in rank order (τ = 0 by construction).
        let t_max = learners.iter().map(|l| l.clock).fold(0.0, f64::max);
        self.last_tau = 0;
        for l in learners.iter_mut() {
            let wait = t_max - l.clock;
            self.exchange(l);
            l.charge_comm(wait + self.round_s);
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
        // One momentum-SGD step on the local replica.
        l.compute_gradient(data, idx);
        let (params, grads) = l.model.params_and_grads_mut();
        let v = &mut self.velocities[id];
        for ((vi, pi), &gi) in v.iter_mut().zip(params).zip(&*grads) {
            *vi = self.momentum * *vi - gamma * gi;
            *pi += *vi;
        }
    }

    fn event_sync(&mut self, l: &mut Learner, _id: usize, _gamma: f32) {
        self.exchange(l);
    }
}

impl EamsgdStrategy {
    /// Elastic exchange with the center at the current effective rate.
    fn exchange(&mut self, l: &mut Learner) {
        let alpha = self.alpha_eff();
        for (pi, ci) in l.model.params_mut().iter_mut().zip(&mut self.center) {
            let diff = alpha * (*pi - *ci);
            *pi -= diff;
            *ci += diff;
        }
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
    fn learns_tiny_cifar_with_two_learners() {
        let (train, test) = generate(&CifarLikeConfig::tiny(80, 40, 3));
        let mut cfg = TrainConfig::new(8, 8, 0.02, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = crate::train(
            &mut factory,
            &train,
            &test,
            &Algorithm::Eamsgd {
                p: 2,
                t: 2,
                moving_rate: None,
                momentum: 0.9,
                staleness_gamma: false,
            },
            &cfg,
        );
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
    }

    #[test]
    fn center_tracks_learners() {
        // With α = 1 and p = 1 the center equals the learner after every
        // exchange, so EAMSGD degenerates to momentum SGD — and should
        // still learn.
        let (train, test) = generate(&CifarLikeConfig::tiny(60, 20, 2));
        let mut cfg = TrainConfig::new(6, 8, 0.02, 3);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let h = crate::train(
            &mut factory,
            &train,
            &test,
            &Algorithm::Eamsgd {
                p: 1,
                t: 1,
                moving_rate: Some(1.0),
                momentum: 0.9,
                staleness_gamma: false,
            },
            &cfg,
        );
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
    }

    #[test]
    #[should_panic(expected = "momentum must be")]
    fn bad_momentum_rejected() {
        let (train, test) = generate(&CifarLikeConfig::tiny(16, 8, 2));
        let cfg = TrainConfig::new(1, 8, 0.02, 3);
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(9));
        crate::train(
            &mut factory,
            &train,
            &test,
            &Algorithm::Eamsgd {
                p: 1,
                t: 1,
                moving_rate: None,
                momentum: 1.5,
                staleness_gamma: false,
            },
            &cfg,
        );
    }
}
