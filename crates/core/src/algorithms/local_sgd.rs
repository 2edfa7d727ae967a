//! Local SGD — periodic parameter averaging (Stich, ICLR 2019; Zhang
//! et al.'s "model averaging" done *during* training instead of once).
//!
//! `p` learners run `T` local minibatch steps independently, then every
//! replica is overwritten by the allreduce average of all replicas. For
//! `γp = γ/p` this is exactly the model-averaging view of Algorithm 1 the
//! paper derives in §III — SASGD's global step on the summed gradients
//! equals averaging the locally updated replicas — so Local SGD sits on
//! the same lattice point as SASGD-OverP up to float association.
//!
//! What this strategy adds is the **adaptive interval**: the squared
//! displacement of the average between consecutive rounds is emitted as
//! the sync signal, and an [`TSchedule::AdaptivePlateau`] policy doubles
//! `T` when that signal plateaus — communicating less as training
//! stabilizes. Since `T` only grows, the adaptive run never aggregates
//! more often than `Fixed { t: t0 }` over the same number of steps.

use sasgd_comm::sparse::SparseLevelProfile;
use sasgd_data::Dataset;
use sasgd_nn::Model;

use crate::engine::{delta_sq_norm, simulated, tree_reduce, AggregationStrategy, Cadence};
use crate::history::{History, WireStats};
use crate::schedule::{SyncPolicy, TSchedule};
use crate::trainer::{Learner, TrainConfig};

/// Periodic parameter averaging with a fixed or adaptive interval.
pub(crate) struct LocalSgdStrategy {
    p: usize,
    schedule: TSchedule,
    /// The average written at the previous round (x0 before any round) —
    /// baseline for the displacement signal.
    prev_avg: Vec<f32>,
    /// Signal from the latest round, consumed by [`Self::sync_signal`].
    last_signal: Option<f32>,
    /// Cost of one dense parameter allreduce.
    ar_seconds: f64,
    /// Parameter count (for wire accounting).
    m: usize,
}

impl LocalSgdStrategy {
    pub(crate) fn new(p: usize, schedule: TSchedule) -> Self {
        assert!(p >= 1, "need at least one learner");
        if let TSchedule::Fixed { t } = schedule {
            assert!(t >= 1, "Local SGD needs T >= 1");
        }
        LocalSgdStrategy {
            p,
            schedule,
            prev_avg: Vec::new(),
            last_signal: None,
            ar_seconds: 0.0,
            m: 0,
        }
    }

    fn initial_t(&self) -> usize {
        match self.schedule {
            TSchedule::Fixed { t } => t,
            TSchedule::AdaptivePlateau { t0, .. } => t0,
        }
    }
}

impl AggregationStrategy for LocalSgdStrategy {
    fn label(&self) -> String {
        let p = self.p;
        match self.schedule {
            TSchedule::Fixed { t } => format!("LocalSGD(p={p},T={t})"),
            TSchedule::AdaptivePlateau { t0, .. } => format!("LocalSGD-adT(p={p},T0={t0})"),
        }
    }

    fn p(&self) -> usize {
        self.p
    }

    fn cadence(&self) -> Cadence {
        Cadence::EventDriven
    }

    fn sync_interval(&self) -> usize {
        self.initial_t()
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::new(self.schedule)
    }

    fn setup(&mut self, _factory: &mut dyn FnMut() -> Model, x0: &[f32], cfg: &TrainConfig) -> f64 {
        self.m = x0.len();
        self.prev_avg = x0.to_vec();
        self.ar_seconds = cfg.cost.allreduce_tree(self.m, self.p).seconds;
        // Replicas start identical from the shared factory — no broadcast,
        // matching the threaded ParamAverage runner.
        0.0
    }

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
        l.local_step(data, idx, gamma, step_s, jitter);
        // Averaging consumes parameters, not gradients: keep gs empty.
        l.gs.iter_mut().for_each(|g| *g = 0.0);
    }

    fn on_local_step(
        &mut self,
        l: &mut Learner,
        _id: usize,
        data: &Dataset,
        idx: &[usize],
        gamma: f32,
    ) {
        l.local_step(data, idx, gamma, 0.0, 1.0);
        l.gs.iter_mut().for_each(|g| *g = 0.0);
    }

    fn sync(&mut self, learners: &mut [Learner], _gamma_now: f32, _history: &mut History) {
        // Barrier: averaging waits for the slowest learner, like SASGD's
        // aggregation.
        let t_max = learners.iter().map(|l| l.clock).fold(0.0_f64, f64::max);
        // Sum replicas in binomial-tree order (the sasgd-comm allreduce
        // order) and scale by the reciprocal — the exact float sequence of
        // the threaded backend's ParamAverage op, so p-way runs stay
        // bitwise equal across backends. Every replica is about to be
        // overwritten, so the sum runs in place and lands in learner 0's.
        let mut replicas: Vec<&mut [f32]> =
            learners.iter_mut().map(|l| l.model.params_mut()).collect();
        tree_reduce(&mut replicas);
        let (first, rest) = learners.split_first_mut().expect("at least one learner");
        let avg = first.model.params_mut();
        let inv = 1.0 / self.p as f32;
        avg.iter_mut().for_each(|v| *v *= inv);
        self.last_signal = Some(delta_sq_norm(avg, &self.prev_avg));
        self.prev_avg.copy_from_slice(avg);
        for l in rest {
            l.model.params_mut().copy_from_slice(&self.prev_avg);
        }
        for l in learners.iter_mut() {
            let wait = t_max - l.clock;
            l.charge_comm(wait + self.ar_seconds);
            l.gs.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    fn sync_signal(&mut self) -> Option<f32> {
        self.last_signal.take()
    }

    fn wire(&self, syncs: u64, _sparse_levels: &SparseLevelProfile) -> Option<WireStats> {
        // One dense tree allreduce per averaging round: 2(p−1) messages of
        // m elements each. No initial broadcast (replicas start identical).
        let p1 = (self.p - 1) as u64;
        Some(WireStats {
            elements: 2 * p1 * self.m as u64 * syncs,
            messages: 2 * p1 * syncs,
        })
    }
}

/// Run Local SGD on the simulated backend under the event-driven engine.
pub(crate) fn run(
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    schedule: TSchedule,
) -> History {
    let mut s = LocalSgdStrategy::new(p, schedule);
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
        let h = run(
            &mut factory,
            &train,
            &test,
            &cfg,
            4,
            TSchedule::Fixed { t: 2 },
        );
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert!(
            h.records.last().expect("r").comm_seconds > 0.0,
            "p>1 must communicate"
        );
    }

    #[test]
    fn adaptive_schedule_syncs_no_more_than_fixed_t0() {
        let (train, test) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = quiet_cfg(6, 0.05);
        let t0 = 2;
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let fixed = run(&mut f1, &train, &test, &cfg, 2, TSchedule::Fixed { t: t0 });
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let adaptive = run(
            &mut f2,
            &train,
            &test,
            &cfg,
            2,
            TSchedule::AdaptivePlateau {
                t0,
                t_max: 16,
                patience: 1,
                rel_improve: 0.5,
            },
        );
        assert!(
            adaptive.sync_rounds <= fixed.sync_rounds,
            "adaptive {} rounds vs fixed {}",
            adaptive.sync_rounds,
            fixed.sync_rounds
        );
        // A 50% improvement bar with patience 1 plateaus almost every
        // round, so T must actually have grown.
        assert!(
            adaptive.sync_rounds < fixed.sync_rounds,
            "plateau schedule should have grown T"
        );
    }

    #[test]
    fn signal_is_emitted_and_consumed() {
        let mut s = LocalSgdStrategy::new(1, TSchedule::Fixed { t: 1 });
        assert_eq!(s.sync_signal(), None);
        s.last_signal = Some(0.25);
        assert_eq!(s.sync_signal(), Some(0.25));
        assert_eq!(s.sync_signal(), None, "take() semantics");
    }
}
