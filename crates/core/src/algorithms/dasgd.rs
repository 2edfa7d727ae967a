//! DaSGD-style delayed parameter averaging.
//!
//! Like Local SGD, `p` learners average their replicas every `T` steps —
//! but the average launched at round `k` is only *applied* at round
//! `k + 1`, while the learners have already run `T` steps ahead on their
//! stale replicas. Applying the delayed average re-bases each learner's
//! local progress onto it:
//!
//! ```text
//! x_i ← avg_{k-1} + (x_i − snap_i)
//! ```
//!
//! where `snap_i` is learner `i`'s parameter vector right after the
//! previous application. The allreduce thus overlaps with compute: a
//! learner only waits if the *previous* round's average has not finished
//! travelling by the time it needs it, so for `T·step ≥ allreduce` the
//! communication hides completely — the lattice point between
//! bulk-synchronous SASGD (stall every round) and Downpour (unbounded
//! staleness). The price is a fixed one-round staleness, reported through
//! [`AggregationStrategy::collective_tau`].

use sasgd_comm::sparse::SparseLevelProfile;
use sasgd_data::Dataset;
use sasgd_nn::Model;

use crate::engine::{rebase, simulated, tree_reduce, AggregationStrategy, Cadence};
use crate::history::{History, WireStats};
use crate::trainer::{Learner, TrainConfig};

/// Delayed averaging: round-k average applied at round k+1.
pub(crate) struct DaSgdStrategy {
    p: usize,
    t: usize,
    /// The average computed last round, waiting to be applied.
    pending: Option<Vec<f32>>,
    /// Per-learner copies of the pre-application parameters: what this
    /// round's allreduce sums (in place — the average lands in the first).
    frames: Vec<Vec<f32>>,
    /// Per-learner parameters at the moment of the last application —
    /// the base point the local progress delta is measured from.
    snaps: Vec<Vec<f32>>,
    /// Virtual time at which the in-flight allreduce completes.
    last_avail: f64,
    /// Cost of one dense parameter allreduce.
    ar_seconds: f64,
    /// Parameter count (for wire accounting).
    m: usize,
}

impl DaSgdStrategy {
    pub(crate) fn new(p: usize, t: usize) -> Self {
        assert!(p >= 1, "need at least one learner");
        assert!(t >= 1, "averaging interval must be positive");
        DaSgdStrategy {
            p,
            t,
            pending: None,
            frames: Vec::new(),
            snaps: Vec::new(),
            last_avail: 0.0,
            ar_seconds: 0.0,
            m: 0,
        }
    }
}

impl AggregationStrategy for DaSgdStrategy {
    fn label(&self) -> String {
        format!("DaSGD(p={},T={})", self.p, self.t)
    }

    fn p(&self) -> usize {
        self.p
    }

    fn cadence(&self) -> Cadence {
        Cadence::EventDriven
    }

    fn sync_interval(&self) -> usize {
        self.t
    }

    fn collective_tau(&self) -> u64 {
        // Every applied average is exactly one round old by construction.
        1
    }

    fn setup(&mut self, _factory: &mut dyn FnMut() -> Model, x0: &[f32], cfg: &TrainConfig) -> f64 {
        self.m = x0.len();
        self.snaps = vec![x0.to_vec(); self.p];
        self.frames = self.snaps.clone();
        self.ar_seconds = cfg.cost.allreduce_tree(self.m, self.p).seconds;
        self.last_avail = 0.0;
        self.pending = None;
        // Replicas start identical from the shared factory — no broadcast,
        // matching the threaded DelayedAverage runner.
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
        // Launch this round's allreduce over the *pre-application*
        // parameters, in binomial-tree order with reciprocal scaling —
        // the exact float sequence of the threaded DelayedAverage op.
        let t_arr_max = learners.iter().map(|l| l.clock).fold(0.0_f64, f64::max);
        for (frame, l) in self.frames.iter_mut().zip(learners.iter()) {
            frame.copy_from_slice(l.model.params());
        }
        tree_reduce(&mut self.frames);
        let inv = 1.0 / self.p as f32;
        self.frames[0].iter_mut().for_each(|v| *v *= inv);
        // Apply the PREVIOUS round's average, re-based by each learner's
        // local progress since its last application; the buffer it came
        // in carries the next round's copy.
        let avg = std::mem::take(&mut self.frames[0]);
        let prev = self.pending.replace(avg);
        for (l, snap) in learners.iter_mut().zip(&mut self.snaps) {
            let cur = l.model.params_mut();
            if let Some(prev) = &prev {
                rebase(cur, prev, snap);
            }
            snap.copy_from_slice(cur);
        }
        self.frames[0] = prev.unwrap_or_else(|| vec![0.0; self.m]);
        // Overlapped timing: a learner only stalls if the previous
        // round's allreduce has not completed by the time it arrives
        // here; the one launched now completes ar_seconds after the
        // slowest learner arrives.
        for l in learners.iter_mut() {
            let wait = (self.last_avail - l.clock).max(0.0);
            l.charge_comm(wait);
        }
        self.last_avail = t_arr_max + self.ar_seconds;
    }

    fn final_params(&mut self, learners: &[Learner]) -> Vec<f32> {
        // Flush the in-flight average so a finished run does not discard
        // the last round of aggregation (mirrors the threaded runner).
        let mut cur = learners[0].model.params().to_vec();
        if let Some(prev) = &self.pending {
            rebase(&mut cur, prev, &self.snaps[0]);
        }
        cur
    }

    fn wire(&self, syncs: u64, _sparse_levels: &SparseLevelProfile) -> Option<WireStats> {
        // One dense tree allreduce per round: 2(p−1) messages of m
        // elements. No initial broadcast (replicas start identical).
        let p1 = (self.p - 1) as u64;
        Some(WireStats {
            elements: 2 * p1 * self.m as u64 * syncs,
            messages: 2 * p1 * syncs,
        })
    }
}

/// Run delayed averaging on the simulated backend under the event-driven
/// engine.
pub(crate) fn run(
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
) -> History {
    let mut s = DaSgdStrategy::new(p, t);
    simulated::run_auto(&mut s, factory, train_set, test_set, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TSchedule;
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
        let h = run(&mut factory, &train, &test, &cfg, 4, 2);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        let st = h.staleness.expect("delayed averaging records staleness");
        assert_eq!(st.max, 1, "staleness is one round by construction");
    }

    #[test]
    fn overlap_hides_communication_vs_local_sgd() {
        // With jitter off, every learner reaches the round barrier at the
        // same time, so Local SGD pays the full allreduce each round while
        // delayed averaging only waits for the *previous* allreduce —
        // already finished once T compute steps exceed its latency.
        let (train, test) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = quiet_cfg(3, 0.05);
        let t = 4;
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let local = crate::algorithms::local_sgd::run(
            &mut f1,
            &train,
            &test,
            &cfg,
            4,
            TSchedule::Fixed { t },
        );
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let delayed = run(&mut f2, &train, &test, &cfg, 4, t);
        let lc = local.records.last().expect("r").comm_seconds;
        let dc = delayed.records.last().expect("r").comm_seconds;
        assert!(
            dc < lc,
            "delayed averaging comm {dc} should undercut Local SGD {lc}"
        );
    }

    #[test]
    fn p1_delayed_averaging_is_nearly_transparent() {
        // With one learner the "average" is the learner itself, so the
        // delayed application rebases to prev + (cur − snap) = cur up to
        // f32 association — mathematically the identity, so p=1 delayed
        // averaging must track p=1 Local SGD to rounding noise. (Bitwise
        // equality is the *cross-backend* contract, pinned in the
        // distributed-equivalence suite, not a DaSGD-vs-LocalSGD one.)
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 3));
        let cfg = quiet_cfg(3, 0.05);
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(9));
        let da = run(&mut f1, &train, &test, &cfg, 1, 2);
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(9));
        let ls = crate::algorithms::local_sgd::run(
            &mut f2,
            &train,
            &test,
            &cfg,
            1,
            TSchedule::Fixed { t: 2 },
        );
        let a = da.final_params.expect("params");
        let b = ls.final_params.expect("params");
        assert_eq!(a.len(), b.len());
        let max_diff = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-4,
            "p=1 delayed averaging drifted {max_diff} from plain local training"
        );
    }
}
