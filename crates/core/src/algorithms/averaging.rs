//! One-shot model averaging (Zinkevich et al., NIPS 2010).
//!
//! `p` learners train *independently* on disjoint shards; parameters are
//! averaged only at the end (we also evaluate the running average each
//! epoch so its trajectory can be plotted). Section III of the paper
//! reports this heuristic "results in very poor training and test
//! accuracies" relative to SASGD's per-interval aggregation — an ablation
//! this module lets the benches reproduce.

use sasgd_data::Dataset;
use sasgd_nn::Model;

use crate::engine::AggregationStrategy;
use crate::trainer::{Learner, TrainConfig};

/// Independent learners with end-of-training averaging: never syncs, uses
/// the epoch-start γ, evaluates a spare replica holding the rank-ordered
/// average of all learner parameters.
pub(crate) struct AveragingStrategy {
    p: usize,
    /// Spare replica used only to evaluate the averaged parameters.
    avg_model: Option<Model>,
}

impl AveragingStrategy {
    pub(crate) fn new(p: usize) -> Self {
        assert!(p >= 1);
        AveragingStrategy { p, avg_model: None }
    }
}

impl AggregationStrategy for AveragingStrategy {
    fn label(&self) -> String {
        format!("ModelAvg(p={})", self.p)
    }

    fn p(&self) -> usize {
        self.p
    }

    fn lockstep_truncates(&self) -> bool {
        false
    }

    fn setup(
        &mut self,
        factory: &mut dyn FnMut() -> Model,
        _x0: &[f32],
        _cfg: &TrainConfig,
    ) -> f64 {
        self.avg_model = Some(factory());
        0.0
    }

    fn gamma_epoch(&self, epoch: usize, _step: usize, _steps: usize) -> f64 {
        // Independent learners use the epoch-start rate for the whole
        // epoch.
        (epoch - 1) as f64
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

    fn epoch_end(&mut self, learners: &mut [Learner], epoch: usize, cfg: &TrainConfig) {
        // Evaluate the average of all replicas, accumulated in rank order
        // (communication-free during training; the single final reduction
        // is charged on the last epoch).
        let m = learners[0].model.param_len();
        let p = self.p;
        let avg = self.avg_model.as_mut().expect("setup ran").params_mut();
        avg.fill(0.0);
        for l in learners.iter() {
            for (a, &b) in avg.iter_mut().zip(l.model.params()) {
                *a += b / p as f32;
            }
        }
        if epoch == cfg.epochs {
            let ar = cfg.cost.allreduce_tree(m, p);
            for l in learners.iter_mut() {
                l.charge_comm(ar.seconds);
            }
        }
    }

    fn eval_model<'a>(&'a mut self, _learners: &'a mut [Learner]) -> &'a mut Model {
        self.avg_model.as_mut().expect("setup ran")
    }

    fn final_params(&mut self, _learners: &[Learner]) -> Vec<f32> {
        let avg_model = self.avg_model.as_ref().expect("setup ran");
        avg_model.params().to_vec()
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
    fn p1_averaging_is_just_sgd() {
        let (train, test) = generate(&CifarLikeConfig::tiny(80, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = crate::train(
            &mut factory,
            &train,
            &test,
            &Algorithm::ModelAverageOnce { p: 1 },
            &cfg,
        );
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
    }

    #[test]
    fn communication_happens_once() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.02, 1);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let h = crate::train(
            &mut factory,
            &train,
            &test,
            &Algorithm::ModelAverageOnce { p: 4 },
            &cfg,
        );
        let comm_mid = h.records[1].comm_seconds;
        let comm_end = h.records.last().expect("r").comm_seconds;
        assert_eq!(comm_mid, 0.0, "no traffic during training");
        assert!(comm_end > 0.0, "one final reduction");
    }
}
