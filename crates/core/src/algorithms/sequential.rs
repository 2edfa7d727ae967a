//! Sequential SGD — the single-learner baseline every figure compares to.

use sasgd_data::{Dataset, Shard};

use crate::engine::AggregationStrategy;
use crate::trainer::{Learner, TrainConfig};

/// Plain minibatch SGD on one learner: never syncs, walks the full
/// dataset each epoch (ragged tail included), keeps no gradient
/// accumulator.
pub(crate) struct SequentialStrategy;

impl SequentialStrategy {
    pub(crate) fn new() -> Self {
        SequentialStrategy
    }
}

impl AggregationStrategy for SequentialStrategy {
    fn label(&self) -> String {
        "SGD".into()
    }

    fn p(&self) -> usize {
        1
    }

    fn shards(&self, train: &Dataset, _cfg: &TrainConfig) -> Vec<Shard> {
        // One learner sees the data in its stored order regardless of the
        // configured multi-learner shard strategy.
        train.shards(1)
    }

    fn lockstep_truncates(&self) -> bool {
        false
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
        // Sequential SGD keeps no separate accumulator.
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
    fn learns_tiny_cifar() {
        let (train, test) = generate(&CifarLikeConfig::tiny(120, 60, 3));
        let mut cfg = TrainConfig::new(8, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = crate::train(&mut factory, &train, &test, &Algorithm::Sequential, &cfg);
        assert_eq!(h.records.len(), 8);
        let first = h.records[0].train_loss;
        let last = h.records.last().expect("records").train_loss;
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        // No communication for one learner.
        assert_eq!(h.records.last().expect("records").comm_seconds, 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let (train, test) = generate(&CifarLikeConfig::tiny(40, 20, 3));
        let cfg = TrainConfig::new(2, 8, 0.05, 11);
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let h1 = crate::train(&mut f1, &train, &test, &Algorithm::Sequential, &cfg);
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let h2 = crate::train(&mut f2, &train, &test, &Algorithm::Sequential, &cfg);
        assert_eq!(
            h1.records.last().expect("r").train_loss,
            h2.records.last().expect("r").train_loss
        );
    }
}
