//! End-to-end convergence tests: every algorithm learns at benign
//! settings, and the paper's qualitative claims hold at miniature scale.

use sasgd::core::algorithms::GammaP;
use sasgd::core::{train, Algorithm, TrainConfig};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::data::nlc_like::{self, NlcLikeConfig};
use sasgd::nn::models;
use sasgd::simnet::JitterModel;
use sasgd::tensor::SeedRng;

fn cifar() -> (sasgd::data::Dataset, sasgd::data::Dataset) {
    generate(&CifarLikeConfig::tiny(160, 64, 3))
}

fn cfg(epochs: usize, gamma: f32) -> TrainConfig {
    let mut c = TrainConfig::new(epochs, 8, gamma, 42);
    c.jitter = JitterModel::default();
    c
}

#[test]
fn every_algorithm_learns_at_small_p() {
    let (train_set, test_set) = cifar();
    let algos = [
        Algorithm::Sequential,
        Algorithm::sasgd(2, 2, GammaP::OverP),
        Algorithm::Downpour {
            p: 2,
            t: 1,
            staleness_gamma: false,
        },
        Algorithm::Eamsgd {
            p: 2,
            t: 2,
            moving_rate: None,
            momentum: 0.5,
            staleness_gamma: false,
        },
        Algorithm::model_average_once(2),
    ];
    for algo in algos {
        let mut f = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = train(&mut f, &train_set, &test_set, &algo, &cfg(8, 0.04));
        assert!(
            h.final_test_acc() > 0.5,
            "{} only reached {:.2}",
            algo.label(),
            h.final_test_acc()
        );
    }
}

#[test]
fn sasgd_tolerates_more_learners_than_downpour() {
    // The Fig 9/10 claim at miniature scale: at p=8 and a coarse interval,
    // SASGD's synchronized aggregation keeps it learning while Downpour's
    // stale single-shard pushes destroy accuracy. Two scale requirements
    // make the effect visible: the shards must be non-IID (ByClass — each
    // learner sees ~one class, so async pushes thrash the server between
    // class solutions while SASGD's allreduce always averages all of
    // them), and each learner needs at least T minibatches per epoch so
    // SASGD actually aggregates every epoch rather than once per run
    // (640/8 samples at batch 8 = 10 steps/epoch = exactly T).
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(640, 128, 3));
    let mut c = cfg(8, 0.06);
    c.shard_strategy = sasgd::data::ShardStrategy::ByClass;
    let p = 8;
    let t = 10;
    let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(5));
    let sasgd = train(
        &mut f1,
        &train_set,
        &test_set,
        &Algorithm::sasgd(p, t, GammaP::OverP),
        &c,
    );
    let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(5));
    let downpour = train(
        &mut f2,
        &train_set,
        &test_set,
        &Algorithm::Downpour {
            p,
            t,
            staleness_gamma: false,
        },
        &c,
    );
    assert!(
        sasgd.final_test_acc() > downpour.final_test_acc() + 0.1,
        "SASGD {:.2} should clearly beat Downpour {:.2} at p={p}, T={t}",
        sasgd.final_test_acc(),
        downpour.final_test_acc()
    );
}

#[test]
fn interval_increases_sample_complexity() {
    // Theorem 4, empirically: same sample budget, larger T ⇒ no better
    // (usually worse) training accuracy.
    let (train_set, test_set) = cifar();
    let c = cfg(8, 0.05);
    let mut accs = Vec::new();
    for t in [1usize, 16] {
        let mut f = || models::tiny_cnn(3, &mut SeedRng::new(9));
        let h = train(
            &mut f,
            &train_set,
            &test_set,
            &Algorithm::sasgd(4, t, GammaP::OverP),
            &c,
        );
        accs.push(h.final_train_acc());
    }
    assert!(
        accs[1] <= accs[0] + 0.05,
        "T=16 train acc {:.2} should not beat T=1 {:.2} by a margin",
        accs[1],
        accs[0]
    );
}

#[test]
fn sasgd_comm_time_amortizes_with_t() {
    // The headline trade-off: bigger T, less communication per epoch.
    let (train_set, test_set) = cifar();
    let c = cfg(2, 0.05);
    let mut comm = Vec::new();
    for t in [1usize, 8] {
        let mut f = || models::tiny_cnn(3, &mut SeedRng::new(3));
        let h = train(
            &mut f,
            &train_set,
            &test_set,
            &Algorithm::sasgd(4, t, GammaP::OverP),
            &c,
        );
        comm.push(h.records.last().expect("records").comm_seconds);
    }
    assert!(
        comm[1] < comm[0] / 3.0,
        "T=8 comm {:.4}s should be far below T=1 {:.4}s",
        comm[1],
        comm[0]
    );
}

#[test]
fn nlc_workload_trains_with_sasgd() {
    let (train_set, test_set) = nlc_like::generate(&NlcLikeConfig::tiny(160, 60, 5));
    let mut c = TrainConfig::new(10, 2, 0.05, 1);
    c.jitter = JitterModel::none();
    let mut f = || models::nlc_net_custom(8, 12, 24, 64, 64, 5, &mut SeedRng::new(2));
    let h = train(
        &mut f,
        &train_set,
        &test_set,
        &Algorithm::sasgd(4, 5, GammaP::OverP),
        &c,
    );
    assert!(
        h.final_test_acc() > 0.4,
        "NLC-like acc {:.2}",
        h.final_test_acc()
    );
}

#[test]
fn one_shot_averaging_underperforms_sasgd() {
    // §III: averaging once at the end "results in very poor training and
    // test accuracies" relative to per-interval aggregation. The effect
    // needs shard-local solutions that disagree, so shard a many-class
    // dataset by label (ByClass): each of the 8 learners converges to a
    // one-or-two-class specialist, and averaging the specialists once at
    // the end yields mush, while SASGD's per-interval aggregation keeps
    // one consensus model that learns every class.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(200, 80, 10));
    let mut c = cfg(16, 0.05);
    c.shard_strategy = sasgd::data::ShardStrategy::ByClass;
    let p = 8;
    let mut f1 = || models::tiny_cnn(10, &mut SeedRng::new(4));
    let avg = train(
        &mut f1,
        &train_set,
        &test_set,
        &Algorithm::model_average_once(p),
        &c,
    );
    let mut f2 = || models::tiny_cnn(10, &mut SeedRng::new(4));
    let sasgd = train(
        &mut f2,
        &train_set,
        &test_set,
        &Algorithm::sasgd(p, 2, GammaP::OverP),
        &c,
    );
    assert!(
        sasgd.final_test_acc() > avg.final_test_acc(),
        "SASGD {:.2} vs one-shot averaging {:.2}",
        sasgd.final_test_acc(),
        avg.final_test_acc()
    );
}
