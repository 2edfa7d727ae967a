//! Reproducibility: every algorithm is a pure function of its seed.

use sasgd::core::algorithms::GammaP;
use sasgd::core::{train, Algorithm, History, TSchedule, TrainConfig};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::models;
use sasgd::tensor::SeedRng;

fn run(algo: &Algorithm, seed: u64) -> History {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let cfg = TrainConfig::new(3, 8, 0.05, seed);
    let mut f = || models::tiny_cnn(3, &mut SeedRng::new(11));
    train(&mut f, &train_set, &test_set, algo, &cfg)
}

fn algos() -> Vec<Algorithm> {
    vec![
        Algorithm::Sequential,
        Algorithm::sasgd(4, 3, GammaP::OverP),
        Algorithm::Downpour {
            p: 4,
            t: 2,
            staleness_gamma: false,
        },
        Algorithm::Eamsgd {
            p: 4,
            t: 2,
            moving_rate: None,
            momentum: 0.5,
            staleness_gamma: false,
        },
        Algorithm::Sasgd {
            p: 4,
            schedule: TSchedule::AdaptivePlateau {
                t0: 2,
                t_max: 8,
                patience: 1,
                rel_improve: 0.2,
            },
            gamma_p: GammaP::OverP,
            compression: None,
            delayed: false,
        },
        Algorithm::Sasgd {
            p: 4,
            schedule: TSchedule::Fixed { t: 2 },
            gamma_p: GammaP::OverP,
            compression: None,
            delayed: true,
        },
        Algorithm::model_average_once(4),
    ]
}

#[test]
fn identical_seed_identical_history() {
    for algo in algos() {
        let a = run(&algo, 77);
        let b = run(&algo, 77);
        assert_eq!(a.records.len(), b.records.len(), "{}", algo.label());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(
                x.train_loss.to_bits(),
                y.train_loss.to_bits(),
                "{}",
                algo.label()
            );
            assert_eq!(
                x.test_acc.to_bits(),
                y.test_acc.to_bits(),
                "{}",
                algo.label()
            );
            assert_eq!(x.compute_seconds.to_bits(), y.compute_seconds.to_bits());
            assert_eq!(x.comm_seconds.to_bits(), y.comm_seconds.to_bits());
        }
    }
}

#[test]
fn different_seed_different_trajectory() {
    for algo in algos() {
        let a = run(&algo, 1);
        let b = run(&algo, 2);
        let same = a
            .records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| x.train_loss == y.train_loss);
        assert!(
            !same,
            "{}: seeds 1 and 2 gave identical losses",
            algo.label()
        );
    }
}

#[test]
fn virtual_time_is_monotone_and_positive() {
    for algo in algos() {
        let h = run(&algo, 5);
        let mut prev = 0.0f64;
        for r in &h.records {
            let total = r.compute_seconds + r.comm_seconds;
            assert!(total >= prev, "{}: time went backwards", algo.label());
            assert!(r.compute_seconds > 0.0, "{}: no compute time", algo.label());
            prev = total;
        }
    }
}
