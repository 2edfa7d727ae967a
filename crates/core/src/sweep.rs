//! Parameter sweeps: run a grid of algorithm configurations, in parallel
//! across OS threads, and collect the histories.
//!
//! Every figure in the paper is a sweep — over `p`, over `T`, over
//! algorithms. This module is the public API for users running their own:
//! build a [`SweepGrid`], call [`run_sweep`], get one [`History`] per
//! configuration. Simulated runs are independent, so the sweep
//! parallelizes embarrassingly — each worker's run takes an even share of
//! the caller's compute threads for its kernels — and each run stays
//! bit-identical to a standalone [`crate::train`] call with the same seed.

use sasgd_data::Dataset;
use sasgd_nn::Model;
use sasgd_tensor::parallel;

use crate::algorithms::Algorithm;
use crate::history::History;
use crate::trainer::{train, TrainConfig};

/// A grid of experiments sharing one dataset and base configuration.
pub struct SweepGrid {
    /// The algorithm configurations to run.
    pub algorithms: Vec<Algorithm>,
    /// Base trainer configuration; each run derives its seed from
    /// `base.seed` plus the configuration index.
    pub base: TrainConfig,
}

impl SweepGrid {
    /// Grid over learner counts for a fixed algorithm shape.
    pub fn over_p(ps: &[usize], make: impl Fn(usize) -> Algorithm, base: TrainConfig) -> Self {
        SweepGrid {
            algorithms: ps.iter().map(|&p| make(p)).collect(),
            base,
        }
    }

    /// Grid over aggregation intervals.
    pub fn over_t(ts: &[usize], make: impl Fn(usize) -> Algorithm, base: TrainConfig) -> Self {
        SweepGrid {
            algorithms: ts.iter().map(|&t| make(t)).collect(),
            base,
        }
    }
}

/// One sweep outcome.
pub struct SweepResult {
    /// The configuration that produced it.
    pub algorithm: Algorithm,
    /// Its training history.
    pub history: History,
}

/// Run every configuration in the grid, `threads` at a time (0 = one
/// thread per configuration). Results come back in grid order regardless
/// of completion order.
pub fn run_sweep(
    grid: &SweepGrid,
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    threads: usize,
) -> Vec<SweepResult> {
    let n = grid.algorithms.len();
    let workers = if threads == 0 {
        n.max(1)
    } else {
        threads.max(1)
    };
    let mut results: Vec<Option<SweepResult>> = (0..n).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<&mut Option<SweepResult>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    let workers = workers.min(n);
    // Concurrent runs share the caller's compute threads evenly.
    let width = parallel::width_for(workers, 0);
    // lint:allow(raw-spawn): whole independent runs, one result slot each — no rank talks to another
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                parallel::with_width(width, || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let algo = grid.algorithms[i];
                    let mut cfg = grid.base.clone();
                    cfg.seed = grid.base.seed.wrapping_add(i as u64);
                    let mut f = factory;
                    let history = train(&mut f, train_set, test_set, &algo, &cfg);
                    **slots[i].lock().expect("slot lock") = Some(SweepResult {
                        algorithm: algo,
                        history,
                    });
                })
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every configuration ran"))
        .collect()
}

/// Summarize a sweep as `(label, final test accuracy, epoch seconds)` rows
/// for quick tabulation.
pub fn summarize(results: &[SweepResult]) -> Vec<(String, f32, f64)> {
    results
        .iter()
        .map(|r| {
            (
                r.algorithm.label(),
                r.history.final_test_acc(),
                r.history.epoch_seconds(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::GammaP;
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    fn setup() -> (Dataset, Dataset, TrainConfig) {
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
        let mut cfg = TrainConfig::new(2, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        (train_set, test_set, cfg)
    }

    #[test]
    fn sweep_matches_standalone_runs() {
        let (train_set, test_set, cfg) = setup();
        let grid = SweepGrid::over_p(
            &[1, 2, 4],
            |p| Algorithm::sasgd(p, 2, GammaP::OverP),
            cfg.clone(),
        );
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let results = run_sweep(&grid, &factory, &train_set, &test_set, 2);
        assert_eq!(results.len(), 3);
        // Each entry equals the standalone run with the derived seed.
        for (i, r) in results.iter().enumerate() {
            let mut solo_cfg = cfg.clone();
            solo_cfg.seed = cfg.seed + i as u64;
            let mut f = || models::tiny_cnn(3, &mut SeedRng::new(7));
            let solo = train(
                &mut f,
                &train_set,
                &test_set,
                &grid.algorithms[i],
                &solo_cfg,
            );
            assert_eq!(
                r.history.records.last().expect("r").train_loss,
                solo.records.last().expect("r").train_loss,
                "config {i} must match its standalone run"
            );
        }
    }

    #[test]
    fn results_preserve_grid_order() {
        let (train_set, test_set, cfg) = setup();
        let grid = SweepGrid::over_t(&[1, 4], |t| Algorithm::sasgd(2, t, GammaP::OverP), cfg);
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let results = run_sweep(&grid, &factory, &train_set, &test_set, 0);
        assert_eq!(results[0].algorithm.interval(), 1);
        assert_eq!(results[1].algorithm.interval(), 4);
        let rows = summarize(&results);
        assert!(rows[0].0.contains("T=1"));
        assert!(rows[0].1 > 0.0);
    }

    #[test]
    fn single_worker_equals_many_workers() {
        let (train_set, test_set, cfg) = setup();
        let grid = SweepGrid::over_p(&[1, 2], |p| Algorithm::sasgd(p, 1, GammaP::OverP), cfg);
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let serial = run_sweep(&grid, &factory, &train_set, &test_set, 1);
        let many = run_sweep(&grid, &factory, &train_set, &test_set, 0);
        for (a, b) in serial.iter().zip(&many) {
            assert_eq!(
                a.history.records.last().expect("r").train_loss,
                b.history.records.last().expect("r").train_loss
            );
        }
    }
}
