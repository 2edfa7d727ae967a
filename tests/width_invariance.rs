//! The intra-op width must be invisible to the numerics: a training step,
//! and a whole run on either backend, give the same bits whether the
//! kernels run as one band or fan out over two or three workers (three
//! does not divide a batch of 32 or 8: uneven blocks) — and the wide legs
//! must really have fanned out, or the comparison proves nothing.

use std::sync::{Mutex, MutexGuard};

use sasgd::core::{Algorithm, Backend, Executor, GammaP, TrainConfig};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::{models, Ctx, Model};
use sasgd::simnet::JitterModel;
use sasgd::tensor::{parallel, SeedRng, Tensor};

/// The thread cap and the region counter are process-wide: the tests of
/// this binary take turns.
static PROCESS_WIDE: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    PROCESS_WIDE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// One training step (`forward_loss` + `backward`) at `width`: the loss
/// and the gradient, as bits, and how many regions fanned out.
fn step_at(width: usize, model: &mut Model, x: &Tensor, y: &[usize]) -> (u32, Vec<u32>, u64) {
    let regions = parallel::regions_taken();
    model.zero_grads();
    let loss = parallel::with_width(width, || {
        let mut ctx = Ctx::train(SeedRng::new(11));
        let out = model.forward_loss(x, y, &mut ctx);
        model.backward(&mut ctx);
        out.loss
    });
    let fanned = parallel::regions_taken() - regions;
    (loss.to_bits(), bits(&model.grad_vector()), fanned)
}

fn assert_step_is_width_invariant(name: &str, mut model: Model, x: &Tensor, y: &[usize]) {
    let (loss, grads, fanned) = step_at(1, &mut model, x, y);
    assert_eq!(fanned, 0, "{name}: width 1 spawned");
    assert!(grads.iter().any(|&g| g != 0), "{name}: no gradient");
    for width in [2, 3] {
        let (l, g, fanned) = step_at(width, &mut model, x, y);
        assert!(fanned > 0, "{name}: width {width} never fanned out");
        assert_eq!(l, loss, "{name}: loss at width {width}");
        assert_eq!(g, grads, "{name}: gradient at width {width}");
    }
}

#[test]
fn a_cnn_step_and_an_nlc_step_are_bitwise_equal_at_widths_1_2_3() {
    let _turn = take_turn();
    let mut rng = SeedRng::new(5);

    // The Table I CNN at a quarter width, batch 32: the convolutions and
    // the first stage's ReLU, pooling and dropout are past the grain rule.
    let x = rng.normal_tensor(&[32, 3, 32, 32], 1.0);
    let y: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let cnn = models::cifar_cnn_scaled(4, &mut SeedRng::new(7));
    assert_step_is_width_invariant("cnn", cnn, &x, &y);

    // The NLC network's shape on a batch of sentences: linear layers (NN,
    // NT and TN products) and the temporal convolution.
    let x = rng.normal_tensor(&[16, 20, 100], 1.0);
    let y: Vec<usize> = (0..16).map(|i| i % 50).collect();
    let nlc = models::nlc_net_custom(20, 100, 200, 256, 256, 50, &mut SeedRng::new(9));
    assert_step_is_width_invariant("nlc", nlc, &x, &y);
}

#[test]
fn two_epoch_runs_are_bitwise_equal_at_every_cap_on_both_backends() {
    let _turn = take_turn();
    let (train, test) = generate(&CifarLikeConfig::scaled(16, 4));
    let factory = || models::cifar_cnn_scaled(8, &mut SeedRng::new(7));
    let mut cfg = TrainConfig::new(2, 8, 0.05, 42);
    cfg.jitter = JitterModel::none();
    cfg.eval_cap = 4;

    for algo in [Algorithm::Sequential, Algorithm::sasgd(2, 2, GammaP::OverP)] {
        let p = algo.learners();
        let mut reference: Option<Vec<u32>> = None;
        for backend in [Backend::Simulated, Backend::Threaded] {
            // Caps 2 and 3 where they change a width (a lone learner's
            // simulated run is its threaded one on a clocked endpoint);
            // two rank threads get two workers each from a cap of 4.
            let caps: &[usize] = match (backend, p) {
                (Backend::Simulated, 1) => &[1],
                (_, 2) => &[1, 2, 3, 4],
                _ => &[1, 2, 3],
            };
            for &cap in caps {
                parallel::configure_threads(cap);
                let regions = parallel::regions_taken();
                let history = Executor::new(backend).run(&factory, &train, &test, &algo, &cfg);
                let fanned = parallel::regions_taken() - regions;
                let what = format!("{} on {backend:?} at cap {cap}", algo.label());
                let params = bits(&history.final_params.expect("final_params"));
                assert_eq!(*reference.get_or_insert(params.clone()), params, "{what}");
                // On either backend `p` rank threads share the cap.
                let width = (cap / p).max(1);
                assert_eq!(fanned > 0, width > 1, "{what}: {fanned} region(s)");
            }
        }
    }
    parallel::configure_threads(0);
}
