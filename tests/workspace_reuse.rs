//! The workspace-arena hot path must be invisible to the numerics: a run
//! whose scratch buffers come from a dirty, reused arena has to produce
//! bit-for-bit the same parameters as a run that allocates everything
//! fresh, at the model level and through both execution backends.

use sasgd::core::{Algorithm, Backend, Executor, GammaP, TrainConfig};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::{models, Ctx};
use sasgd::tensor::{SeedRng, Workspace};

/// Train the tiny CNN for a few steps, either carrying one arena across
/// steps (`reuse = true`) or letting every step allocate fresh buffers.
/// The per-step RNG streams are identical either way.
fn train_steps(reuse: bool) -> Vec<f32> {
    let (train_set, _) = generate(&CifarLikeConfig::tiny(64, 16, 3));
    let mut model = models::tiny_cnn(3, &mut SeedRng::new(7));
    let shard = &train_set.shards(1)[0];
    let mut order = SeedRng::new(42);
    let mut ws = Workspace::new();
    for step in 0..6u64 {
        for idx in shard.epoch_iter(8, &mut order).take(1) {
            let (x, y) = train_set.batch(&idx);
            let mut ctx = Ctx::train(SeedRng::new(step));
            if reuse {
                ctx.ws = std::mem::take(&mut ws);
            }
            model.forward_loss(&x, &y, &mut ctx);
            model.backward(&mut ctx);
            if reuse {
                ws = std::mem::take(&mut ctx.ws);
            }
            model.sgd_step(0.05);
            model.zero_grads();
        }
    }
    model.param_vector()
}

#[test]
fn model_level_reuse_matches_fresh_bitwise() {
    let fresh = train_steps(false);
    let reused = train_steps(true);
    assert_eq!(fresh.len(), reused.len());
    for (i, (a, b)) in fresh.iter().zip(&reused).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "param[{i}] drifted between fresh and arena-reuse runs"
        );
    }
}

#[test]
fn engine_runs_are_bitwise_stable_across_backends_and_p() {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(64, 16, 3));
    let cfg = TrainConfig::new(2, 8, 0.05, 42);
    for p in [1usize, 4] {
        let algo = Algorithm::sasgd(p, 2, GammaP::OverP);
        for backend in [Backend::Simulated, Backend::Threaded] {
            let run = |_: usize| {
                let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
                Executor::new(backend)
                    .run(&factory, &train_set, &test_set, &algo, &cfg)
                    .final_params
                    .expect("sasgd reports final_params")
            };
            // The learners' arenas persist across every step of a run; two
            // runs must still agree bit-for-bit.
            let a = run(0);
            let b = run(1);
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "p={p} {backend:?}: param[{i}] not reproducible"
                );
            }
        }
    }
}
