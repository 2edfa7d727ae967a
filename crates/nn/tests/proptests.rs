//! Property-based tests on the layer/model invariants backprop relies on.

use proptest::prelude::*;
use sasgd_nn::layers::{Linear, Relu, Tanh};
use sasgd_nn::loss::softmax_cross_entropy;
use sasgd_nn::{models, Ctx, Layer, Model};
use sasgd_tensor::{SeedRng, Tensor};

/// A model built from an init stream.
type Build = fn(&mut SeedRng) -> Model;

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    SeedRng::new(seed).normal_tensor(dims, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn linear_backward_matches_fd(
        din in 1usize..6, dout in 1usize..5, batch in 1usize..5, seed in 0u64..500
    ) {
        let mut layer = Linear::new(din, dout);
        let mut params = vec![0.0; layer.param_len()];
        layer.init_params(&mut SeedRng::new(seed), &mut params);
        let x = rand_tensor(&[batch, din], seed + 1);
        let mut ctx = Ctx::train(SeedRng::new(0));
        let out = layer.forward(x.clone(), &params, &mut ctx);
        let mut grads = vec![0.0; layer.param_len()];
        layer.backward(Tensor::full(out.dims(), 1.0), &params, &mut grads, &mut ctx);
        let eps = 1e-2f32;
        let base = layer.forward(x.clone(), &params, &mut Ctx::eval()).sum();
        // Probe the first weight and the last bias.
        for &k in &[0usize, layer.param_len() - 1] {
            let mut p2 = params.clone();
            p2[k] += eps;
            let up = layer.forward(x.clone(), &p2, &mut Ctx::eval()).sum();
            let fd = (up - base) / eps;
            prop_assert!((fd - grads[k]).abs() < 0.05 * (1.0 + grads[k].abs()),
                "k={} fd={} grad={}", k, fd, grads[k]);
        }
    }

    #[test]
    fn activations_are_idempotent_shapes(n in 1usize..40, seed in 0u64..500) {
        let x = rand_tensor(&[n], seed);
        let mut relu = Relu::new();
        let y = relu.forward(x.clone(), &[], &mut Ctx::eval());
        prop_assert_eq!(y.dims(), x.dims());
        prop_assert!(y.as_slice().iter().all(|&v| v >= 0.0));
        let mut tanh = Tanh::new();
        let z = tanh.forward(x, &[], &mut Ctx::eval());
        prop_assert!(z.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn cross_entropy_invariant_under_logit_shift(
        n in 1usize..6, c in 2usize..6, shift in -5.0f32..5.0, seed in 0u64..500
    ) {
        let logits = rand_tensor(&[n, c], seed);
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        let a = softmax_cross_entropy(&logits, &labels);
        let mut shifted = logits.clone();
        shifted.as_mut_slice().iter_mut().for_each(|v| *v += shift);
        let b = softmax_cross_entropy(&shifted, &labels);
        prop_assert!((a.loss - b.loss).abs() < 1e-3, "{} vs {}", a.loss, b.loss);
        prop_assert_eq!(a.correct, b.correct);
    }

    #[test]
    fn cross_entropy_nonnegative_and_grad_balanced(
        n in 1usize..6, c in 2usize..8, seed in 0u64..500
    ) {
        let logits = rand_tensor(&[n, c], seed);
        let labels: Vec<usize> = (0..n).map(|i| (i * 3) % c).collect();
        let out = softmax_cross_entropy(&logits, &labels);
        prop_assert!(out.loss >= 0.0);
        for i in 0..n {
            let row_sum: f32 = out.dlogits.row(i).iter().sum();
            prop_assert!(row_sum.abs() < 1e-5);
        }
    }

    #[test]
    fn model_forward_shape_matches_out_shape_chain(seed in 0u64..500, batch in 1usize..4) {
        let mut model = models::tiny_cnn(5, &mut SeedRng::new(seed));
        let x = rand_tensor(&[batch, 3, 8, 8], seed + 1);
        let logits = model.forward(x, &mut Ctx::eval());
        prop_assert_eq!(logits.dims(), &[batch, 5]);
    }

    #[test]
    fn param_vector_roundtrip_any_model(seed in 0u64..500) {
        let configs: [(usize, usize, usize); 2] = [(4, 6, 3), (2, 9, 2)];
        for (i, h, c) in configs {
            let src = models::tiny_mlp(i, h, c, &mut SeedRng::new(seed));
            let v = src.param_vector();
            let mut dst = models::tiny_mlp(i, h, c, &mut SeedRng::new(seed + 7));
            dst.write_params(&v);
            prop_assert_eq!(dst.param_vector(), v);
        }
    }

    #[test]
    fn gradient_accumulation_is_additive(seed in 0u64..200) {
        // For every parameterised layer (Linear, Conv2d, TemporalConv1d):
        // backward twice on the same batch and model == 2 × backward once,
        // the second pass running on the layer state the first left; and
        // backward onto a non-zero arena == what was there + the gradient,
        // bitwise. An error-feedback accumulator lives in the arena between
        // rounds: a layer that overwrote its block would silently drop it.
        let nets: [(Build, &[usize]); 3] = [
            (|rng| models::tiny_mlp(4, 5, 3, rng), &[3, 4]),
            (|rng| models::tiny_cnn(3, rng), &[3, 3, 8, 8]),
            (|rng| models::nlc_net_custom(5, 6, 4, 3, 5, 3, rng), &[3, 5, 6]),
        ];
        let labels = [0usize, 1, 2];
        for (i, (build, dims)) in nets.iter().enumerate() {
            let x = rand_tensor(dims, seed + 1);
            // `passes` backward calls on one model, its arena set to
            // `start` first if there is one.
            let grad_after = |start: Option<&[f32]>, passes: usize| -> Vec<f32> {
                let mut m = build(&mut SeedRng::new(seed));
                if let Some(start) = start {
                    m.params_and_grads_mut().1.copy_from_slice(start);
                }
                for _ in 0..passes {
                    let mut ctx = Ctx::train(SeedRng::new(0));
                    m.forward_loss(&x, &labels, &mut ctx);
                    m.backward(&mut ctx);
                }
                m.grad_vector()
            };
            let g = grad_after(None, 1);
            prop_assert!(g.iter().any(|&v| v != 0.0), "net {}: no gradient", i);
            let twice = grad_after(None, 2);
            let mut rng = SeedRng::new(seed + 2);
            let start: Vec<f32> = g.iter().map(|_| rng.normal()).collect();
            let onto = grad_after(Some(&start), 1);
            for (j, (&gj, (&s, (&a, &b)))) in
                g.iter().zip(start.iter().zip(twice.iter().zip(&onto))).enumerate()
            {
                prop_assert!(
                    a.to_bits() == (gj + gj).to_bits(),
                    "net {} param {}: {} twice gave {}", i, j, gj, a
                );
                prop_assert!(
                    b.to_bits() == (s + gj).to_bits(),
                    "net {} param {}: {} onto {} gave {}", i, j, gj, s, b
                );
            }
        }
    }

    #[test]
    fn sgd_step_moves_against_gradient(seed in 0u64..200) {
        let mut m = models::tiny_mlp(4, 5, 3, &mut SeedRng::new(seed));
        let x = rand_tensor(&[4, 4], seed + 1);
        let labels = [0usize, 1, 2, 0];
        let mut ctx = Ctx::train(SeedRng::new(0));
        let before = m.forward_loss(&x, &labels, &mut ctx).loss;
        m.backward(&mut ctx);
        m.sgd_step(0.01);
        m.zero_grads();
        let after = m.forward_loss(&x, &labels, &mut ctx).loss;
        // A small step along the negative gradient cannot increase the
        // loss by more than second-order effects.
        prop_assert!(after < before + 0.05, "{} -> {}", before, after);
    }
}
