//! Property-based tests (proptest) on the core invariants: collectives
//! compute exact sums, shards partition, flat parameter views round-trip,
//! compression is lossless under error feedback, the sparse wire format
//! reproduces the dense collectives, the theory module's solutions satisfy
//! their defining equations, and the cost model is monotone.

use proptest::prelude::*;
use sasgd::comm::collectives::{allreduce_ring, allreduce_tree, broadcast};
use sasgd::comm::sparse::{sparse_allreduce_tree, SparseLevelProfile, SparseTreeOpts, SparseVec};
use sasgd::comm::world::CommWorld;
use sasgd::core::epoch_time::{epoch_time, Aggregation, Workload};
use sasgd::core::theory;
use sasgd::core::{
    train, Algorithm, Backend, Cadence, Compression, Executor, GammaP, TSchedule, TrainConfig,
};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::data::Dataset;
use sasgd::nn::models;
use sasgd::simnet::{CostModel, EventQueue, JitterModel, VirtualTime};
use sasgd::tensor::SeedRng;
use std::thread;

fn run_ranks<T: Send>(p: usize, f: impl Fn(&mut sasgd::comm::Communicator) -> T + Sync) -> Vec<T> {
    let mut world = CommWorld::new(p);
    let comms = world.communicators();
    let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
    // lint:allow(raw-spawn): test host of rank threads over CommWorld endpoints
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| {
                let f = &f;
                s.spawn(move || f(&mut c))
            })
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("rank"));
        }
    });
    out.into_iter().map(|o| o.expect("value")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_tree_is_exact_sum_order(
        p in 1usize..9,
        m in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = SeedRng::new(seed);
        let inputs: Vec<Vec<f32>> = (0..p)
            .map(|_| (0..m).map(|_| (rng.below(200) as f32) - 100.0).collect())
            .collect();
        let inputs2 = inputs.clone();
        let results = run_ranks(p, move |c| {
            let mut v = inputs2[c.rank()].clone();
            allreduce_tree(c, &mut v).expect("allreduce");
            v
        });
        // Integer-valued floats sum exactly, so compare against the plain sum.
        let expect: Vec<f32> = (0..m)
            .map(|j| inputs.iter().map(|v| v[j]).sum())
            .collect();
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn ring_matches_tree(p in 1usize..7, m in 1usize..30, seed in 0u64..1000) {
        let mut rng = SeedRng::new(seed);
        let inputs: Vec<Vec<f32>> = (0..p)
            .map(|_| (0..m).map(|_| (rng.below(64) as f32) - 32.0).collect())
            .collect();
        let i1 = inputs.clone();
        let tree = run_ranks(p, move |c| {
            let mut v = i1[c.rank()].clone();
            allreduce_tree(c, &mut v).expect("allreduce");
            v
        });
        let ring = run_ranks(p, move |c| {
            let mut v = inputs[c.rank()].clone();
            allreduce_ring(c, &mut v).expect("ring allreduce");
            v
        });
        prop_assert_eq!(tree, ring);
    }

    #[test]
    fn broadcast_from_any_root(p in 1usize..9, root_pick in 0usize..8, m in 1usize..20) {
        let root = root_pick % p;
        let payload: Vec<f32> = (0..m).map(|i| i as f32 * 1.5).collect();
        let expect = payload.clone();
        let results = run_ranks(p, move |c| {
            let mut v = if c.rank() == root { payload.clone() } else { vec![0.0; m] };
            broadcast(c, root, &mut v).expect("broadcast");
            v
        });
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn shards_partition_exactly(n in 1usize..200, p in 1usize..17) {
        let data = Dataset::new(vec![0.0; n], vec![0; n], &[1], 1);
        let shards = data.shards(p);
        prop_assert_eq!(shards.len(), p);
        let mut all: Vec<usize> = shards.iter().flat_map(|s| s.indices().to_vec()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let (mn, mx) = (sizes.iter().min().expect("p>0"), sizes.iter().max().expect("p>0"));
        prop_assert!(mx - mn <= 1, "near-equal shards");
    }

    #[test]
    fn flat_param_roundtrip(seed in 0u64..500) {
        let m1 = models::tiny_mlp(6, 5, 4, &mut SeedRng::new(seed));
        let v = m1.param_vector();
        let mut m2 = models::tiny_mlp(6, 5, 4, &mut SeedRng::new(seed.wrapping_add(1)));
        m2.write_params(&v);
        prop_assert_eq!(m2.param_vector(), v);
    }

    #[test]
    fn cubic_root_is_positive_root(p in 1usize..200, alpha in 1.0f64..500.0) {
        let c = theory::solve_cubic(p, alpha);
        prop_assert!(c > 0.0);
        let r = 4.0 * p as f64 * c.powi(3) + alpha * c * c - 2.0 * alpha;
        prop_assert!(r.abs() < 1e-5 * (1.0 + alpha), "residual {}", r);
        // And the clamped optimum respects the admissible range.
        let copt = theory::optimal_c(p, alpha);
        prop_assert!(copt <= theory::c_max(p, alpha) + 1e-12);
    }

    #[test]
    fn guarantee_gap_never_improves_with_p(alpha in 8.0f64..64.0) {
        let mut prev = theory::optimal_guarantee(1, alpha);
        for p in [2usize, 4, 8, 16, 32] {
            let g = theory::optimal_guarantee(p, alpha);
            prop_assert!(g >= prev - 1e-9, "guarantee improved from {prev} to {g} at p={p}");
            prev = g;
        }
    }

    #[test]
    fn epoch_time_monotone_in_t(p in 2usize..9, t in 1usize..100) {
        let cost = CostModel::paper_testbed();
        let jit = JitterModel::none();
        let w = Workload::cifar10();
        let a = epoch_time(&cost, &w, Aggregation::AllreduceTree, p, t, &jit, 1).total();
        let b = epoch_time(&cost, &w, Aggregation::AllreduceTree, p, t + 1, &jit, 1).total();
        prop_assert!(b <= a + 1e-12, "larger T must not cost more time");
    }

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..60)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(VirtualTime(t), i);
        }
        let mut prev = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.seconds() >= prev);
            prev = t.seconds();
        }
    }

    #[test]
    fn topk_error_feedback_is_lossless_bitwise(
        raw in proptest::collection::vec(-1e6f32..1e6, 1..60),
        ratio in 0.05f64..1.0,
    ) {
        // Whatever top-k drops lands in the residual, so the decomposition
        // loses nothing: dense[i] + residual[i] must reproduce the input
        // bit for bit (exactly one of the two is the original value, the
        // other is +0.0; -0.0 inputs are normalized away since x + -0.0
        // only differs from x at that one bit pattern).
        let g: Vec<f32> = raw.iter().map(|&x| if x == 0.0 { 0.0 } else { x }).collect();
        let c = Compression::topk(ratio).compress(&g);
        for ((d, r), orig) in c.dense.iter().zip(&c.residual).zip(&g) {
            prop_assert_eq!((d + r).to_bits(), orig.to_bits());
            prop_assert!(*d == 0.0 || *r == 0.0, "coordinate split between dense and residual");
        }
    }

    #[test]
    fn uniform8bit_error_is_bounded_by_half_a_step(
        raw in proptest::collection::vec(-1e6f32..1e6, 1..60),
    ) {
        let g: Vec<f32> = raw.iter().map(|&x| if x == 0.0 { 0.0 } else { x }).collect();
        let c = Compression::Uniform8Bit.compress(&g);
        let maxabs = g.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let step = maxabs / 127.0;
        // Quantization rounds to the nearest of 255 levels: the residual
        // can never exceed half a step (plus float rounding slack).
        let bound = 0.5 * step * (1.0 + 1e-3) + f32::MIN_POSITIVE;
        for (&r, (&d, &orig)) in c.residual.iter().zip(c.dense.iter().zip(&g)) {
            prop_assert!(r.abs() <= bound, "residual {r} exceeds half-step {bound}");
            // The residual is the exact rounding error.
            prop_assert_eq!((orig - d).to_bits(), r.to_bits());
        }
    }

    #[test]
    fn sparse_allreduce_matches_dense_allreduce_bitwise(
        p in 1usize..8,
        m in 1usize..40,
        density in 1u64..100,
        seed in 0u64..1000,
    ) {
        // Arbitrary sparsity patterns and dyadic values: the sparse tree
        // allreduce must equal the dense tree allreduce on the densified
        // vectors, element for element, bit for bit.
        let make = move |rank: usize| -> Vec<f32> {
            let mut rng = SeedRng::new(seed.wrapping_mul(31).wrapping_add(rank as u64));
            (0..m)
                .map(|_| {
                    if (rng.below(100) as u64) < density {
                        (rng.below(2001) as f32 - 1000.0) / 8.0
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        let dense = run_ranks(p, move |c| {
            let mut v = make(c.rank());
            allreduce_tree(c, &mut v).expect("allreduce");
            v
        });
        let sparse = run_ranks(p, move |c| {
            let mut sv = SparseVec::from_dense(&make(c.rank()));
            let mut profile = SparseLevelProfile::default();
            sparse_allreduce_tree(c, &mut sv, SparseTreeOpts::default(), &mut profile)
                .expect("sparse allreduce");
            sv.to_dense()
        });
        for (dv, sv) in dense.iter().zip(&sparse) {
            for (a, b) in dv.iter().zip(sv) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn sasgd_bound_worsens_with_t_at_fixed_s(
        t in 1usize..100,
        p in 1usize..17,
    ) {
        let c = theory::ProblemConstants { df: 2.0, l: 8.0, sigma2: 1.5 };
        let s = 5.0e6;
        let b1 = theory::sasgd_best_bound_fixed_s(&c, 8, t, p, s);
        let b2 = theory::sasgd_best_bound_fixed_s(&c, 8, t * 2, p, s);
        prop_assert!(b2 >= b1 - 1e-9, "Theorem 4 violated: T={t} {b1} vs 2T {b2}");
    }
}

// ---- Event-driven engine invariants ------------------------------------
// Each case runs real (tiny) training, so the case count stays low.

/// Event-driven, jitter-free: the cadence the averaging lattice points
/// first ran at.
fn lattice_cfg(seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::new(2, 8, 0.05, seed);
    cfg.jitter = JitterModel::none();
    cfg.cadence = Some(Cadence::EventDriven);
    cfg
}

/// Uncompressed, undelayed SASGD at `γp = γ/p` under `schedule`.
fn local_sgd(p: usize, schedule: TSchedule) -> Algorithm {
    Algorithm::Sasgd {
        p,
        schedule,
        gamma_p: GammaP::OverP,
        compression: None,
        delayed: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sync_policy_round_count_matches_across_backends_at_p1(
        t0 in 1usize..4,
        growth in 1usize..4,
        patience in 1u32..3,
        adaptive in 0usize..2,
        seed in 0u64..100,
    ) {
        // Any SyncPolicy with T >= 1 must fire the same NUMBER of
        // aggregation events on the simulated and the threaded backend at
        // p = 1 — the policy state advances from identical signals, so the
        // round structure cannot depend on the substrate.
        let schedule = if adaptive == 1 {
            TSchedule::AdaptivePlateau {
                t0,
                t_max: t0 * growth,
                patience,
                rel_improve: 0.25,
            }
        } else {
            TSchedule::Fixed { t: t0 }
        };
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let cfg = lattice_cfg(seed);
        let algo = local_sgd(1, schedule);
        let factory = move || models::tiny_cnn(2, &mut SeedRng::new(7));
        let sim = Executor::new(Backend::Simulated).run(&factory, &train_set, &test_set, &algo, &cfg);
        let thr = Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, &algo, &cfg);
        // (vendored prop_assert_eq! takes no message: the values identify
        // the failing schedule via proptest's input shrinking.)
        prop_assert_eq!(sim.sync_rounds, thr.sync_rounds);
    }

    #[test]
    fn adaptive_t_never_syncs_more_than_fixed_t0(
        t0 in 1usize..4,
        patience in 1u32..4,
        rel_improve in 0.0f32..0.9,
        seed in 0u64..100,
    ) {
        // T only ever grows under the plateau schedule, so over the same
        // number of local steps the adaptive run can never aggregate more
        // often than Fixed { t: t0 } — the fixed schedule is an upper
        // bound on communication.
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let cfg = lattice_cfg(seed);
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(7));
        let fixed = train(
            &mut f1,
            &train_set,
            &test_set,
            &local_sgd(2, TSchedule::Fixed { t: t0 }),
            &cfg,
        );
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(7));
        let adaptive = train(
            &mut f2,
            &train_set,
            &test_set,
            &local_sgd(
                2,
                TSchedule::AdaptivePlateau {
                    t0,
                    t_max: t0 * 8,
                    patience,
                    rel_improve,
                },
            ),
            &cfg,
        );
        prop_assert!(
            adaptive.sync_rounds <= fixed.sync_rounds,
            "adaptive {} rounds exceeds fixed-T lower bound {}",
            adaptive.sync_rounds,
            fixed.sync_rounds
        );
    }
}
