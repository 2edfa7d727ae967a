//! Failure-injection and robustness tests: extreme jitter, degenerate
//! datasets, hammered parameter servers.

use sasgd::comm::ps_transport::{run_world, PsLayout};
use sasgd::comm::world::CommWorld;
use sasgd::core::algorithms::GammaP;
use sasgd::core::{
    train, Algorithm, Backend, Compression, Executor, FaultConfig, FaultPlan, History, KSchedule,
    TSchedule, TrainConfig,
};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::data::Dataset;
use sasgd::nn::{models, Model};
use sasgd::simnet::JitterModel;
use sasgd::tensor::SeedRng;
use std::time::Duration;

#[test]
fn extreme_jitter_changes_time_not_math() {
    // Jitter drives clocks (and async interleaving) but must never change
    // the gradients of the synchronous algorithms: SASGD's trajectory is
    // identical under any jitter level.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let algo = Algorithm::sasgd(4, 2, GammaP::OverP);
    let mut histories = Vec::new();
    for cv in [0.0f64, 1.5] {
        let mut cfg = TrainConfig::new(3, 8, 0.05, 7);
        cfg.jitter = JitterModel {
            cv,
            learner_spread: cv / 2.0,
        };
        let mut f = || models::tiny_cnn(3, &mut SeedRng::new(2));
        histories.push(train(&mut f, &train_set, &test_set, &algo, &cfg));
    }
    let (calm, wild) = (&histories[0], &histories[1]);
    for (a, b) in calm.records.iter().zip(&wild.records) {
        assert_eq!(
            a.train_loss, b.train_loss,
            "jitter must not perturb SASGD math"
        );
    }
    // But the straggler wait must show up as extra communication time.
    let calm_comm = calm.records.last().expect("records").comm_seconds;
    let wild_comm = wild.records.last().expect("records").comm_seconds;
    assert!(
        wild_comm > calm_comm,
        "wild jitter should cost barrier time"
    );
}

#[test]
fn slow_straggler_learner_still_converges_async() {
    // One learner 10× slower than the rest: Downpour keeps running (its
    // pushes just get staler) and still learns at p=2 with a gentle rate.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 48, 3));
    let mut cfg = TrainConfig::new(8, 8, 0.02, 3);
    cfg.jitter = JitterModel {
        cv: 0.05,
        learner_spread: 2.0,
    };
    let mut f = || models::tiny_cnn(3, &mut SeedRng::new(4));
    let h = train(
        &mut f,
        &train_set,
        &test_set,
        &Algorithm::Downpour {
            p: 2,
            t: 1,
            staleness_gamma: false,
        },
        &cfg,
    );
    assert!(h.final_test_acc() > 0.45, "acc {:.2}", h.final_test_acc());
}

#[test]
fn single_class_dataset_trains_to_perfection() {
    let n = 32;
    let x = vec![0.5f32; n * 3 * 8 * 8];
    let labels = vec![0usize; n];
    let train_set = Dataset::new(x.clone(), labels.clone(), &[3, 8, 8], 2);
    let test_set = Dataset::new(x, labels, &[3, 8, 8], 2);
    let cfg = TrainConfig::new(3, 8, 0.05, 1);
    let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
    let h = train(
        &mut f,
        &train_set,
        &test_set,
        &Algorithm::sasgd(2, 1, GammaP::OverP),
        &cfg,
    );
    assert_eq!(h.final_test_acc(), 1.0);
}

#[test]
fn ps_survives_hammering_and_preserves_sums() {
    // 16 clients × 50 pushes of +1 on every coordinate: additions commute,
    // so the final state is exact regardless of interleaving or sharding.
    for shards in [1usize, 3, 8] {
        let m = 257; // deliberately not divisible by the shard counts
        let layout = PsLayout {
            p: 16,
            shards,
            dim: m,
        };
        let world = CommWorld::new(16 + shards).communicators();
        let (_, end) = run_world(world, layout, &vec![0.0f32; m], |mut c| {
            for _ in 0..50 {
                c.add(&vec![1.0; m]).expect("add");
            }
        });
        assert!(end.iter().all(|&v| v == 800.0), "shards={shards}");
    }
}

#[test]
fn minibatch_larger_than_shard_still_runs() {
    // p=2 over 20 samples with batch 16: shards of 10 get truncated to a
    // single smaller batch per epoch; training must proceed.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(20, 8, 2));
    let cfg = TrainConfig::new(2, 8, 0.05, 1);
    let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
    let h = train(
        &mut f,
        &train_set,
        &test_set,
        &Algorithm::sasgd(2, 1, GammaP::OverP),
        &cfg,
    );
    assert_eq!(h.records.len(), 2);
}

/// SASGD(`p`, `t`, γ/p) on the threaded backend under the
/// fault-tolerance layer.
fn run_sasgd_ft(
    f: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    faults: &FaultConfig,
) -> History {
    Executor::new(Backend::Threaded)
        .try_run_ft(
            f,
            train_set,
            test_set,
            &Algorithm::sasgd(p, t, GammaP::OverP),
            cfg,
            faults,
        )
        .expect("the run degrades onto its survivors")
}

/// Failure-detection deadline for the FT tests. Short enough that the
/// dead-rank detection rounds (which wait out leveled
/// `deadline × (level+1)` windows) stay cheap in test time, but with
/// enough headroom that a *healthy* learner descheduled on an
/// oversubscribed CI box (8 learner threads on one core) is never
/// falsely evicted —
/// eviction must be decided by the scripted plan, not by load.
const FT_DEADLINE: Duration = Duration::from_millis(800);

#[test]
fn ft_runner_with_empty_plan_matches_plain_threaded_bitwise() {
    // The fault-tolerance layer must be free when nothing fails: the FT
    // runner under `FaultPlan::none()` is the plain threaded runner,
    // parameter for parameter.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
    let cfg = TrainConfig::new(3, 8, 0.05, 11);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(5));
    let plain = Executor::new(Backend::Threaded).run(
        &f,
        &train_set,
        &test_set,
        &Algorithm::sasgd(4, 2, GammaP::OverP),
        &cfg,
    );
    let ft = run_sasgd_ft(
        &f,
        &train_set,
        &test_set,
        &cfg,
        4,
        2,
        &FaultConfig::default(),
    );
    assert_eq!(
        plain.final_params, ft.final_params,
        "fault-free FT != plain"
    );
    assert!(ft.membership.is_empty(), "no loss, no membership events");
    for (a, b) in plain.records.iter().zip(&ft.records) {
        assert_eq!(a.train_loss, b.train_loss);
        assert_eq!(a.test_acc, b.test_acc);
    }
}

#[test]
fn t1_ft_runner_with_empty_plan_matches_plain_threaded_bitwise() {
    // The armed tree at T = 1, where the dense round lands on the tree's
    // root and the stepped parameters come down: with nothing failing it
    // is the unarmed run, parameter for parameter and record for record.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
    let cfg = TrainConfig::new(2, 8, 0.05, 11);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(5));
    for p in [2, 4] {
        let algo = Algorithm::sasgd(p, 1, GammaP::OverP);
        let plain = Executor::new(Backend::Threaded).run(&f, &train_set, &test_set, &algo, &cfg);
        let ft = run_sasgd_ft(
            &f,
            &train_set,
            &test_set,
            &cfg,
            p,
            1,
            &FaultConfig::default(),
        );
        assert!(plain.final_params.is_some(), "p = {p}");
        assert_eq!(
            plain.final_params, ft.final_params,
            "p = {p}: armed != plain"
        );
        assert!(
            ft.membership.is_empty(),
            "p = {p}: no loss, no membership event"
        );
        assert_eq!(plain.records.len(), ft.records.len(), "p = {p}");
        for (a, b) in plain.records.iter().zip(&ft.records) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "p = {p}");
        }
    }
}

#[test]
fn crash_one_of_eight_mid_epoch_completes_on_survivors() {
    // A learner dies between two sync rounds of the first epoch: the
    // remaining seven must detect it, rebuild the tree, rescale γp, and
    // finish the run — completion of this test IS the no-deadlock check
    // (CI additionally wraps the test job in a hard wall-clock timeout).
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(256, 64, 3));
    let cfg = TrainConfig::new(3, 8, 0.05, 13);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(9));
    let plan = FaultPlan::seeded(0xFA17, 8, 1, 3);
    let crashed = plan.events[0].rank;
    let h = run_sasgd_ft(
        &f,
        &train_set,
        &test_set,
        &cfg,
        8,
        2,
        &FaultConfig {
            plan,
            deadline: FT_DEADLINE,
        },
    );
    assert_eq!(h.records.len(), 3, "all epochs ran on the survivors");
    assert_eq!(h.membership.len(), 1, "exactly one membership change");
    let ev = &h.membership[0];
    assert_eq!(ev.lost, vec![crashed]);
    assert_eq!(ev.survivors, 7);
    assert_eq!(ev.epoch, 1);
    assert!(ev.recovery_seconds > 0.0, "detection took wall-clock time");
    // γp follows the GammaP::OverP policy over the survivor count.
    assert!((ev.gamma_p - 0.05 / 7.0).abs() < 1e-7, "γp {}", ev.gamma_p);
}

#[test]
fn evicted_straggler_retires_with_typed_event() {
    // A rank stalled past the detection deadline is evicted by the
    // survivors; when it wakes, its collective returns `Evicted` and it
    // must *retire* — recording its own exit in `History::retirements` —
    // never panic. Rank 0's membership event and the straggler's
    // retirement are two views of the same loss.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 2));
    let cfg = TrainConfig::new(2, 8, 0.05, 23);
    let f = || models::tiny_cnn(2, &mut SeedRng::new(5));
    let plan = FaultPlan::none().with_stall(3, 2, 4 * FT_DEADLINE.as_millis() as u64);
    let h = run_sasgd_ft(
        &f,
        &train_set,
        &test_set,
        &cfg,
        4,
        2,
        &FaultConfig {
            plan,
            deadline: FT_DEADLINE,
        },
    );
    assert_eq!(h.membership.len(), 1, "one membership change");
    assert_eq!(h.membership[0].lost, vec![3]);
    assert_eq!(h.retirements.len(), 1, "the evicted rank records its exit");
    assert_eq!(h.retirements[0].rank, 3);
    assert!(h.retirements[0].round >= 1);
    assert!(
        h.retirements[0].reason.contains("evicted"),
        "reason names the cause: {}",
        h.retirements[0].reason
    );
}

#[test]
fn seeded_fault_plans_replay_bitwise() {
    // The same `(seed, p, crashes, max_step)` plan twice: both degraded
    // runs must agree on every parameter and every membership event.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(256, 64, 3));
    let cfg = TrainConfig::new(2, 8, 0.05, 17);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(3));
    let faults = FaultConfig {
        plan: FaultPlan::seeded(0xD1E, 8, 2, 4),
        deadline: FT_DEADLINE,
    };
    let run = || run_sasgd_ft(&f, &train_set, &test_set, &cfg, 8, 2, &faults);
    let (a, b) = (run(), run());
    // Who each run evicted, and when, comes first: a run that evicted a
    // healthy rank too diverges in its parameters, and the message says
    // which ranks each run lost.
    let evictions = |h: &History| {
        let events = h.membership.iter();
        let events = events.map(|e| (e.round, e.epoch, e.lost.clone(), e.survivors));
        let retired = h.retirements.iter().map(|r| (r.rank, r.round));
        (events.collect::<Vec<_>>(), retired.collect::<Vec<_>>())
    };
    let (ea, eb) = (evictions(&a), evictions(&b));
    assert_eq!(
        ea, eb,
        "membership events (round, epoch, lost, survivors) and retirements \
         (rank, round) differ between the runs"
    );
    assert!(a.final_params.is_some());
    assert_eq!(a.final_params, b.final_params, "degraded run not bitwise");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.train_loss, y.train_loss);
    }
}

#[test]
fn degraded_sasgd_still_beats_one_shot_averaging() {
    // Graceful degradation, quantified: SASGD that loses a learner early
    // and finishes on seven must still beat one-shot model averaging over
    // all eight — the paper's baseline for "no communication until the
    // end" (cf. its Downpour/averaging comparisons).
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(256, 64, 2));
    let cfg = TrainConfig::new(6, 8, 0.05, 19);
    let f = || models::tiny_cnn(2, &mut SeedRng::new(7));
    let degraded = run_sasgd_ft(
        &f,
        &train_set,
        &test_set,
        &cfg,
        8,
        2,
        &FaultConfig {
            plan: FaultPlan::seeded(0xFA17, 8, 1, 3),
            deadline: FT_DEADLINE,
        },
    );
    let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(7));
    let averaged = train(
        &mut f2,
        &train_set,
        &test_set,
        &Algorithm::model_average_once(8),
        &cfg,
    );
    assert!(
        degraded.final_test_acc() > averaged.final_test_acc(),
        "degraded SASGD {:.3} should beat one-shot averaging {:.3}",
        degraded.final_test_acc(),
        averaged.final_test_acc()
    );
}

/// SASGD(`p`, `t`, γ/p) compressed with `compression`, on the threaded
/// backend: plain (`faults` is `None`) or under the fault-tolerance layer.
fn run_compressed(
    f: &(dyn Fn() -> Model + Sync),
    (train_set, test_set): (&Dataset, &Dataset),
    cfg: &TrainConfig,
    (p, t): (usize, usize),
    compression: Compression,
    faults: Option<&FaultConfig>,
) -> History {
    let algo = Algorithm::sasgd_compressed(p, t, GammaP::OverP, compression);
    let exec = Executor::new(Backend::Threaded);
    match faults {
        None => exec.run(f, train_set, test_set, &algo, cfg),
        Some(faults) => exec
            .try_run_ft(f, train_set, test_set, &algo, cfg, faults)
            .expect("the compressed run degrades onto its survivors"),
    }
}

/// Layer-wise top-1 % through the sparse tree.
fn layer_wise_top1() -> Compression {
    Compression::Sparse {
        k: KSchedule::layer_wise(0.01),
        q8: false,
        union_bound: false,
    }
}

#[test]
fn compressed_ft_with_empty_plan_matches_plain_threaded_bitwise() {
    // Fault tolerance is the tree's error path for every codec: with
    // nothing failing, the armed sparse and 8-bit trees are the plain ones.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
    let cfg = TrainConfig::new(2, 8, 0.05, 11);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(5));
    for compression in [layer_wise_top1(), Compression::Uniform8Bit] {
        let sets = (&train_set, &test_set);
        let plain = run_compressed(&f, sets, &cfg, (4, 2), compression, None);
        let faults = FaultConfig::default();
        let ft = run_compressed(&f, sets, &cfg, (4, 2), compression, Some(&faults));
        assert_eq!(plain.final_params, ft.final_params, "{}", plain.label);
        assert!(ft.membership.is_empty(), "{}: no loss", plain.label);
        let k_eff =
            |h: &History| -> Vec<usize> { h.sparsity_series.iter().map(|s| s.k_eff).collect() };
        assert_eq!(k_eff(&plain), k_eff(&ft), "{}", plain.label);
    }
}

#[test]
fn compressed_crash_one_of_eight_completes_and_replays_bitwise() {
    // The 1-of-8 crash of `crash_one_of_eight_mid_epoch_completes_on_survivors`,
    // under layer-wise top-1 %: the dead rank's residual leaves with it,
    // the seven survivors finish at γ/7, and the same plan replays bitwise.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(256, 64, 3));
    let cfg = TrainConfig::new(3, 8, 0.05, 13);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(9));
    let plan = FaultPlan::seeded(0xFA17, 8, 1, 3);
    let crashed = plan.events[0].rank;
    let faults = FaultConfig {
        plan,
        deadline: FT_DEADLINE,
    };
    let sets = (&train_set, &test_set);
    let run = || run_compressed(&f, sets, &cfg, (8, 2), layer_wise_top1(), Some(&faults));
    let (h, again) = (run(), run());
    assert_eq!(h.records.len(), 3, "all epochs ran on the survivors");
    assert_eq!(h.membership.len(), 1, "exactly one membership change");
    let ev = &h.membership[0];
    assert_eq!((&ev.lost, ev.survivors, ev.epoch), (&vec![crashed], 7, 1));
    assert!((ev.gamma_p - 0.05 / 7.0).abs() < 1e-7, "γp {}", ev.gamma_p);
    assert!(h.final_params.is_some());
    assert_eq!(
        h.final_params, again.final_params,
        "degraded run not bitwise"
    );
    assert_eq!(
        (again.membership[0].round, &again.membership[0].lost),
        (ev.round, &ev.lost)
    );
}

#[test]
fn t1_crash_one_of_eight_completes_and_replays_bitwise() {
    // The 1-of-8 crash at T = 1, where every step is a round taken on the
    // gradient arena: dense (the walk moves the arena itself) and
    // layer-wise top-1 % (the codec encodes straight from it). The seven
    // survivors finish at γ/7, and the same plan replays bitwise.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(256, 64, 3));
    let cfg = TrainConfig::new(3, 8, 0.05, 13);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(9));
    let plan = FaultPlan::seeded(0xFA17, 8, 1, 3);
    let crashed = plan.events[0].rank;
    let faults = FaultConfig {
        plan,
        deadline: FT_DEADLINE,
    };
    for compression in [None, Some(layer_wise_top1())] {
        let algo = Algorithm::Sasgd {
            p: 8,
            schedule: TSchedule::Fixed { t: 1 },
            gamma_p: GammaP::OverP,
            compression,
            delayed: false,
        };
        let run = || {
            Executor::new(Backend::Threaded)
                .try_run_ft(&f, &train_set, &test_set, &algo, &cfg, &faults)
                .expect("the T = 1 run degrades onto its survivors")
        };
        let (h, again) = (run(), run());
        let label = &h.label;
        assert_eq!(
            h.records.len(),
            3,
            "{label}: all epochs ran on the survivors"
        );
        assert_eq!(h.membership.len(), 1, "{label}: one membership change");
        let ev = &h.membership[0];
        assert_eq!(
            (&ev.lost, ev.survivors, ev.epoch),
            (&vec![crashed], 7, 1),
            "{label}"
        );
        assert!(
            (ev.gamma_p - 0.05 / 7.0).abs() < 1e-7,
            "{label}: γp {}",
            ev.gamma_p
        );
        assert!(h.final_params.is_some());
        assert_eq!(
            h.final_params, again.final_params,
            "{label}: degraded run not bitwise"
        );
    }
}

/// SASGD(`p`, `t`, γ/p) with each round's total landing one round late.
fn delayed_sasgd(p: usize, t: usize) -> Algorithm {
    Algorithm::Sasgd {
        p,
        schedule: TSchedule::Fixed { t },
        gamma_p: GammaP::OverP,
        compression: None,
        delayed: true,
    }
}

#[test]
fn delayed_ft_with_empty_plan_matches_plain_threaded_bitwise() {
    // The delay rides on the armed tree like any codec does: with nothing
    // failing, the armed delayed run is the unarmed one.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
    let cfg = TrainConfig::new(3, 8, 0.05, 11);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(5));
    let algo = delayed_sasgd(4, 2);
    let exec = Executor::new(Backend::Threaded);
    let plain = exec.run(&f, &train_set, &test_set, &algo, &cfg);
    let ft = exec
        .try_run_ft(
            &f,
            &train_set,
            &test_set,
            &algo,
            &cfg,
            &FaultConfig::default(),
        )
        .expect("nothing fails");
    assert!(plain.final_params.is_some());
    assert_eq!(plain.final_params, ft.final_params, "{}", plain.label);
    assert!(ft.membership.is_empty() && ft.retirements.is_empty());
}

#[test]
fn delayed_crash_one_of_eight_completes_and_replays_bitwise() {
    // The 1-of-8 crash under the one-round delay: the seven survivors land
    // the pending total and finish at γ/7, and the same plan replays
    // bitwise.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(256, 64, 3));
    let cfg = TrainConfig::new(3, 8, 0.05, 13);
    let f = || models::tiny_cnn(3, &mut SeedRng::new(9));
    let plan = FaultPlan::seeded(0xFA17, 8, 1, 3);
    let crashed = plan.events[0].rank;
    let faults = FaultConfig {
        plan,
        deadline: FT_DEADLINE,
    };
    let algo = delayed_sasgd(8, 2);
    let run = || {
        Executor::new(Backend::Threaded)
            .try_run_ft(&f, &train_set, &test_set, &algo, &cfg, &faults)
            .expect("the delayed run degrades onto its survivors")
    };
    let (h, again) = (run(), run());
    assert_eq!(h.records.len(), 3, "all epochs ran on the survivors");
    assert_eq!(h.membership.len(), 1, "exactly one membership change");
    let ev = &h.membership[0];
    assert_eq!((&ev.lost, ev.survivors, ev.epoch), (&vec![crashed], 7, 1));
    assert!((ev.gamma_p - 0.05 / 7.0).abs() < 1e-7, "γp {}", ev.gamma_p);
    assert!(h.final_params.is_some());
    assert_eq!(
        h.final_params, again.final_params,
        "degraded run not bitwise"
    );
}

#[test]
fn zero_learning_rate_is_a_fixed_point() {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(32, 16, 2));
    let cfg = TrainConfig::new(2, 8, 0.0, 1);
    let mut f = || models::tiny_cnn(2, &mut SeedRng::new(6));
    let h = train(
        &mut f,
        &train_set,
        &test_set,
        &Algorithm::sasgd(2, 1, GammaP::Fixed(0.0)),
        &cfg,
    );
    let first = h.records.first().expect("records");
    let last = h.records.last().expect("records");
    assert_eq!(
        first.test_acc, last.test_acc,
        "γ=0 must not move parameters"
    );
}
