//! Cross-crate equivalence tests: the simulated trainer, the threaded
//! backend and the sequential baseline must agree where the algorithms
//! coincide mathematically.

use sasgd::comm::SocketTransport;
use sasgd::core::algorithms::GammaP;
use sasgd::core::{
    run_rank, train, Algorithm, Backend, Compression, Executor, History, KSchedule, TSchedule,
    TrainConfig,
};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::data::Dataset;
use sasgd::nn::{models, Model};
use sasgd::simnet::JitterModel;
use sasgd::tensor::SeedRng;
use std::net::TcpListener;
use std::time::Duration;

fn quiet_cfg(epochs: usize, gamma: f32, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::new(epochs, 8, gamma, seed);
    cfg.jitter = JitterModel::none();
    cfg
}

#[test]
fn threaded_equals_simulated_sasgd_bitwise() {
    // Same seeds, same batch orders, same binomial-tree reduction order:
    // the two backends must produce identical accuracy trajectories.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
    for (p, t) in [(1usize, 1usize), (2, 1), (4, 2), (3, 5)] {
        let cfg = quiet_cfg(3, 0.05, 21);
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let algo = Algorithm::sasgd(p, t, GammaP::OverP);
        let h_thread =
            Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, &algo, &cfg);
        let mut f = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let h_sim = train(&mut f, &train_set, &test_set, &algo, &cfg);
        assert_eq!(h_thread.records.len(), h_sim.records.len());
        assert_eq!(
            h_thread.sync_rounds, h_sim.sync_rounds,
            "p={p} T={t}: lockstep round count"
        );
        for (a, b) in h_thread.records.iter().zip(&h_sim.records) {
            assert_eq!(
                a.train_loss, b.train_loss,
                "p={p} T={t}: train loss diverged"
            );
            assert_eq!(
                a.test_acc, b.test_acc,
                "p={p} T={t}: test accuracy diverged"
            );
            assert_eq!(
                a.train_acc, b.train_acc,
                "p={p} T={t}: train accuracy diverged"
            );
        }
        // Parameter-for-parameter, not just trajectory-for-trajectory:
        // the final flat parameter vectors must be bitwise equal. The
        // simulator's kernels fan out over the whole thread cap while each
        // of the `p` rank threads gets `cap / p` workers, so this also pins
        // the banded kernels' determinism contract across widths.
        let pt = h_thread.final_params.expect("threaded final params");
        let ps = h_sim.final_params.expect("simulated final params");
        assert_eq!(pt.len(), ps.len());
        let diverged = pt.iter().zip(&ps).filter(|(a, b)| a != b).count();
        assert_eq!(
            diverged,
            0,
            "p={p} T={t}: {diverged}/{} final parameters diverged",
            pt.len()
        );
    }
}

/// Run `algo` on both engine backends and assert bitwise-equal final
/// parameters — and, for a single learner against a parameter server, on
/// the same rank loop over loopback TCP as well.
fn assert_backends_agree(algo: &Algorithm, cfg: &TrainConfig, model_seed: u64) {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let factory = move || models::tiny_cnn(3, &mut SeedRng::new(model_seed));
    let sim = Executor::new(Backend::Simulated).run(&factory, &train_set, &test_set, algo, cfg);
    let thr = Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, algo, cfg);
    assert_bitwise(&sim.label, &sim, &thr);
    if matches!(algo, Algorithm::Downpour { .. } | Algorithm::Eamsgd { .. }) {
        let tcp = learner_and_shard_over_sockets(&factory, &train_set, &test_set, algo, cfg);
        assert_bitwise(&format!("{} over TCP", sim.label), &sim, &tcp);
        assert_bitwise(&format!("{} TCP vs in-process", sim.label), &thr, &tcp);
        assert_eq!(sim.sync_rounds, tcp.sync_rounds, "{}: rounds", sim.label);
    }
}

/// `algo` over a loopback TCP mesh of `size` ranks, `run_rank` on each;
/// every rank's history, in rank order.
fn ranks_over_sockets(
    size: usize,
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> Vec<History> {
    let listeners: Vec<TcpListener> = (0..size)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    // lint:allow(raw-spawn): test host of rank threads over the socket transport
    std::thread::scope(|scope| {
        let mut ranks = Vec::new();
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = &addrs;
            ranks.push(scope.spawn(move || {
                let rendezvous = Duration::from_secs(30);
                let comm = SocketTransport::with_listener(rank, listener, addrs, rendezvous)
                    .expect("rendezvous");
                run_rank(comm, factory, train_set, test_set, algo, cfg).expect("rank runs")
            }));
        }
        ranks
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    })
}

/// `algo`'s one learner and one parameter-server shard as the two ranks of
/// a loopback TCP mesh, `run_rank` on both; the learner's history.
fn learner_and_shard_over_sockets(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> History {
    assert_eq!(algo.learners(), 1);
    let mut ranks = ranks_over_sockets(2, factory, train_set, test_set, algo, cfg).into_iter();
    let learner = ranks.next().expect("rank 0");
    let shard = ranks.next().expect("rank 1");
    assert!(shard.records.is_empty(), "a shard keeps no epoch records");
    learner
}

#[test]
fn threaded_equals_simulated_downpour_p1_bitwise() {
    // With a single learner the asynchronous schedule collapses: pushes and
    // pulls alternate deterministically, the γ schedule sees the same
    // sample counts, and the batch stream reshuffles from the same RNG —
    // so the real parameter server must reproduce the simulated one bit
    // for bit. (Beyond p = 1 the OS scheduler decides the interleaving;
    // that divergence is the phenomenon the backend exists to exhibit.)
    assert_backends_agree(
        &Algorithm::Downpour {
            p: 1,
            t: 2,
            staleness_gamma: false,
        },
        &quiet_cfg(3, 0.04, 17),
        5,
    );
}

#[test]
fn threaded_equals_simulated_eamsgd_p1_bitwise() {
    // Same collapse for elastic averaging: one learner's momentum block
    // and elastic exchange against a real center server must match the
    // simulated strategy exactly.
    assert_backends_agree(
        &Algorithm::Eamsgd {
            p: 1,
            t: 2,
            moving_rate: Some(0.5),
            momentum: 0.9,
            staleness_gamma: false,
        },
        &quiet_cfg(3, 0.04, 19),
        5,
    );
}

/// SASGD at `γp = γ/p` on the averaging lattice: Local SGD's interval
/// `schedule`, DaSGD's `delayed` landing, any codec.
fn lattice(
    p: usize,
    schedule: TSchedule,
    delayed: bool,
    compression: Option<Compression>,
) -> Algorithm {
    Algorithm::Sasgd {
        p,
        schedule,
        gamma_p: GammaP::OverP,
        compression,
        delayed,
    }
}

/// The plateau schedule the adaptive rows run: doubles `T` within a few
/// rounds of a tiny run.
const ADAPTIVE: TSchedule = TSchedule::AdaptivePlateau {
    t0: 1,
    t_max: 8,
    patience: 1,
    rel_improve: 0.2,
};

#[test]
fn threaded_equals_simulated_local_sgd_bitwise() {
    // Local SGD is SASGD at `γp = γ/p`: a rank-independent γ per step and
    // a binomial-tree reduction, so real threads must reproduce the
    // simulated run bit for bit at ANY p, not just p=1.
    for p in [1usize, 4] {
        assert_backends_agree(
            &lattice(p, TSchedule::Fixed { t: 2 }, false, None),
            &quiet_cfg(3, 0.05, 23),
            5,
        );
    }
}

#[test]
fn threaded_equals_simulated_adaptive_local_sgd_bitwise() {
    // The adaptive policy is driven by the displacement of `x`, which both
    // backends fold from identical floats — so the interval doublings land
    // on the same rounds and the trajectories stay bitwise equal.
    assert_backends_agree(
        &lattice(4, ADAPTIVE, false, None),
        &quiet_cfg(3, 0.05, 29),
        5,
    );
}

#[test]
fn threaded_equals_simulated_delayed_avg_bitwise() {
    // The delay changes when a total lands, not the float sequence, so the
    // cross-backend contract again holds at any p.
    for p in [1usize, 4] {
        assert_backends_agree(
            &lattice(p, TSchedule::Fixed { t: 2 }, true, None),
            &quiet_cfg(3, 0.05, 31),
            5,
        );
    }
}

#[test]
fn event_driven_p1_collapses_to_simulated_bitwise() {
    // At p=1 there is no scheduling freedom left: every strategy's
    // threaded run must reproduce the simulated one bit for bit. (Downpour
    // and EAMSGD p=1 are pinned by the dedicated tests above; these are
    // the collective strategies.)
    let cfg = quiet_cfg(2, 0.05, 37);
    for algo in [
        Algorithm::Sequential,
        Algorithm::sasgd(1, 2, GammaP::OverP),
        Algorithm::HierarchicalSasgd {
            groups: 1,
            per_group: 1,
            t_local: 2,
            t_global: 2,
            gamma_p: GammaP::OverP,
        },
        Algorithm::model_average_once(1),
        lattice(1, ADAPTIVE, false, None),
        lattice(1, TSchedule::Fixed { t: 2 }, true, None),
    ] {
        assert_backends_agree(&algo, &cfg, 5);
    }
}

#[test]
fn sync_sgd_is_sasgd_with_t1() {
    // T=1 SASGD is classic synchronous SGD; doubling T=1's γp via the
    // Fixed policy must equal OverP at 2γ — a consistency check of the
    // γp plumbing.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let cfg = quiet_cfg(2, 0.05, 9);
    let p = 4;
    let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(7));
    let a = train(
        &mut f1,
        &train_set,
        &test_set,
        &Algorithm::sasgd(p, 1, GammaP::Fixed(0.05 / p as f32)),
        &cfg,
    );
    let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(7));
    let b = train(
        &mut f2,
        &train_set,
        &test_set,
        &Algorithm::sasgd(p, 1, GammaP::OverP),
        &cfg,
    );
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.train_loss, y.train_loss);
    }
}

#[test]
fn downpour_p1_t1_is_sequential_sgd_bitwise() {
    // One asynchronous learner has no one to be stale against. The local
    // step does NOT compound with the server step: the server applies γ·g
    // to the same pre-step parameters and the pull overwrites the local
    // replica with that result, so each round moves the model by exactly
    // one γ·g — sequential SGD at the *same* γ. With p=1 the learner's
    // shard is the whole set, both walk it ragged tail included and draw
    // the same batch orders, so the runs agree bit for bit.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 48, 3));
    let cfg = quiet_cfg(4, 0.02, 13);
    let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(3));
    let dp = train(
        &mut f1,
        &train_set,
        &test_set,
        &Algorithm::Downpour {
            p: 1,
            t: 1,
            staleness_gamma: false,
        },
        &cfg,
    );
    let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(3));
    let seq = train(&mut f2, &train_set, &test_set, &Algorithm::Sequential, &cfg);
    assert_bitwise("Downpour(p=1,T=1) vs SGD", &seq, &dp);
    let losses =
        |h: &History| -> Vec<u32> { h.records.iter().map(|r| r.train_loss.to_bits()).collect() };
    assert_eq!(losses(&dp), losses(&seq), "per-record train loss");
}

#[test]
fn gamma_p_policies_change_trajectories() {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let cfg = quiet_cfg(2, 0.05, 1);
    let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(1));
    let over_p = train(
        &mut f1,
        &train_set,
        &test_set,
        &Algorithm::sasgd(4, 2, GammaP::OverP),
        &cfg,
    );
    let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(1));
    let same = train(
        &mut f2,
        &train_set,
        &test_set,
        &Algorithm::sasgd(4, 2, GammaP::SameAsGamma),
        &cfg,
    );
    assert_ne!(
        over_p.records[0].train_loss, same.records[0].train_loss,
        "γp = γ vs γ/p must differ with 4 learners"
    );
}

// ---- The algorithm × p matrix -------------------------------------------
// Every way to run an algorithm on threads goes through `Executor`; this
// table is the one statement of what each cell promises.

fn sasgd_with(p: usize, compression: Option<Compression>) -> Algorithm {
    lattice(p, TSchedule::Fixed { t: 2 }, false, compression)
}

const T1: TSchedule = TSchedule::Fixed { t: 1 };

fn sparse(k: KSchedule, q8: bool, union_bound: bool) -> Option<Compression> {
    Some(Compression::Sparse { k, q8, union_bound })
}

fn hierarchical(groups: usize, per_group: usize, t_local: usize) -> Algorithm {
    Algorithm::HierarchicalSasgd {
        groups,
        per_group,
        t_local,
        t_global: 2,
        gamma_p: GammaP::OverP,
    }
}

/// One algorithm family, instantiated per `p`, and whether its
/// `final_params` and round count stay the simulated backend's beyond
/// `p = 1` (else the trajectory is schedule-dependent and only the
/// bookkeeping is compared).
type Family = (fn(usize) -> Algorithm, bool);

const FAMILIES: [Family; 19] = [
    (|_| Algorithm::Sequential, true),
    (|p| sasgd_with(p, None), true),
    (|p| sasgd_with(p, Some(Compression::topk(0.25))), true),
    (|p| sasgd_with(p, Some(Compression::Uniform8Bit)), true),
    (
        |p| sasgd_with(p, sparse(KSchedule::norm_adaptive(0.1), false, false)),
        true,
    ),
    (
        |p| sasgd_with(p, sparse(KSchedule::layer_wise(0.1), false, false)),
        true,
    ),
    (
        |p| sasgd_with(p, sparse(KSchedule::fixed(0.1), true, true)),
        true,
    ),
    // One group: level 2 is the identity on both backends.
    // T = 1: every step is a round, taken on the gradient arena.
    (|p| lattice(p, T1, false, None), true),
    (
        |p| lattice(p, T1, false, Some(Compression::Uniform8Bit)),
        true,
    ),
    (
        |p| {
            lattice(
                p,
                T1,
                false,
                sparse(KSchedule::layer_wise(0.1), false, false),
            )
        },
        true,
    ),
    (|p| hierarchical(1, p, 2), true),
    // Several groups: both backends run the one exchange, level 2's
    // tree-reduce + scale included.
    (|p| hierarchical(p, 2, 1), true),
    (|p| Algorithm::model_average_once(p), true),
    // The averaging lattice: Local SGD's adaptive interval, DaSGD's
    // delayed landing, each also over a codec.
    (|p| lattice(p, ADAPTIVE, false, None), true),
    (|p| lattice(p, TSchedule::Fixed { t: 2 }, true, None), true),
    (
        |p| {
            let k = KSchedule::layer_wise(0.01);
            lattice(p, TSchedule::Fixed { t: 2 }, true, sparse(k, false, false))
        },
        true,
    ),
    (
        |p| lattice(p, ADAPTIVE, false, Some(Compression::Uniform8Bit)),
        true,
    ),
    (
        |p| Algorithm::Downpour {
            p,
            t: 2,
            staleness_gamma: false,
        },
        false,
    ),
    (
        |p| Algorithm::Eamsgd {
            p,
            t: 2,
            moving_rate: Some(0.5),
            momentum: 0.9,
            staleness_gamma: false,
        },
        false,
    ),
];

fn assert_bitwise(cell: &str, sim: &History, thr: &History) {
    let ps = sim.final_params.as_ref().expect("simulated final params");
    let pt = thr.final_params.as_ref().expect("threaded final params");
    assert_eq!(ps.len(), pt.len(), "{cell}");
    let diverged = ps
        .iter()
        .zip(pt)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(diverged, 0, "{cell}: {diverged}/{} diverged", ps.len());
    // Compressed runs log the same per-round sparsity telemetry.
    let series = |h: &History| -> Vec<(u64, usize, usize, u32)> {
        let bits =
            |s: &sasgd::core::SparsitySample| (s.round, s.rank, s.k_eff, s.residual_norm.to_bits());
        h.sparsity_series.iter().map(bits).collect()
    };
    assert_eq!(series(sim), series(thr), "{cell}: sparsity series");
    // Every rank's staleness at every round, the rate it applied included.
    let staleness = |h: &History| -> Vec<(u64, usize, u64, u32)> {
        let bits =
            |s: &sasgd::core::StalenessSample| (s.round, s.rank, s.tau, s.gamma_eff.to_bits());
        h.staleness_series.iter().map(bits).collect()
    };
    assert_eq!(staleness(sim), staleness(thr), "{cell}: staleness series");
}

#[test]
fn every_algorithm_cadence_and_p_keeps_its_promise() {
    // 100 samples at batch 8: every shard has a ragged tail, which the
    // collective rounds drop and the independent learners keep.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(100, 24, 3));
    let factory = || models::tiny_cnn(3, &mut SeedRng::new(5));
    let cfg = quiet_cfg(2, 0.05, 37);
    for (make, bitwise_beyond_p1) in FAMILIES {
        for p in [1usize, 2, 4] {
            let algo = make(p);
            let cell = algo.label();
            let thr = Executor::new(Backend::Threaded)
                .try_run(&factory, &train_set, &test_set, &algo, &cfg)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            let sim =
                Executor::new(Backend::Simulated).run(&factory, &train_set, &test_set, &algo, &cfg);
            assert_eq!(thr.p, algo.learners(), "{cell}");
            assert!(!thr.records.is_empty(), "{cell}: rank 0 recorded");
            let wire = thr.wire.unwrap_or_else(|| panic!("{cell}: wire accounted"));
            let server = matches!(algo, Algorithm::Downpour { .. } | Algorithm::Eamsgd { .. });
            assert_eq!(
                wire.elements > 0,
                server || algo.learners() > 1,
                "{cell}: traffic iff there is a server or a peer"
            );
            if !server {
                // One exchange on both backends: one wire, one count.
                let sim_wire = sim.wire.unwrap_or_else(|| panic!("{cell}: simulated wire"));
                assert_eq!(
                    (sim_wire.elements, sim_wire.messages),
                    (wire.elements, wire.messages),
                    "{cell}: wire"
                );
            }
            if p == 1 || bitwise_beyond_p1 {
                assert_bitwise(&cell, &sim, &thr);
                // Deterministic round structure, whatever the floats.
                assert_eq!(sim.sync_rounds, thr.sync_rounds, "{cell}: rounds");
            }
            let sparse = matches!(
                algo,
                Algorithm::Sasgd {
                    compression: Some(Compression::Sparse { .. }),
                    ..
                }
            );
            if sparse && p > 1 {
                assert!(
                    thr.sparse_levels.levels.iter().any(|l| l.messages > 0),
                    "{cell}: per-level wire stats recorded"
                );
            }
        }
    }
}

#[test]
fn hierarchical_single_group_equals_flat_and_wire_is_accounted() {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 2));
    let cfg = quiet_cfg(3, 0.05, 11);
    let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
    let run = |algo: &Algorithm| {
        Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, algo, &cfg)
    };
    // With one group the leader exchange is a no-op, so the run equals
    // flat SASGD at T = t_local.
    let hier = hierarchical(1, 3, 2);
    let flat = Algorithm::sasgd(3, 2, GammaP::OverP);
    assert_eq!(run(&hier).final_params, run(&flat).final_params);
    // Three worlds carry the traffic (global, leaders, per-group); all of
    // it is counted, identically on a paired run.
    let grouped = hierarchical(2, 2, 2);
    let (a, b) = (run(&grouped), run(&grouped));
    let (wa, wb) = (a.wire.expect("wire"), b.wire.expect("wire"));
    assert!(wa.elements > 0 && wa.messages > 0);
    assert_eq!(
        (wa.elements, wa.messages),
        (wb.elements, wb.messages),
        "paired runs move the same traffic"
    );
    assert_eq!(a.final_params, b.final_params);
}

/// FNV-1a over the little-endian bit patterns of a parameter vector.
fn fnv1a(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in params {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn threaded_hierarchical_groups_are_pinned() {
    // Several groups on threads: group rounds every step, the leader
    // average every second one. Each row pins the FNV-1a of
    // `final_params` and the measured `(elements, messages)`. At 2x2 the
    // messages are the x0 broadcast (3), 12 group rounds (4 each) and 6
    // leader rounds (4 each).
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(192, 24, 2));
    let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
    type Pin = (usize, usize, u64, (u64, u64));
    let pins: [Pin; 2] = [
        (2, 2, 0xfb4c_7be7_7b8a_8185, (114_150, 75)),
        (2, 4, 0x00bf_2304_db36_4c8b, (156_766, 103)),
    ];
    let cfg = quiet_cfg(2, 0.05, 11);
    for (groups, per_group, hash, wire) in pins {
        let algo = hierarchical(groups, per_group, 1);
        let h = Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, &algo, &cfg);
        let params = h.final_params.expect("final params");
        let w = h.wire.expect("wire");
        assert_eq!(
            (fnv1a(&params), (w.elements, w.messages)),
            (hash, wire),
            "{groups}x{per_group}"
        );
    }
}

#[test]
fn hierarchical_sasgd_over_sockets_is_the_threaded_run() {
    // A rank's group and the group leaders are memberships of one flat
    // world, so `run_rank` hosts hierarchical SASGD over any transport:
    // 2x2 over loopback TCP ends bitwise where the in-process run does.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(192, 24, 2));
    let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
    let cfg = quiet_cfg(2, 0.05, 11);
    let algo = hierarchical(2, 2, 1);
    let thr = Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, &algo, &cfg);
    let tcp = ranks_over_sockets(4, &factory, &train_set, &test_set, &algo, &cfg);
    assert_bitwise(&format!("{} over TCP", thr.label), &thr, &tcp[0]);
    assert_eq!(thr.sync_rounds, tcp[0].sync_rounds, "rounds");
}

#[test]
fn compressed_wire_volumes_match_their_models() {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 2));
    let cfg = quiet_cfg(1, 0.05, 42);
    let factory = || models::tiny_cnn(2, &mut SeedRng::new(7));
    let p = 2usize;
    let m = factory().param_vector().len() as u64;
    // 96 samples over 2 shards, batch 8 → 6 steps/epoch; T=2 over one
    // epoch → 3 sync rounds.
    let syncs = 3u64;
    let bcast = (p as u64 - 1) * m; // initial parameter broadcast
    let wire_on = |backend, compression| {
        let algo = sasgd_with(p, compression);
        let h = Executor::new(backend).run(&factory, &train_set, &test_set, &algo, &cfg);
        assert_eq!(h.sync_rounds, syncs);
        h.wire.expect("wire").elements
    };
    let wire_of = |compression| wire_on(Backend::Threaded, compression);
    // Dense traffic is exactly modeled: reduce + broadcast move 2(p−1)·m
    // elements per round.
    let dense = wire_of(None);
    assert_eq!(dense, bcast + syncs * 2 * (p as u64 - 1) * m);

    let in_bracket = |comp: Compression, elements: u64| {
        let (lo, hi) = comp.round_wire_bounds(m as usize, p);
        assert!(
            (bcast + syncs * lo..=bcast + syncs * hi).contains(&elements),
            "{comp:?} wire {elements} outside [{}, {}]",
            bcast + syncs * lo,
            bcast + syncs * hi
        );
    };
    let topk = Compression::topk(0.1);
    let s = wire_of(Some(topk));
    assert!(s < dense / 2, "top-10% wire {s} vs dense {dense}");
    in_bracket(topk, s);
    // A fixed-k run's modeled wire comes from the level profile, like every
    // sparse scheme's: not an estimate, the measured count.
    assert_eq!(wire_on(Backend::Simulated, Some(topk)), s);

    // Uniform8Bit traffic is exactly modeled (packed leaf frames, dense
    // f32 internal partials and broadcast).
    let q8 = Compression::Uniform8Bit;
    let (qlo, qhi) = q8.round_wire_bounds(m as usize, p);
    assert_eq!(qlo, qhi, "Uniform8Bit bracket is tight");
    assert_eq!(wire_of(Some(q8)), bcast + syncs * qlo);

    // The composed sparse scheme stays inside its bracket too, and under
    // the plain sparse wire.
    let comp = Compression::Sparse {
        k: KSchedule::fixed(0.1),
        q8: true,
        union_bound: true,
    };
    let c = wire_of(Some(comp));
    in_bracket(comp, c);
    assert!(c < s, "q8 leaves beat f32 sparse frames");
}

#[test]
fn threaded_runs_still_learn() {
    // Real threads against a real server (or grouped worlds): genuinely
    // asynchronous beyond p = 1, so the check is accuracy, not bits.
    let cases: [(Algorithm, usize, f32, f32); 4] = [
        (Algorithm::sasgd(4, 2, GammaP::OverP), 120, 0.05, 0.5),
        (
            Algorithm::Downpour {
                p: 2,
                t: 2,
                staleness_gamma: false,
            },
            120,
            0.04,
            0.45,
        ),
        (
            Algorithm::Eamsgd {
                p: 2,
                t: 2,
                moving_rate: None,
                momentum: 0.9,
                staleness_gamma: false,
            },
            100,
            0.02,
            0.45,
        ),
        (hierarchical(2, 2, 2), 160, 0.05, 0.5),
    ];
    for (algo, n, gamma, floor) in cases {
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(n, 40, 3));
        let cfg = quiet_cfg(6, gamma, 42);
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, &algo, &cfg);
        assert!(
            h.final_test_acc() > floor,
            "{}: acc {:.2}",
            h.label,
            h.final_test_acc()
        );
    }
}
