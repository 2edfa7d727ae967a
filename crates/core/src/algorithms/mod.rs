//! The distributed SGD algorithms the paper implements and compares.

use crate::compress::Compression;
use crate::schedule::{SyncPolicy, TSchedule};

/// How SASGD's global learning rate `γp` is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GammaP {
    /// `γp = γ` — the setting of the paper's theory (Theorem 2/4,
    /// Corollary 3). Sums `p·T` minibatch gradients at full rate; only
    /// stable for small `γ·p·T`.
    SameAsGamma,
    /// `γp = γ/p` — averages the learners' contributions; equivalent to
    /// per-interval model averaging of the locally updated replicas
    /// (§III: "Alg. 1 simulates model averaging"). The practical default.
    OverP,
    /// An explicit value.
    Fixed(f32),
}

impl GammaP {
    /// Resolve to a concrete rate.
    pub fn resolve(self, gamma: f32, p: usize) -> f32 {
        match self {
            GammaP::SameAsGamma => gamma,
            GammaP::OverP => gamma / p as f32,
            GammaP::Fixed(v) => v,
        }
    }
}

/// A distributed training algorithm plus its parallelism parameters.
#[derive(Clone, Copy, Debug)]
pub enum Algorithm {
    /// Plain sequential SGD — the paper's baseline ("SGD", also the p=1
    /// rows of every figure). A spelling of SASGD at `p = 1`, `T = 1`,
    /// `γp = γ`, whose round is exactly the step `x ← x − γ·g`: it runs as
    /// that lattice point and keeps only its label.
    Sequential,
    /// Sparse-aggregation SGD (Algorithm 1): `p` learners over data
    /// shards, `T` local steps between allreduce aggregations, optionally
    /// compressing each learner's accumulated gradient (with error
    /// feedback) before aggregation.
    ///
    /// With `γp = γ/p` the global step averages the locally updated
    /// replicas (§III: "Alg. 1 simulates model averaging"), so the
    /// averaging lattice is configuration: an adaptive `schedule` is Local
    /// SGD's growing interval (Stich), `delayed` is DaSGD's one-round
    /// delay (Zhou et al.), and `Fixed { t: 0 }` stretches the interval to
    /// the whole run — one-shot averaging
    /// ([`model_average_once`](Algorithm::model_average_once)).
    Sasgd {
        /// Learners.
        p: usize,
        /// Aggregation interval: fixed (T=1 is classic synchronous SGD,
        /// T=0 one round after the run's last step), or grown when the
        /// displacement of `x` plateaus.
        schedule: TSchedule,
        /// Global learning-rate policy.
        gamma_p: GammaP,
        /// Optional gradient compression applied before aggregation.
        compression: Option<Compression>,
        /// Apply each round's total one round late, re-based onto the
        /// local progress made meanwhile, so the allreduce overlaps the
        /// next round's compute.
        delayed: bool,
    },
    /// Two-level SASGD: groups of learners aggregate over a fast local
    /// fabric every `t_local` steps and average across groups every
    /// `t_global` local rounds — locality-aware scaling for nodes running
    /// several learners per device (the paper's p=16 setup).
    HierarchicalSasgd {
        /// Number of groups.
        groups: usize,
        /// Learners per group (`p = groups × per_group`).
        per_group: usize,
        /// Local aggregation interval (minibatches).
        t_local: usize,
        /// Global averaging interval (local rounds).
        t_global: usize,
        /// Global learning-rate policy for the level-1 step.
        gamma_p: GammaP,
    },
    /// Downpour ASGD: asynchronous learners over disjoint data shards
    /// pushing accumulated gradients to a parameter server every `t`
    /// minibatches.
    Downpour {
        /// Learners.
        p: usize,
        /// Minibatches between push/pull rounds.
        t: usize,
        /// Scale each applied update by `γ/(1+τ)` using the measured
        /// per-update staleness τ.
        staleness_gamma: bool,
    },
    /// Elastic-averaging ASGD (EAMSGD): momentum learners linked to a
    /// center variable by an elastic force, synchronizing every `t` steps.
    Eamsgd {
        /// Learners.
        p: usize,
        /// Communication period τ.
        t: usize,
        /// Elastic moving rate α (defaults to `0.9/p` as in the EAMSGD
        /// paper when `None`).
        moving_rate: Option<f32>,
        /// Momentum δ for the local SGD updates.
        momentum: f32,
        /// Scale the elastic moving rate by `1/(1+τ)` using the measured
        /// per-exchange staleness τ.
        staleness_gamma: bool,
    },
}

impl Algorithm {
    /// Uncompressed SASGD (Algorithm 1).
    pub fn sasgd(p: usize, t: usize, gamma_p: GammaP) -> Self {
        Algorithm::Sasgd {
            p,
            schedule: TSchedule::Fixed { t },
            gamma_p,
            compression: None,
            delayed: false,
        }
    }

    /// SASGD with gradient compression (error feedback) applied to each
    /// learner's accumulated gradient before aggregation.
    pub fn sasgd_compressed(p: usize, t: usize, gamma_p: GammaP, compression: Compression) -> Self {
        Algorithm::Sasgd {
            p,
            schedule: TSchedule::Fixed { t },
            gamma_p,
            compression: Some(compression),
            delayed: false,
        }
    }

    /// One-shot model averaging (Zinkevich et al.): `p` learners train
    /// independently and their replicas are averaged once, after the run's
    /// last step — SASGD with the interval stretched to the whole run, at
    /// `γp = γ/p`. The heuristic §III reports as giving "very poor training
    /// and test accuracies".
    pub fn model_average_once(p: usize) -> Self {
        Algorithm::Sasgd {
            p,
            schedule: TSchedule::Fixed { t: 0 },
            gamma_p: GammaP::OverP,
            compression: None,
            delayed: false,
        }
    }

    /// The lattice point the algorithm runs as: [`Algorithm::Sequential`]
    /// resolves to SASGD at `p = 1`, `T = 1`, `γp = γ`; every other
    /// algorithm is its own.
    pub(crate) fn resolved(&self) -> Algorithm {
        match *self {
            Algorithm::Sequential => Algorithm::Sasgd {
                p: 1,
                schedule: TSchedule::Fixed { t: 1 },
                gamma_p: GammaP::SameAsGamma,
                compression: None,
                delayed: false,
            },
            other => other,
        }
    }

    /// Number of learners.
    pub fn learners(&self) -> usize {
        match *self {
            Algorithm::Sequential => 1,
            Algorithm::Sasgd { p, .. }
            | Algorithm::Downpour { p, .. }
            | Algorithm::Eamsgd { p, .. } => p,
            Algorithm::HierarchicalSasgd {
                groups, per_group, ..
            } => groups * per_group,
        }
    }

    /// Aggregation interval (1 where not applicable, 0 for one-shot
    /// averaging's run-long interval).
    pub fn interval(&self) -> usize {
        match *self {
            Algorithm::Sasgd { schedule, .. } => schedule.initial_t(),
            Algorithm::Downpour { t, .. } | Algorithm::Eamsgd { t, .. } => t,
            Algorithm::HierarchicalSasgd {
                t_local, t_global, ..
            } => t_local * t_global,
            _ => 1,
        }
    }

    /// Parameter-server shard ranks the in-process harnesses put after the
    /// learners: Downpour shards its server across as many ranks as it has
    /// learners, EAMSGD's center variable is one shard, and a collective
    /// has no server. Over a caller's own world any `s ≥ 1` serves.
    pub(crate) fn ps_shards(&self) -> usize {
        match *self {
            Algorithm::Downpour { p, .. } => p,
            Algorithm::Eamsgd { .. } => 1,
            _ => 0,
        }
    }

    /// Where the rounds fall: SASGD's schedule, every `t_local` steps for
    /// hierarchical SASGD, every `t` for the server algorithms.
    pub(crate) fn sync_policy(&self) -> SyncPolicy {
        match self.resolved() {
            Algorithm::Sasgd { schedule, .. } => SyncPolicy::new(schedule),
            Algorithm::HierarchicalSasgd { t_local: t, .. }
            | Algorithm::Downpour { t, .. }
            | Algorithm::Eamsgd { t, .. } => SyncPolicy::fixed(t),
            Algorithm::Sequential => unreachable!("sequential SGD resolves to its SASGD point"),
        }
    }

    /// The moving rate α of EAMSGD's elastic exchange: as given, or the
    /// EAMSGD paper's `0.9/p`.
    pub(crate) fn moving_rate(p: usize, moving_rate: Option<f32>) -> f32 {
        moving_rate.unwrap_or(0.9 / p as f32)
    }

    /// # Panics
    /// On a configuration no backend can run: no learner, no interval, a
    /// momentum or moving rate out of range. Checked before any rank
    /// exists, so no peer is left waiting on a panicked one.
    pub(crate) fn check(&self) {
        assert!(self.learners() >= 1, "need at least one learner");
        match *self {
            Algorithm::HierarchicalSasgd {
                t_local, t_global, ..
            } => assert!(t_local >= 1 && t_global >= 1, "intervals must be positive"),
            Algorithm::Downpour { t, .. } => {
                assert!(t >= 1, "parameter-server strategies must sync")
            }
            Algorithm::Eamsgd {
                p,
                t,
                moving_rate,
                momentum,
                ..
            } => {
                assert!(t >= 1, "parameter-server strategies must sync");
                assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
                let alpha = Self::moving_rate(p, moving_rate);
                assert!(alpha > 0.0 && alpha <= 1.0, "moving rate out of range");
            }
            _ => {}
        }
    }

    /// Staleness a collective round imposes by construction, in rounds:
    /// delayed SASGD lands the round-`k` total one round late, every other
    /// collective applies fresh state.
    pub(crate) fn collective_tau(&self) -> u64 {
        matches!(self, Algorithm::Sasgd { delayed: true, .. }).into()
    }

    /// Display label matching the paper's plot legends; every run's
    /// [`History::label`](crate::History) (`-threaded` added on threads).
    pub fn label(&self) -> String {
        match *self {
            Algorithm::Sequential => "SGD".into(),
            Algorithm::Sasgd {
                p,
                schedule,
                compression,
                delayed,
                ..
            } => {
                let codec = match compression {
                    None => String::new(),
                    Some(Compression::Uniform8Bit) => "-8bit".into(),
                    Some(Compression::Sparse { k, q8, union_bound }) => {
                        let mut tag = format!("-{}", k.tag());
                        if q8 {
                            tag.push_str("+q8");
                        }
                        if union_bound {
                            tag.push_str("+ub");
                        }
                        tag
                    }
                };
                sasgd_label(&codec, p, schedule, delayed)
            }
            Algorithm::HierarchicalSasgd {
                groups,
                per_group,
                t_local,
                t_global,
                ..
            } => {
                format!("H-SASGD(g={groups}x{per_group},Tl={t_local},Tg={t_global})")
            }
            Algorithm::Downpour {
                p,
                t,
                staleness_gamma,
            } => {
                if staleness_gamma {
                    format!("Downpour-s\u{3b3}(p={p},T={t})")
                } else {
                    format!("Downpour(p={p},T={t})")
                }
            }
            Algorithm::Eamsgd {
                p,
                t,
                staleness_gamma,
                ..
            } => {
                if staleness_gamma {
                    format!("EAMSGD-s\u{3b3}(p={p},T={t})")
                } else {
                    format!("EAMSGD(p={p},T={t})")
                }
            }
        }
    }
}

/// `SASGD{codec}[-adT][-delayed](p=…,T=…)`: an adaptive schedule shows
/// its initial interval as `T0`; a run-long interval is one-shot averaging,
/// `ModelAvg{codec}[-delayed](p=…)`.
fn sasgd_label(codec: &str, p: usize, schedule: TSchedule, delayed: bool) -> String {
    let delay = if delayed { "-delayed" } else { "" };
    match schedule {
        TSchedule::Fixed { t: 0 } => format!("ModelAvg{codec}{delay}(p={p})"),
        TSchedule::Fixed { t } => format!("SASGD{codec}{delay}(p={p},T={t})"),
        TSchedule::AdaptivePlateau { t0, .. } => format!("SASGD{codec}-adT{delay}(p={p},T0={t0})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::trainer::TrainConfig;
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    #[test]
    fn gamma_p_policies() {
        assert_eq!(GammaP::SameAsGamma.resolve(0.1, 8), 0.1);
        assert_eq!(GammaP::OverP.resolve(0.1, 8), 0.0125);
        assert_eq!(GammaP::Fixed(0.5).resolve(0.1, 8), 0.5);
    }

    #[test]
    fn labels_and_accessors() {
        let a = Algorithm::sasgd(8, 50, GammaP::OverP);
        assert_eq!(a.label(), "SASGD(p=8,T=50)");
        assert_eq!(a.learners(), 8);
        assert_eq!(a.interval(), 50);
        assert_eq!(Algorithm::Sequential.learners(), 1);
        assert_eq!(Algorithm::Sequential.interval(), 1);
        assert_eq!(Algorithm::Sequential.label(), "SGD");
        let avg = Algorithm::model_average_once(3);
        assert_eq!(avg.label(), "ModelAvg(p=3)");
        assert_eq!(avg.learners(), 3);
        assert!(Algorithm::Downpour {
            p: 2,
            t: 1,
            staleness_gamma: false
        }
        .label()
        .contains("Downpour"));
        assert_eq!(
            Algorithm::Downpour {
                p: 2,
                t: 1,
                staleness_gamma: true
            }
            .label(),
            "Downpour-s\u{3b3}(p=2,T=1)"
        );
        let comp = Algorithm::sasgd_compressed(4, 8, GammaP::OverP, Compression::topk(0.1));
        assert_eq!(comp.label(), "SASGD-k10.0%(p=4,T=8)");
        assert_eq!(comp.learners(), 4);
        assert_eq!(comp.interval(), 8);
        let h = Algorithm::HierarchicalSasgd {
            groups: 2,
            per_group: 4,
            t_local: 5,
            t_global: 3,
            gamma_p: GammaP::OverP,
        };
        assert_eq!(h.learners(), 8);
        assert_eq!(h.interval(), 15);
        assert!(h.label().starts_with("H-SASGD"));
    }

    #[test]
    fn lattice_labels_and_accessors() {
        let adaptive = Algorithm::Sasgd {
            p: 8,
            schedule: TSchedule::AdaptivePlateau {
                t0: 5,
                t_max: 20,
                patience: 2,
                rel_improve: 0.05,
            },
            gamma_p: GammaP::OverP,
            compression: None,
            delayed: false,
        };
        assert_eq!(adaptive.label(), "SASGD-adT(p=8,T0=5)");
        assert_eq!(adaptive.learners(), 8);
        assert_eq!(adaptive.interval(), 5);
        let Algorithm::Sasgd { schedule, .. } = adaptive else {
            unreachable!()
        };
        let delayed = Algorithm::Sasgd {
            p: 8,
            schedule,
            gamma_p: GammaP::OverP,
            compression: Some(Compression::Uniform8Bit),
            delayed: true,
        };
        assert_eq!(delayed.label(), "SASGD-8bit-adT-delayed(p=8,T0=5)");
        assert_eq!(delayed.interval(), 5);
        let mut da = Algorithm::sasgd(8, 5, GammaP::OverP);
        if let Algorithm::Sasgd { delayed, .. } = &mut da {
            *delayed = true;
        }
        assert_eq!(da.label(), "SASGD-delayed(p=8,T=5)");
    }

    fn quiet_cfg(epochs: usize, gamma: f32) -> TrainConfig {
        let mut cfg = TrainConfig::new(epochs, 8, gamma, 42);
        cfg.jitter = JitterModel::none();
        cfg
    }

    #[test]
    fn learns_with_four_learners() {
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::sasgd(4, 2, GammaP::OverP);
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert!(
            h.records.last().expect("r").comm_seconds > 0.0,
            "p>1 must communicate"
        );
    }

    #[test]
    fn all_learners_hold_identical_params_after_sync() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let cfg = quiet_cfg(1, 0.05);
        // Run manually to inspect: easiest is T=1 where every step syncs,
        // so learner 0's history must equal a rerun's.
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::sasgd(2, 1, GammaP::OverP);
        let h1 = crate::train(&mut f1, &train, &test, &algo, &cfg);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let h2 = crate::train(&mut f2, &train, &test, &algo, &cfg);
        assert_eq!(
            h1.records.last().expect("r").train_loss,
            h2.records.last().expect("r").train_loss
        );
    }

    #[test]
    fn p1_t1_matches_sequential_trajectory() {
        // Algorithm 1 applies local steps to a scratch copy x' and the
        // global step to the pre-interval x. With p=1, T=1, local γ=0 and
        // γp=γ, every aggregation performs exactly x ← x − γ·g — i.e.
        // sequential SGD. The trajectories must coincide bitwise.
        let (train, test) = generate(&CifarLikeConfig::tiny(48, 16, 2));
        let sasgd_cfg = quiet_cfg(3, 0.0);
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let algo = Algorithm::sasgd(1, 1, GammaP::Fixed(0.05));
        let h_sasgd = crate::train(&mut f1, &train, &test, &algo, &sasgd_cfg);
        let seq_cfg = quiet_cfg(3, 0.05);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let h_seq = crate::train(&mut f2, &train, &test, &Algorithm::Sequential, &seq_cfg);
        for (a, b) in h_sasgd.records.iter().zip(&h_seq.records) {
            assert_eq!(a.train_loss, b.train_loss, "trajectories must coincide");
            assert_eq!(a.test_acc, b.test_acc);
        }
    }

    #[test]
    fn larger_t_means_less_comm_time() {
        // With jitter disabled every learner's virtual clock advances
        // identically, so the barrier wait is exactly zero and learner 0's
        // communication time must equal the initial broadcast plus one
        // tree allreduce per aggregation — ⌊steps/T⌋ of them, where
        // steps = epochs · ⌊(n/p)/M⌋. This pins the T-amortization claim
        // to the cost model instead of a magic ratio, and the clocked wire
        // to the cost model's tree at every power-of-two p.
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 20, 2));
        let cfg = quiet_cfg(2, 0.02);
        for p in [2usize, 4, 8] {
            let m = models::tiny_cnn(2, &mut SeedRng::new(1)).param_len();
            let bcast = cfg.cost.broadcast(m, p);
            let ar = cfg.cost.allreduce_tree(m, p).seconds;
            let steps = cfg.epochs * (train.len() / p / cfg.batch_size);
            let mut comm = Vec::new();
            for t in [1usize, 5] {
                let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
                let h = crate::train(
                    &mut f,
                    &train,
                    &test,
                    &Algorithm::sasgd(p, t, GammaP::OverP),
                    &cfg,
                );
                let got = h.records.last().expect("r").comm_seconds;
                let expect = bcast + (steps / t) as f64 * ar;
                assert!(
                    (got - expect).abs() <= 1e-9 * expect,
                    "p={p} T={t}: comm {got} should equal broadcast + {} allreduces = {expect}",
                    steps / t
                );
                comm.push(got);
            }
            assert!(
                comm[1] < comm[0],
                "p={p}: T=5 comm {} should be below T=1 comm {}",
                comm[1],
                comm[0]
            );
        }
    }

    #[test]
    fn simulated_wire_accounting_shrinks_under_topk() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let cfg = quiet_cfg(1, 0.02);
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let dense = crate::train(
            &mut f1,
            &train,
            &test,
            &Algorithm::sasgd(2, 2, GammaP::OverP),
            &cfg,
        );
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::sasgd_compressed(2, 2, GammaP::OverP, Compression::topk(0.1));
        let sparse = crate::train(&mut f2, &train, &test, &algo, &cfg);
        let (d, s) = (dense.wire.expect("wire"), sparse.wire.expect("wire"));
        assert!(
            s.elements < d.elements / 2,
            "TopK-10% wire {} vs dense {}",
            s.elements,
            d.elements
        );
    }

    #[test]
    #[should_panic(expected = "shards too small")]
    fn rejects_empty_per_learner_epochs() {
        let (train, test) = generate(&CifarLikeConfig::tiny(8, 4, 2));
        let cfg = quiet_cfg(1, 0.05);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
        crate::train(
            &mut f,
            &train,
            &test,
            &Algorithm::sasgd(8, 1, GammaP::OverP),
            &cfg,
        );
    }

    /// SASGD at `(p, schedule, delayed)`, uncompressed, `γp = γ/p`.
    fn lattice(p: usize, schedule: TSchedule, delayed: bool) -> Algorithm {
        Algorithm::Sasgd {
            p,
            schedule,
            gamma_p: GammaP::OverP,
            compression: None,
            delayed,
        }
    }

    #[test]
    fn adaptive_schedule_syncs_no_more_than_fixed_t0() {
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = quiet_cfg(6, 0.05);
        let t0 = 2;
        let run = |schedule| {
            let mut f = || models::tiny_cnn(3, &mut SeedRng::new(5));
            crate::train(
                &mut f,
                &train_set,
                &test_set,
                &lattice(2, schedule, false),
                &cfg,
            )
        };
        let fixed = run(TSchedule::Fixed { t: t0 });
        let adaptive = run(TSchedule::AdaptivePlateau {
            t0,
            t_max: 16,
            patience: 1,
            rel_improve: 0.5,
        });
        // A 50% improvement bar with patience 1 plateaus almost every
        // round, so T must actually have grown.
        assert!(
            adaptive.sync_rounds < fixed.sync_rounds,
            "adaptive {} rounds vs fixed {}",
            adaptive.sync_rounds,
            fixed.sync_rounds
        );
    }

    #[test]
    fn an_adaptive_run_reports_the_intervals_it_ran() {
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = quiet_cfg(6, 0.05);
        let (t0, t_max) = (2, 8);
        let schedule = TSchedule::AdaptivePlateau {
            t0,
            t_max,
            patience: 1,
            rel_improve: 0.5,
        };
        let mut f = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let algo = lattice(2, schedule, false);
        let h = crate::train(&mut f, &train_set, &test_set, &algo, &cfg);
        let st = h.staleness.expect("collective rounds record staleness");
        // T plateaus up to its cap, and the report says so.
        assert_eq!(st.max, t_max as u64, "the largest T reached");
        assert!(st.mean > t0 as f64, "mean T {}", st.mean);
        // One interval per round, and together they cover the run's steps
        // (two 64-sample shards at batch 8) up to a last, partial block.
        assert_eq!(st.pushes, h.sync_rounds);
        let covered = st.mean * st.pushes as f64;
        let run_steps = (cfg.epochs * 64 / cfg.batch_size) as f64;
        assert!(covered <= run_steps && covered + t_max as f64 > run_steps);
    }

    #[test]
    fn delayed_rounds_learn_and_hide_the_allreduce() {
        // With jitter off every learner reaches the round at the same
        // time, so the synchronous round pays the full allreduce while
        // the delayed one only waits for the previous round's — already
        // finished once T compute steps outlast it.
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(160, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        let run = |delayed| {
            let mut f = || models::tiny_cnn(3, &mut SeedRng::new(7));
            let algo = lattice(4, TSchedule::Fixed { t: 2 }, delayed);
            crate::train(&mut f, &train_set, &test_set, &algo, &cfg)
        };
        let (sync, delayed) = (run(false), run(true));
        assert!(
            delayed.final_test_acc() > 0.5,
            "acc {}",
            delayed.final_test_acc()
        );
        // Each total lands one round late; the bound is still the interval.
        assert!(!delayed.staleness_series.is_empty());
        assert!(delayed.staleness_series.iter().all(|s| s.tau == 1));
        let st = delayed
            .staleness
            .expect("collective rounds record staleness");
        assert_eq!(st.max, 2, "the interval bounds staleness, in steps");
        let comm = |h: &History| h.records.last().expect("r").comm_seconds;
        assert!(
            comm(&delayed) < comm(&sync),
            "delayed comm {} should undercut synchronous {}",
            comm(&delayed),
            comm(&sync)
        );
    }

    #[test]
    fn p1_delay_is_nearly_transparent() {
        // With one learner the landed total is the learner's own progress,
        // so re-basing onto it is the identity up to f32 association: the
        // delayed run tracks the undelayed one to rounding noise.
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
        let cfg = quiet_cfg(3, 0.05);
        let run = |delayed| {
            let mut f = || models::tiny_cnn(3, &mut SeedRng::new(9));
            let algo = lattice(1, TSchedule::Fixed { t: 2 }, delayed);
            let h = crate::train(&mut f, &train_set, &test_set, &algo, &cfg);
            h.final_params.expect("params")
        };
        let (plain, delayed) = (run(false), run(true));
        let max_diff = plain
            .iter()
            .zip(&delayed)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-4, "p=1 delay drifted {max_diff}");
    }

    #[test]
    fn sequential_sgd_learns_and_replays_without_communicating() {
        // Sequential SGD runs as SASGD at p = 1, T = 1, γp = γ: a round per
        // step, yet one learner has no peer: the cost model charges no
        // communication and neither backend puts anything on the wire.
        let (train, test) = generate(&CifarLikeConfig::tiny(120, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let run = |backend| {
            crate::Executor::new(backend).run(&factory, &train, &test, &Algorithm::Sequential, &cfg)
        };
        let (h, again, thr) = (
            run(crate::Backend::Simulated),
            run(crate::Backend::Simulated),
            run(crate::Backend::Threaded),
        );
        assert_eq!(
            (h.label.as_str(), thr.label.as_str()),
            ("SGD", "SGD-threaded")
        );
        assert_eq!(h.records.len(), 8);
        let first = h.records[0].train_loss;
        let last = h.records.last().expect("records").train_loss;
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert_eq!(h.sync_rounds, 8 * 120 / 8, "one round per step");
        assert_eq!(
            again.final_params, h.final_params,
            "pure function of the seed"
        );
        assert_eq!(thr.final_params, h.final_params, "bitwise across backends");
        // Simulated comm time is the cost model's; the threaded backend's
        // is the wall-clock of each round, global step included.
        assert_eq!(h.records.last().expect("r").comm_seconds, 0.0);
        for run in [&h, &thr] {
            assert_eq!(run.wire.expect("wire accounted").elements, 0);
        }
    }

    #[test]
    fn one_shot_averaging_is_one_round_after_the_last_step() {
        // T = 0 stretches the interval to the run: after the x0 broadcast
        // the learners train alone, and the one allreduce follows the last
        // step. Every epoch still records.
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let p = 4;
        let m = models::tiny_cnn(2, &mut SeedRng::new(3)).param_len();
        let algo = Algorithm::model_average_once(p);
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let cfg = quiet_cfg(3, 0.02);
        let h = crate::Executor::new(crate::Backend::Simulated)
            .run(&factory, &train, &test, &algo, &cfg);
        assert_eq!(h.label, "ModelAvg(p=4)");
        assert_eq!(h.sync_rounds, 1, "exactly one round");
        assert_eq!(h.records.len(), 3);
        let bcast = cfg.cost.broadcast(m, p);
        let (end, mid) = h.records.split_last().expect("records");
        for r in mid {
            assert_eq!(r.comm_seconds, bcast, "no traffic while training");
        }
        assert!(end.comm_seconds > bcast, "one final reduction");
        // On threads the wire carries the broadcast and one allreduce:
        // (p−1)·m + 2(p−1)·m elements.
        let thr = crate::Executor::new(crate::Backend::Threaded)
            .run(&factory, &train, &test, &algo, &cfg);
        assert_eq!(thr.sync_rounds, 1);
        assert_eq!(
            thr.wire.expect("wire").elements,
            3 * (p as u64 - 1) * m as u64
        );
    }

    #[test]
    fn p1_averaging_is_just_sgd() {
        let (train, test) = generate(&CifarLikeConfig::tiny(80, 40, 3));
        let cfg = quiet_cfg(6, 0.05);
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::model_average_once(1);
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert_eq!(h.records.last().expect("r").comm_seconds, 0.0);
    }

    #[test]
    fn single_group_equals_flat_sasgd() {
        let (train, test) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = quiet_cfg(3, 0.05);
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let flat = crate::train(
            &mut f1,
            &train,
            &test,
            &Algorithm::sasgd(4, 2, GammaP::OverP),
            &cfg,
        );
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let hier = crate::train(
            &mut f2,
            &train,
            &test,
            &Algorithm::HierarchicalSasgd {
                groups: 1,
                per_group: 4,
                t_local: 2,
                t_global: 3,
                gamma_p: GammaP::OverP,
            },
            &cfg,
        );
        for (a, b) in flat.records.iter().zip(&hier.records) {
            assert_eq!(
                a.train_loss, b.train_loss,
                "one group must equal flat SASGD"
            );
            assert_eq!(a.test_acc, b.test_acc);
        }
    }

    #[test]
    fn hierarchical_learns_and_spends_less_on_global_comm() {
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        // Flat SASGD at T=2 vs hierarchy: local sync every 2 steps, global
        // every 4 local rounds.
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let flat = crate::train(
            &mut f1,
            &train,
            &test,
            &Algorithm::sasgd(4, 2, GammaP::OverP),
            &cfg,
        );
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let hier = crate::train(
            &mut f2,
            &train,
            &test,
            &Algorithm::HierarchicalSasgd {
                groups: 2,
                per_group: 2,
                t_local: 2,
                t_global: 4,
                gamma_p: GammaP::OverP,
            },
            &cfg,
        );
        assert!(
            hier.final_test_acc() > 0.5,
            "acc {:.2}",
            hier.final_test_acc()
        );
        // Accuracy should be in the same league as flat SASGD...
        assert!(
            hier.final_test_acc() > flat.final_test_acc() - 0.2,
            "hier {:.2} vs flat {:.2}",
            hier.final_test_acc(),
            flat.final_test_acc()
        );
        // ...while the observed learner communicates less (cheap local
        // rounds replace most global ones).
        let flat_comm = flat.records.last().expect("r").comm_seconds;
        let hier_comm = hier.records.last().expect("r").comm_seconds;
        assert!(
            hier_comm < flat_comm,
            "hier comm {hier_comm} vs flat {flat_comm}"
        );
    }

    #[test]
    fn staleness_bound_is_product_of_intervals() {
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 2));
        let cfg = quiet_cfg(2, 0.02);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
        let h = crate::train(
            &mut f,
            &train,
            &test,
            &Algorithm::HierarchicalSasgd {
                groups: 2,
                per_group: 2,
                t_local: 3,
                t_global: 2,
                gamma_p: GammaP::OverP,
            },
            &cfg,
        );
        let st = h.staleness.expect("hierarchical records staleness");
        assert_eq!(st.max, 6, "bound = t_local × t_global");
    }

    #[test]
    #[should_panic(expected = "intervals must be positive")]
    fn zero_interval_rejected() {
        let (train, test) = generate(&CifarLikeConfig::tiny(32, 8, 2));
        let cfg = quiet_cfg(1, 0.02);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
        crate::train(
            &mut f,
            &train,
            &test,
            &Algorithm::HierarchicalSasgd {
                groups: 2,
                per_group: 2,
                t_local: 0,
                t_global: 1,
                gamma_p: GammaP::OverP,
            },
            &cfg,
        );
    }

    // The parameter-server baselines, end to end on the simulated backend.

    #[test]
    fn single_learner_downpour_learns() {
        let (train, test) = generate(&CifarLikeConfig::tiny(80, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::Downpour {
            p: 1,
            t: 1,
            staleness_gamma: false,
        };
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert!(
            h.records.last().expect("r").comm_seconds > 0.0,
            "PS traffic even at p=1"
        );
    }

    #[test]
    fn records_land_once_per_collective_epoch() {
        // Learner 0 records whenever it finishes a pass over its shard
        // (n/p samples); with all p learners running that is ~n collective
        // samples between records, i.e. one epoch.
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let mut cfg = TrainConfig::new(8, 8, 0.02, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::Downpour {
            p: 4,
            t: 2,
            staleness_gamma: false,
        };
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        assert!(h.records.len() >= 2);
        let gap = h.records[1].epoch - h.records[0].epoch;
        assert!(
            (gap - 1.0).abs() < 0.5,
            "records ~1 collective epoch apart, gap {gap}"
        );
    }

    #[test]
    fn total_samples_respect_epoch_budget() {
        let (train, test) = generate(&CifarLikeConfig::tiny(40, 10, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.02, 1);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::Downpour {
            p: 2,
            t: 1,
            staleness_gamma: false,
        };
        let h = crate::train(&mut factory, &train, &test, &algo, &cfg);
        let total = h.records.last().expect("r").samples;
        // Budget 3 × 40 = 120, with at most one block (8 samples × 2
        // learners) of overshoot.
        assert!((120..=120 + 32).contains(&total), "samples {total}");
    }

    #[test]
    fn learns_tiny_cifar_with_two_learners() {
        let (train, test) = generate(&CifarLikeConfig::tiny(80, 40, 3));
        let mut cfg = TrainConfig::new(8, 8, 0.02, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = crate::train(
            &mut factory,
            &train,
            &test,
            &Algorithm::Eamsgd {
                p: 2,
                t: 2,
                moving_rate: None,
                momentum: 0.9,
                staleness_gamma: false,
            },
            &cfg,
        );
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
    }

    #[test]
    fn center_tracks_learners() {
        // With α = 1 and p = 1 the center equals the learner after every
        // exchange, so EAMSGD degenerates to momentum SGD — and should
        // still learn.
        let (train, test) = generate(&CifarLikeConfig::tiny(60, 20, 2));
        let mut cfg = TrainConfig::new(6, 8, 0.02, 3);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let h = crate::train(
            &mut factory,
            &train,
            &test,
            &Algorithm::Eamsgd {
                p: 1,
                t: 1,
                moving_rate: Some(1.0),
                momentum: 0.9,
                staleness_gamma: false,
            },
            &cfg,
        );
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
    }

    #[test]
    #[should_panic(expected = "momentum must be")]
    fn bad_momentum_rejected() {
        let (train, test) = generate(&CifarLikeConfig::tiny(16, 8, 2));
        let cfg = TrainConfig::new(1, 8, 0.02, 3);
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(9));
        crate::train(
            &mut factory,
            &train,
            &test,
            &Algorithm::Eamsgd {
                p: 1,
                t: 1,
                moving_rate: None,
                momentum: 1.5,
                staleness_gamma: false,
            },
            &cfg,
        );
    }
}
