//! The distributed SGD algorithms the paper implements and compares.

use crate::compress::Compression;
use crate::schedule::TSchedule;

pub(crate) mod downpour;
pub(crate) mod eamsgd;
pub(crate) mod hierarchical;
pub(crate) mod sasgd;

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
}
