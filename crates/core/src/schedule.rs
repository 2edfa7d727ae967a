//! Learning-rate and communication-interval schedules.
//!
//! The paper trains at constant γ and notes (§II-B) that with a constant
//! rate "there is a limit on how close the algorithm can reach to the
//! optimum without lowering the learning rate". These schedules let the
//! experiments probe exactly that: decay recovers the lost accuracy floor,
//! warmup stabilizes large effective batches (large `p·T`).
//!
//! [`TSchedule`] and [`SyncPolicy`] play the same role for the *other*
//! knob in Algorithm 1: the aggregation interval `T`. A fixed schedule is
//! the paper's setting; the adaptive schedule grows `T` when the sync
//! signal (SASGD's displacement of the shared `x`) plateaus —
//! communicating less as training stabilizes, per Stich's Local SGD
//! analysis.

/// How the local learning rate evolves over collective epochs.
///
/// ```
/// use sasgd_core::LrSchedule;
/// let s = LrSchedule::StepDecay { every: 10, factor: 0.5 };
/// assert_eq!(s.at(0.1, 0.0), 0.1);
/// assert!((s.at(0.1, 10.0) - 0.05).abs() < 1e-8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// The paper's setting: γ fixed for the whole run.
    Constant,
    /// Multiply by `factor` every `every` epochs.
    StepDecay {
        /// Epochs between decays.
        every: usize,
        /// Multiplier applied at each decay (0 < factor < 1).
        factor: f32,
    },
    /// `γ / (1 + rate·epoch)` — the classic Robbins–Monro-style decay the
    /// asymptotic theory assumes.
    InvEpoch {
        /// Decay speed.
        rate: f32,
    },
    /// Linear ramp from `γ·start_frac` to γ over `epochs` epochs, constant
    /// afterwards.
    Warmup {
        /// Ramp length in epochs.
        epochs: usize,
        /// Starting fraction of γ (0 ≤ start_frac ≤ 1).
        start_frac: f32,
    },
}

impl LrSchedule {
    /// The learning rate at (fractional) `epoch`, given the base rate.
    pub fn at(&self, base: f32, epoch: f64) -> f32 {
        let epoch = epoch.max(0.0);
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, factor } => {
                assert!(every > 0, "decay interval must be positive");
                // lint:allow(float-cast): floor of a small nonnegative
                // epoch count — exact for any realistic training length.
                let steps = (epoch / every as f64).floor() as i32;
                base * factor.powi(steps)
            }
            LrSchedule::InvEpoch { rate } => base / (1.0 + rate * epoch as f32),
            LrSchedule::Warmup { epochs, start_frac } => {
                if epochs == 0 || epoch >= epochs as f64 {
                    base
                } else {
                    let frac =
                        start_frac as f64 + (1.0 - start_frac as f64) * epoch / epochs as f64;
                    base * frac as f32
                }
            }
        }
    }
}

/// How the aggregation interval `T` evolves over communication rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TSchedule {
    /// `T` fixed for the whole run. `t = 0` stretches the interval to the
    /// run: one round, after its last step (one-shot averaging).
    Fixed {
        /// Local steps between aggregations.
        t: usize,
    },
    /// Start at `t0` and double `T` (capped at `t_max`) whenever the sync
    /// signal fails to improve by a relative `rel_improve` margin for
    /// `patience` consecutive rounds. `T` only ever grows, so an adaptive
    /// run never communicates more often than `Fixed { t: t0 }` over the
    /// same number of local steps.
    AdaptivePlateau {
        /// Initial interval (must be ≥ 1).
        t0: usize,
        /// Upper bound on the interval.
        t_max: usize,
        /// Non-improving rounds tolerated before doubling.
        patience: u32,
        /// Relative improvement threshold (e.g. 0.05 = 5%).
        rel_improve: f32,
    },
}

impl TSchedule {
    /// The interval the first round runs at.
    pub fn initial_t(&self) -> usize {
        match *self {
            TSchedule::Fixed { t } => t,
            TSchedule::AdaptivePlateau { t0, .. } => t0,
        }
    }
}

/// The live state of a [`TSchedule`]: owns the current interval and the
/// plateau detector. One policy instance drives one run; both backends
/// feed it the same per-round signals so its decisions replay exactly.
#[derive(Clone, Debug)]
pub struct SyncPolicy {
    schedule: TSchedule,
    current: usize,
    best: f32,
    plateau: u32,
}

impl SyncPolicy {
    /// Policy with a fixed interval (`t = 0`: one round, after the run's
    /// last step).
    pub fn fixed(t: usize) -> Self {
        SyncPolicy::new(TSchedule::Fixed { t })
    }

    /// Policy driven by `schedule`, starting at its initial interval.
    pub fn new(schedule: TSchedule) -> Self {
        if let TSchedule::AdaptivePlateau { t0, t_max, .. } = schedule {
            assert!(t0 >= 1, "adaptive schedule needs t0 >= 1");
            assert!(t_max >= t0, "t_max must be >= t0");
        }
        SyncPolicy {
            schedule,
            current: schedule.initial_t(),
            best: f32::INFINITY,
            plateau: 0,
        }
    }

    /// The interval in force for the next round.
    pub fn current_t(&self) -> usize {
        self.current
    }

    /// Feed the end-of-round sync signal (`None` = strategy emits none;
    /// the interval then never adapts). Lower is better; an improvement
    /// must beat the best seen so far by the relative margin to reset the
    /// plateau counter.
    pub fn observe_round(&mut self, signal: Option<f32>) {
        let TSchedule::AdaptivePlateau {
            t_max,
            patience,
            rel_improve,
            ..
        } = self.schedule
        else {
            return;
        };
        let Some(signal) = signal else { return };
        if signal < self.best * (1.0 - rel_improve) {
            self.best = signal;
            self.plateau = 0;
        } else {
            self.plateau += 1;
            if self.plateau >= patience && self.current < t_max {
                self.current = (self.current * 2).min(t_max);
                self.plateau = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let s = LrSchedule::Constant;
        assert_eq!(s.at(0.1, 0.0), 0.1);
        assert_eq!(s.at(0.1, 99.0), 0.1);
    }

    #[test]
    fn step_decay_halves_on_schedule() {
        let s = LrSchedule::StepDecay {
            every: 10,
            factor: 0.5,
        };
        assert_eq!(s.at(0.1, 0.0), 0.1);
        assert_eq!(s.at(0.1, 9.9), 0.1);
        assert!((s.at(0.1, 10.0) - 0.05).abs() < 1e-8);
        assert!((s.at(0.1, 25.0) - 0.025).abs() < 1e-8);
    }

    #[test]
    fn inv_epoch_decays_hyperbolically() {
        let s = LrSchedule::InvEpoch { rate: 1.0 };
        assert_eq!(s.at(0.2, 0.0), 0.2);
        assert!((s.at(0.2, 1.0) - 0.1).abs() < 1e-8);
        assert!((s.at(0.2, 3.0) - 0.05).abs() < 1e-8);
    }

    #[test]
    fn warmup_ramps_then_holds() {
        let s = LrSchedule::Warmup {
            epochs: 4,
            start_frac: 0.25,
        };
        assert!((s.at(0.1, 0.0) - 0.025).abs() < 1e-8);
        let mid = s.at(0.1, 2.0);
        assert!(mid > 0.025 && mid < 0.1);
        assert_eq!(s.at(0.1, 4.0), 0.1);
        assert_eq!(s.at(0.1, 50.0), 0.1);
    }

    #[test]
    fn zero_length_warmup_is_constant() {
        let s = LrSchedule::Warmup {
            epochs: 0,
            start_frac: 0.5,
        };
        assert_eq!(s.at(0.1, 0.0), 0.1);
    }

    #[test]
    fn negative_epoch_clamped() {
        let s = LrSchedule::InvEpoch { rate: 1.0 };
        assert_eq!(s.at(0.1, -5.0), 0.1);
    }

    #[test]
    fn fixed_policy_never_moves() {
        let mut p = SyncPolicy::fixed(5);
        assert_eq!(p.current_t(), 5);
        for s in [1.0, 1.0, 1.0, 1.0] {
            p.observe_round(Some(s));
        }
        assert_eq!(p.current_t(), 5);
    }

    #[test]
    fn adaptive_doubles_on_plateau_and_caps() {
        let mut p = SyncPolicy::new(TSchedule::AdaptivePlateau {
            t0: 2,
            t_max: 8,
            patience: 2,
            rel_improve: 0.05,
        });
        assert_eq!(p.current_t(), 2);
        p.observe_round(Some(1.0)); // first signal: improves on infinity
        p.observe_round(Some(0.99)); // < 5% better: plateau 1
        assert_eq!(p.current_t(), 2);
        p.observe_round(Some(0.98)); // plateau 2 -> double
        assert_eq!(p.current_t(), 4);
        p.observe_round(Some(0.97));
        p.observe_round(Some(0.97)); // -> 8 (cap)
        assert_eq!(p.current_t(), 8);
        p.observe_round(Some(0.97));
        p.observe_round(Some(0.97)); // at cap: stays
        assert_eq!(p.current_t(), 8);
    }

    #[test]
    fn adaptive_resets_plateau_on_real_improvement() {
        let mut p = SyncPolicy::new(TSchedule::AdaptivePlateau {
            t0: 4,
            t_max: 16,
            patience: 2,
            rel_improve: 0.1,
        });
        p.observe_round(Some(1.0));
        p.observe_round(Some(0.95)); // plateau 1
        p.observe_round(Some(0.5)); // > 10% better: reset
        p.observe_round(Some(0.49)); // plateau 1 again
        assert_eq!(p.current_t(), 4);
    }

    #[test]
    fn missing_signal_never_adapts() {
        let mut p = SyncPolicy::new(TSchedule::AdaptivePlateau {
            t0: 1,
            t_max: 64,
            patience: 1,
            rel_improve: 0.5,
        });
        for _ in 0..10 {
            p.observe_round(None);
        }
        assert_eq!(p.current_t(), 1);
    }
}
