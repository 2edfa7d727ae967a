//! Deterministic fault plans for the threaded backend.
//!
//! A [`FaultPlan`] is a list of scripted failures — crash a learner before
//! a given local step, stall it for a fixed duration, or drop one of its
//! point-to-point messages at the wire. Crash and stall events are
//! interpreted by the learner loop (faults fire only at step boundaries,
//! never mid-collective, which is what makes degraded runs bitwise
//! reproducible); message drops are lowered into a
//! [`FaultSchedule`] consumed by the wire
//! layer itself. [`FaultPlan::seeded`] derives a plan from a seed with a
//! splitmix64 stream, so randomized fault campaigns replay exactly.

use std::time::Duration;

use crate::world::FaultSchedule;

/// One scripted failure mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The learner exits cleanly before executing local step `step`
    /// (0-based index over the learner's whole run, not per epoch).
    CrashAtStep {
        /// First local step the learner never executes.
        step: u64,
    },
    /// The learner sleeps `millis` immediately before local step `step`.
    /// Stalls shorter than the receive deadline are absorbed; longer ones
    /// get the learner evicted by its peers.
    StallAtStep {
        /// Step the stall precedes.
        step: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// The rank's `nth` point-to-point send (0-based, counted at the wire)
    /// is silently dropped.
    DropSend {
        /// Send-sequence index to drop.
        nth: u64,
    },
}

/// A failure bound to the rank it strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Rank the fault applies to.
    pub rank: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic script of failures for one run. An empty plan is the
/// fault-free run; the fault-tolerant runner with an empty plan is bitwise
/// identical to the plain threaded runner.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scripted failures, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no failure is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add a crash: `rank` exits before local step `step`.
    pub fn with_crash(mut self, rank: usize, step: u64) -> Self {
        self.events.push(FaultEvent {
            rank,
            kind: FaultKind::CrashAtStep { step },
        });
        self
    }

    /// Add a stall: `rank` sleeps `millis` ms before local step `step`.
    pub fn with_stall(mut self, rank: usize, step: u64, millis: u64) -> Self {
        self.events.push(FaultEvent {
            rank,
            kind: FaultKind::StallAtStep { step, millis },
        });
        self
    }

    /// Add a wire drop: `rank`'s `nth` send vanishes.
    pub fn with_drop(mut self, rank: usize, nth: u64) -> Self {
        self.events.push(FaultEvent {
            rank,
            kind: FaultKind::DropSend { nth },
        });
        self
    }

    /// Derive a crash campaign from a seed: `crashes` distinct ranks out of
    /// `p`, each crashing at a step in `1..=max_step`. Rank 0 is never
    /// chosen — it is the recovery coordinator, whose loss is a typed fatal
    /// error rather than a degradation (see `crate::ft`). The same
    /// `(seed, p, crashes, max_step)` always yields the same plan.
    ///
    /// # Panics
    /// Panics if `crashes >= p` (someone must survive) or `max_step == 0`.
    pub fn seeded(seed: u64, p: usize, crashes: usize, max_step: u64) -> Self {
        assert!(crashes < p, "at least one learner must survive");
        assert!(max_step > 0, "crash steps start at 1");
        let mut state = seed;
        let mut plan = FaultPlan::none();
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < crashes {
            let r = 1 + (splitmix64(&mut state) % (p as u64 - 1)) as usize;
            if !chosen.contains(&r) {
                chosen.push(r);
                let step = 1 + splitmix64(&mut state) % max_step;
                plan = plan.with_crash(r, step);
            }
        }
        plan
    }

    /// Step at which `rank` crashes, if scripted (earliest wins when a rank
    /// has several crash events).
    pub fn crash_step(&self, rank: usize) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::CrashAtStep { step } if e.rank == rank => Some(step),
                _ => None,
            })
            .min()
    }

    /// Total stall duration scripted for `rank` before `step`, if any.
    pub fn stall_at(&self, rank: usize, step: u64) -> Option<Duration> {
        let ms: u64 = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::StallAtStep { step: s, millis } if e.rank == rank && s == step => {
                    Some(millis)
                }
                _ => None,
            })
            .sum();
        (ms > 0).then(|| Duration::from_millis(ms))
    }

    /// Lower the plan's [`FaultKind::DropSend`] events into a wire-level
    /// [`FaultSchedule`] for `p` ranks; `None` when the plan drops nothing.
    pub fn wire_faults(&self, p: usize) -> Option<FaultSchedule> {
        let mut drop_send: Vec<Vec<u64>> = vec![Vec::new(); p];
        for e in &self.events {
            if let FaultKind::DropSend { nth } = e.kind {
                if e.rank < p {
                    drop_send[e.rank].push(nth);
                }
            }
        }
        if drop_send.iter().all(Vec::is_empty) {
            return None;
        }
        for v in &mut drop_send {
            v.sort_unstable();
            v.dedup();
        }
        Some(FaultSchedule { drop_send })
    }
}

/// splitmix64 step — the same tiny deterministic stream the model
/// checker's bounded search uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_replay_exactly() {
        let a = FaultPlan::seeded(42, 8, 2, 100);
        let b = FaultPlan::seeded(42, 8, 2, 100);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 2);
        for e in &a.events {
            assert_ne!(e.rank, 0, "coordinator is never crashed");
            assert!(e.rank < 8);
        }
        let ranks: Vec<usize> = a.events.iter().map(|e| e.rank).collect();
        let mut dedup = ranks.clone();
        dedup.dedup();
        assert_eq!(ranks, dedup, "distinct ranks");
        // A different seed gives a different plan (overwhelmingly likely).
        assert_ne!(a, FaultPlan::seeded(43, 8, 2, 100));
    }

    #[test]
    fn lookups_find_scripted_events() {
        let plan = FaultPlan::none()
            .with_crash(3, 7)
            .with_stall(2, 5, 40)
            .with_drop(1, 9);
        assert_eq!(plan.crash_step(3), Some(7));
        assert_eq!(plan.crash_step(2), None);
        assert_eq!(plan.stall_at(2, 5), Some(Duration::from_millis(40)));
        assert_eq!(plan.stall_at(2, 6), None);
        let wire = plan.wire_faults(4).expect("has drops");
        assert_eq!(wire.drop_send[1], vec![9]);
        assert!(plan.with_crash(1, 1).crash_step(1).is_some());
        assert!(FaultPlan::none().wire_faults(4).is_none());
    }

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::none().with_crash(1, 1).is_empty());
    }
}
