//! Experiment records: what every figure in the paper plots.

use sasgd_comm::sparse::SparseLevelProfile;

/// One accuracy/timing sample, taken when learner 0 completes a pass over
/// its shard.
///
/// Every learner walks its own shard, so a record lands about once per
/// collective epoch for every algorithm: `p` learners together process
/// about `p` shards, one dataset, per pass of learner 0. A
/// parameter-server learner walks its ragged tail too, so its pass is
/// whole; a collective's may drop up to a minibatch.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Collective epochs completed (total samples processed / dataset size).
    pub epoch: f64,
    /// Mean training loss measured by a dedicated evaluation pass.
    pub train_loss: f32,
    /// Training accuracy in `[0, 1]`.
    pub train_acc: f32,
    /// Test loss.
    pub test_loss: f32,
    /// Test accuracy in `[0, 1]`.
    pub test_acc: f32,
    /// Virtual seconds of minibatch computation on the observed learner.
    pub compute_seconds: f64,
    /// Virtual seconds of communication on the observed learner.
    pub comm_seconds: f64,
    /// Total samples processed system-wide so far.
    pub samples: u64,
    /// Norm of a large-batch gradient estimate at this point — the
    /// empirical counterpart of the theory's average gradient norm.
    pub grad_norm: f32,
}

/// A full training trajectory plus run metadata.
#[derive(Clone, Debug)]
pub struct History {
    /// Human-readable algorithm tag (e.g. `"SASGD(p=8,T=50)"`).
    pub label: String,
    /// Records in epoch order.
    pub records: Vec<EpochRecord>,
    /// Number of learners.
    pub p: usize,
    /// Aggregation interval.
    pub t_interval: usize,
    /// Gradient staleness. A parameter-server run records the τ its
    /// exchange measured, in global updates. A collective records the
    /// interval each round ran, in steps: the `T` in force for SASGD (the
    /// run's step count at `T = 0`), `t_local · t_global` for hierarchical
    /// SASGD.
    pub staleness: Option<StalenessStats>,
    /// Final flat parameter vector of the evaluated learner, where the
    /// backend can provide it (the SASGD backends do). Lets equivalence
    /// tests compare backends parameter-for-parameter, not just by
    /// accuracy trajectories.
    pub final_params: Option<Vec<f32>>,
    /// Wire traffic of the run: the comm world's counters, on either
    /// backend.
    pub wire: Option<WireStats>,
    /// Membership changes observed by the fault-tolerant threaded backend
    /// (empty for fault-free runs and for backends without failure
    /// detection). One entry per sync round that confirmed learner loss.
    pub membership: Vec<MembershipEvent>,
    /// Ranks that retired mid-run instead of panicking: a non-coordinator
    /// learner whose fault-tolerant collective failed (eviction, a dead
    /// coordinator, any wire failure) stops participating and records why.
    /// The survivors' [`MembershipEvent`]s describe the same losses from
    /// the other side; this is the retiree's own account.
    pub retirements: Vec<RetirementEvent>,
    /// Per-update staleness series: one sample per (sync round, rank),
    /// capped at [`MAX_STALENESS_SAMPLES`] entries. A collective records
    /// `tau` in rounds, fixed by construction: 0, or 1 for delayed SASGD,
    /// whose totals land a round late. A parameter-server run records the
    /// measured lag in global updates, and the effective rate after any
    /// staleness-aware γ scaling.
    pub staleness_series: Vec<StalenessSample>,
    /// Total aggregation (communication) rounds the run executed.
    pub sync_rounds: u64,
    /// Per-sync sparsification series: one sample per (sync round, rank)
    /// for compressed runs, capped at [`MAX_SPARSITY_SAMPLES`]. Empty for
    /// uncompressed runs.
    pub sparsity_series: Vec<SparsitySample>,
    /// Per-tree-level sparse wire profile summed over the run's sparse
    /// collectives (all ranks merged): how the index union grows with
    /// tree depth. Empty levels for dense runs.
    pub sparse_levels: SparseLevelProfile,
}

/// One (round, rank) staleness observation: how stale the state this
/// rank's update lands on is (`tau`), and the rate actually
/// applied after any staleness-aware scaling (`gamma_eff` equals the
/// scheduled γ when scaling is off; for EAMSGD it is the elastic moving
/// rate, which is what staleness scales there).
#[derive(Clone, Copy, Debug)]
pub struct StalenessSample {
    /// Sync round (0-based) the sample was taken in.
    pub round: u64,
    /// The observing rank.
    pub rank: usize,
    /// Staleness: measured, in global updates, against a parameter
    /// server; fixed, in rounds, for a collective.
    pub tau: u64,
    /// Effective learning rate applied for this update.
    pub gamma_eff: f32,
}

/// Cap on [`History::staleness_series`] length, so long runs at large `p`
/// keep histories small; [`StalenessStats`] still summarizes every push.
pub const MAX_STALENESS_SAMPLES: usize = 4096;

/// One (round, rank) sparsification observation from a compressed sync:
/// what the k schedule actually kept and how much mass stayed behind.
#[derive(Clone, Copy, Debug)]
pub struct SparsitySample {
    /// Sync round (0-based) the sample was taken in.
    pub round: u64,
    /// The compressing rank.
    pub rank: usize,
    /// Nonzero coordinates actually transmitted this round.
    pub k_eff: usize,
    /// `‖residual‖₂` after this round's compression (error feedback).
    pub residual_norm: f32,
}

/// Cap on [`History::sparsity_series`] length, mirroring
/// [`MAX_STALENESS_SAMPLES`].
pub const MAX_SPARSITY_SAMPLES: usize = 4096;

/// One learner's graceful mid-run exit from a fault-tolerant run.
#[derive(Clone, Debug)]
pub struct RetirementEvent {
    /// The rank that retired.
    pub rank: usize,
    /// Global sync round (1-based) whose collective made it retire.
    pub round: u64,
    /// Human-readable cause (the typed error's rendering).
    pub reason: String,
}

/// One membership change in a fault-tolerant run: which sync round detected
/// learner loss, who was lost, how the run degraded, and what the detection
/// plus tree rebuild cost in wall-clock time.
#[derive(Clone, Debug)]
pub struct MembershipEvent {
    /// Global sync round (1-based) whose collective confirmed the loss.
    pub round: u64,
    /// Membership epoch after the change.
    pub epoch: u64,
    /// Ranks confirmed lost this round.
    pub lost: Vec<usize>,
    /// Learners remaining after the change.
    pub survivors: usize,
    /// Global rate `γp` after rescaling to the survivor count.
    pub gamma_p: f32,
    /// Wall-clock seconds the detecting sync round took (deadline waits,
    /// recovery sweep and result redistribution included).
    pub recovery_seconds: f64,
}

/// Elements and messages moved over the wire during a run, summed over all
/// ranks. The unit is `f32` elements (the wire format of every payload,
/// sparse ones included), so compressed and dense runs compare directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireStats {
    /// Total `f32` elements sent.
    pub elements: u64,
    /// Total point-to-point messages sent.
    pub messages: u64,
}

/// Summary of observed gradient staleness: how many global updates landed
/// between a learner's pull and its subsequent push. The paper's core
/// argument is that SASGD bounds this *explicitly by T* while ASGD's
/// depends on relative learner speeds — these statistics make that
/// measurable.
#[derive(Clone, Copy, Debug, Default)]
pub struct StalenessStats {
    /// Mean staleness over all pushes.
    pub mean: f64,
    /// Worst staleness observed.
    pub max: u64,
    /// Number of pushes measured.
    pub pushes: u64,
}

impl StalenessStats {
    /// Summarize a list of per-push staleness observations.
    pub fn from_observations(obs: &[u64]) -> Option<Self> {
        if obs.is_empty() {
            return None;
        }
        let sum: u64 = obs.iter().sum();
        Some(StalenessStats {
            mean: sum as f64 / obs.len() as f64,
            max: obs.iter().copied().max().unwrap_or(0),
            pushes: obs.len() as u64,
        })
    }

    /// The summary of two disjoint sets of observations: exactly
    /// [`StalenessStats::from_observations`] over their union, since a sum
    /// of update counts is an integer that `mean × pushes` recovers.
    pub fn merged(a: Option<Self>, b: Option<Self>) -> Option<Self> {
        let (a, b) = match (a, b) {
            (Some(a), Some(b)) => (a, b),
            (one, other) => return one.or(other),
        };
        let sum = |s: &Self| (s.mean * s.pushes as f64).round();
        let pushes = a.pushes + b.pushes;
        Some(StalenessStats {
            mean: (sum(&a) + sum(&b)) / pushes as f64,
            max: a.max.max(b.max),
            pushes,
        })
    }
}

impl History {
    /// Empty history.
    pub fn new(label: impl Into<String>, p: usize, t_interval: usize) -> Self {
        History {
            label: label.into(),
            records: Vec::new(),
            p,
            t_interval,
            staleness: None,
            final_params: None,
            wire: None,
            membership: Vec::new(),
            retirements: Vec::new(),
            staleness_series: Vec::new(),
            sync_rounds: 0,
            sparsity_series: Vec::new(),
            sparse_levels: SparseLevelProfile::default(),
        }
    }

    /// Append a staleness sample unless the series is already at
    /// [`MAX_STALENESS_SAMPLES`].
    pub fn push_staleness(&mut self, round: u64, rank: usize, tau: u64, gamma_eff: f32) {
        if self.staleness_series.len() < MAX_STALENESS_SAMPLES {
            self.staleness_series.push(StalenessSample {
                round,
                rank,
                tau,
                gamma_eff,
            });
        }
    }

    /// Append a sparsity sample unless the series is already at
    /// [`MAX_SPARSITY_SAMPLES`].
    pub fn push_sparsity(&mut self, round: u64, rank: usize, k_eff: usize, residual_norm: f32) {
        if self.sparsity_series.len() < MAX_SPARSITY_SAMPLES {
            self.sparsity_series.push(SparsitySample {
                round,
                rank,
                k_eff,
                residual_norm,
            });
        }
    }

    /// Final test accuracy (0 when no records).
    pub fn final_test_acc(&self) -> f32 {
        self.records.last().map_or(0.0, |r| r.test_acc)
    }

    /// Final training accuracy (0 when no records).
    pub fn final_train_acc(&self) -> f32 {
        self.records.last().map_or(0.0, |r| r.train_acc)
    }

    /// Best test accuracy over the run.
    pub fn best_test_acc(&self) -> f32 {
        self.records.iter().map(|r| r.test_acc).fold(0.0, f32::max)
    }

    /// Virtual seconds per collective epoch, averaged over the run
    /// (observed learner's clock / epochs).
    pub fn epoch_seconds(&self) -> f64 {
        match self.records.last() {
            Some(last) if last.epoch > 0.0 => {
                (last.compute_seconds + last.comm_seconds) / last.epoch
            }
            _ => 0.0,
        }
    }

    /// Fraction of the observed learner's time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        match self.records.last() {
            Some(last) => {
                let total = last.compute_seconds + last.comm_seconds;
                if total > 0.0 {
                    last.comm_seconds / total
                } else {
                    0.0
                }
            }
            None => 0.0,
        }
    }

    /// CSV rendering (one header + one row per record).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "epoch,train_loss,train_acc,test_loss,test_acc,compute_seconds,comm_seconds,samples,grad_norm\n",
        );
        for r in &self.records {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                r.epoch,
                r.train_loss,
                r.train_acc,
                r.test_loss,
                r.test_acc,
                r.compute_seconds,
                r.comm_seconds,
                r.samples,
                r.grad_norm
            ));
        }
        s
    }

    /// Test-accuracy series as `(epoch, accuracy%)` pairs for plotting.
    pub fn test_acc_series(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .map(|r| (r.epoch, f64::from(r.test_acc) * 100.0))
            .collect()
    }

    /// Train-accuracy series as `(epoch, accuracy%)` pairs.
    pub fn train_acc_series(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .map(|r| (r.epoch, f64::from(r.train_acc) * 100.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: f64, test_acc: f32, comp: f64, comm: f64) -> EpochRecord {
        EpochRecord {
            epoch,
            train_loss: 1.0,
            train_acc: test_acc + 0.05,
            test_loss: 1.2,
            test_acc,
            compute_seconds: comp,
            comm_seconds: comm,
            // lint:allow(float-cast): test fixture — small exact integers.
            samples: (epoch * 100.0) as u64,
            grad_norm: 0.0,
        }
    }

    #[test]
    fn summary_statistics() {
        let mut h = History::new("x", 4, 50);
        assert_eq!(h.final_test_acc(), 0.0);
        h.records.push(rec(1.0, 0.5, 1.0, 1.0));
        h.records.push(rec(2.0, 0.7, 2.0, 2.0));
        h.records.push(rec(3.0, 0.6, 3.0, 3.0));
        assert_eq!(h.final_test_acc(), 0.6);
        assert_eq!(h.best_test_acc(), 0.7);
        assert!((h.epoch_seconds() - 2.0).abs() < 1e-12);
        assert!((h.comm_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut h = History::new("x", 1, 1);
        h.records.push(rec(1.0, 0.5, 1.0, 0.5));
        let csv = h.to_csv();
        assert!(csv.starts_with("epoch,"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn staleness_stats_summary() {
        assert!(StalenessStats::from_observations(&[]).is_none());
        let s = StalenessStats::from_observations(&[1, 3, 8]).expect("stats");
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.max, 8);
        assert_eq!(s.pushes, 3);
    }

    #[test]
    fn merged_stats_are_the_union_s() {
        let (a, b) = ([1u64, 3, 8], [0u64, 2]);
        let merged = StalenessStats::merged(
            StalenessStats::from_observations(&a),
            StalenessStats::from_observations(&b),
        )
        .expect("stats");
        let union = StalenessStats::from_observations(&[1, 3, 8, 0, 2]).expect("stats");
        assert_eq!(merged.mean.to_bits(), union.mean.to_bits());
        assert_eq!((merged.max, merged.pushes), (union.max, union.pushes));
        let one = StalenessStats::merged(None, StalenessStats::from_observations(&b));
        assert_eq!(one.expect("stats").pushes, 2);
        assert!(StalenessStats::merged(None, None).is_none());
    }

    #[test]
    fn series_convert_to_percent() {
        let mut h = History::new("x", 1, 1);
        h.records.push(rec(1.0, 0.5, 0.0, 0.0));
        assert_eq!(h.test_acc_series(), vec![(1.0, 50.0)]);
    }

    #[test]
    fn staleness_series_is_capped() {
        let mut h = History::new("x", 1, 1);
        for round in 0..(MAX_STALENESS_SAMPLES as u64 + 100) {
            h.push_staleness(round, 0, 1, 0.05);
        }
        assert_eq!(h.staleness_series.len(), MAX_STALENESS_SAMPLES);
        assert_eq!(h.staleness_series[0].round, 0);
        assert_eq!(h.staleness_series[0].tau, 1);
    }
}
