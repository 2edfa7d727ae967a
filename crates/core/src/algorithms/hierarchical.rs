//! Hierarchical SASGD — a two-level extension of Algorithm 1.
//!
//! The paper's 16-learner runs place two learners per GPU; its conclusion
//! expects GPU counts to keep growing. At that point one flat allreduce
//! over all learners wastes the locality: learners sharing a device (or a
//! PCIe switch) can aggregate almost for free. This module implements the
//! natural two-level scheme:
//!
//! * **level 1** — every `t_local` minibatches, each *group* of
//!   `per_group` learners aggregates its gradient sums over the fast local
//!   fabric and applies the global step to a group-local parameter copy
//!   (exactly Algorithm 1 run per group);
//! * **level 2** — every `t_global` level-1 rounds, the group parameter
//!   copies are averaged across groups over the slower global fabric
//!   (periodic model averaging, which §III shows is what Algorithm 1
//!   simulates).
//!
//! With `groups = 1` this reduces to flat SASGD with `T = t_local`
//! (verified by a test); with `t_global = 1` it is flat SASGD at twice the
//! granularity. The interesting regime is `t_global > 1`: global traffic
//! drops by `t_global×` while staleness across groups stays explicitly
//! bounded by `t_local · t_global`.

use sasgd_nn::Model;

use crate::algorithms::GammaP;
use crate::engine::{aggregate_dense, AggregationStrategy};
use crate::history::{History, StalenessStats};
use crate::trainer::{Learner, TrainConfig};

/// Speed advantage of the intra-group fabric over the global GPU fabric
/// (learners in a group share a device or PCIe switch).
pub(crate) const LOCAL_FABRIC_SPEEDUP: f64 = 8.0;

/// Two-level SASGD over `groups × per_group` learners.
pub(crate) struct HierarchicalStrategy {
    groups: usize,
    per_group: usize,
    t_local: usize,
    t_global: usize,
    gamma_p: GammaP,
    /// One parameter copy per group (level-1 state).
    group_x: Vec<Vec<f32>>,
    /// Level-1 rounds since the last level-2 averaging.
    local_rounds: usize,
    local_ar: f64,
    global_ar: f64,
}

impl HierarchicalStrategy {
    pub(crate) fn new(
        groups: usize,
        per_group: usize,
        t_local: usize,
        t_global: usize,
        gamma_p: GammaP,
    ) -> Self {
        assert!(groups >= 1 && per_group >= 1, "need at least one learner");
        assert!(t_local >= 1 && t_global >= 1, "intervals must be positive");
        HierarchicalStrategy {
            groups,
            per_group,
            t_local,
            t_global,
            gamma_p,
            group_x: Vec::new(),
            local_rounds: 0,
            local_ar: 0.0,
            global_ar: 0.0,
        }
    }
}

impl AggregationStrategy for HierarchicalStrategy {
    fn p(&self) -> usize {
        self.groups * self.per_group
    }

    fn sync_interval(&self) -> usize {
        self.t_local
    }

    fn history_interval(&self) -> usize {
        self.t_local * self.t_global
    }

    fn setup(&mut self, _factory: &mut dyn FnMut() -> Model, x0: &[f32], cfg: &TrainConfig) -> f64 {
        let m = x0.len();
        self.group_x = (0..self.groups).map(|_| x0.to_vec()).collect();
        self.local_ar = cfg.cost.allreduce_tree(m, self.per_group).seconds / LOCAL_FABRIC_SPEEDUP;
        self.global_ar = cfg.cost.allreduce_tree(m, self.groups).seconds;
        cfg.cost.broadcast(m, self.p())
    }

    fn sync(&mut self, learners: &mut [Learner], gamma_now: f32, _history: &mut History) {
        let gp = self.gamma_p.resolve(gamma_now, self.per_group);
        level1(
            learners,
            &mut self.group_x,
            self.groups,
            self.per_group,
            gp,
            self.local_ar,
        );
        self.local_rounds += 1;
        if self.local_rounds == self.t_global {
            level2(learners, &mut self.group_x, self.per_group, self.global_ar);
            self.local_rounds = 0;
        }
    }

    fn staleness(&self, syncs: u64) -> Option<StalenessStats> {
        let bound = (self.t_local * self.t_global) as f64;
        Some(StalenessStats {
            mean: bound,
            max: bound as u64,
            pushes: syncs,
        })
    }
}

/// Level-1: per-group barrier + allreduce of `gs`, group step, resync.
fn level1(
    learners: &mut [Learner],
    group_x: &mut [Vec<f32>],
    groups: usize,
    per_group: usize,
    gamma_p: f32,
    local_ar_seconds: f64,
) {
    for g in 0..groups {
        let members = &mut learners[g * per_group..(g + 1) * per_group];
        let t_max = members.iter().map(|l| l.clock).fold(0.0_f64, f64::max);
        // Binomial-tree-order sum of the members' gs, then the group step.
        aggregate_dense(&mut group_x[g], gamma_p, members);
        for l in members.iter_mut() {
            let wait = t_max - l.clock;
            l.charge_comm(wait + local_ar_seconds);
        }
    }
}

/// Level-2: global barrier + model averaging across the group copies.
fn level2(
    learners: &mut [Learner],
    group_x: &mut [Vec<f32>],
    per_group: usize,
    global_ar_seconds: f64,
) {
    let groups = group_x.len();
    let t_max = learners.iter().map(|l| l.clock).fold(0.0_f64, f64::max);
    let m = group_x[0].len();
    let mut avg = vec![0.0f32; m];
    for gx in group_x.iter() {
        for (a, &b) in avg.iter_mut().zip(gx) {
            *a += b / groups as f32;
        }
    }
    for gx in group_x.iter_mut() {
        gx.copy_from_slice(&avg);
    }
    for (id, l) in learners.iter_mut().enumerate() {
        let wait = t_max - l.clock;
        l.charge_comm(wait + global_ar_seconds);
        l.model
            .params_mut()
            .copy_from_slice(&group_x[id / per_group]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    fn quiet_cfg(epochs: usize, gamma: f32) -> TrainConfig {
        let mut cfg = TrainConfig::new(epochs, 8, gamma, 42);
        cfg.jitter = JitterModel::none();
        cfg
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
}
