//! Compute and communication cost models.
//!
//! Every timing figure in the paper (Figs 1, 4, 5, 6) is regenerated from
//! this model: minibatch compute time comes from the network's actual
//! multiply–accumulate count divided by an effective GPU throughput (plus a
//! fixed kernel-launch overhead that dominates for the tiny NLC-F
//! minibatches), and aggregation time comes from the α–β link model of the
//! [`Topology`].

use crate::topology::Topology;

/// Bytes per parameter (`f32` gradients/parameters throughout).
pub const BYTES_PER_PARAM: f64 = 4.0;

/// Communication time of one gradient aggregation, broken out by algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommCost {
    /// Seconds one learner spends communicating per aggregation.
    pub seconds: f64,
    /// Total elements moved system-wide per aggregation.
    pub total_elements: f64,
}

/// The full platform cost model.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Link model.
    pub topology: Topology,
    /// Effective FLOP/s of one learner (K80-class, achieved not peak).
    pub gpu_flops: f64,
    /// Fixed per-minibatch overhead (kernel launches, framework) in
    /// seconds — dominates when minibatches are tiny (NLC-F uses M=11).
    pub minibatch_overhead: f64,
    /// Per-epoch fixed cost (input shuffling, accuracy pass) in seconds.
    pub epoch_overhead: f64,
    /// Slowdown of each learner's *compute* from sharing the host input
    /// pipeline with `p-1` peers: factor `1 + alpha*(p-1)`.
    pub input_contention: f64,
    /// FLOPs per multiply–accumulate.
    pub flops_per_mac: f64,
    /// Backward-pass cost relative to forward (weight grads + input
    /// grads ≈ 2× forward).
    pub backward_factor: f64,
}

impl CostModel {
    /// Calibrated model of the paper's testbed.
    pub fn paper_testbed() -> Self {
        CostModel {
            topology: Topology::paper_testbed(),
            gpu_flops: 1.5e12,
            minibatch_overhead: 6e-3,
            epoch_overhead: 0.02,
            input_contention: 0.06,
            flops_per_mac: 2.0,
            backward_factor: 2.0,
        }
    }

    /// Compute seconds for one minibatch of `batch` samples on a model
    /// with `macs_per_sample` forward MACs, with `p` learners active.
    pub fn minibatch_compute(&self, macs_per_sample: u64, batch: usize, p: usize) -> f64 {
        let fwd_flops = macs_per_sample as f64 * batch as f64 * self.flops_per_mac;
        let total = fwd_flops * (1.0 + self.backward_factor);
        let contention = 1.0 + self.input_contention * (p.saturating_sub(1)) as f64;
        self.minibatch_overhead + total * contention / self.gpu_flops
    }

    /// One tree allreduce of `m` parameters among `p` learners:
    /// `2·⌈log₂ p⌉` pipeline rounds over GPU links — the paper's
    /// `O(m log p)` collective.
    pub fn allreduce_tree(&self, m: usize, p: usize) -> CommCost {
        self.allreduce_tree_elements(m as f64, p)
    }

    /// Tree allreduce of a fractional element count — used to price
    /// compressed gradients (top-k / quantized payloads).
    pub fn allreduce_tree_elements(&self, elements: f64, p: usize) -> CommCost {
        if p <= 1 {
            return CommCost {
                seconds: 0.0,
                total_elements: 0.0,
            };
        }
        let rounds = 2.0 * (p as f64).log2().ceil();
        let bytes = elements * BYTES_PER_PARAM;
        CommCost {
            seconds: rounds * self.topology.gpu_link_time(bytes),
            total_elements: 2.0 * (p as f64 - 1.0) * elements,
        }
    }

    /// One ring allreduce of `m` parameters among `p` learners:
    /// `2(p−1)` rounds of `m/p` elements — bandwidth-optimal, more
    /// latency-bound (ablation).
    pub fn allreduce_ring(&self, m: usize, p: usize) -> CommCost {
        if p <= 1 {
            return CommCost {
                seconds: 0.0,
                total_elements: 0.0,
            };
        }
        let rounds = 2.0 * (p as f64 - 1.0);
        let bytes = m as f64 * BYTES_PER_PARAM / p as f64;
        CommCost {
            seconds: rounds * self.topology.gpu_link_time(bytes),
            total_elements: 2.0 * (p as f64 - 1.0) * m as f64 / p as f64 * p as f64,
        }
    }

    /// One parameter-server interaction (push `m` gradients up, pull `m`
    /// parameters down) for one learner while `p` learners share the host
    /// channel — the `O(m·p)` system traffic path.
    pub fn ps_roundtrip(&self, m: usize, p: usize) -> CommCost {
        let bytes = m as f64 * BYTES_PER_PARAM;
        CommCost {
            seconds: 2.0 * self.topology.host_link_time(bytes, p),
            total_elements: 2.0 * m as f64 * p as f64,
        }
    }

    /// Wall-clock model of one *degraded* fault-tolerant allreduce round
    /// among `p` learners of which `survivors` remain: confirming a dead
    /// rank costs one failure-detection `deadline_s` wait at its tree
    /// level, the recovery coordinator waits out a sweep window of
    /// `deadline_s · ⌈log₂ p⌉` for rerouted partials, and the repaired sum
    /// is redistributed to the `survivors − 1` non-coordinator ranks by
    /// direct sends of `m` elements. Matches the timing structure of the
    /// threaded backend's armed tree walk (leveled deadline windows, direct
    /// result distribution); a fault-free round costs nothing extra over
    /// [`CostModel::allreduce_tree`].
    pub fn recovery(&self, m: usize, p: usize, survivors: usize, deadline_s: f64) -> CommCost {
        assert!(survivors >= 1 && survivors <= p, "survivors out of range");
        if survivors == p || p <= 1 {
            return CommCost {
                seconds: 0.0,
                total_elements: 0.0,
            };
        }
        let levels = (p as f64).log2().ceil().max(1.0);
        let detection = deadline_s;
        let sweep = deadline_s * levels;
        let bytes = m as f64 * BYTES_PER_PARAM;
        let fanout = (survivors - 1) as f64;
        CommCost {
            seconds: detection + sweep + fanout * self.topology.gpu_link_time(bytes),
            total_elements: fanout * m as f64,
        }
    }

    /// Initial model broadcast to `p` learners (tree).
    pub fn broadcast(&self, m: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let bytes = m as f64 * BYTES_PER_PARAM;
        (p as f64).log2().ceil() * self.topology.gpu_link_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M_CIFAR: usize = 506_378;
    const M_NLC: usize = 1_733_511;

    #[test]
    fn allreduce_scales_logarithmically() {
        let c = CostModel::paper_testbed();
        let t2 = c.allreduce_tree(M_CIFAR, 2).seconds;
        let t8 = c.allreduce_tree(M_CIFAR, 8).seconds;
        let t16 = c.allreduce_tree(M_CIFAR, 16).seconds;
        assert!((t8 / t2 - 3.0).abs() < 1e-9, "log2(8)/log2(2) = 3");
        assert!((t16 / t2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ps_traffic_scales_linearly() {
        let c = CostModel::paper_testbed();
        let e2 = c.ps_roundtrip(M_CIFAR, 2).total_elements;
        let e8 = c.ps_roundtrip(M_CIFAR, 8).total_elements;
        assert!((e8 / e2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sasgd_beats_ps_per_aggregation() {
        // The paper's headline communication claim at p = 8.
        let c = CostModel::paper_testbed();
        for &m in &[M_CIFAR, M_NLC] {
            let ar = c.allreduce_tree(m, 8).seconds;
            let ps = c.ps_roundtrip(m, 8).seconds;
            assert!(ar < ps, "allreduce {ar} should beat PS {ps} for m={m}");
        }
    }

    #[test]
    fn single_learner_needs_no_aggregation() {
        let c = CostModel::paper_testbed();
        assert_eq!(c.allreduce_tree(M_CIFAR, 1).seconds, 0.0);
        assert_eq!(c.broadcast(M_CIFAR, 1), 0.0);
        // PS roundtrip still nonzero: Downpour with p=1 still talks to the
        // server (Fig 1 shows ~20 % comm at one learner).
        assert!(c.ps_roundtrip(M_CIFAR, 1).seconds > 0.0);
    }

    #[test]
    fn tiny_batches_are_overhead_bound() {
        let c = CostModel::paper_testbed();
        // NLC-ish MACs, minibatch 11: overhead comparable to math time.
        let t = c.minibatch_compute(9_000_000, 11, 1);
        assert!(t < 2.0 * c.minibatch_overhead + 1e-3);
        // CIFAR-ish MACs, minibatch 64: math dominates.
        let t2 = c.minibatch_compute(44_000_000, 64, 1);
        assert!(t2 > 2.0 * c.minibatch_overhead);
    }

    #[test]
    fn recovery_is_deadline_dominated_and_scales() {
        let c = CostModel::paper_testbed();
        // Fault-free rounds cost nothing extra.
        assert_eq!(c.recovery(M_CIFAR, 8, 8, 0.5).seconds, 0.0);
        let r8 = c.recovery(M_CIFAR, 8, 7, 0.5);
        let r16 = c.recovery(M_CIFAR, 16, 15, 0.5);
        assert!(r16.seconds > r8.seconds, "deeper tree, longer sweep");
        // The detection deadline dominates the redistribution traffic.
        assert!(r8.seconds > 0.5, "at least one deadline wait");
        let fast = c.recovery(M_CIFAR, 8, 7, 0.05);
        assert!(
            fast.seconds < r8.seconds,
            "shorter deadline, faster recovery"
        );
        assert_eq!(r8.total_elements, 6.0 * M_CIFAR as f64);
    }

    #[test]
    fn compute_grows_with_contention() {
        let c = CostModel::paper_testbed();
        assert!(c.minibatch_compute(44_000_000, 64, 8) > c.minibatch_compute(44_000_000, 64, 1));
    }

    #[test]
    fn fig1_shape_downpour_comm_share() {
        // Communication share of Downpour epoch time (T=1):
        // CIFAR ≈ 20-40 %, NLC > 60 % — the Fig 1 qualitative shape.
        let c = CostModel::paper_testbed();
        let share = |macs: u64, batch: usize, m: usize, p: usize| {
            let comp = c.minibatch_compute(macs, batch, p);
            let comm = c.ps_roundtrip(m, p).seconds;
            comm / (comm + comp)
        };
        let cifar1 = share(44_000_000, 64, M_CIFAR, 1);
        let cifar8 = share(44_000_000, 64, M_CIFAR, 8);
        let nlc1 = share(9_000_000, 11, M_NLC, 1);
        assert!((0.1..0.45).contains(&cifar1), "cifar p=1 share {cifar1}");
        assert!(cifar8 > cifar1, "share grows with p");
        assert!(nlc1 > 0.6, "nlc share {nlc1}");
    }
}
