//! Analytic epoch-time model — the machinery behind Figs 1, 4, 5 and 6.
//!
//! Epoch time decomposes into per-minibatch compute (from the network's
//! MAC count), per-aggregation communication (from the topology model),
//! the bulk-synchronous straggler wait (estimated by deterministic Monte
//! Carlo over the jitter model), and fixed per-epoch overhead. Absolute
//! seconds are simulated-platform seconds; the paper's *shapes* — comm
//! share by workload, T-speedups, algorithm orderings — are the
//! reproduction targets.

use sasgd_nn::models;
use sasgd_simnet::{CostModel, JitterModel};
use sasgd_tensor::SeedRng;

/// A training workload: model size/FLOPs plus dataset geometry.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// Model parameters `m`.
    pub model_params: usize,
    /// Forward MACs per sample.
    pub macs_per_sample: u64,
    /// Minibatch size `M` used in the paper's timing runs.
    pub minibatch: usize,
    /// Training-set size `n`.
    pub train_samples: usize,
}

impl Workload {
    /// The CIFAR-10 workload: Table I network, M = 64, n = 50 000.
    pub fn cifar10() -> Self {
        let model = models::cifar_cnn(&mut SeedRng::new(0));
        Workload {
            name: "CIFAR-10",
            model_params: model.param_len(),
            macs_per_sample: model.macs_per_sample(),
            minibatch: 64,
            train_samples: 50_000,
        }
    }

    /// The NLC-F workload: Table II network, M = 11 (the paper's Fig 1
    /// batch), n = 2 500.
    pub fn nlc_f() -> Self {
        let model = models::nlc_net(20, &mut SeedRng::new(0));
        Workload {
            name: "NLC-F",
            model_params: model.param_len(),
            macs_per_sample: model.macs_per_sample(),
            minibatch: 11,
            train_samples: 2_500,
        }
    }
}

/// How gradients are aggregated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregation {
    /// No aggregation (sequential SGD).
    None,
    /// SASGD's tree allreduce.
    AllreduceTree,
    /// Downpour/EAMSGD parameter-server round trip.
    ParamServer,
}

/// Epoch-time decomposition for one learner.
#[derive(Clone, Copy, Debug)]
pub struct EpochTime {
    /// Minibatch computation seconds.
    pub compute_s: f64,
    /// Communication seconds (transfers plus synchronous wait).
    pub comm_s: f64,
    /// Fixed per-epoch overhead seconds.
    pub overhead_s: f64,
}

impl EpochTime {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.compute_s + self.comm_s + self.overhead_s
    }

    /// Fraction of compute+comm time spent communicating (the Fig 1
    /// quantity).
    pub fn comm_fraction(&self) -> f64 {
        let ct = self.compute_s + self.comm_s;
        if ct > 0.0 {
            self.comm_s / ct
        } else {
            0.0
        }
    }
}

/// Expected epoch time for one learner of `p`, aggregating every `t`
/// minibatches.
///
/// For the bulk-synchronous kinds the straggler wait is estimated with
/// 256 deterministic Monte Carlo rounds of the jitter model.
///
/// ```
/// use sasgd_core::epoch_time::{epoch_time, Aggregation, Workload};
/// use sasgd_simnet::{CostModel, JitterModel};
/// let cost = CostModel::paper_testbed();
/// let w = Workload::cifar10();
/// let t1 = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 1, &JitterModel::default(), 1);
/// let t50 = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 50, &JitterModel::default(), 1);
/// assert!(t50.total() < t1.total(), "larger T amortizes communication");
/// ```
pub fn epoch_time(
    cost: &CostModel,
    w: &Workload,
    kind: Aggregation,
    p: usize,
    t: usize,
    jitter: &JitterModel,
    seed: u64,
) -> EpochTime {
    assert!(p >= 1 && t >= 1);
    let mb_per_learner = w.train_samples / (p * w.minibatch);
    assert!(mb_per_learner > 0, "workload too small for p={p}");
    let step = cost.minibatch_compute(w.macs_per_sample, w.minibatch, p);
    let compute_s = mb_per_learner as f64 * step;
    // Aggregations per epoch can be fractional (one aggregation every
    // T minibatches straddles epoch boundaries when T > minibatches).
    let aggs = mb_per_learner as f64 / t as f64;
    let per_agg = match kind {
        Aggregation::None => 0.0,
        Aggregation::AllreduceTree => cost.allreduce_tree(w.model_params, p).seconds,
        Aggregation::ParamServer => cost.ps_roundtrip(w.model_params, p).seconds,
    };
    let wait = match kind {
        Aggregation::AllreduceTree if p > 1 => straggler_wait(step, p, t, jitter, seed),
        _ => 0.0,
    };
    EpochTime {
        compute_s,
        comm_s: aggs * (per_agg + wait),
        overhead_s: cost.epoch_overhead,
    }
}

/// Expected extra wait per aggregation: `E[max_i B_i] − E[B]` where `B_i`
/// is a learner's `t`-minibatch block time under jitter.
fn straggler_wait(step: f64, p: usize, t: usize, jitter: &JitterModel, seed: u64) -> f64 {
    const ROUNDS: usize = 256;
    let mut rng = SeedRng::new(seed).split(0x57A6);
    let speeds: Vec<f64> = (0..p).map(|id| jitter.learner_factor(id, seed)).collect();
    let mut total = 0.0;
    for _ in 0..ROUNDS {
        let mut max_b = 0.0f64;
        let mut mean_b = 0.0f64;
        for speed in &speeds {
            let mut b = 0.0;
            for _ in 0..t {
                b += step * speed * jitter.minibatch_factor(&mut rng);
            }
            max_b = max_b.max(b);
            mean_b += b / p as f64;
        }
        total += max_b - mean_b;
    }
    total / ROUNDS as f64
}

/// Speedup of a `p`-learner configuration over sequential SGD on the same
/// workload (the horizontal-line comparison of Figs 4 and 5).
pub fn speedup_over_sequential(
    cost: &CostModel,
    w: &Workload,
    kind: Aggregation,
    p: usize,
    t: usize,
    jitter: &JitterModel,
    seed: u64,
) -> f64 {
    let seq = epoch_time(cost, w, Aggregation::None, 1, 1, jitter, seed).total();
    let par = epoch_time(cost, w, kind, p, t, jitter, seed).total();
    seq / par
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CostModel, JitterModel) {
        (CostModel::paper_testbed(), JitterModel::default())
    }

    #[test]
    fn workload_constants_match_paper() {
        let c = Workload::cifar10();
        assert_eq!(c.model_params, models::CIFAR_CNN_PARAMS);
        let n = Workload::nlc_f();
        assert_eq!(n.model_params, models::NLC_NET_PARAMS);
        assert!(
            n.model_params > 3 * c.model_params,
            "NLC model is ~3.4× larger"
        );
    }

    #[test]
    fn fig4_shape_t50_faster_than_t1_cifar() {
        let (cost, jit) = setup();
        let w = Workload::cifar10();
        let t1 = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 1, &jit, 1).total();
        let t50 = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 50, &jit, 1).total();
        let ratio = t1 / t50;
        assert!((1.1..2.5).contains(&ratio), "paper: ≈1.3×; got {ratio}");
    }

    #[test]
    fn fig5_shape_t50_much_faster_than_t1_nlc() {
        let (cost, jit) = setup();
        let w = Workload::nlc_f();
        let t1 = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 1, &jit, 1).total();
        let t50 = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 50, &jit, 1).total();
        let ratio = t1 / t50;
        assert!(
            ratio > 3.0,
            "paper: ≈9.7×; communication-bound workload, got {ratio}"
        );
    }

    #[test]
    fn fig6_shape_sasgd_beats_ps_at_t1_similar_at_t50() {
        let (cost, jit) = setup();
        for w in [Workload::cifar10(), Workload::nlc_f()] {
            let sasgd1 = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 1, &jit, 1).total();
            let ps1 = epoch_time(&cost, &w, Aggregation::ParamServer, 8, 1, &jit, 1).total();
            assert!(sasgd1 < ps1, "{}: SASGD T=1 {sasgd1} vs PS {ps1}", w.name);
            let sasgd50 = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 50, &jit, 1).total();
            let ps50 = epoch_time(&cost, &w, Aggregation::ParamServer, 8, 50, &jit, 1).total();
            let rel = (ps50 - sasgd50) / sasgd50;
            assert!(
                rel < 0.25,
                "{}: at T=50 epoch times converge, rel {rel}",
                w.name
            );
        }
    }

    #[test]
    fn speedup_is_sublinear_but_real() {
        let (cost, jit) = setup();
        for (w, lo, hi) in [
            (Workload::cifar10(), 2.5, 8.0),
            (Workload::nlc_f(), 2.5, 8.0),
        ] {
            let s = speedup_over_sequential(&cost, &w, Aggregation::AllreduceTree, 8, 50, &jit, 1);
            assert!(
                (lo..hi).contains(&s),
                "{}: speedup {s} (paper: 4.45 / 5.35)",
                w.name
            );
        }
    }

    #[test]
    fn straggler_wait_grows_with_p_and_shrinks_per_step_with_t() {
        let jit = JitterModel::default();
        let w2 = straggler_wait(0.01, 2, 10, &jit, 1);
        let w16 = straggler_wait(0.01, 16, 10, &jit, 1);
        assert!(w16 > w2, "more learners, longer max");
        // Relative wait per minibatch falls with T (averaging effect).
        let r1 = straggler_wait(0.01, 8, 1, &jit, 1) / (0.01 * 1.0);
        let r50 = straggler_wait(0.01, 8, 50, &jit, 1) / (0.01 * 50.0);
        assert!(r50 < r1, "relative straggler cost amortizes: {r50} vs {r1}");
    }

    #[test]
    fn no_jitter_no_wait() {
        let jit = JitterModel::none();
        assert!(straggler_wait(0.01, 8, 5, &jit, 1).abs() < 1e-12);
    }
}
