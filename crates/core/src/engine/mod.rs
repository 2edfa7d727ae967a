//! The unified execution engine.
//!
//! Every distributed algorithm in this crate is the composition of the
//! *same* learner loop with a different aggregation rule. This module
//! factors that observation into code:
//!
//! * `AggregationStrategy` — the pluggable aggregation rule. A strategy
//!   declares its cadence (lockstep or event-driven), its sync interval,
//!   and implements the handful of hooks where algorithms actually differ:
//!   what a local step does, what happens at a sync point, what model is
//!   evaluated, and what the final parameters are.
//! * [`simulated`] — the virtual-time backend. Runs any strategy over the
//!   `sasgd-simnet` cost model with deterministic virtual clocks,
//!   reproducing the pre-engine per-algorithm implementations
//!   element-for-element (pinned by `tests/engine_golden.rs`).
//! * the threaded backend — one OS thread per learner, measuring
//!   wall-clock time and actual wire traffic. [`rank::run_rank`] is the one
//!   per-rank loop (two step walks: lockstep epochs, event-driven blocks);
//!   an `exchange` per algorithm is the only place algorithms differ on
//!   the wire (`sasgd-comm` collectives, or the parameter server); the
//!   `threaded` harness builds the world, spawns the ranks and merges
//!   their histories.
//! * [`Executor`] — the public entry point selecting a [`Backend`].
//!
//! The simulated aggregation arithmetic deliberately mirrors the wire
//! collectives' reduction order (binomial tree, rank-ordered averaging),
//! so synchronous strategies produce bitwise-identical parameters on both
//! backends.

use std::collections::VecDeque;
use std::time::Duration;

use sasgd_comm::fault::FaultPlan;
use sasgd_data::{make_shards, Dataset, Shard};
use sasgd_nn::Model;

use sasgd_comm::sparse::{SparseLevelProfile, SparseVec};

use crate::history::{History, StalenessStats, WireStats};
use crate::schedule::SyncPolicy;
use crate::trainer::{Learner, TrainConfig};

mod exchange;
pub mod rank;
pub mod simulated;
mod threaded;

/// How a strategy's learners advance relative to each other. Every
/// strategy declares a *default* cadence; [`TrainConfig::cadence`] can
/// override it per run, and every strategy executes under either value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cadence {
    /// All learners take a step, then the engine checks the sync policy —
    /// the bulk-synchronous execution the paper's Algorithm 1 describes.
    Lockstep,
    /// Learners run free on their own virtual clocks and reach sync points
    /// one at a time in `(completion time, rank)` order.
    EventDriven,
}

/// What a sync point touches under the event-driven cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommScope {
    /// One learner exchanges with shared state (a parameter server or
    /// center variable) without waiting for peers — Downpour, EAMSGD.
    Individual,
    /// All learners rendezvous for a collective (allreduce / averaging) —
    /// SASGD, Local SGD, DaSGD, hierarchical, model averaging.
    Collective,
}

/// Per-round context handed to
/// `AggregationStrategy::should_communicate`.
#[derive(Clone, Copy, Debug)]
pub struct RoundCtx {
    /// Local steps taken since the last communication.
    pub steps_since_sync: usize,
    /// The sync policy's interval currently in force.
    pub current_t: usize,
    /// Global sync rounds completed so far (0 before the first sync) —
    /// adaptive compression schedules key their telemetry off this.
    pub round: u64,
}

/// A strategy's verdict on whether this round communicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommDecision {
    /// Keep taking local steps.
    Continue,
    /// Run the aggregation now.
    Communicate,
}

/// The pluggable aggregation rule the engine composes with its learner
/// loop. Default implementations encode the most common behaviour
/// (sequential-SGD-like); each algorithm overrides only where it differs.
///
/// Every strategy executes under both cadences. Lockstep uses
/// [`sync`](AggregationStrategy::sync) and friends; the event-driven loops
/// use [`on_local_step`](AggregationStrategy::on_local_step),
/// [`should_communicate`](AggregationStrategy::should_communicate) driven
/// by the strategy's [`SyncPolicy`], and — for
/// [`CommScope::Individual`] strategies —
/// [`event_sync`](AggregationStrategy::event_sync) against shared state.
/// Strategy state that is global in the simulated world (the shared
/// parameter vector, a parameter server, a center variable, error-feedback
/// residuals) lives inside the strategy.
#[allow(unused_variables)] // default hook bodies ignore their arguments
#[allow(clippy::too_many_arguments)] // hooks carry the full step context
pub(crate) trait AggregationStrategy {
    /// Display label matching the paper's plot legends.
    fn label(&self) -> String;

    /// Number of learners.
    fn p(&self) -> usize;

    /// Default execution cadence ([`TrainConfig::cadence`] overrides it).
    fn cadence(&self) -> Cadence {
        Cadence::Lockstep
    }

    /// What a sync point touches under the event-driven cadence.
    fn comm_scope(&self) -> CommScope {
        CommScope::Collective
    }

    /// Local steps between sync points (`0` = never sync).
    fn sync_interval(&self) -> usize {
        0
    }

    /// The T schedule driving this strategy's communication. The default
    /// is the fixed interval every paper algorithm uses; adaptive
    /// strategies return a policy built from a
    /// [`TSchedule`](crate::schedule::TSchedule) instead.
    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::fixed(self.sync_interval())
    }

    /// Decide whether this round communicates. The default mirrors the
    /// classic counter: communicate exactly when `steps_since_sync`
    /// reaches the policy's interval (never when the interval is 0).
    fn should_communicate(&mut self, ctx: RoundCtx) -> CommDecision {
        if ctx.current_t >= 1 && ctx.steps_since_sync >= ctx.current_t {
            CommDecision::Communicate
        } else {
            CommDecision::Continue
        }
    }

    /// End-of-round scalar the [`SyncPolicy`] adapts on (lower = better;
    /// e.g. Local SGD's average-displacement norm). `None` = no signal,
    /// the policy never adapts.
    fn sync_signal(&mut self) -> Option<f32> {
        None
    }

    /// Observe learner `id`'s measured staleness `tau` at a sync point and
    /// return the learning rate to apply for the update. The default
    /// returns `gamma` unchanged; staleness-aware strategies scale it
    /// (γ/(1+τ)).
    fn observe_staleness(&mut self, id: usize, tau: u64, gamma: f32) -> f32 {
        gamma
    }

    /// Staleness a collective-scope strategy imposes by construction
    /// (DaSGD applies the round-`k` average one round late, so 1; plain
    /// collectives apply fresh state, so 0).
    fn collective_tau(&self) -> u64 {
        0
    }

    /// Aggregation interval reported in [`History`].
    fn history_interval(&self) -> usize {
        self.sync_interval().max(1)
    }

    /// Partition the training data across learners.
    fn shards(&self, train: &Dataset, cfg: &TrainConfig) -> Vec<Shard> {
        make_shards(train, self.p(), cfg.shard_strategy)
    }

    /// Whether lockstep epochs truncate to the smallest shard's
    /// whole-minibatch count (bulk-synchrony needs aligned step counts);
    /// `false` lets every learner walk its full shard, ragged tails
    /// included.
    fn lockstep_truncates(&self) -> bool {
        true
    }

    /// One-time initialization once all replicas share `x0`. `factory`
    /// builds extra replicas if the strategy needs them. Returns the
    /// per-learner initial communication charge (e.g. the `x0` broadcast).
    fn setup(&mut self, factory: &mut dyn FnMut() -> Model, x0: &[f32], cfg: &TrainConfig) -> f64 {
        0.0
    }

    /// Fractional epoch fed to the γ schedule at a lockstep step.
    fn gamma_epoch(&self, epoch: usize, step: usize, steps: usize) -> f64 {
        (epoch - 1) as f64 + step as f64 / steps as f64
    }

    /// One local minibatch (lockstep cadence).
    fn local_step(
        &mut self,
        l: &mut Learner,
        id: usize,
        data: &Dataset,
        idx: &[usize],
        gamma: f32,
        step_s: f64,
        jitter: f64,
    ) {
        l.local_step(data, idx, gamma, step_s, jitter);
    }

    /// Global sync across all learners; compression telemetry goes into
    /// `history` (the sparsity series, the sparse tree's level profile).
    fn sync(&mut self, learners: &mut [Learner], gamma_now: f32, history: &mut History) {}

    /// End-of-epoch bookkeeping, before the epoch record is taken (e.g.
    /// refresh an averaged evaluation replica, charge a one-shot
    /// reduction).
    fn epoch_end(&mut self, learners: &mut [Learner], epoch: usize, cfg: &TrainConfig) {}

    /// The model evaluated for epoch records.
    fn eval_model<'a>(&'a mut self, learners: &'a mut [Learner]) -> &'a mut Model {
        &mut learners[0].model
    }

    /// Staleness summary given the number of sync points executed
    /// (lockstep; the event engine measures staleness directly).
    fn staleness(&self, syncs: u64) -> Option<StalenessStats> {
        None
    }

    /// Wire-traffic accounting for the simulated backend, given the
    /// number of sync points executed and the level profile its sparse
    /// aggregations recorded.
    fn wire(&self, syncs: u64, sparse_levels: &SparseLevelProfile) -> Option<WireStats> {
        None
    }

    /// Final parameters reported in [`History`].
    fn final_params(&mut self, learners: &[Learner]) -> Vec<f32> {
        learners[0].model.params().to_vec()
    }

    /// One local minibatch (event-driven cadence; virtual time is the
    /// engine's job, so no step cost or jitter is passed). The default
    /// applies the gradient locally, exactly like a lockstep local step.
    fn on_local_step(
        &mut self,
        l: &mut Learner,
        id: usize,
        data: &Dataset,
        idx: &[usize],
        gamma: f32,
    ) {
        l.local_step(data, idx, gamma, 0.0, 1.0);
    }

    /// Sync learner `id` against the shared state
    /// ([`CommScope::Individual`] strategies only; collective-scope
    /// strategies aggregate through
    /// [`sync`](AggregationStrategy::sync) instead).
    fn event_sync(&mut self, l: &mut Learner, id: usize, gamma: f32) {}
}

/// Binomial-tree reduction of per-rank buffers, in place, in the exact
/// gap-doubling order of the wire collective (`sasgd-comm`'s
/// `allreduce_tree`), so the simulated sum is bitwise the threaded sum. The
/// total lands in `bufs[0]`; the other buffers are left holding the
/// partial sums they forwarded.
pub(crate) fn tree_reduce<B: AsMut<[f32]>>(bufs: &mut [B]) {
    let p = bufs.len();
    let mut gap = 1;
    while gap < p {
        let mut i = 0;
        while i + gap < p {
            let (lo, hi) = bufs.split_at_mut(i + gap);
            for (a, b) in lo[i].as_mut().iter_mut().zip(hi[0].as_mut().iter()) {
                *a += b;
            }
            i += 2 * gap;
        }
        gap *= 2;
    }
}

/// The dense global step of Algorithm 1 in one pass: `x ← x − γp·gs`, the
/// replica restarts from the common `x`, and `gs` (holding the allreduced
/// total) is cleared for the next interval.
// hot-path: once per round, in place
pub(crate) fn global_step(x: &mut [f32], gp: f32, gs: &mut [f32], params: &mut [f32]) {
    for ((xi, g), p) in x.iter_mut().zip(gs).zip(params) {
        *xi -= gp * *g;
        *p = *xi;
        *g = 0.0;
    }
}

/// One uncompressed aggregation over a simulated cohort sharing `x`: the
/// learners' `gs` summed in place in the wire collective's order (the
/// total lands in learner 0's), the fused [`global_step`] there, and every
/// other learner restarted from the common `x`.
pub(crate) fn aggregate_dense(x: &mut [f32], gp: f32, learners: &mut [Learner]) {
    let mut gs: Vec<&mut [f32]> = learners.iter_mut().map(|l| &mut l.gs[..]).collect();
    tree_reduce(&mut gs);
    let (first, rest) = learners.split_first_mut().expect("at least one learner");
    global_step(x, gp, &mut first.gs, first.model.params_mut());
    for l in rest {
        l.model.params_mut().copy_from_slice(x);
        l.gs.fill(0.0);
    }
}

/// The sum an allreduce left on every rank, in the form it arrived in.
pub(crate) enum Total {
    /// Every coordinate.
    Dense(Vec<f32>),
    /// The union of the ranks' kept coordinates (the sparse tree's result).
    Sparse(SparseVec),
}

impl Total {
    /// The global step `x ← x − γp·total`. The sparse arm touches only the
    /// total's own indices and is bitwise the dense loop over
    /// `to_dense()` for any finite `γp ≥ 0`: an absent coordinate is
    /// `+0.0` there, and `x − γp·(+0.0) = x` — signed zeros included.
    // hot-path: once per round, O(nnz) on the sparse arm
    pub(crate) fn step(&self, x: &mut [f32], gp: f32) {
        match self {
            Total::Dense(total) => {
                for (xi, &g) in x.iter_mut().zip(total) {
                    *xi -= gp * g;
                }
            }
            Total::Sparse(total) => {
                for (&i, &g) in total.idx.iter().zip(&total.val) {
                    x[i as usize] -= gp * g;
                }
            }
        }
    }
}

/// Whole minibatches in the smallest shard: what bulk-synchronous epochs
/// truncate to, and the block size of never-syncing event-driven rounds.
pub(crate) fn min_whole_batches(shards: &[Shard], batch: usize) -> usize {
    let whole = shards.iter().map(|s| s.len() / batch).min();
    whole.expect("at least one shard")
}

/// Squared L2 distance between two parameter vectors, folded sequentially
/// in f32 — the Local-SGD plateau signal, computed identically on both
/// backends so adaptive-T decisions replay exactly.
pub(crate) fn delta_sq_norm(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .fold(0.0f32, |acc, (x, y)| acc + (x - y) * (x - y))
}

/// `cur ← prev + (cur − snap)`: DaSGD's delayed average `prev` re-based
/// onto the local progress made since the snapshot `snap` — one formula for
/// both backends.
pub(crate) fn rebase(cur: &mut [f32], prev: &[f32], snap: &[f32]) {
    for ((c, &pv), &s0) in cur.iter_mut().zip(prev).zip(snap) {
        *c = pv + (*c - s0);
    }
}

/// Fractional collective epoch fed to the γ schedule by the event-driven
/// *collective* loops: nominal system-wide progress after `steps_done`
/// per-rank steps of `batch` samples across `p` ranks over an `n`-sample
/// dataset. Rank-independent by construction, so every rank resolves the
/// same γ for a given round on either backend.
pub(crate) fn event_gamma_epoch(steps_done: u64, batch: usize, p: usize, n: usize) -> f64 {
    (steps_done * batch as u64 * p as u64) as f64 / n as f64
}

/// Fault-injection configuration for [`Executor::try_run_ft`].
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// The deterministic fault plan (crashes, stalls, message drops).
    pub plan: FaultPlan,
    /// Failure-detection deadline: how long a learner waits on a peer
    /// before treating it as lost. Trades detection latency against
    /// false-positive evictions of stragglers.
    pub deadline: Duration,
}

impl Default for FaultConfig {
    /// No injected faults, half-second detection deadline.
    fn default() -> Self {
        FaultConfig {
            plan: FaultPlan::none(),
            deadline: Duration::from_millis(500),
        }
    }
}

/// Typed error from [`Executor::try_run`] — either a configuration
/// problem caught before any learner state exists, or a wire failure a
/// threaded run could not degrade around.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The requested cadence/backend combination has no execution path —
    /// e.g. forcing a parameter-server strategy to lockstep on the
    /// threaded backend, where no bulk-synchronous PS exchange exists. The
    /// simulated backend executes every strategy under either cadence, so
    /// only explicit [`TrainConfig::cadence`] overrides on the threaded
    /// backend can produce this.
    UnsupportedCadence {
        /// Label of the offending strategy.
        label: String,
    },
    /// The algorithm has no exchange for what was asked of it: a fault plan
    /// needs SASGD's armed gradient tree (flat SASGD, compressed or not, on
    /// the threaded backend), and a parameter-server algorithm needs a
    /// world with shard ranks after its learners (and no other algorithm
    /// has a use for extra ranks).
    UnsupportedExchange {
        /// Label of the offending algorithm.
        label: String,
        /// What the caller asked the algorithm to run over.
        wanted: &'static str,
    },
    /// A communication operation failed in a way the run cannot survive
    /// (e.g. the recovery coordinator's own collective failed). Ranks that
    /// *can* degrade — evicted or orphaned non-coordinators — retire into
    /// [`History::retirements`](crate::history::History) instead of
    /// raising this.
    WireFailure {
        /// The rank whose operation failed.
        rank: usize,
        /// Global sync round (1-based) of the failing collective; `0` for
        /// failures outside the sync loop (e.g. the `x0` broadcast).
        round: u64,
        /// The underlying error's rendering.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnsupportedCadence { label } => write!(
                f,
                "no execution path for strategy `{label}` at the requested cadence \
                 on the selected backend"
            ),
            EngineError::UnsupportedExchange { label, wanted } => {
                write!(f, "algorithm `{label}` has no exchange over {wanted}")
            }
            EngineError::WireFailure {
                rank,
                round,
                detail,
            } => write!(
                f,
                "wire failure on rank {rank} at sync round {round}: {detail}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Build the strategy implementing `algo`.
pub(crate) fn strategy_for(algo: &crate::algorithms::Algorithm) -> Box<dyn AggregationStrategy> {
    use crate::algorithms::*;
    match *algo {
        Algorithm::Sequential => Box::new(sequential::SequentialStrategy::new()),
        Algorithm::Sasgd {
            p,
            t,
            gamma_p,
            compression,
        } => Box::new(sasgd::SasgdStrategy::new(p, t, gamma_p, compression)),
        Algorithm::HierarchicalSasgd {
            groups,
            per_group,
            t_local,
            t_global,
            gamma_p,
        } => Box::new(hierarchical::HierarchicalStrategy::new(
            groups, per_group, t_local, t_global, gamma_p,
        )),
        Algorithm::Downpour {
            p,
            t,
            staleness_gamma,
        } => Box::new(downpour::DownpourStrategy::new(p, t, staleness_gamma)),
        Algorithm::Eamsgd {
            p,
            t,
            moving_rate,
            momentum,
            staleness_gamma,
        } => Box::new(eamsgd::EamsgdStrategy::new(
            p,
            t,
            moving_rate,
            momentum,
            staleness_gamma,
        )),
        Algorithm::LocalSgd { p, schedule } => {
            Box::new(local_sgd::LocalSgdStrategy::new(p, schedule))
        }
        Algorithm::DelayedAvg { p, t } => Box::new(dasgd::DaSgdStrategy::new(p, t)),
        Algorithm::ModelAverageOnce { p } => Box::new(averaging::AveragingStrategy::new(p)),
    }
}

/// Which substrate executes the learner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Virtual clocks over the `sasgd-simnet` cost model; deterministic
    /// and bit-reproducible under a seed.
    Simulated,
    /// One OS thread per learner over `sasgd-comm` collectives / parameter
    /// server; wall-clock timing and measured wire traffic.
    Threaded,
}

/// Runs any [`Algorithm`](crate::Algorithm) on a chosen [`Backend`]
/// through the unified engine.
///
/// ```
/// use sasgd_core::{Algorithm, Backend, Executor, TrainConfig};
/// use sasgd_data::cifar_like::{generate, CifarLikeConfig};
/// use sasgd_nn::models;
/// use sasgd_tensor::SeedRng;
///
/// let (train, test) = generate(&CifarLikeConfig::tiny(48, 16, 2));
/// let cfg = TrainConfig::new(1, 8, 0.05, 42);
/// let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
/// let algo = Algorithm::sasgd(2, 1, sasgd_core::GammaP::OverP);
/// let sim = Executor::new(Backend::Simulated).run(&factory, &train, &test, &algo, &cfg);
/// let thr = Executor::new(Backend::Threaded).run(&factory, &train, &test, &algo, &cfg);
/// assert_eq!(sim.final_params, thr.final_params);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    backend: Backend,
}

impl Executor {
    /// An executor for `backend`.
    pub fn new(backend: Backend) -> Self {
        Executor { backend }
    }

    /// The backend this executor drives.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Run `algo` on the executor's backend. The factory must produce
    /// identically initialized models on every call (close over a fixed
    /// seed); on the threaded backend it is called from learner threads.
    ///
    /// # Panics
    /// Panics on a misconfigured strategy or an unsurvivable wire failure,
    /// naming the backend, the algorithm, and — for wire failures — the
    /// failing rank and sync round; use [`Executor::try_run`] for the
    /// typed error.
    pub fn run(
        &self,
        factory: &(dyn Fn() -> Model + Sync),
        train_set: &Dataset,
        test_set: &Dataset,
        algo: &crate::algorithms::Algorithm,
        cfg: &TrainConfig,
    ) -> History {
        self.try_run(factory, train_set, test_set, algo, cfg)
            .unwrap_or_else(|e| panic!("{:?} backend running {algo:?}: {e}", self.backend))
    }

    /// [`Executor::run`] with the error typed: a cadence/backend
    /// combination with no execution path is a typed [`EngineError`]
    /// before any thread or learner state exists, and threaded wire
    /// failures surface instead of panicking.
    pub fn try_run(
        &self,
        factory: &(dyn Fn() -> Model + Sync),
        train_set: &Dataset,
        test_set: &Dataset,
        algo: &crate::algorithms::Algorithm,
        cfg: &TrainConfig,
    ) -> Result<History, EngineError> {
        self.execute(factory, train_set, test_set, algo, cfg, None)
    }

    /// [`Executor::try_run`] under the fault-tolerance layer: scripted
    /// crash/stall/drop injection from `faults.plan`, deadline failure
    /// detection, and graceful degradation onto the survivors (the
    /// binomial tree is rebuilt over `p' < p` ranks and `γp` rescales).
    /// With [`FaultPlan::none`] the run is bitwise [`Executor::try_run`]'s;
    /// with faults it is bitwise reproducible for the same plan.
    /// Membership changes land in [`History::membership`]; learners that
    /// left mid-run (evicted, or cut off by a survivable wire failure) in
    /// [`History::retirements`]. The one unsurvivable case — a wire
    /// failure under the recovery coordinator, rank 0 — is
    /// [`EngineError::WireFailure`]; anything but flat SASGD (compressed or
    /// not) on the threaded backend is [`EngineError::UnsupportedExchange`].
    pub fn try_run_ft(
        &self,
        factory: &(dyn Fn() -> Model + Sync),
        train_set: &Dataset,
        test_set: &Dataset,
        algo: &crate::algorithms::Algorithm,
        cfg: &TrainConfig,
        faults: &FaultConfig,
    ) -> Result<History, EngineError> {
        self.execute(factory, train_set, test_set, algo, cfg, Some(faults))
    }

    fn execute(
        &self,
        factory: &(dyn Fn() -> Model + Sync),
        train_set: &Dataset,
        test_set: &Dataset,
        algo: &crate::algorithms::Algorithm,
        cfg: &TrainConfig,
        faults: Option<&FaultConfig>,
    ) -> Result<History, EngineError> {
        let has_ft_exchange = self.backend == Backend::Threaded
            && matches!(algo, crate::algorithms::Algorithm::Sasgd { .. });
        if faults.is_some() && !has_ft_exchange {
            return Err(EngineError::UnsupportedExchange {
                label: algo.label(),
                wanted: "the fault-tolerant threaded backend",
            });
        }
        Ok(match self.backend {
            Backend::Simulated => {
                let mut f = || factory();
                simulated::run_auto(&mut *strategy_for(algo), &mut f, train_set, test_set, cfg)
            }
            Backend::Threaded => threaded::run(factory, train_set, test_set, algo, cfg, faults)?,
        })
    }
}

/// A per-learner infinite minibatch stream over that learner's data shard
/// (reshuffled every pass). Shared by the event-driven engine and the
/// threaded asynchronous backend.
pub(crate) struct BatchStream {
    pending: VecDeque<Vec<usize>>,
    indices: Vec<usize>,
    batch: usize,
    /// Completed shard passes.
    pub(crate) passes: u64,
}

impl BatchStream {
    pub(crate) fn new(indices: Vec<usize>, batch: usize) -> Self {
        assert!(!indices.is_empty(), "learner shard is empty (p > n?)");
        BatchStream {
            pending: VecDeque::new(),
            indices,
            batch,
            passes: 0,
        }
    }

    /// Next minibatch of indices, reshuffling when a pass completes.
    pub(crate) fn next(&mut self, rng: &mut sasgd_tensor::SeedRng) -> Vec<usize> {
        if self.pending.is_empty() {
            let mut order = self.indices.clone();
            rng.shuffle(&mut order);
            self.pending = order.chunks(self.batch).map(<[usize]>::to_vec).collect();
            self.passes += 1;
        }
        self.pending.pop_front().expect("refilled stream")
    }

    /// Passes completed (a pass counts once its last batch is consumed).
    pub(crate) fn completed_passes(&self) -> u64 {
        if self.pending.is_empty() {
            self.passes
        } else {
            self.passes.saturating_sub(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_tensor::SeedRng;

    #[test]
    fn batch_stream_passes_count_on_consumption() {
        let mut rng = SeedRng::new(1);
        let mut s = BatchStream::new((0..10).collect(), 4);
        assert_eq!(s.completed_passes(), 0);
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.extend(s.next(&mut rng)); // 4 + 4 + 2 consumes one pass
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(s.completed_passes(), 1);
        let _ = s.next(&mut rng);
        assert_eq!(s.completed_passes(), 1, "mid-pass");
    }

    #[test]
    fn sparse_step_is_bitwise_the_dense_step_over_to_dense() {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Signed-zero and ordinary parameters, under an entry, under a
        // cancelled sum the tree kept as an explicit zero, and untouched.
        let x0 = [-0.0f32, 0.0, 1.5, -0.0, -2.25, 0.0, -0.0, 3.0e-39];
        let mut sum = SparseVec::from_dense(&[0.0, 0.0, 0.0, -2.0, 4.0, 0.0, 1.0, 7.0]);
        sum.add_assign(&SparseVec::from_dense(&[
            0.0, 0.5, 0.0, 2.0, 0.0, 0.0, -1.0, 0.0,
        ]));
        assert_eq!(sum.val, [0.5, 0.0, 4.0, 0.0, 7.0], "explicit zeros in play");
        for total in [sum, SparseVec::empty(8)] {
            for gp in [0.0f32, 0.025, 1.0, 3.0e38] {
                let (mut dense, mut sparse) = (x0, x0);
                Total::Dense(total.to_dense()).step(&mut dense, gp);
                Total::Sparse(total.clone()).step(&mut sparse, gp);
                assert_eq!(bits(&sparse), bits(&dense), "γp = {gp}, total {total:?}");
            }
        }
    }
}
