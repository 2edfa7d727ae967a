//! The unified execution engine.
//!
//! Every distributed algorithm in this crate is the composition of the
//! *same* learner loop with a different aggregation rule, and every one of
//! them communicates: sequential SGD is SASGD at `p = 1`, `T = 1`, `γp = γ`,
//! and one-shot averaging is SASGD with the interval stretched to the whole
//! run. This module factors that observation into code:
//!
//! * [`rank::run_rank`] — the one per-rank loop (two step walks: lockstep
//!   epochs, event-driven blocks); an `exchange` per algorithm is the only
//!   place algorithms differ on the wire (`sasgd-comm` collectives, or the
//!   parameter server). The loop reads the time off a clock its backend
//!   hands it.
//! * the threaded backend — one OS thread per rank over the in-process
//!   world, wall-clock time and the world's traffic counters; the
//!   `threaded` harness builds the world, spawns the ranks and merges their
//!   histories.
//! * [`simulated`] — the virtual-time backend: the same harness, loop and
//!   exchanges, over endpoints that price every message on the
//!   `sasgd-simnet` link model and a clock that advances by the cost
//!   model's minibatch time; deterministic and bit-reproducible under a
//!   seed. Only the parameter-server algorithms still run there as an
//!   `AggregationStrategy` on one event loop, ordered by `(completion time,
//!   rank)`.
//! * [`Executor`] — the public entry point selecting a [`Backend`].
//!
//! Two rules shared by both backends follow from the inputs alone: a
//! lockstep epoch truncates to whole minibatches only when there are peers
//! to align with ([`lockstep_steps`]), and a fixed interval `T = 0` is one
//! round after the run's last step ([`interval_in_force`]).
//!
//! A collective algorithm has one definition, so its `final_params`, round
//! structure, telemetry and wire traffic are the same on both backends by
//! construction; only the clocks differ.

use std::collections::VecDeque;
use std::time::Duration;

use sasgd_comm::fault::FaultPlan;
use sasgd_comm::sparse::SparseVec;
use sasgd_data::{Dataset, Shard};
use sasgd_nn::Model;

use crate::history::History;
use crate::schedule::TSchedule;
use crate::trainer::{Learner, TrainConfig};

mod exchange;
pub mod rank;
pub mod simulated;
mod threaded;

/// How an algorithm's learners advance relative to each other. Every
/// algorithm has a *default* cadence; [`TrainConfig::cadence`] can
/// override it per run. The collectives execute under either value, the
/// parameter-server algorithms only event-driven.
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
    /// SASGD at every lattice point, hierarchical SASGD.
    Collective,
}

/// A parameter-server algorithm's rule on the simulated backend's event
/// loop (`simulated::run_event_individual`), which keeps the server's
/// state in the strategy and steps every learner on one thread. The
/// collective algorithms have no strategy: both backends run them as their
/// `Exchange` over a wire.
#[allow(unused_variables)] // default hook bodies ignore their arguments
pub(crate) trait AggregationStrategy {
    /// Start the shared state from the common `x0`.
    fn setup(&mut self, x0: &[f32]);

    /// Observe a learner's measured staleness `tau` at a sync point and
    /// return the rate to apply for its update: `gamma` unless the
    /// strategy scales it (γ/(1+τ)).
    fn observe_staleness(&mut self, tau: u64, gamma: f32) -> f32 {
        gamma
    }

    /// One local minibatch: by default the local step of Algorithm 1.
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

    /// Sync learner `l` against the shared state at rate `gamma`.
    fn event_sync(&mut self, l: &mut Learner, gamma: f32);
}

/// The dense global step of Algorithm 1 in one pass, where a rank keeps
/// `x` and `gs` (a fixed `T ≠ 1`, a hierarchical group): `x ← x − γp·gs`,
/// the replica restarts from the common `x`, and `gs` (holding the
/// allreduced total) is cleared for the next interval. At `T = 1` the
/// total lands on `params` alone ([`descend`]; see [`Lattice::on_arena`]).
// hot-path: once per round, in place
pub(crate) fn global_step(x: &mut [f32], gp: f32, gs: &mut [f32], params: &mut [f32]) {
    for ((xi, g), p) in x.iter_mut().zip(gs).zip(params) {
        *xi -= gp * *g;
        *p = *xi;
        *g = 0.0;
    }
}

/// `x ← x − γp·total`, in place: how every dense total lands.
// hot-path: once per round, in place
pub(crate) fn descend(x: &mut [f32], gp: f32, total: &[f32]) {
    for (xi, &g) in x.iter_mut().zip(total) {
        *xi -= gp * g;
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
            Total::Dense(total) => descend(x, gp, total),
            Total::Sparse(total) => {
                for (&i, &g) in total.idx.iter().zip(&total.val) {
                    x[i as usize] -= gp * g;
                }
            }
        }
    }

    /// `‖γp·total‖²`, folded in f32 in index order: how far
    /// [`step`](Total::step) moves `x`, the adaptive schedule's plateau
    /// signal. The sparse fold over the stored entries is bitwise the dense
    /// fold, since an absent coordinate adds `+0.0`.
    pub(crate) fn displacement_sq(&self, gp: f32) -> f32 {
        let vals = match self {
            Total::Dense(total) => total,
            Total::Sparse(total) => &total.val,
        };
        vals.iter()
            .fold(0.0f32, |acc, &g| acc + (gp * g) * (gp * g))
    }
}

/// Minibatches per lockstep epoch (rule 1). Bulk-synchrony needs aligned
/// step counts, so with peers every learner's epoch truncates to the
/// smallest shard's whole-minibatch count; a lone learner has no peer to
/// align with and walks its ragged tail too.
pub(crate) fn lockstep_steps(shards: &[Shard], batch: usize) -> usize {
    match shards {
        [only] => only.len().div_ceil(batch),
        _ => shards.iter().map(|s| s.len() / batch).min().unwrap_or(0),
    }
}

/// Fractional epoch fed to the γ schedule at lockstep step `step` (0-based)
/// of `steps` in `epoch` (1-based).
pub(crate) fn lockstep_gamma_epoch(epoch: usize, step: usize, steps: usize) -> f64 {
    (epoch - 1) as f64 + step as f64 / steps as f64
}

/// The interval in force (rule 2): the policy's `t`, where `t = 0` stretches
/// it to the whole run of `run_steps` per-rank steps, so the one round
/// follows the run's last step (one-shot averaging).
pub(crate) fn interval_in_force(t: usize, run_steps: usize) -> usize {
    if t == 0 {
        run_steps
    } else {
        t
    }
}

/// `cur ← prev + (cur − snap)`: the shared `prev` re-based onto the local
/// progress made since the snapshot `snap` — one formula for both backends.
pub(crate) fn rebase(cur: &mut [f32], prev: &[f32], snap: &[f32]) {
    for ((c, &pv), &s0) in cur.iter_mut().zip(prev).zip(snap) {
        *c = pv + (*c - s0);
    }
}

/// Where a SASGD round sits on the averaging lattice, for one rank.
/// `delayed` (DaSGD) holds each round's total back one round: the previous
/// round's total lands on `x` instead, and the replica keeps its local
/// progress since its snapshot on top of the new `x`. An adaptive schedule
/// (Local SGD) reads the displacement of `x` as its plateau signal.
/// Algorithm 1 at `T = 1` needs neither `x` nor `gs`
/// ([`Lattice::on_arena`]).
pub(crate) struct Lattice {
    schedule: TSchedule,
    /// The replica's parameters when a total last landed (`delayed` only).
    snap: Option<Vec<f32>>,
    /// The previous round's total and its `γp`, not landed yet.
    pending: Option<(Total, f32)>,
    /// A landed dense total's buffer: the next `gs`.
    spare: Vec<f32>,
}

impl Lattice {
    pub(crate) fn new(schedule: TSchedule, delayed: bool, x0: &[f32]) -> Self {
        Lattice {
            schedule,
            snap: delayed.then(|| x0.to_vec()),
            pending: None,
            spare: Vec::new(),
        }
    }

    fn adaptive(&self) -> bool {
        matches!(self.schedule, TSchedule::AdaptivePlateau { .. })
    }

    /// Fixed `T`, no delay: the round is Algorithm 1's, with no extra pass
    /// or buffer.
    pub(crate) fn is_plain(&self) -> bool {
        !self.adaptive() && self.snap.is_none()
    }

    /// `Fixed { t: 1 }`, no delay — plain minibatch SGD over `p` ranks, and
    /// sequential SGD at `p = 1`. Every step is a round, so Algorithm 1's
    /// `x` is `params` at every step boundary and `gs` is the step's
    /// gradient: the round's payload is the model's gradient arena as
    /// `backward` left it, the total lands on `params`, and there is no
    /// local step, no `x` and no `gs`.
    pub(crate) fn on_arena(&self) -> bool {
        matches!(self.schedule, TSchedule::Fixed { t: 1 }) && self.snap.is_none()
    }

    /// The allreduced `gs` as this round's total; `gs` restarts from zeros.
    pub(crate) fn take_gs(&mut self, gs: &mut Vec<f32>) -> Total {
        let mut next = std::mem::take(&mut self.spare);
        next.clear();
        next.resize(gs.len(), 0.0);
        Total::Dense(std::mem::replace(gs, next))
    }

    /// Land a round's `total` (reduced at rate `gp`) on `x` and on the
    /// replica's `params`. Undelayed, this round's total lands and the
    /// replica restarts from `x`; delayed, the previous round's total lands
    /// and the replica is re-based onto `x`. Returns the plateau signal
    /// (adaptive only) if `x` moved.
    // hot-path: once per round, in place
    pub(crate) fn round(
        &mut self,
        x: &mut [f32],
        total: Total,
        gp: f32,
        params: &mut [f32],
    ) -> Option<f32> {
        let landed = match self.snap {
            Some(_) => self.pending.replace((total, gp)),
            None => Some((total, gp)),
        };
        let signal = landed.as_ref().and_then(|(total, gp)| {
            total.step(x, *gp);
            self.adaptive().then(|| total.displacement_sq(*gp))
        });
        match &mut self.snap {
            Some(snap) => {
                if landed.is_some() {
                    rebase(params, x, snap);
                }
                snap.copy_from_slice(params);
            }
            None => params.copy_from_slice(x),
        }
        // A landed dense buffer is the next `take_gs`'s; Algorithm 1's own
        // round (an 8-bit total, say) keeps none.
        if let (false, Some((Total::Dense(buf), _))) = (self.is_plain(), landed) {
            self.spare = buf;
        }
        signal
    }

    /// What a finished run reports: `params`, with a total still pending
    /// landed on them.
    pub(crate) fn final_params(&self, x: &[f32], mut params: Vec<f32>) -> Vec<f32> {
        if let (Some((total, gp)), Some(snap)) = (&self.pending, &self.snap) {
            let mut x = x.to_vec();
            total.step(&mut x, *gp);
            rebase(&mut params, &x, snap);
        }
        params
    }
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
    /// The requested cadence has no execution path: a parameter-server
    /// algorithm forced to lockstep, on either backend — no
    /// bulk-synchronous PS exchange exists. Only an explicit
    /// [`TrainConfig::cadence`] override can produce this.
    UnsupportedCadence {
        /// Label of the offending strategy.
        label: String,
    },
    /// The algorithm has no exchange for what was asked of it: a fault plan
    /// needs SASGD's armed gradient tree (flat SASGD in any configuration,
    /// on the threaded backend), and a parameter-server algorithm needs a
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

/// Which substrate executes the learner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The threaded backend's ranks on virtual clocks: each step costs the
    /// `sasgd-simnet` compute model's time, each message its link model's;
    /// deterministic and bit-reproducible under a seed.
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
    /// [`EngineError::WireFailure`]; anything but flat SASGD (compressed,
    /// adaptive or delayed too) on the threaded backend is
    /// [`EngineError::UnsupportedExchange`].
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
            && matches!(algo.resolved(), crate::algorithms::Algorithm::Sasgd { .. });
        if faults.is_some() && !has_ft_exchange {
            return Err(EngineError::UnsupportedExchange {
                label: algo.label(),
                wanted: "the fault-tolerant threaded backend",
            });
        }
        match self.backend {
            Backend::Simulated => simulated::run(algo, &mut || factory(), train_set, test_set, cfg),
            Backend::Threaded => threaded::run(factory, train_set, test_set, algo, cfg, faults),
        }
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
