//! # sasgd-core
//!
//! The paper's contribution and its baselines:
//!
//! * [`algorithms`] — **SASGD** (Algorithm 1 of the paper: local steps with
//!   rate `γ`, gradient accumulation `gs`, allreduce every `T` minibatches,
//!   global step with rate `γp`), plus the comparison algorithms it is
//!   evaluated against: sequential SGD (SASGD at `p = 1`), synchronous SGD
//!   (`T = 1`), the model-averaging heuristics discussed in §III (one-shot
//!   averaging is SASGD's run-long interval), **Downpour** (asynchronous
//!   sharded parameter server) and **EAMSGD** (elastic averaging);
//! * [`trainer`] — the distributed trainer: real gradient
//!   math on model replicas, virtual-time accounting from the
//!   `sasgd-simnet` cost model, per-epoch accuracy histories;
//! * [`engine`] — the unified execution engine: every algorithm on the
//!   simulated backend and on real OS threads over `sasgd-comm` (one rank
//!   loop, [`run_rank`]; bitwise-equal to the simulated run for the
//!   collectives; used for wall-clock benches);
//! * [`epoch_time`] — the analytic epoch-time model behind Figs 1/4/5/6;
//! * [`theory`] — Section II/III mathematics: the Lian et al. ASGD bound
//!   (Eq. 1–2), Theorem 1's optimal-learning-rate cubic and guarantee gap,
//!   Theorem 2 / Corollary 3 / Theorem 4 for SASGD, and estimators for the
//!   Lipschitz constant `L` and gradient-variance bound `σ²`;
//! * [`history`] / [`report`] — experiment records, CSV output and ASCII
//!   plots.

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod compress;
pub mod engine;
pub mod epoch_time;
pub mod history;
pub mod report;
pub mod schedule;
pub mod sweep;
pub mod theory;
pub mod trainer;

pub use algorithms::{Algorithm, GammaP};
pub use compress::{Compression, KSchedule, KState};
pub use engine::rank::run_rank;
pub use engine::{Backend, EngineError, Executor, FaultConfig};
pub use history::{
    EpochRecord, History, MembershipEvent, RetirementEvent, SparsitySample, StalenessSample,
    StalenessStats, WireStats, MAX_SPARSITY_SAMPLES,
};
/// Per-tree-level wire profile types, re-exported from `sasgd-comm` so
/// embedders read [`History`] sparsity telemetry without a direct comm
/// dependency.
pub use sasgd_comm::sparse::{LevelStats, SparseLevelProfile};
/// Fault-injection plan types, re-exported from `sasgd-comm` so embedders
/// configure fault-tolerant runs without a direct comm dependency.
pub use sasgd_comm::{FaultEvent, FaultKind, FaultPlan};
pub use sasgd_data::ShardStrategy;
/// Intra-op width control for the compute kernels (re-exported from
/// `sasgd-tensor` so embedders cap the compute threads without a direct
/// tensor dep).
pub use sasgd_tensor::parallel;
pub use schedule::{LrSchedule, SyncPolicy, TSchedule};
pub use sweep::{run_sweep, SweepGrid, SweepResult};
pub use trainer::{train, TrainConfig};
