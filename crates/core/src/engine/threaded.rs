//! The threaded harness: build the world an algorithm runs over, spawn one
//! OS thread per rank on the rank loop, merge what they return.
//!
//! One flat in-process world covers every algorithm: the learners —
//! hierarchical SASGD's groups are memberships of it — followed, for the
//! parameter-server algorithms, by their shard ranks, optionally under a
//! scripted wire-fault schedule. [`History::wire`] is read from the
//! world's traffic counters — compressed gradients travel in the sparse
//! wire format, so the counters record genuinely fewer elements. The
//! simulated backend runs its collectives through the same
//! [`spawn_ranks`], over clocked endpoints of the same world.

use std::sync::Arc;

use sasgd_comm::world::{CommWorld, Communicator};
use sasgd_data::Dataset;
use sasgd_nn::Model;
use sasgd_tensor::parallel;

use super::rank::{drive, supported_cadence, Clock};
use super::{EngineError, FaultConfig};
use crate::algorithms::Algorithm;
use crate::history::{History, WireStats};
use crate::trainer::TrainConfig;

/// Join rank threads (handles in rank order).
///
/// # Panics
/// Panics after joining everything, naming each failed rank and its panic
/// message — one diagnostic for the whole world instead of a bare
/// "learner thread" unwrap on whichever handle happened to be joined first.
fn join_learners<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut ok = Vec::with_capacity(handles.len());
    let mut failed: Vec<String> = Vec::new();
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(v) => ok.push(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                failed.push(format!("rank {rank}: {msg}"));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "rank thread(s) panicked — {}",
        failed.join("; ")
    );
    ok
}

/// Spawn one thread per endpoint (in rank order) on `body`, each `width`
/// kernel workers wide, join them all, and merge: the lowest-rank error
/// wins (peers typically fail secondarily when the first casualty's
/// endpoint disappears mid-collective);
/// otherwise rank 0's history, with every rank's sparsity telemetry and
/// retirement account folded in and `wire` read from the traffic counters
/// once the world is quiet. Ranks that exchange `individually` (with a
/// parameter server, each at its own pace) ran their own rounds, so the
/// run's round count is the sum; collective rounds are everyone's at once.
pub(crate) fn spawn_ranks<E: Send>(
    endpoints: Vec<E>,
    body: impl Fn(usize, E) -> Result<History, EngineError> + Sync,
    individually: bool,
    width: usize,
    wire: impl FnOnce() -> WireStats,
) -> Result<History, EngineError> {
    let results = std::thread::scope(|scope| {
        let body = &body;
        let handles = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, endpoint)| {
                scope.spawn(move || parallel::with_width(width, || body(rank, endpoint)))
            })
            .collect();
        join_learners(handles)
    });
    let mut ranks = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let mut history = ranks.next().expect("at least one rank");
    let mut sparsity = std::mem::take(&mut history.sparsity_series);
    for peer in ranks {
        sparsity.extend(peer.sparsity_series);
        history.sparse_levels.merge(&peer.sparse_levels);
        history.retirements.extend(peer.retirements);
        if individually {
            history.sync_rounds += peer.sync_rounds;
        }
    }
    // Re-pushed in (round, rank) order, so the merged series is capped
    // where — and keeps the samples — the simulated backend's is.
    sparsity.sort_by_key(|s| (s.round, s.rank));
    for s in sparsity {
        history.push_sparsity(s.round, s.rank, s.k_eff, s.residual_norm);
    }
    history.retirements.sort_by_key(|r| (r.round, r.rank));
    history.wire = Some(wire());
    Ok(history)
}

/// Run `algo` with one OS thread per learner — under the fault-tolerance
/// layer when `faults` is given (the caller has checked the algorithm has
/// a fault-tolerant exchange). A cadence with no execution path is a typed
/// error before any thread exists.
pub(crate) fn run(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
    faults: Option<&FaultConfig>,
) -> Result<History, EngineError> {
    let cadence = supported_cadence(algo, cfg.cadence)?;
    let p = algo.learners();
    let rank_loop = |_, comm: Communicator| {
        let model = factory();
        drive(
            comm,
            Clock::Wall,
            faults,
            model,
            train_set,
            test_set,
            algo,
            cfg,
            cadence,
        )
    };
    // Downpour shards its server across as many ranks as it has learners;
    // EAMSGD's center variable is one shard.
    let shards = match algo {
        Algorithm::Downpour { .. } => p,
        Algorithm::Eamsgd { .. } => 1,
        _ => 0,
    };
    let mut world = CommWorld::new(p + shards);
    if let Some(schedule) = faults.and_then(|f| f.plan.wire_faults(p)) {
        world.set_faults(Arc::new(schedule));
    }
    let wire = wire_of(&world);
    // The compute threads this caller may use, shared evenly by the ranks:
    // oversubscribed worlds run the serial kernels.
    let width = parallel::width_for(p, shards);
    spawn_ranks(world.communicators(), rank_loop, shards > 0, width, wire)
}

/// What `world` will have carried once its ranks are done.
pub(crate) fn wire_of(world: &CommWorld) -> impl FnOnce() -> WireStats {
    let traffic = world.traffic();
    move || WireStats {
        elements: traffic.elements_sent(),
        messages: traffic.messages_sent(),
    }
}
