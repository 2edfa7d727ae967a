//! The one threaded rank loop.
//!
//! Every algorithm on the threaded backend is the same loop — walk steps,
//! take a local step, run an exchange round when the walk says sync,
//! record when it says epoch — composed with one of two *step walks* and
//! one per-algorithm `Exchange` (`engine/exchange.rs`):
//!
//! * the **lockstep epoch walk**: epochs of aligned steps, a per-step γ,
//!   the since-last-sync counter carried across epochs, a record per epoch;
//! * the **event block walk**: `T`-minibatch blocks from an endless
//!   `BatchStream`, `T` from the strategy's [`SyncPolicy`], one γ per
//!   block, a record whenever the rank completes a pass over its shard.
//!
//! Both mirror the simulated backend's loops step for step and touch only
//! rank-local state, so every rank reaches its sync points after the same
//! number of steps (the collectives line up without a coordinator) and
//! `final_params` are bitwise the simulated backend's for the collective
//! exchanges at any `p` and for the parameter-server exchanges at `p = 1`.
//!
//! [`run_rank`] is the loop over any [`Transport`]: the threaded harness
//! drives it over in-process endpoints, the multi-process launcher over
//! sockets, the model checker over its controlled transport — same code,
//! same wire call order. Wire failures are typed, never panics. In a
//! parameter-server world the ranks after the learners run no loop at all:
//! each serves its shard of the parameters until the learners are done.

use std::time::Instant;

use sasgd_comm::ps_transport::{serve_shard, PsLayout};
use sasgd_comm::transport::Transport;
use sasgd_data::{Dataset, Shard};
use sasgd_nn::Model;
use sasgd_tensor::SeedRng;

use super::exchange::{connect, Round, WireError};
use super::{
    min_whole_batches, strategy_for, AggregationStrategy, BatchStream, Cadence, CommScope,
    EngineError, FaultConfig,
};
use crate::algorithms::Algorithm;
use crate::history::{History, StalenessStats};
use crate::schedule::SyncPolicy;
use crate::trainer::{EvalSets, Learner, TrainConfig};

/// One rank of `algo` over `comm`, a flat world of `algo.learners()`
/// learners — followed, for the parameter-server algorithms (Downpour,
/// EAMSGD), by at least one shard rank: every rank past the learners serves
/// its slice of `factory().params()` and returns a record-less
/// [`History`] whose `final_params` is that slice as the learners left it.
/// `factory` must produce identically initialized models on every rank.
/// Returns this rank's [`History`]; only rank 0's carries epoch records.
/// Every algorithm runs over one flat transport — hierarchical SASGD's
/// groups and leaders are memberships of it — but a parameter-server
/// algorithm needs its shard ranks ([`EngineError::UnsupportedExchange`]
/// otherwise).
pub fn run_rank<T: Transport>(
    comm: T,
    factory: &dyn Fn() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> Result<History, EngineError> {
    let cadence = supported_cadence(algo, cfg.cadence)?;
    drive(comm, None, factory, train_set, test_set, algo, cfg, cadence)
}

/// The cadence `algo` runs at on threads: `requested`, or the strategy's
/// default. The algorithms that default to event-driven (the asynchronous
/// parameter-server ones and the averaging lattice points) have no
/// lockstep exchange on threads; forcing one is a typed error (the
/// simulated backend executes every strategy under either cadence).
pub(crate) fn supported_cadence(
    algo: &Algorithm,
    requested: Option<Cadence>,
) -> Result<Cadence, EngineError> {
    let strategy = strategy_for(algo);
    let natural = strategy.cadence();
    match requested.unwrap_or(natural) {
        Cadence::Lockstep if natural == Cadence::EventDriven => {
            Err(EngineError::UnsupportedCadence {
                label: strategy.label(),
            })
        }
        cadence => Ok(cadence),
    }
}

/// `"SASGD(p=4,T=2)"` → `"SASGD-threaded(p=4,T=2)"`.
fn threaded_label(label: &str) -> String {
    match label.find('(') {
        Some(i) => format!("{}-threaded{}", &label[..i], &label[i..]),
        None => format!("{label}-threaded"),
    }
}

/// One local step handed out by a walk, and what follows it.
struct Step {
    idx: Vec<usize>,
    gamma: f32,
    /// Own-shard samples drawn so far, this step included.
    samples: u64,
    /// Run an exchange round after this step.
    sync: bool,
    /// This step closes an epoch: run the exchange's epoch hook.
    epoch_end: bool,
    /// Take an evaluation record labelled with this (fractional) epoch.
    record: Option<f64>,
}

/// A step walk: the order a rank takes its minibatches in, and where the
/// rounds, epoch boundaries and records fall between them. Draws the batch
/// order from the learner's stream and `T` from the policy in force.
type Walk<'a> = Box<dyn FnMut(&mut SeedRng, &SyncPolicy) -> Option<Step> + 'a>;

/// The lockstep epoch walk.
fn epoch_walk<'a>(
    shards: &'a [Shard],
    rank: usize,
    cfg: &'a TrainConfig,
    strategy: &'a dyn AggregationStrategy,
) -> Walk<'a> {
    let shard = &shards[rank];
    // Bulk-synchrony needs aligned step counts: truncate every rank's
    // epoch to the smallest shard's whole-minibatch count. Independent
    // learners walk their full shard, ragged tail included.
    let steps = if strategy.lockstep_truncates() {
        min_whole_batches(shards, cfg.batch_size)
    } else {
        shard.len().div_ceil(cfg.batch_size)
    };
    assert!(steps > 0, "shards too small for batch size");
    let (mut epoch, mut step, mut since_sync, mut samples) = (0usize, steps, 0usize, 0u64);
    let mut batches = None;
    Box::new(move |rng, policy| {
        if step == steps {
            if epoch == cfg.epochs {
                return None;
            }
            epoch += 1;
            step = 0;
            batches = Some(shard.epoch_iter(cfg.batch_size, rng));
        }
        let idx = batches.as_mut()?.next()?;
        // Same per-step schedule formula as the simulated backend, so
        // trajectories stay bitwise equal.
        let gamma = cfg.gamma_at(strategy.gamma_epoch(epoch, step, steps));
        step += 1;
        samples += idx.len() as u64;
        since_sync += 1;
        let t = policy.current_t();
        let sync = t >= 1 && since_sync >= t;
        if sync {
            since_sync = 0;
        }
        let last = step == steps;
        Some(Step {
            idx,
            gamma,
            samples,
            sync,
            epoch_end: last,
            record: last.then_some(epoch as f64),
        })
    })
}

/// The event block walk.
fn block_walk<'a>(
    shards: &[Shard],
    rank: usize,
    cfg: &'a TrainConfig,
    strategy: &dyn AggregationStrategy,
    n: usize,
) -> Walk<'a> {
    let p = strategy.p() as u64;
    let scope = strategy.comm_scope();
    // Never-syncing strategies (`T = 0`) run epoch-sized blocks.
    let epoch_block = min_whole_batches(shards, cfg.batch_size).max(1);
    let mut stream = BatchStream::new(shards[rank].indices().to_vec(), cfg.batch_size);
    // `T` and γ of the block in progress, and the steps left in it.
    let (mut t_now, mut gamma, mut left) = (0usize, 0.0f32, 0usize);
    // Nominal per-rank steps (the same on every rank) and drawn samples.
    let (mut steps_done, mut samples) = (0u64, 0u64);
    let (mut epochs_done, mut recorded_passes, mut done) = (0usize, 0u64, false);
    Box::new(move |rng, policy| {
        // System-wide samples the γ schedule and the stopping rule count.
        // Collective rounds count *nominal* progress (whole batches, the
        // same on every rank); a learner exchanging with shared state on
        // its own counts what it actually drew — each the simulated
        // backend's measure for that scope.
        let progress = |steps_done: u64, samples: u64| match scope {
            CommScope::Collective => steps_done * cfg.batch_size as u64 * p,
            CommScope::Individual => samples * p,
        };
        if left == 0 {
            if done {
                return None;
            }
            t_now = policy.current_t();
            left = if t_now >= 1 { t_now } else { epoch_block };
            // γ for the whole block, resolved from progress *before* it.
            gamma = cfg.gamma_at(progress(steps_done, samples) as f64 / n as f64);
        }
        let idx = stream.next(rng);
        samples += idx.len() as u64;
        steps_done += 1;
        left -= 1;
        let block_end = left == 0;
        let sync = block_end && t_now >= 1;
        let epoch_end = block_end && !sync;
        if sync {
            done = progress(steps_done, samples) >= (cfg.epochs * n) as u64;
        } else if epoch_end {
            epochs_done += 1;
            done = epochs_done >= cfg.epochs;
        }
        // A record per completed pass over the shard — and a final one even
        // if the run does not end on a pass boundary.
        let passes = stream.completed_passes();
        let record = (block_end && (passes > recorded_passes || done)).then(|| {
            recorded_passes = passes;
            (samples * p) as f64 / n as f64
        });
        Some(Step {
            idx,
            gamma,
            samples,
            sync,
            epoch_end,
            record,
        })
    })
}

/// The loop, over the world `comm` reaches this rank's peers through —
/// with SASGD's tree armed when `faults` rides along.
#[allow(clippy::too_many_arguments)] // the run's full context, passed once
pub(crate) fn drive<T: Transport>(
    mut comm: T,
    faults: Option<&FaultConfig>,
    factory: &dyn Fn() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
    cadence: Cadence,
) -> Result<History, EngineError> {
    let (strategy, rank) = (strategy_for(algo), comm.rank());
    let p = strategy.p();
    let failed = |round: u64| {
        move |e: WireError| EngineError::WireFailure {
            rank,
            round,
            detail: e.0,
        }
    };

    let label = threaded_label(&strategy.label());
    let mut history = History::new(label, p, strategy.history_interval());
    if rank >= p {
        if strategy.comm_scope() != CommScope::Individual {
            return Err(EngineError::UnsupportedExchange {
                label: algo.label(),
                wanted: "a world with more ranks than learners",
            });
        }
        // A parameter-server shard: no loop, no learner.
        let x0 = factory().params().to_vec();
        let layout = PsLayout {
            p,
            shards: comm.size() - p,
            dim: x0.len(),
        };
        let segment = serve_shard(&mut comm, &layout, &x0).map_err(|e| failed(0)(e.into()))?;
        history.final_params = Some(segment);
        return Ok(history);
    }

    let n = train_set.len();
    let shards = strategy.shards(train_set, cfg);
    let mut policy = strategy.sync_policy();
    let mut walk = match cadence {
        Cadence::Lockstep => epoch_walk(&shards, rank, cfg, &*strategy),
        Cadence::EventDriven => block_walk(&shards, rank, cfg, &*strategy, n),
    };
    let mut learner = Learner::new(rank, factory(), cfg);
    let mut exchange = connect(algo, comm, faults, &mut learner, factory)
        .map_err(failed(0))?
        .ok_or_else(|| EngineError::UnsupportedExchange {
            label: algo.label(),
            wanted: "the endpoint it was given",
        })?;
    let evals = (rank == 0).then(|| EvalSets::prepare(train_set, test_set, cfg.eval_cap));
    let (mut compute_s, mut comm_s) = (0.0f64, 0.0f64);
    let (mut gstep, mut syncs, mut epochs) = (0u64, 0u64, 0u64);
    let mut staleness_obs: Vec<u64> = Vec::new();

    while let Some(step) = walk(&mut learner.rng, &policy) {
        // Faults fire only here, never inside a collective, so degraded
        // runs replay bitwise.
        gstep += 1;
        if !exchange.step_boundary(gstep) {
            break;
        }
        let t0 = Instant::now();
        learner.compute_gradient(train_set, &step.idx);
        exchange.apply_local(&mut learner, step.gamma);
        compute_s += t0.elapsed().as_secs_f64();

        if step.sync {
            syncs += 1;
            let t1 = Instant::now();
            let round = Round {
                number: syncs,
                gamma: step.gamma,
                history: &mut history,
            };
            let outcome = exchange.round(&mut learner, round).map_err(failed(syncs))?;
            comm_s += t1.elapsed().as_secs_f64();
            if outcome.retired {
                break;
            }
            policy.observe_round(outcome.signal);
            if rank == 0 {
                // A collective's staleness is its strategy's, for every
                // rank alike; an exchange with shared state measured its
                // own.
                let (ids, (tau, rate)) = match outcome.staleness {
                    Some(measured) => (0..1, measured),
                    None => (0..p, (strategy.collective_tau(), step.gamma)),
                };
                for id in ids {
                    history.push_staleness(syncs - 1, id, tau, rate);
                    staleness_obs.push(tau);
                }
            }
        }
        if step.epoch_end {
            epochs += 1;
            let t1 = Instant::now();
            exchange.epoch_end(&mut learner).map_err(failed(epochs))?;
            comm_s += t1.elapsed().as_secs_f64();
        }
        if let (Some(epoch), Some(ev)) = (step.record, &evals) {
            let total = step.samples * exchange.survivors().unwrap_or(p) as u64;
            let model = exchange.eval_model(&mut learner);
            let record = ev.record(model, epoch, compute_s, comm_s, total);
            history.records.push(record);
        }
    }
    history.staleness = match cadence {
        Cadence::Lockstep => strategy.staleness(syncs),
        Cadence::EventDriven => StalenessStats::from_observations(&staleness_obs),
    };
    history.sync_rounds = syncs;
    history.final_params = Some(exchange.final_params(&learner));
    Ok(history)
}
