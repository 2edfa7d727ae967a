//! The one rank loop.
//!
//! Every algorithm on the threaded backend, and every collective one on
//! the simulated backend, is the same loop — walk steps, take a local step,
//! run an exchange round when the walk says sync, record when it says
//! epoch — composed with one of two *step walks* and one per-algorithm
//! `Exchange` (`engine/exchange.rs`):
//!
//! * the **lockstep epoch walk**: epochs of aligned steps, a per-step γ,
//!   the since-last-sync counter carried across epochs, a record per epoch;
//! * the **event block walk**: `T`-minibatch blocks from an endless
//!   `BatchStream`, `T` from the algorithm's [`SyncPolicy`], one γ per
//!   block and a round after it, a record whenever the rank completes a
//!   pass over its shard.
//!
//! On both walks `T = 0` is one round after the run's last step.
//!
//! Both walks touch only rank-local state, so every rank reaches its sync
//! points after the same number of steps (the collectives line up without
//! a coordinator), and no walk depends on how ranks interleave.
//!
//! The loop reads the time off a [`Clock`] its backend supplies: wall time
//! on threads, or virtual time, which a step advances by the cost model's
//! minibatch time and the rank's [`Clocked`](sasgd_comm::transport::Clocked)
//! endpoint advances through the wire.
//!
//! [`run_rank`] is the loop over any [`Transport`]: the threaded harness
//! drives it over in-process endpoints, the multi-process launcher over
//! sockets, the model checker over its controlled transport — same code,
//! same wire call order. Wire failures are typed, never panics. In a
//! parameter-server world the ranks after the learners run no loop at all:
//! each serves its shard of the parameters until the learners are done.

use std::time::Instant;

use sasgd_comm::ps_transport::{serve_shard, PsLayout};
use sasgd_comm::transport::{Transport, VirtualClock};
use sasgd_data::{make_shards, Dataset, Shard};
use sasgd_nn::Model;
use sasgd_simnet::JitterModel;
use sasgd_tensor::SeedRng;

use super::exchange::{connect, Round, WireError};
use super::{
    interval_in_force, lockstep_gamma_epoch, lockstep_steps, BatchStream, Cadence, CommScope,
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
    let model = factory();
    drive(
        comm,
        Clock::Wall,
        None,
        model,
        train_set,
        test_set,
        algo,
        cfg,
        cadence,
    )
}

/// The cadence `algo` runs at: `requested`, or the algorithm's default.
/// The algorithms that default to event-driven (the asynchronous
/// parameter-server ones) have no lockstep exchange; forcing one is a
/// typed error.
///
/// # Panics
/// On a malformed algorithm (no learner, no interval): before any rank
/// exists, so no peer is left waiting.
pub(crate) fn supported_cadence(
    algo: &Algorithm,
    requested: Option<Cadence>,
) -> Result<Cadence, EngineError> {
    algo.check();
    let natural = algo.cadence();
    match requested.unwrap_or(natural) {
        Cadence::Lockstep if natural == Cadence::EventDriven => {
            Err(EngineError::UnsupportedCadence {
                label: algo.label(),
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
    /// Take an evaluation record labelled with this (fractional) epoch.
    record: Option<f64>,
}

/// A step walk: the order a rank takes its minibatches in, and where the
/// rounds, epoch boundaries and records fall between them. Draws the batch
/// order from the learner's stream and `T` from the policy in force.
type Walk<'a> = Box<dyn FnMut(&mut SeedRng, &SyncPolicy) -> Option<Step> + 'a>;

/// The lockstep epoch walk.
fn epoch_walk<'a>(shards: &'a [Shard], rank: usize, cfg: &'a TrainConfig) -> Walk<'a> {
    let shard = &shards[rank];
    let steps = lockstep_steps(shards, cfg.batch_size);
    assert!(steps > 0, "shards too small for batch size");
    let run_steps = cfg.epochs * steps;
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
        let gamma = cfg.gamma_at(lockstep_gamma_epoch(epoch, step, steps));
        step += 1;
        samples += idx.len() as u64;
        since_sync += 1;
        let sync = since_sync >= interval_in_force(policy.current_t(), run_steps);
        if sync {
            since_sync = 0;
        }
        Some(Step {
            idx,
            gamma,
            samples,
            sync,
            record: (step == steps).then_some(epoch as f64),
        })
    })
}

/// The event block walk.
fn block_walk<'a>(
    shards: &[Shard],
    rank: usize,
    cfg: &'a TrainConfig,
    algo: &Algorithm,
    n: usize,
) -> Walk<'a> {
    let p = algo.learners() as u64;
    let scope = algo.comm_scope();
    let run_steps = (cfg.epochs * n).div_ceil(cfg.batch_size * algo.learners());
    let mut stream = BatchStream::new(shards[rank].indices().to_vec(), cfg.batch_size);
    // γ of the block in progress, and the steps left in it.
    let (mut gamma, mut left) = (0.0f32, 0usize);
    // Nominal per-rank steps (the same on every rank) and drawn samples.
    let (mut steps_done, mut samples) = (0u64, 0u64);
    let (mut recorded_passes, mut done) = (0u64, false);
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
            left = interval_in_force(policy.current_t(), run_steps);
            // γ for the whole block, resolved from progress *before* it.
            gamma = cfg.gamma_at(progress(steps_done, samples) as f64 / n as f64);
        }
        let idx = stream.next(rng);
        samples += idx.len() as u64;
        steps_done += 1;
        left -= 1;
        let sync = left == 0;
        if sync {
            done = progress(steps_done, samples) >= (cfg.epochs * n) as u64;
        }
        // A record per completed pass over the shard — and a final one even
        // if the run does not end on a pass boundary.
        let passes = stream.completed_passes();
        let record = (sync && (passes > recorded_passes || done)).then(|| {
            recorded_passes = passes;
            (samples * p) as f64 / n as f64
        });
        Some(Step {
            idx,
            gamma,
            samples,
            sync,
            record,
        })
    })
}

/// Where a rank's loop reads the time.
pub(crate) enum Clock {
    /// Wall time, as the rank's thread runs.
    Wall,
    /// Virtual time.
    Virtual {
        /// The rank's clock, shared with its clocked endpoint.
        now: VirtualClock,
        /// One minibatch's compute at unit speed and jitter.
        step_s: f64,
        /// The per-minibatch noise, drawn from the learner's jitter stream.
        jitter: JitterModel,
        /// Delayed SASGD: when this rank's previous round completed, the
        /// only round it waits for. `None`: every round is waited out.
        landed: Option<f64>,
    },
}

impl Clock {
    /// Run one minibatch's compute `work` on `l`; returns its seconds. A
    /// virtual step costs `step_s × speed × jitter`.
    fn compute(&mut self, l: &mut Learner, work: impl FnOnce(&mut Learner)) -> f64 {
        match self {
            Clock::Wall => {
                let t0 = Instant::now();
                work(l);
                t0.elapsed().as_secs_f64()
            }
            Clock::Virtual {
                now,
                step_s,
                jitter,
                ..
            } => {
                work(l);
                let dt = *step_s * l.speed * l.draw_jitter(jitter);
                now.advance(dt);
                dt
            }
        }
    }

    /// Run communication `work`; returns its result and seconds.
    fn comm<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64) {
        match self {
            Clock::Wall => {
                let t0 = Instant::now();
                let out = work();
                (out, t0.elapsed().as_secs_f64())
            }
            Clock::Virtual { now, .. } => {
                let t0 = now.now();
                let out = work();
                (out, now.now() - t0)
            }
        }
    }

    /// [`Clock::comm`] for a round: a delayed rank goes on once the
    /// previous round has completed, and this one completes behind it.
    fn round<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64) {
        let Clock::Virtual {
            now,
            landed: Some(landed),
            ..
        } = self
        else {
            return self.comm(work);
        };
        let t0 = now.now();
        let out = work();
        let done = now.now();
        now.set(t0.max(*landed));
        *landed = done;
        (out, now.now() - t0)
    }
}

/// The loop, over the world `comm` reaches this rank's peers through, on
/// `clock` — with SASGD's tree armed when `faults` rides along.
#[allow(clippy::too_many_arguments)] // the run's full context, passed once
pub(crate) fn drive<T: Transport>(
    mut comm: T,
    mut clock: Clock,
    faults: Option<&FaultConfig>,
    model: Model,
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
    cadence: Cadence,
) -> Result<History, EngineError> {
    let (p, rank) = (algo.learners(), comm.rank());
    let failed = |round: u64| {
        move |e: WireError| EngineError::WireFailure {
            rank,
            round,
            detail: e.0,
        }
    };

    let label = threaded_label(&algo.label());
    let mut history = History::new(label, p, algo.interval().max(1));
    if rank >= p {
        if algo.comm_scope() != CommScope::Individual {
            return Err(EngineError::UnsupportedExchange {
                label: algo.label(),
                wanted: "a world with more ranks than learners",
            });
        }
        // A parameter-server shard: no loop, no learner.
        let layout = PsLayout {
            p,
            shards: comm.size() - p,
            dim: model.param_len(),
        };
        let segment =
            serve_shard(&mut comm, &layout, model.params()).map_err(|e| failed(0)(e.into()))?;
        history.final_params = Some(segment);
        return Ok(history);
    }

    let n = train_set.len();
    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let mut policy = algo.sync_policy();
    let mut walk = match cadence {
        Cadence::Lockstep => epoch_walk(&shards, rank, cfg),
        Cadence::EventDriven => block_walk(&shards, rank, cfg, algo, n),
    };
    let mut learner = Learner::new(rank, model, cfg);
    let (exchange, mut comm_s) = clock.comm(|| connect(algo, comm, faults, &mut learner));
    let mut exchange =
        exchange
            .map_err(failed(0))?
            .ok_or_else(|| EngineError::UnsupportedExchange {
                label: algo.label(),
                wanted: "the endpoint it was given",
            })?;
    let evals = (rank == 0).then(|| EvalSets::prepare(train_set, test_set, cfg.eval_cap));
    let mut compute_s = 0.0f64;
    let (mut gstep, mut syncs) = (0u64, 0u64);
    let mut staleness_obs: Vec<u64> = Vec::new();

    while let Some(step) = walk(&mut learner.rng, &policy) {
        // Faults fire only here, never inside a collective, so degraded
        // runs replay bitwise.
        gstep += 1;
        if !exchange.step_boundary(gstep) {
            break;
        }
        compute_s += clock.compute(&mut learner, |l| {
            l.compute_gradient(train_set, &step.idx);
            exchange.apply_local(l, step.gamma);
        });

        if step.sync {
            syncs += 1;
            let round = Round {
                number: syncs,
                gamma: step.gamma,
                history: &mut history,
            };
            let (outcome, secs) = clock.round(|| exchange.round(&mut learner, round));
            let outcome = outcome.map_err(failed(syncs))?;
            comm_s += secs;
            if outcome.retired {
                break;
            }
            policy.observe_round(outcome.signal);
            if rank == 0 {
                // A collective's staleness is its algorithm's, for every
                // rank alike; an exchange with shared state measured its
                // own.
                let (ids, (tau, rate)) = match outcome.staleness {
                    Some(measured) => (0..1, measured),
                    None => (0..p, (algo.collective_tau(), step.gamma)),
                };
                for id in ids {
                    history.push_staleness(syncs - 1, id, tau, rate);
                    staleness_obs.push(tau);
                }
            }
        }
        if let (Some(epoch), Some(ev)) = (step.record, &evals) {
            let total = step.samples * exchange.survivors().unwrap_or(p) as u64;
            let record = ev.record(&mut learner.model, epoch, compute_s, comm_s, total);
            history.records.push(record);
        }
    }
    history.staleness = match cadence {
        Cadence::Lockstep => algo.lockstep_staleness(syncs),
        Cadence::EventDriven => StalenessStats::from_observations(&staleness_obs),
    };
    history.sync_rounds = syncs;
    history.final_params = Some(exchange.final_params(learner));
    Ok(history)
}
