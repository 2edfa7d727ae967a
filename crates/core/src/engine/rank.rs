//! The one rank loop.
//!
//! Every algorithm, on both backends, is the same loop — each learner walks
//! epochs over its own shard, takes a local step per minibatch, runs an
//! exchange round every `T` steps and records once per epoch — composed
//! with one per-algorithm `Exchange` (`engine/exchange.rs`). `T` comes
//! from the algorithm's [`SyncPolicy`](crate::SyncPolicy); `T = 0` is one
//! round after the run's last step. Two rules follow from the algorithm,
//! not from a setting:
//!
//! * an epoch truncates to the smallest shard's whole-minibatch count only
//!   when rounds are collective and there are peers to align with; a lone
//!   learner, like one exchanging with a parameter server, walks its whole
//!   shard, ragged tail included;
//! * [`History::staleness`] is the τ a parameter-server exchange measured,
//!   and otherwise the interval each round ran, in steps.
//!
//! The walk touches only rank-local state, so a collective's ranks reach
//! their sync points after the same number of steps (the collectives line
//! up without a coordinator), and nothing in it depends on how ranks
//! interleave.
//!
//! The loop reads the time off a `Clock` its backend supplies: wall time
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
use sasgd_data::{make_shards, Dataset};
use sasgd_nn::Model;
use sasgd_simnet::JitterModel;

use super::exchange::{connect, Round, WireError};
use super::{EngineError, FaultConfig};
use crate::algorithms::Algorithm;
use crate::history::{History, StalenessStats};
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
    algo.check();
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
    )
}

/// `"SASGD(p=4,T=2)"` → `"SASGD-threaded(p=4,T=2)"`.
fn threaded_label(label: &str) -> String {
    match label.find('(') {
        Some(i) => format!("{}-threaded{}", &label[..i], &label[i..]),
        None => format!("{label}-threaded"),
    }
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
        if algo.ps_shards() == 0 {
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

    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let shard = &shards[rank];
    // Collective rounds need aligned step counts, so with peers every
    // learner's epoch truncates to the smallest shard's whole-minibatch
    // count; a learner exchanging on its own walks its ragged tail too.
    let collective = algo.ps_shards() == 0;
    let steps = match collective && p > 1 {
        true => shards
            .iter()
            .map(|s| s.len() / cfg.batch_size)
            .min()
            .unwrap_or(0),
        false => shard.len().div_ceil(cfg.batch_size),
    };
    assert!(steps > 0, "shards too small for batch size");
    let run_steps = cfg.epochs * steps;
    let mut policy = algo.sync_policy();
    // A hierarchical round is a `t_local` block; its staleness bound spans
    // `t_global` of them.
    let blocks = match *algo {
        Algorithm::HierarchicalSasgd { t_global, .. } => t_global,
        _ => 1,
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
    let (mut gstep, mut syncs, mut since_sync, mut samples) = (0u64, 0u64, 0usize, 0u64);
    let mut measured: Vec<u64> = Vec::new();

    'run: for epoch in 1..=cfg.epochs {
        let batches = shard.epoch_iter(cfg.batch_size, &mut learner.rng);
        for (step, idx) in batches.take(steps).enumerate() {
            // Faults fire only here, never inside a collective, so degraded
            // runs replay bitwise.
            gstep += 1;
            if !exchange.step_boundary(gstep) {
                break 'run;
            }
            // γ at this rank's fractional epoch.
            let gamma = cfg.gamma_at((epoch - 1) as f64 + step as f64 / steps as f64);
            compute_s += clock.compute(&mut learner, |l| {
                l.compute_gradient(train_set, &idx);
                exchange.apply_local(l, gamma);
            });
            samples += idx.len() as u64;
            since_sync += 1;
            // `T = 0` stretches the interval to the whole run.
            let t = match policy.current_t() {
                0 => run_steps,
                t => t,
            };
            if since_sync < t {
                continue;
            }
            since_sync = 0;
            syncs += 1;
            let round = Round {
                number: syncs,
                gamma,
                history: &mut history,
            };
            let (outcome, secs) = clock.round(|| exchange.round(&mut learner, round));
            let outcome = outcome.map_err(failed(syncs))?;
            comm_s += secs;
            if outcome.retired {
                break 'run;
            }
            policy.observe_round(outcome.signal);
            match outcome.staleness {
                // An exchange with shared state measured its own update.
                Some((tau, rate)) => {
                    history.push_staleness(syncs - 1, rank, tau, rate);
                    measured.push(tau);
                }
                // A collective's staleness is the interval the round ran,
                // in steps; its per-round τ is its algorithm's, for every
                // rank alike: rank 0 records it for all.
                None => {
                    measured.push((t * blocks) as u64);
                    if rank == 0 {
                        for id in 0..p {
                            history.push_staleness(syncs - 1, id, algo.collective_tau(), gamma);
                        }
                    }
                }
            }
        }
        if let Some(ev) = &evals {
            let total = samples * exchange.survivors().unwrap_or(p) as u64;
            let (model, carry) = (&mut learner.model, learner.carry);
            let record = ev.record(model, carry, epoch as f64, compute_s, comm_s, total);
            history.records.push(record);
        }
    }
    history.staleness = StalenessStats::from_observations(&measured);
    history.sync_rounds = syncs;
    history.final_params = Some(exchange.final_params(learner));
    Ok(history)
}
