//! The simulated backend: the threaded backend's ranks on virtual clocks.
//!
//! A collective algorithm — every SASGD lattice point, hierarchical SASGD —
//! runs exactly as on threads: the same harness spawns one thread per rank
//! over the in-process world, and each runs the one rank loop and the
//! algorithm's `Exchange`. Two things differ, and neither touches the
//! arithmetic:
//!
//! * each endpoint is [`Clocked`]: a send charges the sender the hop's
//!   `gpu_link_time(bytes)` (÷ [`LOCAL_FABRIC_SPEEDUP`] inside a
//!   hierarchical group) and stamps the message with its arrival; a receive
//!   moves the receiver to `max(now, arrival)`. Barrier waits, stragglers
//!   and tree depth are read off the messages the code sends;
//! * the loop's clock is virtual: a step costs the cost model's
//!   `minibatch_compute × speed × jitter`, drawn from the learner's own
//!   jitter stream, and a delayed SASGD round waits only for the previous
//!   round's completion.
//!
//! The unarmed tree walk names every receive, so a rank's clock is a
//! function of the seed alone, whatever the thread schedule.
//!
//! The parameter-server algorithms (Downpour, EAMSGD) still run on one
//! event loop: each learner's next `T`-minibatch block is an event ordered
//! by `(completion time, rank)`; at each completion the engine applies the
//! strategy's local math and single-learner sync against shared state, so
//! gradient staleness emerges from the same speed variation a real cluster
//! has while staying bit-reproducible under a seed. Per-learner RNG streams
//! make the interleaving composable: a learner's batch order and dropout
//! draws depend only on its own stream.

use sasgd_comm::transport::{Clocked, Stamps, VirtualClock};
use sasgd_comm::world::CommWorld;
use sasgd_data::{make_shards, Dataset};
use sasgd_nn::Model;
use sasgd_simnet::cost::BYTES_PER_PARAM;
use sasgd_simnet::{RankQueue, VirtualTime};
use sasgd_tensor::parallel;

use super::rank::{drive, supported_cadence, Clock};
use super::threaded::{spawn_ranks, wire_of};
use super::{AggregationStrategy, BatchStream, CommScope, EngineError};
use crate::algorithms::downpour::DownpourStrategy;
use crate::algorithms::eamsgd::EamsgdStrategy;
use crate::algorithms::Algorithm;
use crate::history::{History, StalenessStats};
use crate::trainer::{EvalSets, Learner, TrainConfig};

/// Speed advantage of the intra-group fabric over the global GPU fabric
/// (hierarchical SASGD's groups share a device or PCIe switch).
pub(crate) const LOCAL_FABRIC_SPEEDUP: f64 = 8.0;

/// Run `algo` on the simulated backend, at its natural cadence unless
/// `cfg.cadence` overrides it. A collective's ranks share the caller's
/// compute threads evenly; the parameter-server event loop steps every
/// learner on this one thread, at the caller's whole budget.
pub(crate) fn run(
    algo: &Algorithm,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> Result<History, EngineError> {
    let cadence = supported_cadence(algo, cfg.cadence)?;
    if algo.comm_scope() == CommScope::Individual {
        let run = || run_event_individual(algo, factory, train_set, test_set, cfg);
        return Ok(parallel::with_width(parallel::budget(), run));
    }
    let p = algo.learners();
    let models: Vec<Model> = (0..p).map(|_| factory()).collect();
    let step_s = cfg
        .cost
        .minibatch_compute(models[0].macs_per_sample(), cfg.batch_size, p);
    let group = match algo {
        Algorithm::HierarchicalSasgd { per_group, .. } => *per_group,
        _ => 0,
    };
    let topology = cfg.cost.topology.clone();
    let stamps = Stamps::new(move |src, dst, elements| {
        let hop = topology.gpu_link_time(elements as f64 * BYTES_PER_PARAM);
        if group > 0 && src / group == dst / group {
            hop / LOCAL_FABRIC_SPEEDUP
        } else {
            hop
        }
    });
    let delayed = matches!(algo, Algorithm::Sasgd { delayed: true, .. });
    let mut world = CommWorld::new(p);
    let wire = wire_of(&world);
    let ranks = world.communicators().into_iter().zip(models);
    let ranks: Vec<_> = ranks
        .map(|(comm, model)| {
            let now = VirtualClock::default();
            let clock = Clock::Virtual {
                now: now.clone(),
                step_s,
                jitter: cfg.jitter.clone(),
                landed: delayed.then_some(0.0),
            };
            (Clocked::new(comm, now, stamps.clone()), clock, model)
        })
        .collect();
    let rank_loop = |_, (comm, clock, model)| {
        drive(
            comm, clock, None, model, train_set, test_set, algo, cfg, cadence,
        )
    };
    let width = parallel::width_for(p, 0);
    let mut history = spawn_ranks(ranks, rank_loop, false, width, wire)?;
    history.label = algo.label();
    Ok(history)
}

/// The parameter-server event loop: `algo`'s learners around its
/// strategy's shared state, one block completion at a time.
fn run_event_individual(
    algo: &Algorithm,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> History {
    let mut strategy: Box<dyn AggregationStrategy> = match *algo {
        Algorithm::Downpour {
            staleness_gamma, ..
        } => Box::new(DownpourStrategy::new(staleness_gamma)),
        Algorithm::Eamsgd {
            p,
            moving_rate,
            momentum,
            staleness_gamma,
            ..
        } => Box::new(EamsgdStrategy::new(
            p,
            moving_rate,
            momentum,
            staleness_gamma,
        )),
        _ => unreachable!("only the parameter-server algorithms exchange individually"),
    };
    let s = &mut *strategy;
    let (p, t) = (algo.learners(), algo.interval());
    let mut history = History::new(algo.label(), p, t);
    let mut learners: Vec<Learner> = (0..p).map(|id| Learner::new(id, factory(), cfg)).collect();
    let m = learners[0].model.param_len();
    let macs = learners[0].model.macs_per_sample();
    s.setup(learners[0].model.params());

    let evals = EvalSets::prepare(train_set, test_set, cfg.eval_cap);
    let n = train_set.len();
    let step_s = cfg.cost.minibatch_compute(macs, cfg.batch_size, p);
    let comm_round = cfg.cost.ps_roundtrip(m, p).seconds;
    let target_samples = (cfg.epochs as u64) * (n as u64);

    let mut streams: Vec<BatchStream> = make_shards(train_set, p, cfg.shard_strategy)
        .into_iter()
        .map(|sh| BatchStream::new(sh.indices().to_vec(), cfg.batch_size))
        .collect();
    // Events ordered by (completion time, rank): the pop sequence is a
    // pure function of the virtual clocks, never of scheduling history.
    let mut queue: RankQueue<f64> = RankQueue::new();
    for (id, l) in learners.iter_mut().enumerate() {
        let dur = block_duration(l, t, step_s, cfg);
        queue.push(VirtualTime(dur), id, 0.0);
    }

    let mut samples = 0u64;
    let mut recorded_passes = 0u64;
    let mut rounds = 0u64;
    // Staleness bookkeeping: how many shared-state updates landed between
    // a learner's pull and its next push.
    let mut shared_version = 0u64;
    let mut pulled_version = vec![0u64; p];
    let mut staleness_obs: Vec<u64> = Vec::new();

    while let Some((tv, id, start)) = queue.pop() {
        // The block's math: T local minibatches against the state pulled
        // at the previous sync.
        let gamma_now = cfg.gamma_at(samples as f64 / n as f64);
        for _ in 0..t {
            let idx = {
                let l = &mut learners[id];
                streams[id].next(&mut l.rng)
            };
            samples += idx.len() as u64;
            s.on_local_step(&mut learners[id], id, train_set, &idx, gamma_now);
        }
        {
            let l = &mut learners[id];
            l.compute_s += tv.seconds() - start;
            l.clock = tv.seconds();
            let tau = shared_version - pulled_version[id];
            staleness_obs.push(tau);
            shared_version += 1;
            let gamma_eff = s.observe_staleness(tau, gamma_now);
            s.event_sync(l, gamma_eff);
            pulled_version[id] = shared_version;
            l.charge_comm(comm_round);
            history.push_staleness(rounds, id, tau, gamma_eff);
        }
        rounds += 1;
        // Record accuracy when learner 0 finishes a pass over its shard.
        if id == 0 && streams[0].completed_passes() > recorded_passes {
            recorded_passes = streams[0].completed_passes();
            let epoch = samples as f64 / n as f64;
            let (comp, comm) = (learners[0].compute_s, learners[0].comm_s);
            let rec = evals.record(&mut learners[0].model, epoch, comp, comm, samples);
            history.records.push(rec);
        }
        if samples < target_samples {
            let start = learners[id].clock;
            let dur = block_duration(&mut learners[id], t, step_s, cfg);
            queue.push(VirtualTime(start + dur), id, start);
        }
    }
    // Guarantee a final record even if learner 0 did not end on a pass
    // boundary.
    if history.records.is_empty() || history.records.last().expect("nonempty").samples < samples {
        let epoch = samples as f64 / n as f64;
        let (comp, comm) = (learners[0].compute_s, learners[0].comm_s);
        let rec = evals.record(&mut learners[0].model, epoch, comp, comm, samples);
        history.records.push(rec);
    }
    history.staleness = StalenessStats::from_observations(&staleness_obs);
    history.sync_rounds = rounds;
    history.final_params = Some(learners[0].model.params().to_vec());
    history
}

/// Duration of the next `t`-minibatch compute block (jitter drawn now so
/// completion order is known to the event queue up front).
fn block_duration(l: &mut Learner, t: usize, step_s: f64, cfg: &TrainConfig) -> f64 {
    let mut dur = 0.0;
    for _ in 0..t {
        dur += step_s * l.speed * l.draw_jitter(&cfg.jitter);
    }
    dur
}
