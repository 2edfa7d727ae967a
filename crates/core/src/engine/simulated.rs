//! The simulated backend: one learner loop over virtual time.
//!
//! Three loop shapes cover every strategy × cadence combination:
//!
//! * **lockstep** — epochs of aligned steps; once the steps since the last
//!   round reach the interval in force (the strategy's
//!   [`SyncPolicy`](crate::schedule::SyncPolicy), `T = 0` stretched to the
//!   run), the engine hands the whole learner cohort to
//!   `AggregationStrategy::sync`. Barrier waits and aggregation costs are
//!   charged by the strategy through the learners' virtual clocks.
//! * **event-driven, individual scope** — each learner's next `T`-minibatch
//!   block is an event ordered by `(completion time, rank)`; at each
//!   completion the engine applies the strategy's local math and
//!   single-learner sync against shared state, so gradient staleness
//!   emerges from the same speed variation a real cluster has while
//!   staying bit-reproducible under a seed.
//! * **event-driven, collective scope** — learners run their `T`-step
//!   blocks (`T = 0`: one block, the whole run) on free virtual clocks, the
//!   engine pops completions in `(time, rank)` order, and each block ends
//!   in a collective rendezvous (allreduce / averaging). γ for a round is
//!   resolved from *nominal* system progress
//!   (`event_gamma_epoch`), identically on every rank and backend, so the
//!   trajectory is independent of completion interleaving and the
//!   threaded backend reproduces it bitwise.
//!
//! Per-learner RNG streams make the interleavings composable: a learner's
//! batch order and dropout draws depend only on its own stream, never on
//! how learners interleave.

use sasgd_data::{make_shards, Dataset};
use sasgd_nn::Model;
use sasgd_simnet::{RankQueue, VirtualTime};
use sasgd_tensor::parallel;

use super::{
    event_gamma_epoch, interval_in_force, lockstep_gamma_epoch, lockstep_steps, strategy_for,
    AggregationStrategy, BatchStream, Cadence, CommScope,
};
use crate::algorithms::Algorithm;
use crate::history::{History, StalenessStats};
use crate::trainer::{EvalSets, Learner, TrainConfig};

/// Run `algo` on the simulated backend, at its strategy's natural cadence
/// unless `cfg.cadence` overrides it. Every learner steps on this one OS
/// thread, so its kernels take the caller's whole budget of compute
/// threads.
pub(crate) fn run(
    algo: &Algorithm,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> History {
    let strategy = &mut *strategy_for(algo);
    let history = History::new(algo.label(), strategy.p(), strategy.history_interval());
    let cadence = cfg.cadence.unwrap_or_else(|| strategy.cadence());
    let run = match (cadence, strategy.comm_scope()) {
        (Cadence::Lockstep, _) => run_lockstep,
        (Cadence::EventDriven, CommScope::Individual) => run_event_individual,
        (Cadence::EventDriven, CommScope::Collective) => run_event_collective,
    };
    parallel::with_width(parallel::budget(), || {
        run(strategy, history, factory, train_set, test_set, cfg)
    })
}

fn run_lockstep(
    s: &mut dyn AggregationStrategy,
    mut history: History,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> History {
    let p = s.p();
    let mut learners: Vec<Learner> = (0..p).map(|id| Learner::new(id, factory(), cfg)).collect();
    let macs = learners[0].model.macs_per_sample();
    let x0 = learners[0].model.params().to_vec();
    let init_comm = s.setup(factory, &x0, cfg);
    for l in &mut learners {
        l.model.params_mut().copy_from_slice(&x0);
        l.charge_comm(init_comm);
    }

    let evals = EvalSets::prepare(train_set, test_set, cfg.eval_cap);
    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let steps = lockstep_steps(&shards, cfg.batch_size);
    assert!(
        steps > 0,
        "shards too small: {} samples over {p} learners at batch {}",
        train_set.len(),
        cfg.batch_size
    );
    let run_steps = cfg.epochs * steps;
    let step_s = cfg.cost.minibatch_compute(macs, cfg.batch_size, p);
    let mut policy = s.sync_policy();

    let mut samples = 0u64;
    let mut since_sync = 0usize;
    let mut syncs = 0u64;

    for epoch in 1..=cfg.epochs {
        let iters: Vec<Vec<Vec<usize>>> = learners
            .iter_mut()
            .zip(&shards)
            .map(|(l, sh)| {
                sh.epoch_iter(cfg.batch_size, &mut l.rng)
                    .take(steps)
                    .collect()
            })
            .collect();
        for step in 0..steps {
            let gamma_now = cfg.gamma_at(lockstep_gamma_epoch(epoch, step, steps));
            for (id, (l, batches)) in learners.iter_mut().zip(&iters).enumerate() {
                let idx = &batches[step];
                samples += idx.len() as u64;
                let j = l.draw_jitter(&cfg.jitter);
                s.local_step(l, id, train_set, idx, gamma_now, step_s, j);
            }
            since_sync += 1;
            if since_sync >= interval_in_force(policy.current_t(), run_steps) {
                s.sync(&mut learners, gamma_now, &mut history);
                // A lockstep round's staleness is the strategy's, for every
                // rank alike (0 where it applies fresh state).
                let tau = s.collective_tau();
                for id in 0..p {
                    let gamma_eff = s.observe_staleness(id, tau, gamma_now);
                    history.push_staleness(syncs, id, tau, gamma_eff);
                }
                policy.observe_round(s.sync_signal());
                syncs += 1;
                since_sync = 0;
            }
        }
        for l in &mut learners {
            l.clock += cfg.cost.epoch_overhead;
        }
        let l = &mut learners[0];
        let rec = evals.record(&mut l.model, epoch as f64, l.compute_s, l.comm_s, samples);
        history.records.push(rec);
    }
    history.staleness = s.staleness(syncs);
    history.wire = s.wire(syncs, &history.sparse_levels);
    history.sync_rounds = syncs;
    history.final_params = Some(s.final_params(&learners));
    history
}

fn run_event_individual(
    s: &mut dyn AggregationStrategy,
    mut history: History,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> History {
    let p = s.p();
    let mut policy = s.sync_policy();
    assert!(policy.current_t() >= 1, "event-driven strategies must sync");
    let mut learners: Vec<Learner> = (0..p).map(|id| Learner::new(id, factory(), cfg)).collect();
    let m = learners[0].model.param_len();
    let macs = learners[0].model.macs_per_sample();
    let x0 = learners[0].model.params().to_vec();
    let init_comm = s.setup(factory, &x0, cfg);
    for l in &mut learners {
        l.model.params_mut().copy_from_slice(&x0);
        l.charge_comm(init_comm);
    }

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
        let dur = block_duration(l, policy.current_t(), step_s, cfg);
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
        let t = policy.current_t();
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
            let gamma_eff = s.observe_staleness(id, tau, gamma_now);
            s.event_sync(l, id, gamma_eff);
            pulled_version[id] = shared_version;
            l.charge_comm(comm_round);
            history.push_staleness(rounds, id, tau, gamma_eff);
        }
        policy.observe_round(s.sync_signal());
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
            let dur = block_duration(&mut learners[id], policy.current_t(), step_s, cfg);
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
    history.final_params = Some(s.final_params(&learners));
    history
}

fn run_event_collective(
    s: &mut dyn AggregationStrategy,
    mut history: History,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> History {
    let p = s.p();
    let mut policy = s.sync_policy();
    let mut learners: Vec<Learner> = (0..p).map(|id| Learner::new(id, factory(), cfg)).collect();
    let macs = learners[0].model.macs_per_sample();
    let x0 = learners[0].model.params().to_vec();
    let init_comm = s.setup(factory, &x0, cfg);
    for l in &mut learners {
        l.model.params_mut().copy_from_slice(&x0);
        l.charge_comm(init_comm);
    }

    let evals = EvalSets::prepare(train_set, test_set, cfg.eval_cap);
    let n = train_set.len();
    let step_s = cfg.cost.minibatch_compute(macs, cfg.batch_size, p);
    let mut streams: Vec<BatchStream> = make_shards(train_set, p, cfg.shard_strategy)
        .into_iter()
        .map(|sh| BatchStream::new(sh.indices().to_vec(), cfg.batch_size))
        .collect();

    let mut samples = 0u64;
    let mut steps_done = 0u64; // nominal per-rank steps, same on every rank
    let mut syncs = 0u64;
    let mut recorded_passes = 0u64;
    let mut staleness_obs: Vec<u64> = Vec::new();
    let target_steps = (cfg.epochs as u64) * (n as u64); // in batch·p units
    let run_steps = (cfg.epochs * n).div_ceil(cfg.batch_size * p);

    loop {
        let block = interval_in_force(policy.current_t(), run_steps);
        // γ for the whole round, resolved from nominal progress *before*
        // the round: rank-independent, so every rank (and the threaded
        // backend) computes the identical rate.
        let gamma_now = cfg.gamma_at(event_gamma_epoch(steps_done, cfg.batch_size, p, n));
        // Schedule every learner's block (jitter drawn in rank order),
        // then pop completions in (time, rank) order.
        let mut queue: RankQueue<f64> = RankQueue::new();
        for (id, l) in learners.iter_mut().enumerate() {
            let start = l.clock;
            let dur = block_duration(l, block, step_s, cfg);
            queue.push(VirtualTime(start + dur), id, start);
        }
        while let Some((tv, id, start)) = queue.pop() {
            for _ in 0..block {
                let idx = {
                    let l = &mut learners[id];
                    streams[id].next(&mut l.rng)
                };
                samples += idx.len() as u64;
                s.on_local_step(&mut learners[id], id, train_set, &idx, gamma_now);
            }
            let l = &mut learners[id];
            l.compute_s += tv.seconds() - start;
            l.clock = tv.seconds();
        }
        steps_done += block as u64;
        // Collective rendezvous: the strategy aggregates all learners
        // (charging waits and wire time to their clocks itself).
        s.sync(&mut learners, gamma_now, &mut history);
        let tau = s.collective_tau();
        for id in 0..p {
            let gamma_eff = s.observe_staleness(id, tau, gamma_now);
            history.push_staleness(syncs, id, tau, gamma_eff);
            staleness_obs.push(tau);
        }
        policy.observe_round(s.sync_signal());
        syncs += 1;
        if streams[0].completed_passes() > recorded_passes {
            recorded_passes = streams[0].completed_passes();
            let epoch = samples as f64 / n as f64;
            let l = &mut learners[0];
            let rec = evals.record(&mut l.model, epoch, l.compute_s, l.comm_s, samples);
            history.records.push(rec);
        }
        if steps_done * (cfg.batch_size as u64) * (p as u64) >= target_steps {
            break;
        }
    }
    if history.records.is_empty() || history.records.last().expect("nonempty").samples < samples {
        let epoch = samples as f64 / n as f64;
        let l = &mut learners[0];
        let rec = evals.record(&mut l.model, epoch, l.compute_s, l.comm_s, samples);
        history.records.push(rec);
    }
    history.staleness = StalenessStats::from_observations(&staleness_obs);
    history.wire = s.wire(syncs, &history.sparse_levels);
    history.sync_rounds = syncs;
    history.final_params = Some(s.final_params(&learners));
    history
}

/// Duration of the next `t`-minibatch compute block (jitter drawn now so
/// completion order is known to the event queue up front).
pub(crate) fn block_duration(l: &mut Learner, t: usize, step_s: f64, cfg: &TrainConfig) -> f64 {
    let mut dur = 0.0;
    for _ in 0..t {
        dur += step_s * l.speed * l.draw_jitter(&cfg.jitter);
    }
    dur
}
