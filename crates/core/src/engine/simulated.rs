//! The simulated backend: the threaded backend's ranks on virtual clocks.
//!
//! Every algorithm runs exactly as on threads: the same harness spawns one
//! thread per rank over the same in-process world — the learners, then a
//! parameter-server algorithm's shard ranks — and each runs the one rank
//! loop and the algorithm's `Exchange` (a shard rank serves its slice).
//! Two things differ, and neither touches the arithmetic:
//!
//! * each endpoint is [`Clocked`]: a send charges the sender the hop's
//!   link time and stamps the message with its arrival; a receive moves
//!   the receiver to `max(now, arrival)`. A hop between learners costs
//!   `gpu_link_time(bytes)` (÷ `LOCAL_FABRIC_SPEEDUP` inside a
//!   hierarchical group); a hop between a learner and a shard crosses the
//!   host channel, `host_link_time(bytes, 1)`. Barrier waits, stragglers,
//!   tree depth and a shard's queue are read off the messages the code
//!   sends;
//! * the loop's clock is virtual: a step costs the cost model's
//!   `minibatch_compute × speed × jitter`, drawn from the learner's own
//!   jitter stream, and a delayed SASGD round waits only for the previous
//!   round's completion.
//!
//! A collective names every receive, so a rank's clock is a function of
//! the seed alone, whatever the thread schedule. A shard's inbox is a
//! wildcard receive, so a parameter-server world is also [`Sequenced`]:
//! one receive at a time, in virtual-time order, each shard serving its
//! requests in the order they arrive. Gradient staleness then emerges from
//! the learners' speed variation, as on a real cluster, and stays
//! bit-reproducible under a seed.

use sasgd_comm::transport::{Clocked, Sequenced, Stamps, Transport, VirtualClock};
use sasgd_comm::world::CommWorld;
use sasgd_data::Dataset;
use sasgd_nn::Model;
use sasgd_simnet::cost::BYTES_PER_PARAM;
use sasgd_tensor::parallel;

use super::rank::{drive, Clock};
use super::threaded::{spawn_ranks, wire_of};
use super::EngineError;
use crate::algorithms::Algorithm;
use crate::history::{History, WireStats};
use crate::trainer::TrainConfig;

/// Speed advantage of the intra-group fabric over the global GPU fabric
/// (hierarchical SASGD's groups share a device or PCIe switch).
pub(crate) const LOCAL_FABRIC_SPEEDUP: f64 = 8.0;

/// Run `algo` on the simulated backend. A collective's ranks share the
/// caller's compute threads evenly; a parameter-server world's ranks run
/// one at a time, each at the caller's whole budget.
pub(crate) fn run(
    algo: &Algorithm,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> Result<History, EngineError> {
    algo.check();
    let (p, shards) = (algo.learners(), algo.ps_shards());
    let models: Vec<Model> = (0..p + shards).map(|_| factory()).collect();
    let step_s = cfg
        .cost
        .minibatch_compute(models[0].macs_per_sample(), cfg.batch_size, p);
    let group = match algo {
        Algorithm::HierarchicalSasgd { per_group, .. } => *per_group,
        _ => 0,
    };
    let topology = cfg.cost.topology.clone();
    let stamps = Stamps::new(move |src, dst, elements| {
        let bytes = elements as f64 * BYTES_PER_PARAM;
        if src >= p || dst >= p {
            topology.host_link_time(bytes, 1)
        } else if group > 0 && src / group == dst / group {
            topology.gpu_link_time(bytes) / LOCAL_FABRIC_SPEEDUP
        } else {
            topology.gpu_link_time(bytes)
        }
    });
    let delayed = matches!(algo, Algorithm::Sasgd { delayed: true, .. });
    let mut world = CommWorld::new(p + shards);
    let wire = wire_of(&world);
    let (mut endpoints, mut ranks) = (Vec::new(), Vec::new());
    for (comm, model) in world.communicators().into_iter().zip(models) {
        let now = VirtualClock::default();
        endpoints.push(Clocked::new(comm, now.clone(), stamps.clone()));
        let clock = Clock::Virtual {
            now,
            step_s,
            jitter: cfg.jitter.clone(),
            landed: delayed.then_some(0.0),
        };
        ranks.push((clock, model));
    }
    let launch = Launch {
        train_set,
        test_set,
        algo,
        cfg,
    };
    let mut history = match shards {
        0 => launch.spawn(endpoints, ranks, parallel::width_for(p, 0), wire),
        _ => launch.spawn(Sequenced::world(endpoints), ranks, parallel::budget(), wire),
    }?;
    history.label = algo.label();
    Ok(history)
}

/// What every rank of one simulated run shares.
#[derive(Clone, Copy)]
struct Launch<'a> {
    train_set: &'a Dataset,
    test_set: &'a Dataset,
    algo: &'a Algorithm,
    cfg: &'a TrainConfig,
}

impl Launch<'_> {
    /// One thread per endpoint on `drive`, `width` kernel workers each.
    fn spawn<T: Transport>(
        &self,
        endpoints: Vec<T>,
        ranks: Vec<(Clock, Model)>,
        width: usize,
        wire: impl FnOnce() -> WireStats,
    ) -> Result<History, EngineError> {
        let Launch {
            train_set,
            test_set,
            algo,
            cfg,
        } = *self;
        let rank_loop = |_, (comm, (clock, model))| {
            drive(comm, clock, None, model, train_set, test_set, algo, cfg)
        };
        let ranks = endpoints.into_iter().zip(ranks).collect();
        spawn_ranks(ranks, rank_loop, algo.ps_shards() > 0, width, wire)
    }
}

#[cfg(test)]
mod tests {
    use crate::{train, Algorithm, TrainConfig};
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_tensor::{parallel, SeedRng};

    #[test]
    fn a_parameter_server_run_replays_bitwise_at_every_width() {
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(48, 16, 3));
        let cfg = TrainConfig::new(2, 8, 0.05, 9);
        let downpour = Algorithm::Downpour {
            p: 3,
            t: 2,
            staleness_gamma: false,
        };
        let eamsgd = Algorithm::Eamsgd {
            p: 2,
            t: 2,
            moving_rate: None,
            momentum: 0.9,
            staleness_gamma: false,
        };
        for algo in [downpour, eamsgd] {
            let run = |width| {
                let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(4));
                let h = parallel::with_width(width, || {
                    train(&mut factory, &train_set, &test_set, &algo, &cfg)
                });
                let wire = h.wire.expect("the simulated wire is counted");
                assert!(wire.elements > 0 && wire.messages > 0);
                let params = h.final_params.expect("final params");
                let bits: Vec<u32> = params.iter().map(|v| v.to_bits()).collect();
                (bits, h.sync_rounds, wire.elements, wire.messages)
            };
            let first = run(1);
            for width in [1, 2, 2] {
                assert!(run(width) == first, "{} at width {width}", algo.label());
            }
        }
    }
}
