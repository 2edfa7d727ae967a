//! Per-algorithm exchanges: what one rank's aggregation step puts on the
//! wire.
//!
//! The rank loop ([`super::rank::run_rank`]) is the same for every
//! algorithm; an [`Exchange`] is the only place they differ. Each exchange
//! owns its endpoint and is its algorithm's one definition: both backends
//! run it, the simulated one over a clocked endpoint. The wire call order
//! (`broadcast`, `next_op`, tags) of each exchange is frozen: the
//! multi-process launcher and the model checker replay it.

use std::time::{Duration, Instant};

use sasgd_comm::collectives::{broadcast, Dense};
use sasgd_comm::ps_transport::{PsLayout, PsTransportClient, PsTransportError};
use sasgd_comm::sparse::SparseFold;
use sasgd_comm::transport::Transport;
use sasgd_comm::tree::{allreduce_over, broadcast_over, FtError, FtOutcome, Membership};

use super::{descend, global_step, FaultConfig, Lattice, Total};
use crate::algorithms::{Algorithm, GammaP};
use crate::compress::{ErrorFeedback, Payload};
use crate::history::{History, MembershipEvent, RetirementEvent};
use crate::trainer::Learner;

/// Parameter-server round-trip deadline. Generous — a healthy in-process
/// server answers in microseconds; the deadline only converts a dead or
/// wedged shard from an eternal hang into a typed failure.
const PS_PULL_DEADLINE: Duration = Duration::from_secs(5);
/// Bounded retries for a timed-out pull (each attempt backs off twice as
/// long as the previous one, starting at [`PS_PULL_BACKOFF`]).
const PS_PULL_RETRIES: usize = 3;
/// Initial retry backoff for a timed-out pull.
const PS_PULL_BACKOFF: Duration = Duration::from_millis(20);

/// A failed wire operation, rendered; the rank loop adds the rank and
/// round to make it an [`EngineError::WireFailure`](super::EngineError).
pub(crate) struct WireError(pub(crate) String);

impl<E: std::error::Error> From<E> for WireError {
    fn from(e: E) -> Self {
        WireError(e.to_string())
    }
}

/// What the rank loop tells an exchange about the round it is asking for.
pub(crate) struct Round<'a> {
    /// Global sync round, 1-based.
    pub(crate) number: u64,
    /// The γ in force for the steps this round aggregates.
    pub(crate) gamma: f32,
    /// Where compression telemetry, membership changes and retirements go.
    pub(crate) history: &'a mut History,
}

/// What a round tells the rank loop.
#[derive(Default)]
pub(crate) struct Outcome {
    /// End-of-round scalar the sync policy adapts on (adaptive SASGD's
    /// displacement of `x`); `None` never adapts.
    pub(crate) signal: Option<f32>,
    /// Measured `(τ, effective rate)` of this rank's update, for the
    /// exchanges against shared state; `None` for collectives, whose
    /// staleness is fixed by construction.
    pub(crate) staleness: Option<(u64, f32)>,
    /// This rank left the run gracefully (its retirement is already in the
    /// history): stop stepping, return what it has.
    pub(crate) retired: bool,
}

/// The aggregation step of one rank: every algorithm runs rounds, and
/// the defaults describe the rest of a plain collective — no scripted
/// faults, the local step of Algorithm 1, the learner's own parameters as
/// the result. Exchanges that consume `learner.gs` clear it; SASGD at
/// `T = 1` has no `gs` and consumes the model's gradient arena, which the
/// next step's backward starts from zeros anyway.
pub(crate) trait Exchange {
    /// Called at every step boundary with the 1-based global step about to
    /// run; `false` stops this rank before it (a scripted crash).
    fn step_boundary(&mut self, _gstep: u64) -> bool {
        true
    }

    /// Apply the minibatch gradient in `l.model.grads()` locally:
    /// accumulate into `gs` and take the step `x ← x − γ·g`.
    fn apply_local(&mut self, l: &mut Learner, gamma: f32) {
        l.apply_local(gamma);
    }

    /// One aggregation round.
    fn round(&mut self, l: &mut Learner, round: Round<'_>) -> Result<Outcome, WireError>;

    /// Final parameters reported in [`History`]: the learner's own, moved
    /// out of it.
    fn final_params(&mut self, l: Learner) -> Vec<f32> {
        l.model.into_params()
    }

    /// Learners still contributing, when that can differ from `p`.
    fn survivors(&self) -> Option<usize> {
        None
    }
}

/// Broadcast rank 0's parameters (Algorithm 1): a receiver's arena becomes
/// the frame it received, no copy kept.
fn broadcast_x0<T: Transport>(comm: &mut T, l: &mut Learner) -> Result<(), WireError> {
    Ok(l.model.lend_params(|params| broadcast(comm, 0, params))?)
}

/// Allreduce `input` — the accumulated `gs`, or at `T = 1` the gradient
/// arena — over `membership` through `codec` (armed by `deadline`, if
/// any): its payload travels in the payload's own wire form — the
/// sparse tree, exact 8-bit leaf frames, or (an all-zero gradient has no
/// 8-bit grid) the dense tree — and the tree's spill goes back into the
/// codec. Records `(round, rank, k_eff, residual_norm)` and the per-level
/// wire stats; returns the total as the tree left it.
fn compressed_allreduce<T: Transport>(
    codec: &mut ErrorFeedback,
    comm: &mut T,
    membership: &mut Membership,
    deadline: Option<Duration>,
    input: &[f32],
    round: &mut Round<'_>,
) -> Result<(Total, FtOutcome), FtError> {
    let enc = codec.encode(input);
    // lint:allow(float-cast): telemetry narrowing — the norm is a
    // monitoring signal, not part of the update arithmetic.
    let norm = enc.residual_norm as f32;
    let history = &mut *round.history;
    history.push_sparsity(round.number, comm.rank(), enc.k_eff, norm);
    Ok(match enc.payload {
        Payload::Sparse(mut sv, opts) => {
            let mut fold = SparseFold::new(&mut sv, opts, &mut history.sparse_levels);
            let outcome = allreduce_over(comm, membership, &mut fold, deadline)?;
            codec.absorb(&fold.spill);
            (Total::Sparse(sv), outcome)
        }
        Payload::Dense8(mut buf, scale) => {
            let fold = &mut Dense::new(&mut buf, scale);
            let outcome = allreduce_over(comm, membership, fold, deadline)?;
            (Total::Dense(buf), outcome)
        }
    })
}

/// SASGD: tree allreduce of the accumulated gradients (optionally
/// compressed with error feedback) over the live membership, then the
/// global step with `γp` resolved over the members — or, delayed, the
/// previous round's, with this rank's progress re-based onto it (the
/// [`Lattice`]). At `T = 1`
/// ([`Lattice::on_arena`]) the payload is the model's gradient arena —
/// the dense walk moves the arena's own buffer, a codec encodes straight
/// from it — and the total lands on `params`: no `x`, no `gs`, no local
/// step.
///
/// With a [`FaultConfig`] the tree is armed: its scripted faults fire at
/// step boundaries (never inside a collective), so a degraded run replays
/// bitwise; a lost rank leaves the membership (its residual with it) and
/// `γp` rescales to the survivors. A rank the survivors evicted, or a
/// non-coordinator whose wire failed, retires with a [`RetirementEvent`];
/// nothing can degrade around rank 0, the recovery coordinator, so its
/// failure is the one error. With an empty plan the trajectory is bitwise
/// the unarmed one's — same combine order.
struct GradTree<'a, T> {
    comm: T,
    gamma_p: GammaP,
    codec: Option<ErrorFeedback>,
    membership: Membership,
    faults: Option<&'a FaultConfig>,
    /// Algorithm 1's pre-interval `x`; empty at `T = 1`.
    x: Vec<f32>,
    lattice: Lattice,
}

impl<T: Transport> Exchange for GradTree<'_, T> {
    fn step_boundary(&mut self, gstep: u64) -> bool {
        let Some(faults) = self.faults else {
            return true;
        };
        let (rank, plan) = (self.comm.rank(), &faults.plan);
        if plan.crash_step(rank).is_some_and(|s| gstep >= s) {
            // Crash: stop participating. Dropping the endpoint when the
            // rank returns is what survivors detect.
            return false;
        }
        if let Some(stall) = plan.stall_at(rank, gstep) {
            std::thread::sleep(stall);
        }
        true
    }

    /// At `T = 1` the gradient stays in the arena for the round.
    fn apply_local(&mut self, l: &mut Learner, gamma: f32) {
        if !self.lattice.on_arena() {
            l.apply_local(gamma);
        }
    }

    fn round(&mut self, l: &mut Learner, mut round: Round<'_>) -> Result<Outcome, WireError> {
        let (rank, started) = (self.comm.rank(), Instant::now());
        let deadline = self.faults.map(|f| f.deadline);
        let on_arena = self.lattice.on_arena();
        let (comm, ms) = (&mut self.comm, &mut self.membership);
        let total = match self.codec.as_mut() {
            Some(codec) => {
                let input = if on_arena { l.model.grads() } else { &l.gs };
                let total = compressed_allreduce(codec, comm, ms, deadline, input, &mut round);
                l.gs.fill(0.0);
                total.map(|(total, outcome)| (Some(total), outcome))
            }
            None if on_arena => l
                .model
                .lend_grads(|g| allreduce_over(comm, ms, &mut Dense::new(g, None), deadline))
                .map(|outcome| (None, outcome)),
            None => allreduce_over(comm, ms, &mut Dense::new(&mut l.gs, None), deadline)
                .map(|outcome| (None, outcome)),
        };
        let (total, outcome) = match total {
            Ok(done) => done,
            Err(e) if deadline.is_some() && (rank != 0 || matches!(e, FtError::Evicted { .. })) => {
                round.history.retirements.push(RetirementEvent {
                    rank,
                    round: round.number,
                    reason: e.to_string(),
                });
                return Ok(Outcome {
                    retired: true,
                    ..Outcome::default()
                });
            }
            Err(e) => return Err(e.into()),
        };
        // = p unarmed and on a clean round, so the fault-free trajectory is
        // the plain tree's.
        let gp = self.gamma_p.resolve(round.gamma, self.membership.len());
        let signal = match total {
            // `params` is `x` at `T = 1`: the total lands on it directly.
            Some(total) if on_arena => {
                total.step(l.model.params_mut(), gp);
                None
            }
            None if on_arena => {
                let (params, total) = l.model.params_and_grads_mut();
                descend(params, gp, total);
                None
            }
            None if self.lattice.is_plain() => {
                global_step(&mut self.x, gp, &mut l.gs, l.model.params_mut());
                None
            }
            total => {
                let total = total.unwrap_or_else(|| self.lattice.take_gs(&mut l.gs));
                self.lattice
                    .round(&mut self.x, total, gp, l.model.params_mut())
            }
        };
        if rank == 0 && !outcome.lost.is_empty() {
            round.history.membership.push(MembershipEvent {
                round: round.number,
                epoch: outcome.epoch,
                lost: outcome.lost,
                survivors: self.membership.len(),
                gamma_p: gp,
                recovery_seconds: started.elapsed().as_secs_f64(),
            });
        }
        Ok(Outcome {
            signal,
            ..Outcome::default()
        })
    }

    fn final_params(&mut self, l: Learner) -> Vec<f32> {
        self.lattice.final_params(&self.x, l.model.into_params())
    }

    fn survivors(&self) -> Option<usize> {
        Some(self.membership.len())
    }
}

/// Hierarchical SASGD over two memberships of one flat world: every round
/// an allreduce within the rank's group and the group step (Algorithm 1
/// per group, over the fast local fabric); every `t_global` rounds the
/// group leaders average their copies — tree-reduce, then scale — over the
/// global fabric, and each group hears the average from its leader. One
/// group is flat SASGD at `T = t_local`; `t_global > 1` cuts global
/// traffic `t_global`-fold while staleness across groups stays bounded by
/// `t_local · t_global`.
struct HierTree<T> {
    comm: T,
    group: Membership,
    leaders: Membership,
    t_global: usize,
    gamma_p: GammaP,
    local_rounds: usize,
    x: Vec<f32>,
}

impl<T: Transport> Exchange for HierTree<T> {
    fn round(&mut self, l: &mut Learner, round: Round<'_>) -> Result<Outcome, WireError> {
        let gp = self.gamma_p.resolve(round.gamma, self.group.len());
        let (comm, group) = (&mut self.comm, &mut self.group);
        allreduce_over(comm, group, &mut Dense::new(&mut l.gs, None), None)?;
        global_step(&mut self.x, gp, &mut l.gs, l.model.params_mut());
        self.local_rounds += 1;
        if self.local_rounds == self.t_global {
            let leaders = &mut self.leaders;
            allreduce_over(comm, leaders, &mut Dense::new(&mut self.x, None), None)?;
            if leaders.contains(comm.rank()) {
                let inv = 1.0 / leaders.len() as f32;
                self.x.iter_mut().for_each(|v| *v *= inv);
            }
            broadcast_over(comm, group, 0, &mut Dense::new(&mut self.x, None))?;
            l.model.params_mut().copy_from_slice(&self.x);
            self.local_rounds = 0;
        }
        Ok(Outcome::default())
    }
}

/// One learner's link to the parameter server whose shards are the ranks
/// after the learners in `comm`'s world.
struct PsLink<T: Transport> {
    client: PsTransportClient<T>,
    /// Scale each update's rate by `1/(1+τ)`.
    staleness_aware: bool,
}

impl<T: Transport> PsLink<T> {
    /// Start learner `l` from the server's parameters. `None`: the world
    /// has no rank left over to be a shard.
    fn open(
        comm: T,
        algo: &Algorithm,
        staleness_aware: bool,
        l: &mut Learner,
    ) -> Result<Option<Self>, PsTransportError> {
        let p = algo.learners();
        let Some(shards) = comm.size().checked_sub(p).filter(|&s| s > 0) else {
            return Ok(None);
        };
        let layout = PsLayout {
            p,
            shards,
            dim: l.model.param_len(),
        };
        let mut link = PsLink {
            client: PsTransportClient::new(comm, layout),
            staleness_aware,
        };
        l.model.params_mut().copy_from_slice(&link.pull()?);
        Ok(Some(link))
    }

    /// Deadline-bounded fetch under the retry ladder: a dead shard
    /// surfaces as a typed error naming the shard, not an eternal hang.
    fn pull(&mut self) -> Result<Vec<f32>, PsTransportError> {
        self.client
            .pull_retry(PS_PULL_DEADLINE, PS_PULL_RETRIES, PS_PULL_BACKOFF)
    }

    /// Claim the next update slot on the server's clock: its measured
    /// staleness — the real interleaving, not a model of it — and the
    /// `rate` to apply for it.
    fn claim(&mut self, rate: f32) -> Result<(u64, f32), PsTransportError> {
        let tau = self.client.claim(PS_PULL_DEADLINE)?;
        Ok(if self.staleness_aware {
            (tau, rate / (1.0 + tau as f32)) // lint:allow(float-cast)
        } else {
            (tau, rate)
        })
    }
}

/// Downpour: push the accumulated gradient (the server applies `−γ·g`
/// whenever it lands relative to the other learners), pull fresh
/// parameters.
struct PsPushPull<T: Transport>(PsLink<T>);

impl<T: Transport> Exchange for PsPushPull<T> {
    fn round(&mut self, l: &mut Learner, round: Round<'_>) -> Result<Outcome, WireError> {
        let staleness = self.0.claim(round.gamma)?;
        self.0.client.push_gradient(staleness.1, &l.gs)?;
        l.gs.fill(0.0);
        l.model.params_mut().copy_from_slice(&self.0.pull()?);
        Ok(Outcome {
            staleness: Some(staleness),
            ..Outcome::default()
        })
    }
}

/// EAMSGD: momentum-SGD local steps; each round pulls the center `x̃`,
/// retreats toward it by the moving rate, and pushes the elastic
/// difference (the server adds it to `x̃`).
struct PsElastic<T: Transport> {
    link: PsLink<T>,
    alpha: f32,
    momentum: f32,
    velocity: Vec<f32>,
    /// The elastic difference pushed each round.
    diff: Vec<f32>,
}

impl<T: Transport> Exchange for PsElastic<T> {
    /// One momentum-SGD step — the simulated event loop's arithmetic.
    fn apply_local(&mut self, l: &mut Learner, gamma: f32) {
        let (params, grads) = l.model.params_and_grads_mut();
        for ((vi, pi), &gi) in self.velocity.iter_mut().zip(params).zip(&*grads) {
            *vi = self.momentum * *vi - gamma * gi;
            *pi += *vi;
        }
    }

    fn round(&mut self, l: &mut Learner, _round: Round<'_>) -> Result<Outcome, WireError> {
        let staleness = self.link.claim(self.alpha)?;
        let center = self.link.pull()?;
        let params = l.model.params_mut();
        for ((pi, &ci), di) in params.iter_mut().zip(&center).zip(self.diff.iter_mut()) {
            *di = staleness.1 * (*pi - ci);
            *pi -= *di;
        }
        self.link.client.add(&self.diff)?;
        Ok(Outcome {
            staleness: Some(staleness),
            ..Outcome::default()
        })
    }
}

/// Build the exchange of `algo`'s lattice point over `comm`, a flat world
/// — `algo.learners()` learners, followed by the parameter-server shards
/// for the PS algorithms — armed by `faults` where the exchange is SASGD,
/// and align learner `l` with its peers (the `x0` broadcast of Algorithm 1,
/// the server's initial pull). `None`: the algorithm has no exchange over
/// this world.
pub(crate) fn connect<'a, T: Transport + 'a>(
    algo: &Algorithm,
    mut comm: T,
    faults: Option<&'a FaultConfig>,
    l: &mut Learner,
) -> Result<Option<Box<dyn Exchange + 'a>>, WireError> {
    if let Some(faults) = faults {
        assert!(
            !faults.deadline.is_zero(),
            "failure-detection deadline must be nonzero"
        );
    }
    Ok(Some(match (algo.resolved(), faults) {
        (
            Algorithm::Sasgd {
                schedule,
                gamma_p,
                compression,
                delayed,
                ..
            },
            faults,
        ) => {
            broadcast_x0(&mut comm, l)?;
            let lattice = Lattice::new(schedule, delayed, l.model.params());
            Box::new(GradTree {
                x: if lattice.on_arena() {
                    Vec::new()
                } else {
                    l.model.params().to_vec()
                },
                lattice,
                codec: compression.map(|comp| {
                    ErrorFeedback::new(comp, l.model.param_len(), l.model.param_blocks())
                }),
                membership: Membership::new(comm.size()),
                comm,
                gamma_p,
                faults,
            })
        }
        (
            Algorithm::HierarchicalSasgd {
                groups,
                per_group,
                t_global,
                gamma_p,
                ..
            },
            None,
        ) => {
            let first = comm.rank() / per_group * per_group;
            broadcast_x0(&mut comm, l)?;
            Box::new(HierTree {
                x: l.model.params().to_vec(),
                group: Membership::of(first..first + per_group),
                leaders: Membership::of((0..groups * per_group).step_by(per_group)),
                comm,
                t_global,
                gamma_p,
                local_rounds: 0,
            })
        }
        (
            Algorithm::Downpour {
                staleness_gamma, ..
            },
            None,
        ) => match PsLink::open(comm, algo, staleness_gamma, l)? {
            Some(link) => Box::new(PsPushPull(link)),
            None => return Ok(None),
        },
        (
            Algorithm::Eamsgd {
                p,
                moving_rate,
                momentum,
                staleness_gamma,
                ..
            },
            None,
        ) => {
            let alpha = Algorithm::moving_rate(p, moving_rate);
            let Some(link) = PsLink::open(comm, algo, staleness_gamma, l)? else {
                return Ok(None);
            };
            Box::new(PsElastic {
                link,
                alpha,
                momentum,
                velocity: vec![0.0; l.model.param_len()],
                diff: vec![0.0; l.model.param_len()],
            })
        }
        _ => return Ok(None),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TSchedule;
    use crate::trainer::TrainConfig;
    use sasgd_comm::ps_transport::serve_shard;
    use sasgd_comm::CommWorld;
    use sasgd_nn::models;
    use sasgd_tensor::SeedRng;
    use std::sync::mpsc;

    #[test]
    fn a_t1_round_whose_peer_is_gone_leaves_a_full_arena() {
        // Rank 1 hands its gradient arena to the dense walk, whose send to
        // rank 0 fails: the walk's buffer is gone, but the model's arena
        // must come back at full length, unarmed (a typed error) and armed
        // (the rank retires).
        let cfg = TrainConfig::new(1, 8, 0.05, 1);
        let plan = FaultConfig {
            deadline: Duration::from_millis(50),
            ..FaultConfig::default()
        };
        for faults in [None, Some(&plan)] {
            let mut l = Learner::new(1, models::tiny_cnn(2, &mut SeedRng::new(3)), &cfg);
            let m = l.model.param_len();
            l.model.lend_grads(|g| g.fill(1.0));
            let mut world = CommWorld::new(2).communicators();
            let comm = world.pop().expect("rank 1");
            drop(world);
            let lattice = Lattice::new(TSchedule::Fixed { t: 1 }, false, &[]);
            assert!(lattice.on_arena());
            let mut tree = GradTree {
                comm,
                gamma_p: GammaP::OverP,
                codec: None,
                membership: Membership::new(2),
                faults,
                x: Vec::new(),
                lattice,
            };
            let mut history = History::new("dead-peer", 2, 1);
            let round = Round {
                number: 1,
                gamma: 0.05,
                history: &mut history,
            };
            match (tree.round(&mut l, round), faults) {
                (Err(e), None) => assert!(e.0.contains("hung up"), "{}", e.0),
                (Ok(outcome), Some(_)) => assert!(outcome.retired, "the rank retires"),
                (got, _) => panic!("armed: {}, got ok: {}", faults.is_some(), got.is_ok()),
            }
            assert_eq!(l.model.grads().len(), m, "armed: {}", faults.is_some());
        }
    }

    #[test]
    fn ps_exchanges_on_a_dead_server_are_typed_errors_not_panics() {
        let cfg = TrainConfig::new(1, 8, 0.05, 1);
        let model = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let x0 = model().param_vector();
        let layout = PsLayout {
            p: 1,
            shards: 2,
            dim: x0.len(),
        };
        for algo in [
            Algorithm::Downpour {
                p: 1,
                t: 1,
                staleness_gamma: false,
            },
            Algorithm::Eamsgd {
                p: 1,
                t: 1,
                moving_rate: None,
                momentum: 0.9,
                staleness_gamma: false,
            },
        ] {
            let mut l = Learner::new(0, model(), &cfg);
            let mut nobody_home = CommWorld::new(3).communicators();
            nobody_home.truncate(1);
            let late = nobody_home.pop().expect("learner endpoint");
            assert!(
                connect(&algo, late, None, &mut l).is_err(),
                "initial pull from a dead shard"
            );

            // Shards that serve until the test hangs up on them: the idle
            // deadline only bounds how soon they notice.
            let mut world = CommWorld::new(3).communicators().into_iter();
            let learner = world.next().expect("learner endpoint");
            // lint:allow(raw-spawn): test host of shard threads over CommWorld endpoints
            let mut exchange = std::thread::scope(|scope| {
                let mut alive = Vec::new();
                for mut shard in world {
                    let x0 = &x0;
                    let (keep, kept) = mpsc::channel::<()>();
                    alive.push(keep);
                    shard.set_default_deadline(Some(Duration::from_millis(10)));
                    scope.spawn(move || {
                        while matches!(kept.try_recv(), Err(mpsc::TryRecvError::Empty)) {
                            let _idle = serve_shard(&mut shard, &layout, x0);
                        }
                    });
                }
                connect(&algo, learner, None, &mut l)
                    .ok()
                    .flatten()
                    .expect("a live server connects")
            });
            let mut history = History::new("dead-ps", 1, 1);
            let round = Round {
                number: 1,
                gamma: 0.05,
                history: &mut history,
            };
            let err = exchange
                .round(&mut l, round)
                .err()
                .expect("a round against a dead shard must fail, not panic");
            assert!(err.0.contains("shard rank 1 is gone"), "{}", err.0);
        }
    }
}
