//! Per-algorithm exchanges: what one rank's aggregation step puts on the
//! wire.
//!
//! The rank loop ([`super::rank::run_rank`]) is the same for every
//! algorithm; an [`Exchange`] is the only place they differ. Each exchange
//! owns its endpoint(s) and mirrors its simulated strategy's arithmetic
//! in the wire collective's reduction order, so `final_params` are bitwise
//! the simulated backend's wherever DESIGN.md §4b claims it. The wire call
//! order (`broadcast`, `next_op`, tags) of each exchange is frozen: the
//! multi-process launcher and the model checker replay it.

use std::time::{Duration, Instant};

use sasgd_comm::collectives::{allreduce_tree, broadcast, Dense};
use sasgd_comm::ps_transport::{PsLayout, PsTransportClient, PsTransportError};
use sasgd_comm::sparse::SparseFold;
use sasgd_comm::transport::Transport;
use sasgd_comm::tree::{allreduce_over, broadcast_over, FtError, FtOutcome, Membership};
use sasgd_comm::world::CommError;
use sasgd_nn::Model;

use super::{delta_sq_norm, global_step, rebase, FaultConfig, Total};
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
    /// End-of-round scalar the sync policy adapts on (Local SGD's
    /// average-displacement norm); `None` never adapts.
    pub(crate) signal: Option<f32>,
    /// Measured `(τ, effective rate)` of this rank's update, for the
    /// exchanges against shared state; `None` for collectives, whose
    /// staleness is fixed by construction.
    pub(crate) staleness: Option<(u64, f32)>,
    /// This rank left the run gracefully (its retirement is already in the
    /// history): stop stepping, return what it has.
    pub(crate) retired: bool,
}

/// The aggregation step of one rank. Defaults describe a learner that
/// never communicates (sequential SGD); each algorithm overrides only
/// where it differs. Exchanges that consume `learner.gs` clear it.
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
    fn round(&mut self, _l: &mut Learner, _round: Round<'_>) -> Result<Outcome, WireError> {
        Ok(Outcome::default())
    }

    /// Epoch-boundary communication (one-shot averaging's gather).
    fn epoch_end(&mut self, _l: &mut Learner) -> Result<(), WireError> {
        Ok(())
    }

    /// The model evaluated for epoch records.
    fn eval_model<'a>(&'a mut self, l: &'a mut Learner) -> &'a mut Model {
        &mut l.model
    }

    /// Final parameters reported in [`History`].
    fn final_params(&mut self, l: &Learner) -> Vec<f32> {
        l.model.params().to_vec()
    }

    /// Learners still contributing, when that can differ from `p`.
    fn survivors(&self) -> Option<usize> {
        None
    }
}

/// Sequential SGD: no peers, no exchange.
struct Solo;

impl Exchange for Solo {}

/// Broadcast rank 0's parameters (Algorithm 1) and keep them as the
/// shared pre-interval vector `x`.
fn broadcast_x0<T: Transport>(comm: &mut T, l: &mut Learner) -> Result<Vec<f32>, WireError> {
    let mut x = l.model.params().to_vec();
    broadcast(comm, 0, &mut x)?;
    l.model.params_mut().copy_from_slice(&x);
    Ok(x)
}

/// Allreduce `gs` over `membership` through `codec` (armed by `deadline`,
/// if any): its payload travels in the payload's own wire form — the
/// sparse tree, exact 8-bit leaf frames, or (an all-zero gradient has no
/// 8-bit grid) the dense tree — and the tree's spill goes back into the
/// codec. Records `(round, rank, k_eff, residual_norm)` and the per-level
/// wire stats; returns the total as the tree left it.
fn compressed_allreduce<T: Transport>(
    codec: &mut ErrorFeedback,
    comm: &mut T,
    membership: &mut Membership,
    deadline: Option<Duration>,
    gs: &[f32],
    round: &mut Round<'_>,
) -> Result<(Total, FtOutcome), FtError> {
    let enc = codec.encode(gs);
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
/// global step with `γp` resolved over the members.
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
    x: Vec<f32>,
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

    fn round(&mut self, l: &mut Learner, mut round: Round<'_>) -> Result<Outcome, WireError> {
        let (rank, started) = (self.comm.rank(), Instant::now());
        let deadline = self.faults.map(|f| f.deadline);
        let (comm, ms) = (&mut self.comm, &mut self.membership);
        let total = match self.codec.as_mut() {
            Some(codec) => compressed_allreduce(codec, comm, ms, deadline, &l.gs, &mut round)
                .map(|(total, outcome)| (Some(total), outcome)),
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
        match total {
            Some(total) => {
                total.step(&mut self.x, gp);
                l.model.params_mut().copy_from_slice(&self.x);
                l.gs.fill(0.0);
            }
            None => global_step(&mut self.x, gp, &mut l.gs, l.model.params_mut()),
        }
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
        Ok(Outcome::default())
    }

    fn survivors(&self) -> Option<usize> {
        Some(self.membership.len())
    }
}

/// Hierarchical SASGD over two memberships of one flat world: every round
/// an allreduce within the rank's group and the group step; every
/// `t_global` rounds the group leaders average their copies and each group
/// hears the average from its leader. Level 2 averages via tree-reduce +
/// scale while the simulated strategy accumulates in rank order, so
/// cross-backend equality is bitwise only at `groups = 1`.
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

/// The average of every rank's `params`, left in `frame`: a tree allreduce
/// of a copy, scaled by `1/p`. The copy travels in `frame`'s own storage,
/// so a caller that keeps the buffer across rounds allocates nothing.
fn average_params<T: Transport>(
    comm: &mut T,
    params: &[f32],
    frame: &mut Vec<f32>,
) -> Result<(), WireError> {
    frame.clear();
    frame.extend_from_slice(params);
    allreduce_tree(comm, frame)?;
    let inv = 1.0 / comm.size() as f32;
    frame.iter_mut().for_each(|v| *v *= inv);
    Ok(())
}

/// Local SGD: parameter average every round; the squared displacement of
/// the average is the plateau signal adaptive `T` schedules read.
struct ParamAvg<T> {
    comm: T,
    prev_avg: Vec<f32>,
    /// This round's average; trades places with `prev_avg` every round.
    avg: Vec<f32>,
}

impl<T: Transport> Exchange for ParamAvg<T> {
    fn round(&mut self, l: &mut Learner, _round: Round<'_>) -> Result<Outcome, WireError> {
        let params = l.model.params_mut();
        average_params(&mut self.comm, params, &mut self.avg)?;
        params.copy_from_slice(&self.avg);
        let signal = Some(delta_sq_norm(&self.avg, &self.prev_avg));
        std::mem::swap(&mut self.avg, &mut self.prev_avg);
        Ok(Outcome {
            signal,
            ..Outcome::default()
        })
    }
}

/// DaSGD: the round-`k` average of the *pre-application* parameters lands
/// at round `k+1`, re-based onto the local progress made since its
/// snapshot, so the allreduce overlaps the next round's compute.
struct DelayedAvg<T> {
    comm: T,
    snap: Vec<f32>,
    pending: Option<Vec<f32>>,
    /// The average that landed last round: next round's allreduce frame.
    spare: Vec<f32>,
}

impl<T: Transport> Exchange for DelayedAvg<T> {
    fn round(&mut self, l: &mut Learner, _round: Round<'_>) -> Result<Outcome, WireError> {
        let params = l.model.params_mut();
        let mut avg = std::mem::take(&mut self.spare);
        average_params(&mut self.comm, params, &mut avg)?;
        if let Some(prev) = self.pending.replace(avg) {
            rebase(params, &prev, &self.snap);
            self.spare = prev;
        }
        self.snap.copy_from_slice(params);
        Ok(Outcome::default())
    }

    /// A pending average that never landed is flushed into the final
    /// parameters, exactly like the simulated strategy.
    fn final_params(&mut self, l: &Learner) -> Vec<f32> {
        let mut cur = l.model.params().to_vec();
        if let Some(prev) = &self.pending {
            rebase(&mut cur, prev, &self.snap);
        }
        cur
    }
}

/// One-shot model averaging: at every epoch end the independent learners'
/// parameters are gathered to rank 0 in rank order (the simulated
/// strategy's accumulation order) into a spare replica, evaluated instead.
struct EpochGather<T> {
    comm: T,
    /// Rank 0 only.
    avg_model: Option<Model>,
}

impl<T: Transport> Exchange for EpochGather<T> {
    fn epoch_end(&mut self, l: &mut Learner) -> Result<(), WireError> {
        let p = self.comm.size();
        let gather_tag = (self.comm.next_op() << 4) | 2;
        let Some(avg_model) = self.avg_model.as_mut() else {
            self.comm.send(0, gather_tag, l.model.params().to_vec())?;
            return Ok(());
        };
        let avg = avg_model.params_mut();
        avg.fill(0.0);
        let mut add = |v: &[f32]| {
            for (a, &b) in avg.iter_mut().zip(v) {
                *a += b / p as f32;
            }
        };
        add(l.model.params());
        for r in 1..p {
            let replica = self.comm.recv(r, gather_tag)?;
            if replica.len() != l.model.param_len() {
                // A short frame would otherwise truncate the average.
                return Err(CommError::MalformedLength {
                    peer: r,
                    expected: l.model.param_len(),
                    got: replica.len(),
                }
                .into());
            }
            add(&replica);
        }
        Ok(())
    }

    fn eval_model<'a>(&'a mut self, l: &'a mut Learner) -> &'a mut Model {
        self.avg_model.as_mut().unwrap_or(&mut l.model)
    }

    fn final_params(&mut self, l: &Learner) -> Vec<f32> {
        self.avg_model
            .as_ref()
            .unwrap_or(&l.model)
            .params()
            .to_vec()
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
    /// One momentum-SGD step — same arithmetic as the simulated strategy.
    fn apply_local(&mut self, l: &mut Learner, gamma: f32) {
        let (params, grads) = l.model.params_and_grads_mut();
        for ((vi, pi), &gi) in self.velocity.iter_mut().zip(params).zip(grads) {
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

/// Build `algo`'s exchange over `comm`, a flat world — `algo.learners()`
/// learners, followed by the parameter-server shards for the PS algorithms
/// — armed by `faults` where the exchange is SASGD, and align learner `l`
/// with its peers (the `x0` broadcast of Algorithm 1, the server's initial
/// pull; the averaging algorithms start from the factory's identical
/// replicas, like their simulated strategies). `None`: the algorithm has no
/// exchange over this world.
pub(crate) fn connect<'a, T: Transport + 'a>(
    algo: &Algorithm,
    mut comm: T,
    faults: Option<&'a FaultConfig>,
    l: &mut Learner,
    factory: &dyn Fn() -> Model,
) -> Result<Option<Box<dyn Exchange + 'a>>, WireError> {
    if let Some(faults) = faults {
        assert!(
            !faults.deadline.is_zero(),
            "failure-detection deadline must be nonzero"
        );
    }
    Ok(Some(match (*algo, faults) {
        (Algorithm::Sequential, None) => Box::new(Solo),
        (
            Algorithm::Sasgd {
                gamma_p,
                compression,
                ..
            },
            faults,
        ) => Box::new(GradTree {
            x: broadcast_x0(&mut comm, l)?,
            codec: compression
                .map(|comp| ErrorFeedback::new(comp, l.model.param_len(), l.model.param_blocks())),
            membership: Membership::new(comm.size()),
            comm,
            gamma_p,
            faults,
        }),
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
            Box::new(HierTree {
                x: broadcast_x0(&mut comm, l)?,
                group: Membership::of(first..first + per_group),
                leaders: Membership::of((0..groups * per_group).step_by(per_group)),
                comm,
                t_global,
                gamma_p,
                local_rounds: 0,
            })
        }
        (Algorithm::LocalSgd { .. }, None) => Box::new(ParamAvg {
            comm,
            prev_avg: l.model.params().to_vec(),
            avg: Vec::new(),
        }),
        (Algorithm::DelayedAvg { .. }, None) => Box::new(DelayedAvg {
            comm,
            snap: l.model.params().to_vec(),
            pending: None,
            spare: Vec::new(),
        }),
        (Algorithm::ModelAverageOnce { .. }, None) => Box::new(EpochGather {
            avg_model: (comm.rank() == 0).then(factory),
            comm,
        }),
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
            let alpha = moving_rate.unwrap_or(0.9 / p as f32);
            assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
            assert!(alpha > 0.0 && alpha <= 1.0, "moving rate out of range");
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
    use crate::trainer::TrainConfig;
    use sasgd_comm::ps_transport::serve_shard;
    use sasgd_comm::CommWorld;
    use sasgd_nn::models;
    use sasgd_tensor::SeedRng;
    use std::sync::mpsc;

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
                connect(&algo, late, None, &mut l, &model).is_err(),
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
                connect(&algo, learner, None, &mut l, &model)
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

    #[test]
    fn a_short_gathered_replica_is_a_wire_error_not_a_truncated_average() {
        let cfg = TrainConfig::new(1, 8, 0.05, 1);
        let model = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let mut world = CommWorld::new(2).communicators().into_iter();
        let root = world.next().expect("rank 0");
        let mut peer = world.next().expect("rank 1");
        let mut l = Learner::new(0, model(), &cfg);
        let algo = Algorithm::ModelAverageOnce { p: 2 };
        let mut exchange = connect(&algo, root, None, &mut l, &model)
            .ok()
            .flatten()
            .expect("rank 0's exchange");
        let gather = (peer.next_op() << 4) | 2;
        peer.send(0, gather, vec![0.5; 3]).expect("send");
        let err = exchange
            .epoch_end(&mut l)
            .expect_err("a short replica must fail the gather");
        assert!(err.0.contains("3 elements, expected"), "{}", err.0);
    }
}
