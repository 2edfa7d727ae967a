//! Fault-tolerant collectives: membership epochs and a self-healing
//! allreduce.
//!
//! The plain collectives in [`crate::collectives`] assume every rank is
//! alive; one dead learner either hangs its parent forever or cascades a
//! panic. [`ft_allreduce`] instead runs the same binomial reduction over an
//! explicit [`Membership`] (the list of live ranks, versioned by an epoch
//! counter) with a deadline on every receive, and heals around failures:
//!
//! 1. **Reduce with masks.** Each contribution is prefixed by a
//!    contribution mask (`p` flags); partial sums carry the union of the
//!    ranks they cover. Children merge into parents in member order —
//!    the exact combine order of [`crate::collectives::reduce_tree`] — so
//!    with full membership and no faults the result is bitwise identical
//!    to the plain tree.
//! 2. **Reroute on peer loss.** A rank whose tree parent is gone (send
//!    fails with [`CommError::PeerGone`]) sends its partial directly to
//!    the coordinator (lowest live rank) on a recovery tag.
//! 3. **Recovery sweep.** If the coordinator's mask is incomplete after
//!    the tree phase, it drains recovery partials until the mask is
//!    complete or the deadline passes, then merges them **in ascending
//!    sender order** — deterministic for a fixed fault plan.
//! 4. **Membership epoch.** Ranks that contributed form the next
//!    membership; the epoch increments and the result broadcast carries
//!    the new mask, so every survivor rebuilds the same `p' < p` binomial
//!    tree for subsequent rounds. Evicted-but-alive ranks (long stalls)
//!    time out on the result and exit with [`FtError::Evicted`].
//!
//! The coordinator is a fixed point of the recovery protocol: its loss is
//! not survivable and surfaces as [`FtError::CoordinatorLost`] — the same
//! single-point-of-coordination the paper's parameter server has. A stall
//! of an *interior* tree node shorter than the deadline is absorbed;
//! longer, its whole subtree's contribution is stuck behind it and the
//! subtree is evicted with it (documented granularity of the detector —
//! a round later those ranks are simply gone, survivors proceed).

use std::time::Duration;

use crate::collectives::expect_len;
use crate::transport::Transport;
use crate::world::CommError;

/// Tag space mirroring `collectives::tag` (phases: 1 = tree partial,
/// 2 = recovery partial, 3 = result).
fn tag(op: u64, phase: u64) -> u64 {
    (op << 4) | phase
}

/// The live ranks of a world, sorted ascending, plus the epoch counter
/// that versions membership changes. All survivors hold identical
/// memberships: changes are decided by the coordinator and distributed
/// with the round result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Membership {
    members: Vec<usize>,
    epoch: u64,
}

impl Membership {
    /// Full membership of a `p`-rank world, epoch 0.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "membership needs at least one rank");
        Membership {
            members: (0..p).collect(),
            epoch: 0,
        }
    }

    /// Live ranks, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Membership epoch: number of membership changes so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live ranks.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no rank is left.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The recovery coordinator: the lowest live rank.
    pub fn coordinator(&self) -> usize {
        self.members[0]
    }

    /// Is `rank` a member?
    pub fn contains(&self, rank: usize) -> bool {
        self.members.binary_search(&rank).is_ok()
    }

    /// Position of `rank` in the member list (its virtual rank in the
    /// rebuilt binomial tree).
    pub fn index_of(&self, rank: usize) -> Option<usize> {
        self.members.binary_search(&rank).ok()
    }
}

/// Why a fault-tolerant collective gave up on this rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtError {
    /// This rank was cut from the membership (it stalled past the deadline
    /// or its contribution was lost); survivors continue without it.
    Evicted {
        /// The evicted rank (self).
        rank: usize,
    },
    /// The recovery coordinator is unreachable — not survivable.
    CoordinatorLost {
        /// This rank (reporting the loss).
        rank: usize,
    },
    /// The caller is not in the membership it passed — it was evicted in
    /// an earlier round (or handed a stale membership) and must not
    /// participate. Typed so the engine can retire the rank gracefully;
    /// this used to be a panic.
    NotMember {
        /// The non-member rank (self).
        rank: usize,
    },
    /// An unexpected wire error (world torn down mid-collective).
    Comm(CommError),
}

impl From<CommError> for FtError {
    fn from(e: CommError) -> Self {
        FtError::Comm(e)
    }
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::Evicted { rank } => write!(f, "rank {rank} evicted from membership"),
            FtError::CoordinatorLost { rank } => {
                write!(f, "rank {rank} lost the recovery coordinator")
            }
            FtError::NotMember { rank } => {
                write!(f, "rank {rank} called ft_allreduce while not a member")
            }
            FtError::Comm(e) => write!(f, "communication failed: {e}"),
        }
    }
}

impl std::error::Error for FtError {}

/// What a fault-tolerant round reports alongside its sum.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FtOutcome {
    /// Ranks evicted this round (empty for a clean round).
    pub lost: Vec<usize>,
    /// Membership epoch after the round.
    pub epoch: u64,
}

/// Element-wise `a += b` over mask-prefixed payloads of equal length.
fn add_assign(a: &mut [f32], b: &[f32]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// `words`, once each is exactly `0.0` or `1.0`.
fn check_mask(frame: &'static str, words: &[f32]) -> Result<(), CommError> {
    if words.iter().all(|&w| w == 0.0 || w == 1.0) {
        Ok(())
    } else {
        Err(CommError::Malformed {
            frame,
            reason: "mask word neither 0 nor 1",
        })
    }
}

/// `part` from `peer`, once it is a mask-prefixed payload of `len`
/// elements with a valid `p`-word mask: a short partial would otherwise be
/// summed truncated and still read as fully covered.
fn checked(peer: usize, len: usize, p: usize, part: Vec<f32>) -> Result<Vec<f32>, CommError> {
    let part = expect_len(peer, len, part)?;
    check_mask("ft partial", &part[..p])?;
    Ok(part)
}

/// Fault-tolerant sum-allreduce over the current membership.
///
/// On a clean round, `buf` ends as the member-wise sum (bitwise identical
/// to [`crate::collectives::allreduce_tree`] when membership is full) and
/// the returned [`FtOutcome::lost`] is empty. When members are lost the
/// survivors' `buf` is the sum over the ranks that contributed, the
/// membership shrinks to those ranks, and its epoch increments; all
/// survivors observe the identical new membership. `deadline` bounds every
/// receive of the reduce phase; the result wait scales it by the member
/// count so a coordinator that pays several detection timeouts is not
/// mistaken for a dead one.
pub fn ft_allreduce<T: Transport>(
    comm: &mut T,
    membership: &mut Membership,
    buf: &mut [f32],
    deadline: Duration,
) -> Result<FtOutcome, FtError> {
    let p = comm.size();
    let me = comm.rank();
    let m = membership.len();
    let Some(me_idx) = membership.index_of(me) else {
        // Evicted in an earlier round (or handed a stale membership):
        // a typed error the engine turns into graceful retirement.
        return Err(FtError::NotMember { rank: me });
    };
    if m == 1 {
        comm.next_op();
        return Ok(FtOutcome {
            lost: Vec::new(),
            epoch: membership.epoch(),
        });
    }
    let op = comm.next_op();
    let coord = membership.coordinator();
    let n = buf.len();

    // Mask-prefixed contribution: [p flags] ++ data.
    let mut payload = vec![0.0f32; p + n];
    payload[me] = 1.0;
    payload[p..].copy_from_slice(buf);

    // A child whose lowest set bit is 2^k first waits on its own k
    // children, paying up to one deadline per level when they are dead —
    // so the receive window for a level-k child must cover k cascaded
    // timeouts plus one: a fixed window would expire exactly as a
    // delayed-but-live partial arrives.
    let level_wait = |level: u32| deadline * (level + 1);

    if me_idx == 0 {
        // ── Coordinator: tree reduce, recovery sweep, decide, distribute.
        let mut bit = 1usize;
        let mut level = 0u32;
        while bit < m {
            let child_idx = bit;
            if child_idx < m {
                let child = membership.members()[child_idx];
                match comm.recv_deadline(child, tag(op, 1), level_wait(level)) {
                    Ok(part) => add_assign(&mut payload, &checked(child, p + n, p, part)?),
                    Err(CommError::Timeout { .. }) => {} // subtree missing; sweep below
                    Err(e) => return Err(e.into()),
                }
            }
            bit <<= 1;
            level += 1;
        }
        let covered = |payload: &[f32], r: usize| payload[r] == 1.0;
        let missing: Vec<usize> = membership
            .members()
            .iter()
            .copied()
            .filter(|&r| !covered(&payload, r))
            .collect();
        if !missing.is_empty() {
            // Recovery sweep: ranks whose parent died reroute their
            // partials here. Buffer, then merge in ascending sender order
            // so the combine order is a function of the fault plan alone.
            let candidates: Vec<(usize, u64)> = missing.iter().map(|&r| (r, tag(op, 2))).collect();
            let mut coverage: Vec<bool> = (0..p).map(|r| covered(&payload, r)).collect();
            let mut recovered: Vec<(usize, Vec<f32>)> = Vec::new();
            // A rerouting rank may itself have paid cascaded timeouts
            // before its parent-send failed; wait out the full depth.
            let levels = m.next_power_of_two().trailing_zeros();
            loop {
                if membership.members().iter().all(|&r| coverage[r]) {
                    break;
                }
                match comm.recv_any_deadline(&candidates, level_wait(levels)) {
                    Ok((src, part)) => {
                        let part = checked(src, p + n, p, part)?;
                        for (r, c) in coverage.iter_mut().enumerate() {
                            *c = *c || part[r] == 1.0;
                        }
                        recovered.push((src, part));
                    }
                    Err(CommError::Timeout { .. }) => break, // the rest are dead
                    Err(e) => return Err(e.into()),
                }
            }
            recovered.sort_by_key(|&(src, _)| src);
            for (_, part) in &recovered {
                add_assign(&mut payload, part);
            }
        }
        let new_members: Vec<usize> = membership
            .members()
            .iter()
            .copied()
            .filter(|&r| covered(&payload, r))
            .collect();
        let lost: Vec<usize> = membership
            .members()
            .iter()
            .copied()
            .filter(|&r| !covered(&payload, r))
            .collect();
        let epoch = membership.epoch() + u64::from(!lost.is_empty());
        assert!(epoch <= u64::from(u32::MAX), "membership epoch overflow");
        // Result: [epoch, final mask, data], sent directly to each
        // survivor — direct sends carry identical bytes regardless of
        // membership shape, so the data stays bitwise intact.
        let mut result = Vec::with_capacity(1 + p + n);
        result.push(f32::from_bits(epoch as u32));
        result.extend_from_slice(&payload);
        for &r in new_members.iter().skip(1) {
            // A survivor that died right after contributing is caught next
            // round; ignore the failed send.
            let _ = comm.send(r, tag(op, 3), result.clone());
        }
        buf.copy_from_slice(&payload[p..]);
        membership.members = new_members;
        membership.epoch = epoch;
        Ok(FtOutcome { lost, epoch })
    } else {
        // ── Non-coordinator: reduce into the tree, then await the result.
        let mut bit = 1usize;
        let mut level = 0u32;
        while bit < m {
            if me_idx & bit != 0 {
                let parent = membership.members()[me_idx & !bit];
                match comm.send(parent, tag(op, 1), payload.clone()) {
                    Ok(()) => {}
                    Err(CommError::PeerGone { .. }) => {
                        // Parent crashed: reroute the partial to the
                        // coordinator's recovery sweep.
                        comm.send(coord, tag(op, 2), payload)
                            .map_err(|_| FtError::CoordinatorLost { rank: me })?;
                    }
                    Err(e) => return Err(e.into()),
                }
                break;
            }
            let child_idx = me_idx | bit;
            if child_idx < m {
                let child = membership.members()[child_idx];
                match comm.recv_deadline(child, tag(op, 1), level_wait(level)) {
                    Ok(part) => add_assign(&mut payload, &checked(child, p + n, p, part)?),
                    Err(CommError::Timeout { .. }) => {} // missing subtree; root sweeps
                    Err(e) => return Err(e.into()),
                }
            }
            bit <<= 1;
            level += 1;
        }
        // The coordinator may legitimately spend several deadlines on
        // detection and sweeping before it can answer.
        let result_wait = deadline * (2 * m as u32 + 4);
        let result = match comm.recv_deadline(coord, tag(op, 3), result_wait) {
            Ok(r) => r,
            Err(CommError::Timeout { .. }) => return Err(FtError::Evicted { rank: me }),
            Err(e) => return Err(e.into()),
        };
        // [epoch, mask, data], validated before any of it is used.
        let result = expect_len(coord, 1 + p + n, result)?;
        let epoch = u64::from(result[0].to_bits());
        if epoch < membership.epoch() {
            return Err(FtError::Comm(CommError::Malformed {
                frame: "ft result",
                reason: "epoch older than the receiver's",
            }));
        }
        check_mask("ft result", &result[1..=p])?;
        let new_members: Vec<usize> = (0..p).filter(|&r| result[1 + r] == 1.0).collect();
        let lost: Vec<usize> = membership
            .members()
            .iter()
            .copied()
            .filter(|&r| !new_members.contains(&r))
            .collect();
        if !new_members.contains(&me) {
            return Err(FtError::Evicted { rank: me });
        }
        buf.copy_from_slice(&result[1 + p..]);
        membership.members = new_members;
        membership.epoch = epoch;
        Ok(FtOutcome { lost, epoch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_tree;
    use crate::world::CommWorld;
    use std::thread;

    const D: Duration = Duration::from_millis(150);

    fn inputs(r: usize, n: usize) -> Vec<f32> {
        (0..n).map(|j| (r * n + j) as f32 * 0.1 + 1.0).collect()
    }

    #[test]
    fn fault_free_matches_plain_allreduce_bitwise() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let n = 9;
            let plain = {
                let mut world = CommWorld::new(p);
                let comms = world.communicators();
                let mut out = vec![Vec::new(); p];
                thread::scope(|s| {
                    let hs: Vec<_> = comms
                        .into_iter()
                        .map(|mut c| {
                            s.spawn(move || {
                                let mut v = inputs(c.rank(), n);
                                allreduce_tree(&mut c, &mut v).expect("allreduce");
                                v
                            })
                        })
                        .collect();
                    for (slot, h) in out.iter_mut().zip(hs) {
                        *slot = h.join().expect("rank");
                    }
                });
                out
            };
            let ft = {
                let mut world = CommWorld::new(p);
                let comms = world.communicators();
                let mut out = vec![Vec::new(); p];
                thread::scope(|s| {
                    let hs: Vec<_> = comms
                        .into_iter()
                        .map(|mut c| {
                            s.spawn(move || {
                                let mut mem = Membership::new(c.size());
                                let mut v = inputs(c.rank(), n);
                                let oc = ft_allreduce(&mut c, &mut mem, &mut v, D)
                                    .expect("ft allreduce");
                                assert!(oc.lost.is_empty());
                                assert_eq!(mem.epoch(), 0);
                                v
                            })
                        })
                        .collect();
                    for (slot, h) in out.iter_mut().zip(hs) {
                        *slot = h.join().expect("rank");
                    }
                });
                out
            };
            for (a, b) in plain.iter().zip(&ft) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "p={p}");
                }
            }
        }
    }

    /// One survivor's view after a degraded round: summed buffer, live
    /// ranks, membership epoch.
    type SurvivorView = (Vec<f32>, Vec<usize>, u64);

    /// Kill `dead` ranks before the round; survivors must agree on the
    /// survivor-only sum and the shrunken membership, without deadlock.
    fn run_with_dead(p: usize, dead: &[usize], n: usize) -> Vec<SurvivorView> {
        let mut world = CommWorld::new(p);
        let comms = world.communicators();
        let mut out: Vec<Option<SurvivorView>> = (0..p).map(|_| None).collect();
        thread::scope(|s| {
            let hs: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    let dead = dead.to_vec();
                    s.spawn(move || {
                        if dead.contains(&c.rank()) {
                            return None; // crash: endpoint drops here
                        }
                        let mut mem = Membership::new(c.size());
                        let mut v = inputs(c.rank(), n);
                        let oc = ft_allreduce(&mut c, &mut mem, &mut v, D).expect("ft allreduce");
                        Some((v, oc.lost, mem.epoch()))
                    })
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(hs) {
                *slot = h.join().expect("rank thread");
            }
        });
        out.into_iter().flatten().collect()
    }

    #[test]
    fn one_dead_leaf_is_evicted_and_survivors_agree() {
        let p = 4;
        let n = 5;
        let dead = 3usize;
        let results = run_with_dead(p, &[dead], n);
        assert_eq!(results.len(), 3);
        let expect: Vec<f32> = (0..n)
            .map(|j| (0..p).filter(|&r| r != dead).map(|r| inputs(r, n)[j]).sum())
            .collect();
        for (v, lost, epoch) in &results {
            assert_eq!(lost, &vec![dead]);
            assert_eq!(*epoch, 1);
            for (a, b) in v.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn dead_interior_node_reroutes_live_children() {
        // Rank 2 (an interior node at p=8: children 3, 6) dies. Its live
        // children reroute to the coordinator; only rank 2 is evicted.
        let p = 8;
        let n = 4;
        let dead = 2usize;
        let results = run_with_dead(p, &[dead], n);
        assert_eq!(results.len(), 7);
        let expect: Vec<f32> = (0..n)
            .map(|j| (0..p).filter(|&r| r != dead).map(|r| inputs(r, n)[j]).sum())
            .collect();
        for (v, lost, epoch) in &results {
            assert_eq!(lost, &vec![dead], "only the dead rank is evicted");
            assert_eq!(*epoch, 1);
            for (a, b) in v.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn two_dead_ranks_and_next_round_is_clean() {
        let p = 8;
        let n = 3;
        let dead = [3usize, 5usize];
        let mut world = CommWorld::new(p);
        let comms = world.communicators();
        let mut out: Vec<Option<(Vec<f32>, u64)>> = (0..p).map(|_| None).collect();
        thread::scope(|s| {
            let hs: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    s.spawn(move || {
                        if dead.contains(&c.rank()) {
                            return None;
                        }
                        let mut mem = Membership::new(c.size());
                        let mut v = inputs(c.rank(), n);
                        ft_allreduce(&mut c, &mut mem, &mut v, D).expect("round 1");
                        assert_eq!(mem.len(), 6);
                        // Second round over the rebuilt p'=6 tree: clean.
                        let mut w = inputs(c.rank(), n);
                        let oc = ft_allreduce(&mut c, &mut mem, &mut w, D).expect("round 2");
                        assert!(oc.lost.is_empty());
                        Some((w, mem.epoch()))
                    })
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(hs) {
                *slot = h.join().expect("rank thread");
            }
        });
        let results: Vec<_> = out.into_iter().flatten().collect();
        assert_eq!(results.len(), 6);
        let expect: Vec<f32> = (0..n)
            .map(|j| {
                (0..p)
                    .filter(|r| !dead.contains(r))
                    .map(|r| inputs(r, n)[j])
                    .sum()
            })
            .collect();
        let first = &results[0].0;
        for (v, epoch) in &results {
            assert_eq!(*epoch, 1, "one membership change");
            for (a, b) in v.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-4);
            }
            // All survivors bitwise identical to each other.
            for (a, b) in v.iter().zip(first) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn non_member_caller_gets_typed_error_not_panic() {
        // A rank holding a membership it is not part of (evicted earlier,
        // or handed a stale one) must get FtError::NotMember — this was a
        // panic before.
        let mut world = CommWorld::new(4);
        let mut comms = world.communicators();
        let mut c3 = comms.pop().expect("rank 3");
        let mut mem = Membership {
            members: vec![0, 1, 2],
            epoch: 1,
        };
        let mut v = vec![1.0f32; 2];
        assert_eq!(
            ft_allreduce(&mut c3, &mut mem, &mut v, D),
            Err(FtError::NotMember { rank: 3 })
        );
        // Neither the membership nor the buffer was touched.
        assert_eq!(mem.members(), &[0, 1, 2]);
        assert_eq!(mem.epoch(), 1);
        assert_eq!(v, vec![1.0; 2]);
    }

    #[test]
    fn stalled_rank_is_evicted_with_typed_error() {
        let p = 4;
        let n = 2;
        let stall = 3usize; // a leaf: its stall cannot strand a subtree
        let short = Duration::from_millis(60);
        let mut world = CommWorld::new(p);
        let comms = world.communicators();
        let mut evicted = false;
        thread::scope(|s| {
            let hs: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    s.spawn(move || {
                        if c.rank() == stall {
                            thread::sleep(short * 5); // past the deadline
                        }
                        let mut mem = Membership::new(c.size());
                        let mut v = inputs(c.rank(), n);
                        let out = ft_allreduce(&mut c, &mut mem, &mut v, short);
                        if c.rank() != stall {
                            // Keep survivor endpoints alive until the
                            // straggler's result wait has expired, so it
                            // observes Evicted rather than a torn-down
                            // world.
                            thread::sleep(short * 22);
                        }
                        out
                    })
                })
                .collect();
            for (r, h) in hs.into_iter().enumerate() {
                let res = h.join().expect("rank thread");
                if r == stall {
                    assert_eq!(res, Err(FtError::Evicted { rank: stall }));
                    evicted = true;
                } else {
                    let oc = res.expect("survivor");
                    assert_eq!(oc.lost, vec![stall]);
                }
            }
        });
        assert!(evicted);
    }

    /// Two mock ranks on one thread; the peer's frames are sent by hand
    /// under the tag the collective is about to match.
    fn pair() -> (crate::mock::MockTransport, crate::mock::MockTransport) {
        let mut world = crate::mock::mock_world(2);
        let r1 = world.pop().expect("rank 1");
        (world.pop().expect("rank 0"), r1)
    }

    #[test]
    fn short_partial_is_malformed_length_not_a_truncated_sum() {
        let (mut r0, mut r1) = pair();
        let op = r1.next_op();
        // Rank 1's partial: a valid mask, then one data word short.
        r1.send(0, tag(op, 1), vec![0.0, 1.0, 5.0, 5.0, 5.0])
            .expect("send");
        let own = vec![1.0f32, 2.0, 3.0, 4.0];
        let (mut v, mut mem) = (own.clone(), Membership::new(2));
        let short = CommError::MalformedLength {
            peer: 1,
            expected: 6,
            got: 5,
        };
        assert_eq!(
            ft_allreduce(&mut r0, &mut mem, &mut v, D),
            Err(FtError::Comm(short))
        );
        assert_eq!(v, own, "the coordinator's sum is untouched");
        assert_eq!(mem, Membership::new(2));
    }

    #[test]
    fn short_result_is_malformed_length_not_a_panic() {
        let (mut r0, mut r1) = pair();
        let op = r0.next_op();
        // The coordinator's [epoch, mask, data]: one data word short.
        r0.send(1, tag(op, 3), vec![0.0, 1.0, 1.0, 7.0, 7.0, 7.0])
            .expect("send");
        let own = vec![1.0f32; 4];
        let (mut v, mut mem) = (own.clone(), Membership::new(2));
        let short = CommError::MalformedLength {
            peer: 0,
            expected: 7,
            got: 6,
        };
        assert_eq!(
            ft_allreduce(&mut r1, &mut mem, &mut v, D),
            Err(FtError::Comm(short))
        );
        assert_eq!(v, own);
        assert_eq!(mem, Membership::new(2));
    }

    #[test]
    fn mask_word_of_two_is_malformed() {
        let malformed = |out: &Result<FtOutcome, FtError>| {
            matches!(out, Err(FtError::Comm(CommError::Malformed { .. })))
        };
        // A partial claiming rank 1 twice.
        let (mut r0, mut r1) = pair();
        let op = r1.next_op();
        r1.send(0, tag(op, 1), vec![0.0, 2.0, 5.0, 5.0, 5.0, 5.0])
            .expect("send");
        let own = vec![1.0f32; 4];
        let mut v = own.clone();
        let out = ft_allreduce(&mut r0, &mut Membership::new(2), &mut v, D);
        assert!(malformed(&out), "{out:?}");
        assert_eq!(v, own);
        // The same word in a result, and a result from an older epoch.
        let stale = Membership {
            members: vec![0, 1],
            epoch: 1,
        };
        for result in [
            vec![f32::from_bits(1), 1.0, 2.0, 7.0, 7.0, 7.0, 7.0],
            vec![f32::from_bits(0), 1.0, 1.0, 7.0, 7.0, 7.0, 7.0],
        ] {
            let (mut r0, mut r1) = pair();
            let op = r0.next_op();
            r0.send(1, tag(op, 3), result).expect("send");
            let mut mem = stale.clone();
            let out = ft_allreduce(&mut r1, &mut mem, &mut [1.0f32; 4], D);
            assert!(malformed(&out), "{out:?}");
            assert_eq!(mem, stale);
        }
    }
}
