//! The binomial tree, written once.
//!
//! Every tree collective of this crate walks the paper's `O(m log p)`
//! binomial tree over a [`Membership`]: all of a world's ranks, one group of
//! hierarchical SASGD, its group leaders, or the survivors of a fault.
//! `links` alone decides the tree's shape; a [`Fold`] supplies the rest —
//! how a partial is framed, how a child's frame merges in, and how the
//! total goes down (the dense tree, its 8-bit leaf frames and the sparse
//! tree each bring one). Children merge in ascending bit order, so over a
//! full membership [`allreduce_over`] is
//! [`crate::collectives::allreduce_tree`], bit for bit and message for
//! message. Every rank of the world calls every walk, and a non-member only
//! takes the walk's ops: tags stay aligned world-wide, and walks over
//! disjoint memberships never share a `(src, tag)` queue.
//!
//! **Fault tolerance is the walk's error path**, armed by a deadline;
//! unarmed, the walk sends the plain tree's frames and nothing else. Armed,
//! every partial carries a coverage mask (`p` flags) ahead of its payload,
//! and each frame's mask and length are checked before use. A child at
//! level `l` gets `l + 1` deadlines (it may have waited out `l` dead levels
//! below it) and is otherwise left to the coordinator, the first member. A
//! member whose parent is gone ([`CommError::PeerGone`] on its send)
//! reroutes its partial there. The coordinator then sweeps for rerouted
//! partials until its mask is complete or the deadline passes, merges them
//! in ascending sender order — a combine order fixed by the fault plan
//! alone — and sends `[epoch, mask, total]` directly to each survivor. The
//! epoch increments when anyone was lost, and every survivor rebuilds the
//! same tree over the same `p' < p` members. An evicted-but-alive rank times
//! out on the result ([`FtError::Evicted`]); the coordinator's own loss is
//! not survivable ([`FtError::CoordinatorLost`]), and an interior node that
//! stalls past its window takes its subtree with it.

use std::ops::Range;
use std::time::Duration;

use crate::transport::Transport;
use crate::world::CommError;

/// Tag of `phase` within collective op `op`. Tree phases: 0 the way down,
/// 1 partials up, 2 rerouted partials, 3 armed results.
pub(crate) fn tag(op: u64, phase: u64) -> u64 {
    (op << 4) | phase
}

/// Ranks of a world, sorted ascending, plus the epoch counter that versions
/// membership changes. Survivors of a fault hold identical memberships: the
/// coordinator decides each change and sends it with the round's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Membership {
    members: Vec<usize>,
    epoch: u64,
}

impl Membership {
    /// Full membership of a `p`-rank world, epoch 0.
    pub fn new(p: usize) -> Self {
        Self::of(0..p)
    }

    /// The given ranks of a world, in any order, epoch 0.
    pub fn of(ranks: impl IntoIterator<Item = usize>) -> Self {
        let mut members: Vec<usize> = ranks.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        Membership { members, epoch: 0 }
    }

    /// Member ranks, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Membership epoch: number of membership changes so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no rank is left.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The tree's root and recovery coordinator: the lowest member.
    pub fn coordinator(&self) -> usize {
        self.members[0]
    }

    /// Is `rank` a member?
    pub fn contains(&self, rank: usize) -> bool {
        self.members.binary_search(&rank).is_ok()
    }

    /// Position of `rank` in the member list: its index in the tree.
    pub fn index_of(&self, rank: usize) -> Option<usize> {
        self.members.binary_search(&rank).ok()
    }
}

/// Why an armed walk gave up on this rank.
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
    /// The caller is not in the membership it passed — evicted in an
    /// earlier round, or handed a stale membership.
    NotMember {
        /// The non-member rank (self).
        rank: usize,
    },
    /// Any other wire error (a malformed frame, the world torn down).
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
            FtError::NotMember { rank } => write!(f, "rank {rank} is not a member"),
            FtError::Comm(e) => write!(f, "communication failed: {e}"),
        }
    }
}

impl std::error::Error for FtError {}

/// What an allreduce reports alongside its total.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FtOutcome {
    /// Ranks evicted this round (always empty unarmed).
    pub lost: Vec<usize>,
    /// Membership epoch after the round.
    pub epoch: u64,
}

/// What one allreduce brings to the walk. A received frame's payload starts
/// at `at`, past the mask an armed walk puts ahead of it (`0` unarmed); the
/// walk guarantees `frame.len() >= at`. A frame that fails validation is an
/// error and leaves the fold's partial untouched.
pub trait Fold {
    /// This member's partial, after `head`, for its parent; `level` is the
    /// send's tree level (0: a leaf's own contribution).
    fn up(&mut self, level: u32, head: &[f32]) -> Vec<f32>;
    /// Merge `frame[at..]`, the partial `from` sent at `level`.
    fn merge(&mut self, from: usize, level: u32, frame: Vec<f32>, at: usize) -> Wire;
    /// At the root, once: the total goes down to `copies` members at `level`.
    fn seal(&mut self, _level: usize, _copies: usize) {}
    /// Adopt `frame[at..]`, the total as `from` sent it.
    fn adopt(&mut self, from: usize, frame: Vec<f32>, at: usize) -> Wire;
    /// The total, framed for one member below this one.
    fn copy(&mut self) -> Vec<f32>;
}

/// A wire step's result.
pub type Wire = Result<(), CommError>;

/// `frame` after `head`; `frame` itself when there is no head.
pub(crate) fn prefixed(head: &[f32], frame: Vec<f32>) -> Vec<f32> {
    match head {
        [] => frame,
        _ => [head, &frame].concat(),
    }
}

/// Member `i`'s links in the binomial tree over `m` members rooted at member
/// 0. Up, its parent is `i` with the lowest set bit cleared and its children
/// are `i | 2^l` for the levels `l` below that bit; down, its parent is `i`
/// with the highest set bit cleared and its children are `i | 2^l` for the
/// levels above that bit. Children come in ascending order.
pub(crate) struct Links {
    /// Up: the parent and the send's level; `None` at the root.
    pub(crate) up: Option<(usize, u32)>,
    /// Up: `(child, level)`, in merge order.
    pub(crate) children: Vec<(usize, u32)>,
    /// Down: the parent; `None` at the root.
    pub(crate) down: Option<usize>,
    /// Down: the children, in send order.
    pub(crate) fanout: Vec<usize>,
}

/// See [`Links`].
pub(crate) fn links(i: usize, m: usize) -> Links {
    let (low, high) = (i.trailing_zeros(), usize::BITS - i.leading_zeros());
    let kids = move |l: Range<u32>| {
        l.map(move |l| (i | (1 << l), l))
            .take_while(move |c| c.0 < m)
    };
    Links {
        up: (i != 0).then(|| (i & !(1 << low), low)),
        children: kids(0..low).collect(),
        down: (i != 0).then(|| i & !(1 << (high - 1))),
        fanout: kids(high..usize::BITS).map(|(c, _)| c).collect(),
    }
}

/// Levels of the tree over `m >= 1` members, `⌈log₂ m⌉`: the level a wire
/// profile books the way down at.
pub(crate) fn depth(m: usize) -> usize {
    (usize::BITS - (m - 1).leading_zeros()) as usize
}

/// An armed walk's round: the deadline, the coverage mask, the coordinator.
struct Guard {
    deadline: Duration,
    mask: Vec<f32>,
    coord: usize,
}

/// `words`, once there are enough of them and each is exactly 0 or 1.
fn check_mask<'a>(frame: &'static str, words: Option<&'a [f32]>) -> Result<&'a [f32], CommError> {
    let reason = match words {
        Some(w) if w.iter().all(|&x| x == 0.0 || x == 1.0) => return Ok(w),
        Some(_) => "mask word neither 0 nor 1",
        None => "shorter than its mask",
    };
    Err(CommError::Malformed { frame, reason })
}

/// Merge the partial `(from, level)` sent; armed, its mask is checked and
/// joins the round's coverage first.
fn merge<F: Fold>(
    fold: &mut F,
    g: Option<&mut Guard>,
    (from, level): (usize, u32),
    frame: Vec<f32>,
) -> Wire {
    let Some(g) = g else {
        return fold.merge(from, level, frame, 0);
    };
    let words = check_mask("ft partial", frame.get(..g.mask.len()))?;
    g.mask.iter_mut().zip(words).for_each(|(c, w)| *c += w);
    fold.merge(from, level, frame, g.mask.len())
}

/// The way up under op `op`, for member `i`: merge the children's partials
/// in ascending bit order, then hand the partial to the parent.
// hot-path: once per round; unarmed, partials move up without a copy
fn up<T: Transport, F: Fold>(
    comm: &mut T,
    ms: &[usize],
    (i, op): (usize, u64),
    fold: &mut F,
    mut g: Option<&mut Guard>,
) -> Wire {
    let links = links(i, ms.len());
    for (c, level) in links.children {
        let child = ms[c];
        let frame = match &g {
            None => comm.recv(child, tag(op, 1))?,
            Some(g) => match comm.recv_deadline(child, tag(op, 1), g.deadline * (level + 1)) {
                Err(CommError::Timeout { .. }) => continue, // the coordinator sweeps
                frame => frame?,
            },
        };
        merge(fold, g.as_deref_mut(), (child, level), frame)?;
    }
    let Some((parent, level)) = links.up else {
        return Ok(());
    };
    let Some(g) = g else {
        return comm.send(ms[parent], tag(op, 1), fold.up(level, &[]));
    };
    let frame = fold.up(level, &g.mask);
    // lint:allow(hot-alloc): armed only — the partial is kept for a reroute.
    match comm.send(ms[parent], tag(op, 1), frame.clone()) {
        Err(CommError::PeerGone { .. }) => comm.send(g.coord, tag(op, 2), frame),
        sent => sent,
    }
}

/// The unarmed allreduce, in two ops: up to the first member, then the
/// total back down.
pub(crate) fn walk<T: Transport, F: Fold>(comm: &mut T, ms: &Membership, fold: &mut F) -> Wire {
    let reduce = comm.next_op();
    if let Some(i) = ms.index_of(comm.rank()) {
        up(comm, &ms.members, (i, reduce), fold, None)?;
    }
    broadcast_over(comm, ms, 0, fold)
}

/// Sum-allreduce over `membership` through `fold`: every member ends with
/// the total, and a non-member only takes the walk's ops.
///
/// Unarmed (`deadline` is `None`) the walk is the plain tree. Armed, the
/// members a round lost are evicted: survivors end with the total over the
/// ranks that contributed, and with one shrunken membership at the next
/// epoch. `deadline` bounds each level's receive; the result wait scales it
/// by the member count, so a coordinator that pays several detection
/// timeouts is not mistaken for a dead one. An armed non-member is
/// [`FtError::NotMember`] and takes no op.
pub fn allreduce_over<T: Transport, F: Fold>(
    comm: &mut T,
    membership: &mut Membership,
    fold: &mut F,
    deadline: Option<Duration>,
) -> Result<FtOutcome, FtError> {
    let (me, p, m) = (comm.rank(), comm.size(), membership.len());
    let (Some(i), Some(deadline)) = (membership.index_of(me), deadline) else {
        if deadline.is_some() {
            return Err(FtError::NotMember { rank: me });
        }
        walk(comm, membership, fold)?;
        let epoch = membership.epoch;
        return Ok(FtOutcome {
            lost: Vec::new(),
            epoch,
        });
    };
    let (op, coord) = (comm.next_op(), membership.coordinator());
    let mut mask = vec![0.0f32; p];
    mask[me] = 1.0;
    let mut g = Guard {
        deadline,
        mask,
        coord,
    };
    let lost_coord = |e| match e {
        CommError::PeerGone { peer } if peer == coord => FtError::CoordinatorLost { rank: me },
        e => FtError::Comm(e),
    };
    up(comm, &membership.members, (i, op), fold, Some(&mut g)).map_err(lost_coord)?;
    let bad = |reason| CommError::Malformed {
        frame: "ft result",
        reason,
    };

    let (survivors, epoch) = if i != 0 {
        let result = match comm.recv_deadline(coord, tag(op, 3), deadline * (2 * m as u32 + 4)) {
            Err(CommError::Timeout { .. }) => return Err(FtError::Evicted { rank: me }),
            result => result.map_err(lost_coord)?,
        };
        // [epoch, mask, total], validated before any of it is used.
        let mask = check_mask("ft result", result.get(1..=p))?;
        let epoch = u64::from(result[0].to_bits());
        if epoch < membership.epoch {
            return Err(bad("epoch older than the receiver's").into());
        }
        let survivors: Vec<usize> = (0..p).filter(|&r| mask[r] == 1.0).collect();
        if !survivors.contains(&me) {
            return Err(FtError::Evicted { rank: me });
        }
        fold.adopt(coord, result, 1 + p)?;
        (survivors, epoch)
    } else {
        let missing: Vec<(usize, u64)> = (membership.members.iter())
            .filter(|&&r| g.mask[r] != 1.0)
            .map(|&r| (r, tag(op, 2)))
            .collect();
        // A rerouting member may have paid a cascade of timeouts before its
        // send failed: wait out the tree's full depth. Merge in sender order.
        let wait = deadline * (m.next_power_of_two().trailing_zeros() + 1);
        let (mut covered, mut rerouted) = (g.mask.clone(), Vec::new());
        while missing.iter().any(|&(r, _)| covered[r] != 1.0) {
            match comm.recv_any_deadline(&missing, wait) {
                Ok((src, frame)) => {
                    let words = check_mask("ft partial", frame.get(..p))?;
                    covered.iter_mut().zip(words).for_each(|(c, w)| *c += w);
                    rerouted.push((src, frame));
                }
                Err(CommError::Timeout { .. }) => break, // the rest are dead
                Err(e) => return Err(e.into()),
            }
        }
        rerouted.sort_by_key(|&(src, _)| src);
        for (src, frame) in rerouted {
            let level = links(membership.index_of(src).unwrap_or(0), m).up;
            let level = level.map_or(0, |(_, l)| l);
            merge(fold, Some(&mut g), (src, level), frame)?;
        }
        let survivors: Vec<usize> = (membership.members.iter().copied())
            .filter(|&r| g.mask[r] == 1.0)
            .collect();
        let epoch = membership.epoch + u64::from(survivors.len() < m);
        if survivors.len() > 1 {
            fold.seal(depth(m), survivors.len() - 1);
            let result = [&[f32::from_bits(epoch as u32)][..], &g.mask, &fold.copy()].concat();
            for &r in &survivors[1..] {
                // A survivor that died right after contributing is caught
                // next round; ignore the failed send.
                let _ = comm.send(r, tag(op, 3), result.clone());
            }
        }
        (survivors, epoch)
    };
    let lost = membership.members.iter().copied();
    let lost = lost.filter(|r| !survivors.contains(r)).collect();
    membership.members = survivors;
    membership.epoch = epoch;
    Ok(FtOutcome { lost, epoch })
}

/// Broadcast over `ms` from its member `root` (an index into
/// [`Membership::members`]) — the tree's way down, under one op: the total
/// from the parent, then on to the children. A non-member only takes the
/// op.
// hot-path: once per round; the frames it sends are the ones it received
pub fn broadcast_over<T: Transport, F: Fold>(
    comm: &mut T,
    ms: &Membership,
    root: usize,
    fold: &mut F,
) -> Wire {
    let op = comm.next_op();
    let Some(i) = ms.index_of(comm.rank()) else {
        return Ok(());
    };
    let m = ms.len();
    let at = |v: usize| ms.members[(v + root) % m];
    let links = links((i + m - root) % m, m);
    match links.down {
        Some(parent) => fold.adopt(at(parent), comm.recv(at(parent), tag(op, 0))?, 0)?,
        None if m > 1 => fold.seal(depth(m), m - 1),
        None => {}
    }
    for c in links.fanout {
        comm.send(at(c), tag(op, 0), fold.copy())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce_tree, Dense};
    use crate::world::CommWorld;
    use std::thread;

    /// The armed dense tree over a slice: `buf` is left as it was on any
    /// error.
    fn ft_allreduce<T: Transport>(
        comm: &mut T,
        membership: &mut Membership,
        buf: &mut [f32],
        deadline: Duration,
    ) -> Result<FtOutcome, FtError> {
        let mut v = buf.to_vec();
        let outcome = allreduce_over(
            comm,
            membership,
            &mut Dense::new(&mut v, None),
            Some(deadline),
        )?;
        buf.copy_from_slice(&v);
        Ok(outcome)
    }

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

    /// Hierarchical allreduce as two memberships of one flat world: the
    /// group's tree, the group leaders' tree, the group's way down.
    fn run_hierarchical(groups: usize, per_group: usize, m: usize) -> Vec<Vec<f32>> {
        let p = groups * per_group;
        let mut world = CommWorld::new(p);
        let mut out: Vec<Option<Vec<f32>>> = (0..p).map(|_| None).collect();
        thread::scope(|s| {
            let handles: Vec<_> = world
                .communicators()
                .into_iter()
                .map(|mut c| {
                    s.spawn(move || {
                        let i = c.rank();
                        let first = i / per_group * per_group;
                        let mut group = Membership::of(first..first + per_group);
                        let mut leaders = Membership::of((0..p).step_by(per_group));
                        let mut v: Vec<f32> = (0..m).map(|j| (i * m + j) as f32).collect();
                        let fold = &mut Dense::new(&mut v, None);
                        allreduce_over(&mut c, &mut group, fold, None).expect("group");
                        let fold = &mut Dense::new(&mut v, None);
                        allreduce_over(&mut c, &mut leaders, fold, None).expect("leaders");
                        let fold = &mut Dense::new(&mut v, None);
                        broadcast_over(&mut c, &group, 0, fold).expect("down");
                        v
                    })
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("learner thread"));
            }
        });
        out.into_iter().map(|o| o.expect("result")).collect()
    }

    #[test]
    fn equals_flat_allreduce_for_many_shapes() {
        for (groups, per_group) in [(1usize, 1usize), (1, 4), (4, 1), (2, 3), (3, 2), (2, 4)] {
            let p = groups * per_group;
            let m = 7;
            let results = run_hierarchical(groups, per_group, m);
            let expect: Vec<f32> = (0..m)
                .map(|j| (0..p).map(|i| (i * m + j) as f32).sum())
                .collect();
            for (i, v) in results.iter().enumerate() {
                assert_eq!(v, &expect, "g={groups} pg={per_group} learner {i}");
            }
        }
    }

    #[test]
    fn a_partial_membership_is_the_plain_tree_over_its_members() {
        // Members {1, 3, 4} of 5: their sum, in the order of the plain tree
        // over three ranks; ranks 0 and 2 only take the ops.
        let sub = |r: usize| vec![inputs(r, 3)[0], 1.0e8, -(r as f32)];
        let mut world = CommWorld::new(5);
        let out: Vec<Vec<f32>> = thread::scope(|s| {
            let hs: Vec<_> = (world.communicators().into_iter())
                .map(|mut c| {
                    s.spawn(move || {
                        let mut mem = Membership::of([4, 1, 3]);
                        let mut v = sub(c.rank());
                        let fold = &mut Dense::new(&mut v, None);
                        allreduce_over(&mut c, &mut mem, fold, None).expect("walk");
                        // The next collective still lines up world-wide.
                        barrier_after(&mut c);
                        v
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("rank")).collect()
        });
        let plain = {
            let mut world = CommWorld::new(3);
            let hs: Vec<Vec<f32>> = thread::scope(|s| {
                let hs: Vec<_> = (world.communicators().into_iter())
                    .map(|mut c| {
                        s.spawn(move || {
                            let mut v = sub([1, 3, 4][c.rank()]);
                            allreduce_tree(&mut c, &mut v).expect("plain");
                            v
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().expect("rank")).collect()
            });
            hs[0].clone()
        };
        for (r, got) in out.iter().enumerate() {
            let want = if [1, 3, 4].contains(&r) {
                plain.clone()
            } else {
                sub(r)
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "rank {r}");
        }
    }

    fn barrier_after(c: &mut crate::world::Communicator) {
        crate::collectives::barrier(c).expect("barrier");
    }

    #[test]
    fn links_are_the_binomial_tree() {
        // p = 8: member 4 merges 5 then 6 and sends to 0, and hears the
        // total from 0; member 1 feeds 3 and 5 on the way down.
        let shape = |i, m| {
            let l = links(i, m);
            (l.up, l.children, l.down, l.fanout)
        };
        assert_eq!(
            shape(4, 8),
            (Some((0, 2)), vec![(5, 0), (6, 1)], Some(0), vec![])
        );
        assert_eq!(shape(1, 8), (Some((0, 0)), vec![], Some(0), vec![3, 5]));
        let root = (None, vec![(1, 0), (2, 1), (4, 2)], None, vec![1, 2, 4]);
        assert_eq!(shape(0, 5), root);
        assert_eq!((depth(1), depth(2), depth(5), depth(8)), (0, 1, 3, 3));
    }
}
