//! Grouped communicators and hierarchical allreduce.
//!
//! The two-level aggregation of hierarchical SASGD needs three scopes per
//! learner: the global group, the local group (learners sharing a device
//! or switch), and — for local rank 0 only — the leader group that talks
//! across groups. [`grouped`] builds all three up front;
//! [`hierarchical_allreduce`] composes the crate's collectives into the
//! classic local-reduce → leader-allreduce → local-broadcast pattern.

use std::sync::Arc;

use crate::collectives::{allreduce_tree, broadcast, reduce_tree};
use crate::transport::Transport;
use crate::world::{CommError, CommWorld, Communicator, Traffic};

/// The communicator bundle one learner thread receives. Generic over the
/// [`Transport`] carrying each scope (defaulting to the in-process
/// [`Communicator`], which [`grouped`] builds); a multi-host deployment
/// would plug socket endpoints into the same shape.
pub struct GroupedComm<T: Transport = Communicator> {
    /// Endpoint in the flat world of all `groups × per_group` learners.
    pub global: T,
    /// Endpoint among the members of this learner's group.
    pub local: T,
    /// Endpoint among group leaders; `Some` only for local rank 0.
    pub leaders: Option<T>,
    /// This learner's group index.
    pub group: usize,
}

impl<T: Transport> GroupedComm<T> {
    /// Rank within the local group.
    pub fn local_rank(&self) -> usize {
        self.local.rank()
    }
}

/// Build the communicator bundles for `groups × per_group` learners.
/// Bundle `i` belongs to global rank `i`, group `i / per_group`, local
/// rank `i % per_group`. Also returns the traffic counters of every world
/// behind the bundles (global, leaders, one per group), so a caller can
/// account the run's whole wire volume.
pub fn grouped(groups: usize, per_group: usize) -> (Vec<GroupedComm>, Vec<Arc<Traffic>>) {
    assert!(groups >= 1 && per_group >= 1, "need at least one learner");
    let mut global_world = CommWorld::new(groups * per_group);
    let global = global_world.communicators();
    let mut leader_world = CommWorld::new(groups);
    let mut traffic = vec![global_world.traffic(), leader_world.traffic()];
    let mut leaders: Vec<Option<Communicator>> =
        leader_world.communicators().into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(groups * per_group);
    let mut global_iter = global.into_iter();
    for (g, leader_slot) in leaders.iter_mut().enumerate() {
        let mut local_world = CommWorld::new(per_group);
        traffic.push(local_world.traffic());
        let locals = local_world.communicators();
        for (lr, local) in locals.into_iter().enumerate() {
            out.push(GroupedComm {
                global: global_iter.next().expect("global endpoint"),
                local,
                leaders: if lr == 0 { leader_slot.take() } else { None },
                group: g,
            });
        }
    }
    (out, traffic)
}

/// Hierarchical sum-allreduce: reduce within each group to its leader,
/// allreduce among leaders, broadcast back within each group. Produces the
/// same sums as a flat allreduce while sending only `O(per_group)` local
/// plus `O(log groups)` leader traffic per group.
pub fn hierarchical_allreduce<T: Transport>(
    comm: &mut GroupedComm<T>,
    buf: &mut Vec<f32>,
) -> Result<(), CommError> {
    reduce_tree(&mut comm.local, 0, buf)?;
    if let Some(leaders) = comm.leaders.as_mut() {
        allreduce_tree(leaders, buf)?;
    }
    broadcast(&mut comm.local, 0, buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_hierarchical(groups: usize, per_group: usize, m: usize) -> Vec<Vec<f32>> {
        let (bundles, _) = grouped(groups, per_group);
        let p = groups * per_group;
        let mut out: Vec<Option<Vec<f32>>> = (0..p).map(|_| None).collect();
        thread::scope(|s| {
            let handles: Vec<_> = bundles
                .into_iter()
                .enumerate()
                .map(|(i, mut b)| {
                    s.spawn(move || {
                        let mut v: Vec<f32> = (0..m).map(|j| (i * m + j) as f32).collect();
                        hierarchical_allreduce(&mut b, &mut v).expect("hierarchical allreduce");
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
    fn bundles_have_correct_scopes() {
        let (bundles, traffic) = grouped(3, 2);
        assert_eq!(bundles.len(), 6);
        assert_eq!(traffic.len(), 2 + 3, "global, leaders, one per group");
        for (i, b) in bundles.iter().enumerate() {
            assert_eq!(b.global.rank(), i);
            assert_eq!(b.group, i / 2);
            assert_eq!(b.local_rank(), i % 2);
            assert_eq!(b.local.size(), 2);
            assert_eq!(b.leaders.is_some(), i % 2 == 0, "only local rank 0 leads");
        }
        if let Some(l) = &bundles[2].leaders {
            assert_eq!(l.size(), 3);
            assert_eq!(l.rank(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one learner")]
    fn zero_groups_rejected() {
        let _ = grouped(0, 2);
    }
}
