//! Mock transport: a minimal shared-memory reference implementation of
//! [`Transport`].
//!
//! Where [`crate::world::Communicator`] carries the production machinery
//! (wire fault injection, default deadlines, traffic counters) and
//! [`crate::socket::SocketTransport`] carries a real wire, this impl is
//! the failure-semantics table from [`crate::transport`] and *nothing
//! else*: one mutex-guarded inbox per rank, a condvar for arrival
//! notification, an alive flag per endpoint, and its own copy of the one
//! matching loop. The transport-conformance suite runs against all three;
//! when a semantics question comes up, this file is the shortest statement
//! of the intended answer.

// Receive deadlines are wall-clock by nature (the condvar wait needs
// remaining-time bookkeeping); the numeric path never reads these clocks.
// This file is on the analyzer's `wall-clock` allow-list for that reason.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::transport::{Transport, Wait};
use crate::world::CommError;

/// An undelivered message in a rank's inbox.
struct Slot {
    from: usize,
    tag: u64,
    payload: Vec<f32>,
}

/// State shared by every endpoint of one mock world.
struct Shared {
    inboxes: Vec<Mutex<VecDeque<Slot>>>,
    arrivals: Vec<Condvar>,
    alive: Vec<AtomicBool>,
}

/// One rank's endpoint in a [`mock_world`].
pub struct MockTransport {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
    /// Out-of-order arrivals parked until a matching receive (ordered map:
    /// `map-iter` lint, same rationale as `world.rs`).
    pending: BTreeMap<(usize, u64), VecDeque<Vec<f32>>>,
    op_counter: u64,
    default_deadline: Option<Duration>,
}

/// Build the `p` endpoints of a fresh mock world.
pub fn mock_world(p: usize) -> Vec<MockTransport> {
    // lint:allow(comm-unwrap): the world's size is the caller's, not wire input.
    assert!(p > 0, "world needs at least one rank");
    let shared = Arc::new(Shared {
        inboxes: (0..p).map(|_| Mutex::new(VecDeque::new())).collect(),
        arrivals: (0..p).map(|_| Condvar::new()).collect(),
        alive: (0..p).map(|_| AtomicBool::new(true)).collect(),
    });
    (0..p)
        .map(|rank| MockTransport {
            rank,
            size: p,
            shared: Arc::clone(&shared),
            pending: BTreeMap::new(),
            op_counter: 0,
            default_deadline: None,
        })
        .collect()
}

impl MockTransport {
    /// Set or clear this endpoint's default receive deadline.
    pub fn set_default_deadline(&mut self, deadline: Option<Duration>) {
        self.default_deadline = deadline;
    }

    /// Pop the next inbox message, blocking until one arrives or
    /// `deadline` passes (`None` = block forever, like the channel world).
    fn next_slot(
        &self,
        deadline: Option<Instant>,
        src: usize,
        tag: u64,
    ) -> Result<Slot, CommError> {
        let mut inbox = self.shared.inboxes[self.rank].lock().expect("inbox lock");
        loop {
            if let Some(slot) = inbox.pop_front() {
                return Ok(slot);
            }
            match deadline {
                None => {
                    inbox = self.shared.arrivals[self.rank]
                        .wait(inbox)
                        .expect("inbox lock");
                }
                Some(dl) => {
                    let remaining = dl.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(CommError::Timeout { src, tag });
                    }
                    let (guard, _) = self.shared.arrivals[self.rank]
                        .wait_timeout(inbox, remaining)
                        .expect("inbox lock");
                    inbox = guard;
                }
            }
        }
    }
}

impl Transport for MockTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        if dst == self.rank {
            self.pending
                .entry((dst, tag))
                .or_default()
                .push_back(payload);
            return Ok(());
        }
        if !self.shared.alive[dst].load(Ordering::Acquire) {
            return Err(CommError::PeerGone { peer: dst });
        }
        self.shared.inboxes[dst]
            .lock()
            .expect("inbox lock")
            .push_back(Slot {
                from: self.rank,
                tag,
                payload,
            });
        self.shared.arrivals[dst].notify_all();
        Ok(())
    }

    fn recv_match(
        &mut self,
        candidates: &[(usize, u64)],
        wait: Wait,
    ) -> Result<((usize, u64), Vec<f32>), CommError> {
        let &(src, tag) = candidates.first().ok_or(CommError::NoCandidates)?;
        for &c in candidates {
            if let Some(m) = self.pending.get_mut(&c).and_then(VecDeque::pop_front) {
                return Ok((c, m));
            }
        }
        let deadline = wait
            .timeout(self.default_deadline)
            .map(|t| Instant::now() + t);
        loop {
            let slot = self.next_slot(deadline, src, tag)?;
            let c = (slot.from, slot.tag);
            if candidates.contains(&c) {
                return Ok((c, slot.payload));
            }
            self.pending.entry(c).or_default().push_back(slot.payload);
        }
    }

    fn next_op(&mut self) -> u64 {
        let op = self.op_counter;
        self.op_counter += 1;
        op
    }
}

impl Drop for MockTransport {
    fn drop(&mut self) {
        // Hangup is immediate here (like the channel world): the next send
        // to this rank fails with PeerGone.
        self.shared.alive[self.rank].store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_tree;
    use std::thread;

    #[test]
    fn ping_pong() {
        let mut world = mock_world(2);
        let mut c1 = world.pop().expect("rank 1");
        let mut c0 = world.pop().expect("rank 0");
        let t = thread::spawn(move || {
            let v = c1.recv(0, 7).expect("recv");
            c1.send(0, 8, v.iter().map(|x| x + 1.0).collect())
                .expect("send");
        });
        c0.send(1, 7, vec![1.0]).expect("send");
        assert_eq!(c0.recv(1, 8).expect("recv"), vec![2.0]);
        t.join().expect("peer");
    }

    #[test]
    fn allreduce_over_mock_world() {
        let world = mock_world(4);
        thread::scope(|s| {
            for mut c in world {
                s.spawn(move || {
                    let mut v = vec![c.rank() as f32 + 1.0; 2];
                    allreduce_tree(&mut c, &mut v).expect("allreduce");
                    assert_eq!(v, vec![10.0; 2]);
                });
            }
        });
    }

    #[test]
    fn send_to_dropped_peer_is_peer_gone() {
        let mut world = mock_world(2);
        let c1 = world.pop().expect("rank 1");
        let mut c0 = world.pop().expect("rank 0");
        drop(c1);
        assert_eq!(
            c0.send(1, 3, vec![1.0]),
            Err(CommError::PeerGone { peer: 1 })
        );
    }
}
