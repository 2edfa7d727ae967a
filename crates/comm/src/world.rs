//! Rank-to-rank message passing over crossbeam channels.
//!
//! The pending-message store is a `BTreeMap` (not `HashMap`): nothing may
//! iterate a nondeterministically ordered container anywhere near the
//! numeric path (lint `map-iter`), and the ordered map makes that a
//! non-question even for future code that walks `pending`.
//!
//! ## Failure semantics
//!
//! Every primitive returns a typed [`CommError`] instead of panicking:
//! a send to a rank whose endpoint was dropped is [`CommError::PeerGone`]
//! (the immediate, reliable signal of a crashed learner — its channel
//! receiver died with it), and receives can carry a deadline, surfacing
//! [`CommError::Timeout`] for stalled peers. A world-wide default receive
//! deadline ([`CommWorld::set_default_deadline`]) turns every blocking
//! `recv` into a bounded wait, so a wedged peer can never hang the group
//! forever. Fault injection for tests lives in [`FaultSchedule`]
//! (message drops at the wire) and `crate::fault` (crash/stall plans
//! interpreted by the engine).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
// lint:allow(wall-clock): deadline-based communication is wall-clock by
// nature; the numeric path never reads these clocks.
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::protocol::Frame;
use crate::transport::{Transport, Wait};

/// Typed communication failure. The fault-tolerant collectives match on
/// these to distinguish a crashed peer from a stalled one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The destination rank's endpoint was dropped: the learner crashed or
    /// exited. Sends fail with this immediately (no timeout needed).
    PeerGone {
        /// Rank whose endpoint is gone.
        peer: usize,
    },
    /// No message matching `(src, tag)` arrived before the deadline.
    Timeout {
        /// Source rank the receive was matched on.
        src: usize,
        /// Tag the receive was matched on.
        tag: u64,
    },
    /// Every sender endpoint feeding this rank was dropped while it was
    /// blocked in a receive — the world itself is gone.
    Disconnected {
        /// Source rank the receive was matched on.
        src: usize,
        /// Tag the receive was matched on.
        tag: u64,
    },
    /// A receive named no candidate: it could never match, so it fails
    /// instead of waiting.
    NoCandidates,
    /// A world-level configuration call arrived after
    /// [`CommWorld::communicators`] handed the endpoints out. Endpoints
    /// copy world settings at split time, so the call could never reach
    /// them — formerly it was silently ignored.
    WorldSplit,
    /// A received buffer is not a valid frame of the kind the collective
    /// expected at that point. Frames come from peers — over a socket,
    /// from another process — so this is an error, not a panic; the
    /// receiver's own partial result is left as it was.
    Malformed {
        /// Frame kind that failed validation (`"sparse"`, `"sparse8"`, …).
        frame: &'static str,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A dense buffer from `peer` is not the length this rank's collective
    /// works on — the dense form of [`CommError::Malformed`]. Summing or
    /// adopting it anyway would truncate silently; the receiver's buffer
    /// is left as it was.
    MalformedLength {
        /// Rank the buffer came from.
        peer: usize,
        /// Elements this rank's buffer holds.
        expected: usize,
        /// Elements that arrived.
        got: usize,
    },
    /// Every live rank of a sequenced world waits on a receive no rank
    /// can satisfy ([`crate::transport::Sequenced`]): the world can make no
    /// progress, so each waiter fails instead of hanging.
    Stalled,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerGone { peer } => write!(f, "peer rank {peer} hung up"),
            CommError::Timeout { src, tag } => {
                write!(f, "timed out waiting for (src {src}, tag {tag})")
            }
            CommError::Disconnected { src, tag } => {
                write!(f, "world dropped while receiving (src {src}, tag {tag})")
            }
            CommError::NoCandidates => f.write_str("receive with an empty candidate list"),
            CommError::WorldSplit => {
                f.write_str("world configuration changed after endpoints were handed out")
            }
            CommError::Malformed { frame, reason } => {
                write!(f, "malformed {frame} frame: {reason}")
            }
            CommError::MalformedLength {
                peer,
                expected,
                got,
            } => write!(
                f,
                "malformed dense frame from rank {peer}: {got} elements, expected {expected}"
            ),
            CommError::Stalled => f.write_str("every live rank of the world is waiting"),
        }
    }
}

impl std::error::Error for CommError {}

/// Aggregate traffic counters for a world, shared by all ranks.
#[derive(Default)]
pub struct Traffic {
    /// Total `f32` elements sent point-to-point.
    pub elements: AtomicU64,
    /// Total messages sent.
    pub messages: AtomicU64,
    /// Messages silently dropped by an injected [`FaultSchedule`] (never
    /// counted in `elements`/`messages` — they did not hit the wire).
    pub dropped: AtomicU64,
}

impl Traffic {
    /// Elements sent so far.
    pub fn elements_sent(&self) -> u64 {
        self.elements.load(Ordering::Relaxed)
    }

    /// Messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Messages dropped by fault injection so far.
    pub fn messages_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// One message of `elements` went out: called once the send has
    /// succeeded, so a send to a dead peer is not traffic.
    pub(crate) fn count(&self, elements: usize) {
        self.elements.fetch_add(elements as u64, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }
}

/// A rank's receive side over a channel of arrivals: the one matching loop
/// of the in-process and socket endpoints.
pub(crate) struct Inbox {
    rx: Receiver<Frame>,
    /// Out-of-order arrivals parked until a matching receive. Ordered map:
    /// see the module docs (lint `map-iter`).
    pending: BTreeMap<(usize, u64), VecDeque<Vec<f32>>>,
}

impl Inbox {
    pub(crate) fn new(rx: Receiver<Frame>) -> Self {
        Inbox {
            rx,
            pending: BTreeMap::new(),
        }
    }

    /// Park an arrival no receive is waiting for yet.
    pub(crate) fn park(&mut self, frame: Frame) {
        let key = (frame.from, frame.tag);
        self.pending
            .entry(key)
            .or_default()
            .push_back(frame.payload);
    }

    /// [`Transport::recv_match`] over this inbox, bounded by `timeout`
    /// when present: a parked message for the first candidate that has
    /// one, else arrivals off the channel until one matches, parking the
    /// rest.
    pub(crate) fn take(
        &mut self,
        candidates: &[(usize, u64)],
        timeout: Option<Duration>,
    ) -> Result<((usize, u64), Vec<f32>), CommError> {
        let &(src, tag) = candidates.first().ok_or(CommError::NoCandidates)?;
        for &c in candidates {
            if let Some(m) = self.pending.get_mut(&c).and_then(VecDeque::pop_front) {
                return Ok((c, m));
            }
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let frame = match deadline {
                None => (self.rx.recv()).map_err(|_| CommError::Disconnected { src, tag })?,
                Some(dl) => {
                    let remaining = dl.saturating_duration_since(Instant::now());
                    self.rx.recv_timeout(remaining).map_err(|e| match e {
                        RecvTimeoutError::Timeout => CommError::Timeout { src, tag },
                        RecvTimeoutError::Disconnected => CommError::Disconnected { src, tag },
                    })?
                }
            };
            let c = (frame.from, frame.tag);
            if candidates.contains(&c) {
                return Ok((c, frame.payload));
            }
            self.park(frame);
        }
    }
}

/// Deterministic message-drop injection at the wire, the third leg of the
/// fault model (crash and stall live in `crate::fault`, interpreted at the
/// learner loop). `drop_send[rank]` lists the send-sequence indices (one
/// counter per rank, incremented on every send) whose messages vanish
/// silently — the send reports success, the peer never sees the message,
/// exactly like a lossy link. Dropped messages are counted in
/// [`Traffic::dropped`] only.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// Per-rank **sorted** send-sequence indices to drop.
    pub drop_send: Vec<Vec<u64>>,
}

impl FaultSchedule {
    fn should_drop(&self, rank: usize, seq: u64) -> bool {
        self.drop_send
            .get(rank)
            .is_some_and(|v| v.binary_search(&seq).is_ok())
    }

    /// True when no rank has any drop scheduled.
    pub fn is_empty(&self) -> bool {
        self.drop_send.iter().all(Vec::is_empty)
    }
}

/// A communication group of `size` ranks (MPI_COMM_WORLD analogue).
pub struct CommWorld {
    senders: Vec<Sender<Frame>>,
    receivers: Vec<Option<Receiver<Frame>>>,
    traffic: Arc<Traffic>,
    faults: Option<Arc<FaultSchedule>>,
    default_deadline: Option<Duration>,
}

impl CommWorld {
    /// Create a world with `size` ranks.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        // lint:allow(comm-unwrap): the world's size is the caller's, not wire input.
        assert!(size > 0, "world needs at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        CommWorld {
            senders,
            receivers,
            traffic: Arc::new(Traffic::default()),
            faults: None,
            default_deadline: None,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Shared traffic counters.
    pub fn traffic(&self) -> Arc<Traffic> {
        Arc::clone(&self.traffic)
    }

    /// Install a message-drop schedule (fault-injection hook). Must be
    /// called before [`CommWorld::communicators`]; endpoints handed out
    /// later inherit it.
    pub fn set_faults(&mut self, faults: Arc<FaultSchedule>) {
        self.faults = Some(faults);
    }

    /// Give every endpoint a default receive deadline: plain `recv` calls
    /// become `recv_deadline` with this timeout, so no rank can block
    /// forever on a dead or wedged peer. `None` (the default) preserves
    /// the original unbounded blocking behavior.
    ///
    /// Endpoints copy the deadline at [`CommWorld::communicators`] time,
    /// so calling this afterwards is [`CommError::WorldSplit`] — it used
    /// to be accepted and silently ignored, leaving live endpoints
    /// unbounded while the caller believed they were deadline-protected.
    /// (Endpoints already handed out can still be configured individually
    /// via [`Communicator::set_default_deadline`].)
    pub fn set_default_deadline(&mut self, deadline: Option<Duration>) -> Result<(), CommError> {
        if self.receivers.iter().any(Option::is_none) {
            return Err(CommError::WorldSplit);
        }
        self.default_deadline = deadline;
        Ok(())
    }

    /// Take the per-rank endpoints (callable once; each goes to one thread).
    ///
    /// # Panics
    /// Panics on a second call.
    pub fn communicators(&mut self) -> Vec<Communicator> {
        let size = self.size();
        (0..size)
            .map(|rank| Communicator {
                rank,
                size,
                senders: self.senders.clone(),
                inbox: Inbox::new(
                    self.receivers[rank]
                        .take()
                        .expect("communicators() may only be called once"),
                ),
                op_counter: 0,
                traffic: Arc::clone(&self.traffic),
                faults: self.faults.clone(),
                default_deadline: self.default_deadline,
                send_seq: std::cell::Cell::new(0),
            })
            .collect()
    }
}

/// One rank's endpoint: send to any rank, receive matched by (from, tag).
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Frame>>,
    inbox: Inbox,
    /// Collective sequence number; all ranks call collectives in the same
    /// order, so equal counters identify the same operation.
    op_counter: u64,
    traffic: Arc<Traffic>,
    /// Message-drop schedule (fault-injection hook); `None` in production.
    faults: Option<Arc<FaultSchedule>>,
    /// Deadline applied to plain `recv` calls; `None` = block forever.
    default_deadline: Option<Duration>,
    /// `Cell`: `send` takes `&self` (endpoints are per-thread, never shared).
    send_seq: std::cell::Cell<u64>,
}

impl Communicator {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Set or clear this endpoint's default receive deadline (see
    /// [`CommWorld::set_default_deadline`]).
    pub fn set_default_deadline(&mut self, deadline: Option<Duration>) {
        self.default_deadline = deadline;
    }

    /// This endpoint's default receive deadline, if any.
    pub fn default_deadline(&self) -> Option<Duration> {
        self.default_deadline
    }

    /// Send `payload` to `dst` with a `tag` (non-blocking; channels are
    /// unbounded). Fails with [`CommError::PeerGone`] when `dst`'s endpoint
    /// has been dropped — the immediate signature of a crashed learner.
    pub fn send(&self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        let seq = self.send_seq.get();
        self.send_seq.set(seq + 1);
        if let Some(f) = &self.faults {
            if f.should_drop(self.rank, seq) {
                self.traffic.dropped.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        let (from, elements) = (self.rank, payload.len());
        let frame = Frame { from, tag, payload };
        (self.senders[dst].send(frame)).map_err(|_| CommError::PeerGone { peer: dst })?;
        self.traffic.count(elements);
        Ok(())
    }

    /// Next collective sequence number (advances the counter).
    pub fn next_op(&mut self) -> u64 {
        let op = self.op_counter;
        self.op_counter += 1;
        op
    }

    /// Shared traffic counters.
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }
}

/// Receives are matched (MPI-style tag matching) by the endpoint's inbox,
/// under the endpoint's default deadline unless the receive names its own.
///
/// The collectives name every receive; a wildcard's combine order would
/// depend on the thread schedule. Wildcard receives serve the
/// parameter-server shard loop (asynchronous by design: arrival order
/// across learners *is* the schedule) and the armed tree walk in
/// [`crate::tree`], whose recovery sweep re-sorts arrivals by source rank
/// before combining.
impl Transport for Communicator {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        Communicator::send(self, dst, tag, payload)
    }

    fn recv_match(
        &mut self,
        candidates: &[(usize, u64)],
        wait: Wait,
    ) -> Result<((usize, u64), Vec<f32>), CommError> {
        let timeout = wait.timeout(self.default_deadline);
        self.inbox.take(candidates, timeout)
    }

    fn next_op(&mut self) -> u64 {
        Communicator::next_op(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ping_pong() {
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        let t = thread::spawn(move || {
            let mut c1 = c1;
            let v = c1.recv(0, 7).expect("recv");
            c1.send(0, 8, v.iter().map(|x| x * 2.0).collect())
                .expect("send");
        });
        c0.send(1, 7, vec![1.0, 2.0]).expect("send");
        let back = c0.recv(1, 8).expect("recv");
        assert_eq!(back, vec![2.0, 4.0]);
        t.join().expect("peer thread");
    }

    #[test]
    fn out_of_order_matching() {
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        let t = thread::spawn(move || {
            let c1 = c1;
            // Send tag 2 first, then tag 1.
            c1.send(0, 2, vec![2.0]).expect("send");
            c1.send(0, 1, vec![1.0]).expect("send");
        });
        t.join().expect("peer thread");
        // Receive in the opposite order.
        assert_eq!(c0.recv(1, 1).expect("recv"), vec![1.0]);
        assert_eq!(c0.recv(1, 2).expect("recv"), vec![2.0]);
    }

    #[test]
    fn fifo_within_same_tag() {
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        c1.send(0, 5, vec![1.0]).expect("send");
        c1.send(0, 5, vec![2.0]).expect("send");
        // Force both into the pending map by receiving another tag after.
        c1.send(0, 9, vec![9.0]).expect("send");
        assert_eq!(c0.recv(1, 9).expect("recv"), vec![9.0]);
        assert_eq!(c0.recv(1, 5).expect("recv"), vec![1.0]);
        assert_eq!(c0.recv(1, 5).expect("recv"), vec![2.0]);
    }

    #[test]
    fn traffic_is_counted() {
        let mut world = CommWorld::new(2);
        let traffic = world.traffic();
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        c1.send(0, 1, vec![0.0; 10]).expect("send");
        let _ = c0.recv(1, 1).expect("recv");
        assert_eq!(traffic.elements_sent(), 10);
        assert_eq!(traffic.messages_sent(), 1);
    }

    #[test]
    #[should_panic(expected = "only be called once")]
    fn communicators_single_use() {
        let mut world = CommWorld::new(1);
        let _a = world.communicators();
        let _b = world.communicators();
    }

    #[test]
    fn send_to_dropped_peer_is_peer_gone() {
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let c0 = comms.pop().expect("rank 0");
        drop(c1); // rank 1 "crashes": its receiver is gone
        assert_eq!(
            c0.send(1, 3, vec![1.0]),
            Err(CommError::PeerGone { peer: 1 })
        );
    }

    #[test]
    fn a_send_to_a_dropped_peer_is_not_traffic() {
        let mut world = CommWorld::new(2);
        let traffic = world.traffic();
        let mut comms = world.communicators();
        drop(comms.pop());
        let c0 = comms.pop().expect("rank 0");
        c0.send(0, 1, vec![0.0; 4]).expect("self-send");
        assert!(c0.send(1, 1, vec![0.0; 10]).is_err());
        assert_eq!(traffic.elements_sent(), 4);
        assert_eq!(traffic.messages_sent(), 1);
    }

    #[test]
    fn recv_deadline_times_out_with_a_live_peer() {
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let _c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        assert_eq!(
            c0.recv_deadline(1, 4, Duration::from_millis(10)),
            Err(CommError::Timeout { src: 1, tag: 4 })
        );
    }

    #[test]
    fn recv_deadline_delivers_when_message_present() {
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        c1.send(0, 4, vec![5.0]).expect("send");
        assert_eq!(
            c0.recv_deadline(1, 4, Duration::from_millis(50))
                .expect("recv"),
            vec![5.0]
        );
    }

    #[test]
    fn recv_any_empty_candidates_is_error() {
        let mut world = CommWorld::new(1);
        let mut comms = world.communicators();
        let mut c0 = comms.pop().expect("rank 0");
        assert_eq!(c0.recv_any(&[]), Err(CommError::NoCandidates));
    }

    #[test]
    fn default_deadline_bounds_plain_recv() {
        // Ordering regression (1 of 2): set-then-split propagates.
        let mut world = CommWorld::new(2);
        world
            .set_default_deadline(Some(Duration::from_millis(10)))
            .expect("deadline before split");
        let mut comms = world.communicators();
        let _c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        assert_eq!(c0.recv(1, 2), Err(CommError::Timeout { src: 1, tag: 2 }));
    }

    #[test]
    fn default_deadline_after_split_is_rejected() {
        // Ordering regression (2 of 2): split-then-set is a typed error —
        // it used to be silently ignored, leaving endpoints unbounded
        // while the caller believed they had a deadline.
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        assert_eq!(
            world.set_default_deadline(Some(Duration::from_millis(10))),
            Err(CommError::WorldSplit)
        );
        // Endpoints really were untouched: no deadline is installed.
        let _c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        assert_eq!(c0.default_deadline(), None);
        // The per-endpoint escape hatch still works after the split.
        c0.set_default_deadline(Some(Duration::from_millis(10)));
        assert_eq!(c0.recv(1, 2), Err(CommError::Timeout { src: 1, tag: 2 }));
    }

    #[test]
    fn fault_schedule_drops_scheduled_sends() {
        let mut world = CommWorld::new(2);
        world.set_faults(Arc::new(FaultSchedule {
            drop_send: vec![vec![], vec![1]], // rank 1's 2nd send vanishes
        }));
        let traffic = world.traffic();
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        c1.send(0, 1, vec![1.0]).expect("send");
        c1.send(0, 1, vec![2.0]).expect("send dropped silently");
        c1.send(0, 1, vec![3.0]).expect("send");
        assert_eq!(c0.recv(1, 1).expect("recv"), vec![1.0]);
        assert_eq!(c0.recv(1, 1).expect("recv"), vec![3.0]);
        assert_eq!(traffic.messages_sent(), 2);
        assert_eq!(traffic.messages_dropped(), 1);
    }
}
