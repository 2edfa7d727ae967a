//! The `Transport` trait: the comm substrate behind an interface.
//!
//! Everything above the point-to-point layer — the collectives in
//! [`crate::collectives`] and [`crate::sparse`], the binomial tree over a
//! membership (and its fault-tolerant error path) in [`crate::tree`], the
//! parameter server in
//! [`crate::ps_transport`], and the threaded engine backend in
//! `sasgd-core` — is written against this trait, not against a concrete
//! endpoint type. A rank endpoint is opaque: it knows its own rank, the
//! world size, and how to move tagged `f32` payloads; [`CommError`] is the
//! only failure channel. That is exactly the contract a multi-host wire
//! needs, so the same collective code runs unchanged over
//!
//! * [`crate::world::Communicator`] — the crossbeam-channel world of
//!   [`crate::world`], one endpoint per OS thread (traffic counters and
//!   wire fault injection are capabilities of this impl only);
//! * [`crate::socket::SocketTransport`] — length-prefixed frames over TCP
//!   sockets, one endpoint per OS *process*;
//! * [`crate::mock::MockTransport`] — a shared-memory reference
//!   implementation of the failure-semantics table, for conformance tests;
//! * [`Clocked`] and [`Sequenced`] — decorators over any of them, for the
//!   simulated backend (below);
//! * `sasgd_analysis::model::ModelTransport` — the model checker's, which
//!   parks every operation for its scheduler.
//!
//! ## Contract
//!
//! A transport has one receive, [`Transport::recv_match`], as MPI has one
//! matched `MPI_Recv`: it names its candidate `(src, tag)` pairs and a
//! [`Wait`], and returns the candidate it matched with the payload.
//! Unrelated arrivals are parked (FIFO per `(src, tag)` pair) until a
//! matching receive claims them. `recv`, `recv_deadline`, `recv_any` and
//! `recv_any_deadline` are one-line forms of it. The required failure
//! semantics, asserted by the transport-conformance suite in
//! `tests/transport_conformance.rs`:
//!
//! | situation                                     | result                    |
//! |-----------------------------------------------|---------------------------|
//! | `send` to a rank whose endpoint is gone       | `Err(PeerGone)`           |
//! | `Wait::For` runs out with no matching arrival | `Err(Timeout)`            |
//! | `Wait::Default` with a default deadline set   | `Err(Timeout)` (as above) |
//! | an empty candidate list                       | `Err(NoCandidates)`       |
//! | world torn down mid-receive                   | `Err(Disconnected)`       |
//!
//! `PeerGone` detection may be asynchronous on a real wire (a TCP send can
//! buffer before the hangup is observed), so callers that probe for a dead
//! peer retry-send until the error surfaces; in process it is immediate. A
//! send that fails is not traffic: an impl that counts traffic counts only
//! the sends that succeed.
//!
//! ## The virtual-clock decorator
//!
//! [`Clocked`] wraps any endpoint and prices its traffic in virtual time,
//! for a world whose ranks run real code on simulated hardware. Each rank
//! owns a [`VirtualClock`]. A send charges the sender the hop's link time
//! and stamps the message with the sender's clock after the charge: its
//! arrival. A receive advances the receiver to `max(now, arrival)`. The
//! stamps travel out of band, through one [`Stamps`] board per world, so
//! payloads and traffic counters are the undecorated wire's. Code that
//! only names its receives (the unarmed tree walk) therefore reads the
//! same clocks under any thread schedule: by Kahn's theorem a rank whose
//! every receive names its channel sees the same inputs, in the same
//! order, however the threads interleave.
//!
//! ## The virtual-time sequencer
//!
//! A wildcard receive breaks that: which of several senders a
//! `recv_any` hears first (a parameter-server shard's inbox) is decided
//! by the OS. [`Sequenced`] wraps every [`Clocked`] endpoint of such a
//! world in one scheduler that runs it one receive at a time, in virtual
//! time. Every receive parks its rank; a send goes straight to the wire.
//! Once every live rank is parked, the enabled receive that completes
//! first runs: the least `(virtual time, rank)`, where a receive completes
//! at `max(clock, arrival)` of the message it takes. A receive is enabled
//! once a matching message is in flight; `recv_any` takes the candidate
//! with the least `(arrival, src)`. A deadline never expires on the wall
//! clock, and a world whose every live rank waits on a receive nothing
//! can satisfy fails each waiter with [`CommError::Stalled`] instead of
//! hanging.
//!
//! Sends need no turn. With every live rank parked, a rank's next send
//! comes after its next receive completes, so at a clock no earlier than
//! the least enabled receive's: a receive granted at time `T` has already
//! seen every message that can arrive by `T`. So a shard serves its
//! requests in arrival order, and the run is a function of the seed alone.
//! Past the ranks' first receives, only one rank runs at a time.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::world::CommError;

/// One rank's endpoint into a communication world, seen abstractly.
///
/// `Send` (the auto trait) is a supertrait bound because every backend
/// hands endpoints to learner threads or processes. Methods take
/// `&mut self` uniformly — endpoints are owned by exactly one rank's
/// execution context and never shared.
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// World size (number of ranks).
    fn size(&self) -> usize;

    /// Send `payload` to `dst` under `tag`. Non-blocking (or bounded by
    /// socket buffering); [`CommError::PeerGone`] when `dst` is known dead.
    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError>;

    /// The one receive: the first message matching any of `candidates`
    /// (`(src, tag)` pairs), in arrival order — parked arrivals are drained
    /// in candidate order first — as the candidate it matched and the
    /// payload. An empty candidate list is [`CommError::NoCandidates`]; a
    /// `wait` that runs out is [`CommError::Timeout`], labelled with the
    /// first candidate, like every other receive error.
    fn recv_match(
        &mut self,
        candidates: &[(usize, u64)],
        wait: Wait,
    ) -> Result<((usize, u64), Vec<f32>), CommError>;

    /// Blocking receive matched on `(src, tag)`; honors the endpoint's
    /// default deadline when one is set.
    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        Ok(self.recv_match(&[(src, tag)], Wait::Default)?.1)
    }

    /// Receive matched on `(src, tag)` bounded by `timeout`.
    fn recv_deadline(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f32>, CommError> {
        Ok(self.recv_match(&[(src, tag)], Wait::For(timeout))?.1)
    }

    /// First message matching any of `candidates`, and its source.
    fn recv_any(&mut self, candidates: &[(usize, u64)]) -> Result<(usize, Vec<f32>), CommError> {
        let ((src, _), payload) = self.recv_match(candidates, Wait::Default)?;
        Ok((src, payload))
    }

    /// [`Transport::recv_any`] bounded by `timeout`.
    fn recv_any_deadline(
        &mut self,
        candidates: &[(usize, u64)],
        timeout: Duration,
    ) -> Result<(usize, Vec<f32>), CommError> {
        let ((src, _), payload) = self.recv_match(candidates, Wait::For(timeout))?;
        Ok((src, payload))
    }

    /// Next collective sequence number. All ranks issue collectives in the
    /// same program order, so equal counters identify the same operation —
    /// the tag space of every collective is derived from this.
    fn next_op(&mut self) -> u64;
}

/// How long a [`Transport::recv_match`] waits for its match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// The endpoint's default deadline when it has one, else until a match
    /// arrives or the world is gone.
    Default,
    /// At most this long.
    For(Duration),
}

impl Wait {
    /// The bound this wait puts on a receive at an endpoint whose default
    /// deadline is `default` (`None`: none).
    pub fn timeout(self, default: Option<Duration>) -> Option<Duration> {
        match self {
            Wait::Default => default,
            Wait::For(timeout) => Some(timeout),
        }
    }
}

/// One rank's virtual time in seconds, shared by the rank's loop (which
/// advances it through compute) and its [`Clocked`] endpoint (which
/// advances it through the wire). Only the owning rank moves it.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// Seconds now.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Set the clock to `t`.
    pub fn set(&self, t: f64) {
        self.0.store(t.to_bits(), Ordering::Relaxed);
    }

    /// Advance the clock by `dt`; returns the new time.
    pub fn advance(&self, dt: f64) -> f64 {
        let t = self.now() + dt;
        self.set(t);
        t
    }
}

/// Seconds one message of `elements` `f32`s takes from `src` to `dst`.
type Link = dyn Fn(usize, usize, usize) -> f64 + Send + Sync;

/// The out-of-band side of a clocked world: each message in flight's
/// arrival time, queued per `(dst, src, tag)` in send order (the order an
/// MPI-style `(src, tag)` match delivers in), and the link that prices a
/// hop.
pub struct Stamps {
    queues: Mutex<BTreeMap<(usize, usize, u64), VecDeque<f64>>>,
    link: Box<Link>,
}

impl Stamps {
    /// A board for one world whose hops cost `link(src, dst, elements)`
    /// seconds.
    pub fn new(link: impl Fn(usize, usize, usize) -> f64 + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Stamps {
            queues: Mutex::new(BTreeMap::new()),
            link: Box::new(link),
        })
    }
}

/// An endpoint whose traffic is priced in virtual time (see the module
/// docs).
pub struct Clocked<T> {
    inner: T,
    clock: VirtualClock,
    stamps: Arc<Stamps>,
}

impl<T: Transport> Clocked<T> {
    /// `inner`, priced on `clock` through the world's `stamps`.
    pub fn new(inner: T, clock: VirtualClock, stamps: Arc<Stamps>) -> Self {
        Clocked {
            inner,
            clock,
            stamps,
        }
    }

    /// A message from `src` under `tag` arrived: the clock moves to its
    /// arrival if that is later.
    fn arrived(&self, src: usize, tag: u64) {
        let key = (self.inner.rank(), src, tag);
        let mut queues = (self.stamps.queues.lock()).unwrap_or_else(PoisonError::into_inner);
        let Some(queue) = queues.get_mut(&key) else {
            return;
        };
        let at = queue.pop_front();
        // Only messages in flight stay on the board: collective and reply
        // tags are fresh per operation, so drained queues would pile up.
        if queue.is_empty() {
            queues.remove(&key);
        }
        if let Some(at) = at.filter(|&at| at > self.clock.now()) {
            self.clock.set(at);
        }
    }
}

impl<T: Transport> Transport for Clocked<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        let me = self.inner.rank();
        let at = self
            .clock
            .advance((self.stamps.link)(me, dst, payload.len()));
        let mut queues = (self.stamps.queues.lock()).unwrap_or_else(PoisonError::into_inner);
        queues.entry((dst, me, tag)).or_default().push_back(at);
        drop(queues);
        self.inner.send(dst, tag, payload)
    }

    fn recv_match(
        &mut self,
        candidates: &[(usize, u64)],
        wait: Wait,
    ) -> Result<((usize, u64), Vec<f32>), CommError> {
        let ((src, tag), frame) = self.inner.recv_match(candidates, wait)?;
        self.arrived(src, tag);
        Ok(((src, tag), frame))
    }

    fn next_op(&mut self) -> u64 {
        self.inner.next_op()
    }
}

/// A rank's standing with its world's sequencer.
enum Slot {
    /// Between receives: computing and sending, or not yet at its first.
    Running,
    /// Waiting for its turn to take a message matching one of these
    /// `(src, tag)` pairs.
    Parked(Vec<(usize, u64)>),
    /// Its turn; it takes the `(src, tag)` named.
    Granted((usize, u64)),
    /// Its turn, with nothing to take: every live rank waits.
    Stalled,
    /// Its endpoint is gone.
    Done,
}

/// The scheduler a sequenced world shares (see the module docs).
struct Sequencer {
    slots: Mutex<Vec<Slot>>,
    /// One per rank, all over `slots`: a grant wakes its rank alone.
    turns: Vec<Condvar>,
    clocks: Vec<VirtualClock>,
    stamps: Arc<Stamps>,
}

impl Sequencer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Park `rank` on a receive from `candidates` until its turn; learn
    /// what to take.
    fn park(&self, rank: usize, candidates: Vec<(usize, u64)>) -> Result<(usize, u64), CommError> {
        let mut slots = self.lock();
        slots[rank] = Slot::Parked(candidates);
        self.grant(&mut slots);
        loop {
            match std::mem::replace(&mut slots[rank], Slot::Running) {
                Slot::Granted(pick) => return Ok(pick),
                Slot::Stalled => return Err(CommError::Stalled),
                parked => slots[rank] = parked,
            }
            slots = (self.turns[rank].wait(slots)).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// `rank` is gone for good.
    fn leave(&self, rank: usize) {
        let mut slots = self.lock();
        slots[rank] = Slot::Done;
        self.grant(&mut slots);
    }

    /// Once no rank runs, grant the enabled receive with the least
    /// `(virtual time, rank)` — or, with none enabled, stall every waiter.
    fn grant(&self, slots: &mut [Slot]) {
        let busy = |s: &Slot| matches!(s, Slot::Running | Slot::Granted(_) | Slot::Stalled);
        if slots.iter().any(busy) {
            return;
        }
        let queues = (self.stamps.queues.lock()).unwrap_or_else(PoisonError::into_inner);
        // The message a receive at `rank` would take: least `(arrival, src)`
        // of those in flight to it.
        let first = |rank: usize, candidates: &[(usize, u64)]| {
            let inbox = queues.range((rank, 0, 0)..=(rank, usize::MAX, u64::MAX));
            let stamped = inbox.filter_map(|(&(_, src, tag), queue)| {
                let at = queue.front().filter(|_| candidates.contains(&(src, tag)))?;
                Some((*at, src, tag))
            });
            stamped.min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        };
        // Each enabled receive: when it completes, whose it is, what it
        // takes.
        let enabled = slots.iter().enumerate().filter_map(|(rank, slot)| {
            let Slot::Parked(candidates) = slot else {
                return None;
            };
            let (at, src, tag) = first(rank, candidates)?;
            Some((self.clocks[rank].now().max(at), rank, (src, tag)))
        });
        let next = enabled.min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        drop(queues);
        match next {
            Some((_, rank, pick)) => {
                slots[rank] = Slot::Granted(pick);
                self.turns[rank].notify_one();
            }
            None => {
                for (slot, turn) in slots.iter_mut().zip(&self.turns) {
                    if matches!(slot, Slot::Parked(_)) {
                        *slot = Slot::Stalled;
                        turn.notify_one();
                    }
                }
            }
        }
    }
}

/// A [`Clocked`] endpoint of a world run one operation at a time in
/// virtual time (see the module docs): the wrapper for a world with
/// wildcard receives.
pub struct Sequenced<T> {
    inner: Clocked<T>,
    rank: usize,
    seq: Arc<Sequencer>,
}

impl<T: Transport> Sequenced<T> {
    /// Sequence a whole world: `endpoints` in rank order, over one
    /// [`Stamps`] board. Each must be driven or dropped — the world
    /// waits for every live rank to park.
    pub fn world(endpoints: Vec<Clocked<T>>) -> Vec<Self> {
        let Some(first) = endpoints.first() else {
            return Vec::new();
        };
        let seq = Arc::new(Sequencer {
            slots: Mutex::new(endpoints.iter().map(|_| Slot::Running).collect()),
            turns: endpoints.iter().map(|_| Condvar::new()).collect(),
            clocks: endpoints.iter().map(|e| e.clock.clone()).collect(),
            stamps: Arc::clone(&first.stamps),
        });
        let wrap = |(rank, inner)| Sequenced {
            inner,
            rank,
            seq: Arc::clone(&seq),
        };
        endpoints.into_iter().enumerate().map(wrap).collect()
    }
}

impl<T: Transport> Transport for Sequenced<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        self.inner.send(dst, tag, payload)
    }

    /// Waits for its turn, then takes what the turn names. Never times
    /// out: a peer still computing is late in wall time only.
    fn recv_match(
        &mut self,
        candidates: &[(usize, u64)],
        _wait: Wait,
    ) -> Result<((usize, u64), Vec<f32>), CommError> {
        if candidates.is_empty() {
            return Err(CommError::NoCandidates);
        }
        let pick = self.seq.park(self.rank, candidates.to_vec())?;
        self.inner.recv_match(&[pick], Wait::Default)
    }

    fn next_op(&mut self) -> u64 {
        self.inner.next_op()
    }
}

impl<T> Drop for Sequenced<T> {
    /// The rank leaves the world: on every exit path, unwinding included,
    /// so no peer waits for it.
    fn drop(&mut self) {
        self.seq.leave(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{CommWorld, Communicator};
    use std::thread;

    /// The trait delegates to the same machinery as the inherent methods:
    /// a ping-pong through `dyn`-free generic code behaves identically.
    fn ping<T: Transport>(a: &mut T, b: &mut T) {
        assert_eq!(a.size(), 2);
        a.send(b.rank(), 3, vec![1.5]).expect("send");
        assert_eq!(b.recv(a.rank(), 3).expect("recv"), vec![1.5]);
    }

    #[test]
    fn communicator_implements_transport() {
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let mut c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        ping(&mut c0, &mut c1);
    }

    #[test]
    fn a_clocked_recv_any_moves_to_the_arrival_of_the_message_it_took() {
        // Rank 1 sends tag 10 at t = 1 (arriving 1.5), then tag 20 at t = 5
        // (arriving 5.5). A receive over both, tag 20 named first, takes
        // the tag-10 message: the one that arrived.
        let stamps = Stamps::new(|_, _, _| 0.5);
        let clocks = [VirtualClock::default(), VirtualClock::default()];
        let comms = CommWorld::new(2).communicators().into_iter().zip(&clocks);
        let mut ranks =
            comms.map(|(comm, clock)| Clocked::new(comm, clock.clone(), stamps.clone()));
        let (mut rank0, mut rank1) = (ranks.next().expect("0"), ranks.next().expect("1"));
        clocks[1].set(1.0);
        rank1.send(0, 10, vec![1.0]).expect("send tag 10");
        clocks[1].set(5.0);
        rank1.send(0, 20, vec![2.0]).expect("send tag 20");
        let inbox = [(1, 20), (1, 10)];
        assert_eq!(rank0.recv_any(&inbox), Ok((1, vec![1.0])));
        assert_eq!(clocks[0].now(), 1.5, "the tag-10 message's arrival");
        assert_eq!(rank0.recv_any(&inbox), Ok((1, vec![2.0])));
        assert_eq!(clocks[0].now(), 5.5, "the tag-20 message's arrival");
    }

    /// A sequenced `p`-rank world whose every hop costs `hop` seconds, and
    /// its clocks.
    fn sequenced(p: usize, hop: f64) -> (Vec<Sequenced<Communicator>>, Vec<VirtualClock>) {
        let stamps = Stamps::new(move |_, _, _| hop);
        let clocks: Vec<VirtualClock> = (0..p).map(|_| VirtualClock::default()).collect();
        let clocked = (CommWorld::new(p).communicators().into_iter().zip(&clocks))
            .map(|(comm, clock)| Clocked::new(comm, clock.clone(), stamps.clone()))
            .collect();
        (Sequenced::world(clocked), clocks)
    }

    #[test]
    fn recv_any_takes_the_least_stamped_message_not_the_first_sent() {
        // Rank 2's message arrives first in virtual time (1 + 0.5) though
        // its thread sends last in real time; rank 1's arrives at 5.5.
        let (world, clocks) = sequenced(3, 0.5);
        clocks[1].set(5.0);
        clocks[2].set(1.0);
        let mut ranks = world.into_iter();
        let mut server = ranks.next().expect("rank 0");
        let heard = thread::scope(|scope| {
            for mut peer in ranks {
                scope.spawn(move || {
                    if peer.rank() == 2 {
                        thread::sleep(Duration::from_millis(50));
                    }
                    let rank = peer.rank();
                    peer.send(0, 7, vec![rank as f32]).expect("send");
                });
            }
            let inbox = [(1, 7), (2, 7)];
            let first = server.recv_any(&inbox).expect("first");
            let second = server.recv_any(&inbox).expect("second");
            [first, second]
        });
        assert_eq!(heard, [(2, vec![2.0]), (1, vec![1.0])]);
        assert_eq!(clocks[0].now(), 5.5, "the server ends at the later arrival");
    }

    #[test]
    fn a_world_where_every_rank_waits_is_a_typed_error() {
        let (world, _) = sequenced(2, 1.0);
        let outcomes: Vec<_> = thread::scope(|scope| {
            let waits = world.into_iter().map(|mut comm| {
                scope.spawn(move || {
                    let peer = 1 - comm.rank();
                    comm.recv(peer, 3)
                })
            });
            let waits: Vec<_> = waits.collect();
            waits.into_iter().map(|h| h.join().expect("rank")).collect()
        });
        assert_eq!(outcomes, [Err(CommError::Stalled), Err(CommError::Stalled)]);
    }

    #[test]
    fn a_deadline_receive_waits_out_a_peer_that_is_still_computing() {
        let (world, _) = sequenced(2, 1.0);
        let mut ranks = world.into_iter();
        let (mut waiter, mut worker) = (ranks.next().expect("0"), ranks.next().expect("1"));
        let got = thread::scope(|scope| {
            scope.spawn(move || {
                thread::sleep(Duration::from_millis(50));
                worker.send(0, 3, vec![4.5]).expect("send");
            });
            waiter.recv_deadline(1, 3, Duration::from_millis(1))
        });
        assert_eq!(got, Ok(vec![4.5]));
    }

    #[test]
    fn trait_objects_are_usable() {
        // Box<dyn Transport> must work for heterogeneous harness code.
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let mut b: Box<dyn Transport> = Box::new(c1);
        assert_eq!(b.rank(), 1);
        assert_eq!(b.size(), 2);
        let t = thread::spawn(move || b.recv_deadline(0, 9, Duration::from_millis(10)));
        let res = t.join().expect("thread");
        assert_eq!(res, Err(CommError::Timeout { src: 0, tag: 9 }));
    }
}
