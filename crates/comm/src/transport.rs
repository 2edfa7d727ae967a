//! The `Transport` trait: the comm substrate behind an interface.
//!
//! Everything above the point-to-point layer — the collectives in
//! [`crate::collectives`] and [`crate::sparse`], the fault-tolerant
//! allreduce in [`crate::ft`], the hierarchy bundles in
//! [`crate::hierarchy`], the parameter server in
//! [`crate::ps_transport`], and the threaded engine backend in
//! `sasgd-core` — is written against this trait, not against a concrete
//! endpoint type. A rank endpoint is opaque: it knows its own rank, the
//! world size, and how to move tagged `f32` payloads; [`CommError`] is the
//! only failure channel. That is exactly the contract a multi-host wire
//! needs, so the same collective code runs unchanged over
//!
//! * [`InProcTransport`] — the crossbeam-channel world of
//!   [`crate::world`], one endpoint per OS thread (the original substrate;
//!   traffic counters and wire fault injection are capabilities of this
//!   impl only);
//! * [`crate::socket::SocketTransport`] — length-prefixed frames over TCP
//!   sockets, one endpoint per OS *process*;
//! * [`crate::mock::MockTransport`] — a shared-memory reference
//!   implementation of the failure-semantics table, for conformance tests.
//!
//! ## Contract
//!
//! Implementations must provide MPI-style `(src, tag)` matching: a receive
//! names its source and tag, unrelated arrivals are parked (FIFO per
//! `(src, tag)` pair) until a matching receive claims them. The required
//! failure semantics, asserted by the transport-conformance suite in
//! `tests/transport_conformance.rs`:
//!
//! | situation                                  | result                    |
//! |--------------------------------------------|---------------------------|
//! | `send` to a rank whose endpoint is gone    | `Err(PeerGone)`           |
//! | `recv_deadline` with no matching arrival   | `Err(Timeout)`            |
//! | `recv` with a default deadline installed   | `Err(Timeout)` (as above) |
//! | `recv_any` over an empty candidate list    | `Err(NoCandidates)`       |
//! | world torn down mid-receive                | `Err(Disconnected)`       |
//!
//! `PeerGone` detection may be asynchronous on a real wire (a TCP send can
//! buffer before the hangup is observed), so callers that probe for a dead
//! peer retry-send until the error surfaces; on `InProcTransport` it is
//! immediate.

use std::time::Duration;

use crate::world::{CommError, Communicator};

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

    /// Blocking receive matched on `(src, tag)`; honors the endpoint's
    /// default deadline when one is set.
    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError>;

    /// Receive matched on `(src, tag)` bounded by `timeout`:
    /// [`CommError::Timeout`] when nothing matching arrives in time.
    fn recv_deadline(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f32>, CommError>;

    /// First available message matching any of `candidates`, in arrival
    /// order (parked messages drained in candidate order first). Empty
    /// candidate list is [`CommError::NoCandidates`].
    fn recv_any(&mut self, candidates: &[(usize, u64)]) -> Result<(usize, Vec<f32>), CommError>;

    /// [`Transport::recv_any`] bounded by `timeout`.
    fn recv_any_deadline(
        &mut self,
        candidates: &[(usize, u64)],
        timeout: Duration,
    ) -> Result<(usize, Vec<f32>), CommError>;

    /// Next collective sequence number. All ranks issue collectives in the
    /// same program order, so equal counters identify the same operation —
    /// the tag space of every collective is derived from this.
    fn next_op(&mut self) -> u64;
}

/// The in-process transport: the crossbeam-channel [`Communicator`] of
/// [`crate::world`], under the name the trait-facing code uses. Traffic
/// counters and wire fault injection ([`crate::world::FaultSchedule`]) are
/// capabilities of this impl, deliberately outside the trait.
pub type InProcTransport = Communicator;

impl Transport for Communicator {
    fn rank(&self) -> usize {
        Communicator::rank(self)
    }

    fn size(&self) -> usize {
        Communicator::size(self)
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        Communicator::send(self, dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        Communicator::recv(self, src, tag)
    }

    fn recv_deadline(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f32>, CommError> {
        Communicator::recv_deadline(self, src, tag, timeout)
    }

    fn recv_any(&mut self, candidates: &[(usize, u64)]) -> Result<(usize, Vec<f32>), CommError> {
        Communicator::recv_any(self, candidates)
    }

    fn recv_any_deadline(
        &mut self,
        candidates: &[(usize, u64)],
        timeout: Duration,
    ) -> Result<(usize, Vec<f32>), CommError> {
        Communicator::recv_any_deadline(self, candidates, timeout)
    }

    fn next_op(&mut self) -> u64 {
        Communicator::next_op(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CommWorld;
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
