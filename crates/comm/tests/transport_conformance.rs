//! Transport conformance suite: one generic body of tests run against
//! every [`Transport`] implementation — the in-process crossbeam world,
//! the same world behind the virtual-clock decorator, the TCP socket mesh,
//! the mock, and the model checker's live-mode
//! [`ModelTransport`](sasgd_analysis::model) — so the trait's
//! failure-semantics contract is checked by construction, not by
//! convention.
//!
//! Each scenario is a generic function over a *world factory* (`p` →
//! endpoints); the per-implementation `#[test]` wrappers at the bottom are
//! the only impl-specific code.

use sasgd_comm::collectives::allreduce_tree;
use sasgd_comm::mock::mock_world;
use sasgd_comm::socket::SocketTransport;
use sasgd_comm::transport::{Clocked, Stamps, Transport, VirtualClock};
use sasgd_comm::world::{CommError, CommWorld, Communicator};
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

const RENDEZVOUS: Duration = Duration::from_secs(30);

/// Build a `p`-rank socket world on ephemeral loopback ports: bind the
/// listeners first (so every rank knows every address), then run the
/// rendezvous in parallel. (The same shape as `socket.rs`'s internal test
/// helper, which `#[cfg(test)]` keeps invisible to integration tests.)
fn socket_world(p: usize) -> Vec<SocketTransport> {
    let listeners: Vec<TcpListener> = (0..p)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let mut out: Vec<Option<SocketTransport>> = (0..p).map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let addrs = &addrs;
                s.spawn(move || {
                    SocketTransport::with_listener(rank, listener, addrs, RENDEZVOUS)
                        .expect("rendezvous")
                })
            })
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("rendezvous thread"));
        }
    });
    out.into_iter().map(|o| o.expect("endpoint")).collect()
}

fn inproc_world(p: usize) -> Vec<Communicator> {
    CommWorld::new(p).communicators()
}

/// The in-process world with every endpoint priced in virtual time, a
/// microsecond a hop: the simulated backend's wire.
fn clocked_world(p: usize) -> Vec<Clocked<Communicator>> {
    let stamps = Stamps::new(|_, _, _| 1e-6);
    let endpoints = inproc_world(p).into_iter();
    endpoints
        .map(|c| Clocked::new(c, VirtualClock::default(), stamps.clone()))
        .collect()
}

// ---------------------------------------------------------------- scenarios

/// `recv_deadline` with no matching message times out as `Timeout`, in
/// bounded wall-clock time, and does not disturb later traffic.
fn deadline_timeout<T: Transport>(world: Vec<T>) {
    let mut endpoints = world;
    let mut r1 = endpoints.pop().expect("rank 1");
    let mut r0 = endpoints.pop().expect("rank 0");
    let started = Instant::now();
    match r0.recv_deadline(1, 7, Duration::from_millis(50)) {
        Err(CommError::Timeout { .. }) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout returned promptly"
    );
    // The channel still works after a timeout.
    r1.send(0, 7, vec![1.0, 2.0]).expect("post-timeout send");
    let got = r0
        .recv_deadline(1, 7, Duration::from_secs(5))
        .expect("post-timeout recv");
    assert_eq!(got, vec![1.0, 2.0]);
}

/// Sending to a hung-up peer surfaces `PeerGone` within a bounded number
/// of retries. Socket transports may buffer a send or two before the
/// hangup is observed, so the contract is "eventually typed", not
/// "immediately typed" — the retry loop is part of the contract.
fn peer_gone_on_hangup<T: Transport>(world: Vec<T>) {
    let mut endpoints = world;
    let r1 = endpoints.pop().expect("rank 1");
    let mut r0 = endpoints.pop().expect("rank 0");
    drop(r1);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match r0.send(1, 3, vec![0.5; 16]) {
            Err(CommError::PeerGone { peer }) => {
                assert_eq!(peer, 1);
                break;
            }
            Ok(()) => {
                assert!(
                    Instant::now() < deadline,
                    "send to dead peer never surfaced PeerGone"
                );
                thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("expected PeerGone, got {other:?}"),
        }
    }
}

/// Messages on distinct tags match by tag, not arrival order; messages on
/// one tag are FIFO per sender.
fn tag_ordering<T: Transport + 'static>(world: Vec<T>) {
    let mut endpoints = world;
    let mut r1 = endpoints.pop().expect("rank 1");
    let mut r0 = endpoints.pop().expect("rank 0");
    let sender = thread::spawn(move || {
        r1.send(0, 10, vec![1.0]).expect("send tag 10 #1");
        r1.send(0, 20, vec![2.0]).expect("send tag 20");
        r1.send(0, 10, vec![3.0]).expect("send tag 10 #2");
        r1
    });
    // Claim the later tag first: the tag-10 messages must park, then be
    // drained FIFO.
    assert_eq!(r0.recv(1, 20).expect("tag 20"), vec![2.0]);
    assert_eq!(r0.recv(1, 10).expect("tag 10 first"), vec![1.0]);
    assert_eq!(r0.recv(1, 10).expect("tag 10 second"), vec![3.0]);
    drop(sender.join().expect("sender thread"));
}

/// `recv_any` claims exactly one message and reports its source.
fn recv_any_claims_one<T: Transport + 'static>(world: Vec<T>) {
    let mut endpoints = world;
    let mut r2 = endpoints.pop().expect("rank 2");
    let mut r1 = endpoints.pop().expect("rank 1");
    let mut r0 = endpoints.pop().expect("rank 0");
    let s1 = thread::spawn(move || {
        r1.send(0, 5, vec![1.0]).expect("send from 1");
        r1
    });
    let s2 = thread::spawn(move || {
        r2.send(0, 5, vec![2.0]).expect("send from 2");
        r2
    });
    let mut seen = Vec::new();
    for _ in 0..2 {
        let (src, payload) = r0.recv_any(&[(1, 5), (2, 5)]).expect("recv_any");
        assert_eq!(payload, vec![src as f32]);
        seen.push(src);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2]);
    drop(s1.join().expect("sender 1"));
    drop(s2.join().expect("sender 2"));
}

/// A large payload survives the wire bit-exactly — for the socket
/// transport this exercises multi-read framing well past any single
/// kernel buffer.
fn large_message_round_trip<T: Transport + 'static>(world: Vec<T>) {
    let n = 300_000usize;
    let payload: Vec<f32> = (0..n)
        .map(|i| {
            if i == 17 {
                f32::NAN
            } else if i == 18 {
                -0.0
            } else {
                (i as f32).sin() * 1e-3
            }
        })
        .collect();
    let mut endpoints = world;
    let mut r1 = endpoints.pop().expect("rank 1");
    let mut r0 = endpoints.pop().expect("rank 0");
    let expect = payload.clone();
    let sender = thread::spawn(move || {
        r1.send(0, 42, payload).expect("large send");
        r1
    });
    let got = r0.recv(1, 42).expect("large recv");
    assert_eq!(got.len(), expect.len());
    for (a, b) in got.iter().zip(&expect) {
        assert_eq!(a.to_bits(), b.to_bits(), "bit-exact payload");
    }
    drop(sender.join().expect("sender thread"));
}

/// The crate's collectives run unchanged over the implementation: a p=4
/// tree allreduce produces the exact dense sums on every rank.
fn allreduce_over_transport<T: Transport + 'static>(world: Vec<T>) {
    let m = 33usize;
    let p = world.len();
    let results: Vec<Vec<f32>> = thread::scope(|s| {
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut endpoint| {
                s.spawn(move || {
                    let r = endpoint.rank();
                    let mut v: Vec<f32> = (0..m).map(|j| (r * m + j) as f32).collect();
                    allreduce_tree(&mut endpoint, &mut v).expect("allreduce");
                    v
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    });
    let expect: Vec<f32> = (0..m)
        .map(|j| (0..p).map(|r| (r * m + j) as f32).sum())
        .collect();
    for (r, v) in results.iter().enumerate() {
        assert_eq!(v, &expect, "rank {r}");
    }
}

// ------------------------------------------------------- per-impl wrappers

macro_rules! conformance {
    ($modname:ident, $factory:path) => {
        mod $modname {
            use super::*;

            #[test]
            fn deadline_timeout() {
                super::deadline_timeout($factory(2));
            }

            #[test]
            fn peer_gone_on_hangup() {
                super::peer_gone_on_hangup($factory(2));
            }

            #[test]
            fn tag_ordering() {
                super::tag_ordering($factory(2));
            }

            #[test]
            fn recv_any_claims_one() {
                super::recv_any_claims_one($factory(3));
            }

            #[test]
            fn large_message_round_trip() {
                super::large_message_round_trip($factory(2));
            }

            #[test]
            fn allreduce_over_transport() {
                super::allreduce_over_transport($factory(4));
            }
        }
    };
}

conformance!(inproc, inproc_world);
conformance!(clocked, clocked_world);
conformance!(socket, socket_world);
conformance!(mock, mock_world);
// The model checker's transport in *live* mode: same failure-semantics
// contract as the real substrates, so `repro analyze` results
// transfer to the transports the engine actually runs on.
use sasgd_analysis::model::model_world;
conformance!(model, model_world);
