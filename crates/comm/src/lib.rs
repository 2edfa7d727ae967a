//! # sasgd-comm
//!
//! Real-thread communication substrate — the stand-in for the paper's
//! CUDA-aware OpenMPI stack (`mpiT`).
//!
//! * [`transport`] — the [`transport::Transport`] trait every collective
//!   and engine backend is written against: `send` and one matched
//!   receive, [`transport::Transport::recv_match`], over opaque rank
//!   endpoints, with typed [`world::CommError`] as the only failure
//!   channel — and [`transport::Clocked`], the decorator that prices any
//!   endpoint's messages in virtual time;
//! * [`world`] — a process-group abstraction: `p` ranks exchanging typed
//!   messages over crossbeam channels, with global traffic accounting —
//!   the in-process [`Transport`] implementation;
//! * [`socket`] — a TCP implementation of the same trait: full-mesh
//!   rendezvous plus the [`protocol`] length-prefixed frame format, for
//!   ranks running as separate OS processes;
//! * [`mock`] — a minimal reference implementation for conformance
//!   testing and failure-path injection;
//! * [`tree`] — the one binomial tree (the `O(m log p)` pattern the
//!   paper's cost analysis assumes), walked over a [`tree::Membership`]:
//!   all of a world's ranks, a subset (a hierarchical group), or the
//!   survivors of a fault — with a deadline, its error path evicts lost
//!   ranks and rebuilds the tree over the survivors;
//! * [`collectives`] — broadcast and allreduce over the whole world: the
//!   dense tree, the one allreduce;
//! * [`ps_transport`] — the (sharded) parameter server Downpour and EAMSGD
//!   aggregate through, expressed purely in [`Transport`] operations:
//!   shards are ranks of the learners' world, with asynchronous adds,
//!   deadline-bounded pulls under a retry ladder, a stamp-consistent
//!   snapshot pull, and the update clock staleness is measured against;
//! * [`fault`] — deterministic crash/stall/drop fault plans for the
//!   threaded backend.
//!
//! Everything is deterministic given a deterministic caller: collectives
//! use fixed reduction orders, so "SASGD over threads" equals "SASGD
//! simulated" bit for bit (an integration test in the workspace root checks
//! this).
//!
//! ## Example: 4-rank allreduce
//!
//! ```
//! use sasgd_comm::world::CommWorld;
//! use sasgd_comm::collectives::allreduce_tree;
//! use std::thread;
//!
//! let mut world = CommWorld::new(4);
//! let mut comms = world.communicators();
//! thread::scope(|s| {
//!     for (r, mut comm) in comms.drain(..).enumerate() {
//!         s.spawn(move || {
//!             let mut v = vec![r as f32 + 1.0; 3];
//!             allreduce_tree(&mut comm, &mut v).expect("allreduce");
//!             assert_eq!(v, vec![10.0; 3]); // 1+2+3+4
//!         });
//!     }
//! });
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod fault;
pub mod mock;
pub mod protocol;
pub mod ps_transport;
pub mod socket;
pub mod sparse;
pub mod transport;
pub mod tree;
pub mod world;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use mock::{mock_world, MockTransport};
pub use protocol::Frame;
pub use ps_transport::{serve_shard, PsLayout, PsTransportClient, PsTransportError};
pub use socket::{loopback_addrs, SocketTransport};
pub use sparse::{sparse_allreduce_tree, SparseVec};
pub use transport::{Clocked, Sequenced, Stamps, Transport, VirtualClock, Wait};
pub use tree::{allreduce_over, broadcast_over, Fold, FtError, FtOutcome, Membership};
pub use world::{CommError, CommWorld, Communicator, FaultSchedule};
