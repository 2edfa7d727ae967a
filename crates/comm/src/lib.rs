//! # sasgd-comm
//!
//! Real-thread communication substrate — the stand-in for the paper's
//! CUDA-aware OpenMPI stack (`mpiT`).
//!
//! * [`transport`] — the [`transport::Transport`] trait every collective
//!   and engine backend is written against: `send`/`recv`/`recv_deadline`/
//!   `recv_any` over opaque rank endpoints, with typed [`world::CommError`]
//!   as the only failure channel;
//! * [`world`] — a process-group abstraction: `p` ranks exchanging typed
//!   messages over crossbeam channels, with global traffic accounting —
//!   the in-process [`Transport`] implementation;
//! * [`socket`] — a TCP implementation of the same trait: full-mesh
//!   rendezvous plus the [`protocol`] length-prefixed frame format, for
//!   ranks running as separate OS processes;
//! * [`mock`] — a minimal reference implementation for conformance
//!   testing and failure-path injection;
//! * [`collectives`] — broadcast, binomial-tree reduce/allreduce
//!   (the `O(m log p)` pattern the paper's cost analysis assumes), a
//!   bandwidth-optimal ring allreduce for the ablation bench, and a
//!   barrier;
//! * [`ps_transport`] — the (sharded) parameter server Downpour and EAMSGD
//!   aggregate through, expressed purely in [`Transport`] operations:
//!   shards are ranks of the learners' world, with asynchronous adds,
//!   deadline-bounded pulls under a retry ladder, a stamp-consistent
//!   snapshot pull, and the update clock staleness is measured against;
//! * [`fault`] — deterministic crash/stall/drop fault plans for the
//!   threaded backend;
//! * [`ft`] — membership epochs and a self-healing allreduce that
//!   survives learner loss by rebuilding the binomial tree over the
//!   survivors.
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
pub mod ft;
pub mod hierarchy;
pub mod mock;
pub mod protocol;
pub mod ps_transport;
pub mod socket;
pub mod sparse;
pub mod transport;
pub mod world;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use ft::{ft_allreduce, FtError, FtOutcome, Membership};
pub use hierarchy::{grouped, hierarchical_allreduce, GroupedComm};
pub use mock::{mock_world, MockTransport};
pub use protocol::Frame;
pub use ps_transport::{serve_shard, PsLayout, PsTransportClient, PsTransportError};
pub use socket::{loopback_addrs, SocketTransport};
pub use sparse::{sparse_allreduce_tree_v2, SparseVec};
pub use transport::{InProcTransport, Transport};
pub use world::{CommError, CommWorld, Communicator, FaultSchedule};
