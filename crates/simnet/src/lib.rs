//! # sasgd-simnet
//!
//! Cluster cost model: the stand-in for the paper's testbed (an IBM
//! Power8 host with 8 Tesla K80 GPUs behind a PCIe binary tree). The
//! discrete-event run itself is the engine's simulated backend, which
//! prices every message it sends with this crate's topology.
//!
//! The paper's timing results are functions of three quantities — compute
//! time per minibatch, bytes moved per gradient aggregation, and the path
//! those bytes take (wide GPU↔GPU links for allreduce vs the narrow
//! GPU↔host channel for a parameter server). This crate models exactly
//! those:
//!
//! * [`topology`] — platform descriptions with link latencies/bandwidths,
//!   calibrated to the paper's Fig 1 breakdown;
//! * [`cost`] — the α–β communication cost model and the MAC-driven
//!   compute model, including barrier straggler effects and host
//!   contention;
//! * [`jitter`] — reproducible per-minibatch learner speed noise (the
//!   source of gradient staleness variation in asynchronous algorithms);
//! * [`timeline`] — per-learner phase traces rendered as Gantt charts.

#![forbid(unsafe_code)]

pub mod cost;
pub mod jitter;
pub mod timeline;
pub mod topology;

pub use cost::{CommCost, CostModel};
pub use jitter::JitterModel;
pub use timeline::{render_gantt, trace_downpour, trace_sasgd, LearnerTrace, Phase, TimelineSpec};
pub use topology::Topology;
