//! # sasgd — Sparse-Aggregation Distributed SGD
//!
//! Facade crate for the reproduction of *"An efficient, distributed
//! stochastic gradient descent algorithm for deep-learning applications"*
//! (Cong, Bhardwaj, Feng — ICPP 2017). Re-exports every workspace crate
//! under one roof so examples and downstream users need a single
//! dependency.
//!
//! * [`tensor`] — dense `f32` tensors and compute kernels
//! * [`nn`] — layers, backprop, Table I / Table II models
//! * [`data`] — synthetic CIFAR-like / NLC-like datasets
//! * [`comm`] — real-thread collectives and the sharded parameter server
//! * [`simnet`] — the testbed's cost model, learner jitter and timelines
//! * [`core`] — SASGD, Downpour, EAMSGD, the trainer, and the theory module

pub use sasgd_comm as comm;
pub use sasgd_core as core;
pub use sasgd_data as data;
pub use sasgd_nn as nn;
pub use sasgd_simnet as simnet;
pub use sasgd_tensor as tensor;
