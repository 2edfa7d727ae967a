//! # sasgd-data
//!
//! Datasets for the reproduction.
//!
//! The paper evaluates on CIFAR-10 and on NLC-F, an in-house finance NLP
//! corpus that was never released. Neither is available here, so this crate
//! provides *synthetic stand-ins with the same geometry*:
//!
//! * [`cifar_like`] — procedurally generated 3×32×32 images in 10 classes
//!   (smooth per-class templates + shift/flip/noise), sized like CIFAR-10
//!   by default and scalable down for CPU experiments;
//! * [`nlc_like`] — sequences of 100-d "word2vec" embeddings where class
//!   keywords are planted among noise words, defaulting to the paper's
//!   2 500 sentences × 311 labels.
//!
//! Both are learnable by the paper's architectures, deterministic under a
//! seed, and tunable in difficulty — which is what the convergence-shape
//! experiments (Figs 2–3, 7–10) need. See DESIGN.md §2 for why this
//! substitution preserves the relevant behaviour.

#![forbid(unsafe_code)]

pub mod cifar_like;
pub mod dataset;
pub mod nlc_like;
pub mod sharding;

pub use dataset::{Dataset, MinibatchIter, Shard};
pub use sharding::{make_shards, ShardStrategy};
