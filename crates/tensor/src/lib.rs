//! # sasgd-tensor
//!
//! Dense `f32` tensor math underpinning the SASGD reproduction.
//!
//! The paper trains its models with Torch on K80 GPUs; this crate is the
//! from-scratch replacement: row-major dense tensors, the linear-algebra and
//! convolution kernels needed by the networks of Table I / Table II, and
//! seeded random initialization so every experiment is reproducible.
//!
//! Heavy kernels ([`linalg::matmul`], [`conv`], [`pool`]) fork-join over
//! bands of their output — the "GPU" inside one learner — whenever the
//! calling thread has been given a width above 1 ([`parallel::with_width`];
//! the engine sizes its own threads, an unsized thread runs the serial
//! loops). Kernels split only across independent outputs, so they are
//! **bitwise identical** at any width; the one setting is the process-wide
//! cap, [`parallel::configure_threads`].
//!
//! ## Example
//!
//! ```
//! use sasgd_tensor::{Tensor, linalg};
//! let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = linalg::matmul(&a, &b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

#![forbid(unsafe_code)]

pub mod conv;
pub mod linalg;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod workspace;

pub use rng::SeedRng;
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::Workspace;
