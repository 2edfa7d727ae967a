//! # sasgd-nn
//!
//! Neural-network layers, backpropagation, and the two models evaluated by
//! the paper (Table I: CIFAR-10 CNN, ~0.5 M parameters; Table II: NLC-F
//! sentiment network, ~2 M parameters).
//!
//! The distributed algorithms in `sasgd-core` treat a model as a *flat
//! parameter vector* plus a *flat gradient vector* — exactly the view
//! Downpour's parameter server and SASGD's allreduce need — so that is how
//! [`Model`] stores them: two contiguous arenas, layer blocks in layer
//! order, with each layer handed its block on `forward` / `backward`.
//!
//! Layers also report their multiply–accumulate counts ([`Layer::macs`]),
//! which drives the simulated-GPU compute-time model in `sasgd-simnet`.
//!
//! ## Example
//!
//! ```
//! use sasgd_nn::{models, Ctx};
//! use sasgd_tensor::{SeedRng, Tensor};
//!
//! let mut model = models::tiny_mlp(8, 4, 3, &mut SeedRng::new(0));
//! let x = Tensor::zeros(&[2, 8]);
//! let labels = [0usize, 2];
//! let mut ctx = Ctx::train(SeedRng::new(1));
//! let out = model.forward_loss(&x, &labels, &mut ctx);
//! assert!(out.loss > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod init;
pub mod io;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod models;

pub use layer::{Ctx, Layer};
pub use model::{EvalTally, ForwardOutput, Model};
/// Intra-op width control for the kernels under every layer (re-exported
/// from `sasgd-tensor`): [`parallel::configure_threads`],
/// [`parallel::with_width`], …
pub use sasgd_tensor::parallel;
