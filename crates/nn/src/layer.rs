//! The [`Layer`] trait: forward/backward over a parameter block, FLOP model.

use sasgd_tensor::{SeedRng, Tensor, Workspace};

/// Per-pass context threaded through the forward and backward passes.
///
/// Carries two orthogonal flags — whether layers should cache activations
/// for a following `backward` (`training`) and whether stochastic
/// regularizers like dropout are active (`stochastic`) — plus the RNG
/// stream that makes dropout masks reproducible per learner, plus the
/// [`Workspace`] scratch-buffer pool layers draw their per-step tensors
/// from. A hot loop keeps one workspace alive across steps (see
/// `Learner::compute_gradient` in `sasgd-core`) so steady-state training
/// stops allocating; a fresh default workspace merely degrades to
/// per-call allocation with identical numbers.
pub struct Ctx {
    /// `true` when layers must cache activations for `backward`.
    pub training: bool,
    /// `true` when stochastic regularizers (dropout) are active. Always
    /// `false` outside [`Ctx::train`]: measurements stay deterministic.
    pub stochastic: bool,
    /// Deterministic RNG for stochastic layers.
    pub rng: SeedRng,
    /// Scratch-buffer pool for activations, gradients and conv patch
    /// matrices. Reuse is bitwise-invisible (see `sasgd_tensor::workspace`).
    pub ws: Workspace,
    /// The gradient arena held only zeros when this backward began (set
    /// by [`Model::backward`](crate::Model::backward)): a layer may sum
    /// its gradient straight into its block (see [`add_grads`]).
    pub(crate) grads_zeroed: bool,
}

impl Ctx {
    /// Training-mode context: caches for backward, dropout active.
    pub fn train(rng: SeedRng) -> Self {
        Ctx {
            training: true,
            stochastic: true,
            rng,
            ws: Workspace::new(),
            grads_zeroed: true,
        }
    }

    /// Evaluation-mode context (no caching, dropout disabled; RNG unused).
    pub fn eval() -> Self {
        Ctx {
            training: false,
            stochastic: false,
            rng: SeedRng::new(0),
            ws: Workspace::new(),
            grads_zeroed: true,
        }
    }

    /// Measurement-mode context: caches activations so gradients can be
    /// taken, but with dropout disabled — for deterministic gradient
    /// probes (e.g. per-epoch gradient-norm estimates) that must not
    /// sample regularization noise. RNG unused.
    pub fn measure() -> Self {
        Ctx {
            training: true,
            stochastic: false,
            rng: SeedRng::new(0),
            ws: Workspace::new(),
            grads_zeroed: true,
        }
    }
}

/// One differentiable layer.
///
/// A layer is geometry plus whatever activations it must cache between
/// `forward` and `backward`. It owns no parameters: the [`Model`](crate::Model)
/// keeps every layer's parameters in one flat arena and every gradient in
/// a second arena of the same layout, and hands a layer its own block —
/// [`Layer::param_len`] scalars, weight then bias — on each call.
///
/// Shapes use *per-sample* dimensions (the batch axis is implicit and
/// dynamic): a conv layer maps `[ci, h, w] -> [co, oh, ow]`, a linear layer
/// maps `[..., in] -> [..., out]`.
pub trait Layer: Send {
    /// Human-readable layer name for model summaries.
    fn name(&self) -> &'static str;

    /// Forward pass over a batch with this layer's parameter block.
    /// Consumes the input (layers that need it for backward cache it
    /// internally).
    fn forward(&mut self, input: Tensor, params: &[f32], ctx: &mut Ctx) -> Tensor;

    /// Backward pass: receives `dL/d(output)`, returns `dL/d(input)`, and
    /// *accumulates* parameter gradients into `grads`, this layer's block
    /// of the gradient arena (they add up across calls until the model
    /// zeroes the arena), one add per coordinate of this call's gradient
    /// onto what the block held (`add_grads`). Consumed tensors are
    /// recycled into `ctx.ws` so the next step reuses their storage.
    fn backward(
        &mut self,
        grad_out: Tensor,
        params: &[f32],
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads —
    /// the first of a [`Model`](crate::Model): accumulates bit for bit the
    /// parameter gradients `backward` would and returns nothing. Layers
    /// whose input gradient is a separate product (a GEMM, a `col2im`)
    /// override this to skip it.
    fn backward_params_only(
        &mut self,
        grad_out: Tensor,
        params: &[f32],
        grads: &mut [f32],
        ctx: &mut Ctx,
    ) {
        let dinput = self.backward(grad_out, params, grads, ctx);
        ctx.ws.recycle(dinput);
    }

    /// Number of learnable scalars.
    fn param_len(&self) -> usize {
        0
    }

    /// Draw this layer's initial parameters into its block. Called once,
    /// by [`Model::new`](crate::Model::new), in layer order.
    fn init_params(&self, _rng: &mut SeedRng, _params: &mut [f32]) {}

    /// Per-sample output dimensions given per-sample input dimensions.
    fn out_shape(&self, in_dims: &[usize]) -> Vec<usize>;

    /// Forward multiply–accumulates for one sample with the given
    /// per-sample input dimensions. Element-wise layers report their element
    /// count; parameter-free reshapes report zero.
    fn macs(&self, in_dims: &[usize]) -> u64;
}

/// Add this pass's parameter gradient `g` to `grads`, a layer's block of
/// the arena, as `grads[i] + g[i]` with `g` summed exactly as onto zeros:
/// backward onto an accumulator (an error-feedback residual kept in the
/// arena) is bitwise the accumulator plus a fresh gradient (a `-0.0`
/// start aside, which no sum onto zeros produces). `sum`
/// accumulates `g` into the block it is handed, `terms` products per
/// coordinate. With one term, or onto a zeroed arena, that already holds
/// and `sum` writes `grads` itself; otherwise it sums into zeroed
/// workspace scratch, added in after. Returns what `sum` returns.
// hot-path: per-step parameter gradient; scratch comes from ctx.ws
pub(crate) fn add_grads<R>(
    grads: &mut [f32],
    terms: usize,
    ctx: &mut Ctx,
    sum: impl FnOnce(&mut [f32], &mut Ctx) -> R,
) -> R {
    if ctx.grads_zeroed || terms <= 1 {
        return sum(grads, ctx);
    }
    let mut g = ctx.ws.take_f32(grads.len());
    let out = sum(&mut g, ctx);
    for (a, &v) in grads.iter_mut().zip(&g) {
        *a += v;
    }
    ctx.ws.give_f32(g);
    out
}

/// Batch a per-sample shape into full tensor dims.
pub fn with_batch(n: usize, per_sample: &[usize]) -> Vec<usize> {
    let mut d = Vec::with_capacity(per_sample.len() + 1);
    d.push(n);
    d.extend_from_slice(per_sample);
    d
}

/// A fresh parameter block for `layer`, as [`Model::new`](crate::Model::new)
/// would draw it — for unit tests that drive one layer on its own.
#[cfg(test)]
pub(crate) fn drawn_params(layer: &dyn Layer, rng: &mut SeedRng) -> Vec<f32> {
    let mut params = vec![0.0; layer.param_len()];
    layer.init_params(rng, &mut params);
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_modes() {
        let t = Ctx::train(SeedRng::new(1));
        assert!(t.training && t.stochastic);
        let e = Ctx::eval();
        assert!(!e.training && !e.stochastic);
        let m = Ctx::measure();
        assert!(m.training && !m.stochastic, "measure: grads yes, noise no");
    }

    #[test]
    fn with_batch_prepends() {
        assert_eq!(with_batch(4, &[3, 32, 32]), vec![4, 3, 32, 32]);
        assert_eq!(with_batch(1, &[]), vec![1]);
    }
}
