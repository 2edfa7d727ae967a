//! A sequential model with the flat parameter/gradient view that every
//! distributed algorithm in the paper operates on.

use sasgd_tensor::{SeedRng, Tensor};

use crate::layer::{Ctx, Layer};
use crate::loss::softmax_cross_entropy_ws;

/// Result of one forward (+loss) pass.
pub struct ForwardOutput {
    /// Mean cross-entropy over the minibatch.
    pub loss: f32,
    /// Correct argmax predictions in the minibatch.
    pub correct: usize,
    /// Batch size.
    pub total: usize,
}

/// A stack of layers ending in softmax cross-entropy.
///
/// `Model` is the unit a *learner* replicates: SASGD broadcasts one model to
/// `p` learners and each computes gradients locally. Every learnable
/// scalar lives in one contiguous arena, [`Model::params`], and every
/// gradient in a second arena of the same layout, [`Model::grads`]: layer
/// blocks in layer order ([`Model::param_blocks`]), weight then bias inside
/// a block. Layers own no storage; `forward`/`backward` hand each its
/// block. The training step and every exchange work on these slices in
/// place — they *are* the flat vectors the paper's allreduce and parameter
/// server move. The copying accessors ([`Model::param_vector`],
/// [`Model::write_params`], [`Model::grad_vector`]) remain for callers
/// off the step path: checkpoints, analysis probes, tests, benchmarks.
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    /// Per-sample input dimensions (e.g. `[3, 32, 32]`).
    input_dims: Vec<usize>,
    /// Cached gradient of the loss w.r.t. the logits from the last
    /// `forward_loss`, consumed by `backward`.
    pending_dlogits: Option<Tensor>,
    params: Vec<f32>,
    grads: Vec<f32>,
    /// Layer `i`'s block is `offsets[i]..offsets[i + 1]` of either arena.
    offsets: Vec<usize>,
    /// `grads` holds only zeros: set by [`Model::zero_grads`], cleared by
    /// everything that may write the arena.
    grads_zeroed: bool,
}

impl Model {
    /// Build from layers; `input_dims` are per-sample (no batch axis).
    /// Initial parameters are drawn from `rng` layer by layer, in order.
    pub fn new(layers: Vec<Box<dyn Layer>>, input_dims: &[usize], rng: &mut SeedRng) -> Self {
        let mut offsets = Vec::with_capacity(layers.len() + 1);
        let mut acc = 0usize;
        for l in &layers {
            offsets.push(acc);
            acc += l.param_len();
        }
        offsets.push(acc);
        let mut params = vec![0.0; acc];
        for (l, w) in layers.iter().zip(offsets.windows(2)) {
            l.init_params(rng, &mut params[w[0]..w[1]]);
        }
        Model {
            layers,
            input_dims: input_dims.to_vec(),
            pending_dlogits: None,
            params,
            grads: vec![0.0; acc],
            offsets,
            grads_zeroed: true,
        }
    }

    /// Per-sample input dimensions.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Total learnable scalars — the model size `m` of the paper's
    /// communication analysis.
    pub fn param_len(&self) -> usize {
        self.params.len()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Per-layer parameter blocks as `(start, end)` offsets into the flat
    /// parameter vector, parameterless layers (activations, pooling)
    /// skipped. Layer-wise gradient compression allocates its k budget
    /// over these blocks.
    pub fn param_blocks(&self) -> Vec<(usize, usize)> {
        self.offsets
            .windows(2)
            .map(|w| (w[0], w[1]))
            .filter(|(s, e)| e > s)
            .collect()
    }

    /// The parameter arena.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The parameter arena, for in-place updates.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// The gradient arena: what `backward` calls have accumulated since
    /// the last [`Model::zero_grads`].
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Both arenas at once — the parameters to update, the gradients to
    /// update them by — for passes that walk the two together, or that
    /// reduce gradient arenas in place.
    pub fn params_and_grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        self.grads_zeroed = false;
        (&mut self.params, &mut self.grads)
    }

    /// Lend both arenas themselves to `f` as `(params, grads)`, for a
    /// collective that moves or swaps their buffers instead of copying them.
    /// A gradient arena `f` leaves short (a walk that failed after handing
    /// it to the wire) comes back zero-filled to [`Model::param_len`].
    ///
    /// # Panics
    /// If `f` leaves the parameter arena at another length: the layers
    /// index into it.
    pub fn lend_arenas<R>(&mut self, f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
        let len = self.params.len();
        self.grads_zeroed = false;
        let out = f(&mut self.params, &mut self.grads);
        assert_eq!(
            self.params.len(),
            len,
            "a lent parameter arena came back resized"
        );
        self.grads.resize(len, 0.0);
        out
    }

    /// Forward through all layers (no loss); returns logits.
    pub fn forward(&mut self, input: Tensor, ctx: &mut Ctx) -> Tensor {
        let mut x = input;
        for (l, w) in self.layers.iter_mut().zip(self.offsets.windows(2)) {
            x = l.forward(x, &self.params[w[0]..w[1]], ctx);
        }
        x
    }

    /// Forward plus loss/accuracy; caches `dL/d(logits)` for [`Model::backward`].
    pub fn forward_loss(
        &mut self,
        input: &Tensor,
        labels: &[usize],
        ctx: &mut Ctx,
    ) -> ForwardOutput {
        let n = labels.len();
        let batch = Tensor::clone_in(input, &mut ctx.ws);
        let logits = self.forward(batch, ctx);
        let out = softmax_cross_entropy_ws(&logits, labels, &mut ctx.ws);
        ctx.ws.recycle(logits);
        if ctx.training {
            self.pending_dlogits = Some(out.dlogits);
        } else {
            ctx.ws.recycle(out.dlogits);
        }
        ForwardOutput {
            loss: out.loss,
            correct: out.correct,
            total: n,
        }
    }

    /// Backpropagate the cached loss gradient, accumulating parameter
    /// gradients into the gradient arena: onto a non-zero arena, each
    /// coordinate ends as what it held plus the gradient a zeroed arena
    /// would have received, bitwise (see `Layer::backward`).
    ///
    /// # Panics
    /// Panics if called without a preceding training-mode `forward_loss`.
    pub fn backward(&mut self, ctx: &mut Ctx) {
        let mut g = self
            .pending_dlogits
            .take()
            .expect("backward() requires a training-mode forward_loss first");
        ctx.grads_zeroed = std::mem::replace(&mut self.grads_zeroed, false);
        let blocks = self.offsets.windows(2);
        for (i, (l, w)) in self.layers.iter_mut().zip(blocks).enumerate().rev() {
            let block = w[0]..w[1];
            let (params, grads) = (&self.params[block.clone()], &mut self.grads[block]);
            if i == 0 {
                // The gradient w.r.t. the model's input has no reader.
                return l.backward_params_only(g, params, grads, ctx);
            }
            g = l.backward(g, params, grads, ctx);
        }
        ctx.ws.recycle(g);
    }

    /// Copy all parameters into a fresh flat vector.
    pub fn param_vector(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// The parameter arena itself, the model consumed.
    pub fn into_params(self) -> Vec<f32> {
        self.params
    }

    /// Overwrite all parameters from `src`.
    pub fn write_params(&mut self, src: &[f32]) {
        self.params.copy_from_slice(src);
    }

    /// Copy accumulated gradients into a fresh vector.
    pub fn grad_vector(&self) -> Vec<f32> {
        self.grads.clone()
    }

    /// Zero the gradient arena.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
        self.grads_zeroed = true;
    }

    /// In-place SGD step `x ← x − γ·g`, one pass over the two arenas.
    pub fn sgd_step(&mut self, gamma: f32) {
        for (p, g) in self.params.iter_mut().zip(&self.grads) {
            *p -= gamma * g;
        }
    }

    /// Forward multiply–accumulates for one sample.
    pub fn macs_per_sample(&self) -> u64 {
        let mut dims = self.input_dims.clone();
        let mut total = 0u64;
        for l in &self.layers {
            total += l.macs(&dims);
            dims = l.out_shape(&dims);
        }
        total
    }

    /// One-line-per-layer summary with shapes and parameter counts.
    pub fn summary(&self) -> String {
        let mut dims = self.input_dims.clone();
        let mut s = String::new();
        s.push_str(&format!("input: {dims:?}\n"));
        for l in &self.layers {
            let out = l.out_shape(&dims);
            s.push_str(&format!(
                "{:<18} {:?} -> {:?}  params={}\n",
                l.name(),
                dims,
                out,
                l.param_len()
            ));
            dims = out;
        }
        s.push_str(&format!("total params: {}\n", self.param_len()));
        s
    }

    /// Evaluate mean loss and accuracy over a whole dataset (in chunks).
    pub fn evaluate(&mut self, inputs: &[Tensor], labels: &[Vec<usize>]) -> (f32, f32) {
        assert_eq!(inputs.len(), labels.len());
        let mut ctx = Ctx::eval();
        let mut tally = EvalTally::default();
        for (x, y) in inputs.iter().zip(labels) {
            tally.add(&self.forward_loss(x, y, &mut ctx));
        }
        tally.mean()
    }
}

/// Sample-weighted loss and correct-prediction sums over the batches of an
/// evaluation, added in batch order: [`Model::evaluate`]'s arithmetic, for
/// callers that run the forward passes themselves.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalTally {
    loss_sum: f64,
    correct: usize,
    total: usize,
}

impl EvalTally {
    /// Add one batch's forward pass.
    pub fn add(&mut self, out: &ForwardOutput) {
        self.loss_sum += f64::from(out.loss) * out.total as f64;
        self.correct += out.correct;
        self.total += out.total;
    }

    /// Mean loss and accuracy; `(0, 0)` over no samples.
    pub fn mean(&self) -> (f32, f32) {
        if self.total == 0 {
            return (0.0, 0.0);
        }
        (
            // lint:allow(float-cast): deliberate narrowing — the epoch mean
            // is accumulated in f64 for order-stability, reported in f32.
            (self.loss_sum / self.total as f64) as f32,
            self.correct as f32 / self.total as f32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};

    fn mlp(seed: u64) -> Model {
        Model::new(
            vec![
                Box::new(Linear::new(4, 8)),
                Box::new(Relu::new()),
                Box::new(Linear::new(8, 3)),
            ],
            &[4],
            &mut SeedRng::new(seed),
        )
    }

    #[test]
    fn param_roundtrip_through_flat_vector() {
        let m = mlp(1);
        assert_eq!(m.param_len(), 4 * 8 + 8 + 8 * 3 + 3);
        let v = m.param_vector();
        let mut m2 = mlp(999);
        assert_ne!(m2.param_vector(), v);
        m2.write_params(&v);
        assert_eq!(m2.param_vector(), v);
    }

    /// Separable toy data: class is encoded in which coordinate is largest.
    fn separable(n: usize, rng: &mut SeedRng) -> (Tensor, Vec<usize>) {
        let mut x = rng.normal_tensor(&[n, 4], 0.3);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        for (i, &l) in labels.iter().enumerate() {
            x.as_mut_slice()[i * 4 + l] += 2.0;
        }
        (x, labels)
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = mlp(2);
        let mut rng = SeedRng::new(3);
        let (x, labels) = separable(16, &mut rng);
        let mut ctx = Ctx::train(SeedRng::new(4));
        let first = m.forward_loss(&x, &labels, &mut ctx);
        m.backward(&mut ctx);
        let mut last = first.loss;
        for _ in 0..100 {
            m.sgd_step(0.2);
            m.zero_grads();
            let o = m.forward_loss(&x, &labels, &mut ctx);
            m.backward(&mut ctx);
            last = o.loss;
        }
        assert!(last < first.loss * 0.5, "loss {} -> {last}", first.loss);
    }

    #[test]
    fn grad_vector_zeroing() {
        let mut m = mlp(5);
        let mut rng = SeedRng::new(6);
        let x = rng.normal_tensor(&[4, 4], 1.0);
        let mut ctx = Ctx::train(SeedRng::new(7));
        m.forward_loss(&x, &[0, 1, 2, 0], &mut ctx);
        m.backward(&mut ctx);
        assert!(m.grad_vector().iter().any(|&g| g != 0.0));
        m.zero_grads();
        assert!(m.grad_vector().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn a_lent_arena_comes_back_full_length() {
        let mut m = mlp(5);
        let len = m.param_len();
        let moved = m.lend_arenas(|_, g| {
            g.fill(2.0);
            std::mem::take(g)
        });
        assert_eq!(moved, vec![2.0; len], "the arena itself was lent");
        assert_eq!(m.grads(), vec![0.0; len], "a taken arena comes back zeroed");
        m.lend_arenas(|_, g| *g = vec![3.0; len]);
        assert_eq!(
            m.grads(),
            vec![3.0; len],
            "a replacement of full length stays"
        );
        let before = m.param_vector();
        m.lend_arenas(|p, g| *g = std::mem::replace(p, vec![4.0; len]));
        assert_eq!(m.params(), vec![4.0; len], "a lent parameter arena lands");
        assert_eq!(
            m.grads(),
            before,
            "the swapped-out one is the gradient arena"
        );
    }

    #[test]
    fn macs_per_sample_counts_linear_layers() {
        let m = mlp(8);
        // 4*8 + 8 (relu elements) + 8*3
        assert_eq!(m.macs_per_sample(), 32 + 8 + 24);
    }

    #[test]
    fn evaluate_on_perfectly_learned_data() {
        let mut m = mlp(9);
        let mut rng = SeedRng::new(10);
        let (x, labels) = separable(30, &mut rng);
        let mut ctx = Ctx::train(SeedRng::new(11));
        for _ in 0..300 {
            m.forward_loss(&x, &labels, &mut ctx);
            m.backward(&mut ctx);
            m.sgd_step(0.2);
            m.zero_grads();
        }
        let (loss, acc) = m.evaluate(&[x], &[labels]);
        assert!(acc > 0.9, "separable data should be learned, acc={acc}");
        assert!(loss < 0.5);
    }

    /// A layer that leaves [`Layer::backward_params_only`] at the trait's
    /// default: the full backward, its input gradient recycled.
    struct FullBackward(Box<dyn Layer>);

    impl Layer for FullBackward {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn forward(&mut self, input: Tensor, params: &[f32], ctx: &mut Ctx) -> Tensor {
            self.0.forward(input, params, ctx)
        }
        fn backward(
            &mut self,
            g: Tensor,
            params: &[f32],
            grads: &mut [f32],
            ctx: &mut Ctx,
        ) -> Tensor {
            self.0.backward(g, params, grads, ctx)
        }
        fn param_len(&self) -> usize {
            self.0.param_len()
        }
        fn out_shape(&self, in_dims: &[usize]) -> Vec<usize> {
            self.0.out_shape(in_dims)
        }
        fn macs(&self, in_dims: &[usize]) -> u64 {
            self.0.macs(in_dims)
        }
    }

    #[test]
    fn skipping_the_first_input_gradient_leaves_parameter_gradients_bitwise() {
        use crate::models;
        let rng = || SeedRng::new(0x19);
        let pair = |build: fn(&mut SeedRng) -> Model| (build(&mut rng()), build(&mut rng()));
        let cases = [
            ("tiny_cnn", pair(|r| models::tiny_cnn(3, r)), 3),
            ("cifar_cnn(2)", pair(|r| models::cifar_cnn_scaled(2, r)), 10),
            ("nlc_net(20)", pair(|r| models::nlc_net(20, r)), 311),
        ];
        for (name, (mut fast, mut full), classes) in cases {
            let first = full.layers.remove(0);
            full.layers.insert(0, Box::new(FullBackward(first)));

            let mut dims = vec![2];
            dims.extend_from_slice(fast.input_dims());
            let x = SeedRng::new(20).normal_tensor(&dims, 1.0);
            let labels = [1, classes - 1];
            for m in [&mut fast, &mut full] {
                // Two steps through one context: the second runs on
                // recycled buffers and accumulates onto the first.
                let mut ctx = Ctx::train(SeedRng::new(21));
                for _ in 0..2 {
                    m.forward_loss(&x, &labels, &mut ctx);
                    m.backward(&mut ctx);
                }
            }
            let bits = |m: &Model| m.grads().iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            assert!(fast.grads().iter().any(|&g| g != 0.0), "{name}");
            assert_eq!(bits(&fast), bits(&full), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "requires a training-mode forward_loss")]
    fn backward_without_forward_panics() {
        mlp(12).backward(&mut Ctx::train(SeedRng::new(0)));
    }

    #[test]
    fn summary_mentions_layers_and_total() {
        let m = mlp(13);
        let s = m.summary();
        assert!(s.contains("Linear"));
        assert!(s.contains("ReLU"));
        assert!(s.contains("total params: 67"), "summary:\n{s}");
    }
}
