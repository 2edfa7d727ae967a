//! The four fixed workloads, as plain data. Nothing here calls into the
//! program; `adapter.rs` turns a [`Spec`] into the program's own types.

/// The paper's two networks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Net {
    /// Table I CNN with every channel count divided by `divisor`.
    Cnn { divisor: usize },
    /// Table II text network at sequence length `seq_len`.
    Nlc { seq_len: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    Sequential,
    /// SASGD aggregating every `t` minibatches, γp = γ/p.
    Sasgd {
        t: usize,
    },
    /// SASGD through layer-wise top-`ratio` sparsification with error
    /// feedback and the v2 sparse tree (no q8, no union bound).
    SasgdSparse {
        t: usize,
        ratio: f64,
    },
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub net: Net,
    pub algo: Algo,
    pub p: usize,
    pub train: usize,
    pub test: usize,
    pub classes: usize,
    pub batch: usize,
    /// Epochs of one timed unit (one `try_run` call).
    pub epochs: usize,
    pub eval_cap: usize,
}

pub const GAMMA: f32 = 0.05;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "cnn_seq_p1",
        why: "plain single-worker baseline: >=99% of a step is nn forward/backward over tall-skinny im2col GEMMs, comm does nothing; a kernel change must show here first",
        net: Net::Cnn { divisor: 2 },
        algo: Algo::Sequential,
        p: 1,
        train: 128,
        test: 32,
        classes: 10,
        batch: 32,
        epochs: 2,
        eval_cap: 8,
    },
    Spec {
        name: "cnn_sasgd_p2",
        why: "the paper's amortised regime (T=5, 0.5 MB allreduce, comm a few % of a rank): measures scaling against cnn_seq_p1 and straggler wait; a comm change should not move it",
        net: Net::Cnn { divisor: 2 },
        algo: Algo::Sasgd { t: 5 },
        p: 2,
        train: 256,
        test: 32,
        classes: 10,
        batch: 32,
        epochs: 2,
        eval_cap: 8,
    },
    Spec {
        name: "nlc_sasgd_p2",
        why: "the paper's communication-bound regime (batch 1, 6.9 MB allreduced every step): allreduce and full-vector copies dominate, GEMMs are GEMV-like; a packing change that helps cnn_* but hurts here shows",
        net: Net::Nlc { seq_len: 20 },
        algo: Algo::Sasgd { t: 1 },
        p: 2,
        train: 96,
        test: 32,
        classes: 311,
        batch: 1,
        epochs: 2,
        eval_cap: 8,
    },
    Spec {
        name: "nlc_sparse_p2",
        why: "same model through layer-wise top-1% compression and the sparse tree: compress dominates a round, wire 33x smaller; trading the dense tree against the sparse tree shows as one row up, one row down",
        net: Net::Nlc { seq_len: 20 },
        algo: Algo::SasgdSparse { t: 1, ratio: 0.01 },
        p: 2,
        train: 48,
        test: 32,
        classes: 311,
        batch: 1,
        epochs: 2,
        eval_cap: 8,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Aggregation interval `T`; 0 for sequential SGD.
    pub fn t(&self) -> usize {
        match self.algo {
            Algo::Sequential => 0,
            Algo::Sasgd { t } | Algo::SasgdSparse { t, .. } => t,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GemmKind {
    /// `A[m,k] · B[k,n]`; skips exact zeros of `A`.
    Nn,
    /// `A[m,k] · B[n,k]ᵀ`; never skips.
    Nt,
    /// `A[k,m]ᵀ · B[k,n]`; skips exact zeros of `A`.
    Tn,
}

/// One GEMM call site of a training step at the workload's batch size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GemmShape {
    pub kind: GemmKind,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub calls_per_step: usize,
    pub forward: bool,
    /// Share of `A` that is non-zero in a real step. The reference NN/TN
    /// kernels skip exact zeros, and a conv layer's output gradient is
    /// mostly zeros (one pooling winner per window, half of them dropped),
    /// so a dense probe would overstate the backward pass several-fold.
    pub a_density: f64,
}

impl GemmShape {
    pub fn macs_per_step(&self) -> u64 {
        (self.m * self.k * self.n * self.calls_per_step) as u64
    }
}

/// One conv layer's lowering at the workload's batch size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvGeom {
    pub ci: usize,
    pub co: usize,
    pub kernel: usize,
    pub pad: usize,
    /// Input side (square images).
    pub side: usize,
    /// Non-zero share of the output gradient: 1 / (pool window positions
    /// that fit) × dropout keep 0.5.
    pub grad_density: f64,
}

impl ConvGeom {
    pub fn out_side(&self) -> usize {
        self.side + 2 * self.pad + 1 - self.kernel
    }
}

/// Table I's four conv stages at width/`divisor`.
pub fn conv_geoms(net: Net) -> Vec<ConvGeom> {
    let Net::Cnn { divisor: d } = net else {
        return Vec::new();
    };
    vec![
        ConvGeom {
            ci: 3,
            co: 64 / d,
            kernel: 5,
            pad: 2,
            side: 32,
            grad_density: 0.125,
        },
        ConvGeom {
            ci: 64 / d,
            co: 128 / d,
            kernel: 3,
            pad: 1,
            side: 16,
            grad_density: 0.125,
        },
        ConvGeom {
            ci: 128 / d,
            co: 256 / d,
            kernel: 3,
            pad: 1,
            side: 8,
            grad_density: 0.125,
        },
        // 4x4 -> 3x3, pooled 2x2 -> 1x1: one winner among 9 positions.
        ConvGeom {
            ci: 256 / d,
            co: 128 / d,
            kernel: 2,
            pad: 0,
            side: 4,
            grad_density: 0.5 / 9.0,
        },
    ]
}

/// `rows × din → dout` fully connected stage: forward NN, weight-gradient
/// TN, input-gradient NT — the three calls `Linear` and `TemporalConv1d`
/// make.
fn dense_stage(rows: usize, din: usize, dout: usize, input_density: f64) -> [GemmShape; 3] {
    let shape = |kind, m, k, n, forward, a_density| GemmShape {
        kind,
        m,
        k,
        n,
        calls_per_step: 1,
        forward,
        a_density,
    };
    [
        shape(GemmKind::Nn, rows, din, dout, true, input_density),
        shape(GemmKind::Tn, din, rows, dout, false, input_density),
        shape(GemmKind::Nt, rows, dout, din, false, 1.0),
    ]
}

/// Every GEMM of one training step of `net` at minibatch `batch`, in the
/// (m, k, n) convention of `linalg::gemm_{nn,nt,tn}_ws`' shared `m·k·n`
/// MAC count. Forward entries sum to `batch × Model::macs_per_sample()`.
pub fn gemm_shapes(net: Net, batch: usize) -> Vec<GemmShape> {
    let mut out = Vec::new();
    match net {
        Net::Cnn { divisor } => {
            for g in conv_geoms(net) {
                let npix = g.out_side() * g.out_side();
                let plen = g.ci * g.kernel * g.kernel;
                let rows = batch * npix;
                // cols · Wᵀ, then dcols = gt · W, then per-image dW = gtᵀ · cols.
                out.push(GemmShape {
                    kind: GemmKind::Nt,
                    m: rows,
                    k: plen,
                    n: g.co,
                    calls_per_step: 1,
                    forward: true,
                    a_density: 1.0,
                });
                out.push(GemmShape {
                    kind: GemmKind::Nn,
                    m: rows,
                    k: g.co,
                    n: plen,
                    calls_per_step: 1,
                    forward: false,
                    a_density: g.grad_density,
                });
                out.push(GemmShape {
                    kind: GemmKind::Tn,
                    m: g.co,
                    k: npix,
                    n: plen,
                    calls_per_step: batch,
                    forward: false,
                    a_density: g.grad_density,
                });
            }
            // The classifier reads the last dropout's output: half zeros.
            out.extend(dense_stage(batch, 128 / divisor, 10, 0.5));
        }
        Net::Nlc { seq_len } => {
            out.extend(dense_stage(batch * seq_len, 100, 200, 1.0));
            out.extend(dense_stage(batch * (seq_len - 1), 400, 1000, 1.0));
            out.extend(dense_stage(batch, 1000, 1000, 1.0));
            out.extend(dense_stage(batch, 1000, 311, 1.0));
        }
    }
    out
}

/// What `Model::macs_per_sample()` counts beside the GEMMs — one operation
/// per element an activation, a pooling window or a dropout mask reads — so
/// the shape list above can be checked against it exactly.
#[cfg(test)]
pub fn elementwise_ops_per_sample(net: Net) -> u64 {
    match net {
        Net::Cnn { .. } => conv_geoms(net)
            .iter()
            .map(|g| {
                let pooled = (g.out_side() / 2) * (g.out_side() / 2) * g.co;
                // ReLU over the conv output, 2x2 max-pool reads, dropout.
                (g.out_side() * g.out_side() * g.co + 4 * pooled + pooled) as u64
            })
            .sum(),
        Net::Nlc { seq_len } => {
            let (conv_len, pooled_len) = (seq_len - 1, (seq_len - 1) / 2);
            // tanh, temporal max-pool, tanh, max-over-time, tanh.
            (seq_len * 200 + conv_len * 1000 + 2 * pooled_len * 1000 + 1000) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|s| s.name), Some(w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn conv_backward_has_batch_many_weight_gradient_calls() {
        let shapes = gemm_shapes(Net::Cnn { divisor: 2 }, 32);
        assert_eq!(shapes.len(), 4 * 3 + 3);
        assert_eq!(
            shapes[0],
            GemmShape {
                kind: GemmKind::Nt,
                m: 32 * 1024,
                k: 75,
                n: 32,
                calls_per_step: 1,
                forward: true,
                a_density: 1.0
            }
        );
        assert_eq!((shapes[2].calls_per_step, shapes[2].k), (32, 1024));
        // conv4: 4x4 input, 2x2 kernel, no padding -> 3x3.
        assert_eq!(shapes[9].m, 32 * 9);
    }
}
