//! The paper's two networks (Table I and Table II) plus scaled variants for
//! CPU-tractable experiments and tests.

use sasgd_tensor::SeedRng;

use crate::layers::{
    AvgPool2d, Conv2d, Dropout, Flatten, GlobalMaxOverTime, Linear, LocalResponseNorm, MaxPool2d,
    Relu, Tanh, TemporalConv1d, TemporalMaxPool,
};
use crate::model::Model;

/// Parameter count of the full Table I network.
pub const CIFAR_CNN_PARAMS: usize = 506_378;
/// Parameter count of the full Table II network (sequence length 20).
pub const NLC_NET_PARAMS: usize = 1_733_511;

/// Table I: the CIFAR-10 convolutional network, exactly as printed.
///
/// ```text
/// conv(3→64, 5×5, pad 2) · ReLU · pool 2×2 · dropout 0.5
/// conv(64→128, 3×3, pad 1) · ReLU · pool 2×2 · dropout 0.5
/// conv(128→256, 3×3, pad 1) · ReLU · pool 2×2 · dropout 0.5
/// conv(256→128, 2×2) · ReLU · pool 2×2 · dropout 0.5
/// fc 128×10 · cross-entropy
/// ```
///
/// ~0.5 M parameters ([`CIFAR_CNN_PARAMS`]); input `[3, 32, 32]`.
pub fn cifar_cnn(rng: &mut SeedRng) -> Model {
    cifar_cnn_scaled(1, rng)
}

/// Width-scaled Table I network: every channel count divided by `divisor`
/// (1 = the paper's model). Keeps the input geometry and depth so the
/// communication/computation *ratios* scale faithfully while staying
/// CPU-tractable.
pub fn cifar_cnn_scaled(divisor: usize, rng: &mut SeedRng) -> Model {
    assert!(divisor >= 1 && 64 % divisor == 0, "divisor must divide 64");
    let c1 = 64 / divisor;
    let c2 = 128 / divisor;
    let c3 = 256 / divisor;
    let c4 = 128 / divisor;
    Model::new(
        vec![
            Box::new(Conv2d::new(3, c1, 5, 5, 1, 2)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Dropout::new(0.5)),
            Box::new(Conv2d::new(c1, c2, 3, 3, 1, 1)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Dropout::new(0.5)),
            Box::new(Conv2d::new(c2, c3, 3, 3, 1, 1)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Dropout::new(0.5)),
            Box::new(Conv2d::new(c3, c4, 2, 2, 1, 0)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Dropout::new(0.5)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(c4, 10)),
        ],
        &[3, 32, 32],
        rng,
    )
}

/// Table II: the NLC-F sentiment network.
///
/// ```text
/// fc 100×200 (per timestep) · tanh
/// temporal conv (1000 kernels, window 2) · max-pool (2,1) · tanh
/// max-over-time
/// fc 1000×1000 · tanh
/// fc 1000×311 · cross-entropy
/// ```
///
/// The printed table pools `(2,1)` and then feeds a 1000-wide fully
/// connected layer; a max-over-time reduction bridges the variable-length
/// pooled sequence to that fixed width (the standard Collobert-style text
/// CNN the table abbreviates). ~1.73 M parameters ([`NLC_NET_PARAMS`]);
/// input `[len, 100]` word2vec sequences.
pub fn nlc_net(seq_len: usize, rng: &mut SeedRng) -> Model {
    nlc_net_custom(seq_len, 100, 200, 1000, 1000, 311, rng)
}

/// Fully parameterized NLC-style network for scaled experiments:
/// `embed`-dim inputs projected to `proj`, `nkern` temporal kernels of
/// window 2, a `hidden`-wide fully connected stage, `classes` outputs.
pub fn nlc_net_custom(
    seq_len: usize,
    embed: usize,
    proj: usize,
    nkern: usize,
    hidden: usize,
    classes: usize,
    rng: &mut SeedRng,
) -> Model {
    assert!(seq_len >= 3, "need at least 3 timesteps for conv+pool");
    Model::new(
        vec![
            Box::new(Linear::new(embed, proj)),
            Box::new(Tanh::new()),
            Box::new(TemporalConv1d::new(proj, nkern, 2)),
            Box::new(TemporalMaxPool::new(2)),
            Box::new(Tanh::new()),
            Box::new(GlobalMaxOverTime::new()),
            Box::new(Linear::new(nkern, hidden)),
            Box::new(Tanh::new()),
            Box::new(Linear::new(hidden, classes)),
        ],
        &[seq_len, embed],
        rng,
    )
}

/// An AlexNet-flavoured network scaled to 32×32 inputs — conv stacks with
/// local response normalization, overlapping feature growth, dropout-heavy
/// fully connected head. Section II notes the paper's approach "works
/// for these networks also"; this builder lets the harness check that
/// claim on a deeper architecture. `width` divides the channel counts
/// (use 8 for CPU-scale runs).
pub fn alexnet_32(width_divisor: usize, classes: usize, rng: &mut SeedRng) -> Model {
    assert!(
        width_divisor >= 1 && 64 % width_divisor == 0,
        "divisor must divide 64"
    );
    let c1 = 64 / width_divisor;
    let c2 = 192 / width_divisor;
    let c3 = 256 / width_divisor;
    let fc = 512 / width_divisor;
    Model::new(
        vec![
            Box::new(Conv2d::new(3, c1, 5, 5, 1, 2)),
            Box::new(Relu::new()),
            Box::new(LocalResponseNorm::alexnet()),
            Box::new(MaxPool2d::new(2)), // 16
            Box::new(Conv2d::new(c1, c2, 3, 3, 1, 1)),
            Box::new(Relu::new()),
            Box::new(LocalResponseNorm::alexnet()),
            Box::new(MaxPool2d::new(2)), // 8
            Box::new(Conv2d::new(c2, c3, 3, 3, 1, 1)),
            Box::new(Relu::new()),
            Box::new(AvgPool2d::new(2)), // 4
            Box::new(Flatten::new()),
            Box::new(Dropout::new(0.5)),
            Box::new(Linear::new(c3 * 16, fc)),
            Box::new(Relu::new()),
            Box::new(Dropout::new(0.5)),
            Box::new(Linear::new(fc, classes)),
        ],
        &[3, 32, 32],
        rng,
    )
}

/// A small multi-layer perceptron for unit and integration tests.
pub fn tiny_mlp(input: usize, hidden: usize, classes: usize, rng: &mut SeedRng) -> Model {
    Model::new(
        vec![
            Box::new(Linear::new(input, hidden)),
            Box::new(Relu::new()),
            Box::new(Linear::new(hidden, classes)),
        ],
        &[input],
        rng,
    )
}

/// A small CNN (8×8 inputs) that exercises the conv/pool/dropout path
/// quickly — used by integration tests and the quickstart example.
pub fn tiny_cnn(classes: usize, rng: &mut SeedRng) -> Model {
    Model::new(
        vec![
            Box::new(Conv2d::new(3, 8, 3, 3, 1, 1)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Conv2d::new(8, 16, 3, 3, 1, 1)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(16 * 2 * 2, classes)),
        ],
        &[3, 8, 8],
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Ctx;
    use sasgd_tensor::Tensor;

    #[test]
    fn table1_param_count_matches_paper() {
        let m = cifar_cnn(&mut SeedRng::new(1));
        assert_eq!(m.param_len(), CIFAR_CNN_PARAMS);
        // "The number of parameters is about 0.5 million" — §II.
        assert!((m.param_len() as f64 - 0.5e6).abs() / 0.5e6 < 0.02);
    }

    #[test]
    fn table1_shapes_flow_to_fc_128() {
        let m = cifar_cnn(&mut SeedRng::new(2));
        let s = m.summary();
        assert!(
            s.contains("[128, 1, 1]"),
            "final feature map must be 128×1×1:\n{s}"
        );
        assert!(s.contains("[10]"), "10 output classes:\n{s}");
    }

    #[test]
    fn table2_param_count_matches_paper() {
        let m = nlc_net(20, &mut SeedRng::new(3));
        assert_eq!(m.param_len(), NLC_NET_PARAMS);
        // "about 2 million in the NLC-F network" — §II.
        assert!((m.param_len() as f64 - 2.0e6).abs() / 2.0e6 < 0.2);
    }

    #[test]
    fn table2_forward_shapes() {
        let mut m = nlc_net(20, &mut SeedRng::new(4));
        let x = Tensor::zeros(&[2, 20, 100]);
        let logits = m.forward(x, &mut Ctx::eval());
        assert_eq!(logits.dims(), &[2, 311]);
    }

    #[test]
    fn scaled_cifar_is_smaller_but_same_topology() {
        let full = cifar_cnn_scaled(1, &mut SeedRng::new(5));
        let quarter = cifar_cnn_scaled(4, &mut SeedRng::new(5));
        assert!(quarter.param_len() < full.param_len() / 8);
        assert_eq!(quarter.num_layers(), full.num_layers());
        // Forward still works end to end.
        let mut q = quarter;
        let logits = q.forward(Tensor::zeros(&[1, 3, 32, 32]), &mut Ctx::eval());
        assert_eq!(logits.dims(), &[1, 10]);
    }

    #[test]
    fn cifar_macs_dominated_by_conv() {
        let m = cifar_cnn(&mut SeedRng::new(6));
        // conv1 alone: 32*32*64*75 = 4.9M MACs; total should be far above
        // the fc layer's 1,280.
        assert!(m.macs_per_sample() > 10_000_000);
    }

    #[test]
    fn tiny_models_forward() {
        let mut mlp = tiny_mlp(6, 5, 4, &mut SeedRng::new(7));
        assert_eq!(
            mlp.forward(Tensor::zeros(&[3, 6]), &mut Ctx::eval()).dims(),
            &[3, 4]
        );
        let mut cnn = tiny_cnn(5, &mut SeedRng::new(8));
        assert_eq!(
            cnn.forward(Tensor::zeros(&[2, 3, 8, 8]), &mut Ctx::eval())
                .dims(),
            &[2, 5]
        );
    }

    #[test]
    #[should_panic(expected = "divisor must divide")]
    fn bad_divisor_rejected() {
        cifar_cnn_scaled(3, &mut SeedRng::new(9));
    }

    #[test]
    fn alexnet_builder_forwards() {
        let mut m = alexnet_32(8, 10, &mut SeedRng::new(1));
        let logits = m.forward(Tensor::zeros(&[1, 3, 32, 32]), &mut Ctx::eval());
        assert_eq!(logits.dims(), &[1, 10]);
        assert!(m.param_len() > 10_000, "deeper net, real parameter count");
        let s = m.summary();
        assert!(s.contains("LocalResponseNorm"));
        assert!(s.contains("AvgPool2d"));
    }
}
