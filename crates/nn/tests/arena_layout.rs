//! The flat layout is a format: checkpoints, the goldens and every
//! cross-backend comparison depend on which scalar sits where and on the
//! order initial values are drawn in. The checksums below were taken from
//! `param_vector()` while each layer still owned its own tensors.

use sasgd_nn::{models, Model};
use sasgd_tensor::SeedRng;

/// FNV-1a over the bit patterns.
fn checksum(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn initial_values_and_flat_layout_are_what_per_layer_storage_produced() {
    let rng = || SeedRng::new(0x5A56D);
    type Pinned = (&'static str, Model, u64, Vec<(usize, usize)>);
    let pinned: [Pinned; 3] = [
        (
            "tiny_cnn",
            models::tiny_cnn(3, &mut rng()),
            0xec1d_d980_33aa_b30d,
            vec![(0, 224), (224, 1392), (1392, 1587)],
        ),
        (
            "cifar_cnn_scaled(2)",
            models::cifar_cnn_scaled(2, &mut rng()),
            0x1112_67b8_e553_ec5f,
            vec![
                (0, 2432),
                (2432, 20928),
                (20928, 94784),
                (94784, 127616),
                (127616, 128266),
            ],
        ),
        (
            "nlc_net(20)",
            models::nlc_net(20, &mut rng()),
            0x3e3b_57dc_a3e2_397e,
            vec![
                (0, 20200),
                (20200, 421200),
                (421200, 1422200),
                (1422200, 1733511),
            ],
        ),
    ];
    for (name, model, sum, blocks) in pinned {
        assert_eq!(checksum(model.params()), sum, "{name}: initial values");
        assert_eq!(model.params(), &model.param_vector()[..], "{name}");
        assert_eq!(model.param_blocks(), blocks, "{name}: layout");
        // The blocks tile 0..m: nothing between them, nothing after.
        let mut at = 0;
        for (start, end) in model.param_blocks() {
            assert_eq!(start, at, "{name}: gap before {start}");
            at = end;
        }
        assert_eq!(at, model.param_len(), "{name}");
        assert_eq!(model.grads().len(), model.param_len(), "{name}");
        assert!(model.grads().iter().all(|g| g.to_bits() == 0), "{name}");
    }
}
