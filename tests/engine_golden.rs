//! Golden-parameter regression tests for the execution engine.
//!
//! These checksums were generated from the pre-engine algorithm
//! implementations (PR 1 numerics). The unified execution engine must
//! reproduce every algorithm's `History::final_params` element-for-element,
//! so each case pins an FNV-1a hash over the exact bit patterns of the
//! final parameter vector, plus the first few raw bit patterns for
//! debuggability when a mismatch happens.
//!
//! To regenerate after an *intentional* numerics change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -q --test engine_golden -- --nocapture
//! ```

use sasgd::core::{train, Algorithm, Compression, GammaP, KSchedule, TSchedule, TrainConfig};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::models;
use sasgd::tensor::SeedRng;

/// FNV-1a over the little-endian bit patterns of the parameter vector.
fn checksum(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in params {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Golden {
    name: &'static str,
    algo: Algorithm,
    /// FNV-1a checksum of `final_params` bit patterns.
    hash: u64,
    /// Bit patterns of the first four parameters.
    head: [u32; 4],
}

fn run_case(algo: &Algorithm) -> Vec<f32> {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let cfg = TrainConfig::new(2, 8, 0.05, 42);
    let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
    let h = train(&mut factory, &train_set, &test_set, algo, &cfg);
    h.final_params
        .unwrap_or_else(|| panic!("{} must report final_params", algo.label()))
}

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            name: "sequential",
            algo: Algorithm::Sequential,
            hash: 0x30de_bab9_e597_608f,
            head: [0xbd5869a1, 0xbca6c58f, 0x3d722864, 0x3dea8c67],
        },
        Golden {
            name: "sasgd_p4_t2",
            algo: Algorithm::sasgd(4, 2, GammaP::OverP),
            hash: 0xae37_8f2c_1b9a_b357,
            head: [0xbd89768f, 0xbd090af7, 0x3d45c332, 0x3ddd0f3a],
        },
        // The codec rows were re-pinned when the error-feedback residual
        // moved into the accumulator: a round's input is `(r + g₁) + g₂`
        // where it was `(g₁ + g₂) + r`, float association. The largest
        // relative change of any parameter was 3.9e-6 (top-k) and 7.8e-6
        // (8-bit); word 1 of top-k and word 0 of 8-bit move one ULP.
        Golden {
            name: "sasgd_p2_t2_topk25",
            algo: Algorithm::sasgd_compressed(2, 2, GammaP::OverP, Compression::topk(0.25)),
            hash: 0xf3de_561e_92b2_69b4,
            head: [0xbd80551d, 0xbcea33eb, 0x3d54e1f0, 0x3de00d6f],
        },
        Golden {
            name: "sasgd_p2_t2_8bit",
            algo: Algorithm::sasgd_compressed(2, 2, GammaP::OverP, Compression::Uniform8Bit),
            hash: 0x6811_5b54_1e4f_f56a,
            head: [0xbd801e89, 0xbce70075, 0x3d5aae27, 0x3de30b8a],
        },
        Golden {
            name: "hier_2x2_tl2_tg2",
            algo: Algorithm::HierarchicalSasgd {
                groups: 2,
                per_group: 2,
                t_local: 2,
                t_global: 2,
                gamma_p: GammaP::OverP,
            },
            hash: 0x4e38_60ea_2b69_3f9b,
            head: [0xbd8748b5, 0xbcff1477, 0x3d4b8d82, 0x3ddc02e6],
        },
        // The parameter-server rows were re-pinned when the simulator
        // moved them onto the rank loop and a sequenced wire: the server
        // applies updates in the virtual-time order their messages arrive
        // in (was: one atomic pull-and-push per block completion), and each
        // learner stops after its own share of the sample budget (was: the
        // run stopped once all learners together had drawn it).
        Golden {
            name: "downpour_p3_t2",
            algo: Algorithm::Downpour {
                p: 3,
                t: 2,
                staleness_gamma: false,
            },
            hash: 0x5559_8e60_b441_6a19,
            head: [0xbd6ae62e, 0xbca5dda6, 0x3d7828e1, 0x3de8d590],
        },
        Golden {
            name: "eamsgd_p2_t2",
            algo: Algorithm::Eamsgd {
                p: 2,
                t: 2,
                moving_rate: None,
                momentum: 0.9,
                staleness_gamma: false,
            },
            hash: 0x4598_c268_ec87_920f,
            head: [0xbd34ebf8, 0x3b7e5a14, 0x3d96e715, 0x3df40efe],
        },
        // Re-pinned when one-shot averaging became SASGD's run-long
        // interval: `x0 − γ/p·Σ gs` in place of the replicas' mean. Word 0
        // moves one ULP (0xbd863c75 → 0xbd863c76), float association.
        Golden {
            name: "modelavg_p3",
            algo: Algorithm::model_average_once(3),
            hash: 0x7bb2_a90b_ed3a_1657,
            head: [0xbd863c76, 0xbd01cb0d, 0x3d4ae1d4, 0x3de05949],
        },
        // The averaging lattice: DaSGD's delayed landing and Local SGD's
        // adaptive interval. Both were pinned when they became SASGD
        // configurations (stepping on summed gradients and averaging
        // replicas differ by float association), on a walk of `T`-step
        // blocks that ran each block to its end. The adaptive row was
        // re-pinned once when every run became an epoch walk: its last
        // block, grown to `T = 4`, had run past the two-epoch budget (nine
        // steps of six, 288 samples of 192); the delayed row's blocks
        // ended on the budget and held.
        Golden {
            name: "dasgd_p4_t2",
            algo: Algorithm::Sasgd {
                p: 4,
                schedule: TSchedule::Fixed { t: 2 },
                gamma_p: GammaP::OverP,
                compression: None,
                delayed: true,
            },
            hash: 0x70b4_840b_e7ca_5850,
            head: [0xbd8930d2, 0xbd07f677, 0x3d446b35, 0x3ddd33de],
        },
        Golden {
            name: "localsgd_p4_adaptive",
            algo: Algorithm::Sasgd {
                p: 4,
                schedule: TSchedule::AdaptivePlateau {
                    t0: 1,
                    t_max: 4,
                    patience: 1,
                    rel_improve: 0.2,
                },
                gamma_p: GammaP::OverP,
                compression: None,
                delayed: false,
            },
            hash: 0xda6b_2762_e394_867d,
            head: [0xbd8a3395, 0xbd079e33, 0x3d45b509, 0x3ddaf3a9],
        },
    ]
}

fn check(cases: Vec<Golden>, run: impl Fn(&Algorithm) -> Vec<f32>) {
    let print = std::env::var("GOLDEN_PRINT").is_ok();
    for g in cases {
        let params = run(&g.algo);
        let hash = checksum(&params);
        let head: Vec<u32> = params.iter().take(4).map(|v| v.to_bits()).collect();
        if print {
            println!(
                "GOLDEN {} hash: 0x{hash:016x}, head: [0x{:08x}, 0x{:08x}, 0x{:08x}, 0x{:08x}],",
                g.name, head[0], head[1], head[2], head[3]
            );
            continue;
        }
        assert_eq!(
            hash, g.hash,
            "{}: final_params checksum drifted (head bits {head:08x?}, \
             expected {:08x?})",
            g.name, g.head
        );
        for (i, (&got, &want)) in head.iter().zip(&g.head).enumerate() {
            assert_eq!(got, want, "{}: param[{i}] bits drifted", g.name);
        }
    }
}

#[test]
fn final_params_match_pre_engine_goldens() {
    check(goldens(), run_case);
}

/// Sequential SGD over 100 samples at batch 8: 13 steps per epoch, the last
/// a batch of 4. A lone learner has no peer to align with, so its lockstep
/// epoch walks the ragged tail that bulk-synchronous epochs drop. Pinned
/// from the dedicated sequential loop, before sequential SGD became SASGD's
/// `p = 1`, `T = 1`, `γp = γ` point.
#[test]
fn a_lone_learner_walks_the_ragged_tail() {
    let ragged = vec![Golden {
        name: "sequential_n100",
        algo: Algorithm::Sequential,
        hash: 0x5321_665f_efb0_ed5b,
        head: [0xbd56be37, 0xbc8fbb6b, 0x3d85de54, 0x3de95884],
    }];
    check(ragged, |algo| {
        let (train_set, test_set) = generate(&CifarLikeConfig::tiny(100, 24, 3));
        let cfg = TrainConfig::new(2, 8, 0.05, 42);
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = train(&mut factory, &train_set, &test_set, algo, &cfg);
        h.final_params.expect("final_params")
    });
}

/// SASGD at `T = 1`: every step is a round, so the round works on the
/// model's gradient arena alone — no pre-interval copy, no accumulator.
/// Pinned before that round existed, from the `x`/`gs` round it replaced;
/// the codec rows held when the arena became the error-feedback
/// accumulator, since backward onto it is bitwise residual + gradient.
fn t1_goldens() -> Vec<Golden> {
    let layer_wise_top1 = Compression::Sparse {
        k: KSchedule::layer_wise(0.01),
        q8: false,
        union_bound: false,
    };
    vec![
        Golden {
            name: "sasgd_p2_t1",
            algo: Algorithm::sasgd(2, 1, GammaP::OverP),
            hash: 0xed4e_659c_7014_c64c,
            head: [0xbd7edf03, 0xbce51fd9, 0x3d58b1c6, 0x3de33aaf],
        },
        Golden {
            name: "sasgd_p3_t1",
            algo: Algorithm::sasgd(3, 1, GammaP::OverP),
            hash: 0x03e2_6791_d937_2f0b,
            head: [0xbd86454f, 0xbd04633e, 0x3d4a27af, 0x3ddfa2f2],
        },
        Golden {
            name: "sasgd_p2_t1_8bit",
            algo: Algorithm::sasgd_compressed(2, 1, GammaP::OverP, Compression::Uniform8Bit),
            hash: 0xbdfc_de82_1b09_e450,
            head: [0xbd7ee773, 0xbce55f5d, 0x3d58b882, 0x3de3375d],
        },
        Golden {
            name: "sasgd_p2_t1_layerwise1",
            algo: Algorithm::sasgd_compressed(2, 1, GammaP::OverP, layer_wise_top1),
            hash: 0xbb22_088b_38ad_01c7,
            head: [0xbd8a1e7f, 0xbd0c6587, 0x3d36ed30, 0x3dd83f06],
        },
    ]
}

#[test]
fn t1_final_params_are_pinned() {
    check(t1_goldens(), run_case);
}
