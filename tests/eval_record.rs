//! Every field of a per-epoch evaluation record, pinned: the train and test
//! loss and accuracy, the gradient-norm estimate, the epoch, the sample
//! count and both clocks of one CNN record and one NLC record, on both
//! engine backends — except the threaded backend's clocks, which are wall
//! time there. The evaluation has more than the two train batches the
//! gradient-norm estimate takes, so the record draws on both kinds of
//! train pass.
//!
//! To print the records after an *intentional* numerics change:
//!
//! ```text
//! RECORD_PRINT=1 cargo test -q --test eval_record -- --nocapture
//! ```

use sasgd::core::{Algorithm, Backend, EpochRecord, Executor, GammaP, TrainConfig};
use sasgd::data::cifar_like::{self, CifarLikeConfig};
use sasgd::data::nlc_like::{self, NlcLikeConfig};
use sasgd::data::Dataset;
use sasgd::nn::{models, Model};
use sasgd::tensor::SeedRng;

/// The record's fields as bit patterns, in declaration order.
fn fields(r: &EpochRecord) -> [u64; 9] {
    [
        r.epoch.to_bits(),
        u64::from(r.train_loss.to_bits()),
        u64::from(r.train_acc.to_bits()),
        u64::from(r.test_loss.to_bits()),
        u64::from(r.test_acc.to_bits()),
        r.compute_seconds.to_bits(),
        r.comm_seconds.to_bits(),
        r.samples,
        u64::from(r.grad_norm.to_bits()),
    ]
}

/// The last record of a one-epoch run of `algo` on `backend`; 160 train
/// samples evaluate as batches of 64, 64 and 32.
fn last_record(
    backend: Backend,
    factory: &(dyn Fn() -> Model + Sync),
    (train, test): &(Dataset, Dataset),
    algo: &Algorithm,
) -> EpochRecord {
    let cfg = TrainConfig::new(1, 16, 0.05, 42);
    let history = Executor::new(backend).run(factory, train, test, algo, &cfg);
    history.records.last().expect("a record per epoch").clone()
}

/// Indices of the two clocks in [`fields`].
const CLOCKS: [usize; 2] = [5, 6];

fn check(backend: Backend, name: &str, got: &EpochRecord, want: [u64; 9]) {
    let name = format!("{name} on {backend:?}");
    let mut got_bits = fields(got);
    if std::env::var_os("RECORD_PRINT").is_some() {
        println!("{name}: {got_bits:#x?}");
        return;
    }
    if backend == Backend::Threaded {
        for (i, secs) in CLOCKS
            .into_iter()
            .zip([got.compute_seconds, got.comm_seconds])
        {
            assert!(
                secs.is_finite() && secs >= 0.0,
                "{name}: clock {i} = {secs}"
            );
            got_bits[i] = want[i];
        }
    }
    assert_eq!(got_bits, want, "{name}: {got:?}");
}

#[test]
fn a_cnn_record_and_an_nlc_record_are_pinned_on_both_backends() {
    let cnn_data = cifar_like::generate(&CifarLikeConfig::scaled(160, 24));
    let cnn = || models::cifar_cnn_scaled(8, &mut SeedRng::new(7));
    let nlc_data = nlc_like::generate(&NlcLikeConfig::tiny(160, 24, 5));
    let nlc = || models::nlc_net_custom(8, 12, 24, 32, 32, 5, &mut SeedRng::new(9));
    for backend in [Backend::Simulated, Backend::Threaded] {
        let r = last_record(backend, &cnn, &cnn_data, &Algorithm::Sequential);
        check(backend, "cnn", &r, CNN);
        let sasgd = Algorithm::sasgd(2, 2, GammaP::OverP);
        let r = last_record(backend, &nlc, &nlc_data, &sasgd);
        check(backend, "nlc", &r, NLC);
    }
}

/// `cifar_cnn_scaled(8)`, sequential, on the simulated backend.
const CNN: [u64; 9] = [
    0x3ff0000000000000,
    0x40138f1f,
    0x3dcccccd,
    0x40139076,
    0x3daaaaab,
    0x3faf6b0e30455197,
    0x0,
    0xa0,
    0x3dca53dd,
];

/// A small NLC net, SASGD with `p = 2`, `T = 2`, on the simulated backend.
/// Its communication clock is read off the messages rank 0 sends and
/// receives: the `x0` broadcast's one hop `L`, then per round
/// `max(c₀, c₁ + L) + L − c₀` — rank 1's partial arrives one hop after
/// rank 1 reaches the round, the total leaves one hop later. Under the
/// default jitter rank 0 is sometimes the later of the two, and then it
/// does not wait out rank 1's hop; the barrier-then-`2L` charge this
/// replaced read `0x3f5294368d9bd316`.
const NLC: [u64; 9] = [
    0x3ff0000000000000,
    0x3fce0fe9,
    0x3e6ccccd,
    0x3fce12ae,
    0x3e800000,
    0x3f9edd940a7d6d67,
    0x3f4e66adaee1cd98,
    0xa0,
    0x3db3d1c7,
];
