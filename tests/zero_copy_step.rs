//! Allocation guard for the training step: on the threaded backend a
//! steady-state step — and the aggregation round that follows it — must
//! not allocate anything the size of the model.
//!
//! The guard runs each algorithm for `E` and for `2E` epochs and charges
//! the difference in allocated bytes to the extra rank-steps, so set-up,
//! arena warm-up and teardown cancel and what is left is the step, its
//! round, and the per-epoch evaluation amortised over the epoch's steps.
//! The bound is `m` bytes per rank-step, a quarter of one `f32` parameter
//! vector: gathering the gradient, stepping through a copy of the
//! parameters, or cloning a buffer inside the allreduce each cost several
//! whole vectors per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sasgd::core::{
    Algorithm, Backend, Compression, Executor, GammaP, KSchedule, TSchedule, TrainConfig,
};
use sasgd::data::nlc_like::{generate, NlcLikeConfig};
use sasgd::nn::models;
use sasgd::simnet::JitterModel;
use sasgd::tensor::SeedRng;

static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every byte requested.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` after
// bumping a relaxed counter, so `GlobalAlloc`'s contract holds exactly as
// `System` upholds it.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with this
        // `layout`; all three arguments pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this wrapper
        // with this exact `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test, so nothing else in this binary allocates while it counts.
#[test]
fn a_steady_state_step_and_round_allocate_no_model_sized_buffer() {
    // The NLC network's shape at an eighth of its size, batch 1: 64
    // sentences an epoch are 64 steps at p = 1 and 32 per rank at p = 2.
    let (n, epochs) = (64usize, 1usize);
    let (train, test) = generate(&NlcLikeConfig::tiny(n, 8, 16));
    let factory = || models::nlc_net_custom(8, 12, 32, 320, 640, 16, &mut SeedRng::new(7));
    let m = factory().param_len() as u64;
    assert!(m >= 200_000, "m = {m}");

    let allocated = |algo: &Algorithm, epochs: usize| {
        let mut cfg = TrainConfig::new(epochs, 1, 0.01, 42);
        cfg.jitter = JitterModel::none();
        cfg.eval_cap = 4;
        let before = BYTES.load(Ordering::Relaxed);
        let history = Executor::new(Backend::Threaded)
            .try_run(&factory, &train, &test, algo, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", algo.label()));
        let bytes = BYTES.load(Ordering::Relaxed) - before;
        assert_eq!(history.records.len(), epochs, "{}", algo.label());
        bytes
    };
    let layer_wise_1pct = Compression::Sparse {
        k: KSchedule::layer_wise(0.01),
        q8: false,
        union_bound: false,
    };
    for algo in [
        Algorithm::Sequential,
        Algorithm::sasgd(2, 1, GammaP::OverP),
        Algorithm::sasgd_compressed(2, 1, GammaP::OverP, layer_wise_1pct),
        // The delayed round rotates `gs`, the pending total and the snapshot.
        Algorithm::Sasgd {
            p: 2,
            schedule: TSchedule::Fixed { t: 1 },
            gamma_p: GammaP::OverP,
            compression: None,
            delayed: true,
        },
    ] {
        let (short, long) = (allocated(&algo, epochs), allocated(&algo, 2 * epochs));
        // Batch 1: every sample of the extra epochs is one rank-step.
        let per_step = long.saturating_sub(short) / (epochs * n) as u64;
        assert!(
            per_step < m,
            "{}: {per_step} bytes allocated per steady-state rank-step, m = {m} \
             ({short} bytes over {epochs} epoch(s), {long} over {})",
            algo.label(),
            2 * epochs
        );
    }
}
