//! Deterministic intra-op parallelism.
//!
//! Every multi-threaded kernel in this crate routes through the helpers
//! here, which guarantee one property: **work item `i` is always work item
//! `i`**, no matter how many threads execute it. Kernels split only across
//! independent outputs (rows, images, planes) and never change the
//! accumulation order *within* an output element, so the parallel kernels
//! are bitwise-identical to the serial ones — the determinism contract the
//! SASGD backends rely on (simulated and threaded runs must produce the
//! same parameters bit for bit).
//!
//! Compiled without the `parallel` feature, the helpers degrade to plain
//! serial loops and [`configure_threads`] becomes a no-op, so call sites
//! are written once.
//!
//! ## Composing learner and intra-op threads
//!
//! With `p` real learner threads (see `sasgd-core::engine`) each kernel
//! call still fans out over the global pool, so the machine runs up to
//! `p × k` threads when `configure_threads(k)` was requested. Oversubscribing
//! is safe (determinism never depends on the thread count); for throughput
//! pick `k ≈ cores / p` — `intra_op_threads_for(p)` computes exactly that.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Last value passed to [`configure_threads`] (0 = never configured).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// Regions that genuinely fanned out over the rayon pool (as opposed to
/// falling through to the serial loop). The bench harness reads this to
/// *prove* intra-op threads engaged instead of silently serializing on a
/// small pool or a small input.
static PAR_REGIONS: AtomicU64 = AtomicU64::new(0);

/// Parallel regions actually executed on the pool since the last reset.
pub fn par_regions_taken() -> u64 {
    PAR_REGIONS.load(Ordering::Relaxed)
}

/// Zero the [`par_regions_taken`] counter (bench-leg isolation).
pub fn reset_par_regions() {
    PAR_REGIONS.store(0, Ordering::Relaxed);
}

/// Whether this build carries the multi-threaded kernels.
pub const fn parallel_enabled() -> bool {
    cfg!(feature = "parallel")
}

/// Size the global intra-op pool: `n` worker threads, `0` = one per
/// available core. Callable repeatedly; later calls win. Without the
/// `parallel` feature this only records the request.
pub fn configure_threads(n: usize) {
    REQUESTED.store(n, Ordering::Relaxed);
    #[cfg(feature = "parallel")]
    {
        // The vendored rayon allows reconfiguring the global pool.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }
}

/// Threads a parallel region will use (always 1 without the feature).
pub fn threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        rayon::current_num_threads()
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

/// Intra-op thread count that fills the machine under `p` learner threads:
/// `max(1, available_cores / p)`.
pub fn intra_op_threads_for(p: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / p.max(1)).max(1)
}

/// Size the pool for `p` concurrent learner threads — each kernel call
/// gets `cores / p` workers so the machine runs ~`p × k = cores` threads —
/// unless the user already pinned a count via [`configure_threads`]
/// (an explicit request always wins). The threaded SASGD backends call
/// this once per run with their learner count.
pub fn auto_configure_for_learners(p: usize) {
    if requested_threads() != 0 {
        return;
    }
    #[cfg(feature = "parallel")]
    {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(intra_op_threads_for(p))
            .build_global();
    }
    #[cfg(not(feature = "parallel"))]
    let _ = p;
}

/// What was last requested via [`configure_threads`] (0 = automatic).
pub fn requested_threads() -> usize {
    REQUESTED.load(Ordering::Relaxed)
}

/// Run `op(i, chunk_i)` for every `chunk_size`-sized chunk of `data`
/// (last chunk may be shorter). Chunk `i` always covers
/// `data[i*chunk_size .. min((i+1)*chunk_size, len)]`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_size: usize, op: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // A 1-thread pool (or a single chunk) gains nothing from rayon but
    // still pays its per-call job allocations; the serial loop visits the
    // identical chunks in the identical order, so outputs are bitwise the
    // same either way.
    #[cfg(feature = "parallel")]
    if threads() > 1 && data.len() > chunk_size {
        use rayon::prelude::*;
        PAR_REGIONS.fetch_add(1, Ordering::Relaxed);
        data.par_chunks_mut(chunk_size)
            .enumerate()
            .for_each(|(i, chunk)| op(i, chunk));
        return;
    }
    for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
        op(i, chunk);
    }
}

/// Lock-step variant of [`for_each_chunk_mut`] over two slices: runs
/// `op(i, a_chunk_i, b_chunk_i)` where the chunks tile `a` and `b` with
/// sizes `chunk_a` and `chunk_b` respectively.
pub fn for_each_zip_chunks_mut<T, U, F>(
    a: &mut [T],
    chunk_a: usize,
    b: &mut [U],
    chunk_b: usize,
    op: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    #[cfg(feature = "parallel")]
    if threads() > 1 && a.len() > chunk_a {
        use rayon::prelude::*;
        PAR_REGIONS.fetch_add(1, Ordering::Relaxed);
        a.par_chunks_mut(chunk_a)
            .zip(b.par_chunks_mut(chunk_b))
            .enumerate()
            .for_each(|(i, (ca, cb))| op(i, ca, cb));
        return;
    }
    for (i, (ca, cb)) in a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate() {
        op(i, ca, cb);
    }
}

/// Evaluate `f(0..n)` in parallel, returning results in index order.
pub fn map_collect<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    #[cfg(feature = "parallel")]
    if threads() > 1 && n > 1 {
        use rayon::prelude::*;
        PAR_REGIONS.fetch_add(1, Ordering::Relaxed);
        return (0..n).into_par_iter().map(f).collect();
    }
    (0..n).map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_index_mapping_is_stable() {
        let mut data = vec![0usize; 23];
        for_each_chunk_mut(&mut data, 5, |i, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = i * 5 + j;
            }
        });
        assert_eq!(data, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn zip_chunks_pair_up() {
        let mut a = vec![0u32; 9];
        let mut b = vec![0u32; 6];
        for_each_zip_chunks_mut(&mut a, 3, &mut b, 2, |i, ca, cb| {
            ca.iter_mut().for_each(|x| *x = i as u32);
            cb.iter_mut().for_each(|x| *x = 10 + i as u32);
        });
        assert_eq!(a, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(b, vec![10, 10, 11, 11, 12, 12]);
    }

    #[test]
    fn map_collect_is_ordered() {
        let out = map_collect(17, |i| i * 3);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn intra_op_threads_compose_with_learners() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(intra_op_threads_for(1), cores);
        assert_eq!(intra_op_threads_for(cores * 2), 1);
        assert!(intra_op_threads_for(2) >= 1);
    }

    #[test]
    fn configure_records_request() {
        configure_threads(3);
        assert_eq!(requested_threads(), 3);
        assert!(threads() >= 1);
        configure_threads(0);
    }
}
