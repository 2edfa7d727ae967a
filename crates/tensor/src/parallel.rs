//! Deterministic intra-op fork-join.
//!
//! Every multi-threaded kernel in this crate routes through the four
//! helpers here, which guarantee one property: **work item `i` is always
//! work item `i`**, no matter how many threads execute it. Kernels split
//! only across independent outputs (rows, images, planes) and never change
//! the accumulation order *within* an output element, so a kernel gives the
//! same bits at any width — the determinism contract the SASGD backends rely
//! on (simulated and threaded runs must produce the same parameters bit for
//! bit).
//!
//! A region is a `std::thread::scope`: the chunks are cut into one
//! contiguous block per worker with `split_at_mut`, the caller spawns
//! `k − 1` scoped threads and runs the first block itself. There is no pool
//! object and no `unsafe`; a scoped spawn and join costs about 20 µs per
//! spawned thread, which [`workers`] weighs against the work it is handed.
//!
//! ## Width belongs to the calling thread
//!
//! How many workers a region may use is a property of the *thread* that
//! enters it, set for a scope with [`with_width`] by whoever knows how many
//! compute threads share the machine. A thread nobody sized has width 1 and
//! runs the plain serial loops; so do the workers of a region, so regions
//! never nest. The engine sizes its own threads: the threaded backend gives
//! each of its `p` rank threads (and `s` server shards) [`width_for`]`(p, s)`,
//! the simulated backend — one OS thread for every learner — takes the whole
//! [`budget`], a sweep divides its budget among its workers. The one setting
//! is the process-wide cap, [`configure_threads`]; everything else follows
//! from it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The cap on compute threads in this process, as last passed to
/// [`configure_threads`] (0 = one per available core).
static CAP: AtomicUsize = AtomicUsize::new(0);

/// Regions that genuinely fanned out (as opposed to running the serial
/// loop). The bench harness and the tests read this to *prove* intra-op
/// threads engaged instead of silently serializing on a small width or a
/// small input. A statistic: it publishes no other data.
static REGIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's width; 0 = nobody sized it.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Work below which a worker's block is not worth a spawn, in units of one
/// `f32` streamed through memory (≈ 0.4 ns). 256 Ki units are ≈ 100 µs of
/// kernel time against the ≈ 20 µs each spawn and join costs: a ReLU over
/// 18 432 activations or a 32×64×10 linear stays serial (fanned out they
/// measured 3–6× *slower*), and so does a 262 144-element pooling pass
/// (0.10 → 0.16 ms in two blocks); a 1 Mi-element one splits (0.40 →
/// 0.22 ms).
const GRAIN: usize = 1 << 18;

/// Multiply–adds of a blocked GEMM per unit of work: the compacting
/// kernel retires 10–24 G of them a second, an element-wise pass streams
/// about 2.5 G elements. (A GEMV against a large weight is memory-bound
/// and costs a unit per multiply–add; at this weight it stays serial until
/// its weight passes 4 Mi elements.)
pub const MACS_PER_UNIT: usize = 8;

/// Regions that fanned out since the last [`reset_regions`].
pub fn regions_taken() -> u64 {
    REGIONS.load(Ordering::Relaxed)
}

/// Zero the [`regions_taken`] counter (bench-leg isolation).
pub fn reset_regions() {
    REGIONS.store(0, Ordering::Relaxed);
}

/// Cap the compute threads of this process: `n` threads, `0` = one per
/// available core. Callable repeatedly; later calls win. Scopes opened
/// afterwards divide the new cap; kernels never read it directly.
pub fn configure_threads(n: usize) {
    CAP.store(n, Ordering::Relaxed);
}

/// The cap resolved to a count: what [`configure_threads`] set, or the
/// number of available cores.
pub fn cap() -> usize {
    match CAP.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Workers a region entered on this thread may use: the width of the
/// enclosing [`with_width`] scope, 1 on a thread nobody sized.
pub fn width() -> usize {
    WIDTH.get().max(1)
}

/// Compute threads this thread may hand out: its scoped width if it has
/// one, the process [`cap`] otherwise. What a run divides among the
/// threads it starts.
pub fn budget() -> usize {
    match WIDTH.get() {
        0 => cap(),
        w => w,
    }
}

/// Width for each of `p` learner threads running beside `shards` server
/// threads: `max(1, budget / (p + shards))`.
pub fn width_for(p: usize, shards: usize) -> usize {
    (budget() / (p + shards).max(1)).max(1)
}

/// Run `f` with this thread's width set to `n` (at least 1), restoring the
/// previous width afterwards — also when `f` panics.
pub fn with_width<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.set(self.0);
        }
    }
    let _restore = Restore(WIDTH.replace(n.max(1)));
    f()
}

/// The grain rule, in one place: how many workers a region of `chunks`
/// independent chunks and `work` total units (elements moved, or
/// multiply–adds over [`MACS_PER_UNIT`]) gets on this thread — no more than
/// the width, one chunk each at least, and 2¹⁸ units (`GRAIN`) each at
/// least.
pub fn workers(chunks: usize, work: usize) -> usize {
    let w = WIDTH.get();
    if w < 2 {
        return 1;
    }
    w.min(chunks).min(work / GRAIN).max(1)
}

/// Units per block when `units` rows (or elements) of `work` total units
/// are cut into one block per worker: what a kernel that wants whole bands
/// rather than per-chunk calls passes as its chunk size.
pub fn block_len(units: usize, work: usize) -> usize {
    units.div_ceil(workers(units, work)).max(1)
}

/// Run `op(i, chunk_i)` for every `chunk_size`-sized chunk of `data` (last
/// chunk may be shorter). Chunk `i` always covers
/// `data[i*chunk_size .. min((i+1)*chunk_size, len)]`. `work` is the
/// region's total cost for the grain rule ([`workers`]).
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_size: usize, work: usize, op: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let mut none: [(); 0] = [];
    for_each_zip_chunks_mut(data, chunk_size, &mut none, 1, work, |i, chunk, _| {
        op(i, chunk)
    });
}

/// Lock-step variant of [`for_each_chunk_mut`] over two slices: runs
/// `op(i, a_chunk_i, b_chunk_i)` where the chunks tile `a` and `b` with
/// sizes `chunk_a` and `chunk_b` respectively (`b` may run out first: its
/// missing chunks are empty).
pub fn for_each_zip_chunks_mut<T, U, F>(
    a: &mut [T],
    chunk_a: usize,
    b: &mut [U],
    chunk_b: usize,
    work: usize,
    op: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    let chunks = a.len().div_ceil(chunk_a);
    let k = workers(chunks, work);
    // Chunks `first..` of one worker's block, in order.
    let run = |first: usize, ablk: &mut [T], bblk: &mut [U]| {
        let mut bs = bblk.chunks_mut(chunk_b);
        for (i, ca) in ablk.chunks_mut(chunk_a).enumerate() {
            op(first + i, ca, bs.next().unwrap_or_default());
        }
    };
    if k < 2 {
        return run(0, a, b);
    }
    REGIONS.fetch_add(1, Ordering::Relaxed);
    std::thread::scope(|scope| {
        let run = &run;
        // Worker `j` takes chunks `j·chunks/k .. (j+1)·chunks/k`: static,
        // contiguous, and within one chunk of even.
        let (mut rest_a, mut rest_b, mut first) = (a, b, 0);
        let mut mine = None;
        for j in 0..k {
            let n = (j + 1) * chunks / k - first;
            let la = (n * chunk_a).min(rest_a.len());
            let lb = (n * chunk_b).min(rest_b.len());
            let (ablk, bblk);
            (ablk, rest_a) = std::mem::take(&mut rest_a).split_at_mut(la);
            (bblk, rest_b) = std::mem::take(&mut rest_b).split_at_mut(lb);
            if j == 0 {
                mine = Some((ablk, bblk));
            } else {
                scope.spawn(move || run(first, ablk, bblk));
            }
            first += n;
        }
        let (ablk, bblk) = mine.expect("k >= 2 blocks");
        // The caller is a worker too: a region entered from its block
        // runs serially, as it does on the spawned threads.
        with_width(1, || run(0, ablk, bblk));
    });
}

/// Where [`for_each_item_mut`] sends item `i`'s partial result.
pub enum Partial<'a, L, P> {
    /// `i` is on the caller's block, whose items come first and run in
    /// order: fold the partial into the accumulator now.
    Lead(&'a mut L),
    /// `i` is on a later worker: leave the partial in this slot, for the
    /// caller to fold in item order after the region.
    Park(&'a mut [P]),
}

/// Items on the caller's block of a [`for_each_item_mut`] region over `n`
/// items and `work` units: the items whose partials fold straight into
/// `lead`. The rest need one `park` slot each.
pub fn lead_items(n: usize, work: usize) -> usize {
    n / workers(n, work)
}

/// One region over items `0..n` whose workers each own scratch: runs
/// `op(i, out_i, scratch_w, partial_i)` for every item, where `out` is cut
/// into `n` equal chunks (all empty if `out` is), `scratch` into one equal
/// slice per worker ([`workers`]`(n, work)` of them — the caller sizes it
/// so), and `partial_i` is [`Partial::Lead`] for the caller's
/// [`lead_items`] and [`Partial::Park`] — `park` cut into one equal slot
/// per remaining item — for the rest. Each worker takes a contiguous block
/// of items in order, as [`for_each_zip_chunks_mut`] does.
pub fn for_each_item_mut<T, S, L, F>(
    n: usize,
    work: usize,
    out: &mut [T],
    scratch: &mut [S],
    lead: &mut L,
    park: &mut [S],
    op: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut [S], Partial<'_, L, S>) + Sync,
{
    let k = workers(n, work);
    let lead_n = n / k;
    let out_len = out.len().checked_div(n).unwrap_or(0);
    let park_len = park.len().checked_div(n - lead_n).unwrap_or(0);
    let (mine_o, mut rest_o) = out.split_at_mut(lead_n * out_len);
    let own = scratch.len() / k;
    let (mine_s, mut rest_s) = scratch.split_at_mut(own);
    // The caller's block: items `0..lead_n`, folding as they go.
    let mut lead_block = || {
        for i in 0..lead_n {
            let o = &mut mine_o[i * out_len..(i + 1) * out_len];
            op(i, o, &mut *mine_s, Partial::Lead(&mut *lead));
        }
    };
    if k < 2 {
        return lead_block();
    }
    REGIONS.fetch_add(1, Ordering::Relaxed);
    std::thread::scope(|scope| {
        let op = &op;
        let (mut rest_p, mut first) = (park, lead_n);
        for j in 1..k {
            let count = (j + 1) * n / k - first;
            let (oblk, sblk, pblk);
            (oblk, rest_o) = std::mem::take(&mut rest_o).split_at_mut(count * out_len);
            (sblk, rest_s) = std::mem::take(&mut rest_s).split_at_mut(own);
            (pblk, rest_p) = std::mem::take(&mut rest_p).split_at_mut(count * park_len);
            scope.spawn(move || {
                for i in 0..count {
                    let o = &mut oblk[i * out_len..(i + 1) * out_len];
                    let slot = &mut pblk[i * park_len..(i + 1) * park_len];
                    op(first + i, o, &mut *sblk, Partial::Park(slot));
                }
            });
            first += count;
        }
        // The caller is a worker too: a region entered from its block
        // runs serially, as it does on the spawned threads.
        with_width(1, lead_block);
    });
}

/// Evaluate `f(0..n)`, returning results in index order; `work` as in
/// [`for_each_chunk_mut`].
pub fn map_collect<T, F>(n: usize, work: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for_each_chunk_mut(&mut out, 1, work, |i, slot| slot[0] = Some(f(i)));
    out.into_iter()
        .map(|v| v.expect("every index was evaluated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enough work that the grain rule never vetoes a test region.
    const BIG: usize = 64 * GRAIN;

    #[test]
    fn chunk_index_mapping_is_stable() {
        for width in [1, 2, 3, 8] {
            let mut data = vec![0usize; 23];
            with_width(width, || {
                for_each_chunk_mut(&mut data, 5, BIG, |i, chunk| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = i * 5 + j;
                    }
                });
            });
            assert_eq!(data, (0..23).collect::<Vec<_>>(), "width {width}");
        }
    }

    #[test]
    fn zip_chunks_pair_up() {
        for width in [1, 2, 3] {
            let mut a = vec![0u32; 9];
            let mut b = vec![0u32; 6];
            with_width(width, || {
                for_each_zip_chunks_mut(&mut a, 3, &mut b, 2, BIG, |i, ca, cb| {
                    ca.iter_mut().for_each(|x| *x = i as u32);
                    cb.iter_mut().for_each(|x| *x = 10 + i as u32);
                });
            });
            assert_eq!(a, vec![0, 0, 0, 1, 1, 1, 2, 2, 2], "width {width}");
            assert_eq!(b, vec![10, 10, 11, 11, 12, 12], "width {width}");
        }
    }

    #[test]
    fn map_collect_is_ordered() {
        let out = with_width(3, || map_collect(17, BIG, |i| i * 3));
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn items_fold_on_the_lead_block_and_park_the_rest_in_order() {
        for width in [1, 2, 3] {
            let n = 7;
            let (lead_n, mut folded) = with_width(width, || (lead_items(n, BIG), Vec::new()));
            let mut out = vec![0usize; 2 * n];
            let mut scratch = vec![0usize; with_width(width, || workers(n, BIG))];
            let mut park = vec![usize::MAX; n - lead_n];
            with_width(width, || {
                for_each_item_mut(
                    n,
                    BIG,
                    &mut out,
                    &mut scratch,
                    &mut folded,
                    &mut park,
                    |i, o, s, partial| {
                        o.fill(i);
                        s[0] += 1; // one slice per worker, whatever its length
                        match partial {
                            Partial::Lead(acc) => acc.push(i),
                            Partial::Park(slot) => slot[0] = i,
                        }
                    },
                );
            });
            let want: Vec<usize> = (0..n).flat_map(|i| [i, i]).collect();
            assert_eq!(out, want, "width {width}");
            assert_eq!(lead_n, n / width, "width {width}");
            assert_eq!(folded, (0..lead_n).collect::<Vec<_>>(), "width {width}");
            assert_eq!(park, (lead_n..n).collect::<Vec<_>>(), "width {width}");
            assert_eq!(scratch.iter().sum::<usize>(), n, "width {width}");
        }
    }

    #[test]
    fn an_unsized_thread_reports_one_and_budgets_the_cap() {
        std::thread::spawn(|| {
            assert_eq!(width(), 1);
            assert_eq!(budget(), cap());
            assert_eq!(workers(100, BIG), 1, "nobody sized this thread");
            assert_eq!(width_for(1, 0), cap());
            assert_eq!(width_for(2, 1), (cap() / 3).max(1));
            assert_eq!(width_for(64 * cap(), 0), 1, "oversubscribed");
        })
        .join()
        .expect("probe thread");
    }

    #[test]
    fn scopes_nest_restore_and_divide() {
        with_width(6, || {
            assert_eq!((width(), budget()), (6, 6));
            assert_eq!(width_for(2, 1), 2, "a sized thread divides its own share");
            with_width(0, || assert_eq!(width(), 1, "a scope is at least 1 wide"));
            with_width(2, || assert_eq!(width(), 2));
            assert_eq!(width(), 6);
            let caught = std::panic::catch_unwind(|| with_width(3, || panic!("boom")));
            assert!(caught.is_err());
            assert_eq!(width(), 6, "restored through a panic");
        });
    }

    #[test]
    fn two_threads_each_observe_their_own_width() {
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for w in [2usize, 5] {
                let barrier = &barrier;
                s.spawn(move || {
                    with_width(w, || {
                        barrier.wait(); // both scopes are open now
                        assert_eq!(width(), w);
                        barrier.wait();
                    });
                });
            }
        });
    }

    #[test]
    fn workers_run_nested_regions_serially() {
        let mut outer = vec![0usize; 4];
        with_width(2, || {
            for_each_chunk_mut(&mut outer, 1, BIG, |_, slot| {
                // On the caller's block and on the spawned one alike.
                slot[0] = width() * 10 + workers(100, BIG);
            });
            assert_eq!(width(), 2, "the caller's width is back after its block");
        });
        assert_eq!(outer, vec![11; 4]);
    }

    #[test]
    fn grain_rule_keeps_small_regions_serial() {
        with_width(4, || {
            assert_eq!(workers(100, GRAIN), 1);
            assert_eq!(workers(100, 2 * GRAIN), 2);
            assert_eq!(workers(100, 64 * GRAIN), 4);
            assert_eq!(workers(3, 64 * GRAIN), 3, "one chunk each at most");
            assert_eq!(workers(0, 64 * GRAIN), 1);
            assert_eq!(block_len(10, 64 * GRAIN), 3);
            assert_eq!(block_len(10, 1), 10);
            assert_eq!(block_len(0, 1), 1, "a chunk size is never zero");
        });
    }
}
