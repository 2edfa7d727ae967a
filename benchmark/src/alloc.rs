//! A counting global allocator for the traced run's `core.allocs_per_step`
//! and `core.alloc_mb_per_step`. Counters are per thread, so a rank reads
//! its own heap traffic without the other rank's; counting is off unless a
//! traced run turns it on, so timed runs pay one relaxed load per call.
//!
//! Also the one allocator setting the benchmark fixes: see
//! [`recycle_large_blocks`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers a dtor.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub struct CountingAllocator;

fn note(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // `try_with` because a thread may free memory while its TLS is
        // being torn down; those calls go uncounted.
        let _ = COUNTS.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + bytes as u64));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(heap calls, bytes requested)` by the calling thread while counting
/// was on.
pub fn thread_counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

/// Tell glibc's malloc to keep large blocks in user space and in one place:
/// serve requests up to 32 MiB from the heap, never trim it, grow it
/// 128 MiB at a time, and use a single arena for all threads.
///
/// By default every multi-megabyte vector the NLC workloads allocate per
/// step (13 MiB of them) is an `mmap`/page-fault/`munmap` round trip, 19 %
/// of their CPU time in the kernel. Under a hypervisor that cost swung
/// +-15 % from one unit to the next, wider than any bound this
/// benchmark could set; with the blocks recycled the same code runs ~30 %
/// faster and within +-4 % (alternating runs, same minutes). And how many
/// arenas the learner threads of successive runs end up with is a race,
/// which moved `peak_rss_mb` by +-10 %; with one arena it repeats within
/// 1 %. The setting is the same for every commit measured, and
/// `core.alloc_mb_per_step` still shows the allocation volume a change
/// removes. The lock all threads now share is taken ~60 times per step.
pub fn recycle_large_blocks() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes two integers and stores them in malloc's
        // own parameter block under its lock; no pointer crosses the call.
        // It runs first thing in `main`, before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 128 << 20);
            mallopt(M_ARENA_MAX, 1);
        }
    }
}
