//! A counting global allocator for the `hotpath` target: wraps the system
//! allocator and keeps running totals of heap operations, so the harness
//! can report per-step steady-state allocation counts, plus the bytes live
//! on the heap and their high-water mark, so it can report what a run
//! holds at its peak.
//!
//! The `repro` binary installs [`CountingAllocator`] as its
//! `#[global_allocator]`; library tests run without it, in which case the
//! counters simply never move (the harness reports zeros and skips ratio
//! claims).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `bytes` more are live: raise the high-water mark to the new level.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// `bytes` fewer are live.
fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// System allocator plus relaxed atomic counters. Counting is on every
/// path (alloc, zeroed, realloc) so `Vec` growth is visible; `dealloc` and
/// `realloc` give back what they release, so the live count is exact.
pub struct CountingAllocator;

// SAFETY: every method forwards verbatim to the `System` allocator after
// bumping relaxed counters; `GlobalAlloc`'s contract is upheld exactly as
// `System` upholds it (no layout is altered, no pointer is fabricated).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (valid layout).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: same layout the caller handed us, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: same layout the caller handed us, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (`ptr` from
    // this allocator with `layout`, `new_size` nonzero and in range).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => shrink(layout.size() - new_size),
        }
        // SAFETY: `ptr` came from `System` (all our paths forward to it),
        // with the same `layout`; arguments pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` via this wrapper with
        // this exact `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Zero both counters and restart the high-water mark from the bytes
/// live now.
pub fn reset() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Heap operations since the last [`reset`].
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested since the last [`reset`].
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Bytes live on the heap now.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Whether the counting allocator is actually installed in this binary
/// (true when a fresh allocation moves the counter).
pub fn counting() -> bool {
    let before = allocs();
    let v = std::hint::black_box(vec![0u8; 1024]);
    drop(v);
    allocs() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_reset_and_report() {
        reset();
        assert_eq!(allocs(), 0);
        assert_eq!(bytes(), 0);
        // Not installed as the test harness's global allocator, so the
        // probe must answer consistently rather than panic.
        let _ = counting();
    }
}
