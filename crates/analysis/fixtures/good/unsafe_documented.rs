// virtual-path: crates/bench/src/alloc.rs
// GOOD: allow-listed file, and every block carries a `// SAFETY:` comment.

use std::alloc::{GlobalAlloc, Layout, System};

pub fn grab(layout: Layout) -> *mut u8 {
    // SAFETY: the caller's layout, forwarded to the system allocator
    // unchanged; the caller frees the block with the same layout.
    unsafe { System.alloc(layout) }
}
