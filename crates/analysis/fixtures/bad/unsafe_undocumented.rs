// virtual-path: crates/bench/src/alloc.rs
// BAD: the file is on the unsafe allow-list, but the block below has no
// `// SAFETY:` comment within the 4 lines above it.

use std::alloc::{GlobalAlloc, Layout, System};

pub fn grab(layout: Layout) -> *mut u8 {
    let out;
    {
        let l = layout;

        out = unsafe { System.alloc(l) };
    }
    out
}
