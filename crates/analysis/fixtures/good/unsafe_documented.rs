// virtual-path: crates/comm/src/sparse.rs
// GOOD: allow-listed file, and every block carries a `// SAFETY:` comment.

pub fn take_uninit(len: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(len);
    // SAFETY: the caller overwrites all `len` elements before reading; the
    // capacity was just reserved above.
    unsafe { v.set_len(len) };
    v
}
