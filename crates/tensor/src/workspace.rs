//! Reusable scratch-buffer arenas for the compute hot path.
//!
//! Every training step needs the same family of short-lived buffers —
//! conv patch matrices, layer activations and gradients, pooling index
//! maps. Allocating them fresh each step makes the threaded backend
//! measure allocator churn as much as math, so a [`Workspace`] keeps the
//! freed buffers on per-type free lists and hands them back on the next
//! request.
//!
//! ## Determinism contract
//!
//! Buffer *reuse* must be invisible in the numbers. [`Workspace::take_f32`]
//! therefore always returns a zero-filled buffer — bitwise identical to a
//! fresh `vec![0.0; n]` — and [`Workspace::take_f32_uninit`] (whose
//! contents are arbitrary leftovers) is reserved for outputs where the
//! kernel provably writes every element before anyone reads it. Nothing
//! about the arena changes what values are computed, only where they live.

/// A scratch-buffer pool. Buffers are checked out with `take_*`, returned
/// with `give_*` / [`recycle`](Workspace::recycle), and retain their heap
/// capacity across steps so a steady-state training loop stops allocating.
#[derive(Debug, Default)]
pub struct Workspace {
    f32_free: Vec<Vec<f32>>,
    u32_free: Vec<Vec<u32>>,
}

/// Pop the best-fitting free buffer: the smallest capacity ≥ `len`, or the
/// largest available one (which then grows in place at most once).
fn pop_best<T>(free: &mut Vec<Vec<T>>, len: usize) -> Option<Vec<T>> {
    let mut best: Option<usize> = None;
    for (i, buf) in free.iter().enumerate() {
        let cap = buf.capacity();
        best = Some(match best {
            None => i,
            Some(j) => {
                let bc = free[j].capacity();
                // If the incumbent fits, only a tighter fit beats it;
                // otherwise any larger buffer is an improvement.
                let better = if bc >= len {
                    cap >= len && cap < bc
                } else {
                    cap > bc
                };
                if better {
                    i
                } else {
                    j
                }
            }
        });
    }
    best.map(|i| free.swap_remove(i))
}

impl Workspace {
    /// An empty workspace (no buffers held; nothing allocated yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled `f32` buffer of exactly `len` elements — bitwise
    /// identical to `vec![0.0f32; len]`, but reusing pooled capacity.
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_f32_uninit(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// An `f32` buffer of `len` elements whose contents are **arbitrary**
    /// (stale values from earlier checkouts). Only for outputs where the
    /// caller writes every element before any read.
    pub fn take_f32_uninit(&mut self, len: usize) -> Vec<f32> {
        let mut buf = pop_best(&mut self.f32_free, len).unwrap_or_default();
        buf.resize(len, 0.0);
        buf
    }

    /// A zero-filled `u32` buffer of exactly `len` elements.
    pub fn take_u32(&mut self, len: usize) -> Vec<u32> {
        let mut buf = pop_best(&mut self.u32_free, len).unwrap_or_default();
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// Return an `f32` buffer to the pool.
    pub fn give_f32(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.f32_free.push(buf);
        }
    }

    /// Return a `u32` buffer to the pool.
    pub fn give_u32(&mut self, buf: Vec<u32>) {
        if buf.capacity() > 0 {
            self.u32_free.push(buf);
        }
    }

    /// Return a [`Tensor`](crate::Tensor)'s storage to the pool.
    pub fn recycle(&mut self, t: crate::Tensor) {
        self.give_f32(t.into_vec());
    }

    /// Buffers currently parked on the free lists.
    pub fn pooled(&self) -> usize {
        self.f32_free.len() + self.u32_free.len()
    }

    /// Bytes of capacity parked on the free lists: what the arena holds
    /// between steps, once every buffer has been given back.
    pub fn held_bytes(&self) -> usize {
        let f32s: usize = self.f32_free.iter().map(Vec::capacity).sum();
        let u32s: usize = self.u32_free.iter().map(Vec::capacity).sum();
        4 * (f32s + u32s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_after_reuse() {
        let mut ws = Workspace::new();
        let mut a = ws.take_f32(8);
        a.iter_mut().for_each(|v| *v = 3.5);
        let cap = a.capacity();
        ws.give_f32(a);
        let b = ws.take_f32(4);
        assert_eq!(b, vec![0.0; 4]);
        assert_eq!(b.capacity(), cap, "capacity reused, not reallocated");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let small = Vec::with_capacity(10);
        let big = Vec::with_capacity(100);
        ws.give_f32(small);
        ws.give_f32(big);
        let got = ws.take_f32(8);
        assert_eq!(got.capacity(), 10);
        ws.give_f32(got);
        let got = ws.take_f32(50);
        assert_eq!(got.capacity(), 100);
    }

    #[test]
    fn grows_largest_when_nothing_fits() {
        let mut ws = Workspace::new();
        ws.give_f32(Vec::with_capacity(4));
        ws.give_f32(Vec::with_capacity(16));
        let got = ws.take_f32(32);
        assert_eq!(got.len(), 32);
        assert_eq!(ws.pooled(), 1, "the small buffer stays pooled");
    }

    #[test]
    fn u32_pool_round_trips() {
        let mut ws = Workspace::new();
        let mut a = ws.take_u32(6);
        a[0] = 7;
        ws.give_u32(a);
        let b = ws.take_u32(6);
        assert_eq!(b, vec![0; 6]);
    }

    #[test]
    fn held_bytes_sums_pooled_capacity() {
        let mut ws = Workspace::new();
        assert_eq!(ws.held_bytes(), 0);
        ws.give_f32(Vec::with_capacity(10));
        ws.give_u32(Vec::with_capacity(6));
        assert_eq!(ws.held_bytes(), 64);
        let out = ws.take_f32(8);
        assert_eq!(ws.held_bytes(), 24, "a checked-out buffer is not held");
        ws.give_f32(out);
        assert_eq!(ws.held_bytes(), 64);
    }

    #[test]
    fn recycle_accepts_tensors() {
        let mut ws = Workspace::new();
        let t = crate::Tensor::zeros(&[2, 3]);
        ws.recycle(t);
        assert_eq!(ws.pooled(), 1);
    }
}
