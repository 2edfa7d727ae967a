//! Deterministic discrete-event machinery.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time in seconds. A newtype keeps simulated seconds from being
/// confused with wall-clock measurements in the benches.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd, Default)]
pub struct VirtualTime(pub f64);

impl VirtualTime {
    /// Zero time.
    pub fn zero() -> Self {
        VirtualTime(0.0)
    }

    /// Advance by `dt` seconds.
    #[must_use]
    pub fn plus(self, dt: f64) -> Self {
        VirtualTime(self.0 + dt)
    }

    /// Seconds since time zero.
    pub fn seconds(self) -> f64 {
        self.0
    }
}

struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, seq): earlier time first, FIFO on ties.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A priority queue of timestamped events with deterministic FIFO
/// tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `payload` at `time`.
    ///
    /// # Panics
    /// Panics on NaN times (they would corrupt the heap order).
    pub fn push(&mut self, time: VirtualTime, payload: T) {
        assert!(!time.0.is_nan(), "NaN event time");
        self.heap.push(Entry {
            time: time.0,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, T)> {
        self.heap.pop().map(|e| (VirtualTime(e.time), e.payload))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| VirtualTime(e.time))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(3.0), "c");
        q.push(VirtualTime(1.0), "a");
        q.push(VirtualTime(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(1.0), 1);
        q.push(VirtualTime(1.0), 2);
        q.push(VirtualTime(1.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(5.0), ());
        q.push(VirtualTime(4.0), ());
        assert_eq!(q.peek_time(), Some(VirtualTime(4.0)));
        assert_eq!(q.len(), 2);
        let (t, ()) = q.pop().expect("event");
        assert_eq!(t, VirtualTime(4.0));
    }

    #[test]
    fn virtual_time_arithmetic() {
        let t = VirtualTime::zero().plus(1.5).plus(0.25);
        assert!((t.seconds() - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN event time")]
    fn nan_time_rejected() {
        EventQueue::new().push(VirtualTime(f64::NAN), ());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(VirtualTime(1.0), 1);
        q.push(VirtualTime(10.0), 10);
        assert_eq!(q.pop().map(|(_, p)| p), Some(1));
        q.push(VirtualTime(5.0), 5);
        assert_eq!(q.pop().map(|(_, p)| p), Some(5));
        assert_eq!(q.pop().map(|(_, p)| p), Some(10));
        assert!(q.is_empty());
    }
}
