//! Time-ordered event queue with deterministic tie-breaking.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled event.
#[derive(Debug, Clone)]
struct Entry<P> {
    time: f64,
    seq: u64,
    payload: P,
}

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<P> Eq for Entry<P> {}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Min-queue of `(time, payload)` events.
///
/// Events at equal times pop in **insertion order** (FIFO), which makes
/// every simulation in the workspace deterministic — a requirement both
/// for reproducible experiments and for the adaptive adversaries of
/// Lemma 1/Lemma 2, whose constructions reason about the exact order in
/// which the algorithm observes events.
#[derive(Debug)]
pub(crate) struct EventQueue<P> {
    heap: BinaryHeap<Reverse<Entry<P>>>,
    seq: u64,
}

impl<P> EventQueue<P> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `payload` at `time`. Panics on NaN times (programming
    /// error — the model never produces them).
    pub fn push(&mut self, time: f64, payload: P) {
        assert!(!time.is_nan(), "event time is NaN");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pops the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, P)> {
        let Reverse(entry) = self.heap.pop()?;
        Some((entry.time, entry.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(5.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn peek_time_sees_min() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(7.0, ());
        q.push(2.0, ());
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn interleaving_preserves_fifo_within_time() {
        let mut q = EventQueue::new();
        q.push(1.0, "first@1");
        q.push(0.5, "only@0.5");
        q.push(1.0, "second@1");
        assert_eq!(q.pop().unwrap().1, "only@0.5");
        assert_eq!(q.pop().unwrap().1, "first@1");
        assert_eq!(q.pop().unwrap().1, "second@1");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }
}
