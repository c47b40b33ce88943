//! The pending-event set: a binary heap keyed by [`EventKey`], the one
//! queue the engine uses.

use crate::event::{Event, EventKey};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Binary-heap backed event queue, popping events in [`EventKey`] order.
pub struct HeapQueue<P> {
    heap: BinaryHeap<Reverse<Event<P>>>,
}

impl<P> HeapQueue<P> {
    /// Create an empty queue.
    pub fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new() }
    }

    /// Create an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue { heap: BinaryHeap::with_capacity(cap) }
    }

    /// Insert an event.
    pub fn push(&mut self, ev: Event<P>) {
        self.heap.push(Reverse(ev));
    }

    /// Remove and return the minimum event, if any.
    pub fn pop(&mut self) -> Option<Event<P>> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Key of the minimum event without removing it.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(ev)| ev.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Iterate over pending events in **arbitrary** (heap-internal) order.
    /// Snapshot code sorts by [`EventKey`] afterwards to get a
    /// deterministic serialization.
    pub fn iter(&self) -> impl Iterator<Item = &Event<P>> {
        self.heap.iter().map(|Reverse(ev)| ev)
    }
}

impl<P> Default for HeapQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LpId;
    use crate::time::SimTime;

    fn ev(t: u64, seq: u64) -> Event<u64> {
        Event { key: EventKey { time: SimTime(t), dst: LpId(0), src: LpId(0), seq }, payload: t }
    }

    #[test]
    fn heap_orders_events() {
        let mut q = HeapQueue::new();
        for t in [5u64, 1, 9, 3, 7] {
            q.push(ev(t, t));
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn heap_peek_matches_pop() {
        let mut q = HeapQueue::new();
        q.push(ev(4, 0));
        q.push(ev(2, 0));
        assert_eq!(q.peek_key().unwrap().time, SimTime(2));
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn duplicate_timestamps_emerge_in_seq_order() {
        let mut q = HeapQueue::new();
        for seq in (0..64u64).rev() {
            q.push(ev(1000, seq));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.key.seq).collect();
        assert_eq!(seqs, (0..64).collect::<Vec<_>>());
        assert!(q.is_empty());
    }
}
