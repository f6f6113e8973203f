//! The future-event heap of the closed-loop simulator. It pops in
//! `(time, sequence)` order, the sequence number being drawn when an
//! event is scheduled, so simultaneous events fire in the order they
//! were scheduled and a run is an exact function of its seed.
//!
//! Only [`run_sessions`](crate::run_sessions) uses it. The open-loop
//! engine has no event set at all: its classes are independent between
//! control instants, so `Simulation::run` advances them one at a time
//! through each window (see `engine.rs`). A session's users are not
//! independent in that way — a user thinks, then visits a class chosen
//! by a Markov chain, so a departure from one class is what schedules
//! an arrival at another, at any instant — and their think timers (one
//! per user, hundreds in the closed-loop studies) have no fixed shape
//! to hold in a few scalars. That is a heap's job.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct Entry<T> {
    time: f64,
    seq: u64,
    event: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; tie-break on sequence for determinism.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic future-event heap over any event payload type.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn schedule(&mut self, time: f64, event: T) {
        debug_assert!(time.is_finite(), "event scheduled at non-finite time {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Time of the earliest pending event.
    #[cfg_attr(not(test), allow(dead_code))] // introspection used by tests
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Event {
        Arrival { class: usize },
        Control,
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, Event::Control);
        q.schedule(1.0, Event::Arrival { class: 0 });
        q.schedule(2.0, Event::Arrival { class: 1 });
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, Event::Arrival { class: 7 });
        q.schedule(5.0, Event::Arrival { class: 8 });
        q.schedule(5.0, Event::Control);
        assert_eq!(q.pop().unwrap().1, Event::Arrival { class: 7 });
        assert_eq!(q.pop().unwrap().1, Event::Arrival { class: 8 });
        assert_eq!(q.pop().unwrap().1, Event::Control);
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.schedule(1.5, Event::Control);
        assert_eq!(q.peek_time(), Some(1.5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
