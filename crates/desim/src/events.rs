//! Future-event sets. Both pop in `(time, sequence)` order, the sequence
//! number being drawn when an event is scheduled, so simultaneous
//! events fire in the order they were scheduled and a run is an exact
//! function of its seed.
//!
//! * [`SlotSet`] is the open-loop engine's. The model of the paper's
//!   Fig. 1 never has more than `2n + 1` events pending — per class the
//!   next arrival and the completion of the request in service, plus
//!   the control tick — so each gets a fixed slot and the earliest is
//!   found by scanning them: no allocation, no sift, and a rescheduled
//!   completion overwrites the one it made stale instead of queueing
//!   beside it. The engine decides what each slot means, and keeps the
//!   task-server epoch of a completion in the slot's tag.
//! * [`EventQueue`] is a binary min-heap. `run_sessions` keeps it: its
//!   pending events are one think timer per *user* (`n_users`, hundreds
//!   in the closed-loop studies), which has no fixed shape to give
//!   slots to and is past the size where a scan beats a heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A future-event set of fixed slots, each holding at most one pending
/// event — its time, its sequence number and a word of the caller's —
/// or time `+∞` when empty.
#[derive(Debug)]
pub struct SlotSet {
    time: Vec<f64>,
    seq: Vec<u64>,
    tag: Vec<u64>,
    next_seq: u64,
}

impl SlotSet {
    /// `n` empty slots.
    pub fn new(n: usize) -> Self {
        Self { time: vec![f64::INFINITY; n], seq: vec![0; n], tag: vec![0; n], next_seq: 0 }
    }

    /// Schedule `slot`'s event at `time`, replacing the one it held.
    pub fn arm(&mut self, slot: usize, time: f64, tag: u64) {
        debug_assert!(time.is_finite(), "event scheduled at non-finite time {time}");
        self.time[slot] = time;
        self.seq[slot] = self.next_seq;
        self.tag[slot] = tag;
        self.next_seq += 1;
    }

    /// Empty the slot whose event is earliest, ties by scheduling
    /// order, and return its time, index and tag — or `None` once that
    /// event is past the horizon `end`, as it is when all are empty.
    pub fn pop(&mut self, end: f64) -> Option<(f64, usize, u64)> {
        let (mut slot, mut time, mut seq) = (0, f64::INFINITY, u64::MAX);
        for (i, (&t, &s)) in self.time.iter().zip(&self.seq).enumerate() {
            if t < time || (t == time && s < seq) {
                (slot, time, seq) = (i, t, s);
            }
        }
        (time <= end).then(|| {
            self.time[slot] = f64::INFINITY;
            (time, slot, self.tag[slot])
        })
    }
}

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

    /// The slot set pops exactly what the heap pops, ties included, on
    /// a schedule shaped like the engine's: every slot re-armed as it
    /// fires, times on a coarse grid so that they collide.
    #[test]
    fn slot_set_pops_in_heap_order() {
        let (mut slots, mut heap) = (SlotSet::new(7), EventQueue::new());
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut gap = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 61) as f64
        };
        for slot in 0..7 {
            let t = gap();
            slots.arm(slot, t, 0);
            heap.schedule(t, (slot, 0));
        }
        for tag in 1..=2_000 {
            let (now, slot, was) = slots.pop(f64::MAX).unwrap();
            assert_eq!(heap.pop(), Some((now, (slot, was))));
            let t = now + gap();
            slots.arm(slot, t, tag);
            heap.schedule(t, (slot, tag));
        }
    }

    #[test]
    fn rearmed_slot_replaces_what_it_held() {
        let mut s = SlotSet::new(3);
        s.arm(2, 9.0, 1);
        s.arm(2, 3.0, 2);
        assert_eq!(s.pop(2.5), None, "nothing is due by 2.5");
        assert_eq!(s.pop(3.0), Some((3.0, 2, 2)));
        assert_eq!(s.pop(f64::MAX), None, "a popped slot is empty and the set never grew");
    }
}
