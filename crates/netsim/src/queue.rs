//! The engine's event queue: [`EventHeap`], a keyed binary heap behind the
//! [`EventQueue`] trait. Events dispatch in ascending `(time, seq)` order,
//! where `seq` is the engine's monotone scheduling counter. Nothing is ever
//! cancelled here: flow deadlines live beside the queue in the engine's own
//! deadline index. A heap of whole events stays in this module's tests as
//! the reference the keyed heap must match pop for pop.

use crate::time::SimTime;
use std::{cmp::Reverse, collections::BinaryHeap};

/// A scheduled event: an opaque payload plus its dispatch key.
///
/// Ordering ignores the payload: events are totally ordered by
/// `(time, seq)`, and `seq` is unique, so ties are impossible and FIFO
/// order within one instant is exactly scheduling order.
#[derive(Debug)]
pub struct Event<K> {
    /// Dispatch instant.
    pub time: SimTime,
    /// Monotone scheduling sequence number (the FIFO tiebreaker).
    pub seq: u64,
    /// Engine-defined payload.
    pub kind: K,
}

impl<K> Event<K> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<K> Eq for Event<K> {}
impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Event<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A priority queue of engine events ordered by `(time, seq)`.
///
/// Contract shared by every implementation (the keyed heap and the
/// reference heap are checked against each other operation by operation):
///
/// * `pop` returns events in strictly ascending `(time, seq)` order;
/// * `len` counts pushed, not yet popped events;
/// * `next_key` is the key `pop` returns next.
pub trait EventQueue<K>: Send {
    /// Inserts an event. `time` must be `>=` the time of the last popped
    /// event (the engine clamps to `now` when scheduling).
    fn push(&mut self, ev: Event<K>);
    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<Event<K>>;
    /// The `(time, seq)` of the earliest event, which `pop` returns next.
    fn next_key(&self) -> Option<(SimTime, u64)>;
    /// Number of queued events.
    fn len(&self) -> usize;
    /// `true` when no events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A binary min-heap of `(time, seq, slot)` keys over a slab of payloads:
/// a sift moves 24-byte keys, never a payload, and a popped slot goes on a
/// free list for the next `push`. `(time, seq)` is unique, so the slot never
/// decides an order.
pub struct EventHeap<K> {
    /// Min-heap of the queued events' keys.
    keys: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<K>>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
}

/// The engine queue under the name `ledger/src/layers.rs` imports it by,
/// for its `netsim.queue_ns` row; the next ledger-only change drops it.
pub type TimingWheel<K> = EventHeap<K>;

impl<K> EventHeap<K> {
    /// An empty queue.
    pub fn new() -> Self {
        EventHeap {
            keys: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K> Default for EventHeap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Send> EventQueue<K> for EventHeap<K> {
    // detlint: hot
    fn push(&mut self, ev: Event<K>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(ev.kind);
                slot
            }
            None => {
                self.slab.push(Some(ev.kind));
                self.slab.len() - 1
            }
        };
        self.keys.push(Reverse((ev.time, ev.seq, slot)));
    }

    // detlint: hot
    fn pop(&mut self) -> Option<Event<K>> {
        let Reverse((time, seq, slot)) = self.keys.pop()?;
        let kind = self.slab[slot].take()?;
        self.free.push(slot);
        Some(Event { time, seq, kind })
    }

    // detlint: hot
    fn next_key(&self) -> Option<(SimTime, u64)> {
        self.keys.peek().map(|&Reverse((time, seq, _))| (time, seq))
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference implementation: a min-heap of whole events, ordered by
    /// `Event`'s own `(time, seq)` order.
    struct HeapQueue<K> {
        heap: BinaryHeap<Reverse<Event<K>>>,
    }

    impl<K> HeapQueue<K> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
            }
        }
    }

    impl<K: Send> EventQueue<K> for HeapQueue<K> {
        fn push(&mut self, ev: Event<K>) {
            self.heap.push(Reverse(ev));
        }

        fn pop(&mut self) -> Option<Event<K>> {
            self.heap.pop().map(|Reverse(ev)| ev)
        }

        fn next_key(&self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|Reverse(ev)| ev.key())
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn ev(us: u64, seq: u64) -> Event<u64> {
        Event {
            time: SimTime::from_micros(us),
            seq,
            kind: seq,
        }
    }

    /// An event's key, after checking that its payload came back with it.
    fn key(e: Event<u64>) -> (u64, u64) {
        assert_eq!(e.kind, e.seq, "payload travelled with another key");
        (e.time.as_micros(), e.seq)
    }

    fn both() -> [Box<dyn EventQueue<u64>>; 2] {
        [Box::new(HeapQueue::new()), Box::new(EventHeap::new())]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving the engine can produce — pushes never earlier
        /// than the last popped event — pops the same sequence from the
        /// keyed heap as from the reference, with the same head key and
        /// length after every step, and pops free slots for later pushes.
        #[test]
        fn keyed_heap_matches_reference_under_random_interleavings(
            ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..400),
        ) {
            let mut reference = HeapQueue::new();
            let mut keyed = EventHeap::new();
            let mut now = 0u64; // time of the last popped event
            let (mut queued, mut peak) = (0usize, 0usize);
            for (seq, &(op, raw)) in ops.iter().enumerate() {
                let seq = seq as u64;
                match op {
                    0..=4 => {
                        let delay = match raw % 4 {
                            0 => 0,                                   // same instant
                            1 => (raw >> 2) % 1_000,                  // sub-millisecond
                            2 => (raw >> 2) % 1_000_000,              // within a second
                            _ => 1_000_000 + (raw >> 2) % 30_000_000, // 1–31 s timeouts
                        };
                        reference.push(ev(now + delay, seq));
                        keyed.push(ev(now + delay, seq));
                        queued += 1;
                        peak = peak.max(queued);
                    }
                    5..=7 => {
                        let (r, k) = (reference.pop().map(key), keyed.pop().map(key));
                        prop_assert_eq!(k, r);
                        if let Some((t, _)) = r {
                            now = t;
                            queued -= 1;
                        }
                    }
                    _ => {} // a step that only peeks
                }
                prop_assert_eq!(keyed.next_key(), reference.next_key());
                prop_assert_eq!(keyed.len(), reference.len());
                prop_assert_eq!(keyed.len(), queued);
                // A freed slot is reused before the slab grows, so the slab
                // is exactly as long as the most events ever queued at once.
                prop_assert_eq!(keyed.slab.len(), peak);
            }
            let drain_r: Vec<_> = std::iter::from_fn(|| reference.pop().map(key)).collect();
            let drain_k: Vec<_> = std::iter::from_fn(|| keyed.pop().map(key)).collect();
            prop_assert_eq!(drain_k.len(), queued);
            prop_assert_eq!(drain_k, drain_r);
            prop_assert!(keyed.is_empty());
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // A denser schedule than the property draws: 1 000 events over 9 s,
        // half of them popped, then pushes at-or-after the last popped time
        // (as the engine does) into the freed slots, ties included.
        let mut us = 7u64;
        let script: Vec<u64> = (0..1_000u64)
            .map(|seq| {
                us = us.wrapping_mul(6364136223846793005).wrapping_add(seq);
                (us >> 33) % 9_000_000
            })
            .collect();
        let [mut reference, mut keyed] = both();
        for (seq, &t) in script.iter().enumerate() {
            keyed.push(ev(t, seq as u64));
            reference.push(ev(t, seq as u64));
        }
        let mut resume = 0;
        for _ in 0..500 {
            let (r, k) = (reference.pop().map(key), keyed.pop().map(key));
            assert_eq!(k, r);
            resume = r.map_or(resume, |(t, _)| t);
        }
        for (i, &dt) in script[..200].iter().enumerate() {
            let t = resume + dt % 2_048; // the same instant and just beyond
            keyed.push(ev(t, 10_000 + i as u64));
            reference.push(ev(t, 10_000 + i as u64));
        }
        let drain_r: Vec<_> = std::iter::from_fn(|| reference.pop().map(key)).collect();
        let drain_k: Vec<_> = std::iter::from_fn(|| keyed.pop().map(key)).collect();
        assert_eq!(drain_k, drain_r);
    }

    #[test]
    fn empty_queue_reports_empty() {
        for mut q in both() {
            assert!(q.is_empty());
            assert_eq!(q.next_key(), None);
            assert!(q.pop().is_none());
        }
    }
}
