//! The engine's event queue: a hierarchical timing wheel behind the
//! [`EventQueue`] trait.
//!
//! Events dispatch in ascending `(time, seq)` order, where `seq` is the
//! engine's monotone scheduling counter. Nothing is ever cancelled here:
//! flow deadlines, the one kind of timer that is mostly withdrawn before it
//! fires, live beside the wheel in the engine's own deadline index. The
//! classic binary heap the wheel replaced lives on in this module's tests
//! as the reference implementation: the two must pop identical sequences
//! under any interleaving of operations.

use crate::time::SimTime;
use std::collections::BTreeMap;

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
/// Contract shared by every implementation (the wheel and the reference
/// heap are checked against each other operation by operation):
///
/// * `pop` returns events in strictly ascending `(time, seq)` order;
/// * `len` counts pushed, not yet popped events;
/// * `next_key` may mutate internal structure (rotating wheel slots) but
///   never changes the observable sequence.
pub trait EventQueue<K>: Send {
    /// Inserts an event. `time` must be `>=` the time of the last popped
    /// event (the engine clamps to `now` when scheduling).
    fn push(&mut self, ev: Event<K>);
    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<Event<K>>;
    /// The `(time, seq)` of the earliest event, which `pop` returns next.
    fn next_key(&mut self) -> Option<(SimTime, u64)>;
    /// Number of queued events.
    fn len(&self) -> usize;
    /// `true` when no events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Width of one near-wheel slot in microseconds. 1024 µs ≈ 1 ms groups the
/// engine's sub-millisecond proc-delay cascades into one tick batch while
/// keeping same-tick ordering exact via the `(time, seq)` sort.
const SLOT_WIDTH_US: u64 = 1024;
/// Near-wheel slot count: 1024 slots × ~1 ms ≈ 1.05 s horizon, which covers
/// packet latencies and the short end of the DNS retry ladder; longer
/// timeouts land in the overflow calendar.
const SLOTS: usize = 1024;

/// A hierarchical timing wheel: a near wheel of [`SLOTS`] ring slots plus a
/// far overflow calendar (a `BTreeMap` keyed by absolute slot index).
///
/// Events in the active slot are drained as one *tick batch*: the slot's
/// vector is sorted once (descending, so pops come off the back in
/// ascending `(time, seq)` order) and events scheduled into the active
/// tick mid-drain are placed by binary insertion — they always sort after
/// everything already popped because the engine never schedules into the
/// past. Per-slot sorting is what makes the wheel's dispatch order equal
/// the heap's, byte for byte.
pub struct TimingWheel<K> {
    /// Ring of near slots; index is `absolute_slot % SLOTS`.
    slots: Vec<Vec<Event<K>>>,
    /// Events currently stored in `slots`.
    near_len: usize,
    /// Absolute index of the slot currently being drained.
    cursor: u64,
    /// One past the highest absolute slot the near wheel can hold;
    /// always `> cursor` and `<= cursor + SLOTS`.
    horizon: u64,
    /// The active tick batch, sorted descending by `(time, seq)`.
    current: Vec<Event<K>>,
    /// Far events: absolute slot index → unsorted event list.
    overflow: BTreeMap<u64, Vec<Event<K>>>,
    /// Events queued anywhere in the wheel.
    len: usize,
}

impl<K> TimingWheel<K> {
    /// An empty wheel positioned at the start of simulated time.
    pub fn new() -> Self {
        TimingWheel {
            slots: std::iter::repeat_with(Vec::new).take(SLOTS).collect(),
            near_len: 0,
            cursor: 0,
            horizon: SLOTS as u64,
            current: Vec::new(),
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    fn slot_of(time: SimTime) -> u64 {
        time.as_micros() / SLOT_WIDTH_US
    }

    /// Sorts a freshly taken slot into active-batch order (descending, so
    /// `Vec::pop` yields ascending `(time, seq)`).
    fn sort_batch(batch: &mut [Event<K>]) {
        batch.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
    }

    /// Advances the cursor to the next occupied slot and loads it into
    /// `current`. Returns `false` when the wheel is completely empty.
    fn advance(&mut self) -> bool {
        if self.near_len > 0 {
            for s in (self.cursor + 1)..self.horizon {
                let idx = (s % SLOTS as u64) as usize;
                if self.slots[idx].is_empty() {
                    continue;
                }
                self.cursor = s;
                self.current = std::mem::take(&mut self.slots[idx]);
                self.near_len -= self.current.len();
                Self::sort_batch(&mut self.current);
                return true;
            }
            // Unreachable while the `near_len` accounting holds; resync so
            // a bug degrades to the overflow path instead of a stall.
            self.near_len = 0;
        }
        // Near wheel exhausted: rotate the window to the first calendar
        // entry and migrate everything that now fits the near range.
        let Some((&first, _)) = self.overflow.iter().next() else {
            return false;
        };
        self.cursor = first;
        self.horizon = first + SLOTS as u64;
        let beyond = self.overflow.split_off(&self.horizon);
        let near = std::mem::replace(&mut self.overflow, beyond);
        for (s, evs) in near {
            if s == first {
                self.current = evs;
            } else {
                let idx = (s % SLOTS as u64) as usize;
                self.near_len += evs.len();
                self.slots[idx] = evs;
            }
        }
        Self::sort_batch(&mut self.current);
        true
    }
}

impl<K> Default for TimingWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Send> EventQueue<K> for TimingWheel<K> {
    // detlint: hot
    fn push(&mut self, ev: Event<K>) {
        self.len += 1;
        let slot = Self::slot_of(ev.time);
        if slot <= self.cursor {
            // Lands in the active tick: binary-insert into the descending
            // batch. The engine never schedules before the last popped
            // event, so the insertion point is always in the unpopped tail.
            let key = ev.key();
            let pos = self.current.partition_point(|e| e.key() > key);
            self.current.insert(pos, ev);
        } else if slot < self.horizon {
            self.slots[(slot % SLOTS as u64) as usize].push(ev);
            self.near_len += 1;
        } else {
            self.overflow.entry(slot).or_default().push(ev);
        }
    }

    // detlint: hot
    fn pop(&mut self) -> Option<Event<K>> {
        loop {
            if let Some(ev) = self.current.pop() {
                self.len -= 1;
                return Some(ev);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    // detlint: hot
    fn next_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            if let Some(ev) = self.current.last() {
                return Some(ev.key());
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference implementation — the dispatch structure the engine ran
    /// on before the wheel: a min-heap over `(time, seq)`.
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

        fn next_key(&mut self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|Reverse(ev)| ev.key())
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn ev(us: u64, seq: u64) -> Event<u32> {
        Event {
            time: SimTime::from_micros(us),
            seq,
            kind: 0,
        }
    }

    fn key(e: Event<u32>) -> (u64, u64) {
        (e.time.as_micros(), e.seq)
    }

    fn both() -> [Box<dyn EventQueue<u32>>; 2] {
        [Box::new(HeapQueue::new()), Box::new(TimingWheel::new())]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving the engine can produce — pushes never earlier
        /// than the last popped event — pops the same sequence from the
        /// wheel as from the heap.
        #[test]
        fn wheel_matches_heap_under_random_interleavings(
            ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..400),
        ) {
            let mut heap = HeapQueue::new();
            let mut wheel = TimingWheel::new();
            let mut now = 0u64; // time of the last popped event
            let mut queued = 0usize;
            for (seq, &(op, raw)) in ops.iter().enumerate() {
                let seq = seq as u64;
                match op {
                    0..=4 => {
                        let delay = match raw % 4 {
                            0 => 0,                                   // same instant
                            1 => (raw >> 2) % 2_048,                  // active or next tick
                            2 => (raw >> 2) % 1_000_000,              // near wheel
                            _ => 1_000_000 + (raw >> 2) % 30_000_000, // overflow calendar
                        };
                        heap.push(ev(now + delay, seq));
                        wheel.push(ev(now + delay, seq));
                        queued += 1;
                    }
                    5..=7 => {
                        let (h, w) = (heap.pop().map(key), wheel.pop().map(key));
                        prop_assert_eq!(w, h);
                        if let Some((t, _)) = h {
                            now = t;
                            queued -= 1;
                        }
                    }
                    _ => prop_assert_eq!(wheel.next_key(), heap.next_key()),
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.len(), queued);
            }
            let drain_h: Vec<_> = std::iter::from_fn(|| heap.pop().map(key)).collect();
            let drain_w: Vec<_> = std::iter::from_fn(|| wheel.pop().map(key)).collect();
            prop_assert_eq!(drain_w.len(), queued);
            prop_assert_eq!(drain_w, drain_h);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // A denser schedule than the property draws: 1 000 events over 9 s
        // (same-tick ties, near-wheel hits, far-calendar spills), half of
        // them popped, then pushes at-or-after the last popped time (as the
        // engine does), including into the active tick.
        let mut us = 7u64;
        let script: Vec<u64> = (0..1_000u64)
            .map(|seq| {
                us = us.wrapping_mul(6364136223846793005).wrapping_add(seq);
                (us >> 33) % 9_000_000
            })
            .collect();
        let [mut heap, mut wheel] = both();
        for (seq, &t) in script.iter().enumerate() {
            wheel.push(ev(t, seq as u64));
            heap.push(ev(t, seq as u64));
        }
        let mut resume = 0;
        for _ in 0..500 {
            let (h, w) = (heap.pop().map(key), wheel.pop().map(key));
            assert_eq!(w, h);
            resume = h.map_or(resume, |(t, _)| t);
        }
        for (i, &dt) in script[..200].iter().enumerate() {
            let t = resume + dt % 2_048; // same tick, near, and just beyond
            wheel.push(ev(t, 10_000 + i as u64));
            heap.push(ev(t, 10_000 + i as u64));
        }
        let drain_h: Vec<_> = std::iter::from_fn(|| heap.pop().map(key)).collect();
        let drain_w: Vec<_> = std::iter::from_fn(|| wheel.pop().map(key)).collect();
        assert_eq!(drain_w, drain_h);
    }

    #[test]
    fn far_calendar_rotates_through_multiple_windows() {
        let mut wheel = TimingWheel::new();
        // Three events, each beyond the previous window's horizon.
        for (i, secs) in [0u64, 3, 9].iter().enumerate() {
            wheel.push(ev(secs * 1_000_000 + 5, i as u64));
        }
        let got: Vec<_> = std::iter::from_fn(|| wheel.pop().map(key)).collect();
        assert_eq!(got, vec![(5, 0), (3_000_005, 1), (9_000_005, 2)]);
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
