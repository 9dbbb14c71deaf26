//! The engine's event queue: a hierarchical timing wheel behind the
//! [`EventQueue`] trait.
//!
//! Events dispatch in ascending `(time, seq)` order, where `seq` is the
//! engine's monotone scheduling counter. The wheel supports O(1)
//! cancellation, which the engine uses to reap stale flow-timeout events
//! instead of no-op-dispatching them. The classic binary heap the wheel
//! replaced lives on in this module's tests as the reference
//! implementation: the two must pop identical sequences under any
//! interleaving of operations.

use crate::hash::FastSet;
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
/// * `pop` returns live events in strictly ascending `(time, seq)` order;
/// * `cancel(seq)` removes a scheduled event without dispatching it — the
///   caller guarantees the event is still in the queue and is cancelled at
///   most once;
/// * `len` counts live (pushed, not yet popped or cancelled) events, so
///   queue-depth metrics agree across implementations regardless of how
///   lazily each one reaps its tombstones;
/// * `next_time` may mutate internal structure (reaping tombstones,
///   rotating wheel slots) but never changes the observable sequence.
pub trait EventQueue<K>: Send {
    /// Inserts an event. `time` must be `>=` the time of the last popped
    /// event (the engine clamps to `now` when scheduling).
    fn push(&mut self, ev: Event<K>);
    /// Removes and returns the earliest live event.
    fn pop(&mut self) -> Option<Event<K>>;
    /// The dispatch instant of the earliest live event.
    fn next_time(&mut self) -> Option<SimTime>;
    /// Cancels the scheduled event carrying `seq` without dispatching it.
    fn cancel(&mut self, seq: u64);
    /// Number of live events.
    fn len(&self) -> usize;
    /// `true` when no live events remain.
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
    /// Live + tombstoned events currently stored in `slots`.
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
    /// Tombstoned seqs awaiting reap. Membership-checked only.
    cancelled: FastSet<u64>,
    live: usize,
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
            cancelled: FastSet::default(),
            live: 0,
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
        self.live += 1;
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
            while let Some(ev) = self.current.pop() {
                if self.cancelled.remove(&ev.seq) {
                    continue; // tombstone: already subtracted from `live`
                }
                self.live -= 1;
                return Some(ev);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn next_time(&mut self) -> Option<SimTime> {
        loop {
            while let Some(ev) = self.current.last() {
                if self.cancelled.contains(&ev.seq) {
                    if let Some(dead) = self.current.pop() {
                        self.cancelled.remove(&dead.seq);
                    }
                    continue;
                }
                return Some(ev.time);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
        self.live = self.live.saturating_sub(1);
    }

    fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    /// The reference implementation — the dispatch structure the engine ran
    /// on before the wheel: a min-heap over `(time, seq)` with lazy tombstone
    /// cancellation.
    struct HeapQueue<K> {
        heap: BinaryHeap<Reverse<Event<K>>>,
        /// Seqs cancelled but not yet reaped from the heap. Membership-checked
        /// only; iteration order never escapes.
        cancelled: HashSet<u64>,
        live: usize,
    }

    impl<K> HeapQueue<K> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                live: 0,
            }
        }
    }

    impl<K: Send> EventQueue<K> for HeapQueue<K> {
        fn push(&mut self, ev: Event<K>) {
            self.live += 1;
            self.heap.push(Reverse(ev));
        }

        fn pop(&mut self) -> Option<Event<K>> {
            while let Some(Reverse(ev)) = self.heap.pop() {
                if self.cancelled.remove(&ev.seq) {
                    continue; // tombstone: already subtracted from `live`
                }
                self.live -= 1;
                return Some(ev);
            }
            None
        }

        fn next_time(&mut self) -> Option<SimTime> {
            while let Some(Reverse(ev)) = self.heap.peek() {
                if self.cancelled.contains(&ev.seq) {
                    if let Some(Reverse(dead)) = self.heap.pop() {
                        self.cancelled.remove(&dead.seq);
                    }
                    continue;
                }
                return Some(ev.time);
            }
            None
        }

        fn cancel(&mut self, seq: u64) {
            self.cancelled.insert(seq);
            self.live = self.live.saturating_sub(1);
        }

        fn len(&self) -> usize {
            self.live
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
        /// than the last popped event, cancels only of live events, at most
        /// once — pops the same sequence from the wheel as from the heap.
        #[test]
        fn wheel_matches_heap_under_random_interleavings(
            ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..400),
        ) {
            let mut heap = HeapQueue::new();
            let mut wheel = TimingWheel::new();
            let mut now = 0u64; // time of the last popped event
            let mut live: Vec<u64> = Vec::new();
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
                        live.push(seq);
                    }
                    5..=7 => {
                        let (h, w) = (heap.pop().map(key), wheel.pop().map(key));
                        prop_assert_eq!(w, h);
                        if let Some((t, popped)) = h {
                            now = t;
                            live.retain(|&s| s != popped);
                        }
                    }
                    8 if !live.is_empty() => {
                        let victim = live.swap_remove(raw as usize % live.len());
                        heap.cancel(victim);
                        wheel.cancel(victim);
                    }
                    _ => prop_assert_eq!(wheel.next_time(), heap.next_time()),
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.len(), live.len());
            }
            let drain_h: Vec<_> = std::iter::from_fn(|| heap.pop().map(key)).collect();
            let drain_w: Vec<_> = std::iter::from_fn(|| wheel.pop().map(key)).collect();
            prop_assert_eq!(drain_w.len(), live.len());
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
    fn cancellation_removes_without_dispatch() {
        for mut q in both() {
            q.push(ev(10, 0));
            q.push(ev(20, 1));
            q.push(ev(5_000_000, 2)); // far calendar on the wheel
            assert_eq!(q.len(), 3);
            q.cancel(1);
            q.cancel(2);
            assert_eq!(q.len(), 1);
            assert_eq!(q.next_time(), Some(SimTime::from_micros(10)));
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0], "dispatched a cancelled event");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn next_time_skips_cancelled_heads() {
        for mut q in both() {
            q.push(ev(10, 0));
            q.push(ev(3_000_000, 1));
            q.cancel(0);
            // The cancelled head must not be reported (a caller pacing on
            // next_time would otherwise stop short of the real next event).
            assert_eq!(q.next_time(), Some(SimTime::from_micros(3_000_000)));
            assert_eq!(q.pop().map(|e| e.seq), Some(1));
            assert_eq!(q.next_time(), None);
        }
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
            assert_eq!(q.next_time(), None);
            assert!(q.pop().is_none());
        }
    }
}
