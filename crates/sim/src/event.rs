//! Deterministic discrete-event queue.
//!
//! The queue orders events by [`SimTime`] and breaks ties by insertion order,
//! so a simulation that schedules the same events always executes them in the
//! same order. Engine drivers (in `aqua-engines`) queue request arrivals here;
//! an engine's in-flight step is held outside the queue, in a slot keyed by
//! a sequence number drawn from the queue's own counter
//! ([`EventQueue::take_seq`]), and the driver merges the two by comparing
//! that key against [`EventQueue::peek_key`]. Ties between a step and a
//! queued event therefore break exactly as if the step were queued.
//!
//! # Implementation
//!
//! The queue is a monotone radix heap, a calendar-queue relative of the
//! classic binary heap. Entries live in one arena and are bucketed by the
//! highest bit in which their firing time differs from the last popped
//! time, so near-future inserts are O(1) pushes into low buckets, and each
//! entry cascades through at most 64 buckets over its whole lifetime.
//! Same-time entries collect in bucket zero in seq order, which makes
//! `peek_time` O(1).
//!
//! It is *monotone-optimised*, not monotone-restricted: pushing an event
//! earlier than the last popped time falls back to an overflow min-heap on
//! `(time, seq)`, so the API stays total and such pushes and pops cost
//! O(log n). The unit tests check random push/pop
//! interleavings against a `BinaryHeap` of `(time, seq)`-ordered entries.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Number of radix buckets for `u64` nanosecond keys: one per possible
/// highest-differing-bit position.
const RADIX_BUCKETS: usize = 64;

/// A time-ordered event queue with stable FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use aqua_sim::event::EventQueue;
/// use aqua_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    radix: Radix<T>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

/// The monotone radix heap behind [`EventQueue`].
///
/// Entries live in `slots` (an arena with a free list, so `with_capacity`
/// pre-sizes every pending event exactly once); buckets and the bucket-zero
/// `front` ring hold `u32` slot indices, so redistribution moves 4-byte
/// indices, never payloads.
///
/// Invariants:
/// * `front` holds exactly the live entries whose time equals `last`, in
///   ascending `seq` order (pushes append, and `seq` is globally
///   increasing).
/// * If any bucket is non-empty, `front` is non-empty — enforced by eager
///   redistribution after every mutation — so `peek_time` is O(1).
/// * `past` holds the (in practice empty) set of entries pushed earlier
///   than `last`, as a min-heap of `(time, seq, slot)`; its members always
///   precede everything else in pop order because `last` only advances.
#[derive(Debug, Clone)]
struct Radix<T> {
    slots: Vec<Option<Entry<T>>>,
    free: Vec<u32>,
    front: VecDeque<u32>,
    buckets: Vec<Vec<u32>>,
    past: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Nanosecond timestamp the bucket indices are relative to: the time of
    /// the bucket-zero entries, which is the last popped (or redistributed)
    /// time.
    last: u64,
    len: usize,
}

impl<T> Radix<T> {
    fn new() -> Self {
        Radix {
            slots: Vec::new(),
            free: Vec::new(),
            front: VecDeque::new(),
            buckets: vec![Vec::new(); RADIX_BUCKETS],
            past: BinaryHeap::new(),
            last: 0,
            len: 0,
        }
    }

    fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.slots.reserve(capacity);
        q.free.reserve(capacity);
        q
    }

    fn reserve(&mut self, additional: usize) {
        // `free.len()` slots can be reused without growing the arena.
        let grow = additional.saturating_sub(self.free.len());
        self.slots.reserve(grow);
        self.free.reserve(grow);
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Bucket index for a time strictly after `last`: the position of the
    /// highest bit in which they differ.
    #[inline]
    fn bucket_of(last: u64, t: u64) -> usize {
        debug_assert!(t > last);
        (63 - (t ^ last).leading_zeros()) as usize
    }

    #[inline]
    fn slot_time(&self, idx: u32) -> u64 {
        self.slots[idx as usize]
            .as_ref()
            .expect("live slot")
            .time
            .as_nanos()
    }

    fn alloc(&mut self, entry: Entry<T>) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(entry);
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("event arena fits u32 indices");
            self.slots.push(Some(entry));
            idx
        }
    }

    fn take(&mut self, idx: u32) -> Entry<T> {
        let entry = self.slots[idx as usize].take().expect("live slot");
        self.free.push(idx);
        entry
    }

    fn push(&mut self, entry: Entry<T>) {
        let (t, seq) = (entry.time.as_nanos(), entry.seq);
        let idx = self.alloc(entry);
        match t.cmp(&self.last) {
            Ordering::Less => self.past.push(Reverse((t, seq, idx))),
            // `seq` is globally increasing, so appending keeps `front`
            // sorted by seq.
            Ordering::Equal => self.front.push_back(idx),
            Ordering::Greater => {
                self.buckets[Self::bucket_of(self.last, t)].push(idx);
                if self.front.is_empty() {
                    self.redistribute();
                }
            }
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        // Everything in `past` fires before `last`, hence before any front
        // or bucket entry (whose times are >= `last`).
        if let Some(Reverse((_, _, idx))) = self.past.pop() {
            let e = self.take(idx);
            self.len -= 1;
            return Some((e.time, e.payload));
        }
        let idx = self.front.pop_front()?;
        let e = self.take(idx);
        self.len -= 1;
        if self.front.is_empty() {
            self.redistribute();
        }
        Some((e.time, e.payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    fn peek_key(&self) -> Option<(SimTime, u64)> {
        let idx = match self.past.peek() {
            Some(&Reverse((_, _, idx))) => idx,
            None => *self.front.front()?,
        };
        let e = self.slots[idx as usize].as_ref().expect("live slot");
        Some((e.time, e.seq))
    }

    /// Re-establishes the `front` invariant: advances `last` to the
    /// earliest bucketed time and moves that time's entries into `front`.
    /// Every moved entry lands in a strictly lower bucket (it agrees with
    /// the new `last` on all bits above the old bucket's), so an entry
    /// cascades at most [`RADIX_BUCKETS`] times over its lifetime.
    fn redistribute(&mut self) {
        debug_assert!(self.front.is_empty());
        let Some(b) = self.buckets.iter().position(|v| !v.is_empty()) else {
            return;
        };
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let tm = bucket
            .iter()
            .map(|&idx| self.slot_time(idx))
            .min()
            .expect("bucket is non-empty");
        self.last = tm;
        for &idx in &bucket {
            let t = self.slot_time(idx);
            if t == tm {
                self.front.push_back(idx);
            } else {
                let nb = Self::bucket_of(tm, t);
                debug_assert!(nb < b);
                self.buckets[nb].push(idx);
            }
        }
        // Keep the drained bucket's capacity for future cascades.
        bucket.clear();
        self.buckets[b] = bucket;
        // Bucketed entries arrive in cascade order, not seq order; restore
        // the FIFO tie-break.
        let slots = &self.slots;
        self.front
            .make_contiguous()
            .sort_unstable_by_key(|&idx| slots[idx as usize].as_ref().expect("live slot").seq);
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            radix: Radix::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events, so a
    /// long-horizon run (engine drivers queue every future arrival of a
    /// trace) does not re-grow its arena mid-simulation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            radix: Radix::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Reserves room for at least `additional` more events beyond the
    /// current pending count.
    pub fn reserve(&mut self, additional: usize) {
        self.radix.reserve(additional);
    }

    /// Number of pending events the queue can hold without re-growing its
    /// entry storage.
    pub fn capacity(&self) -> usize {
        self.radix.capacity()
    }

    /// Draws the next insertion sequence number without queueing anything.
    ///
    /// A caller that holds an event outside the queue keys it
    /// `(time, take_seq())`; comparing that key with [`EventQueue::peek_key`]
    /// orders it against queued events exactly as a [`EventQueue::push`] at
    /// the same moment would have.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The seq the next [`EventQueue::push`] or [`EventQueue::take_seq`]
    /// draws.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.take_seq();
        self.radix.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.radix.pop()
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.radix.peek_time()
    }

    /// The `(time, seq)` key of the earliest event without removing it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.radix.peek_key()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.radix.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A `BinaryHeap` of `(time, seq)`-ordered entries: the differential
    /// oracle the radix heap must match on every push/pop interleaving.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
        next_seq: u64,
    }

    impl HeapOracle {
        fn push(&mut self, time: SimTime, payload: u64) {
            self.heap.push(Reverse((time, self.next_seq, payload)));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            self.heap.pop().map(|Reverse((t, _, p))| (t, p))
        }

        fn peek_key(&self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|Reverse((t, seq, _))| (*t, *seq))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.peek_key().map(|(t, _)| t)
        }
    }

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(5), 2);
        q.push(SimTime::from_nanos(10), 3);
        q.push(SimTime::from_nanos(5), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn with_capacity_and_reserve_preallocate() {
        let mut q: EventQueue<u8> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        assert!(q.is_empty());
        q.reserve(128);
        assert!(q.capacity() >= 128);
        // Preallocation must not change ordering semantics.
        q.push(SimTime::from_nanos(2), 1);
        q.push(SimTime::from_nanos(1), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 2)));
    }

    #[test]
    fn many_events_drain_sorted() {
        let mut q = EventQueue::new();
        // Pseudo-shuffled deterministic insertion.
        for i in 0..1000u64 {
            let t = (i * 7919) % 1000;
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, 1000);
    }

    #[test]
    fn pushes_into_the_past_stay_total() {
        // The queue is monotone-optimised; pushing earlier than the last
        // popped time must still honour (time, seq) order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 0);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 0)));
        q.push(SimTime::from_nanos(50), 1);
        q.push(SimTime::from_nanos(150), 2);
        q.push(SimTime::from_nanos(50), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50), 1)));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(150), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn descending_pushes_into_the_past_drain_in_oracle_order() {
        // After one pop, every push lands in the past; filled in descending
        // time (with ties), they must still drain in `(time, seq)` order.
        const EVENTS: u64 = 64_000;
        let mut q = EventQueue::new();
        let mut oracle = HeapOracle::default();
        let top = SimTime::from_nanos(EVENTS);
        q.push(top, u64::MAX);
        oracle.push(top, u64::MAX);
        assert_eq!(q.pop(), oracle.pop());
        for id in 0..EVENTS {
            let t = SimTime::from_nanos((EVENTS - id) / 2);
            q.push(t, id);
            oracle.push(t, id);
        }
        while !oracle.heap.is_empty() {
            assert_eq!(q.peek_key(), oracle.peek_key());
            assert_eq!(q.pop(), oracle.pop());
        }
        assert!(q.is_empty());
    }

    #[test]
    fn held_keys_order_like_pushes() {
        // A key drawn with `take_seq` between two pushes sorts between them
        // at equal times, and before a later-time push.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 0);
        let held = (SimTime::from_nanos(10), q.take_seq());
        q.push(SimTime::from_nanos(10), 2);
        assert_eq!(q.peek_key(), Some((SimTime::from_nanos(10), 0)));
        assert!(q.peek_key().unwrap() < held);
        q.pop();
        assert!(held < q.peek_key().unwrap());
        assert_eq!(q.peek_key(), Some((SimTime::from_nanos(10), 2)));
        q.pop();
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn interleaved_push_pop_matches_binary_heap() {
        // A driver-like workload: pop the minimum, then schedule new work a
        // short, varying distance into the future.
        let mut cal = EventQueue::new();
        let mut bin = HeapOracle::default();
        let mut id = 0u64;
        for i in 0..64u64 {
            let t = SimTime::from_nanos((i * 104_729) % 5_000);
            cal.push(t, id);
            bin.push(t, id);
            id += 1;
        }
        let mut rng = 0x9e37_79b9_u64;
        while !cal.is_empty() {
            assert_eq!(cal.peek_time(), bin.peek_time());
            let (tc, pc) = cal.pop().unwrap();
            let (tb, pb) = bin.pop().unwrap();
            assert_eq!((tc, pc), (tb, pb));
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            if id < 4096 && !rng.is_multiple_of(4) {
                let dt = rng % 10_000;
                let t = tc + crate::time::SimDuration::from_nanos(dt);
                cal.push(t, id);
                bin.push(t, id);
                id += 1;
            }
        }
        assert!(bin.heap.is_empty());
    }

    crate::check! {
        /// Any push/pop interleaving produces the same observable sequence
        /// as the binary-heap oracle.
        #[test]
        fn calendar_and_binary_are_observably_identical(
            // (time, op): op 0 pops, anything else pushes at `time`
            // (clustered to force ties).
            ops in crate::check::vec((0u64..2_000, 0u64..4), 1..200)
        ) {
            let mut cal = EventQueue::new();
            let mut bin = HeapOracle::default();
            let mut id = 0u64;
            for (t, op) in ops {
                if op == 0 {
                    assert_eq!(cal.pop(), bin.pop());
                } else {
                    cal.push(SimTime::from_nanos(t), id);
                    bin.push(SimTime::from_nanos(t), id);
                    id += 1;
                }
                assert_eq!(cal.peek_time(), bin.peek_time());
                assert_eq!(cal.peek_key(), bin.peek_key());
                assert_eq!(cal.len(), bin.heap.len());
            }
            while let Some(e) = bin.pop() {
                assert_eq!(cal.pop(), Some(e));
            }
            assert!(cal.is_empty());
        }
    }
}
