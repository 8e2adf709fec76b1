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
//! Entries sit in a std [`BinaryHeap`] keyed `(time, seq)`, so a push or pop
//! costs O(log n) whatever the time pushed, and payloads are never compared.
//!
//! A whole trace goes in through [`EventQueue::push_trace`], which draws its
//! seqs as one block but queues only its earliest event: the rest wait in
//! the trace, which is in time order and so in key order, and popping a
//! trace's event queues its next one before anything else can read the
//! queue. Since each trace's keys ascend, the smallest key among the heap's
//! entries is the smallest among every pending event, so the queue pops
//! exactly what pushing each event would, while holding about one heap
//! entry per trace.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

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
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// The traces of [`EventQueue::push_trace`], by index: each holds its
    /// events not yet in `heap`, in ascending key order, and is dropped
    /// once its last event is.
    traces: Vec<Option<Trace<T>>>,
    /// Pending events, queued or still waiting in a trace.
    pending: usize,
    next_seq: u64,
}

/// The rest of a trace: `(time, seq, payload)` in ascending `(time, seq)`.
type Trace<T> = Box<dyn Iterator<Item = (SimTime, u64, T)>>;

/// A pending event. It orders by its `(time, seq)` key alone, reversed, so
/// the std max-heap pops the smallest key first.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    /// The index of the trace the event came from, if any.
    trace: Option<u32>,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            traces: Vec::new(),
            pending: 0,
            next_seq: 0,
        }
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
        self.pending += 1;
        self.heap.push(Entry {
            time,
            seq,
            trace: None,
            payload,
        });
    }

    /// Schedules every `(time, event)` of `trace`, each as `wrap(event)`,
    /// to pop exactly as pushing them one by one in order would. The trace
    /// must already be in time order (a debug build asserts it as the
    /// events are drawn); a caller whose trace is not sorts it stably by
    /// time first. It draws the next `trace.len()` seqs at once, its `i`-th
    /// event keyed with the `i`-th of them, so its length must be exact.
    /// Only its earliest event is drawn and queued now; popping it queues
    /// the next, so a trace costs the queue one entry however long it is,
    /// and a lazy trace is generated as the simulation reaches it.
    ///
    /// The seqs form one block, so an event of the trace orders against
    /// any other event by time and then by which side of the block the
    /// other's seq lies on, never by its place inside the block; among
    /// themselves, one-by-one pushes order the trace's events by time and
    /// then position, which is the trace's order.
    pub fn push_trace<U: 'static>(
        &mut self,
        trace: impl ExactSizeIterator<Item = (SimTime, U)> + 'static,
        wrap: impl Fn(U) -> T + 'static,
    ) where
        T: 'static,
    {
        let first = self.next_seq;
        self.next_seq += trace.len() as u64;
        self.pending += trace.len();
        let mut last = SimTime::ZERO;
        let rest: Trace<T> = Box::new(trace.zip(first..).map(move |((at, event), seq)| {
            debug_assert!(last <= at, "trace out of time order: {at} after {last}");
            last = at;
            (at, seq, wrap(event))
        }));
        let index = u32::try_from(self.traces.len()).expect("at most 2^32 traces");
        self.traces.push(Some(rest));
        self.queue_next_of(index);
    }

    /// Moves trace `index`'s next event into the heap, or drops the trace
    /// once it has none left.
    fn queue_next_of(&mut self, index: u32) {
        let slot = &mut self.traces[index as usize];
        match slot.as_mut().and_then(Iterator::next) {
            Some((time, seq, payload)) => self.heap.push(Entry {
                time,
                seq,
                trace: Some(index),
                payload,
            }),
            None => *slot = None,
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.heap.pop()?;
        self.pending -= 1;
        if let Some(index) = e.trace {
            self.queue_next_of(index);
        }
        Some((e.time, e.payload))
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The `(time, seq)` key of the earliest event without removing it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Number of pending events, those still waiting in a trace included.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Events in the heap: one per trace with events left, plus every
    /// event pushed on its own and still pending.
    pub fn queued(&self) -> usize {
        self.heap.len()
    }
}

impl<T> fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.pending)
            .field("queued", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
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

    /// Pending `(time, seq, payload)` triples in push order; a pop scans
    /// them all for the smallest `(time, seq)`. The differential oracle the
    /// heap must match on every push/pop interleaving.
    #[derive(Default)]
    struct ScanOracle {
        pending: Vec<(SimTime, u64, u64)>,
        next_seq: u64,
    }

    impl ScanOracle {
        fn push(&mut self, time: SimTime, payload: u64) {
            self.pending.push((time, self.next_seq, payload));
            self.next_seq += 1;
        }

        /// Index of the pending entry with the smallest `(time, seq)`.
        fn earliest(&self) -> Option<usize> {
            (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let i = self.earliest()?;
            let (t, _, p) = self.pending.swap_remove(i);
            Some((t, p))
        }

        fn peek_key(&self) -> Option<(SimTime, u64)> {
            self.earliest()
                .map(|i| (self.pending[i].0, self.pending[i].1))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.peek_key().map(|(t, _)| t)
        }

        fn len(&self) -> usize {
            self.pending.len()
        }

        /// Takes every pending `(time, seq, payload)`, smallest key first:
        /// what a full drain must return, without a quadratic scan.
        fn drain_sorted(&mut self) -> Vec<(SimTime, u64, u64)> {
            let mut all = std::mem::take(&mut self.pending);
            all.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
            all
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
    fn with_capacity_keeps_ordering() {
        let mut q: EventQueue<u8> = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(2), 1);
        q.push(SimTime::from_nanos(1), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 2)));
    }

    #[test]
    fn a_trace_holds_one_heap_entry() {
        let mut q = EventQueue::new();
        q.push_trace(
            (0..1_000u32).map(|i| (SimTime::from_nanos(u64::from(i / 3)), u64::from(i))),
            |i| i,
        );
        q.push(SimTime::from_nanos(5), u64::MAX);
        assert_eq!((q.len(), q.queued(), q.next_seq()), (1_001, 2, 1_001));
        let mut popped = Vec::new();
        while let Some((_, i)) = q.pop() {
            assert!(q.queued() <= 2);
            popped.push(i);
        }
        // The lone push drew seq 1,000, after every event of the trace.
        let mut expected: Vec<u64> = (0..1_000).collect();
        expected.insert(18, u64::MAX);
        assert_eq!(popped, expected);
        assert!(q.is_empty());
        assert_eq!(q.queued(), 0);
    }

    /// `push_trace` takes a trace in time order; a debug build catches
    /// one that is not as its events are drawn.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "trace out of time order")]
    fn an_unsorted_trace_panics_as_it_is_drawn() {
        let mut q = EventQueue::new();
        let trace = [(SimTime::from_nanos(2), 0), (SimTime::from_nanos(1), 1)];
        q.push_trace(trace.into_iter(), |i| i);
        while q.pop().is_some() {}
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
        // Pushing earlier than the last popped time must still honour
        // (time, seq) order.
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
        let mut oracle = ScanOracle::default();
        let top = SimTime::from_nanos(EVENTS);
        q.push(top, u64::MAX);
        oracle.push(top, u64::MAX);
        assert_eq!(q.pop(), oracle.pop());
        for id in 0..EVENTS {
            let t = SimTime::from_nanos((EVENTS - id) / 2);
            q.push(t, id);
            oracle.push(t, id);
        }
        for (t, seq, id) in oracle.drain_sorted() {
            assert_eq!(q.peek_key(), Some((t, seq)));
            assert_eq!(q.pop(), Some((t, id)));
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
    fn interleaved_push_pop_matches_the_scan_oracle() {
        // A driver-like workload: pop the minimum, then schedule new work a
        // short, varying distance into the future.
        let mut q = EventQueue::new();
        let mut oracle = ScanOracle::default();
        let mut id = 0u64;
        for i in 0..64u64 {
            let t = SimTime::from_nanos((i * 104_729) % 5_000);
            q.push(t, id);
            oracle.push(t, id);
            id += 1;
        }
        let mut rng = 0x9e37_79b9_u64;
        while !q.is_empty() {
            assert_eq!(q.peek_time(), oracle.peek_time());
            let (tc, pc) = q.pop().unwrap();
            let (tb, pb) = oracle.pop().unwrap();
            assert_eq!((tc, pc), (tb, pb));
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            if id < 4096 && !rng.is_multiple_of(4) {
                let dt = rng % 10_000;
                let t = tc + crate::time::SimDuration::from_nanos(dt);
                q.push(t, id);
                oracle.push(t, id);
                id += 1;
            }
        }
        assert_eq!(oracle.len(), 0);
    }

    crate::check! {
        /// Traces pushed with `push_trace` among single pushes and pops pop
        /// exactly what pushing each of their events in order would, and
        /// draw the same seqs; a trace drawn out of time order is sorted
        /// stably by time first, which leaves the pushes' pop order.
        #[test]
        fn traces_pop_like_their_pushes(
            // (time, op): op 0 pops, op 1 pushes at `time`, op 2 pushes a
            // trace of the next `time % 9` drawn times.
            ops in crate::check::vec((0u64..500, 0u64..3), 1..120),
            times in crate::check::vec(0u64..500, 0..200)
        ) {
            let mut q = EventQueue::new();
            let mut oracle = ScanOracle::default();
            let mut times = times.into_iter();
            let mut id = 0u64;
            for (t, op) in ops {
                match op {
                    0 => assert_eq!(q.pop(), oracle.pop()),
                    1 => {
                        q.push(SimTime::from_nanos(t), id);
                        oracle.push(SimTime::from_nanos(t), id);
                        id += 1;
                    }
                    _ => {
                        let mut trace = Vec::new();
                        for at in times.by_ref().take((t % 9) as usize) {
                            oracle.push(SimTime::from_nanos(at), id);
                            trace.push((SimTime::from_nanos(at), id));
                            id += 1;
                        }
                        trace.sort_by_key(|&(at, _)| at);
                        q.push_trace(trace.into_iter(), |i| i);
                    }
                }
                assert_eq!(q.next_seq(), oracle.next_seq);
                assert_eq!(q.peek_time(), oracle.peek_time());
                assert_eq!(q.len(), oracle.len());
            }
            while let Some(e) = oracle.pop() {
                assert_eq!(q.pop(), Some(e));
            }
            assert!(q.is_empty());
        }
    }

    crate::check! {
        /// Any push/pop interleaving produces the same observable sequence
        /// as the scan oracle.
        #[test]
        fn queue_and_scan_oracle_are_observably_identical(
            // (time, op): op 0 pops, anything else pushes at `time`
            // (clustered to force ties).
            ops in crate::check::vec((0u64..2_000, 0u64..4), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut oracle = ScanOracle::default();
            let mut id = 0u64;
            for (t, op) in ops {
                if op == 0 {
                    assert_eq!(q.pop(), oracle.pop());
                } else {
                    q.push(SimTime::from_nanos(t), id);
                    oracle.push(SimTime::from_nanos(t), id);
                    id += 1;
                }
                assert_eq!(q.peek_time(), oracle.peek_time());
                assert_eq!(q.peek_key(), oracle.peek_key());
                assert_eq!(q.len(), oracle.len());
            }
            while let Some(e) = oracle.pop() {
                assert_eq!(q.pop(), Some(e));
            }
            assert!(q.is_empty());
        }
    }
}
