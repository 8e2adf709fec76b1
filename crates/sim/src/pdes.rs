//! Conservative parallel discrete-event simulation (PDES) primitives.
//!
//! A scenario is sharded into per-domain event queues (one per server, or
//! per NVSwitch domain) that advance independently on lane threads.
//! Cross-shard effects — coordinator RPCs, lease heartbeats, cross-server
//! transfers — travel as [`Msg`]s through a [`Mailbox`] owned by the
//! executor. Correctness rests on the classic null-message argument of
//! Chandy–Misra–Bryant conservative PDES:
//!
//! * Every cross-shard delivery pays at least the **lookahead** `L`, the
//!   minimum cross-domain link latency (`deliver_at ≥ send_time + L`).
//! * Each shard declares a conservative **send horizon**: a lower bound on
//!   the earliest simulated time at which it could still emit a message.
//!   A shard that will never send again declares `None`.
//! * Each shard gets its own **bound**: the earliest time any message
//!   could still reach it, from the horizons of the shards that send to it
//!   and the undelivered messages that may draw a reply. The executor
//!   delivers to each shard the mailbox messages due before its bound and
//!   advances it to that bound, so no message is ever delivered inside a
//!   window its destination has already simulated past. When no shard has
//!   a bound left, the shards are decoupled and each runs to completion.
//!
//! Determinism does not depend on lane count or thread schedule: the window
//! sequence is a pure function of the declared horizons and message
//! timestamps, and messages are merged in `(deliver_at, src, seq)` order.

use crate::time::{SimDuration, SimTime};

/// A cross-shard event in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg<M> {
    /// Simulated delivery time at the destination shard.
    pub deliver_at: SimTime,
    /// Source shard index.
    pub src: usize,
    /// Destination shard index.
    pub dst: usize,
    /// Per-source sequence number (tie-break within one delivery time).
    pub seq: u64,
    /// Application payload.
    pub payload: M,
}

impl<M> Msg<M> {
    /// Deterministic merge key: messages are delivered in
    /// `(deliver_at, src, seq)` order regardless of which lane produced
    /// them first in wall-clock time.
    pub fn key(&self) -> (SimTime, usize, u64) {
        (self.deliver_at, self.src, self.seq)
    }
}

/// Undelivered cross-shard messages, queued per destination and merged
/// deterministically.
///
/// # Example
///
/// ```
/// use aqua_sim::pdes::{Mailbox, Msg};
/// use aqua_sim::time::SimTime;
///
/// let mut mbox = Mailbox::new(2);
/// mbox.post(Msg { deliver_at: SimTime::from_secs(3), src: 1, dst: 0, seq: 0, payload: "late" });
/// mbox.post(Msg { deliver_at: SimTime::from_secs(1), src: 0, dst: 1, seq: 0, payload: "early" });
/// assert_eq!(mbox.earliest_from(), vec![Some(SimTime::from_secs(1)), Some(SimTime::from_secs(3))]);
/// // Shard 0 may take what is due before 2 s; shard 1 everything.
/// let inboxes = mbox.deliverable(&[Some(SimTime::from_secs(2)), None]);
/// assert!(inboxes[0].is_empty());
/// assert_eq!(inboxes[1][0].payload, "early");
/// assert_eq!(mbox.earliest_from(), vec![None, Some(SimTime::from_secs(3))]);
/// ```
#[derive(Debug)]
pub struct Mailbox<M> {
    /// Undelivered messages, indexed by destination shard.
    pending: Vec<Vec<Msg<M>>>,
}

impl<M> Mailbox<M> {
    /// An empty mailbox routing between `shards` shards.
    pub fn new(shards: usize) -> Self {
        Mailbox {
            pending: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Queues a message for a future barrier.
    ///
    /// # Panics
    ///
    /// Panics if the destination shard does not exist.
    pub fn post(&mut self, msg: Msg<M>) {
        assert!(
            msg.dst < self.pending.len(),
            "message to unknown shard {}",
            msg.dst
        );
        self.pending[msg.dst].push(msg);
    }

    /// Per source shard, the earliest `deliver_at` among its undelivered
    /// messages (`None` if it has none in flight).
    pub fn earliest_from(&self) -> Vec<Option<SimTime>> {
        let mut earliest = vec![None; self.pending.len()];
        for msg in self.pending.iter().flatten() {
            let e = &mut earliest[msg.src];
            if e.is_none_or(|t| msg.deliver_at < t) {
                *e = Some(msg.deliver_at);
            }
        }
        earliest
    }

    /// Number of undelivered messages.
    pub fn len(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Returns `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.iter().all(Vec::is_empty)
    }

    /// Removes, for each destination `d`, every message with
    /// `deliver_at < until[d]` (all of them when `until[d]` is `None`) and
    /// returns them as per-destination inboxes, each sorted by
    /// `(deliver_at, src, seq)` — the deterministic merge rule that makes
    /// delivery order independent of lane scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `until` does not name one bound per shard.
    pub fn deliverable(&mut self, until: &[Option<SimTime>]) -> Vec<Vec<Msg<M>>> {
        assert_eq!(until.len(), self.pending.len(), "one bound per shard");
        self.pending
            .iter_mut()
            .zip(until)
            .map(|(queue, bound)| {
                queue.sort_unstable_by_key(Msg::key);
                let due =
                    bound.map_or(queue.len(), |b| queue.partition_point(|m| m.deliver_at < b));
                queue.drain(..due).collect()
            })
            .collect()
    }
}

/// The lookahead for a set of cross-domain links: the minimum latency any
/// cross-shard effect must pay. With per-link α–β cost models this is the
/// smallest launch overhead among the links that cross a shard boundary.
///
/// # Panics
///
/// Panics if `latencies` is empty or the minimum is zero — a zero-lookahead
/// topology cannot make conservative progress.
pub fn lookahead_from_links(latencies: impl IntoIterator<Item = SimDuration>) -> SimDuration {
    let min = latencies
        .into_iter()
        .min()
        .expect("lookahead needs at least one cross-domain link");
    assert!(
        !min.is_zero(),
        "zero cross-domain latency gives no conservative lookahead"
    );
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(at: u64, src: usize, dst: usize, seq: u64) -> Msg<u32> {
        Msg {
            deliver_at: SimTime::from_nanos(at),
            src,
            dst,
            seq,
            payload: 0,
        }
    }

    #[test]
    fn mailbox_delivers_in_time_src_seq_order() {
        let mut mbox = Mailbox::new(2);
        // Posted out of order, from different sources, with a timestamp tie.
        mbox.post(msg(50, 1, 0, 0));
        mbox.post(msg(10, 1, 0, 1));
        mbox.post(msg(10, 0, 0, 7));
        mbox.post(msg(10, 1, 0, 0));
        let inboxes = mbox.deliverable(&[Some(SimTime::from_nanos(60)), None]);
        let keys: Vec<(u64, usize, u64)> = inboxes[0]
            .iter()
            .map(|m| (m.deliver_at.as_nanos(), m.src, m.seq))
            .collect();
        assert_eq!(keys, vec![(10, 0, 7), (10, 1, 0), (10, 1, 1), (50, 1, 0)]);
        assert!(inboxes[1].is_empty());
        assert!(mbox.is_empty());
    }

    #[test]
    fn deliverable_is_exclusive_of_the_window_end() {
        let mut mbox = Mailbox::new(2);
        mbox.post(msg(10, 1, 0, 0));
        mbox.post(msg(20, 1, 0, 1));
        mbox.post(msg(15, 0, 1, 0));
        // Shard 0's bound is 20 (exclusive); shard 1's is below its message.
        let bounds = [Some(SimTime::from_nanos(20)), Some(SimTime::from_nanos(15))];
        let inboxes = mbox.deliverable(&bounds);
        assert_eq!(inboxes[0].len(), 1, "deliver strictly before the bound");
        assert!(inboxes[1].is_empty(), "a bound at deliver_at holds it back");
        assert_eq!(mbox.len(), 2);
        assert_eq!(
            mbox.earliest_from(),
            vec![Some(SimTime::from_nanos(15)), Some(SimTime::from_nanos(20))]
        );
        // An unbounded destination takes everything left for it.
        let rest = mbox.deliverable(&[None, None]);
        assert_eq!((rest[0].len(), rest[1].len()), (1, 1));
        assert!(mbox.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown shard")]
    fn posting_to_a_missing_shard_is_a_bug() {
        let mut mbox = Mailbox::new(1);
        mbox.post(msg(1, 0, 3, 0));
    }

    #[test]
    fn lookahead_is_the_minimum_link_latency() {
        let l = lookahead_from_links([
            SimDuration::from_micros(7),
            SimDuration::from_micros(5),
            SimDuration::from_micros(10),
        ]);
        assert_eq!(l, SimDuration::from_micros(5));
    }

    #[test]
    #[should_panic(expected = "zero cross-domain latency")]
    fn zero_lookahead_is_rejected() {
        let _ = lookahead_from_links([SimDuration::ZERO]);
    }
}
