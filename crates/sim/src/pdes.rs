//! Conservative parallel discrete-event simulation (PDES) primitives.
//!
//! A scenario is sharded into per-domain event queues (one per server, or
//! per NVSwitch domain) that advance independently on lane threads.
//! Cross-shard effects — coordinator RPCs, lease heartbeats, cross-server
//! transfers — travel as [`Msg`]s through a [`Mailbox`] owned by the
//! executor. Correctness rests on the classic null-message argument:
//!
//! * Every cross-shard delivery pays at least the **lookahead** `L`, the
//!   minimum cross-domain link latency (`deliver_at ≥ send_time + L`).
//! * Each shard declares a conservative **send horizon**: a lower bound on
//!   the earliest simulated time at which it could still emit a message.
//!   A shard that will never send again declares `None`.
//! * The executor advances every shard to the common window end
//!   `H = S_min + L`, where `S_min` is the minimum over all shard send
//!   horizons *and* all still-undelivered message timestamps (delivering a
//!   message may trigger an immediate reply at its delivery time). Any
//!   message produced inside the window was sent at `t ≥ S_min`, so it is
//!   delivered at `t + L ≥ H` — never inside a window a peer has already
//!   simulated past. When `S_min` is unbounded the shards are decoupled and
//!   each runs to completion without further barriers.
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

/// Undelivered cross-shard messages, merged deterministically.
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
/// assert_eq!(mbox.next_time(), Some(SimTime::from_secs(1)));
/// let inboxes = mbox.deliverable(SimTime::from_secs(2));
/// assert!(inboxes[0].is_empty());
/// assert_eq!(inboxes[1][0].payload, "early");
/// assert_eq!(mbox.next_time(), Some(SimTime::from_secs(3)));
/// ```
#[derive(Debug)]
pub struct Mailbox<M> {
    pending: Vec<Msg<M>>,
    shards: usize,
}

impl<M> Mailbox<M> {
    /// An empty mailbox routing between `shards` shards.
    pub fn new(shards: usize) -> Self {
        Mailbox {
            pending: Vec::new(),
            shards,
        }
    }

    /// Queues a message for a future barrier.
    ///
    /// # Panics
    ///
    /// Panics if the destination shard does not exist.
    pub fn post(&mut self, msg: Msg<M>) {
        assert!(
            msg.dst < self.shards,
            "message to unknown shard {}",
            msg.dst
        );
        self.pending.push(msg);
    }

    /// Earliest undelivered message timestamp, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.pending.iter().map(|m| m.deliver_at).min()
    }

    /// Number of undelivered messages.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Removes every message with `deliver_at < until` and returns them as
    /// per-destination inboxes, each sorted by `(deliver_at, src, seq)` —
    /// the deterministic merge rule that makes delivery order independent
    /// of lane scheduling.
    pub fn deliverable(&mut self, until: SimTime) -> Vec<Vec<Msg<M>>> {
        let mut inboxes: Vec<Vec<Msg<M>>> = (0..self.shards).map(|_| Vec::new()).collect();
        let mut keep = Vec::with_capacity(self.pending.len());
        for msg in self.pending.drain(..) {
            if msg.deliver_at < until {
                inboxes[msg.dst].push(msg);
            } else {
                keep.push(msg);
            }
        }
        self.pending = keep;
        for inbox in &mut inboxes {
            inbox.sort_by_key(|m| m.key());
        }
        inboxes
    }

    /// Drains *all* pending messages into sorted inboxes (the final barrier
    /// of a run, once no shard can send again).
    pub fn drain_all(&mut self) -> Vec<Vec<Msg<M>>> {
        self.deliverable(SimTime::MAX)
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
        let inboxes = mbox.deliverable(SimTime::from_nanos(60));
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
        let mut mbox = Mailbox::new(1);
        mbox.post(msg(10, 0, 0, 0));
        mbox.post(msg(20, 0, 0, 1));
        let inboxes = mbox.deliverable(SimTime::from_nanos(20));
        assert_eq!(inboxes[0].len(), 1, "deliver strictly before the barrier");
        assert_eq!(mbox.len(), 1);
        assert_eq!(mbox.next_time(), Some(SimTime::from_nanos(20)));
        let rest = mbox.drain_all();
        assert_eq!(rest[0].len(), 1);
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
