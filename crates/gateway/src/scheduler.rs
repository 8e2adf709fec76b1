//! The decode-scheduler zoo, as one incremental priority index.
//!
//! Each policy answers one question: given the queue of admissible requests,
//! in what order should the gateway admit them into the continuous batch?
//! Every policy orders by the same key, `(class, primary, enqueued, id)`,
//! and differs only in the `(class, primary)` prefix it gives a request:
//!
//! | policy       | prefix `(class, primary)`                                  |
//! |--------------|------------------------------------------------------------|
//! | `fcfs`       | `(0, 0)`                                                   |
//! | `sjf`        | `(0, remaining)`                                           |
//! | `sjf+bucket` | `(0, remaining / 64)`                                      |
//! | `sjf+aging`  | `(1, remaining)`, then `(0, 0)` once it has waited 60 s    |
//! | `orca`       | `(0, predicted remaining)` at the learned output/prompt ratio |
//!
//! So one container serves all five: a FIFO ring per prefix, in prefix
//! order, each ring in `(enqueued, id)` order. The [`Scheduler`] keeps one
//! such queue per tenant for fresh arrivals (cap-gated), one for
//! re-admitted work (cap-exempt) and a parked set for crash-retry backoffs.
//! The gateway mirrors every queue transition into it
//! ([`insert`](Scheduler::insert) / [`remove`](Scheduler::remove)), passes
//! it every time it acts at ([`advance`](Scheduler::advance), which applies
//! expired backoffs, due aging promotions and Orca re-keys) and asks for
//! the single next request to admit ([`pop_next`](Scheduler::pop_next),
//! which leaves a head that does not fit the KV budget in place). With `t`
//! tenants holding queued work, `r` occupied prefixes in a queue and `n`
//! queued requests, no cost depends on how deep a ring is:
//!
//! | operation         | cost                                                   |
//! |-------------------|--------------------------------------------------------|
//! | `insert`          | O(log r), O(1) in its ring (arrivals come in key order) |
//! | `pop_next`        | O(t + log r)                                           |
//! | `remove`          | O(log r + log ring)                                    |
//! | `advance`         | O(log n) per expired backoff or promotion; an Orca re-key, once per drift of the learned ratio, O(n log r) |
//! | `head_context`    | O(t + log r)                                           |
//! | `first_context`   | O(t + entries skipped)                                 |
//!
//! The index reproduces the order of the sort-based reference policies in
//! `oracle` *exactly, including ties*, which is what keeps experiment
//! digests byte-identical. The differential property test at the bottom of
//! this file pins that equivalence under random arrivals, completions,
//! crash re-queues and aging promotions.

use crate::admission::AdmissionController;
use aqua_sim::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

/// Width of a `sjf+bucket` length bucket, in output tokens.
const SJF_BUCKET: u64 = 64;
/// How long a `sjf+aging` request waits before it is promoted.
const AGING_PROMOTE: SimDuration = SimDuration::from_secs(60);
/// Weight of each completion in Orca's output/prompt EWMA.
const ORCA_ALPHA: f64 = 0.1;

/// Queue metadata a scheduler is allowed to see for one waiting request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedMeta {
    /// Request id.
    pub id: u64,
    /// Tenant the request belongs to.
    pub tenant: u32,
    /// When the request entered the gateway queue.
    pub enqueued: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Declared output length in tokens (the simulator's oracle; real
    /// servers must predict this — see the test-only `oracle::OrcaPredict`).
    pub output_tokens: u64,
    /// Tokens already generated before a preemption returned the request to
    /// the queue (0 for first-time admission).
    pub generated: u64,
    /// The request was admitted before (preemption or crash retry): it
    /// holds its tenant's cap slot, so it is never cap-gated.
    pub admitted_once: bool,
    /// Crash-retry backoff: the request is parked until this time.
    pub eligible_after: SimTime,
    /// The gateway's handle for the request's state, handed back by
    /// [`Scheduler::pop_next`].
    pub handle: u32,
}

impl QueuedMeta {
    /// Declared output tokens still to generate.
    fn remaining(&self) -> u64 {
        self.output_tokens.saturating_sub(self.generated)
    }

    /// KV context tokens this request occupies when admitted (prompt plus
    /// already-generated output) — constant while the request is queued.
    pub fn context_tokens(&self) -> u64 {
        self.prompt_tokens + self.generated
    }
}

thread_local! {
    static KEY_COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

/// Monotone per-thread count of scheduler-key comparisons.
/// Microbenchmarks difference this around one operation to assert that
/// admission work is independent of backlog depth.
pub fn sched_comparisons() -> u64 {
    KEY_COMPARISONS.with(Cell::get)
}

/// The policy-specific part of a key: `(class, primary)`.
type Prefix = (u8, u64);

/// The priority key every policy orders by: the policy's prefix, then the
/// `(enqueued, id)` tie-breaker every ordering ends with, so equal-priority
/// requests keep a stable total order. Comparisons are counted per thread
/// (see [`sched_comparisons`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedKey {
    prefix: Prefix,
    enqueued: SimTime,
    id: u64,
}

impl SchedKey {
    fn new(prefix: Prefix, m: &QueuedMeta) -> Self {
        SchedKey {
            prefix,
            enqueued: m.enqueued,
            id: m.id,
        }
    }
}

impl Ord for SchedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        KEY_COMPARISONS.with(|c| c.set(c.get() + 1));
        (self.prefix, self.enqueued, self.id).cmp(&(other.prefix, other.enqueued, other.id))
    }
}

impl PartialOrd for SchedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Predicted remaining output tokens at `ratio` — the exact `oracle`
/// formula, shared so keys and the reference agree bit-for-bit.
fn orca_predict(ratio: f64, m: &QueuedMeta) -> u64 {
    let total = (ratio * m.prompt_tokens.max(1) as f64).max(1.0) as u64;
    total.saturating_sub(m.generated).max(1)
}

/// One queue of the index: a FIFO ring per prefix, in prefix order, each
/// ring in `(enqueued, id)` order, so the first ring's front holds the
/// queue's least key. Empty rings are dropped.
#[derive(Debug, Default)]
struct Rings {
    rings: BTreeMap<Prefix, VecDeque<QueuedMeta>>,
    len: usize,
}

impl Rings {
    /// Files `m` under `prefix`: O(1) at either end of its ring (the
    /// common case — arrivals carry nondecreasing `(enqueued, id)`), a
    /// binary-search insert for the rare out-of-order key.
    fn insert(&mut self, prefix: Prefix, m: QueuedMeta) {
        let key = SchedKey::new(prefix, &m);
        let ring = self.rings.entry(prefix).or_default();
        if ring.back().is_none_or(|b| SchedKey::new(prefix, b) < key) {
            ring.push_back(m);
        } else if ring.front().is_some_and(|f| key < SchedKey::new(prefix, f)) {
            ring.push_front(m);
        } else {
            let at = ring.partition_point(|e| SchedKey::new(prefix, e) < key);
            ring.insert(at, m);
        }
        self.len += 1;
    }

    /// Removes the entry filed under `key`, if any.
    fn remove(&mut self, key: SchedKey) -> Option<QueuedMeta> {
        let ring = self.rings.get_mut(&key.prefix)?;
        let at = ring
            .binary_search_by(|e| SchedKey::new(key.prefix, e).cmp(&key))
            .ok()?;
        let m = ring.remove(at);
        if ring.is_empty() {
            self.rings.remove(&key.prefix);
        }
        self.len -= 1;
        m
    }

    /// The entry with the least key.
    fn front(&self) -> Option<(SchedKey, &QueuedMeta)> {
        let (&prefix, ring) = self.rings.first_key_value()?;
        ring.front().map(|m| (SchedKey::new(prefix, m), m))
    }

    /// Removes the entry with the least key.
    fn pop_first(&mut self) -> Option<QueuedMeta> {
        let mut first = self.rings.first_entry()?;
        let m = first.get_mut().pop_front();
        if first.get().is_empty() {
            first.remove();
        }
        self.len -= 1;
        m
    }

    /// The entries with their keys, in key order.
    fn iter(&self) -> impl Iterator<Item = (SchedKey, &QueuedMeta)> {
        self.rings
            .iter()
            .flat_map(|(&p, ring)| ring.iter().map(move |m| (SchedKey::new(p, m), m)))
    }

    /// Refiles every entry under the prefix `prefix` gives it.
    fn rekey(&mut self, prefix: impl Fn(&QueuedMeta) -> Prefix) {
        for m in std::mem::take(self).rings.into_values().flatten() {
            self.insert(prefix(&m), m);
        }
    }
}

/// The one incremental admission index, for every policy: per-tenant
/// queues for cap-gated fresh arrivals, one queue for re-admitted
/// (cap-exempt) work, and a parked set for crash-retry backoffs.
/// [`pop_next`](Scheduler::pop_next) takes the key-minimum over the front
/// of each queue whose tenant has cap headroom — O(tenants · log prefixes),
/// never O(backlog) — which reproduces the oracle's sort-the-eligible-set
/// order exactly:
///
/// * within a queue, entries pop in key order;
/// * across queues, the global front minimum is the sorted head;
/// * tenants at their cap only ever *lose* headroom during an admission
///   round (admissions fill caps; completions happen between rounds), so
///   skipping their queues at pop time equals the oracle's filter-then-sort
///   with its mid-round re-check.
///
/// The order is that of the latest time passed to
/// [`advance`](Scheduler::advance) (times need not be monotone; the index
/// keeps the latest), and every entry is keyed as of that time and the
/// ratio of the last re-key. Parked entries (backoff after that time) are
/// outside the order; they were all admitted once, so once due they join
/// the re-admit queue and bypass cap gating exactly like the oracle's
/// `admitted_once` test.
#[derive(Debug)]
pub struct Scheduler {
    policy: PolicyKind,
    fresh: BTreeMap<u32, Rings>,
    readmit: Rings,
    /// Crash-retry backoffs: `(eligible_after, id)` → meta.
    parked: BTreeMap<(SimTime, u64), QueuedMeta>,
    /// Promotion deadlines of un-aged `sjf+aging` entries: `(enqueued +
    /// 60 s, id)` → the entry's key and queue (`None` is the re-admit
    /// queue).
    promotions: BTreeMap<(SimTime, u64), (SchedKey, Option<u32>)>,
    /// The latest time passed to `advance`.
    now: SimTime,
    /// Orca EWMA of output/prompt across completions (warm-start 1.0).
    ratio: f64,
    /// The ratio the filed keys were computed at.
    keyed_ratio: f64,
}

impl Scheduler {
    /// An empty index ordering by `policy`.
    pub fn new(policy: PolicyKind) -> Self {
        Scheduler {
            policy,
            fresh: BTreeMap::new(),
            readmit: Rings::default(),
            parked: BTreeMap::new(),
            promotions: BTreeMap::new(),
            now: SimTime::ZERO,
            ratio: 1.0,
            keyed_ratio: 1.0,
        }
    }

    /// The policy this index orders by.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Requests currently indexed, parked ones included.
    #[cfg(test)]
    fn len(&self) -> usize {
        let fresh: usize = self.fresh.values().map(|q| q.len).sum();
        fresh + self.readmit.len + self.parked.len()
    }

    /// The queue `m` files into: its tenant's, unless it was admitted
    /// before (`None`, the re-admit queue).
    fn queue_of(m: &QueuedMeta) -> Option<u32> {
        (!m.admitted_once).then_some(m.tenant)
    }

    fn queue_mut(&mut self, queue: Option<u32>) -> &mut Rings {
        match queue {
            None => &mut self.readmit,
            Some(tenant) => self.fresh.entry(tenant).or_default(),
        }
    }

    /// The key `m` files under at the index's time and keyed ratio.
    fn key(&self, m: &QueuedMeta) -> SchedKey {
        SchedKey::new(self.policy.prefix(m, self.now, self.keyed_ratio), m)
    }

    /// Adds a queued request: parked while its backoff lasts, else filed in
    /// its queue.
    pub fn insert(&mut self, m: QueuedMeta) {
        if m.eligible_after > self.now {
            self.parked.insert((m.eligible_after, m.id), m);
        } else {
            self.file(m);
        }
    }

    fn file(&mut self, m: QueuedMeta) {
        let key = self.key(&m);
        let queue = Self::queue_of(&m);
        if let Some(due) = self.policy.promotion(&m, key.prefix) {
            self.promotions.insert((due, m.id), (key, queue));
        }
        self.queue_mut(queue).insert(key.prefix, m);
    }

    /// Removes a queued request that left for good (deadline timeout);
    /// returns whether it was indexed.
    pub fn remove(&mut self, m: &QueuedMeta) -> bool {
        self.parked.remove(&(m.eligible_after, m.id)).is_some() || {
            let key = self.key(m);
            if let Some(due) = self.policy.promotion(m, key.prefix) {
                self.promotions.remove(&(due, m.id));
            }
            let queue = match Self::queue_of(m) {
                None => Some(&mut self.readmit),
                Some(tenant) => self.fresh.get_mut(&tenant),
            };
            queue.and_then(|q| q.remove(key)).is_some()
        }
    }

    /// Brings the order up to `now`: re-keys every entry if the learned
    /// ratio moved, files the parked entries whose backoff has expired, and
    /// promotes the `sjf+aging` entries that have waited long enough.
    pub fn advance(&mut self, now: SimTime) {
        self.now = self.now.max(now);
        if self.ratio.to_bits() != self.keyed_ratio.to_bits() {
            // Only Orca learns, and it never promotes, so `promotions`
            // holds no key this changes.
            self.keyed_ratio = self.ratio;
            let (policy, now, ratio) = (self.policy, self.now, self.ratio);
            for q in std::iter::once(&mut self.readmit).chain(self.fresh.values_mut()) {
                q.rekey(|m| policy.prefix(m, now, ratio));
            }
        }
        while let Some(due) = self.parked.first_entry() {
            if due.key().0 > self.now {
                break;
            }
            let m = due.remove();
            self.file(m);
        }
        while let Some(due) = self.promotions.first_entry() {
            if due.key().0 > self.now {
                break;
            }
            let (key, queue) = due.remove();
            let (policy, now, ratio) = (self.policy, self.now, self.keyed_ratio);
            let q = self.queue_mut(queue);
            let m = q
                .remove(key)
                .expect("every promotion deadline tracks a filed, un-aged entry");
            q.insert(policy.prefix(&m, now, ratio), m);
        }
    }

    /// The earliest time to which [`advance`](Scheduler::advance) would
    /// move the order (`None`: none, until an update): at once if the
    /// learned ratio has moved since the last re-key, else when the first
    /// backoff or promotion falls due. Advancing to any earlier time leaves
    /// the order as it is.
    pub fn next_move(&self) -> Option<SimTime> {
        if self.ratio.to_bits() != self.keyed_ratio.to_bits() {
            return Some(SimTime::ZERO);
        }
        let promotion = self.promotions.first_key_value().map(|(&(due, _), _)| due);
        self.next_parked().into_iter().chain(promotion).min()
    }

    /// The key-least entry `pick` chooses from the re-admit queue and from
    /// each queue whose tenant has cap headroom, with that queue.
    fn best<'a>(
        &'a self,
        caps: &AdmissionController,
        pick: impl Fn(&'a Rings) -> Option<(SchedKey, &'a QueuedMeta)>,
    ) -> Option<(SchedKey, &'a QueuedMeta, Option<u32>)> {
        let mut best = pick(&self.readmit).map(|(k, m)| (k, m, None));
        for (&tenant, q) in &self.fresh {
            if q.len == 0 || !caps.eligible(tenant) {
                continue;
            }
            if let Some((k, m)) = pick(q) {
                if best.is_none_or(|(b, _, _)| k < b) {
                    best = Some((k, m, Some(tenant)));
                }
            }
        }
        best
    }

    /// Selects the eligible request the policy ranks first and removes it
    /// only if its [`QueuedMeta::context_tokens`] is below `context_limit`
    /// (the gateway passes the free KV tokens, since an admission also
    /// needs room for its first decoded token; `u64::MAX` pops
    /// unconditionally). A head at or above the limit is reported as
    /// [`Pop::Blocked`] and stays indexed where it was. Does not consume
    /// cap headroom — the gateway records the admission against `caps`
    /// itself.
    pub fn pop_next(&mut self, caps: &AdmissionController, context_limit: u64) -> Pop {
        let Some((key, m, queue)) = self.best(caps, Rings::front) else {
            return Pop::Empty;
        };
        if m.context_tokens() >= context_limit {
            return Pop::Blocked;
        }
        let m = self
            .queue_mut(queue)
            .pop_first()
            .expect("`best` read this queue's front, so it is non-empty");
        if let Some(due) = self.policy.promotion(&m, key.prefix) {
            self.promotions.remove(&(due, m.id));
        }
        Pop::Popped(m)
    }

    /// Earliest `eligible_after` among requests still parked on a crash
    /// backoff.
    pub fn next_parked(&self) -> Option<SimTime> {
        self.parked.first_key_value().map(|((due, _), _)| *due)
    }

    /// [`QueuedMeta::context_tokens`] of the first request, in the order
    /// `pop_next` uses, whose tenant has cap headroom and whose context is
    /// below `context_limit`: the head `pop_next` would reach if every
    /// entry at or above the limit were skipped. Parked requests are not
    /// in the order. O(tenants + skipped).
    pub fn first_context(&self, caps: &AdmissionController, context_limit: u64) -> Option<u64> {
        self.best(caps, |q| {
            q.iter().find(|(_, m)| m.context_tokens() < context_limit)
        })
        .map(|(_, m, _)| m.context_tokens())
    }

    /// [`QueuedMeta::context_tokens`] of the head
    /// [`pop_next`](Scheduler::pop_next) would see, if any.
    pub fn head_context(&self, caps: &AdmissionController) -> Option<u64> {
        self.best(caps, Rings::front)
            .map(|(_, m, _)| m.context_tokens())
    }

    /// Feedback hook: a request with `prompt` prompt tokens finished after
    /// generating `output` tokens. Orca learns its ratio from this; the
    /// next `advance` re-keys.
    pub fn observe_completion(&mut self, prompt: u64, output: u64) {
        if self.policy != PolicyKind::Orca {
            return;
        }
        let observed = output as f64 / prompt.max(1) as f64;
        self.ratio = (1.0 - ORCA_ALPHA) * self.ratio + ORCA_ALPHA * observed;
    }
}

/// The result of one [`Scheduler::pop_next`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop {
    /// The head fit the context limit and left the index.
    Popped(QueuedMeta),
    /// The head does not fit the context limit; the index is unchanged.
    Blocked,
    /// No queued request is eligible.
    Empty,
}

/// The sort-based reference policies the incremental index must match
/// order-for-order, ties included.
///
/// These are the original `prioritize(&mut [QueuedMeta])` implementations;
/// the serving path no longer calls them, but they stay as the executable
/// specification: the differential tests in this module drain a
/// [`Scheduler`] against the corresponding oracle sort and require
/// identical sequences.
#[cfg(test)]
mod oracle {
    use super::QueuedMeta;
    use aqua_sim::time::{SimDuration, SimTime};

    /// A sort-based reference ordering.
    pub trait SortScheduler {
        /// Policy name as it appears in tables and trace events.
        fn name(&self) -> &'static str;

        /// Reorders `queue` so the next request to admit is first.
        fn prioritize(&mut self, queue: &mut [QueuedMeta], now: SimTime);

        /// Feedback hook mirroring [`super::Scheduler::observe_completion`].
        fn observe_completion(&mut self, _prompt: u64, _output: u64) {}
    }

    /// First-come first-served reference: `(enqueued, id)`.
    #[derive(Debug, Default)]
    pub struct Fcfs;

    impl SortScheduler for Fcfs {
        fn name(&self) -> &'static str {
            "fcfs"
        }

        fn prioritize(&mut self, queue: &mut [QueuedMeta], _now: SimTime) {
            queue.sort_by_key(|m| (m.enqueued, m.id));
        }
    }

    /// Pure shortest-job-first reference: `(remaining, enqueued, id)`.
    #[derive(Debug, Default)]
    pub struct Sjf;

    impl SortScheduler for Sjf {
        fn name(&self) -> &'static str {
            "sjf"
        }

        fn prioritize(&mut self, queue: &mut [QueuedMeta], _now: SimTime) {
            queue.sort_by_key(|m| {
                (
                    m.output_tokens.saturating_sub(m.generated),
                    m.enqueued,
                    m.id,
                )
            });
        }
    }

    /// Bucketed-SJF reference: `(remaining / bucket, enqueued, id)`.
    #[derive(Debug)]
    pub struct SjfBucket {
        /// Bucket width in tokens.
        pub bucket: u64,
    }

    impl Default for SjfBucket {
        fn default() -> Self {
            SjfBucket { bucket: 64 }
        }
    }

    impl SortScheduler for SjfBucket {
        fn name(&self) -> &'static str {
            "sjf+bucket"
        }

        fn prioritize(&mut self, queue: &mut [QueuedMeta], _now: SimTime) {
            let bucket = self.bucket.max(1);
            queue.sort_by_key(|m| {
                (
                    m.output_tokens.saturating_sub(m.generated) / bucket,
                    m.enqueued,
                    m.id,
                )
            });
        }
    }

    /// Aging reference: waited ≥ threshold → `(0, 0, enqueued, id)`, else
    /// `(1, remaining, enqueued, id)`.
    #[derive(Debug)]
    pub struct SjfAging {
        /// Waiting time after which a request is promoted.
        pub promote_after: SimDuration,
    }

    impl Default for SjfAging {
        fn default() -> Self {
            SjfAging {
                promote_after: SimDuration::from_secs(60),
            }
        }
    }

    impl SortScheduler for SjfAging {
        fn name(&self) -> &'static str {
            "sjf+aging"
        }

        fn prioritize(&mut self, queue: &mut [QueuedMeta], now: SimTime) {
            let promote = self.promote_after;
            queue.sort_by_key(|m| {
                let aged = now.duration_since(m.enqueued) >= promote;
                if aged {
                    // Aged requests first, FCFS among themselves.
                    (0u8, 0u64, m.enqueued, m.id)
                } else {
                    (
                        1u8,
                        m.output_tokens.saturating_sub(m.generated),
                        m.enqueued,
                        m.id,
                    )
                }
            });
        }
    }

    /// Orca reference: `(predict(m), enqueued, id)` with an EWMA'd
    /// output/prompt ratio.
    #[derive(Debug)]
    pub struct OrcaPredict {
        ratio: f64,
        alpha: f64,
    }

    impl Default for OrcaPredict {
        fn default() -> Self {
            OrcaPredict {
                ratio: 1.0,
                alpha: 0.1,
            }
        }
    }

    impl OrcaPredict {
        /// Predicted remaining output tokens for one queue entry.
        pub(super) fn predict(&self, m: &QueuedMeta) -> u64 {
            super::orca_predict(self.ratio, m)
        }

        /// The current learned output/prompt ratio.
        pub(super) fn learned_ratio(&self) -> f64 {
            self.ratio
        }
    }

    impl SortScheduler for OrcaPredict {
        fn name(&self) -> &'static str {
            "orca"
        }

        fn prioritize(&mut self, queue: &mut [QueuedMeta], _now: SimTime) {
            // Keys are cached per element and the sort permutes in place —
            // the previous version cloned the queue twice per call (a
            // predictions vec plus a reordered copy).
            let ratio = self.ratio;
            queue.sort_by_cached_key(|m| (super::orca_predict(ratio, m), m.enqueued, m.id));
        }

        fn observe_completion(&mut self, prompt: u64, output: u64) {
            let observed = output as f64 / prompt.max(1) as f64;
            self.ratio = (1.0 - self.alpha) * self.ratio + self.alpha * observed;
        }
    }
}

/// The policy zoo as a value type, for CLI flags and experiment fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-come first-served.
    Fcfs,
    /// Pure shortest-job-first on declared remaining output.
    Sjf,
    /// SJF on 64-token buckets of remaining output, FCFS within a bucket.
    SjfBucket,
    /// SJF, except that a request waiting 60 s is promoted ahead of every
    /// un-promoted one (FCFS among the promoted).
    SjfAging,
    /// Orca-style remaining-length prediction from an EWMA of observed
    /// output/prompt ratios.
    Orca,
}

impl PolicyKind {
    /// Every policy, in table order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Fcfs,
        PolicyKind::Sjf,
        PolicyKind::SjfBucket,
        PolicyKind::SjfAging,
        PolicyKind::Orca,
    ];

    /// The prefix `m` files under at `now`, given Orca's learned `ratio`.
    fn prefix(self, m: &QueuedMeta, now: SimTime, ratio: f64) -> Prefix {
        match self {
            PolicyKind::Fcfs => (0, 0),
            PolicyKind::Sjf => (0, m.remaining()),
            PolicyKind::SjfBucket => (0, m.remaining() / SJF_BUCKET),
            PolicyKind::SjfAging if now.duration_since(m.enqueued) >= AGING_PROMOTE => (0, 0),
            PolicyKind::SjfAging => (1, m.remaining()),
            PolicyKind::Orca => (0, orca_predict(ratio, m)),
        }
    }

    /// When `m`, filed under `prefix`, moves to the promoted prefix: only
    /// an un-aged `sjf+aging` entry (class 1) ever does.
    fn promotion(self, m: &QueuedMeta, prefix: Prefix) -> Option<SimTime> {
        (self == PolicyKind::SjfAging && prefix.0 == 1).then(|| m.enqueued + AGING_PROMOTE)
    }

    /// Instantiates the sort-based `oracle` reference for this policy.
    #[cfg(test)]
    fn build_oracle(self) -> Box<dyn oracle::SortScheduler> {
        match self {
            PolicyKind::Fcfs => Box::new(oracle::Fcfs),
            PolicyKind::Sjf => Box::new(oracle::Sjf),
            PolicyKind::SjfBucket => Box::new(oracle::SjfBucket::default()),
            PolicyKind::SjfAging => Box::new(oracle::SjfAging::default()),
            PolicyKind::Orca => Box::new(oracle::OrcaPredict::default()),
        }
    }

    /// The policy's table/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::Sjf => "sjf",
            PolicyKind::SjfBucket => "sjf+bucket",
            PolicyKind::SjfAging => "sjf+aging",
            PolicyKind::Orca => "orca",
        }
    }

    /// Parses a CLI name back into a policy.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64, enqueued_s: u64, output: u64) -> QueuedMeta {
        QueuedMeta {
            id,
            tenant: 0,
            enqueued: SimTime::from_secs(enqueued_s),
            prompt_tokens: 100,
            output_tokens: output,
            generated: 0,
            admitted_once: false,
            eligible_after: SimTime::ZERO,
            handle: id as u32,
        }
    }

    /// `m` back in the queue after `generated` tokens (a preemption or, with
    /// a backoff, a crash retry), cap-exempt and parked until
    /// `eligible_after`.
    fn requeued(m: QueuedMeta, generated: u64, eligible_after: SimTime) -> QueuedMeta {
        QueuedMeta {
            generated,
            admitted_once: true,
            eligible_after,
            ..m
        }
    }

    /// Pops the head whatever its context (no KV limit).
    fn pop(s: &mut Scheduler, caps: &AdmissionController) -> Option<QueuedMeta> {
        match s.pop_next(caps, u64::MAX) {
            Pop::Popped(m) => Some(m),
            Pop::Blocked => unreachable!("nothing blocks an unlimited pop"),
            Pop::Empty => None,
        }
    }

    /// Feeds `queue` into a fresh index and drains it at `now` with an
    /// effectively uncapped controller.
    fn drain_order(policy: PolicyKind, queue: &[QueuedMeta], now: SimTime) -> Vec<u64> {
        let caps = AdmissionController::new(usize::MAX >> 1);
        let mut s = Scheduler::new(policy);
        for m in queue {
            s.advance(m.enqueued.min(now));
            s.insert(m.clone());
        }
        s.advance(now);
        let mut order = Vec::new();
        while let Some(m) = pop(&mut s, &caps) {
            order.push(m.id);
        }
        assert_eq!(s.len(), 0);
        order
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let q = vec![meta(2, 5, 10), meta(1, 1, 500), meta(3, 3, 50)];
        assert_eq!(
            drain_order(PolicyKind::Fcfs, &q, SimTime::from_secs(5)),
            vec![1, 3, 2]
        );
    }

    #[test]
    fn sjf_orders_by_remaining_output() {
        let q = vec![meta(1, 1, 500), meta(2, 5, 10), meta(3, 3, 50)];
        assert_eq!(
            drain_order(PolicyKind::Sjf, &q, SimTime::from_secs(5)),
            vec![2, 3, 1]
        );
        // A preempted request competes with its remaining length.
        let preempted = requeued(meta(4, 0, 500), 495, SimTime::ZERO);
        let q = vec![meta(1, 1, 500), preempted];
        assert_eq!(
            drain_order(PolicyKind::Sjf, &q, SimTime::from_secs(1)),
            vec![4, 1]
        );
    }

    #[test]
    fn bucketing_keeps_near_equal_jobs_fcfs() {
        // 40 and 50 share the 64-token bucket: FCFS between them; 500 last.
        let q = vec![meta(1, 1, 500), meta(2, 5, 40), meta(3, 3, 50)];
        assert_eq!(
            drain_order(PolicyKind::SjfBucket, &q, SimTime::from_secs(5)),
            vec![3, 2, 1]
        );
    }

    #[test]
    fn aging_promotes_starved_requests() {
        // At t=75 the long job has waited 75 s > 60 s: it jumps the queue.
        let q = vec![meta(1, 0, 500), meta(2, 70, 10)];
        assert_eq!(
            drain_order(PolicyKind::SjfAging, &q, SimTime::from_secs(75)),
            vec![1, 2]
        );
        // At t=30 nothing is aged: plain SJF.
        let q = vec![meta(1, 0, 500), meta(2, 7, 10)];
        assert_eq!(
            drain_order(PolicyKind::SjfAging, &q, SimTime::from_secs(30)),
            vec![2, 1]
        );
    }

    #[test]
    fn aging_promotes_when_the_index_advances() {
        let caps = AdmissionController::new(64);
        let mut s = Scheduler::new(PolicyKind::SjfAging);
        s.insert(meta(1, 0, 500));
        s.advance(SimTime::from_secs(1));
        s.insert(meta(2, 1, 10));
        // Before the threshold the short job wins; after it, the starved
        // long job has been promoted past it.
        assert!(
            s.next_move() > Some(SimTime::from_secs(30)),
            "no promotion is due"
        );
        s.advance(SimTime::from_secs(30));
        assert_eq!(pop(&mut s, &caps).unwrap().id, 2);
        s.advance(SimTime::from_secs(31));
        s.insert(meta(3, 31, 10));
        assert!(
            s.next_move() <= Some(SimTime::from_secs(61)),
            "the promotion moves the order"
        );
        s.advance(SimTime::from_secs(61));
        assert_eq!(s.first_context(&caps, u64::MAX), Some(100));
        assert_eq!(pop(&mut s, &caps).unwrap().id, 1);
        assert_eq!(pop(&mut s, &caps).unwrap().id, 3);
    }

    #[test]
    fn orca_learns_from_completions() {
        let mut orca = oracle::OrcaPredict::default();
        // After observing many tiny outputs the ratio collapses and the
        // prediction shrinks toward the floor.
        for _ in 0..100 {
            oracle::SortScheduler::observe_completion(&mut orca, 1000, 1);
        }
        assert!(orca.learned_ratio() < 0.01);
        let m = meta(9, 0, 1);
        assert_eq!(orca.predict(&m), 1);

        // Warm start predicts output == prompt, so ordering follows
        // prompts; the index re-keys when the ratio drifts.
        let caps = AdmissionController::new(64);
        let mut s = Scheduler::new(PolicyKind::Orca);
        let mut short_prompt = meta(1, 1, 999);
        short_prompt.prompt_tokens = 10;
        let mut long_prompt = meta(2, 0, 1);
        long_prompt.prompt_tokens = 1000;
        s.advance(SimTime::from_secs(1));
        s.insert(long_prompt.clone());
        s.insert(short_prompt.clone());
        assert_eq!(
            pop(&mut s, &caps).unwrap().id,
            1,
            "warm start orders by prompt length"
        );
        // Drift the ratio far down: the long prompt's prediction collapses
        // to the floor, where its earlier arrival puts it first.
        s.insert(short_prompt);
        for _ in 0..100 {
            s.observe_completion(1000, 1);
        }
        assert_eq!(s.next_move(), Some(SimTime::ZERO), "the re-key is due");
        s.advance(SimTime::from_secs(2));
        assert_eq!(pop(&mut s, &caps).unwrap().id, 2);
        assert_eq!(pop(&mut s, &caps).unwrap().id, 1);
    }

    #[test]
    fn zoo_roundtrips_names() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
            assert_eq!(p.build_oracle().name(), p.name());
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(PolicyKind::parse("lifo"), None);
    }

    #[test]
    fn orderings_are_deterministic_on_ties() {
        for p in PolicyKind::ALL {
            let a = vec![meta(3, 1, 10), meta(1, 1, 10), meta(2, 1, 10)];
            let b = vec![meta(2, 1, 10), meta(3, 1, 10), meta(1, 1, 10)];
            let now = SimTime::from_secs(2);
            let oa = drain_order(p, &a, now);
            let ob = drain_order(p, &b, now);
            assert_eq!(oa, ob, "{p}: ties must break identically");
            assert_eq!(oa, vec![1, 2, 3], "{p}: id is the final tie-breaker");
        }
    }

    #[test]
    fn caps_gate_fresh_but_not_requeued_work() {
        let mut caps = AdmissionController::new(1);
        caps.on_admit(0); // tenant 0 at cap
        let mut s = Scheduler::new(PolicyKind::Fcfs);
        s.insert(meta(1, 0, 10)); // tenant 0, gated
        s.advance(SimTime::from_secs(1));
        s.insert(requeued(meta(2, 0, 10), 3, SimTime::ZERO)); // cap-exempt
        assert_eq!(pop(&mut s, &caps).unwrap().id, 2);
        assert!(pop(&mut s, &caps).is_none(), "tenant 0 is capped");
        assert_eq!(s.first_context(&caps, u64::MAX), None, "no admissible work");
        assert_eq!(s.next_parked(), None, "nothing parked either");
        caps.on_complete(0);
        assert_eq!(s.first_context(&caps, u64::MAX), Some(100));
        assert_eq!(s.first_context(&caps, 100), None, "nothing below 100");
        assert_eq!(pop(&mut s, &caps).unwrap().id, 1);
    }

    #[test]
    fn parked_entries_wait_out_their_backoff() {
        let caps = AdmissionController::new(8);
        let mut s = Scheduler::new(PolicyKind::Sjf);
        s.advance(SimTime::from_secs(2));
        s.insert(requeued(meta(7, 0, 50), 5, SimTime::from_secs(10)));
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.next_move(),
            Some(SimTime::from_secs(10)),
            "the backoff expires at 10 s"
        );
        s.advance(SimTime::from_secs(9));
        assert!(pop(&mut s, &caps).is_none());
        assert_eq!(
            s.next_parked(),
            Some(SimTime::from_secs(10)),
            "parked work still counts as work"
        );
        assert_eq!(
            s.first_context(&caps, u64::MAX),
            None,
            "but is not in the order"
        );
        s.advance(SimTime::from_secs(10));
        assert_eq!(s.next_parked(), None);
        assert_eq!(s.first_context(&caps, u64::MAX), Some(105));
        assert_eq!(pop(&mut s, &caps).unwrap().id, 7);
    }

    #[test]
    fn remove_finds_entries_in_every_region() {
        let caps = AdmissionController::new(8);
        let mut s = Scheduler::new(PolicyKind::SjfAging);
        let fresh = meta(1, 0, 10);
        let readmit = requeued(meta(2, 0, 10), 0, SimTime::ZERO);
        let parked = requeued(meta(3, 0, 10), 0, SimTime::from_secs(9));
        for m in [&fresh, &readmit, &parked] {
            s.insert(m.clone());
        }
        assert_eq!(s.len(), 3);
        assert!(s.remove(&fresh));
        assert!(s.remove(&readmit));
        assert!(s.remove(&parked));
        assert!(!s.remove(&parked));
        assert_eq!(s.len(), 0);
        // The removals took their promotion deadlines too.
        assert_eq!(s.next_move(), None);
        assert!(pop(&mut s, &caps).is_none());
    }

    /// The live requests `pop_next` may take at `now`: cap headroom or
    /// admitted before, backoff expired.
    fn eligible(live: &[QueuedMeta], caps: &AdmissionController, now: SimTime) -> Vec<QueuedMeta> {
        live.iter()
            .filter(|m| (m.admitted_once || caps.eligible(m.tenant)) && m.eligible_after <= now)
            .cloned()
            .collect()
    }

    /// `first_context` at `limit` is the context of the first eligible
    /// request, in oracle order at `now`, whose context is below `limit`.
    fn assert_first_context(
        index: &Scheduler,
        oracle: &mut dyn oracle::SortScheduler,
        live: &[QueuedMeta],
        caps: &AdmissionController,
        now: SimTime,
        limit: u64,
        at: &str,
    ) {
        let mut order = eligible(live, caps, now);
        oracle.prioritize(&mut order, now);
        assert_eq!(
            index.first_context(caps, limit),
            order
                .iter()
                .map(QueuedMeta::context_tokens)
                .find(|&c| c < limit),
            "{}: first_context {at}",
            index.policy()
        );
        assert_eq!(
            index.head_context(caps),
            order.first().map(QueuedMeta::context_tokens),
            "{}: head_context {at}",
            index.policy()
        );
    }

    /// The differential harness: applies one scripted op sequence to the
    /// incremental index and replays the drain against the sort-based
    /// oracle (re-filtering and re-sorting the live set before *every*
    /// pop, caps and backoffs included), requiring identical id sequences.
    /// The index is advanced to every time the script moves to, as the
    /// gateway does, and `first_context` must match the oracle right after
    /// a completion moves the learned ratio, after every pop and after the
    /// drain's 20 s jumps.
    ///
    /// Every `blocked_every`-th pop (never if 0) is preceded by a blocked
    /// round: a `pop_next` whose context limit is the oracle head's own
    /// context, which must report `Blocked` and change nothing. Each real
    /// pop passes the tightest limit the head fits.
    fn check_against_oracle(
        policy: PolicyKind,
        ops: &[(u64, u64, u64, u32, u64)],
        cap: usize,
        blocked_every: usize,
    ) {
        let mut index = Scheduler::new(policy);
        let mut oracle = policy.build_oracle();
        let mut live: Vec<QueuedMeta> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let uncapped = AdmissionController::new(usize::MAX >> 1);

        for &(kind, a, b, tenant, dt) in ops {
            now += SimDuration::from_millis(dt);
            index.advance(now);
            let m = QueuedMeta {
                id: next_id,
                tenant,
                enqueued: now,
                prompt_tokens: a.max(1),
                output_tokens: b,
                generated: 0,
                admitted_once: false,
                eligible_after: SimTime::ZERO,
                handle: next_id as u32,
            };
            match kind % 4 {
                // Fresh arrival.
                0 => {
                    next_id += 1;
                    index.insert(m.clone());
                    live.push(m);
                }
                // Crash/preemption re-queue of an admitted request, with a
                // backoff of `b % 30` seconds (possibly zero).
                1 => {
                    next_id += 1;
                    let m = requeued(
                        QueuedMeta {
                            output_tokens: b.max(2),
                            ..m
                        },
                        b.max(2) / 2,
                        now + SimDuration::from_secs(b % 30),
                    );
                    index.insert(m.clone());
                    live.push(m);
                }
                // Completion feedback (moves Orca's ratio → re-key at the
                // next advance, as the gateway's step end does).
                2 => {
                    index.observe_completion(a.max(1), b);
                    oracle.observe_completion(a.max(1), b);
                    index.advance(now);
                    assert_first_context(
                        &index,
                        oracle.as_mut(),
                        &live,
                        &uncapped,
                        now,
                        a,
                        "after a completion",
                    );
                }
                // Deadline-style removal of a random live entry.
                _ => {
                    if !live.is_empty() {
                        let e = live.remove((a as usize) % live.len());
                        assert!(
                            index.remove(&e),
                            "{policy}: indexed entry must be removable"
                        );
                    }
                }
            }
        }

        // Drain with capped tenants: both sides observe the same
        // mid-drain cap fills.
        now += SimDuration::from_secs(3);
        index.advance(now);
        let mut caps = AdmissionController::new(cap);
        let mut round = 0usize;
        loop {
            // Reference: filter the live set exactly like the engine's old
            // round-start scan, sort, take the head.
            let mut order = eligible(&live, &caps, now);
            oracle.prioritize(&mut order, now);
            let expect = order.first().map(|m| m.id);
            let head_ctx = order.first().map(|m| m.context_tokens());

            // Nothing eligible is below the least eligible context, and the
            // first entry at most that context has it.
            assert_eq!(
                index.first_context(&caps, u64::MAX),
                head_ctx,
                "{policy}: head"
            );
            if let Some(min) = order.iter().map(QueuedMeta::context_tokens).min() {
                assert_eq!(index.first_context(&caps, min), None, "{policy}: below min");
                assert_eq!(
                    index.first_context(&caps, min + 1),
                    Some(min),
                    "{policy}: min"
                );
            }
            // Parked work counts through `next_parked`.
            assert_eq!(
                index.next_parked(),
                live.iter()
                    .filter(|m| m.eligible_after > now)
                    .map(|m| m.eligible_after)
                    .min(),
                "{policy}: next_parked"
            );

            if blocked_every > 0 && round.is_multiple_of(blocked_every) {
                let len = index.len();
                let got = index.pop_next(&caps, head_ctx.unwrap_or(0));
                let want = if expect.is_some() {
                    Pop::Blocked
                } else {
                    Pop::Empty
                };
                assert_eq!(got, want, "{policy}: blocked round");
                assert_eq!(index.len(), len, "{policy}: a blocked round pops nothing");
            }
            round += 1;

            let got = match index.pop_next(&caps, head_ctx.map_or(u64::MAX, |c| c + 1)) {
                Pop::Popped(m) => Some(m),
                Pop::Blocked => panic!("{policy}: the head fits its own context plus one"),
                Pop::Empty => None,
            };
            assert_eq!(
                got.as_ref().map(|m| m.id),
                expect,
                "{policy}: admission order diverged from the oracle"
            );
            let Some(m) = got else { break };
            assert_eq!(m.handle, m.id as u32, "{policy}: the handle rides along");

            let at = live.iter().position(|e| e.id == m.id).unwrap();
            let e = live.remove(at);
            if !e.admitted_once {
                caps.on_admit(e.tenant);
            }

            // `first_context` walks the order this pop left, skipping
            // entries at or above a limit (here the popped context).
            let limit = m.context_tokens();
            assert_first_context(
                &index,
                oracle.as_mut(),
                &live,
                &caps,
                now,
                limit,
                "after a pop",
            );

            // Occasionally advance time mid-drain so aging promotions and
            // backoff expiries land between pops too.
            if m.id % 5 == 0 {
                now += SimDuration::from_secs(20);
                index.advance(now);
                assert_first_context(
                    &index,
                    oracle.as_mut(),
                    &live,
                    &caps,
                    now,
                    limit,
                    "after a 20 s jump",
                );
            }
        }
        assert_eq!(
            index.len(),
            live.len(),
            "{policy}: leftover (capped/parked) counts must agree"
        );
    }

    aqua_sim::check! {
        #![cases(8)]

        // The tentpole invariant: under random arrivals, completions,
        // crash re-queues, removals, aging promotions and KV-blocked heads,
        // every policy's incremental index admits in exactly the
        // sort-based oracle's order — ties, caps and backoffs included.
        #[test]
        fn incremental_index_matches_sort_oracle(
            ops in aqua_sim::check::vec(
                (0u64..8, 1u64..400, 1u64..200, 0u32..3, 0u64..70_000),
                1..48,
            ),
            policy_idx in 0usize..5,
            cap in 1usize..4,
            blocked_every in 0usize..3,
        ) {
            check_against_oracle(PolicyKind::ALL[policy_idx], &ops, cap, blocked_every);
        }
    }

    #[test]
    fn differential_regression_cases() {
        // Deterministic spot checks (independent of the property-test seeds):
        // interleaved tenants, zero-backoff requeues, post-drift inserts.
        let ops: Vec<(u64, u64, u64, u32, u64)> = vec![
            (0, 100, 50, 0, 10),
            (0, 10, 120, 1, 0),
            (1, 64, 40, 0, 5),
            (2, 100, 7, 0, 1),
            (0, 80, 64, 2, 61_000),
            (1, 32, 10, 1, 0),
            (3, 1, 0, 0, 0),
            (0, 500, 100, 0, 2),
        ];
        for p in PolicyKind::ALL {
            for cap in [1, 2, 8] {
                for blocked_every in [0, 1, 2] {
                    check_against_oracle(p, &ops, cap, blocked_every);
                }
            }
        }
    }
}
