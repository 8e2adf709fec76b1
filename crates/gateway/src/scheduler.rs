//! The decode-scheduler zoo, as incremental priority indices.
//!
//! Each policy answers one question: given the queue of admissible requests,
//! in what order should the gateway admit them into the continuous batch?
//! Until PR 8 the answer was computed by re-sorting the whole pending queue
//! every decode iteration — fine undersaturated, quadratic the moment
//! arrivals outrun service and the backlog grows. The [`Scheduler`] trait is
//! now an *incremental index*: the gateway notifies it on every queue
//! transition (`on_enqueue` / `on_requeue` / `on_remove`) and asks for the
//! single next request to admit (`pop_next`, which leaves a head that does
//! not fit the KV budget in place), and each policy maintains a
//! data structure whose per-admission cost is independent of backlog depth:
//!
//! | policy       | index                                   | per-op cost  |
//! |--------------|-----------------------------------------|--------------|
//! | `fcfs`       | arrival-ordered ring buffer             | O(1) amortized |
//! | `sjf`        | ordered map on remaining output         | O(log n)     |
//! | `sjf+bucket` | per-bucket FIFO rings                   | O(log B)     |
//! | `sjf+aging`  | SJF map + aged ring, deadline-wheel promotion | O(log n) |
//! | `orca`       | predicted-length map, epoch re-key on ratio drift | O(log n)* |
//!
//! (*) Orca re-keys the whole index when the learned ratio drifts — an
//! explicit epoch rebuild, amortized against how often completions move the
//! EWMA, instead of a hidden per-iteration sort.
//!
//! Every index reproduces the order of the sort-based reference policies in
//! `oracle` *exactly, including ties* (each ordering ends with
//! `(enqueued, id)` tie-breakers), which is what keeps experiment digests
//! byte-identical across the PR 8 → PR 9 engine rewrite. The differential
//! property test at the bottom of this file pins that equivalence under random
//! arrivals, completions, crash re-queues and aging promotions.

use crate::admission::AdmissionController;
use aqua_sim::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

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

/// Monotone per-thread count of [`SchedKey`] comparisons. Microbenchmarks
/// difference this around one operation to assert that admission work is
/// independent of backlog depth.
pub fn sched_comparisons() -> u64 {
    KEY_COMPARISONS.with(Cell::get)
}

/// The unified priority key every policy orders by: `(class, primary,
/// enqueued, id)`. `class` separates aged from un-aged work (0 for every
/// other policy), `primary` is the policy's priority (0 for FCFS), and the
/// `(enqueued, id)` suffix is the tie-breaker every ordering ends with, so
/// equal-priority requests keep a stable total order. Comparisons are
/// counted per thread (see [`sched_comparisons`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedKey {
    class: u8,
    primary: u64,
    enqueued: SimTime,
    id: u64,
}

impl Ord for SchedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        KEY_COMPARISONS.with(|c| c.set(c.get() + 1));
        (self.class, self.primary, self.enqueued, self.id).cmp(&(
            other.class,
            other.primary,
            other.enqueued,
            other.id,
        ))
    }
}

impl PartialOrd for SchedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A decode-admission ordering policy, driven incrementally.
///
/// The gateway mirrors every pending-queue transition into the index and
/// admits by repeatedly calling [`pop_next`](Scheduler::pop_next), which
/// returns the eligible request the policy ranks first. "Eligible" means
/// the request's tenant has admission-cap headroom (first-time admissions
/// only — re-queued work already holds its slot) and any crash-retry
/// backoff (`eligible_after`) has expired. Implementations must be
/// deterministic and must order exactly like the sort-based `oracle`
/// policies, ties included.
pub trait Scheduler {
    /// Policy name as it appears in tables and trace events.
    fn name(&self) -> &'static str;

    /// A fresh, never-admitted request entered the queue.
    fn on_enqueue(&mut self, m: QueuedMeta, now: SimTime);

    /// An admitted-once request returned to the queue (preemption or crash
    /// retry). It is not schedulable before `eligible_after`.
    fn on_requeue(&mut self, m: QueuedMeta, eligible_after: SimTime, now: SimTime);

    /// A queued request left the queue for good (deadline timeout).
    /// `admitted_once`/`eligible_after` locate it; returns whether it was
    /// indexed.
    fn on_remove(&mut self, m: &QueuedMeta, admitted_once: bool, eligible_after: SimTime) -> bool;

    /// Selects the eligible request the policy ranks first at `now` and
    /// removes it only if its [`QueuedMeta::context_tokens`] is below
    /// `context_limit` (the gateway passes the free KV tokens, since an
    /// admission also needs room for its first decoded token; `u64::MAX`
    /// pops unconditionally). A head at or above the limit is reported as
    /// [`Pop::Blocked`] and stays indexed where it was. Does not consume cap
    /// headroom — the gateway records the admission against `caps` itself.
    fn pop_next(&mut self, now: SimTime, caps: &AdmissionController, context_limit: u64) -> Pop;

    /// Earliest `eligible_after` among requests still parked on a crash
    /// backoff strictly in the future (as of the last `pop_next`).
    fn next_parked(&self) -> Option<SimTime>;

    /// Smallest [`QueuedMeta::context_tokens`] over requests whose tenant
    /// currently has cap headroom (backoff is ignored: parked work still
    /// counts as work). With monotone KV fit checks this answers "is any
    /// queued request admissible" without scanning the backlog.
    fn min_context(&self, caps: &AdmissionController) -> Option<u64>;

    /// [`QueuedMeta::context_tokens`] of the first request, in policy
    /// order, whose tenant has cap headroom and whose context is below
    /// `context_limit`: the head `pop_next` would reach if every entry at or
    /// above the limit were skipped. Reads the order the index held after
    /// the last `pop_next` (aging promotions and Orca re-keys due since
    /// then are not applied), so it matches `pop_next` only for policies
    /// whose order holds between rounds (FCFS, SJF, bucketed SJF), and it
    /// ignores parked backoffs. O(skipped).
    fn first_context(&self, caps: &AdmissionController, context_limit: u64) -> Option<u64>;

    /// Feedback hook: a request with `prompt` prompt tokens finished after
    /// generating `output` tokens. Predictive policies learn from this.
    fn observe_completion(&mut self, _prompt: u64, _output: u64) {}

    /// Requests currently indexed.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
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

/// Per-pop policy context: the current time (aging promotions) and the
/// Orca ratio (epoch re-keys). Cheap to build, passed by reference.
#[derive(Debug, Clone, Copy)]
struct QueueCtx {
    now: SimTime,
    ratio: f64,
}

/// One policy's backlog-independent container. [`TenantIndex`] keeps one
/// per tenant for cap-gated fresh arrivals plus one shared queue for
/// re-admissions, and takes a global minimum over their fronts.
trait PolicyQueue: Clone {
    fn insert(&mut self, m: QueuedMeta, ctx: &QueueCtx);
    /// Removes `m` (matched by its key); returns whether it was present.
    fn remove(&mut self, m: &QueuedMeta) -> bool;
    /// Applies lazy state transitions due at `ctx` (aging promotions, Orca
    /// epoch re-keys) so `peek` answers as the oracle would.
    fn advance(&mut self, ctx: &QueueCtx);
    /// The minimum entry and its key, without removing it.
    fn peek(&self) -> Option<(SchedKey, &QueuedMeta)>;
    /// The first entry in key order satisfying `pred`, and its key.
    fn find(&self, pred: &dyn Fn(&QueuedMeta) -> bool) -> Option<(SchedKey, &QueuedMeta)>;
    fn pop_min(&mut self) -> Option<QueuedMeta>;
    fn len(&self) -> usize;
}

/// An ordered ring buffer: O(1) at the ends (the common case — arrivals
/// carry nondecreasing `(enqueued, id)` keys), binary-search insert for the
/// rare out-of-order key. FCFS uses it directly; bucketed SJF and aging use
/// it per bucket / for the aged class.
#[derive(Debug, Clone, Default)]
struct FifoRing {
    ring: VecDeque<(SchedKey, QueuedMeta)>,
}

impl FifoRing {
    fn insert(&mut self, key: SchedKey, m: QueuedMeta) {
        if self.ring.back().is_none_or(|(k, _)| *k < key) {
            self.ring.push_back((key, m));
        } else if self.ring.front().is_some_and(|(k, _)| key < *k) {
            self.ring.push_front((key, m));
        } else {
            let at = self.ring.partition_point(|(k, _)| *k < key);
            self.ring.insert(at, (key, m));
        }
    }

    fn remove(&mut self, key: SchedKey) -> bool {
        match self.ring.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(at) => {
                self.ring.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    fn peek(&self) -> Option<(SchedKey, &QueuedMeta)> {
        self.ring.front().map(|(k, m)| (*k, m))
    }

    fn find(&self, pred: &dyn Fn(&QueuedMeta) -> bool) -> Option<(SchedKey, &QueuedMeta)> {
        self.ring
            .iter()
            .find(|(_, m)| pred(m))
            .map(|(k, m)| (*k, m))
    }

    fn pop_min(&mut self) -> Option<QueuedMeta> {
        self.ring.pop_front().map(|(_, m)| m)
    }

    fn len(&self) -> usize {
        self.ring.len()
    }
}

/// The first entry of a key-ordered map satisfying `pred`.
fn find_in_map<'a>(
    map: &'a BTreeMap<SchedKey, QueuedMeta>,
    pred: &dyn Fn(&QueuedMeta) -> bool,
) -> Option<(SchedKey, &'a QueuedMeta)> {
    map.iter().find(|(_, m)| pred(m)).map(|(k, m)| (*k, m))
}

/// First-come first-served: admission order is arrival order (this is what
/// vLLM's waiting queue does). Key `(enqueued, id)`.
#[derive(Debug, Clone, Default)]
struct FcfsQueue {
    ring: FifoRing,
}

fn fcfs_key(m: &QueuedMeta) -> SchedKey {
    SchedKey {
        class: 0,
        primary: 0,
        enqueued: m.enqueued,
        id: m.id,
    }
}

impl PolicyQueue for FcfsQueue {
    fn insert(&mut self, m: QueuedMeta, _ctx: &QueueCtx) {
        self.ring.insert(fcfs_key(&m), m);
    }

    fn remove(&mut self, m: &QueuedMeta) -> bool {
        self.ring.remove(fcfs_key(m))
    }

    fn advance(&mut self, _ctx: &QueueCtx) {}

    fn peek(&self) -> Option<(SchedKey, &QueuedMeta)> {
        self.ring.peek()
    }

    fn find(&self, pred: &dyn Fn(&QueuedMeta) -> bool) -> Option<(SchedKey, &QueuedMeta)> {
        self.ring.find(pred)
    }

    fn pop_min(&mut self) -> Option<QueuedMeta> {
        self.ring.pop_min()
    }

    fn len(&self) -> usize {
        self.ring.len()
    }
}

/// Pure shortest-job-first on declared remaining output, as an ordered map.
/// Minimizes mean latency but lets a stream of short jobs starve a long one
/// indefinitely.
#[derive(Debug, Clone, Default)]
struct SjfQueue {
    map: BTreeMap<SchedKey, QueuedMeta>,
}

fn sjf_key(m: &QueuedMeta) -> SchedKey {
    SchedKey {
        class: 0,
        primary: m.remaining(),
        enqueued: m.enqueued,
        id: m.id,
    }
}

impl PolicyQueue for SjfQueue {
    fn insert(&mut self, m: QueuedMeta, _ctx: &QueueCtx) {
        self.map.insert(sjf_key(&m), m);
    }

    fn remove(&mut self, m: &QueuedMeta) -> bool {
        self.map.remove(&sjf_key(m)).is_some()
    }

    fn advance(&mut self, _ctx: &QueueCtx) {}

    fn peek(&self) -> Option<(SchedKey, &QueuedMeta)> {
        self.map.first_key_value().map(|(k, m)| (*k, m))
    }

    fn find(&self, pred: &dyn Fn(&QueuedMeta) -> bool) -> Option<(SchedKey, &QueuedMeta)> {
        find_in_map(&self.map, pred)
    }

    fn pop_min(&mut self) -> Option<QueuedMeta> {
        self.map.pop_first().map(|(_, m)| m)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// SJF with length bucketing: jobs whose remaining lengths fall in the same
/// bucket are served FCFS — one ring per bucket, ordered by bucket index —
/// so near-equal jobs do not leapfrog each other and the queue keeps most
/// of SJF's tail-latency win without its churn.
#[derive(Debug, Clone)]
struct SjfBucketQueue {
    bucket: u64,
    rings: BTreeMap<u64, FifoRing>,
    len: usize,
}

impl Default for SjfBucketQueue {
    fn default() -> Self {
        SjfBucketQueue {
            bucket: 64,
            rings: BTreeMap::new(),
            len: 0,
        }
    }
}

impl SjfBucketQueue {
    fn key(&self, m: &QueuedMeta) -> SchedKey {
        SchedKey {
            class: 0,
            primary: m.remaining() / self.bucket.max(1),
            enqueued: m.enqueued,
            id: m.id,
        }
    }
}

impl PolicyQueue for SjfBucketQueue {
    fn insert(&mut self, m: QueuedMeta, _ctx: &QueueCtx) {
        let key = self.key(&m);
        self.rings.entry(key.primary).or_default().insert(key, m);
        self.len += 1;
    }

    fn remove(&mut self, m: &QueuedMeta) -> bool {
        let key = self.key(m);
        let Some(ring) = self.rings.get_mut(&key.primary) else {
            return false;
        };
        let removed = ring.remove(key);
        if removed {
            self.len -= 1;
            if ring.len() == 0 {
                self.rings.remove(&key.primary);
            }
        }
        removed
    }

    fn advance(&mut self, _ctx: &QueueCtx) {}

    fn peek(&self) -> Option<(SchedKey, &QueuedMeta)> {
        self.rings.first_key_value().and_then(|(_, r)| r.peek())
    }

    fn find(&self, pred: &dyn Fn(&QueuedMeta) -> bool) -> Option<(SchedKey, &QueuedMeta)> {
        self.rings.values().find_map(|r| r.find(pred))
    }

    fn pop_min(&mut self) -> Option<QueuedMeta> {
        let mut first = self.rings.first_entry()?;
        let m = first.get_mut().pop_min().expect("empty rings are pruned");
        if first.get().len() == 0 {
            first.remove();
        }
        self.len -= 1;
        Some(m)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// SJF with starvation aging: a request waiting longer than the promotion
/// threshold jumps ahead of every un-aged request (aged requests among
/// themselves are FCFS), bounding worst-case queueing delay. Un-aged work
/// sits in an SJF map with its promotion deadline (`enqueued + promote`) on
/// a wheel; [`PolicyQueue::advance`] lazily moves due entries into the aged
/// ring, so the per-pop cost is O(log n) plus O(log n) per promotion
/// instead of a full re-sort per iteration.
#[derive(Debug, Clone)]
struct SjfAgingQueue {
    promote: SimDuration,
    /// Aged class (0): FCFS ring keyed `(enqueued, id)`.
    aged: FifoRing,
    /// Un-aged class (1): SJF map keyed `(remaining, enqueued, id)`.
    unaged: BTreeMap<SchedKey, QueuedMeta>,
    /// Promotion deadlines of un-aged entries: `(enqueued + promote, key)`.
    deadlines: BTreeMap<(SimTime, SchedKey), ()>,
}

impl Default for SjfAgingQueue {
    fn default() -> Self {
        SjfAgingQueue {
            promote: SimDuration::from_secs(60),
            aged: FifoRing::default(),
            unaged: BTreeMap::new(),
            deadlines: BTreeMap::new(),
        }
    }
}

impl SjfAgingQueue {
    fn aged_key(m: &QueuedMeta) -> SchedKey {
        SchedKey {
            class: 0,
            primary: 0,
            enqueued: m.enqueued,
            id: m.id,
        }
    }

    fn unaged_key(m: &QueuedMeta) -> SchedKey {
        SchedKey {
            class: 1,
            primary: m.remaining(),
            enqueued: m.enqueued,
            id: m.id,
        }
    }
}

impl PolicyQueue for SjfAgingQueue {
    fn insert(&mut self, m: QueuedMeta, ctx: &QueueCtx) {
        if ctx.now.duration_since(m.enqueued) >= self.promote {
            self.aged.insert(Self::aged_key(&m), m);
        } else {
            let key = Self::unaged_key(&m);
            self.deadlines.insert((m.enqueued + self.promote, key), ());
            self.unaged.insert(key, m);
        }
    }

    fn remove(&mut self, m: &QueuedMeta) -> bool {
        let key = Self::unaged_key(m);
        if let Some(removed) = self.unaged.remove(&key) {
            self.deadlines
                .remove(&(removed.enqueued + self.promote, key));
            return true;
        }
        self.aged.remove(Self::aged_key(m))
    }

    fn advance(&mut self, ctx: &QueueCtx) {
        while let Some((&(due, key), ())) = self.deadlines.first_key_value() {
            if due > ctx.now {
                break;
            }
            self.deadlines.pop_first();
            let m = self.unaged.remove(&key).expect("deadline tracks unaged");
            self.aged.insert(Self::aged_key(&m), m);
        }
    }

    fn peek(&self) -> Option<(SchedKey, &QueuedMeta)> {
        // Aged entries (class 0) always rank before un-aged (class 1).
        self.aged
            .peek()
            .or_else(|| self.unaged.first_key_value().map(|(k, m)| (*k, m)))
    }

    fn find(&self, pred: &dyn Fn(&QueuedMeta) -> bool) -> Option<(SchedKey, &QueuedMeta)> {
        self.aged
            .find(pred)
            .or_else(|| find_in_map(&self.unaged, pred))
    }

    fn pop_min(&mut self) -> Option<QueuedMeta> {
        if let Some(m) = self.aged.pop_min() {
            return Some(m);
        }
        let (key, m) = self.unaged.pop_first()?;
        self.deadlines.remove(&(m.enqueued + self.promote, key));
        Some(m)
    }

    fn len(&self) -> usize {
        // `deadlines` mirrors `unaged` (one promotion deadline per unaged
        // entry) and never counts separately.
        self.aged.len() + self.unaged.len()
    }
}

/// Orca-style remaining-length prediction: instead of trusting the declared
/// output length (which a real server does not know), predict it from an
/// exponentially weighted average of observed output/prompt ratios and
/// order by predicted remaining work. Keys are computed at the *epoch*
/// ratio the index was last built at; when the learned ratio drifts (any
/// completion moves the EWMA), the next touch re-keys the whole index in
/// one pass — the oracle's per-iteration re-sort, amortized to once per
/// drift.
#[derive(Debug, Clone)]
struct OrcaQueue {
    /// The ratio every stored key was computed at.
    epoch: f64,
    map: BTreeMap<SchedKey, QueuedMeta>,
}

impl Default for OrcaQueue {
    fn default() -> Self {
        OrcaQueue {
            epoch: 1.0,
            map: BTreeMap::new(),
        }
    }
}

/// Predicted remaining output tokens at `ratio` — the exact `oracle`
/// formula, shared so keys and the reference agree bit-for-bit.
fn orca_predict(ratio: f64, m: &QueuedMeta) -> u64 {
    let total = (ratio * m.prompt_tokens.max(1) as f64).max(1.0) as u64;
    total.saturating_sub(m.generated).max(1)
}

impl OrcaQueue {
    fn key_at(&self, m: &QueuedMeta) -> SchedKey {
        SchedKey {
            class: 0,
            primary: orca_predict(self.epoch, m),
            enqueued: m.enqueued,
            id: m.id,
        }
    }

    /// Re-keys the index if the learned ratio moved since the last build.
    fn sync(&mut self, ratio: f64) {
        if ratio.to_bits() == self.epoch.to_bits() {
            return;
        }
        self.epoch = ratio;
        let old = std::mem::take(&mut self.map);
        for (_, m) in old {
            self.map.insert(self.key_at(&m), m);
        }
    }
}

impl PolicyQueue for OrcaQueue {
    fn insert(&mut self, m: QueuedMeta, ctx: &QueueCtx) {
        self.sync(ctx.ratio);
        self.map.insert(self.key_at(&m), m);
    }

    fn remove(&mut self, m: &QueuedMeta) -> bool {
        // Stored keys are at `epoch`, whatever the live ratio is by now.
        self.map.remove(&self.key_at(m)).is_some()
    }

    fn advance(&mut self, ctx: &QueueCtx) {
        self.sync(ctx.ratio);
    }

    fn peek(&self) -> Option<(SchedKey, &QueuedMeta)> {
        self.map.first_key_value().map(|(k, m)| (*k, m))
    }

    fn find(&self, pred: &dyn Fn(&QueuedMeta) -> bool) -> Option<(SchedKey, &QueuedMeta)> {
        find_in_map(&self.map, pred)
    }

    fn pop_min(&mut self) -> Option<QueuedMeta> {
        self.map.pop_first().map(|(_, m)| m)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Where the winning entry of a `pop_next` round lives.
enum PopSource {
    Readmit,
    Fresh(u32),
}

/// The generic incremental scheduler: per-tenant queues for cap-gated fresh
/// arrivals, one shared queue for re-admitted (cap-exempt) work, and a
/// parked set for crash-retry backoffs. `pop_next` takes the key-minimum
/// over the front of each queue whose tenant has cap headroom — O(tenants ·
/// policy-op), never O(backlog) — which reproduces the oracle's
/// sort-the-eligible-set order exactly:
///
/// * within a queue, entries pop in key order (each policy's invariant);
/// * across queues, the global front minimum is the sorted head;
/// * tenants at their cap only ever *lose* headroom during an admission
///   round (admissions fill caps; completions happen between rounds), so
///   skipping their queues at pop time equals the oracle's filter-then-sort
///   with its mid-round re-check.
///
/// Parked entries (backoff in the future) are promoted into the re-admit
/// queue lazily at the head of every `pop_next`; they were all admitted
/// once, so they bypass cap gating exactly like the oracle's
/// `admitted_once` test.
struct TenantIndex<Q: PolicyQueue> {
    name: &'static str,
    template: Q,
    fresh: BTreeMap<u32, Q>,
    readmit: Q,
    /// Crash-retry backoffs: `(eligible_after, id)` → meta.
    parked: BTreeMap<(SimTime, u64), QueuedMeta>,
    /// Context-token multisets for O(tenants · log) `min_context`.
    fresh_ctx: BTreeMap<u32, BTreeMap<u64, u32>>,
    /// Context multiset over re-admit + parked (cap-exempt work).
    admitted_ctx: BTreeMap<u64, u32>,
    /// Orca EWMA of output/prompt across completions (warm-start 1.0).
    ratio: f64,
    alpha: f64,
    len: usize,
}

fn ctx_add(set: &mut BTreeMap<u64, u32>, tokens: u64) {
    *set.entry(tokens).or_insert(0) += 1;
}

fn ctx_sub(set: &mut BTreeMap<u64, u32>, tokens: u64) {
    match set.get_mut(&tokens) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            set.remove(&tokens);
        }
        None => unreachable!("context multiset out of sync"),
    }
}

impl<Q: PolicyQueue> TenantIndex<Q> {
    fn new(name: &'static str, template: Q) -> Self {
        TenantIndex {
            name,
            readmit: template.clone(),
            template,
            fresh: BTreeMap::new(),
            parked: BTreeMap::new(),
            fresh_ctx: BTreeMap::new(),
            admitted_ctx: BTreeMap::new(),
            ratio: 1.0,
            alpha: 0.1,
            len: 0,
        }
    }

    fn ctx(&self, now: SimTime) -> QueueCtx {
        QueueCtx {
            now,
            ratio: self.ratio,
        }
    }
}

impl<Q: PolicyQueue> Scheduler for TenantIndex<Q> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_enqueue(&mut self, m: QueuedMeta, now: SimTime) {
        let ctx = self.ctx(now);
        ctx_add(
            self.fresh_ctx.entry(m.tenant).or_default(),
            m.context_tokens(),
        );
        self.fresh
            .entry(m.tenant)
            .or_insert_with(|| self.template.clone())
            .insert(m, &ctx);
        self.len += 1;
    }

    fn on_requeue(&mut self, m: QueuedMeta, eligible_after: SimTime, now: SimTime) {
        let ctx = self.ctx(now);
        ctx_add(&mut self.admitted_ctx, m.context_tokens());
        if eligible_after > now {
            self.parked.insert((eligible_after, m.id), m);
        } else {
            self.readmit.insert(m, &ctx);
        }
        self.len += 1;
    }

    fn on_remove(&mut self, m: &QueuedMeta, admitted_once: bool, eligible_after: SimTime) -> bool {
        let removed = if admitted_once {
            self.parked.remove(&(eligible_after, m.id)).is_some() || self.readmit.remove(m)
        } else {
            self.fresh.get_mut(&m.tenant).is_some_and(|q| q.remove(m))
        };
        if removed {
            let set = if admitted_once {
                &mut self.admitted_ctx
            } else {
                self.fresh_ctx.entry(m.tenant).or_default()
            };
            ctx_sub(set, m.context_tokens());
            self.len -= 1;
        }
        removed
    }

    fn pop_next(&mut self, now: SimTime, caps: &AdmissionController, context_limit: u64) -> Pop {
        let ctx = self.ctx(now);
        // Expired crash backoffs rejoin the re-admit queue first, exactly
        // like the oracle's `eligible_after <= now` round-start filter.
        while let Some((&(due, _), _)) = self.parked.first_key_value() {
            if due > now {
                break;
            }
            let (_, m) = self.parked.pop_first().expect("checked non-empty");
            self.readmit.insert(m, &ctx);
        }

        self.readmit.advance(&ctx);
        // (key, context tokens, source) of the best head so far.
        let mut best: Option<(SchedKey, u64, PopSource)> = self
            .readmit
            .peek()
            .map(|(k, m)| (k, m.context_tokens(), PopSource::Readmit));
        for (&tenant, q) in self.fresh.iter_mut() {
            if q.len() == 0 || !caps.eligible(tenant) {
                continue;
            }
            q.advance(&ctx);
            let Some((key, m)) = q.peek() else { continue };
            if best.as_ref().is_none_or(|(b, _, _)| key < *b) {
                best = Some((key, m.context_tokens(), PopSource::Fresh(tenant)));
            }
        }
        let Some((_, context, src)) = best else {
            return Pop::Empty;
        };
        if context >= context_limit {
            return Pop::Blocked;
        }
        let (m, set) = match src {
            PopSource::Readmit => (
                self.readmit.pop_min().expect("peeked non-empty"),
                &mut self.admitted_ctx,
            ),
            PopSource::Fresh(tenant) => (
                self.fresh
                    .get_mut(&tenant)
                    .expect("peeked tenant queue")
                    .pop_min()
                    .expect("peeked non-empty"),
                self.fresh_ctx.entry(tenant).or_default(),
            ),
        };
        ctx_sub(set, m.context_tokens());
        self.len -= 1;
        Pop::Popped(m)
    }

    fn next_parked(&self) -> Option<SimTime> {
        self.parked.first_key_value().map(|((due, _), _)| *due)
    }

    fn min_context(&self, caps: &AdmissionController) -> Option<u64> {
        let mut min = self.admitted_ctx.first_key_value().map(|(&t, _)| t);
        for (&tenant, set) in &self.fresh_ctx {
            if set.is_empty() || !caps.eligible(tenant) {
                continue;
            }
            let t = *set.first_key_value().expect("checked non-empty").0;
            min = Some(min.map_or(t, |m| m.min(t)));
        }
        min
    }

    fn first_context(&self, caps: &AdmissionController, context_limit: u64) -> Option<u64> {
        let below = |m: &QueuedMeta| m.context_tokens() < context_limit;
        let mut best = self.readmit.find(&below);
        for (&tenant, q) in &self.fresh {
            if !caps.eligible(tenant) {
                continue;
            }
            if let Some((key, m)) = q.find(&below) {
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, m));
                }
            }
        }
        best.map(|(_, m)| m.context_tokens())
    }

    fn observe_completion(&mut self, prompt: u64, output: u64) {
        let observed = output as f64 / prompt.max(1) as f64;
        self.ratio = (1.0 - self.alpha) * self.ratio + self.alpha * observed;
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The sort-based reference policies the incremental indices must match
/// order-for-order, ties included.
///
/// These are the original `prioritize(&mut [QueuedMeta])` implementations;
/// the serving path no longer calls them, but they stay as the executable
/// specification: the differential tests in this module drain a
/// `TenantIndex` against the corresponding oracle sort and require
/// identical sequences.
#[cfg(test)]
mod oracle {
    use super::QueuedMeta;
    use aqua_sim::time::{SimDuration, SimTime};

    /// A sort-based reference ordering (the pre-PR 9 `Scheduler` trait).
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
    /// First-come first-served (ring buffer).
    Fcfs,
    /// Pure shortest-job-first (ordered map on remaining output).
    Sjf,
    /// Bucketed SJF with the default 64-token buckets (per-bucket rings).
    SjfBucket,
    /// SJF + starvation aging with the default 60 s promotion (deadline
    /// wheel).
    SjfAging,
    /// Orca-style learned remaining-length prediction with the default
    /// EWMA (epoch-rekeyed map).
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

    /// Instantiates the policy's incremental index with its default
    /// parameters.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            PolicyKind::Fcfs => Box::new(TenantIndex::new("fcfs", FcfsQueue::default())),
            PolicyKind::Sjf => Box::new(TenantIndex::new("sjf", SjfQueue::default())),
            PolicyKind::SjfBucket => {
                Box::new(TenantIndex::new("sjf+bucket", SjfBucketQueue::default()))
            }
            PolicyKind::SjfAging => {
                Box::new(TenantIndex::new("sjf+aging", SjfAgingQueue::default()))
            }
            PolicyKind::Orca => Box::new(TenantIndex::new("orca", OrcaQueue::default())),
        }
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
        }
    }

    /// Pops the head whatever its context (no KV limit).
    fn pop(
        s: &mut Box<dyn Scheduler>,
        now: SimTime,
        caps: &AdmissionController,
    ) -> Option<QueuedMeta> {
        match s.pop_next(now, caps, u64::MAX) {
            Pop::Popped(m) => Some(m),
            Pop::Blocked => unreachable!("nothing blocks an unlimited pop"),
            Pop::Empty => None,
        }
    }

    /// Feeds `queue` into a fresh index and drains it with an effectively
    /// uncapped controller.
    fn drain_order(policy: PolicyKind, queue: &[QueuedMeta], now: SimTime) -> Vec<u64> {
        let caps = AdmissionController::new(usize::MAX >> 1);
        let mut s = policy.build();
        for m in queue {
            s.on_enqueue(m.clone(), m.enqueued.min(now));
        }
        let mut order = Vec::new();
        while let Some(m) = pop(&mut s, now, &caps) {
            order.push(m.id);
        }
        assert!(s.is_empty());
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
        let mut preempted = meta(4, 0, 500);
        preempted.generated = 495;
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
    fn aging_promotes_lazily_between_pops() {
        let caps = AdmissionController::new(64);
        let mut s = PolicyKind::SjfAging.build();
        s.on_enqueue(meta(1, 0, 500), SimTime::ZERO);
        s.on_enqueue(meta(2, 1, 10), SimTime::from_secs(1));
        // Before the threshold the short job wins; after it, the starved
        // long job has been promoted past it.
        assert_eq!(pop(&mut s, SimTime::from_secs(30), &caps).unwrap().id, 2);
        s.on_enqueue(meta(3, 31, 10), SimTime::from_secs(31));
        assert_eq!(pop(&mut s, SimTime::from_secs(61), &caps).unwrap().id, 1);
        assert_eq!(pop(&mut s, SimTime::from_secs(61), &caps).unwrap().id, 3);
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
        // prompts; the incremental index re-keys when the ratio drifts.
        let caps = AdmissionController::new(64);
        let mut s = PolicyKind::Orca.build();
        let mut short_prompt = meta(1, 1, 999);
        short_prompt.prompt_tokens = 10;
        let mut long_prompt = meta(2, 0, 1);
        long_prompt.prompt_tokens = 1000;
        s.on_enqueue(long_prompt.clone(), SimTime::from_secs(1));
        s.on_enqueue(short_prompt.clone(), SimTime::from_secs(1));
        assert_eq!(
            pop(&mut s, SimTime::from_secs(1), &caps).unwrap().id,
            1,
            "warm start orders by prompt length"
        );
        // Drift the ratio far down: the long prompt's prediction collapses
        // and it still pops (epoch re-key keeps the index consistent).
        s.on_enqueue(short_prompt, SimTime::from_secs(1));
        for _ in 0..100 {
            s.observe_completion(1000, 1);
        }
        assert_eq!(pop(&mut s, SimTime::from_secs(2), &caps).unwrap().id, 2);
        assert_eq!(pop(&mut s, SimTime::from_secs(2), &caps).unwrap().id, 1);
    }

    #[test]
    fn zoo_roundtrips_names() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
            assert_eq!(p.build().name(), p.name());
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
        let mut s = PolicyKind::Fcfs.build();
        s.on_enqueue(meta(1, 0, 10), SimTime::ZERO); // tenant 0, gated
        let mut re = meta(2, 0, 10);
        re.generated = 3;
        s.on_requeue(re, SimTime::ZERO, SimTime::from_secs(1)); // cap-exempt
        let now = SimTime::from_secs(1);
        assert_eq!(pop(&mut s, now, &caps).unwrap().id, 2);
        assert!(pop(&mut s, now, &caps).is_none(), "tenant 0 is capped");
        assert_eq!(s.min_context(&caps), None, "no admissible work");
        caps.on_complete(0);
        assert_eq!(s.min_context(&caps), Some(100));
        assert_eq!(pop(&mut s, now, &caps).unwrap().id, 1);
    }

    #[test]
    fn parked_entries_wait_out_their_backoff() {
        let caps = AdmissionController::new(8);
        let mut s = PolicyKind::Sjf.build();
        let mut m = meta(7, 0, 50);
        m.generated = 5;
        s.on_requeue(m, SimTime::from_secs(10), SimTime::from_secs(2));
        assert_eq!(s.len(), 1);
        assert!(pop(&mut s, SimTime::from_secs(9), &caps).is_none());
        assert_eq!(s.next_parked(), Some(SimTime::from_secs(10)));
        assert_eq!(
            s.min_context(&caps),
            Some(105),
            "parked work still counts as work"
        );
        assert_eq!(pop(&mut s, SimTime::from_secs(10), &caps).unwrap().id, 7);
        assert_eq!(s.next_parked(), None);
    }

    #[test]
    fn on_remove_finds_entries_in_every_region() {
        let caps = AdmissionController::new(8);
        let mut s = PolicyKind::SjfAging.build();
        s.on_enqueue(meta(1, 0, 10), SimTime::ZERO);
        s.on_requeue(meta(2, 0, 10), SimTime::ZERO, SimTime::ZERO);
        s.on_requeue(meta(3, 0, 10), SimTime::from_secs(9), SimTime::ZERO);
        assert_eq!(s.len(), 3);
        assert!(s.on_remove(&meta(1, 0, 10), false, SimTime::ZERO));
        assert!(s.on_remove(&meta(2, 0, 10), true, SimTime::ZERO));
        assert!(s.on_remove(&meta(3, 0, 10), true, SimTime::from_secs(9)));
        assert!(!s.on_remove(&meta(3, 0, 10), true, SimTime::from_secs(9)));
        assert_eq!(s.len(), 0);
        assert!(pop(&mut s, SimTime::from_secs(20), &caps).is_none());
    }

    /// The differential harness: applies one scripted op sequence to the
    /// incremental index and replays the drain against the sort-based
    /// oracle (re-filtering and re-sorting the live set before *every*
    /// pop, caps and backoffs included), requiring identical id sequences.
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
        #[derive(Clone)]
        struct Live {
            m: QueuedMeta,
            admitted_once: bool,
            eligible_after: SimTime,
        }

        let mut index = policy.build();
        let mut oracle = policy.build_oracle();
        let mut live: Vec<Live> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;

        for &(kind, a, b, tenant, dt) in ops {
            now += SimDuration::from_millis(dt);
            match kind % 4 {
                // Fresh arrival.
                0 => {
                    let m = QueuedMeta {
                        id: next_id,
                        tenant,
                        enqueued: now,
                        prompt_tokens: a.max(1),
                        output_tokens: b,
                        generated: 0,
                    };
                    next_id += 1;
                    index.on_enqueue(m.clone(), now);
                    live.push(Live {
                        m,
                        admitted_once: false,
                        eligible_after: SimTime::ZERO,
                    });
                }
                // Crash/preemption re-queue of an admitted request, with a
                // backoff of `b % 30` seconds (possibly zero).
                1 => {
                    let m = QueuedMeta {
                        id: next_id,
                        tenant,
                        enqueued: now,
                        prompt_tokens: a.max(1),
                        output_tokens: b.max(2),
                        generated: b.max(2) / 2,
                    };
                    next_id += 1;
                    let eligible_after = now + SimDuration::from_secs(b % 30);
                    index.on_requeue(m.clone(), eligible_after, now);
                    live.push(Live {
                        m,
                        admitted_once: true,
                        eligible_after,
                    });
                }
                // Completion feedback (moves Orca's ratio → epoch re-key).
                2 => {
                    index.observe_completion(a.max(1), b);
                    oracle.observe_completion(a.max(1), b);
                }
                // Deadline-style removal of a random live entry.
                _ => {
                    if !live.is_empty() {
                        let e = live.remove((a as usize) % live.len());
                        assert!(
                            index.on_remove(&e.m, e.admitted_once, e.eligible_after),
                            "{policy}: indexed entry must be removable"
                        );
                    }
                }
            }
        }

        // Drain with capped tenants: both sides observe the same
        // mid-drain cap fills.
        now += SimDuration::from_secs(3);
        let mut caps = AdmissionController::new(cap);
        let mut round = 0usize;
        loop {
            // Reference: filter the live set exactly like the engine's old
            // round-start scan, sort, take the head.
            let mut eligible: Vec<QueuedMeta> = live
                .iter()
                .filter(|e| {
                    (e.admitted_once || caps.eligible(e.m.tenant)) && e.eligible_after <= now
                })
                .map(|e| e.m.clone())
                .collect();
            oracle.prioritize(&mut eligible, now);
            let expect = eligible.first().map(|m| m.id);
            let head_ctx = eligible.first().map(|m| m.context_tokens());

            let expect_ctx = live
                .iter()
                .filter(|e| e.admitted_once || caps.eligible(e.m.tenant))
                .map(|e| e.m.context_tokens())
                .min();
            assert_eq!(
                index.min_context(&caps),
                expect_ctx,
                "{policy}: min_context"
            );

            if blocked_every > 0 && round.is_multiple_of(blocked_every) {
                let len = index.len();
                let got = index.pop_next(now, &caps, head_ctx.unwrap_or(0));
                let want = if expect.is_some() {
                    Pop::Blocked
                } else {
                    Pop::Empty
                };
                assert_eq!(got, want, "{policy}: blocked round");
                assert_eq!(index.len(), len, "{policy}: a blocked round pops nothing");
            }
            round += 1;

            let got = match index.pop_next(now, &caps, head_ctx.map_or(u64::MAX, |c| c + 1)) {
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

            let at = live.iter().position(|e| e.m.id == m.id).unwrap();
            let e = live.remove(at);
            if !e.admitted_once {
                caps.on_admit(e.m.tenant);
            }

            // `first_context` walks the order this pop left, skipping
            // entries at or above a limit (here the popped context).
            let limit = m.context_tokens();
            let mut rest: Vec<QueuedMeta> = live
                .iter()
                .filter(|e| {
                    (e.admitted_once || caps.eligible(e.m.tenant)) && e.eligible_after <= now
                })
                .map(|e| e.m.clone())
                .collect();
            oracle.prioritize(&mut rest, now);
            assert_eq!(
                index.first_context(&caps, limit),
                rest.iter()
                    .map(QueuedMeta::context_tokens)
                    .find(|&c| c < limit),
                "{policy}: first_context"
            );

            // With every eligible entry drained, only parked (future
            // backoff) work remains: next_parked must agree with a scan.
            let expect_parked = live
                .iter()
                .filter(|e| e.eligible_after > now)
                .map(|e| e.eligible_after)
                .min();
            if live.iter().all(|e| e.eligible_after > now) {
                assert_eq!(index.next_parked(), expect_parked, "{policy}: next_parked");
            }

            // Occasionally advance time mid-drain so aging promotions land
            // between pops too.
            if m.id % 5 == 0 {
                now += SimDuration::from_secs(20);
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
