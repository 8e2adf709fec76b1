//! The typed trace-event vocabulary.
//!
//! Every observable action in the stack — a transfer hitting a link, a lease
//! changing hands, a scheduler slice finishing — is one [`TraceEvent`]
//! variant stamped with the [`SimTime`] at which it happened. Events carry
//! plain strings, or interned [`Lane`] labels where one label recurs in
//! millions of events, for entity names (lanes, GPUs, engines), so the
//! vocabulary does not depend on any upper crate's id types.
//!
//! The canonical encoding ([`TraceEvent::write_json_line`]) is a single JSON
//! object per event with a stable field order; the determinism digest in
//! [`crate::tracer::JournalTracer`] hashes exactly these bytes
//! ([`TraceEvent::fold_digest`], from the same generated encoder without
//! rendering them), so two runs agree on the digest iff they emitted
//! byte-identical journals.
//!
//! Each event is declared once, as one row of the table at the bottom of
//! this module: the variant and its docs, its journal name, its fields and
//! its Chrome rendering. The enum, [`TraceEvent::name`], [`TraceEvent::at`],
//! the encoder behind [`TraceEvent::write_json_line`] and
//! [`TraceEvent::fold_digest`], and the event's entry in
//! [`chrome_trace`](crate::chrome::chrome_trace) are all generated from that
//! row, so a new event is one new row. A row's field order is the journal's
//! byte order, which the digests hash: reordering fields changes every digest
//! that journals the event.

use crate::chrome::{Entry, Lanes};
use crate::encode::{Field, Fnv, Sink, Skip};
use crate::time::SimTime;
use crate::tracer::fnv1a;
use std::sync::{Arc, OnceLock};

/// An interned label: a transfer lane (e.g. `nvlink-egress:gpu0`), an
/// engine or gateway scope, a scheduler or preemption policy, or a lease
/// consumer and its allocation site.
///
/// These fields recur in millions of events, so they are reference-counted:
/// producers render the label once (per port, engine or consumer) and clone
/// the `Arc` per event, instead of calling `to_string()` on the hot path.
/// The canonical JSON encoding is the plain string, so interning never
/// changes a journal or its digest.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lane(Arc<str>);

impl Lane {
    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Lane {
    fn from(s: &str) -> Self {
        Lane(Arc::from(s))
    }
}

impl From<String> for Lane {
    fn from(s: String) -> Self {
        Lane(Arc::from(s))
    }
}

impl std::ops::Deref for Lane {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Lane {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<str> for Lane {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Lane {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// The time that orders an event: its `at` field, or `start` for a span.
/// Walks two copies of the row's field names in step: the first is matched
/// against the literals, and the second supplies the bound variable, since a
/// macro cannot hand back a token it matched as a literal.
macro_rules! stamp {
    ([at $($_n:ident)*] [$t:ident $($_v:ident)*]) => {
        *$t
    };
    ([start $($_n:ident)*] [$t:ident $($_v:ident)*]) => {
        *$t
    };
    ([$_skip:ident $($n:ident)*] [$_t:ident $($v:ident)*]) => {
        stamp!([$($n)*] [$($v)*])
    };
}

/// The Chrome rendering of one field: `server` picks the process, `at` or
/// `start` and `end` place the entry in time, and every other field is an
/// arg (unless it names the event or its lane).
macro_rules! chrome_field {
    ($entry:ident, server, $v:ident) => {
        $entry.server(*$v)
    };
    ($entry:ident, at, $v:ident) => {
        $entry.start(*$v)
    };
    ($entry:ident, start, $v:ident) => {
        $entry.start(*$v)
    };
    ($entry:ident, end, $v:ident) => {
        $entry.end(*$v)
    };
    ($entry:ident, $key:ident, $v:ident) => {
        $entry.arg(stringify!($key), $v)
    };
}

/// A row's Chrome name or track, given as a literal or a field.
macro_rules! chrome_spec {
    (name $name:literal) => {
        $name
    };
    (name $field:ident) => {
        $field.as_str()
    };
    (key $literal:literal) => {
        ""
    };
    (key $field:ident) => {
        stringify!($field)
    };
    (track $entry:ident $lanes:ident $lane:literal) => {
        $entry.lane($lanes, $lane)
    };
    (track $entry:ident $lanes:ident $field:ident) => {
        $entry.lane($lanes, $field)
    };
}

/// Expands the event table into [`TraceEvent`] and its generated methods.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $name:literal, chrome($cname:tt, $cat:literal, $track:tt) {
                    $(#[$f0meta:meta])* $field0:ident: $ty0:ty,
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                }
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant {
                    $(#[$f0meta])* $field0: $ty0,
                    $( $(#[$fmeta])* $field: $ty, )*
                },
            )*
        }

        impl TraceEvent {
            /// Every variant's journal name, in table order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// The variant name used as the `event` field of the canonical encoding.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $name, )*
                }
            }

            /// The timestamp that orders this event in a journal (start time for
            /// duration-shaped events).
            // Every field is bound, but only the stamp is read.
            #[allow(unused_variables)]
            pub fn at(&self) -> SimTime {
                match self {
                    $(
                        TraceEvent::$variant { $field0, $($field),* } =>
                            stamp!([$field0 $($field)*] [$field0 $($field)*]),
                    )*
                }
            }

            /// Writes the event's canonical JSON line (no trailing newline) to
            /// `out`: the one encoder behind both the text and the digest.
            ///
            /// Field order is fixed per variant and times are integer nanoseconds, so
            /// the output is byte-stable across runs and platforms — the property the
            /// determinism digest relies on. The constant prefix up to the first
            /// field's value has one skip table, built the first time the digest
            /// sink folds it, so that sink folds the prefix in O(1).
            pub(crate) fn encode_into<S: Sink>(&self, out: &mut S) {
                match self {
                    $(
                        TraceEvent::$variant { $field0, $($field),* } => {
                            const PREFIX: &str = concat!(
                                "{\"event\":\"", $name, "\",\"", stringify!($field0), "\":"
                            );
                            static PREFIX_SKIP: OnceLock<Skip> = OnceLock::new();
                            out.prefix(PREFIX, &PREFIX_SKIP);
                            $field0.encode(out);
                            $(
                                out.ascii(concat!(",\"", stringify!($field), "\":").as_bytes());
                                $field.encode(out);
                            )*
                        }
                    )*
                }
                out.ascii(b"}");
            }

            /// Appends the event's canonical JSON line (no trailing newline) to
            /// `out`.
            pub fn write_json_line(&self, out: &mut String) {
                self.encode_into(out);
            }

            /// Folds the event's canonical JSON line and its newline into the
            /// rolling FNV-1a `digest` without rendering the line:
            /// `e.fold_digest(h) == fnv1a(h, (e.to_json_line() + "\n").as_bytes())`.
            pub fn fold_digest(&self, digest: u64) -> u64 {
                let mut fnv = Fnv(digest);
                self.encode_into(&mut fnv);
                fnv1a(fnv.0, b"\n")
            }

            /// The event's canonical JSON line (no trailing newline), as written by
            /// [`TraceEvent::write_json_line`].
            pub fn to_json_line(&self) -> String {
                let mut out = String::with_capacity(96);
                self.write_json_line(&mut out);
                out
            }

            /// The event's Chrome trace entry; its lane gets a `tid` from `lanes`.
            pub(crate) fn chrome_entry(&self, lanes: &mut Lanes) -> Entry<'_> {
                match self {
                    $(
                        TraceEvent::$variant { $field0, $($field),* } => {
                            let mut entry = Entry::new(
                                chrome_spec!(name $cname),
                                $cat,
                                [chrome_spec!(key $cname), chrome_spec!(key $track)],
                            );
                            chrome_field!(entry, $field0, $field0);
                            $( chrome_field!(entry, $field, $field); )*
                            chrome_spec!(track entry lanes $track);
                            entry
                        }
                    )*
                }
            }
        }
    };
}

// One row per event: `Variant = "journal_name", chrome(name, category, track)`
// followed by the fields in journal byte order. The Chrome name is a literal
// or the string field that names the event. The track is the field holding
// the lane label (on the server's process when the row has `server`, else on
// the control-plane process) or a fixed lane literal. Rows with `start`/`end`
// render as duration events, everything else as instants. The journal holds
// edges only: a level (a queue depth, a batch size) is replayed from the
// edges that move it (`crate::levels`), never journalled.
trace_events! {
    /// One structured event in a run's journal.
    ///
    /// Variants group into four families mirroring the stack's layers:
    /// transfers (the simulator's transfer engine), memory/lease movement (HBM
    /// allocators, donation, reclaim), control plane (coordinator verbs, informer
    /// decisions) and scheduler actions (`GatewayEngine` admission and
    /// preemption, CFS slices, FlexGen window fetches).
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A transfer booked on one port of its path: one line per port,
        /// journalled when the transfer is issued. It waited in the port's
        /// queue from `queued` to `start` and held the wire from `start` to
        /// `end`.
        TransferCompleted = "transfer_completed", chrome("transfer", "transfer", lane) {
            /// Server the lane belongs to.
            server: u32,
            /// Lane label, e.g. `nvlink-egress:gpu0`.
            lane: Lane,
            /// Total payload bytes.
            bytes: u64,
            /// Chunk count (1 for a coalesced plan).
            chunks: u64,
            /// Issue time: when the transfer joined the port's queue.
            queued: SimTime,
            /// Wire start time.
            start: SimTime,
            /// Wire end time.
            end: SimTime,
        }
        /// A producer donated HBM and the coordinator granted a lease over it.
        LeaseGranted = "lease_granted", chrome("lease-granted", "event", producer) {
            /// Producer GPU label.
            producer: String,
            /// Coordinator lease id.
            lease: u64,
            /// Donated bytes.
            bytes: u64,
            /// Grant time.
            at: SimTime,
        }
        /// A consumer carved an allocation out of a lease (or fell back to DRAM).
        LeaseAllocated = "lease_allocated", chrome("lease-allocated", "event", consumer) {
            /// Consumer GPU label, interned by the consumer.
            consumer: Lane,
            /// Allocation site, e.g. `peer:s0/gpu1` or `dram`, interned by
            /// the consumer.
            site: Lane,
            /// Allocated bytes.
            bytes: u64,
            /// Allocation time.
            at: SimTime,
        }
        /// A consumer returned bytes to a lease.
        LeaseFreed = "lease_freed", chrome("lease-freed", "event", consumer) {
            /// Consumer GPU label, interned by the consumer.
            consumer: Lane,
            /// Coordinator lease id.
            lease: u64,
            /// Freed bytes.
            bytes: u64,
            /// Free time.
            at: SimTime,
        }
        /// Leased context was promoted from DRAM back onto a producer GPU.
        LeasePromoted = "lease_promoted", chrome("lease-promoted", "event", consumer) {
            /// Consumer GPU label, interned by the consumer.
            consumer: Lane,
            /// Destination lease id.
            lease: u64,
            /// Promoted bytes.
            bytes: u64,
            /// Promotion start time.
            at: SimTime,
        }
        /// An engine donated free pool bytes to the coordinator.
        Donated = "donated", chrome("donated", "event", gpu) {
            /// Donating GPU label.
            gpu: String,
            /// Donated bytes.
            bytes: u64,
            /// Donation time.
            at: SimTime,
        }
        /// A producer asked for its donated memory back.
        ReclaimRequested = "reclaim_requested", chrome("reclaim-requested", "event", producer) {
            /// Producer GPU label.
            producer: String,
            /// Request time.
            at: SimTime,
        }
        /// A consumer drained a lease and released it back to the producer.
        ReclaimReleased = "reclaim_released", chrome("reclaim-released", "event", producer) {
            /// Producer GPU label the bytes went back to.
            producer: String,
            /// Released lease id.
            lease: u64,
            /// Released bytes.
            bytes: u64,
            /// Release completion time.
            at: SimTime,
        }
        /// A producer engine re-absorbed reclaimed bytes into its pool.
        Reclaimed = "reclaimed", chrome("reclaimed", "event", gpu) {
            /// Producer GPU label.
            gpu: String,
            /// Reclaimed bytes.
            bytes: u64,
            /// Re-absorption time.
            at: SimTime,
        }
        /// A coordinator verb was invoked (southbound REST surface).
        CoordinatorVerb = "coordinator_verb", chrome(verb, "event", "coordinator") {
            /// Verb name, e.g. `release`.
            verb: String,
            /// Free-form detail, e.g. the lease id.
            detail: String,
            /// Invocation time.
            at: SimTime,
        }
        /// An informer made a donate/reclaim/pause decision.
        InformerDecision = "informer_decision", chrome("informer-decision", "event", gpu) {
            /// GPU the informer watches.
            gpu: String,
            /// Decision label, e.g. `donate` or `reclaim-start`.
            decision: String,
            /// Decision time.
            at: SimTime,
        }
        /// A gateway preempted a running request back into its queue.
        RequestPreempted = "request_preempted", chrome("preempted", "event", engine) {
            /// Gateway scope label, interned by the gateway.
            engine: Lane,
            /// Request id.
            request: u64,
            /// Preemption policy, `recompute` or `swap`, interned by the
            /// gateway.
            policy: Lane,
            /// Preemption time.
            at: SimTime,
        }
        /// A CFS token slice ran to completion.
        SliceFinished = "slice_finished", chrome("slice", "scheduler", engine) {
            /// Engine scope label, interned by the engine.
            engine: Lane,
            /// Monotone slice index.
            slice: u64,
            /// Sequences active in the slice.
            active: u64,
            /// Tokens generated during the slice.
            tokens: u64,
            /// Slice start time.
            start: SimTime,
            /// Slice end time.
            end: SimTime,
        }
        /// FlexGen streamed a context window through HBM for a decode chunk.
        WindowFetched = "window_fetched", chrome("window-fetch", "scheduler", engine) {
            /// Engine scope label, interned by the engine.
            engine: Lane,
            /// Bytes fetched for the window.
            bytes: u64,
            /// Fetch start time.
            start: SimTime,
            /// Fetch end time.
            end: SimTime,
        }
        /// A fault window opened (link outage, GPU crash, congestion, ...).
        FaultInjected = "fault_injected", chrome("fault-injected", "fault", "faults") {
            /// Fault kind label, e.g. `link-down` or `gpu-crash`.
            kind: String,
            /// Affected entity, e.g. `nvlink-egress:gpu1` or `coordinator`.
            target: String,
            /// Window start time.
            at: SimTime,
        }
        /// A fault window closed and the entity recovered.
        FaultCleared = "fault_cleared", chrome("fault-cleared", "fault", "faults") {
            /// Fault kind label.
            kind: String,
            /// Affected entity.
            target: String,
            /// Window end time.
            at: SimTime,
        }
        /// An in-flight transfer was cut short by a link/GPU failure.
        TransferAborted = "transfer_aborted", chrome("transfer-aborted", "transfer", lane) {
            /// Server the lane belongs to.
            server: u32,
            /// Lane label.
            lane: Lane,
            /// Bytes the transfer intended to move.
            bytes: u64,
            /// Bytes that made it across before the cut.
            partial: u64,
            /// Abort time.
            at: SimTime,
        }
        /// The offloader retried a failed fabric transfer after backoff.
        TransferRetried = "transfer_retried", chrome("transfer-retried", "event", consumer) {
            /// Consumer GPU label.
            consumer: String,
            /// 1-based retry attempt number.
            attempt: u64,
            /// Retry time.
            at: SimTime,
        }
        /// The offloader fell down its failover ladder (lease → sibling → DRAM).
        FailoverEngaged = "failover_engaged", chrome("failover-engaged", "event", consumer) {
            /// Consumer GPU label.
            consumer: String,
            /// Failed placement, e.g. `peer:gpu1`.
            from: String,
            /// Replacement placement, e.g. `sibling` or `dram`.
            to: String,
            /// Bytes redirected.
            bytes: u64,
            /// Failover time.
            at: SimTime,
        }
        /// A lease's producer missed its heartbeat TTL and the lease was revoked.
        LeaseExpired = "lease_expired", chrome("lease-expired", "event", producer) {
            /// Producer GPU label.
            producer: String,
            /// Expired lease id.
            lease: u64,
            /// Consumer bytes stranded inside the lease.
            stranded: u64,
            /// Expiry time.
            at: SimTime,
        }
        /// A reclaim deadline passed and the coordinator force-revoked the lease.
        LeaseForceRevoked = "lease_force_revoked",
            chrome("lease-force-revoked", "event", producer) {
            /// Producer GPU label.
            producer: String,
            /// Revoked lease id.
            lease: u64,
            /// Consumer bytes stranded inside the lease.
            stranded: u64,
            /// Revocation time.
            at: SimTime,
        }
        /// A consumer entered or left degraded mode (new allocations pinned to
        /// DRAM while a fault is active).
        DegradedMode = "degraded_mode", chrome("degraded-mode", "event", consumer) {
            /// Consumer GPU label.
            consumer: String,
            /// `enter` or `exit`.
            state: String,
            /// Transition time.
            at: SimTime,
        }
        /// A request entered a serving gateway's admission queue.
        GatewayEnqueued = "gateway_enqueued", chrome("gateway-enqueued", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Tenant the request belongs to.
            tenant: u64,
            /// Request id.
            request: u64,
            /// Enqueue time.
            at: SimTime,
        }
        /// A gateway scheduler picked a request for admission into the batch.
        RequestScheduled = "request_scheduled", chrome("scheduled", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Scheduler policy name, e.g. `sjf+bucket`, interned by the
            /// gateway.
            policy: Lane,
            /// Request id.
            request: u64,
            /// Scheduling time.
            at: SimTime,
        }
        /// A gateway delivered the first output token of a request.
        FirstTokenEmitted = "first_token_emitted", chrome("first-token", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Request id.
            request: u64,
            /// Delivery time.
            at: SimTime,
        }
        /// A gateway finished streaming a request's output.
        GatewayCompleted = "gateway_completed", chrome("gateway-completed", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Request id.
            request: u64,
            /// Output tokens delivered.
            output_tokens: u64,
            /// Completion time.
            at: SimTime,
        }
        /// A gateway refused a request at the door under overload protection.
        RequestShed = "request_shed", chrome("request-shed", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Tenant the request belongs to.
            tenant: u64,
            /// Request id.
            request: u64,
            /// Shed reason, e.g. `queue_depth`, `kv_cost` or `brownout`.
            reason: String,
            /// Shed time.
            at: SimTime,
        }
        /// A gateway cancelled a request that blew a per-tenant deadline.
        RequestTimedOut = "request_timed_out", chrome("request-timed-out", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Request id.
            request: u64,
            /// Deadline that was missed, `ttft` or `total`.
            deadline: String,
            /// Cancellation time.
            at: SimTime,
        }
        /// A GPU crash destroyed a running request's HBM KV state.
        RequestCrashAborted = "request_crash_aborted",
            chrome("request-crash-aborted", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Request id.
            request: u64,
            /// Output tokens already delivered before the crash.
            generated: u64,
            /// Recovery time (the gateway's first step after the window).
            at: SimTime,
        }
        /// A crash-aborted request was re-queued under its retry budget.
        RequestRetried = "request_retried", chrome("request-retried", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Request id.
            request: u64,
            /// 1-based retry attempt number.
            attempt: u64,
            /// Re-queue time (backoff delays eligibility, not the event).
            at: SimTime,
        }
        /// A crashed request's state came back: `swap` when KV survived in the
        /// offload store, `recompute` when the prefill had to be replayed.
        RequestRestored = "request_restored", chrome("request-restored", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// Request id.
            request: u64,
            /// Restore mode, `swap` or `recompute`.
            mode: String,
            /// KV bytes restored (the sequence's context at restore time).
            bytes: u64,
            /// Restore time.
            at: SimTime,
        }
        /// A gateway entered or left brownout (tightened batch-tenant caps).
        GatewayBrownout = "gateway_brownout", chrome("gateway-brownout", "event", gateway) {
            /// Gateway scope label, interned by the gateway.
            gateway: Lane,
            /// `enter` or `exit`.
            state: String,
            /// Transition time.
            at: SimTime,
        }
        /// The coordinator process crashed: the in-memory lease book was lost
        /// and the epoch fence advanced.
        CoordinatorCrashed = "coordinator_crashed",
            chrome("coordinator-crashed", "event", "coordinator") {
            /// Epoch in force after the crash bump.
            epoch: u64,
            /// Leases wiped from the book.
            lost_leases: u64,
            /// Donated bytes wiped with them.
            lost_bytes: u64,
            /// Crash time.
            at: SimTime,
        }
        /// The restarted coordinator finished its rebuild and accepts verbs
        /// again (resync reports repopulate the book afterwards).
        CoordinatorRecovered = "coordinator_recovered",
            chrome("coordinator-recovered", "event", "coordinator") {
            /// Epoch the rebuilt book serves.
            epoch: u64,
            /// Recovery time.
            at: SimTime,
        }
        /// The coordinator's epoch fence advanced.
        EpochBumped = "epoch_bumped", chrome("epoch-bumped", "event", "coordinator") {
            /// Epoch before the bump.
            from: u64,
            /// Epoch after the bump.
            to: u64,
            /// Bump time.
            at: SimTime,
        }
        /// A control verb carrying a stale epoch was fenced off instead of
        /// mutating the rebuilt lease book.
        StaleEpochRejected = "stale_epoch_rejected",
            chrome("stale-epoch-rejected", "event", "coordinator") {
            /// The rejected verb (`free`, `heartbeat`, `resync`, …).
            verb: String,
            /// Epoch the caller held.
            held: u64,
            /// Epoch in force.
            current: u64,
            /// Rejection time.
            at: SimTime,
        }
        /// A control-plane partition started: GPUs at or past `split` lost
        /// the coordinator.
        PartitionStarted = "partition_started", chrome("partition-started", "fault", "faults") {
            /// First GPU index on the far side.
            split: u64,
            /// Partition start.
            at: SimTime,
        }
        /// A control-plane partition healed.
        PartitionHealed = "partition_healed", chrome("partition-healed", "fault", "faults") {
            /// First GPU index that was on the far side.
            split: u64,
            /// Heal time.
            at: SimTime,
        }
        /// A pre-crash lease was settled in the first post-recovery epoch:
        /// re-homed by a resync report, locally revoked, or released.
        LeaseReconciled = "lease_reconciled", chrome("lease-reconciled", "event", producer) {
            /// The party whose lease was settled.
            producer: String,
            /// The settled lease id (pre-crash id for local outcomes, the
            /// fresh id for re-homed donations).
            lease: u64,
            /// Bytes settled.
            bytes: u64,
            /// Epoch the settlement landed in.
            epoch: u64,
            /// Outcome: `rehomed`, `local-revoke`, or `released`.
            outcome: String,
            /// Settlement time.
            at: SimTime,
        }
        /// A runtime invariant audit failed (aqua-audit). Only emitted when a
        /// check actually trips, so clean audited runs journal the exact same
        /// event stream — and digest — as unaudited ones.
        AuditViolation = "audit_violation", chrome("audit-violation", "audit", "audit") {
            /// Violation kind (e.g. `double_free`, `port_overlap`).
            kind: String,
            /// Component that tripped the check (`coordinator`, `transfer`, …).
            scope: String,
            /// Human-readable description of the broken invariant.
            detail: String,
            /// When the illegal transition was observed.
            at: SimTime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn canonical_lines_are_valid_json() {
        let events = [
            TraceEvent::TransferCompleted {
                server: 0,
                lane: "nvlink-egress:gpu0".into(),
                bytes: 1 << 20,
                chunks: 2,
                queued: SimTime::ZERO,
                start: SimTime::from_millis(1),
                end: SimTime::from_millis(3),
            },
            TraceEvent::LeaseGranted {
                producer: "s0/gpu1".into(),
                lease: 7,
                bytes: 42,
                at: SimTime::from_secs(1),
            },
            TraceEvent::CoordinatorCrashed {
                epoch: 2,
                lost_leases: 3,
                lost_bytes: 1 << 30,
                at: SimTime::from_secs(12),
            },
            TraceEvent::EpochBumped {
                from: 1,
                to: 2,
                at: SimTime::from_secs(12),
            },
            TraceEvent::StaleEpochRejected {
                verb: "free".into(),
                held: 1,
                current: 2,
                at: SimTime::from_secs(13),
            },
            TraceEvent::LeaseReconciled {
                producer: "s0/gpu1".into(),
                lease: 9,
                bytes: 1 << 29,
                epoch: 2,
                outcome: "rehomed".into(),
                at: SimTime::from_secs(14),
            },
        ];
        for e in &events {
            let line = e.to_json_line();
            let v = json::parse(&line).expect("canonical line parses");
            assert_eq!(
                v.get("event").and_then(|v| v.as_str()),
                Some(e.name()),
                "line: {line}"
            );
        }
    }

    #[test]
    fn strings_are_escaped() {
        let e = TraceEvent::CoordinatorVerb {
            verb: "lease".into(),
            detail: "quote \" slash \\ newline \n".into(),
            at: SimTime::ZERO,
        };
        let line = e.to_json_line();
        let v = json::parse(&line).expect("escaped line parses");
        assert_eq!(
            v.get("detail").and_then(|v| v.as_str()),
            Some("quote \" slash \\ newline \n")
        );
    }
}
