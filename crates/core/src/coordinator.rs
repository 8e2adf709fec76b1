//! The AQUA central coordinator (§3).
//!
//! "The central coordinator keeps track of *consumers* and *producers* of
//! HBM … The coordinator program exposes a set of REST endpoints." In this
//! reproduction the endpoints are typed `&self` methods on a single-threaded
//! store (`RefCell`s shared through an `Rc`, like the simulator that drives
//! it); those verbs are the whole endpoint surface, with no request
//! envelope on top.
//!
//! Lifecycle (paper §B.1):
//!
//! 1. A producer's informer calls [`Coordinator::lease`] to donate HBM.
//! 2. A consumer's AQUA-LIB calls [`Coordinator::allocate`] for each
//!    offloaded region; the coordinator places it on a same-server lease or
//!    answers "DRAM" when nothing is available (transparent fallback).
//! 3. Under load the producer calls [`Coordinator::reclaim_request`]; the
//!    consumer learns about it at its next `respond()` boundary via
//!    [`Coordinator::pending_reclaim`], migrates the bytes away, and calls
//!    [`Coordinator::release`]. The producer polls
//!    [`Coordinator::reclaim_status`] until it reads
//!    [`ReclaimStatus::Released`].
//!
//! # Epochs and crash-recovery (DESIGN §4.12)
//!
//! The coordinator carries a monotonically increasing **epoch**, starting
//! at 1. A process crash ([`Coordinator::crash`], usually driven by a
//! [`FaultKind::CoordinatorCrash`] window through
//! [`Coordinator::set_fault_plan`]) wipes the in-memory lease book and
//! bumps the epoch; recovery ([`Coordinator::recover`]) reconstructs the
//! book from informer resync reports ([`Coordinator::resync_report`]) and
//! offloader re-registration ([`Coordinator::rehome`]).
//!
//! Every [`LeaseId`] carries the epoch that minted it, and every verb that
//! names a lease or an epoch is fenced on it: [`Coordinator::free`],
//! [`Coordinator::free_at`], [`Coordinator::release`],
//! [`Coordinator::try_allocate_on`], [`Coordinator::heartbeat`] and
//! [`Coordinator::resync_report`] answer [`AquaError::ServiceUnavailable`]
//! while the process is down and reject a stale epoch with
//! [`AquaError::StaleEpoch`] (journaled as `stale_epoch_rejected`) instead
//! of mutating the rebuilt book. There is no unfenced twin, so a caller
//! cannot present the wrong epoch and split-brain double grants are
//! impossible; the aqua-audit invariants `stale_epoch_accepted` and
//! `double_grant_across_epochs` prove it on every audited run.

use crate::error::AquaError;
use aqua_sim::audit::{AuditViolation, SharedAuditor};
use aqua_sim::fault::{FaultKind, FaultPlan};
use aqua_sim::gpu::GpuId;
use aqua_sim::time::{SimDuration, SimTime};
use aqua_telemetry::{null_tracer, trace, SharedTracer, TraceEvent};
use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cluster-wide address of a GPU: server index plus GPU index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuRef {
    /// Server index within the cluster.
    pub server: usize,
    /// GPU index within the server.
    pub gpu: GpuId,
}

impl GpuRef {
    /// A GPU on server 0 (single-server experiments).
    pub fn single(gpu: GpuId) -> Self {
        GpuRef { server: 0, gpu }
    }

    /// A GPU on an explicit server.
    pub fn new(server: usize, gpu: GpuId) -> Self {
        GpuRef { server, gpu }
    }
}

impl std::fmt::Display for GpuRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}/{}", self.server, self.gpu)
    }
}

/// Handle of one memory lease (one producer's donation): its id plus the
/// coordinator epoch that granted it. Only the coordinator mints one, and
/// every verb that takes a lease fences on its epoch. Ordered by id first
/// (ids never repeat, across epochs too) and displayed as the bare id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId {
    id: u64,
    epoch: u64,
}

impl LeaseId {
    /// The lease id, unique for the coordinator's lifetime.
    pub fn id(self) -> u64 {
        self.id
    }

    /// The coordinator epoch the lease was granted in.
    pub fn epoch(self) -> u64 {
        self.epoch
    }
}

impl std::fmt::Display for LeaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Where the coordinator placed an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationSite {
    /// On a producer GPU's leased HBM (fast path over the fabric).
    Peer {
        /// The lease backing the allocation.
        lease: LeaseId,
        /// The producer GPU holding the bytes.
        gpu: GpuRef,
    },
    /// In host DRAM (fallback path over PCIe).
    Dram,
}

impl AllocationSite {
    /// Returns `true` when placed on a peer GPU's lease.
    #[cfg(test)]
    fn is_peer(&self) -> bool {
        matches!(self, AllocationSite::Peer { .. })
    }
}

/// Producer-visible state of a reclaim request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimStatus {
    /// No reclaim is in flight for this lease.
    None,
    /// Consumers have been signalled and are still migrating bytes away.
    Pending,
    /// All bytes left the lease; the producer may take its memory back.
    Released {
        /// Bytes returned to the producer.
        bytes: u64,
        /// Simulation time at which the last byte left the producer's HBM.
        at: SimTime,
    },
}

/// Observable lifecycle state of a lease (for failure handling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Accepting allocations.
    Live,
    /// Reclaim in flight; no new allocations, existing bytes draining.
    Reclaiming,
    /// Gone: drained, expired, or force-revoked.
    Revoked,
    /// The coordinator has never heard of this lease id.
    Unknown,
}

/// Failure-detection knobs. Both default to `None` (disabled), which keeps
/// fault-free runs byte-identical to the pre-fault-injection behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureConfig {
    /// A producer that goes longer than this without a heartbeat is
    /// presumed dead; its leases are revoked with the consumer bytes inside
    /// them marked stranded.
    pub heartbeat_ttl: Option<SimDuration>,
    /// A reclaiming lease whose consumer has not finished releasing within
    /// this deadline is force-revoked so the producer is not held hostage
    /// by a stuck consumer.
    pub reclaim_deadline: Option<SimDuration>,
}

impl FailureConfig {
    /// The configuration the chaos experiments run with: 10 s heartbeat
    /// TTL, 60 s reclaim deadline.
    pub fn chaos() -> Self {
        FailureConfig {
            heartbeat_ttl: Some(SimDuration::from_secs(10)),
            reclaim_deadline: Some(SimDuration::from_secs(60)),
        }
    }
}

#[derive(Debug, Clone)]
struct Lease {
    producer: GpuRef,
    total: u64,
    used: u64,
    reclaiming: bool,
    released_at: SimTime,
    revoked: bool,
    /// Last heartbeat from the producer; `None` until the first `advance`
    /// arms the watchdog (leases are granted without a timestamp).
    last_heartbeat: Option<SimTime>,
    /// Absolute deadline for a reclaim in flight; armed by `advance` or
    /// [`Coordinator::reclaim_request`].
    reclaim_deadline: Option<SimTime>,
    /// A force-revoked lease still owes the producer one
    /// [`ReclaimStatus::Released`] report.
    pending_report: bool,
}

impl Lease {
    fn new(producer: GpuRef, total: u64, last_heartbeat: Option<SimTime>) -> Self {
        Lease {
            producer,
            total,
            used: 0,
            reclaiming: false,
            released_at: SimTime::ZERO,
            revoked: false,
            last_heartbeat,
            reclaim_deadline: None,
            pending_report: false,
        }
    }
}

#[derive(Debug)]
struct State {
    next_lease: u64,
    /// Keyed by id (then epoch), so every walk of the book runs in lease-id
    /// order. In a correctly fenced control plane every live key carries
    /// the current epoch; a live key from another epoch is the
    /// `double_grant_across_epochs` violation.
    leases: BTreeMap<LeaseId, Lease>,
    /// Consumer → producer pairings established by AQUA-PLACER (§4:
    /// "Selecting which GPU will be the producer for a consumer GPU is
    /// explicitly done by the AQUA-PLACER before the model starts").
    pairings: BTreeMap<GpuRef, GpuRef>,
    failure_config: FailureConfig,
    /// Timestamp of the last watchdog sweep (audited for monotonicity).
    last_advance: Option<SimTime>,
    /// Monotonically increasing fencing epoch; bumped by every crash.
    epoch: u64,
    /// Whether the process is down (crashed, rebuild not yet complete).
    down: bool,
    /// When the most recent rebuild completed (cleared by the next crash).
    recovered_at: Option<SimTime>,
    /// First post-recovery grant/re-home — with `recovered_at`, the
    /// experiment's time-to-first-regrant metric.
    first_regrant_at: Option<SimTime>,
    /// Per fault-plan window: (start applied, end applied). Control-plane
    /// windows are replayed exactly once each by `advance`.
    fault_applied: Vec<(bool, bool)>,
    /// Book revision: bumped whenever a lease is created or the book is
    /// cleared, a lease's `revoked`, `reclaiming` or `used` changes, or the
    /// epoch or `down` flag changes — everything
    /// [`Coordinator::lease_state`] and [`Coordinator::pending_reclaim`]
    /// answer from. An unchanged revision means both answers are unchanged
    /// for every lease.
    revision: u64,
}

impl Default for State {
    fn default() -> Self {
        State {
            next_lease: 0,
            leases: BTreeMap::new(),
            pairings: BTreeMap::new(),
            failure_config: FailureConfig::default(),
            last_advance: None,
            epoch: 1,
            down: false,
            recovered_at: None,
            first_regrant_at: None,
            fault_applied: Vec::new(),
            revision: 0,
        }
    }
}

impl State {
    /// Mints the next lease id in `epoch` and books `lease` under it.
    fn insert(&mut self, epoch: u64, lease: Lease) -> LeaseId {
        let id = LeaseId {
            id: self.next_lease,
            epoch,
        };
        self.next_lease += 1;
        self.revision += 1;
        self.leases.insert(id, lease);
        id
    }
}

/// The central store: single-threaded, shared as `Rc<Coordinator>`.
///
/// # Example
///
/// ```
/// use aqua_core::coordinator::{AllocationSite, Coordinator, GpuRef};
/// use aqua_sim::gpu::GpuId;
///
/// let coord = Coordinator::new();
/// let producer = GpuRef::single(GpuId(1));
/// let consumer = GpuRef::single(GpuId(0));
/// let lease = coord.lease(producer, 10 << 30);
/// match coord.allocate(consumer, 1 << 30) {
///     AllocationSite::Peer { lease: l, gpu } => {
///         assert_eq!(l, lease);
///         assert_eq!(gpu, producer);
///     }
///     AllocationSite::Dram => unreachable!("lease had room"),
/// }
/// ```
#[derive(Debug)]
pub struct Coordinator {
    state: RefCell<State>,
    tracer: RefCell<SharedTracer>,
    auditor: RefCell<Option<SharedAuditor>>,
    fault_plan: RefCell<Option<Arc<FaultPlan>>>,
}

impl Default for Coordinator {
    fn default() -> Self {
        Self::new()
    }
}

impl Coordinator {
    /// Creates an empty coordinator (tracing disabled).
    pub fn new() -> Self {
        Coordinator {
            state: RefCell::new(State::default()),
            tracer: RefCell::new(null_tracer()),
            auditor: RefCell::new(None),
            fault_plan: RefCell::new(None),
        }
    }

    /// Attaches a tracer. The coordinator journals its own fault paths
    /// (crashes, stale epochs, partitions, revocations); the timed
    /// lease/reclaim events are emitted by the callers that own the
    /// simulation clock (informers and offloaders) — most verbs, like their
    /// REST originals, carry no timestamp.
    pub fn set_tracer(&self, tracer: SharedTracer) {
        *self.tracer.borrow_mut() = tracer;
    }

    fn tracer(&self) -> Ref<'_, SharedTracer> {
        self.tracer.borrow()
    }

    /// Attaches an invariant auditor: lease state-machine legality (no
    /// double-grant, no double-free, no stale free of bytes a revoked lease
    /// never held) and heartbeat/watchdog monotonicity are then checked on
    /// every verb. A verb the coordinator properly *rejects* because the
    /// caller's view was stale (a free racing a revocation) is
    /// protocol-legal and records nothing.
    pub fn set_auditor(&self, auditor: SharedAuditor) {
        *self.auditor.borrow_mut() = Some(auditor);
    }

    fn audit(&self, build: impl FnOnce() -> AuditViolation) {
        if let Some(aud) = &*self.auditor.borrow() {
            aud.record(build());
        }
    }

    /// `/lease`: a producer offers `bytes` of its HBM. Returns the lease
    /// handle, which carries the epoch the grant belongs to: every verb
    /// that later names the lease is rejected with
    /// [`AquaError::StaleEpoch`] once a crash bumps it.
    pub fn lease(&self, producer: GpuRef, bytes: u64) -> LeaseId {
        let mut st = self.state.borrow_mut();
        let epoch = st.epoch;
        // Extend an existing live lease from the same producer if present
        // (same epoch only — merging across epochs would be a fencing hole).
        if let Some((id, lease)) = st.leases.iter_mut().find(|(id, l)| {
            l.producer == producer && !l.revoked && !l.reclaiming && id.epoch == epoch
        }) {
            lease.total += bytes;
            return *id;
        }
        let id = st.insert(epoch, Lease::new(producer, bytes, None));
        // aqua-audit: the merge above must keep every producer at one live
        // non-reclaiming lease; ending up with two is a double grant.
        let double_granted = st
            .leases
            .values()
            .filter(|l| l.producer == producer && !l.revoked && !l.reclaiming)
            .count()
            > 1;
        drop(st);
        if double_granted {
            self.audit(|| AuditViolation::DoubleGrant {
                producer: producer.to_string(),
                lease: id.id,
            });
        }
        id
    }

    /// Installs the failure-detection knobs (heartbeat TTL, reclaim
    /// deadline). With the default config [`Coordinator::advance`] is a
    /// no-op.
    pub fn set_failure_config(&self, cfg: FailureConfig) {
        self.state.borrow_mut().failure_config = cfg;
    }

    /// Installs the fault plan whose control-plane windows this coordinator
    /// replays: [`Coordinator::advance`] applies crash/rebuild and
    /// partition start/heal boundaries exactly once each, and
    /// [`Coordinator::reachable`] answers from the plan's active windows.
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.fault_plan.borrow_mut() = Some(plan);
    }

    /// Whether `gpu` can currently reach the coordinator: the process is
    /// not inside a [`FaultKind::CoordinatorCrash`] window and no active
    /// partition puts the GPU on the far side. Always true without a fault
    /// plan. Pure function of the plan and `at`, so informers and
    /// offloaders on different PDES lanes agree without any shared state.
    pub fn reachable(&self, gpu: GpuId, at: SimTime) -> bool {
        self.fault_plan
            .borrow()
            .as_ref()
            .is_none_or(|p| p.coordinator_reachable(gpu, at))
    }

    /// The book revision: it changes whenever any lease's
    /// [`Coordinator::lease_state`] or [`Coordinator::pending_reclaim`]
    /// answer may have, so lease sweeps that found nothing to act on at one
    /// revision find nothing until the revision moves.
    pub fn book_revision(&self) -> u64 {
        self.state.borrow().revision
    }

    /// One consumer iteration boundary at `now`, seen from `gpu`: `None`
    /// when the coordinator is unreachable (see
    /// [`Coordinator::reachable`]); otherwise it runs the failure watchdog
    /// ([`Coordinator::advance`]) and the book audit
    /// ([`Coordinator::audit_books`]), then answers `(epoch, revision)`.
    pub fn boundary(&self, gpu: GpuId, now: SimTime) -> Option<(u64, u64)> {
        if !self.reachable(gpu, now) {
            return None;
        }
        self.advance(now);
        self.audit_books(now);
        let st = self.state.borrow();
        Some((st.epoch, st.revision))
    }

    /// Whether [`Coordinator::boundary`] is, at any time, an answer that
    /// changes nothing: there is no fault plan (every GPU reaches the
    /// coordinator, and there is no window to replay), no auditor, and no
    /// watchdog to run (no failure config, or the process is down). Only
    /// the installers of those, or a verb that moves the process state,
    /// change the answer.
    pub(crate) fn boundary_is_quiet(&self) -> bool {
        self.fault_plan.borrow().is_none() && self.auditor.borrow().is_none() && {
            let st = self.state.borrow();
            let cfg = st.failure_config;
            st.down || (cfg.heartbeat_ttl.is_none() && cfg.reclaim_deadline.is_none())
        }
    }

    /// The current fencing epoch (starts at 1; bumped by every crash).
    pub fn epoch(&self) -> u64 {
        self.state.borrow().epoch
    }

    /// Whether the process is down (crashed, rebuild not yet complete).
    #[cfg(test)]
    fn is_down(&self) -> bool {
        self.state.borrow().down
    }

    /// The last heartbeat stamped on `lease`: what the TTL sweep reads.
    #[cfg(test)]
    pub(crate) fn last_heartbeat(&self, lease: LeaseId) -> Option<SimTime> {
        self.state.borrow().leases.get(&lease)?.last_heartbeat
    }

    /// `(recovered_at, first_regrant_at)` of the most recent crash — the
    /// experiment's time-to-first-regrant metric once both are `Some`.
    pub fn recovery_metrics(&self) -> (Option<SimTime>, Option<SimTime>) {
        let st = self.state.borrow();
        (st.recovered_at, st.first_regrant_at)
    }

    /// Simulates a coordinator process crash at `at`: the in-memory lease
    /// book is lost and the epoch is bumped, fencing every outstanding
    /// grant. The process stays down (sweeps do nothing, fenced verbs
    /// answer [`AquaError::ServiceUnavailable`]) until
    /// [`Coordinator::recover`]. AQUA-PLACER pairings survive — they are
    /// static configuration, not soft state. Idempotent while down.
    pub fn crash(&self, at: SimTime) {
        let (from, to, lost_leases, lost_bytes);
        {
            let mut st = self.state.borrow_mut();
            if st.down {
                return;
            }
            lost_leases = st.leases.values().filter(|l| !l.revoked).count() as u64;
            lost_bytes = st
                .leases
                .values()
                .filter(|l| !l.revoked)
                .map(|l| l.total)
                .sum::<u64>();
            st.leases.clear();
            st.revision += 1;
            from = st.epoch;
            st.epoch += 1;
            to = st.epoch;
            st.down = true;
            st.recovered_at = None;
            st.first_regrant_at = None;
            // A restarted process has no memory of earlier sweeps; the
            // watchdog re-arms on the first post-recovery advance.
            st.last_advance = None;
        }
        let tracer = self.tracer();
        trace!(
            tracer,
            TraceEvent::CoordinatorCrashed {
                epoch: from,
                lost_leases,
                lost_bytes,
                at,
            }
        );
        trace!(tracer, TraceEvent::EpochBumped { from, to, at });
    }

    /// Completes the rebuild after a [`Coordinator::crash`]: the process
    /// answers verbs again (in the bumped epoch) and waits for resync
    /// reports and re-homing to repopulate the book. Idempotent while up.
    pub fn recover(&self, at: SimTime) {
        let epoch;
        {
            let mut st = self.state.borrow_mut();
            if !st.down {
                return;
            }
            st.down = false;
            st.revision += 1;
            st.recovered_at = Some(at);
            epoch = st.epoch;
        }
        trace!(
            self.tracer(),
            TraceEvent::CoordinatorRecovered { epoch, at }
        );
    }

    /// Down/epoch fencing shared by every verb that names an epoch: `Err`
    /// while the process is down or when `held` is not the current epoch.
    fn fence(&self, st: &State, verb: &str, held: u64, at: SimTime) -> Result<(), AquaError> {
        if st.down || held != st.epoch {
            return Err(self.reject(st, verb, held, at));
        }
        Ok(())
    }

    /// The fence's error, off the hot path. A stale epoch is journaled as
    /// `stale_epoch_rejected`.
    #[cold]
    fn reject(&self, st: &State, verb: &str, held: u64, at: SimTime) -> AquaError {
        if st.down {
            return AquaError::ServiceUnavailable;
        }
        let current = st.epoch;
        trace!(
            self.tracer(),
            TraceEvent::StaleEpochRejected {
                verb: verb.to_owned(),
                held,
                current,
                at,
            }
        );
        AquaError::StaleEpoch { held, current }
    }

    /// `/resync`: a producer's informer re-registers its full donated
    /// inventory after noticing an epoch change — the informer-side half
    /// of control-plane reconstruction. Fenced: the report must carry the
    /// coordinator's *current* epoch. A report prepared against an older
    /// epoch (e.g. racing a second crash that bumped the epoch again
    /// mid-resync) is discarded with [`AquaError::StaleEpoch`] and
    /// journaled, never merged into the rebuilt book.
    ///
    /// # Errors
    ///
    /// [`AquaError::ServiceUnavailable`] while the process is down,
    /// [`AquaError::StaleEpoch`] when `observed_epoch` is not current.
    pub fn resync_report(
        &self,
        producer: GpuRef,
        bytes: u64,
        observed_epoch: u64,
        now: SimTime,
    ) -> Result<LeaseId, AquaError> {
        self.fence(&self.state.borrow(), "resync", observed_epoch, now)?;
        Ok(self.merge_resync(producer, bytes, observed_epoch, now))
    }

    /// Fuzz self-test entry: merges a resync report stamped with
    /// `report_epoch` *without* the fence [`Coordinator::resync_report`]
    /// applies. A correct control plane never calls it; `aqua-repro fuzz
    /// --plant-fence` does, to prove the audit catches the stale merge
    /// (`stale_epoch_accepted`) and the cross-epoch lease it leaves live
    /// (`double_grant_across_epochs`).
    pub fn plant_stale_resync(
        &self,
        producer: GpuRef,
        bytes: u64,
        report_epoch: u64,
        at: SimTime,
    ) -> LeaseId {
        self.merge_resync(producer, bytes, report_epoch, at)
    }

    /// Unfenced body of [`Coordinator::resync_report`]: merges a producer's
    /// reported inventory into the book, stamping the lease with
    /// `report_epoch` exactly as claimed. Only the fenced verb and the
    /// [`Coordinator::plant_stale_resync`] self-test reach it, so an
    /// unfenced stale merge records `stale_epoch_accepted`, and any live
    /// lease it leaves behind from a non-current epoch records
    /// `double_grant_across_epochs`.
    fn merge_resync(
        &self,
        producer: GpuRef,
        bytes: u64,
        report_epoch: u64,
        at: SimTime,
    ) -> LeaseId {
        let mut violations: Vec<AuditViolation> = Vec::new();
        let id;
        {
            let mut st = self.state.borrow_mut();
            let current = st.epoch;
            if report_epoch != current {
                violations.push(AuditViolation::StaleEpochAccepted {
                    scope: "resync".to_owned(),
                    held: report_epoch,
                    current,
                    at,
                });
            }
            // A resync carries the producer's *full* inventory, so it can
            // only grow an existing same-epoch lease, never shrink it.
            if let Some((eid, l)) = st.leases.iter_mut().find(|(id, l)| {
                l.producer == producer && !l.revoked && !l.reclaiming && id.epoch == report_epoch
            }) {
                l.total = l.total.max(bytes);
                l.last_heartbeat = Some(at);
                id = *eid;
            } else {
                id = st.insert(report_epoch, Lease::new(producer, bytes, Some(at)));
            }
            // Any live lease now claiming a non-current epoch is the
            // split-brain the fencing exists to prevent.
            for (lease, l) in &st.leases {
                if l.producer == producer && !l.revoked && lease.epoch != current {
                    violations.push(AuditViolation::DoubleGrantAcrossEpochs {
                        producer: producer.to_string(),
                        lease: lease.id,
                        prior_epoch: lease.epoch,
                        epoch: current,
                    });
                }
            }
            if report_epoch == current && st.recovered_at.is_some() && st.first_regrant_at.is_none()
            {
                st.first_regrant_at = Some(at);
            }
        }
        for v in violations {
            self.audit(move || v);
        }
        id
    }

    /// Post-recovery re-registration of consumer bytes that still
    /// physically live on `producer`'s HBM: places them back onto the
    /// producer's current-epoch lease (least-loaded, ties by id) and
    /// journals `lease_reconciled` with outcome `rehomed`. Returns the
    /// current-epoch lease; `None` when the producer has not resynced yet or
    /// lacks room — the caller must then migrate the bytes to DRAM.
    pub fn rehome(&self, producer: GpuRef, bytes: u64, now: SimTime) -> Option<LeaseId> {
        let lease;
        {
            let mut st = self.state.borrow_mut();
            if st.down {
                return None;
            }
            let epoch = st.epoch;
            // Least-loaded, ties by id: the first minimum in id order.
            let (id, l) = st
                .leases
                .iter_mut()
                .filter(|(id, l)| {
                    l.producer == producer
                        && !l.revoked
                        && !l.reclaiming
                        && id.epoch == epoch
                        && l.total - l.used >= bytes
                })
                .min_by_key(|(_, l)| l.used)?;
            l.used += bytes;
            lease = *id;
            st.revision += 1;
            if st.recovered_at.is_some() && st.first_regrant_at.is_none() {
                st.first_regrant_at = Some(now);
            }
        }
        let tracer = self.tracer();
        trace!(
            tracer,
            TraceEvent::LeaseReconciled {
                producer: producer.to_string(),
                lease: lease.id,
                bytes,
                epoch: lease.epoch,
                outcome: "rehomed".to_owned(),
                at: now,
            }
        );
        Some(lease)
    }

    /// Applies the control-plane fault windows whose boundaries `now` has
    /// passed, exactly once each and in boundary-time order: a
    /// [`FaultKind::CoordinatorCrash`] start wipes the book and bumps the
    /// epoch, its end completes the rebuild, and
    /// [`FaultKind::Partition`] edges journal
    /// `partition_started`/`partition_healed`. Events are stamped with the
    /// window boundary times, so the journal is independent of when the
    /// sweep happens to run (jobs/lanes determinism).
    fn apply_control_plane_faults(&self, now: SimTime) {
        let plan = self.fault_plan.borrow();
        let Some(plan) = plan.as_deref() else {
            return;
        };
        // (boundary time, window index, is_end) not yet applied.
        let mut pending: Vec<(SimTime, usize, bool)> = Vec::new();
        {
            let mut st = self.state.borrow_mut();
            if st.fault_applied.len() < plan.windows().len() {
                st.fault_applied
                    .resize(plan.windows().len(), (false, false));
            }
            for (i, w) in plan.windows().iter().enumerate() {
                if !matches!(
                    w.kind,
                    FaultKind::CoordinatorCrash | FaultKind::Partition { .. }
                ) {
                    continue;
                }
                if now >= w.start && !st.fault_applied[i].0 {
                    st.fault_applied[i].0 = true;
                    pending.push((w.start, i, false));
                }
                if now >= w.end && !st.fault_applied[i].1 {
                    st.fault_applied[i].1 = true;
                    pending.push((w.end, i, true));
                }
            }
        }
        pending.sort_by_key(|&(t, i, is_end)| (t, is_end, i));
        for (t, i, is_end) in pending {
            match plan.windows()[i].kind {
                FaultKind::CoordinatorCrash => {
                    if is_end {
                        self.recover(t);
                    } else {
                        self.crash(t);
                    }
                }
                FaultKind::Partition { split } => {
                    let tracer = self.tracer();
                    if is_end {
                        trace!(
                            tracer,
                            TraceEvent::PartitionHealed {
                                split: split as u64,
                                at: t,
                            }
                        );
                    } else {
                        trace!(
                            tracer,
                            TraceEvent::PartitionStarted {
                                split: split as u64,
                                at: t,
                            }
                        );
                    }
                }
                _ => {}
            }
        }
    }

    /// `/heartbeat`: a producer proves it is alive at `now`, presenting the
    /// epoch it believes is current. Stamps every live lease of `producer`.
    /// Cheap and journal-silent, so informers can call it
    /// every control tick. A stale liveness proof is worse than none — a
    /// pre-crash heartbeat must never keep a rebuilt lease alive.
    ///
    /// # Errors
    ///
    /// [`AquaError::ServiceUnavailable`] while the process is down,
    /// [`AquaError::StaleEpoch`] when `epoch` is not current (also
    /// journaled as `stale_epoch_rejected`).
    pub fn heartbeat(&self, producer: GpuRef, now: SimTime, epoch: u64) -> Result<(), AquaError> {
        let mut regressed: Option<SimTime> = None;
        {
            let mut st = self.state.borrow_mut();
            self.fence(&st, "heartbeat", epoch, now)?;
            for l in st.leases.values_mut() {
                if l.producer == producer && !l.revoked {
                    if l.last_heartbeat.is_some_and(|prev| now < prev) {
                        regressed = l.last_heartbeat;
                    }
                    l.last_heartbeat = Some(now);
                }
            }
        }
        if let Some(prev) = regressed {
            self.audit(|| AuditViolation::TimeRegression {
                scope: "coordinator.heartbeat".to_owned(),
                prev,
                next: now,
            });
        }
        Ok(())
    }

    /// Observable state of a lease.
    pub fn lease_state(&self, lease: LeaseId) -> LeaseState {
        let st = self.state.borrow();
        match st.leases.get(&lease) {
            None => LeaseState::Unknown,
            Some(l) if l.revoked => LeaseState::Revoked,
            Some(l) if l.reclaiming => LeaseState::Reclaiming,
            Some(_) => LeaseState::Live,
        }
    }

    /// Total bytes still leased by `producer` on non-revoked leases —
    /// what a producer's informer should believe it has donated.
    pub fn live_lease_bytes(&self, producer: GpuRef) -> u64 {
        let st = self.state.borrow();
        st.leases
            .values()
            .filter(|l| l.producer == producer && !l.revoked)
            .map(|l| l.total)
            .sum()
    }

    /// Failure-detection sweep at simulated time `now`. First replays any
    /// control-plane fault boundaries `now` has passed (coordinator
    /// crash/rebuild, partition start/heal — see
    /// [`Coordinator::set_fault_plan`]); then, unless the process is down,
    /// expires leases whose producers missed the heartbeat TTL and
    /// force-revokes reclaims that blew their deadline. Returns how many
    /// leases were revoked.
    ///
    /// Watchdogs arm lazily: the first `advance` after a grant (or after a
    /// reclaim starts) stamps the baseline, so a lease is never punished
    /// for time that passed before monitoring began.
    ///
    /// # Sweep order (pinned)
    ///
    /// Per lease, the heartbeat TTL is checked *before* the reclaim
    /// deadline, and an expiry wins: a dead producer's lease journals
    /// `lease_expired`, never `lease_force_revoked`, even when its reclaim
    /// deadline has also lapsed. The sweep walks the book in lease-id
    /// order, so the journal never depends on insertion order. Epoch
    /// recovery replays this same sweep; the order is pinned by the
    /// `advance_sweep_order_is_ttl_first_then_lease_id` test so revocation
    /// events cannot reorder between jobs/lanes configurations.
    pub fn advance(&self, now: SimTime) -> u64 {
        self.apply_control_plane_faults(now);
        let (down, cfg) = {
            let st = self.state.borrow();
            (st.down, st.failure_config)
        };
        if down {
            // A crashed process sweeps nothing; its watchdog state died
            // with the lease book.
            return 0;
        }
        if cfg.heartbeat_ttl.is_none() && cfg.reclaim_deadline.is_none() {
            return 0;
        }
        // Collect events first (in lease-id order), emit after releasing
        // the book.
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut regressed: Option<SimTime> = None;
        {
            let mut st = self.state.borrow_mut();
            if st.last_advance.is_some_and(|prev| now < prev) {
                regressed = st.last_advance;
            }
            st.last_advance = Some(st.last_advance.map_or(now, |prev| prev.max(now)));
            for (id, l) in st.leases.iter_mut() {
                if l.revoked {
                    continue;
                }
                if let Some(ttl) = cfg.heartbeat_ttl {
                    match l.last_heartbeat {
                        None => l.last_heartbeat = Some(now),
                        Some(hb) if now.duration_since(hb.min(now)) > ttl => {
                            // Producer is dead: nobody is left to take the
                            // memory back, so no Released report is owed.
                            l.revoked = true;
                            l.pending_report = false;
                            events.push(TraceEvent::LeaseExpired {
                                producer: l.producer.to_string(),
                                lease: id.id,
                                stranded: l.used,
                                at: now,
                            });
                            continue;
                        }
                        Some(_) => {}
                    }
                }
                if !l.reclaiming {
                    continue;
                }
                if let Some(deadline) = cfg.reclaim_deadline {
                    match l.reclaim_deadline {
                        None => l.reclaim_deadline = Some(now + deadline),
                        Some(d) if now >= d && l.used > 0 => {
                            // Consumer blew the deadline: hand the memory
                            // back to the (live) producer anyway.
                            l.revoked = true;
                            l.pending_report = true;
                            l.released_at = l.released_at.max(d);
                            events.push(TraceEvent::LeaseForceRevoked {
                                producer: l.producer.to_string(),
                                lease: id.id,
                                stranded: l.used,
                                at: now,
                            });
                        }
                        Some(_) => {}
                    }
                }
            }
            // Every revocation above journals one event.
            if !events.is_empty() {
                st.revision += 1;
            }
        }
        if let Some(prev) = regressed {
            self.audit(|| AuditViolation::TimeRegression {
                scope: "coordinator.advance".to_owned(),
                prev,
                next: now,
            });
        }
        let revoked = events.len() as u64;
        if revoked > 0 {
            let tracer = self.tracer();
            for ev in events {
                trace!(tracer, ev);
            }
        }
        revoked
    }

    /// Records an AQUA-PLACER pairing: `consumer` offloads to `producer`
    /// (and only to it — "AQUA-PLACER matches every consumer GPU with
    /// exactly one producer GPU", §4). Without a pairing, `allocate`
    /// spreads consumers across the least-loaded leases.
    pub fn pair(&self, consumer: GpuRef, producer: GpuRef) {
        let mut st = self.state.borrow_mut();
        st.pairings.insert(consumer, producer);
    }

    /// `/allocate`: a consumer asks where to put `bytes` of offloaded
    /// context. Prefers the paired producer's lease (or, unpaired, the
    /// least-loaded same-server lease with room); otherwise DRAM.
    pub fn allocate(&self, consumer: GpuRef, bytes: u64) -> AllocationSite {
        let mut st = self.state.borrow_mut();
        let paired = st.pairings.get(&consumer).copied();
        // Deterministic choice: least-loaded lease, ties by id (the first
        // minimum in id order). Spreading keeps unpaired consumers off a
        // single producer's NVLink ports.
        let best = st
            .leases
            .iter_mut()
            .filter(|(_, l)| {
                !l.revoked
                    && !l.reclaiming
                    && l.producer.server == consumer.server
                    && l.producer.gpu != consumer.gpu
                    && l.total - l.used >= bytes
                    && paired.is_none_or(|p| l.producer == p)
            })
            .min_by_key(|(_, l)| l.used);
        if let Some((id, lease)) = best {
            lease.used += bytes;
            let site = AllocationSite::Peer {
                lease: *id,
                gpu: lease.producer,
            };
            st.revision += 1;
            site
        } else {
            AllocationSite::Dram
        }
    }

    /// Tries to allocate `bytes` on a *specific* lease (consumer-side lease
    /// affinity: growing context stays with the producer already holding
    /// it, preserving AQUA-PLACER's one-producer-per-consumer pairing).
    /// Returns `true` on success; a lease from another epoch (or any lease
    /// while the process is down) takes nothing.
    pub fn try_allocate_on(&self, lease: LeaseId, bytes: u64) -> bool {
        let mut st = self.state.borrow_mut();
        if self
            .fence(&st, "allocate", lease.epoch, SimTime::ZERO)
            .is_err()
        {
            return false;
        }
        match st.leases.get_mut(&lease) {
            Some(l) if !l.revoked && !l.reclaiming && l.total - l.used >= bytes => {
                l.used += bytes;
                st.revision += 1;
                true
            }
            _ => false,
        }
    }

    /// `/free`: a consumer returns `bytes` previously allocated on `lease`
    /// (after freeing or migrating the tensors away). The untimed form of
    /// [`Coordinator::free_at`], stamped at [`SimTime::ZERO`].
    ///
    /// # Errors
    ///
    /// As [`Coordinator::free_at`].
    pub fn free(&self, lease: LeaseId, bytes: u64) -> Result<(), AquaError> {
        self.free_at(lease, bytes, SimTime::ZERO)
    }

    /// `/free` at simulated time `now`, fenced on the epoch `lease` was
    /// granted in: a consumer whose view predates a crash can never mutate
    /// the rebuilt book.
    ///
    /// # Errors
    ///
    /// [`AquaError::ServiceUnavailable`] while the process is down,
    /// [`AquaError::StaleEpoch`] when `lease` was granted in an earlier
    /// epoch, [`AquaError::UnknownLease`] for an id the coordinator never
    /// issued, [`AquaError::LeaseRevoked`] when the lease was revoked (e.g.
    /// by heartbeat expiry) before the free arrived, and
    /// [`AquaError::OverFree`] when `bytes` exceeds the lease's usage — the
    /// caller's bytes are already gone in the revoked and stale cases, and
    /// an over-free is a double free.
    pub fn free_at(&self, lease: LeaseId, bytes: u64, now: SimTime) -> Result<(), AquaError> {
        self.free_inner("free", lease, bytes, now)
    }

    /// Shared fenced body of [`Coordinator::free_at`] and
    /// [`Coordinator::release`] with the aqua-audit hooks: an over-free of
    /// a live lease is a double free, and a stale free of more bytes than a
    /// revoked lease ever held means the caller's books were corrupt before
    /// the revocation raced it.
    fn free_inner(
        &self,
        verb: &str,
        lease: LeaseId,
        bytes: u64,
        at: SimTime,
    ) -> Result<(), AquaError> {
        let mut violation: Option<AuditViolation> = None;
        let result = {
            let mut st = self.state.borrow_mut();
            self.fence(&st, verb, lease.epoch, at)?;
            match st.leases.get_mut(&lease) {
                None => Err(AquaError::UnknownLease(lease)),
                Some(l) if l.revoked => {
                    if bytes > l.used {
                        violation = Some(AuditViolation::FreeAfterRevoke {
                            scope: verb.to_owned(),
                            lease: lease.id,
                            at,
                        });
                    }
                    Err(AquaError::LeaseRevoked(lease))
                }
                Some(l) if l.used < bytes => {
                    violation = Some(AuditViolation::DoubleFree {
                        scope: verb.to_owned(),
                        lease: lease.id,
                        used: l.used,
                        requested: bytes,
                        at,
                    });
                    Err(AquaError::OverFree {
                        lease,
                        used: l.used,
                        requested: bytes,
                    })
                }
                Some(l) => {
                    l.used -= bytes;
                    l.released_at = l.released_at.max(at);
                    st.revision += 1;
                    Ok(())
                }
            }
        };
        if let Some(v) = violation {
            self.audit(|| v);
        }
        result
    }

    /// `/reclaim_request`: the producer wants its memory back at `now`.
    /// Marks every live lease of `producer` as reclaiming and arms the
    /// reclaim deadline immediately; consumers observe the reclaim at their
    /// next `respond()` boundary.
    pub fn reclaim_request(&self, producer: GpuRef, now: SimTime) {
        let mut st = self.state.borrow_mut();
        st.revision += 1;
        let deadline = st.failure_config.reclaim_deadline;
        for l in st.leases.values_mut() {
            if l.producer == producer && !l.revoked {
                l.reclaiming = true;
                if let (Some(d), None) = (deadline, l.reclaim_deadline) {
                    l.reclaim_deadline = Some(now + d);
                }
            }
        }
    }

    /// Consumer side of `/respond`: bytes this consumer must migrate off
    /// `lease` right now (its full usage while the lease is reclaiming).
    pub fn pending_reclaim(&self, lease: LeaseId) -> u64 {
        let st = self.state.borrow();
        st.leases
            .get(&lease)
            .filter(|l| l.reclaiming)
            .map(|l| l.used)
            .unwrap_or(0)
    }

    /// Consumer notification that `bytes` finished leaving the lease at
    /// simulated time `at`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Coordinator::free_at`]: down, stale epoch,
    /// unknown lease, revoked lease (the bytes were already handed back by
    /// a forced revocation), or an over-release.
    pub fn release(&self, lease: LeaseId, bytes: u64, at: SimTime) -> Result<(), AquaError> {
        trace!(
            self.tracer(),
            TraceEvent::CoordinatorVerb {
                verb: "release".to_owned(),
                detail: format!("lease={lease} bytes={bytes}"),
                at,
            }
        );
        self.free_inner("release", lease, bytes, at)
    }

    /// `/reclaim_status`: the producer polls for completion. When released,
    /// the lease is revoked and its bytes reported back exactly once.
    /// Force-revoked leases also report here once, so a producer whose
    /// consumer got stuck still learns its memory came back.
    pub fn reclaim_status(&self, producer: GpuRef) -> ReclaimStatus {
        let mut st = self.state.borrow_mut();
        let any_pending = st
            .leases
            .values()
            .any(|l| l.producer == producer && !l.revoked && l.reclaiming && l.used > 0);
        let mut released_bytes = 0u64;
        let mut released_at = SimTime::ZERO;
        let mut revoked = false;
        for l in st.leases.values_mut() {
            if l.producer != producer {
                continue;
            }
            if l.revoked {
                // A force-revocation reports exactly once, and only on a
                // poll that actually answers Released.
                if l.pending_report && !any_pending {
                    l.pending_report = false;
                    released_bytes += l.total;
                    released_at = released_at.max(l.released_at);
                }
                continue;
            }
            if !l.reclaiming {
                continue;
            }
            if l.used == 0 {
                l.revoked = true;
                released_bytes += l.total;
                released_at = released_at.max(l.released_at);
                revoked = true;
            }
        }
        if revoked {
            st.revision += 1;
        }
        if any_pending {
            ReclaimStatus::Pending
        } else if released_bytes > 0 {
            ReclaimStatus::Released {
                bytes: released_bytes,
                at: released_at,
            }
        } else {
            ReclaimStatus::None
        }
    }

    /// Total bytes currently leased (live leases only).
    pub fn leased_bytes(&self) -> u64 {
        let st = self.state.borrow();
        st.leases
            .values()
            .filter(|l| !l.revoked)
            .map(|l| l.total)
            .sum()
    }

    /// Total bytes of leases currently used by consumers.
    pub fn used_bytes(&self) -> u64 {
        let st = self.state.borrow();
        st.leases
            .values()
            .filter(|l| !l.revoked)
            .map(|l| l.used)
            .sum()
    }

    /// aqua-audit sweep over the lease books at `at`: every live lease must
    /// keep `used ≤ total` (allocations are bounded by the donation), no
    /// producer may hold two live non-reclaiming leases, and no live lease
    /// may claim a non-current epoch (`double_grant_across_epochs` — a
    /// lease honored in two epochs). Cheap enough to run at every sample
    /// boundary of an audited run.
    pub fn audit_books(&self, at: SimTime) {
        let auditor = self.auditor.borrow();
        let Some(aud) = auditor.as_deref() else {
            return;
        };
        let mut found: Vec<AuditViolation> = Vec::new();
        {
            let st = self.state.borrow();
            let epoch = st.epoch;
            let mut live_producers: Vec<GpuRef> = Vec::new();
            for (id, l) in &st.leases {
                if l.revoked {
                    continue;
                }
                if id.epoch != epoch {
                    found.push(AuditViolation::DoubleGrantAcrossEpochs {
                        producer: l.producer.to_string(),
                        lease: id.id,
                        prior_epoch: id.epoch,
                        epoch,
                    });
                }
                if l.used > l.total {
                    found.push(AuditViolation::ByteConservation {
                        scope: format!("lease:{id}"),
                        expected: l.total,
                        actual: l.used,
                        at,
                    });
                }
                if !l.reclaiming {
                    if live_producers.contains(&l.producer) {
                        found.push(AuditViolation::DoubleGrant {
                            producer: l.producer.to_string(),
                            lease: id.id,
                        });
                    }
                    live_producers.push(l.producer);
                }
            }
        }
        for v in found {
            aud.record(v);
        }
    }

    /// Bytes available for new allocations on server `server`.
    pub fn available_on_server(&self, server: usize) -> u64 {
        let st = self.state.borrow();
        st.leases
            .values()
            .filter(|l| !l.revoked && !l.reclaiming && l.producer.server == server)
            .map(|l| l.total - l.used)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn refs() -> (GpuRef, GpuRef) {
        (GpuRef::single(GpuId(0)), GpuRef::single(GpuId(1)))
    }

    #[test]
    fn allocate_prefers_peer_then_falls_back() {
        let c = Coordinator::new();
        let (consumer, producer) = refs();
        let lease = c.lease(producer, 10);
        assert!(matches!(
            c.allocate(consumer, 6),
            AllocationSite::Peer { lease: l, .. } if l == lease
        ));
        // Only 4 bytes left: a 6-byte allocation falls back to DRAM.
        assert_eq!(c.allocate(consumer, 6), AllocationSite::Dram);
        assert!(matches!(
            c.allocate(consumer, 4),
            AllocationSite::Peer { .. }
        ));
    }

    #[test]
    fn consumer_never_allocates_on_itself_or_other_servers() {
        let c = Coordinator::new();
        let me = GpuRef::single(GpuId(0));
        c.lease(me, 100);
        assert_eq!(
            c.allocate(me, 10),
            AllocationSite::Dram,
            "self-lease unusable"
        );
        let other_server = GpuRef::new(1, GpuId(1));
        c.lease(other_server, 100);
        assert_eq!(
            c.allocate(me, 10),
            AllocationSite::Dram,
            "cross-server leases are unreachable over NVLink"
        );
    }

    #[test]
    fn lease_extension_merges() {
        let c = Coordinator::new();
        let (_, producer) = refs();
        let a = c.lease(producer, 10);
        let b = c.lease(producer, 5);
        assert_eq!(a, b);
        assert_eq!(c.leased_bytes(), 15);
    }

    #[test]
    fn free_returns_capacity() {
        let c = Coordinator::new();
        let (consumer, producer) = refs();
        let lease = c.lease(producer, 10);
        c.allocate(consumer, 10);
        assert_eq!(c.allocate(consumer, 1), AllocationSite::Dram);
        c.free(lease, 10).unwrap();
        assert!(matches!(
            c.allocate(consumer, 1),
            AllocationSite::Peer { .. }
        ));
    }

    #[test]
    fn reclaim_protocol_round_trip() {
        let c = Coordinator::new();
        let (consumer, producer) = refs();
        let lease = c.lease(producer, 100);
        c.allocate(consumer, 60);
        assert_eq!(c.reclaim_status(producer), ReclaimStatus::None);

        c.reclaim_request(producer, SimTime::ZERO);
        assert_eq!(c.pending_reclaim(lease), 60);
        assert_eq!(c.reclaim_status(producer), ReclaimStatus::Pending);
        // A reclaiming lease takes no new allocations.
        assert_eq!(c.allocate(consumer, 1), AllocationSite::Dram);

        let at = SimTime::from_secs(42);
        c.release(lease, 60, at).unwrap();
        assert_eq!(
            c.reclaim_status(producer),
            ReclaimStatus::Released { bytes: 100, at }
        );
        // Reported exactly once.
        assert_eq!(c.reclaim_status(producer), ReclaimStatus::None);
        assert_eq!(c.leased_bytes(), 0);
    }

    #[test]
    fn reclaim_of_unused_lease_is_immediate() {
        let c = Coordinator::new();
        let (_, producer) = refs();
        c.lease(producer, 50);
        c.reclaim_request(producer, SimTime::ZERO);
        assert!(matches!(
            c.reclaim_status(producer),
            ReclaimStatus::Released { bytes: 50, .. }
        ));
    }

    #[test]
    fn free_errors_instead_of_panicking() {
        use crate::error::AquaError;

        let c = Coordinator::new();
        let unknown = LeaseId { id: 9, epoch: 1 };
        assert_eq!(c.free(unknown, 1), Err(AquaError::UnknownLease(unknown)));
        let (consumer, producer) = refs();
        let lease = c.lease(producer, 10);
        c.allocate(consumer, 4);
        assert_eq!(
            c.free(lease, 5),
            Err(AquaError::OverFree {
                lease,
                used: 4,
                requested: 5
            })
        );
        assert_eq!(c.used_bytes(), 4, "failed free must not change state");
        assert_eq!(
            c.release(unknown, 1, SimTime::ZERO),
            Err(AquaError::UnknownLease(unknown))
        );
    }

    #[test]
    fn available_on_server_accounts_usage() {
        let c = Coordinator::new();
        let (consumer, producer) = refs();
        c.lease(producer, 100);
        assert_eq!(c.available_on_server(0), 100);
        c.allocate(consumer, 30);
        assert_eq!(c.available_on_server(0), 70);
        assert_eq!(c.available_on_server(1), 0);
        assert_eq!(c.used_bytes(), 30);
    }

    #[test]
    fn pairing_restricts_allocation_target() {
        let c = Coordinator::new();
        let consumer = GpuRef::single(GpuId(0));
        let p1 = GpuRef::single(GpuId(1));
        let p2 = GpuRef::single(GpuId(2));
        c.lease(p1, 100);
        c.lease(p2, 100);
        c.pair(consumer, p2);
        match c.allocate(consumer, 10) {
            AllocationSite::Peer { gpu, .. } => assert_eq!(gpu, p2),
            AllocationSite::Dram => panic!("paired lease had room"),
        }
        // Paired lease exhausted: DRAM, never the other producer.
        c.allocate(consumer, 90);
        assert_eq!(c.allocate(consumer, 10), AllocationSite::Dram);
    }

    #[test]
    fn unpaired_allocation_spreads_by_load() {
        let c = Coordinator::new();
        let consumer = GpuRef::single(GpuId(0));
        c.lease(GpuRef::single(GpuId(1)), 100);
        c.lease(GpuRef::single(GpuId(2)), 100);
        let first = match c.allocate(consumer, 40) {
            AllocationSite::Peer { gpu, .. } => gpu,
            _ => panic!(),
        };
        let second = match c.allocate(consumer, 40) {
            AllocationSite::Peer { gpu, .. } => gpu,
            _ => panic!(),
        };
        assert_ne!(first, second, "least-loaded lease wins");
    }

    #[test]
    fn heartbeat_expiry_revokes_and_journals() {
        let journal = Arc::new(aqua_telemetry::JournalTracer::new());
        let c = Coordinator::new();
        c.set_tracer(journal.clone());
        c.set_failure_config(FailureConfig::chaos());
        let (consumer, producer) = refs();
        let lease = c.lease(producer, 100);
        c.allocate(consumer, 40);

        // First sweep arms the watchdog; nothing expires yet.
        assert_eq!(c.advance(SimTime::from_secs(1)), 0);
        c.heartbeat(producer, SimTime::from_secs(5), 1).unwrap();
        assert_eq!(c.advance(SimTime::from_secs(10)), 0, "5s silence < 10s TTL");
        // 20s of silence blows the TTL.
        assert_eq!(c.advance(SimTime::from_secs(25)), 1);
        assert_eq!(c.lease_state(lease), LeaseState::Revoked);
        assert_eq!(c.leased_bytes(), 0);
        assert_eq!(c.live_lease_bytes(producer), 0);
        assert!(!c.try_allocate_on(lease, 1), "revoked lease takes nothing");
        // A dead producer gets no Released report.
        assert_eq!(c.reclaim_status(producer), ReclaimStatus::None);
        assert_eq!(crate::tally(&journal, "lease_expired"), 1);
        assert!(journal
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::LeaseExpired { stranded: 40, .. })));
        // Idempotent: a later sweep does not double-revoke.
        assert_eq!(c.advance(SimTime::from_secs(40)), 0);
    }

    #[test]
    fn reclaim_deadline_force_revokes_and_still_reports() {
        let journal = Arc::new(aqua_telemetry::JournalTracer::new());
        let c = Coordinator::new();
        c.set_tracer(journal.clone());
        c.set_failure_config(FailureConfig {
            heartbeat_ttl: None,
            reclaim_deadline: Some(SimDuration::from_secs(60)),
        });
        let (consumer, producer) = refs();
        let lease = c.lease(producer, 100);
        c.allocate(consumer, 70);
        c.reclaim_request(producer, SimTime::from_secs(10));
        assert_eq!(c.lease_state(lease), LeaseState::Reclaiming);
        assert_eq!(c.reclaim_status(producer), ReclaimStatus::Pending);

        // Consumer never finishes releasing; the deadline fires at t=70.
        assert_eq!(c.advance(SimTime::from_secs(69)), 0);
        assert_eq!(c.advance(SimTime::from_secs(70)), 1);
        assert_eq!(c.lease_state(lease), LeaseState::Revoked);
        // The producer still learns its memory came back — exactly once.
        assert!(matches!(
            c.reclaim_status(producer),
            ReclaimStatus::Released { bytes: 100, .. }
        ));
        assert_eq!(c.reclaim_status(producer), ReclaimStatus::None);
        assert_eq!(crate::tally(&journal, "lease_force_revoked"), 1);
        // A release arriving after the revocation is an error, not a panic.
        assert_eq!(
            c.release(lease, 70, SimTime::from_secs(80)),
            Err(crate::error::AquaError::LeaseRevoked(lease))
        );
    }

    #[test]
    fn advance_is_a_noop_without_failure_config() {
        let c = Coordinator::new();
        let (consumer, producer) = refs();
        c.lease(producer, 100);
        c.allocate(consumer, 40);
        c.reclaim_request(producer, SimTime::ZERO);
        assert_eq!(c.advance(SimTime::from_secs(1_000_000)), 0);
        assert_eq!(c.leased_bytes(), 100);
    }

    #[test]
    fn book_revision_moves_with_what_the_sweeps_read() {
        let c = Coordinator::new();
        c.set_failure_config(FailureConfig::chaos());
        let (consumer, producer) = refs();
        let mut last = c.book_revision();
        let mut moved = |c: &Coordinator| {
            let now = c.book_revision();
            std::mem::replace(&mut last, now) != now
        };
        let lease = c.lease(producer, 100);
        assert!(moved(&c), "grant of a new lease");
        c.lease(producer, 100);
        c.heartbeat(producer, SimTime::from_secs(1), 1).unwrap();
        c.advance(SimTime::from_secs(1));
        assert!(!moved(&c), "extension, heartbeat and arming sweep");
        assert!(c.allocate(consumer, 10).is_peer());
        assert!(moved(&c), "allocate");
        assert!(c.try_allocate_on(lease, 10));
        assert!(moved(&c), "try_allocate_on");
        assert!(!c.try_allocate_on(lease, 1_000));
        assert!(c.free(lease, 1_000).is_err());
        assert!(!moved(&c), "rejected verbs");
        c.free(lease, 10).unwrap();
        assert!(moved(&c), "free");
        c.reclaim_request(producer, SimTime::from_secs(2));
        assert!(moved(&c), "reclaim_request");
        c.release(lease, 10, SimTime::from_secs(2)).unwrap();
        assert!(moved(&c), "release");
        assert!(matches!(
            c.reclaim_status(producer),
            ReclaimStatus::Released { .. }
        ));
        assert!(moved(&c), "reclaim_status revokes the drained lease");
        c.lease(producer, 100);
        assert!(moved(&c), "a new lease after the revoked one");
        c.advance(SimTime::from_secs(3));
        assert!(!moved(&c), "arming the new lease's watchdog");
        c.advance(SimTime::from_secs(30));
        assert!(moved(&c), "heartbeat expiry");
        c.crash(SimTime::from_secs(31));
        assert!(moved(&c), "crash");
        c.recover(SimTime::from_secs(32));
        assert!(moved(&c), "recover");
        c.resync_report(producer, 100, c.epoch(), SimTime::from_secs(33))
            .unwrap();
        assert!(moved(&c), "resync of a new lease");
        assert!(c.rehome(producer, 10, SimTime::from_secs(34)).is_some());
        assert!(moved(&c), "rehome");
    }

    #[test]
    fn lease_state_tracks_the_lifecycle() {
        let c = Coordinator::new();
        let (_, producer) = refs();
        assert_eq!(
            c.lease_state(LeaseId { id: 0, epoch: 1 }),
            LeaseState::Unknown
        );
        let lease = c.lease(producer, 10);
        assert_eq!(c.lease_state(lease), LeaseState::Live);
        c.reclaim_request(producer, SimTime::ZERO);
        assert_eq!(c.lease_state(lease), LeaseState::Reclaiming);
        c.reclaim_status(producer); // drained -> revoked
        assert_eq!(c.lease_state(lease), LeaseState::Revoked);
    }

    #[test]
    fn crash_wipes_book_bumps_epoch_and_journals() {
        let journal = Arc::new(aqua_telemetry::JournalTracer::new());
        let c = Coordinator::new();
        c.set_tracer(journal.clone());
        let (consumer, producer) = refs();
        assert_eq!(c.epoch(), 1);
        let lease = c.lease(producer, 100);
        assert_eq!(lease.epoch(), 1);
        c.allocate(consumer, 40);

        c.crash(SimTime::from_secs(10));
        assert!(c.is_down());
        assert_eq!(c.epoch(), 2);
        assert_eq!(c.leased_bytes(), 0, "book wiped");
        assert_eq!(c.lease_state(lease), LeaseState::Unknown);
        // Idempotent while down: no second bump.
        c.crash(SimTime::from_secs(11));
        assert_eq!(c.epoch(), 2);

        c.recover(SimTime::from_secs(12));
        assert!(!c.is_down());
        let (recovered, regrant) = c.recovery_metrics();
        assert_eq!(recovered, Some(SimTime::from_secs(12)));
        assert_eq!(regrant, None);
        // Resync repopulates the book in the new epoch and stamps the
        // first-regrant metric.
        let id = c
            .resync_report(producer, 100, c.epoch(), SimTime::from_secs(13))
            .unwrap();
        assert_ne!(id, lease, "lease ids never repeat across epochs");
        assert_eq!(c.leased_bytes(), 100);
        assert_eq!(
            c.recovery_metrics().1,
            Some(SimTime::from_secs(13)),
            "time-to-first-regrant"
        );
        let names: Vec<&str> = journal.events().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "coordinator_crashed",
                "epoch_bumped",
                "coordinator_recovered"
            ]
        );
        assert!(journal.events().iter().any(|e| matches!(
            e,
            TraceEvent::CoordinatorCrashed {
                epoch: 1,
                lost_leases: 1,
                lost_bytes: 100,
                ..
            }
        )));
        assert_eq!(crate::tally(&journal, "coordinator_crashed"), 1);
        assert_eq!(crate::tally(&journal, "coordinator_recovered"), 1);
    }

    /// Every fenced verb, handed a lease minted before a crash (or that
    /// lease's epoch) after `recover`, rejects it with `StaleEpoch`, leaves
    /// the book untouched and journals exactly one `stale_epoch_rejected`;
    /// while the process is down the answer is `ServiceUnavailable`, and a
    /// current-epoch handle passes the fence.
    #[test]
    fn fenced_verbs_reject_stale_handles() {
        use aqua_telemetry::JournalTracer;

        fn stale(e: AquaError) {
            assert_eq!(
                e,
                AquaError::StaleEpoch {
                    held: 1,
                    current: 2
                }
            );
        }
        type Verb = fn(&Coordinator, LeaseId, GpuRef) -> bool;
        // (journaled verb, call returning whether it was accepted)
        let verbs: [(&str, Verb); 6] = [
            ("free", |c, l, _| c.free(l, 40).map_err(stale).is_ok()),
            ("free", |c, l, _| {
                c.free_at(l, 40, SimTime::from_secs(6))
                    .map_err(stale)
                    .is_ok()
            }),
            ("release", |c, l, _| {
                c.release(l, 40, SimTime::from_secs(6))
                    .map_err(stale)
                    .is_ok()
            }),
            ("allocate", |c, l, _| c.try_allocate_on(l, 1)),
            ("heartbeat", |c, l, p| {
                c.heartbeat(p, SimTime::from_secs(6), l.epoch())
                    .map_err(stale)
                    .is_ok()
            }),
            ("resync", |c, l, p| {
                c.resync_report(p, 100, l.epoch(), SimTime::from_secs(6))
                    .map_err(stale)
                    .is_ok()
            }),
        ];
        for (verb, call) in verbs {
            let journal = Arc::new(JournalTracer::new());
            let c = Coordinator::new();
            c.set_tracer(journal.clone());
            let (consumer, producer) = refs();
            let old = c.lease(producer, 100);
            c.allocate(consumer, 40);
            assert!(c.heartbeat(producer, SimTime::from_secs(1), 1).is_ok());
            c.crash(SimTime::from_secs(2));
            // Down: fenced verbs answer ServiceUnavailable, not StaleEpoch.
            assert_eq!(
                c.heartbeat(producer, SimTime::from_secs(3), old.epoch()),
                Err(AquaError::ServiceUnavailable)
            );
            assert_eq!(c.free(old, 40), Err(AquaError::ServiceUnavailable));
            c.recover(SimTime::from_secs(4));
            let fresh = c
                .resync_report(producer, 100, 2, SimTime::from_secs(5))
                .unwrap();
            assert!(c.try_allocate_on(fresh, 10));
            let book = (c.book_revision(), c.used_bytes(), c.leased_bytes());
            let seen = journal.len();

            assert!(!call(&c, old, producer), "{verb} accepted a stale handle");
            assert_eq!(
                (c.book_revision(), c.used_bytes(), c.leased_bytes()),
                book,
                "{verb}: stale verbs mutate nothing"
            );
            let rejections: Vec<TraceEvent> = journal
                .events()
                .into_iter()
                .skip(seen)
                .filter(|e| matches!(e, TraceEvent::StaleEpochRejected { .. }))
                .collect();
            assert!(
                matches!(
                    rejections.as_slice(),
                    [TraceEvent::StaleEpochRejected { verb: v, held: 1, current: 2, .. }] if v == verb
                ),
                "{verb}: {rejections:?}"
            );
            assert_eq!(crate::tally(&journal, "stale_epoch_rejected"), 1);
            // A current-epoch handle passes the fence.
            assert!(c.free_at(fresh, 10, SimTime::from_secs(8)).is_ok());
        }
    }

    /// Satellite regression: a resync report prepared against epoch N that
    /// races a *second* crash (epoch bumped to N+1 mid-resync) must be
    /// discarded by the fence, never merged into the rebuilt book.
    #[test]
    fn resync_racing_second_crash_is_fenced_out() {
        let c = Coordinator::new();
        let (_, producer) = refs();
        c.lease(producer, 100);
        c.crash(SimTime::from_secs(1));
        c.recover(SimTime::from_secs(2));
        // The informer observes epoch 2 and prepares its report…
        let observed = c.epoch();
        assert_eq!(observed, 2);
        // …but a second crash lands before the report does.
        c.crash(SimTime::from_secs(3));
        c.recover(SimTime::from_secs(4));
        assert_eq!(
            c.resync_report(producer, 100, observed, SimTime::from_secs(5)),
            Err(AquaError::StaleEpoch {
                held: 2,
                current: 3
            })
        );
        assert_eq!(c.leased_bytes(), 0, "stale report must not be merged");
        // A report against the current epoch lands.
        assert!(c
            .resync_report(producer, 100, 3, SimTime::from_secs(6))
            .is_ok());
        assert_eq!(c.leased_bytes(), 100);
    }

    /// The planted-bug shape: bypassing the fence with
    /// `plant_stale_resync` of a stale report must be caught by the audit as
    /// `stale_epoch_accepted` plus `double_grant_across_epochs`, both at
    /// merge time and by the next `audit_books` sweep.
    #[test]
    fn unfenced_stale_merge_is_caught_by_the_audit() {
        use aqua_sim::audit::Auditor;

        let aud = Auditor::collecting();
        let c = Coordinator::new();
        c.set_auditor(aud.clone());
        let (_, producer) = refs();
        let stale = c.lease(producer, 100);
        c.crash(SimTime::from_secs(1));
        c.recover(SimTime::from_secs(2));
        // Legitimate resync in the new epoch…
        c.resync_report(producer, 100, 2, SimTime::from_secs(3))
            .unwrap();
        assert!(aud.is_clean());
        // …then the bypass merges the stale report anyway.
        c.plant_stale_resync(producer, 80, stale.epoch(), SimTime::from_secs(4));
        let kinds: Vec<&str> = aud.violations().iter().map(|v| v.kind()).collect();
        assert!(kinds.contains(&"stale_epoch_accepted"), "{kinds:?}");
        assert!(kinds.contains(&"double_grant_across_epochs"), "{kinds:?}");
        // The standing sweep keeps flagging the cross-epoch lease.
        let before = aud.violations().len();
        c.audit_books(SimTime::from_secs(5));
        assert!(aud
            .violations()
            .iter()
            .skip(before)
            .any(|v| v.kind() == "double_grant_across_epochs"));
    }

    /// Satellite pin: one sweep that revokes several leases emits events in
    /// lease-id order, and per lease
    /// the heartbeat TTL is checked before the reclaim deadline (a dead
    /// producer journals `lease_expired`, never `lease_force_revoked`).
    #[test]
    fn advance_sweep_order_is_ttl_first_then_lease_id() {
        let journal = Arc::new(aqua_telemetry::JournalTracer::new());
        let c = Coordinator::new();
        c.set_tracer(journal.clone());
        c.set_failure_config(FailureConfig::chaos());
        let consumer = GpuRef::single(GpuId(0));
        let p0 = GpuRef::single(GpuId(1));
        let p1 = GpuRef::single(GpuId(2));
        let p2 = GpuRef::single(GpuId(3));
        let l0 = c.lease(p0, 100);
        let l1 = c.lease(p1, 100);
        let l2 = c.lease(p2, 100);
        assert_eq!([l0, l1, l2].map(LeaseId::id), [0, 1, 2]);
        c.pair(consumer, p0);
        c.allocate(consumer, 10);
        c.pair(consumer, p1);
        c.allocate(consumer, 10);
        c.pair(consumer, p2);
        c.allocate(consumer, 10);
        // Arm all watchdogs at t=0.
        c.advance(SimTime::ZERO);
        // Lease 0: producer stays alive but its reclaim blows the deadline.
        c.reclaim_request(p0, SimTime::from_secs(1));
        // Lease 1: reclaiming AND dead producer — TTL must win.
        c.reclaim_request(p1, SimTime::from_secs(1));
        c.heartbeat(p0, SimTime::from_secs(95), 1).unwrap();
        // Lease 2: dead producer, no reclaim.
        assert_eq!(c.advance(SimTime::from_secs(100)), 3);
        let events: Vec<(&str, u64)> = journal
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::LeaseExpired { lease, .. } => Some(("lease_expired", *lease)),
                TraceEvent::LeaseForceRevoked { lease, .. } => {
                    Some(("lease_force_revoked", *lease))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            events,
            vec![
                ("lease_force_revoked", 0),
                ("lease_expired", 1),
                ("lease_expired", 2),
            ]
        );
    }

    #[test]
    fn rehome_places_bytes_back_on_the_new_epoch_lease() {
        let journal = Arc::new(aqua_telemetry::JournalTracer::new());
        let c = Coordinator::new();
        c.set_tracer(journal.clone());
        let (consumer, producer) = refs();
        c.lease(producer, 100);
        c.allocate(consumer, 30);
        c.crash(SimTime::from_secs(1));
        // Down, and before the producer resyncs: nothing to re-home onto.
        assert_eq!(c.rehome(producer, 30, SimTime::from_secs(2)), None);
        c.recover(SimTime::from_secs(2));
        assert_eq!(c.rehome(producer, 30, SimTime::from_secs(3)), None);
        let id = c
            .resync_report(producer, 100, 2, SimTime::from_secs(4))
            .unwrap();
        let lease = c.rehome(producer, 30, SimTime::from_secs(5)).unwrap();
        assert_eq!((lease, lease.epoch()), (id, 2));
        assert_eq!(c.used_bytes(), 30, "orphaned bytes re-homed");
        // Too big to fit does not re-home.
        assert_eq!(c.rehome(producer, 80, SimTime::from_secs(6)), None);
        assert!(journal.events().iter().any(|e| matches!(
            e,
            TraceEvent::LeaseReconciled {
                bytes: 30,
                epoch: 2,
                ..
            }
        )));
    }

    #[test]
    fn advance_applies_fault_plan_windows_exactly_once() {
        use aqua_sim::fault::FaultPlan;

        let journal = Arc::new(aqua_telemetry::JournalTracer::new());
        let c = Coordinator::new();
        c.set_tracer(journal.clone());
        let (_, producer) = refs();
        c.lease(producer, 100);
        let plan = Arc::new(
            FaultPlan::new()
                .coordinator_crash(SimTime::from_secs(10), SimDuration::from_secs(5))
                .partition(1, SimTime::from_secs(30), SimTime::from_secs(40)),
        );
        c.set_fault_plan(Arc::clone(&plan));
        // Reachability is a pure function of the plan.
        assert!(c.reachable(GpuId(0), SimTime::from_secs(5)));
        assert!(!c.reachable(GpuId(0), SimTime::from_secs(12)));
        assert!(c.reachable(GpuId(0), SimTime::from_secs(35)));
        assert!(!c.reachable(GpuId(1), SimTime::from_secs(35)));

        c.advance(SimTime::from_secs(12));
        assert!(c.is_down());
        assert_eq!(c.epoch(), 2);
        c.advance(SimTime::from_secs(12));
        assert_eq!(c.epoch(), 2, "boundaries apply exactly once");
        c.advance(SimTime::from_secs(20));
        assert!(!c.is_down());
        assert_eq!(c.recovery_metrics().0, Some(SimTime::from_secs(15)));
        // A late first sweep applies both edges, in boundary-time order.
        c.advance(SimTime::from_secs(50));
        let names: Vec<&str> = journal.events().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "coordinator_crashed",
                "epoch_bumped",
                "coordinator_recovered",
                "partition_started",
                "partition_healed",
            ]
        );
        assert_eq!(crate::tally(&journal, "partition_started"), 1);
        assert_eq!(crate::tally(&journal, "partition_healed"), 1);
    }

    /// The five calls an iteration boundary made before `boundary`
    /// answered them in one query.
    fn boundary_by_five_calls(c: &Coordinator, gpu: GpuId, now: SimTime) -> Option<(u64, u64)> {
        if !c.reachable(gpu, now) {
            return None;
        }
        c.advance(now);
        c.audit_books(now);
        Some((c.epoch(), c.book_revision()))
    }

    #[test]
    fn boundary_matches_the_five_call_sequence() {
        use aqua_sim::audit::Auditor;

        fn chaos_expiring(c: &Coordinator) -> Option<SharedAuditor> {
            c.set_failure_config(FailureConfig::chaos());
            let (consumer, producer) = refs();
            c.lease(producer, 100);
            c.allocate(consumer, 40);
            None
        }
        type Setup = fn(&Coordinator) -> Option<SharedAuditor>;
        /// Boundaries as (gpu, seconds).
        type Probes = &'static [(usize, u64)];
        let cases: [(&str, Setup, Probes); 6] = [
            (
                "no fault plan",
                |c| {
                    let (consumer, producer) = refs();
                    c.lease(producer, 100);
                    c.allocate(consumer, 40);
                    None
                },
                &[(0, 1), (0, 5), (0, 5), (0, 10)],
            ),
            (
                "coordinator crash plan",
                |c| {
                    c.lease(refs().1, 100);
                    c.set_fault_plan(Arc::new(
                        FaultPlan::new()
                            .coordinator_crash(SimTime::from_secs(10), SimDuration::from_secs(5)),
                    ));
                    None
                },
                &[(0, 5), (0, 10), (0, 12), (1, 14), (0, 15), (0, 20), (0, 20)],
            ),
            (
                "partition",
                |c| {
                    c.lease(refs().1, 100);
                    c.set_fault_plan(Arc::new(FaultPlan::new().partition(
                        1,
                        SimTime::from_secs(30),
                        SimTime::from_secs(40),
                    )));
                    None
                },
                &[(0, 20), (1, 31), (0, 35), (1, 39), (1, 40), (0, 45)],
            ),
            (
                "auditor with a planted violation",
                |c| {
                    let aud = Auditor::collecting();
                    c.set_auditor(aud.clone());
                    let producer = refs().1;
                    let stale = c.lease(producer, 100);
                    c.crash(SimTime::from_secs(1));
                    c.recover(SimTime::from_secs(2));
                    c.resync_report(producer, 100, 2, SimTime::from_secs(3))
                        .unwrap();
                    c.plant_stale_resync(producer, 80, stale.epoch(), SimTime::from_secs(4));
                    Some(aud)
                },
                &[(0, 5), (0, 6), (1, 7)],
            ),
            (
                "chaos with an expiring lease",
                chaos_expiring,
                &[(0, 1), (0, 10), (0, 25), (0, 40)],
            ),
            (
                "direct crash, no plan",
                |c| {
                    chaos_expiring(c);
                    c.crash(SimTime::from_secs(1));
                    None
                },
                &[(0, 2), (0, 30), (1, 60)],
            ),
        ];
        for (case, setup, probes) in cases {
            let run = |query: fn(&Coordinator, GpuId, SimTime) -> Option<(u64, u64)>| {
                let journal = Arc::new(aqua_telemetry::JournalTracer::new());
                let c = Coordinator::new();
                c.set_tracer(journal.clone());
                let auditor = setup(&c);
                let answers: Vec<Option<(u64, u64)>> = probes
                    .iter()
                    .map(|&(gpu, secs)| query(&c, GpuId(gpu), SimTime::from_secs(secs)))
                    .collect();
                let violations = auditor.map(|a| a.violations());
                (answers, journal.to_jsonl(), violations)
            };
            let five = run(boundary_by_five_calls);
            let one = run(Coordinator::boundary);
            assert_eq!(one.0, five.0, "{case}: answers");
            assert_eq!(one.1, five.1, "{case}: journal");
            assert_eq!(one.2, five.2, "{case}: audit violations");
            assert!(
                five.0.iter().any(Option::is_some),
                "{case}: some boundary must reach the coordinator"
            );
        }
    }

    aqua_sim::check! {
        /// Satellite: arbitrary interleavings of lease / allocate / free /
        /// heartbeat / crash / recover / resync+re-home never honor a lease
        /// in two epochs, every stale fenced verb is rejected with
        /// `StaleEpoch`, and the outcome accounting holds: every consumer
        /// region orphaned by a crash ends exactly one of reconciled
        /// (re-homed), locally revoked (dropped to DRAM), or is still
        /// awaiting reconciliation when the run ends.
        #[test]
        fn epoch_fencing_interleavings_never_honor_a_lease_across_epochs(
            ops in aqua_sim::check::vec((0u8..8, 1u64..64), 1..100)
        ) {
            let c = Coordinator::new();
            let (consumer, producer) = refs();
            let mut now = SimTime::ZERO;
            // Consumer regions as (lease, bytes); the handle carries the
            // epoch it was granted in.
            let mut held: Vec<(LeaseId, u64)> = Vec::new();
            // Every lease handle ever granted.
            let mut granted: Vec<LeaseId> = Vec::new();
            let mut crossings = 0usize; // regions orphaned by a crash
            let mut reconciled = 0usize;
            let mut locally_revoked = 0usize;
            for (op, amount) in ops {
                now += SimDuration::from_secs(1);
                match op {
                    0 => {
                        if !c.is_down() {
                            let id = c.lease(producer, amount * 10);
                            if !granted.contains(&id) {
                                granted.push(id);
                            }
                        }
                    }
                    1 => {
                        if !c.is_down() {
                            if let AllocationSite::Peer { lease, .. } =
                                c.allocate(consumer, amount)
                            {
                                assert_eq!(lease.epoch(), c.epoch());
                                held.push((lease, amount));
                            }
                        }
                    }
                    2 => {
                        if let Some((lease, bytes)) = held.pop() {
                            match c.free_at(lease, bytes, now) {
                                Ok(()) => {} // released cleanly
                                Err(AquaError::ServiceUnavailable) => {
                                    held.push((lease, bytes)); // retry later
                                }
                                Err(AquaError::StaleEpoch { held: h, current }) => {
                                    assert!(h == lease.epoch() && current == c.epoch());
                                    // Fenced out: the caller drops to DRAM.
                                    locally_revoked += 1;
                                }
                                Err(e) => panic!("unexpected free error: {e}"),
                            }
                        }
                    }
                    3 => {
                        let r = c.heartbeat(producer, now, c.epoch());
                        if !c.is_down() {
                            assert!(r.is_ok());
                        }
                    }
                    4 => {
                        if !c.is_down() {
                            let e = c.epoch();
                            crossings += held.iter().filter(|(l, _)| l.epoch() == e).count();
                            c.crash(now);
                        }
                    }
                    5 => c.recover(now),
                    6 => {
                        // Reconciliation pass: resync the producer, then
                        // re-home every orphaned region.
                        if !c.is_down() {
                            let e = c.epoch();
                            let _ = c.resync_report(producer, 1 << 20, e, now);
                            for r in held.iter_mut() {
                                if r.0.epoch() == e {
                                    continue;
                                }
                                match c.rehome(producer, r.1, now) {
                                    Some(lease) => {
                                        r.0 = lease;
                                        reconciled += 1;
                                    }
                                    None => {
                                        r.1 = 0; // dropped to DRAM below
                                        locally_revoked += 1;
                                    }
                                }
                            }
                            held.retain(|(_, b)| *b > 0);
                        }
                    }
                    _ => {
                        // A stale fenced free must always bounce, leaving
                        // the book untouched.
                        if let Some(&(lease, bytes)) = held.first() {
                            if lease.epoch() != c.epoch() && !c.is_down() {
                                let before = c.used_bytes();
                                assert!(matches!(
                                    c.free_at(lease, bytes, now),
                                    Err(AquaError::StaleEpoch { .. })
                                ));
                                assert_eq!(c.used_bytes(), before);
                            }
                        }
                    }
                }
                // No lease is ever honored in two epochs: once the epoch
                // moved on, a grant from an older epoch is gone from the
                // book entirely.
                for &id in &granted {
                    if id.epoch() != c.epoch() {
                        assert_eq!(c.lease_state(id), LeaseState::Unknown);
                        assert!(!c.try_allocate_on(id, 1));
                    }
                }
                // Byte conservation across the crash boundary: the book's
                // usage is exactly the current-epoch regions.
                let model: u64 = held
                    .iter()
                    .filter(|(l, _)| l.epoch() == c.epoch())
                    .map(|(_, b)| *b)
                    .sum();
                assert_eq!(c.used_bytes(), model);
            }
            // Outcome accounting: every orphaned region was resolved
            // exactly once (or is still pending at shutdown).
            let pending = held
                .iter()
                .filter(|(l, _)| l.epoch() != c.epoch())
                .count();
            assert_eq!(crossings, reconciled + locally_revoked + pending);
        }
    }

    aqua_sim::check! {
        /// Random interleavings of the lease lifecycle: bytes are conserved
        /// (coordinator usage always equals the model's outstanding bytes),
        /// double frees error instead of corrupting state, and revoked
        /// leases accept no allocations.
        #[test]
        fn lease_lifecycle_invariants(
            ops in aqua_sim::check::vec((0u8..7, 1u64..64), 1..80)
        ) {
            let c = Coordinator::new();
            c.set_failure_config(FailureConfig {
                heartbeat_ttl: None, // no heartbeats in this model: TTL off
                reclaim_deadline: Some(SimDuration::from_secs(5)),
            });
            let (consumer, producer) = refs();
            let mut now = SimTime::ZERO;
            // Model: outstanding (lease, bytes) pairs held by the consumer.
            let mut held: Vec<(LeaseId, u64)> = Vec::new();
            for (op, amount) in ops {
                now += SimDuration::from_secs(1);
                match op {
                    0 => {
                        c.lease(producer, amount * 10);
                    }
                    1 => {
                        if let AllocationSite::Peer { lease, .. } = c.allocate(consumer, amount) {
                            held.push((lease, amount));
                        }
                    }
                    2 => {
                        if let Some((lease, bytes)) = held.pop() {
                            match c.free(lease, bytes) {
                                Ok(()) => {}
                                // A revocation beat us to it; bytes are gone.
                                Err(AquaError::LeaseRevoked(_)) => {}
                                Err(e) => panic!("unexpected free error: {e}"),
                            }
                            // Freeing more than is in use must always be
                            // rejected without touching state (double-free
                            // protection).
                            assert!(c.free(lease, u64::MAX).is_err());
                        }
                    }
                    3 => c.reclaim_request(producer, now),
                    4 => {
                        if let Some((lease, bytes)) = held.pop() {
                            match c.release(lease, bytes, now) {
                                Ok(()) | Err(AquaError::LeaseRevoked(_)) => {}
                                Err(e) => panic!("unexpected release error: {e}"),
                            }
                        }
                    }
                    5 => {
                        now += SimDuration::from_secs(6);
                        c.advance(now);
                        // Anything stranded in a force-revoked lease is gone
                        // from the consumer's point of view too.
                        held.retain(|(l, _)| c.lease_state(*l) != LeaseState::Revoked);
                    }
                    _ => {
                        let _ = c.reclaim_status(producer);
                        held.retain(|(l, _)| c.lease_state(*l) != LeaseState::Revoked);
                    }
                }
                // Conservation: live usage equals what the model still holds
                // on non-revoked leases.
                let model: u64 = held
                    .iter()
                    .filter(|(l, _)| c.lease_state(*l) != LeaseState::Revoked)
                    .map(|(_, b)| *b)
                    .sum();
                assert_eq!(c.used_bytes(), model);
                // Revoked leases accept nothing.
                for (l, _) in &held {
                    if c.lease_state(*l) == LeaseState::Revoked {
                        assert!(!c.try_allocate_on(*l, 1));
                    }
                }
            }
        }
    }
}
