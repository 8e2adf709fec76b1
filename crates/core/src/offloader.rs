//! The AQUA offload backend: peer-GPU HBM over the inter-GPU fabric.
//!
//! This is where the paper's performance comes from. Compared with the
//! baseline DRAM offloader:
//!
//! * **Destination**: the coordinator places offloaded bytes on a
//!   same-server producer GPU's leased HBM when one exists; otherwise the
//!   offloader transparently falls back to host DRAM ("if no producer GPUs
//!   exist in the system, AQUA-LIB falls back to using the DRAM", §3).
//! * **Transfer shape**: scattered context tensors are first gathered into a
//!   contiguous staging buffer on the GPU (the custom CUDA gather/scatter
//!   kernels of §5) and then moved as **one coalesced copy**, because NVLink
//!   bandwidth collapses for small transfers (Figure 3a).
//! * **Elasticity**: at every iteration boundary (`aqua.respond()`), the
//!   offloader checks for producer reclaims and, when one is pending,
//!   *blocks* while it migrates its bytes from the producer's HBM to DRAM
//!   ("inference on a consumer GPU blocks only when it is releasing memory
//!   back", §B). When lease capacity reappears, DRAM-resident bytes are
//!   promoted back to the peer in the background.

use crate::coordinator::{AllocationSite, Coordinator, GpuRef, LeaseId, LeaseState};
use aqua_engines::offload::{OffloadLocation, Offloader};
use aqua_sim::audit::{AuditViolation, SharedAuditor};
use aqua_sim::fault::FaultPlan;
use aqua_sim::time::{SimDuration, SimTime};
use aqua_sim::topology::ServerTopology;
use aqua_sim::transfer::{staging_time, TransferEngine, TransferPlan};
use aqua_telemetry::{null_tracer, trace, SharedTracer, TraceEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

// How the offloader reacts when the fabric fails underneath a transfer.
// The ladder is: retry the same path (transient flap), then fail over down
// the site ladder (same lease → sibling lease → host DRAM), then pin new
// allocations to DRAM for `DEGRADED_WINDOW` so a dead link is not probed on
// every swap.

/// Retries per transfer before the failover ladder advances.
const RETRY_BUDGET: u32 = 2;
/// Base of the exponential backoff between retries (`2 ms`, `4 ms`, ...).
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(2);
/// How long after a fabric failure new allocations stay pinned to DRAM
/// before peer placement is attempted again.
const DEGRADED_WINDOW: SimDuration = SimDuration::from_secs(30);

/// AQUA's fabric-accelerated offloader for one consumer GPU.
///
/// See the crate-level example for typical usage; constructed per consumer
/// engine and boxed into the engine's offload slot.
pub struct AquaOffloader {
    consumer: GpuRef,
    coordinator: Rc<Coordinator>,
    server: Rc<ServerTopology>,
    transfers: Rc<RefCell<TransferEngine>>,
    /// Bytes we currently hold on each lease (producer GPU).
    peer_bytes: BTreeMap<LeaseId, (GpuRef, u64)>,
    /// Bytes we currently hold in host DRAM (fallback).
    dram_bytes: u64,
    /// Cumulative bytes moved over the fabric (for reports).
    fabric_bytes_moved: u64,
    /// Number of blocking release migrations performed.
    releases: u64,
    /// Injected fault schedule (for coordinator-stall latency); the
    /// transfer engine carries its own copy for the data plane.
    fault_plan: Option<Arc<FaultPlan>>,
    /// While set, new allocations are pinned to DRAM until this time.
    degraded_until: Option<SimTime>,
    /// The coordinator epoch this consumer last synced with. A change means
    /// the book was rebuilt: deferred frees are dropped and stranded bytes
    /// are re-homed (DESIGN §4.12). Frees are fenced on each lease's own
    /// epoch, not on this one.
    epoch: u64,
    /// First boundary at which the coordinator was found unreachable, while
    /// the outage lasts.
    unreachable_since: Option<SimTime>,
    /// Frees that could not land while the coordinator was unreachable.
    /// Replayed on reconnect if the epoch is unchanged; dropped (the lease
    /// ids died with the old book) if it bumped.
    deferred_frees: Vec<(LeaseId, u64)>,
    /// Transfer retries attempted after fabric failures.
    retries: u64,
    /// Failovers down the site ladder (peer → sibling → DRAM).
    failovers: u64,
    /// Bytes stranded on revoked leases and re-materialised in DRAM.
    lost_bytes: u64,
    /// The coordinator's book revision at the last boundary whose lease
    /// sweeps found nothing to act on; `None` after a sweep that acted.
    /// While the revision stays there, no tracked lease can have become
    /// revoked, unknown or reclaiming, and every lease tracked since came
    /// from an allocation that moved the revision.
    quiet_revision: Option<u64>,
    label: String,
    tracer: SharedTracer,
    /// aqua-audit: local byte books are checked on every mutation.
    auditor: Option<SharedAuditor>,
}

impl std::fmt::Debug for AquaOffloader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AquaOffloader")
            .field("consumer", &self.consumer)
            .field("peer_bytes", &self.peer_total())
            .field("dram_bytes", &self.dram_bytes)
            .field("releases", &self.releases)
            .finish()
    }
}

impl AquaOffloader {
    /// Creates an offloader for `consumer`, brokered by `coordinator`, on
    /// `server`, sharing the server-wide `transfers` engine.
    pub fn new(
        consumer: GpuRef,
        coordinator: Rc<Coordinator>,
        server: Rc<ServerTopology>,
        transfers: Rc<RefCell<TransferEngine>>,
    ) -> Self {
        let epoch = coordinator.epoch();
        AquaOffloader {
            consumer,
            coordinator,
            server,
            transfers,
            peer_bytes: BTreeMap::new(),
            dram_bytes: 0,
            fabric_bytes_moved: 0,
            releases: 0,
            fault_plan: None,
            degraded_until: None,
            epoch,
            unreachable_since: None,
            deferred_frees: Vec::new(),
            retries: 0,
            failovers: 0,
            lost_bytes: 0,
            quiet_revision: None,
            label: "aqua".to_owned(),
            tracer: null_tracer(),
            auditor: None,
        }
    }

    /// Attaches a tracer; allocation-site decisions, lease frees, blocking
    /// reclaim releases and background promotions are journalled.
    pub fn with_tracer(mut self, tracer: SharedTracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches an invariant auditor: the offloader's local byte books
    /// (per-lease holdings, the DRAM tally) are checked against every
    /// mutation, and each iteration boundary sweeps the coordinator's lease
    /// books too.
    pub fn with_auditor(mut self, auditor: SharedAuditor) -> Self {
        self.auditor = Some(auditor);
        self
    }

    /// Checks that `take` bytes can legally leave a tracked holding of
    /// `held` bytes; records a conservation violation otherwise.
    fn audit_outflow(&self, scope: &str, held: u64, take: u64, at: SimTime) {
        if take > held {
            if let Some(aud) = &self.auditor {
                aud.record(AuditViolation::ByteConservation {
                    scope: format!("offloader:{}:{scope}", self.consumer),
                    expected: held,
                    actual: take,
                    at,
                });
            }
        }
    }

    /// Attaches the injected fault schedule so iteration boundaries model
    /// coordinator stalls. The shared [`TransferEngine`] needs the same
    /// plan (via `set_fault_plan`) for data-plane aborts.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Bytes currently offloaded to peer GPUs.
    pub fn peer_total(&self) -> u64 {
        self.peer_bytes.values().map(|(_, b)| *b).sum()
    }

    /// Bytes currently offloaded to host DRAM (fallback).
    pub fn dram_total(&self) -> u64 {
        self.dram_bytes
    }

    /// Cumulative bytes moved over the inter-GPU fabric.
    pub fn fabric_bytes_moved(&self) -> u64 {
        self.fabric_bytes_moved
    }

    /// Number of blocking release migrations (producer reclaims served).
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Transfer retries attempted after fabric failures.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Failovers taken down the site ladder.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Bytes stranded on revoked leases and re-materialised in DRAM.
    pub fn lost_bytes(&self) -> u64 {
        self.lost_bytes
    }

    /// `true` while new allocations are pinned to DRAM after a failure.
    fn is_degraded(&self) -> bool {
        self.degraded_until.is_some()
    }

    /// Pre-stages `bytes` into the offload store without charging transfer
    /// time — used to model content that already lives there before the
    /// experiment starts (e.g. a LoRA adapter pool).
    pub fn prestage(&mut self, bytes: u64) -> AllocationSite {
        let site = self.coordinator.allocate(self.consumer, bytes);
        match site {
            AllocationSite::Peer { lease, gpu } => {
                let entry = self.peer_bytes.entry(lease).or_insert((gpu, 0));
                entry.1 += bytes;
            }
            AllocationSite::Dram => self.dram_bytes += bytes,
        }
        site
    }

    /// Gather cost for converting `chunks` scattered tensors into one
    /// staging buffer (zero when the data is already contiguous).
    fn gather_cost(&self, bytes: u64, chunks: u64) -> aqua_sim::time::SimDuration {
        if chunks <= 1 {
            aqua_sim::time::SimDuration::ZERO
        } else {
            staging_time(bytes, self.server.gpu_spec(self.consumer.gpu).hbm_bandwidth)
        }
    }

    /// One fabric copy with the retry ladder: on an abort or a dead path,
    /// back off and retry up to `retry_budget` times (a flap may clear),
    /// then give up so the caller can fail over. `None` means the fabric
    /// stayed unusable for the whole budget.
    fn try_fabric(
        &mut self,
        from: GpuRef,
        to: GpuRef,
        bytes: u64,
        start: SimTime,
    ) -> Option<SimTime> {
        let path = self
            .server
            .gpu_to_gpu_path(from.gpu, to.gpu)
            .expect("coordinator only pairs distinct same-server GPUs");
        let mut at = start;
        let mut attempt: u32 = 0;
        loop {
            let res =
                self.transfers
                    .borrow_mut()
                    .try_schedule(&path, TransferPlan::coalesced(bytes), at);
            match res {
                Ok(sched) => {
                    self.fabric_bytes_moved += bytes;
                    return Some(sched.end);
                }
                Err(e) => {
                    if attempt >= RETRY_BUDGET {
                        return None;
                    }
                    attempt += 1;
                    self.retries += 1;
                    at = e.at().max(at) + RETRY_BACKOFF.backoff_for(attempt);
                    trace!(
                        self.tracer,
                        TraceEvent::TransferRetried {
                            consumer: self.consumer.to_string(),
                            attempt: attempt as u64,
                            at,
                        }
                    );
                }
            }
        }
    }

    fn note_failover(&mut self, from: &str, to: &str, bytes: u64, at: SimTime) {
        self.failovers += 1;
        trace!(
            self.tracer,
            TraceEvent::FailoverEngaged {
                consumer: self.consumer.to_string(),
                from: from.to_owned(),
                to: to.to_owned(),
                bytes,
                at,
            }
        );
    }

    fn enter_degraded(&mut self, now: SimTime) {
        let until = now + DEGRADED_WINDOW;
        if self.degraded_until.is_none() {
            trace!(
                self.tracer,
                TraceEvent::DegradedMode {
                    consumer: self.consumer.to_string(),
                    state: "enter".to_owned(),
                    at: now,
                }
            );
        }
        self.degraded_until = Some(self.degraded_until.map_or(until, |d| d.max(until)));
    }

    fn maybe_exit_degraded(&mut self, now: SimTime) {
        if let Some(until) = self.degraded_until {
            if now >= until {
                self.degraded_until = None;
                trace!(
                    self.tracer,
                    TraceEvent::DegradedMode {
                        consumer: self.consumer.to_string(),
                        state: "exit".to_owned(),
                        at: now,
                    }
                );
            }
        }
    }

    fn pcie_to_host(&mut self, from: GpuRef, bytes: u64, start: SimTime) -> SimTime {
        let path = self.server.gpu_to_host_path(from.gpu);
        self.transfers
            .borrow_mut()
            .schedule(&path, TransferPlan::coalesced(bytes), start)
            .end
    }

    fn pcie_from_host(&mut self, to: GpuRef, bytes: u64, start: SimTime) -> SimTime {
        let path = self.server.host_to_gpu_path(to.gpu);
        self.transfers
            .borrow_mut()
            .schedule(&path, TransferPlan::coalesced(bytes), start)
            .end
    }

    /// Journals one allocation on `peer`'s lease, or in host DRAM when
    /// `peer` is `None`. The site label is built only when the event is
    /// journalled.
    fn trace_allocation(&self, peer: Option<GpuRef>, bytes: u64, at: SimTime) {
        trace!(
            self.tracer,
            TraceEvent::LeaseAllocated {
                consumer: self.consumer.to_string(),
                site: peer.map_or_else(|| "dram".to_owned(), |gpu| format!("peer:{gpu}")),
                bytes,
                at,
            }
        );
    }

    /// Returns capacity to a lease (fenced on the epoch the lease was
    /// granted in). While the coordinator is unreachable the free is
    /// deferred (the data move already happened; only the book-keeping
    /// waits for reconnection).
    fn free_lease(&mut self, lease: LeaseId, bytes: u64, now: SimTime) {
        if !self.coordinator.reachable(self.consumer.gpu, now) {
            self.deferred_frees.push((lease, bytes));
            return;
        }
        // An error means the lease was revoked underneath us, or fenced out
        // by an epoch bump; either way the coordinator no longer counts
        // these bytes against us.
        let _ = self.coordinator.free_at(lease, bytes, now);
    }

    /// Iteration boundary while the coordinator is unreachable: no control
    /// verb can land, so the consumer serves autonomously from the sites it
    /// already holds. After `degraded_window` of continuous outage every
    /// peer lease is conservatively revoked *locally* — the coordinator's
    /// watchdog may have expired it and re-granted the HBM, so the retained
    /// copy is rewritten to DRAM before anyone else can scribble on it.
    fn autonomous_boundary(&mut self, now: SimTime) -> SimTime {
        let mut resume = now;
        let since = *self.unreachable_since.get_or_insert(now);
        self.enter_degraded(now);
        if resume >= since + DEGRADED_WINDOW && !self.peer_bytes.is_empty() {
            let tracked: Vec<(LeaseId, GpuRef, u64)> = self
                .peer_bytes
                .iter()
                .map(|(l, (g, b))| (*l, *g, *b))
                .collect();
            for (lease, gpu, held) in tracked {
                self.peer_bytes.remove(&lease);
                self.lost_bytes += held;
                trace!(
                    self.tracer,
                    TraceEvent::LeaseReconciled {
                        producer: gpu.to_string(),
                        lease: lease.id(),
                        bytes: held,
                        epoch: self.epoch,
                        outcome: "local-revoke".to_owned(),
                        at: resume,
                    }
                );
                self.note_failover(&format!("peer:{gpu}"), "dram", held, resume);
                let end = self.pcie_to_host(self.consumer, held, resume);
                self.dram_bytes += held;
                resume = resume.max(end);
                // If the lease is in fact still live when we reconnect in
                // the same epoch, the replayed free squares the books.
                self.deferred_frees.push((lease, held));
            }
        }
        resume
    }

    /// Splits an inbound read/swap across current storage sites,
    /// peer-resident bytes first (they are both faster and preferred).
    fn split_inbound(&self, bytes: u64) -> (Vec<(LeaseId, GpuRef, u64)>, u64) {
        let mut remaining = bytes;
        let mut from_peer = Vec::new();
        for (lease, (gpu, held)) in &self.peer_bytes {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(*held);
            if take > 0 {
                from_peer.push((*lease, *gpu, take));
                remaining -= take;
            }
        }
        let from_dram = remaining.min(self.dram_bytes);
        (from_peer, from_dram)
    }

    /// Steps 1 and 2 of an iteration boundary, the lease sweeps; returns
    /// when serving may resume. Records `revision` as quiet when neither
    /// sweep finds anything to act on.
    fn sweep_leases(&mut self, mut resume: SimTime, epoch_changed: bool, revision: u64) -> SimTime {
        // 1. Stranded sweep: leases revoked underneath us (producer crash
        // or blown reclaim deadline). The peer copy is gone; re-materialise
        // the context in host DRAM, blocking, so no request is lost. Both
        // sweeps filter before they act (no lease's state changes while a
        // sweep runs), so a sweep that finds nothing allocates nothing.
        let stranded: Vec<(LeaseId, GpuRef, u64)> = self
            .peer_bytes
            .iter()
            .filter(|(l, _)| {
                matches!(
                    self.coordinator.lease_state(**l),
                    LeaseState::Revoked | LeaseState::Unknown
                )
            })
            .map(|(l, (g, b))| (*l, *g, *b))
            .collect();
        let mut quiet = stranded.is_empty();
        for (lease, gpu, held) in stranded {
            self.peer_bytes.remove(&lease);
            // After a coordinator crash the peer copy is physically intact
            // — only the metadata died. If the producer has re-registered
            // in the new epoch, re-home the bytes onto its fresh lease
            // instead of burning a PCIe rewrite.
            if epoch_changed {
                if let Some(new_lease) = self.coordinator.rehome(gpu, held, resume) {
                    let entry = self.peer_bytes.entry(new_lease).or_insert((gpu, 0));
                    entry.1 += held;
                    continue;
                }
            }
            self.lost_bytes += held;
            self.note_failover(&format!("peer:{gpu}"), "dram", held, resume);
            // Rewrite the consumer's retained copy out to DRAM.
            let end = self.pcie_to_host(self.consumer, held, resume);
            self.dram_bytes += held;
            self.enter_degraded(resume);
            resume = resume.max(end);
        }
        // 2. Blocking release of any lease being reclaimed.
        let reclaiming: Vec<LeaseId> = self
            .peer_bytes
            .keys()
            .filter(|l| self.coordinator.pending_reclaim(**l) > 0)
            .copied()
            .collect();
        quiet &= reclaiming.is_empty();
        for lease in reclaiming {
            let (gpu, held) = self.peer_bytes.remove(&lease).expect("tracked lease");
            // Migrate producer HBM -> host DRAM over the producer's PCIe.
            let end = self.pcie_to_host(gpu, held, resume);
            // An error means the lease was force-revoked while we migrated;
            // the producer already got its memory back, our DRAM copy is
            // still the live one.
            let _ = self.coordinator.release(lease, held, end);
            self.dram_bytes += held;
            self.releases += 1;
            trace!(
                self.tracer,
                TraceEvent::ReclaimReleased {
                    producer: gpu.to_string(),
                    lease: lease.id(),
                    bytes: held,
                    at: end,
                }
            );
            resume = resume.max(end);
        }
        self.quiet_revision = quiet.then_some(revision);
        resume
    }
}

impl Offloader for AquaOffloader {
    fn swap_out(&mut self, bytes: u64, chunks: u64, now: SimTime) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let start = now + self.gather_cost(bytes, chunks);
        // Autonomous mode: without the coordinator no lease can be granted,
        // so new allocations pin to DRAM (and stay pinned for the degraded
        // window after the control plane comes back).
        if !self.coordinator.reachable(self.consumer.gpu, now) {
            self.unreachable_since.get_or_insert(now);
            self.enter_degraded(now);
            let end = self.pcie_to_host(self.consumer, bytes, start);
            self.dram_bytes += bytes;
            self.trace_allocation(None, bytes, now);
            return end;
        }
        // Degraded mode: a recent fabric failure pins new allocations to
        // DRAM so every swap does not re-probe a dead link.
        if self.is_degraded() {
            let end = self.pcie_to_host(self.consumer, bytes, start);
            self.dram_bytes += bytes;
            self.trace_allocation(None, bytes, now);
            return end;
        }
        // Rung 1 — lease affinity: keep growing context on the producer
        // that already holds it (1:1 pairing; avoids fanning one consumer's
        // bytes across every lease on the server).
        // Tracked leases are tried in lease order; the first with room
        // takes the bytes.
        let affinity = self
            .peer_bytes
            .iter()
            .find(|(lease, _)| self.coordinator.try_allocate_on(**lease, bytes))
            .map(|(lease, (gpu, _))| (*lease, *gpu));
        if let Some((lease, gpu)) = affinity {
            if let Some(end) = self.try_fabric(self.consumer, gpu, bytes, start) {
                self.peer_bytes.get_mut(&lease).expect("tracked").1 += bytes;
                self.trace_allocation(Some(gpu), bytes, now);
                return end;
            }
            // Fabric to that producer is gone: undo the reservation and
            // drop to the next rung.
            let _ = self.coordinator.free(lease, bytes);
            self.note_failover(&format!("peer:{gpu}"), "sibling", bytes, now);
        }
        // Rung 2 — any lease the coordinator picks (possibly a sibling
        // producer reachable over a different set of ports).
        match self.coordinator.allocate(self.consumer, bytes) {
            AllocationSite::Peer { lease, gpu } => {
                if let Some(end) = self.try_fabric(self.consumer, gpu, bytes, start) {
                    let entry = self.peer_bytes.entry(lease).or_insert((gpu, 0));
                    entry.1 += bytes;
                    self.trace_allocation(Some(gpu), bytes, now);
                    return end;
                }
                let _ = self.coordinator.free(lease, bytes);
                self.note_failover(&format!("peer:{gpu}"), "dram", bytes, now);
                // Rung 3 — host DRAM, and stay there for a while.
                self.enter_degraded(now);
                let end = self.pcie_to_host(self.consumer, bytes, start);
                self.dram_bytes += bytes;
                self.trace_allocation(None, bytes, now);
                end
            }
            AllocationSite::Dram => {
                let end = self.pcie_to_host(self.consumer, bytes, start);
                self.dram_bytes += bytes;
                self.trace_allocation(None, bytes, now);
                end
            }
        }
    }

    fn swap_in(&mut self, bytes: u64, chunks: u64, now: SimTime) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let (from_peer, from_dram) = self.split_inbound(bytes);
        let mut end = now;
        for (lease, gpu, take) in from_peer {
            let done = match self.try_fabric(gpu, self.consumer, take, now) {
                Some(done) => done,
                None => {
                    // Detour: producer HBM → host → consumer over PCIe.
                    self.note_failover(&format!("peer:{gpu}"), "dram-detour", take, now);
                    let mid = self.pcie_to_host(gpu, take, now);
                    self.pcie_from_host(self.consumer, take, mid)
                }
            };
            end = end.max(done);
            self.free_lease(lease, take, now);
            trace!(
                self.tracer,
                TraceEvent::LeaseFreed {
                    consumer: self.consumer.to_string(),
                    lease: lease.id(),
                    bytes: take,
                    at: now,
                }
            );
            let held = self.peer_bytes.get(&lease).map_or(0, |(_, b)| *b);
            self.audit_outflow("peer", held, take, now);
            let entry = self.peer_bytes.get_mut(&lease).expect("tracked lease");
            entry.1 = entry.1.saturating_sub(take);
            if entry.1 == 0 {
                self.peer_bytes.remove(&lease);
            }
        }
        if from_dram > 0 {
            let done = self.pcie_from_host(self.consumer, from_dram, now);
            end = end.max(done);
            self.audit_outflow("dram", self.dram_bytes, from_dram, now);
            self.dram_bytes = self.dram_bytes.saturating_sub(from_dram);
        }
        // Scatter the staged buffer back into its per-layer tensors.
        end + self.gather_cost(bytes, chunks)
    }

    fn read_in(&mut self, bytes: u64, chunks: u64, now: SimTime) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let (from_peer, from_dram) = self.split_inbound(bytes);
        let mut end = now;
        let mut covered = 0u64;
        for (lease, gpu, take) in from_peer {
            match self.try_fabric(gpu, self.consumer, take, now) {
                Some(done) => end = end.max(done),
                None => {
                    // Detour over PCIe, and permanently migrate these bytes
                    // to DRAM: re-reading them should cost one DRAM fetch,
                    // not a dead-fabric probe plus a double PCIe hop.
                    self.note_failover(&format!("peer:{gpu}"), "dram", take, now);
                    let mid = self.pcie_to_host(gpu, take, now);
                    end = end.max(self.pcie_from_host(self.consumer, take, mid));
                    self.free_lease(lease, take, now);
                    let held = self.peer_bytes.get(&lease).map_or(0, |(_, b)| *b);
                    self.audit_outflow("peer", held, take, now);
                    let entry = self.peer_bytes.get_mut(&lease).expect("tracked lease");
                    entry.1 = entry.1.saturating_sub(take);
                    if entry.1 == 0 {
                        self.peer_bytes.remove(&lease);
                    }
                    self.dram_bytes += take;
                    self.enter_degraded(now);
                }
            }
            covered += take;
        }
        let dram_part = from_dram + bytes.saturating_sub(covered + from_dram);
        if dram_part > 0 {
            end = end.max(self.pcie_from_host(self.consumer, dram_part, now));
        }
        end + self.gather_cost(bytes, chunks)
    }

    fn on_iteration_boundary(&mut self, now: SimTime) -> SimTime {
        if self.boundary_is_quiet() {
            return now;
        }
        let mut resume = now;
        // 0. A stalled coordinator delays every control-plane verb below.
        if let Some(plan) = &self.fault_plan {
            let stall = plan.stall_at(now);
            if !stall.is_zero() {
                resume += stall;
            }
        }
        // 0b. One coordinator query: while the coordinator is crashed or
        // partitioned away, the consumer runs this boundary autonomously.
        // Otherwise the query drives the coordinator's failure watchdogs
        // from the consumer's clock (in a real deployment the coordinator
        // has its own timer) and, in audited runs, sweeps the lease books.
        let Some((current, mut revision)) = self.coordinator.boundary(self.consumer.gpu, resume)
        else {
            return self.autonomous_boundary(resume);
        };
        let was_dark = self.unreachable_since.take().is_some();
        // 0c. Epoch fence: a bump means the coordinator crashed and rebuilt
        // its book. Frees naming old-epoch lease ids can never land; frees
        // deferred across a same-epoch outage replay now.
        let epoch_changed = current != self.epoch;
        if epoch_changed {
            self.deferred_frees.clear();
            self.epoch = current;
        } else if was_dark {
            for (lease, bytes) in std::mem::take(&mut self.deferred_frees) {
                let _ = self.coordinator.free_at(lease, bytes, resume);
            }
            // The replayed frees may have moved the book.
            revision = self.coordinator.book_revision();
        }
        // 1-2. The lease sweeps.
        resume = self.sweep_leases(resume, epoch_changed, revision);
        // 3. Degraded mode ends only at a boundary, and promotion is
        // skipped while it lasts (new peer placements are suspect).
        self.maybe_exit_degraded(resume);
        // 4. Background promotion of DRAM-resident bytes back to a peer.
        if self.dram_bytes > 0 && !self.is_degraded() {
            let available = self.coordinator.available_on_server(self.consumer.server);
            let promote = self.dram_bytes.min(available);
            if promote > 0 {
                if let AllocationSite::Peer { lease, gpu } =
                    self.coordinator.allocate(self.consumer, promote)
                {
                    // Host -> producer over the producer's PCIe; does not
                    // block the consumer's inference loop.
                    let _ = self.pcie_from_host(gpu, promote, resume);
                    self.dram_bytes -= promote;
                    let entry = self.peer_bytes.entry(lease).or_insert((gpu, 0));
                    entry.1 += promote;
                    trace!(
                        self.tracer,
                        TraceEvent::LeasePromoted {
                            consumer: self.consumer.to_string(),
                            lease: lease.id(),
                            bytes: promote,
                            at: resume,
                        }
                    );
                }
            }
        }
        resume
    }

    /// The one statement of the boundary's no-op rule, on which the
    /// boundary above returns at once: quiet when every step of it would be
    /// a no-op that keeps `now`. There is no fault plan to stall it; the
    /// coordinator has no plan to replay, watchdog to run or books to
    /// audit; no dark period to end; the epoch is ours; the book is still
    /// at a revision whose sweeps found nothing; nothing degraded to
    /// expire; and no DRAM-resident bytes to promote. Only a call on this
    /// offloader or on its coordinator can change any of these.
    fn boundary_is_quiet(&self) -> bool {
        self.fault_plan.is_none()
            && self.unreachable_since.is_none()
            && self.degraded_until.is_none()
            && self.dram_bytes == 0
            && self.coordinator.boundary_is_quiet()
            && self.epoch == self.coordinator.epoch()
            && self.quiet_revision == Some(self.coordinator.book_revision())
    }

    fn location(&self) -> OffloadLocation {
        match (self.peer_total() > 0, self.dram_bytes > 0) {
            (true, false) => OffloadLocation::PeerGpu,
            (false, true) | (false, false) => OffloadLocation::HostDram,
            (true, true) => OffloadLocation::Mixed,
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::gpu::{GpuId, GpuSpec};
    use aqua_sim::link::bytes::{gib, mib};
    use aqua_sim::topology::ServerTopology;

    fn setup(lease_gib: u64) -> (AquaOffloader, Rc<Coordinator>) {
        let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        if lease_gib > 0 {
            coord.lease(GpuRef::single(GpuId(1)), gib(lease_gib));
        }
        let off = AquaOffloader::new(GpuRef::single(GpuId(0)), Rc::clone(&coord), server, xfer);
        (off, coord)
    }

    #[test]
    fn swap_out_lands_on_peer_when_leased() {
        let (mut off, coord) = setup(20);
        let end = off.swap_out(gib(2), 1024, SimTime::ZERO);
        assert_eq!(off.peer_total(), gib(2));
        assert_eq!(off.dram_total(), 0);
        assert_eq!(coord.used_bytes(), gib(2));
        // ~2 GiB at 250 GB/s + gather ≈ 11 ms.
        assert!(end.as_secs_f64() < 0.03, "end = {end}");
        assert_eq!(off.location(), OffloadLocation::PeerGpu);
    }

    #[test]
    fn falls_back_to_dram_without_lease() {
        let (mut off, _) = setup(0);
        let end = off.swap_out(gib(2), 1024, SimTime::ZERO);
        assert_eq!(off.peer_total(), 0);
        assert_eq!(off.dram_total(), gib(2));
        // 2 GiB at 25 GB/s ≈ 86 ms.
        assert!(end.as_secs_f64() > 0.05, "end = {end}");
        assert_eq!(off.location(), OffloadLocation::HostDram);
    }

    #[test]
    fn overflow_splits_across_peer_and_dram() {
        let (mut off, _) = setup(1);
        off.swap_out(gib(1), 1, SimTime::ZERO);
        off.swap_out(gib(1), 1, SimTime::ZERO);
        assert_eq!(off.peer_total(), gib(1));
        assert_eq!(off.dram_total(), gib(1));
        assert_eq!(off.location(), OffloadLocation::Mixed);
    }

    #[test]
    fn swap_in_prefers_peer_and_frees_lease() {
        let (mut off, coord) = setup(4);
        off.swap_out(gib(2), 1, SimTime::ZERO);
        let end = off.swap_in(gib(2), 1, SimTime::ZERO);
        assert_eq!(off.peer_total(), 0);
        assert_eq!(coord.used_bytes(), 0);
        assert!(end.as_secs_f64() < 0.05);
    }

    #[test]
    fn read_in_does_not_consume_occupancy() {
        let (mut off, coord) = setup(4);
        off.prestage(mib(320));
        let before = coord.used_bytes();
        let t1 = off.read_in(mib(320), 256, SimTime::ZERO);
        let t2 = off.read_in(mib(320), 256, t1);
        assert!(t2 > t1);
        assert_eq!(coord.used_bytes(), before, "reads leave the store intact");
        assert_eq!(off.peer_total(), mib(320));
    }

    #[test]
    fn reclaim_blocks_and_migrates_to_dram() {
        let (mut off, coord) = setup(10);
        off.swap_out(gib(4), 1, SimTime::ZERO);
        coord.reclaim_request(GpuRef::single(GpuId(1)), SimTime::ZERO);
        let t0 = SimTime::from_secs(1);
        let resume = off.on_iteration_boundary(t0);
        // 4 GiB over PCIe ≈ 170 ms: the consumer is blocked meanwhile.
        assert!(resume > t0 + aqua_sim::time::SimDuration::from_millis(100));
        assert_eq!(off.peer_total(), 0);
        assert_eq!(off.dram_total(), gib(4));
        assert_eq!(off.releases(), 1);
        // Producer sees the release.
        assert!(matches!(
            coord.reclaim_status(GpuRef::single(GpuId(1))),
            crate::coordinator::ReclaimStatus::Released { bytes, .. } if bytes == gib(10)
        ));
    }

    #[test]
    fn dram_bytes_promote_back_when_lease_returns() {
        let (mut off, coord) = setup(0);
        off.swap_out(gib(2), 1, SimTime::ZERO);
        assert_eq!(off.dram_total(), gib(2));
        // A producer appears.
        coord.lease(GpuRef::single(GpuId(1)), gib(20));
        let resume = off.on_iteration_boundary(SimTime::from_secs(1));
        assert_eq!(resume, SimTime::from_secs(1), "promotion is non-blocking");
        assert_eq!(off.dram_total(), 0);
        assert_eq!(off.peer_total(), gib(2));
    }

    #[test]
    fn traced_offloader_journals_lease_lifecycle() {
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        coord.lease(GpuRef::single(GpuId(1)), gib(10));
        let mut off = AquaOffloader::new(GpuRef::single(GpuId(0)), Rc::clone(&coord), server, xfer)
            .with_tracer(journal.clone());

        off.swap_out(gib(2), 1, SimTime::ZERO);
        off.swap_in(gib(2), 1, SimTime::from_secs(1));
        coord.reclaim_request(GpuRef::single(GpuId(1)), SimTime::from_secs(1));
        off.swap_out(gib(1), 1, SimTime::from_secs(2)); // reclaiming: lands in DRAM
        off.on_iteration_boundary(SimTime::from_secs(3));

        let events = journal.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::LeaseFreed { bytes, .. } if *bytes == gib(2))));
        let allocations = |at: &str| {
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::LeaseAllocated { site, .. } if site == at))
                .count()
        };
        assert_eq!((allocations("peer:s0/gpu1"), allocations("dram")), (1, 1));
    }

    #[test]
    fn zero_byte_ops_are_instant() {
        let (mut off, _) = setup(1);
        let t = SimTime::from_secs(3);
        assert_eq!(off.swap_out(0, 0, t), t);
        assert_eq!(off.swap_in(0, 0, t), t);
        assert_eq!(off.read_in(0, 0, t), t);
    }

    fn faulty_setup(lease_gib: u64, plan: FaultPlan) -> (AquaOffloader, Rc<Coordinator>) {
        let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        if lease_gib > 0 {
            coord.lease(GpuRef::single(GpuId(1)), gib(lease_gib));
        }
        let plan = Arc::new(plan);
        xfer.borrow_mut().set_fault_plan(Arc::clone(&plan));
        let off = AquaOffloader::new(GpuRef::single(GpuId(0)), Rc::clone(&coord), server, xfer)
            .with_fault_plan(plan);
        (off, coord)
    }

    #[test]
    fn fabric_outage_fails_over_to_dram_and_degrades() {
        let plan = FaultPlan::new().gpu_crash(GpuId(1), SimTime::ZERO, SimTime::from_secs(100));
        let (mut off, coord) = faulty_setup(20, plan);
        off.swap_out(gib(1), 1, SimTime::ZERO);
        assert_eq!(off.peer_total(), 0);
        assert_eq!(off.dram_total(), gib(1), "ladder bottoms out in DRAM");
        assert_eq!(coord.used_bytes(), 0, "failed peer reservation was undone");
        assert!(off.is_degraded());
        assert_eq!(off.failovers(), 1);
        assert_eq!(off.retries(), 2, "full retry budget was spent");
        // Degraded: the next swap goes straight to DRAM, no new failover.
        off.swap_out(gib(1), 1, SimTime::from_secs(1));
        assert_eq!(off.dram_total(), gib(2));
        assert_eq!(off.failovers(), 1);
        assert_eq!(off.location(), OffloadLocation::HostDram);
    }

    #[test]
    fn short_flap_is_ridden_out_by_retries() {
        // A 1 ms flap: the 2 ms backoff lands the first retry after it.
        let plan = FaultPlan::new().gpu_crash(
            GpuId(1),
            SimTime::ZERO,
            SimTime::ZERO + aqua_sim::time::SimDuration::from_millis(1),
        );
        let (mut off, _) = faulty_setup(20, plan);
        off.swap_out(gib(1), 1, SimTime::ZERO);
        assert_eq!(off.peer_total(), gib(1), "retry rode out the flap");
        assert_eq!(off.retries(), 1);
        assert_eq!(off.failovers(), 0);
        assert!(!off.is_degraded());
    }

    #[test]
    fn degraded_mode_expires_and_promotes_back() {
        let plan = FaultPlan::new().gpu_crash(GpuId(1), SimTime::ZERO, SimTime::from_secs(10));
        let (mut off, _) = faulty_setup(20, plan);
        off.swap_out(gib(1), 1, SimTime::ZERO);
        assert!(off.is_degraded());
        // Still inside the 30 s degraded window: pinned to DRAM.
        off.on_iteration_boundary(SimTime::from_secs(20));
        assert!(off.is_degraded());
        assert_eq!(off.dram_total(), gib(1));
        // Window over: degraded mode lifts and the bytes promote back.
        off.on_iteration_boundary(SimTime::from_secs(40));
        assert!(!off.is_degraded());
        assert_eq!(off.dram_total(), 0);
        assert_eq!(off.peer_total(), gib(1));
    }

    #[test]
    fn stranded_lease_bytes_rematerialise_in_dram() {
        use crate::coordinator::FailureConfig;

        let (mut off, coord) = setup(10);
        coord.set_failure_config(FailureConfig::chaos());
        off.swap_out(gib(2), 1, SimTime::ZERO);
        assert_eq!(off.peer_total(), gib(2));
        // First boundary arms the heartbeat watchdog; the producer then
        // goes silent and the lease expires underneath the consumer.
        off.on_iteration_boundary(SimTime::from_secs(5));
        assert_eq!(off.peer_total(), gib(2));
        let resume = off.on_iteration_boundary(SimTime::from_secs(30));
        assert_eq!(off.peer_total(), 0);
        assert_eq!(off.dram_total(), gib(2), "context re-materialised in DRAM");
        assert_eq!(off.lost_bytes(), gib(2));
        assert!(off.failovers() >= 1);
        assert!(off.is_degraded());
        assert!(
            resume > SimTime::from_secs(30),
            "re-materialisation blocks the boundary"
        );
    }

    #[test]
    fn audited_offloader_run_stays_clean() {
        use aqua_sim::audit::Auditor;

        let aud = Auditor::collecting();
        let (mut off, coord) = setup(10);
        coord.set_auditor(aud.clone());
        off = off.with_auditor(aud.clone());
        off.swap_out(gib(2), 64, SimTime::ZERO);
        off.swap_in(gib(1), 64, SimTime::from_secs(1));
        off.on_iteration_boundary(SimTime::from_secs(2));
        off.swap_in(gib(1), 64, SimTime::from_secs(3));
        assert!(
            aud.is_clean(),
            "legit offload traffic must not trip the audit: {:?}",
            aud.violations()
        );
    }

    #[test]
    fn audit_catches_coordinator_double_free() {
        use aqua_sim::audit::Auditor;

        let aud = Auditor::collecting();
        let (_, coord) = setup(10);
        coord.set_auditor(aud.clone());
        let lease = coord.lease(GpuRef::single(GpuId(1)), gib(1));
        assert!(coord.try_allocate_on(lease, mib(64)));
        assert!(coord.free(lease, mib(64)).is_ok());
        // Second free of the same bytes: the books would go negative.
        assert!(coord.free(lease, mib(64)).is_err());
        let v = aud.first().expect("double free recorded");
        assert_eq!(v.kind(), "double_free");
    }

    #[test]
    fn unreachable_coordinator_defers_frees_and_pins_swaps_to_dram() {
        use aqua_telemetry::JournalTracer;

        // Consumer GpuId(1) loses the coordinator between t=10s and t=40s
        // (partition split 1: only gpu0 keeps control-plane reachability).
        let journal = Arc::new(JournalTracer::new());
        let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        coord.set_fault_plan(Arc::new(FaultPlan::new().partition(
            1,
            SimTime::from_secs(10),
            SimTime::from_secs(40),
        )));
        coord.lease(GpuRef::single(GpuId(0)), gib(20));
        let mut off = AquaOffloader::new(GpuRef::single(GpuId(1)), Rc::clone(&coord), server, xfer)
            .with_tracer(journal.clone());

        off.swap_out(gib(2), 1, SimTime::ZERO);
        assert_eq!(off.peer_total(), gib(2));
        // Inside the partition window the data plane keeps working — the
        // fabric path is GPU-to-GPU — but the free cannot land.
        off.swap_in(gib(1), 1, SimTime::from_secs(12));
        assert_eq!(off.peer_total(), gib(1));
        assert_eq!(coord.used_bytes(), gib(2), "free deferred, not lost");
        assert_eq!(off.deferred_frees.len(), 1);
        // New allocations pin to DRAM while the coordinator is dark.
        off.swap_out(gib(1), 1, SimTime::from_secs(13));
        assert_eq!(off.dram_total(), gib(1));
        assert!(off.is_degraded());
        // First boundary after the heal replays the deferred free (same
        // epoch: the lease id is still honoured).
        off.on_iteration_boundary(SimTime::from_secs(41));
        assert_eq!(coord.used_bytes(), gib(1));
        assert_eq!(coord.epoch(), 1);
    }

    #[test]
    fn prolonged_outage_locally_revokes_peer_leases() {
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        coord.set_fault_plan(Arc::new(FaultPlan::new().partition(
            1,
            SimTime::from_secs(10),
            SimTime::from_secs(100),
        )));
        coord.lease(GpuRef::single(GpuId(0)), gib(20));
        let mut off = AquaOffloader::new(GpuRef::single(GpuId(1)), Rc::clone(&coord), server, xfer)
            .with_tracer(journal.clone());
        off.swap_out(gib(2), 1, SimTime::ZERO);

        // First dark boundary starts the outage clock; nothing is revoked.
        off.on_iteration_boundary(SimTime::from_secs(12));
        assert_eq!(off.peer_total(), gib(2));
        // 30 s of continuous outage: the lease TTL at the coordinator has
        // conservatively lapsed, so the retained copy rewrites to DRAM.
        let resume = off.on_iteration_boundary(SimTime::from_secs(45));
        assert_eq!(off.peer_total(), 0);
        assert_eq!(off.dram_total(), gib(2));
        assert_eq!(off.lost_bytes(), gib(2));
        assert!(
            resume > SimTime::from_secs(45),
            "rewrite blocks the boundary"
        );
        let local_revokes = journal
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::LeaseReconciled { outcome, bytes, .. }
                        if outcome == "local-revoke" && *bytes == gib(2)
                )
            })
            .count();
        assert_eq!(local_revokes, 1);
        // Reconnect in the same epoch: the lease was in fact still live, so
        // the replayed free squares the books — and with the degraded window
        // over, the DRAM copy promotes straight back to the peer. The
        // coordinator and the consumer agree again: 2 GiB held, on a lease
        // (had the replayed free not landed, the lease would book the old
        // 2 GiB beside the promoted 2 GiB).
        off.on_iteration_boundary(SimTime::from_secs(101));
        assert!(off.deferred_frees.is_empty());
        assert_eq!(off.dram_total(), 0);
        assert_eq!(off.peer_total(), gib(2));
        assert_eq!(
            coord.used_bytes(),
            gib(2),
            "the deferred free landed cleanly"
        );
    }

    #[test]
    fn epoch_bump_rehomes_stranded_bytes_onto_the_new_lease() {
        use aqua_sim::audit::Auditor;

        let aud = Auditor::collecting();
        let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        coord.set_auditor(aud.clone());
        let producer = GpuRef::single(GpuId(1));
        coord.set_fault_plan(Arc::new(
            FaultPlan::new().coordinator_crash(SimTime::from_secs(10), SimDuration::from_secs(20)),
        ));
        coord.lease(producer, gib(10));
        let mut off = AquaOffloader::new(GpuRef::single(GpuId(0)), Rc::clone(&coord), server, xfer)
            .with_auditor(aud.clone());
        off.swap_out(gib(2), 1, SimTime::ZERO);
        assert_eq!(off.peer_total(), gib(2));

        // Replay the crash window, then the producer re-registers its full
        // inventory in epoch 2 (what its informer does on the first tick).
        coord.advance(SimTime::from_secs(31));
        assert_eq!(coord.epoch(), 2);
        coord
            .resync_report(producer, gib(10), 2, SimTime::from_secs(31))
            .unwrap();
        // The consumer's boundary finds its old lease dead, but re-homes the
        // bytes onto the producer's fresh lease — no data ever moved.
        off.on_iteration_boundary(SimTime::from_secs(32));
        assert_eq!(off.peer_total(), gib(2), "bytes re-homed, not rewritten");
        assert_eq!(off.dram_total(), 0);
        assert_eq!(coord.used_bytes(), gib(2));
        let (recovered, first_regrant) = coord.recovery_metrics();
        assert!(recovered.is_some());
        assert!(first_regrant.is_some());
        assert!(aud.is_clean(), "{:?}", aud.violations());
    }

    /// Regression: an offloader that has not yet crossed a boundary since
    /// a crash still frees a lease minted in the new epoch. The free is
    /// fenced on the epoch the lease handle carries, not on the
    /// offloader's last-synced epoch, so the epoch-2 lease does not leak.
    #[test]
    fn free_of_a_lease_minted_after_an_unseen_crash_lands() {
        let (mut off, coord) = setup(0);
        assert_eq!(off.epoch, 1);
        coord.crash(SimTime::from_secs(1));
        coord.recover(SimTime::from_secs(2));
        coord.lease(GpuRef::single(GpuId(1)), gib(20));
        off.swap_out(gib(2), 1, SimTime::from_secs(3));
        assert_eq!(coord.used_bytes(), gib(2));
        off.swap_in(gib(2), 1, SimTime::from_secs(4));
        assert_eq!(off.peer_total(), 0);
        assert_eq!(coord.used_bytes(), 0, "the epoch-2 lease leaked");
    }

    /// One boundary over three tracked leases: the live one is untouched,
    /// the reclaiming one migrates to DRAM and is released, and the revoked
    /// one's bytes are re-materialised in DRAM. The journal is pinned line
    /// for line, so the boundary's action order cannot drift.
    #[test]
    fn boundary_acts_only_on_reclaiming_and_revoked_leases() {
        use crate::coordinator::{FailureConfig, ReclaimStatus};
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let server = Rc::new(ServerTopology::nvswitch(4, GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        coord.set_tracer(journal.clone());
        coord.set_failure_config(FailureConfig::chaos());
        let (live, reclaiming, revoked) = (
            GpuRef::single(GpuId(1)),
            GpuRef::single(GpuId(2)),
            GpuRef::single(GpuId(3)),
        );
        let leases = [live, reclaiming, revoked].map(|p| coord.lease(p, gib(10)));
        let mut off = AquaOffloader::new(GpuRef::single(GpuId(0)), Rc::clone(&coord), server, xfer)
            .with_tracer(journal.clone());
        // Least-loaded placement spreads the three regions over leases
        // 0, 1 and 2 in id order.
        off.prestage(gib(1));
        off.prestage(gib(2));
        off.prestage(gib(3));
        // The first boundary arms the heartbeat watchdog; then the third
        // producer goes silent past the 10 s TTL.
        off.on_iteration_boundary(SimTime::from_secs(1));
        coord.heartbeat(live, SimTime::from_secs(15), 1).unwrap();
        coord
            .heartbeat(reclaiming, SimTime::from_secs(15), 1)
            .unwrap();
        coord.reclaim_request(reclaiming, SimTime::from_secs(15));
        let resume = off.on_iteration_boundary(SimTime::from_secs(20));

        assert_eq!(coord.lease_state(leases[0]), LeaseState::Live);
        assert_eq!(
            off.peer_total(),
            gib(1),
            "only the live lease still holds bytes"
        );
        assert_eq!(coord.used_bytes(), gib(1));
        assert_eq!(off.releases(), 1);
        assert_eq!(
            off.lost_bytes(),
            gib(3),
            "only the revoked lease's bytes were lost"
        );
        assert_eq!(off.dram_total(), gib(2) + gib(3));
        assert!(matches!(
            coord.reclaim_status(reclaiming),
            ReclaimStatus::Released { bytes, .. } if bytes == gib(10)
        ));
        assert_eq!(resume, SimTime::from_nanos(20_214_789_337));
        assert_eq!(
            journal.to_jsonl(),
            concat!(
                r#"{"event":"lease_expired","producer":"s0/gpu3","lease":2,"stranded":3221225472,"at":20000000000}"#,
                "\n",
                r#"{"event":"failover_engaged","consumer":"s0/gpu0","from":"peer:s0/gpu3","to":"dram","bytes":3221225472,"at":20000000000}"#,
                "\n",
                r#"{"event":"degraded_mode","consumer":"s0/gpu0","state":"enter","at":20000000000}"#,
                "\n",
                r#"{"event":"coordinator_verb","verb":"release","detail":"lease=1 bytes=2147483648","at":20214789337}"#,
                "\n",
                r#"{"event":"reclaim_released","producer":"s0/gpu2","lease":1,"bytes":2147483648,"at":20214789337}"#,
                "\n",
            )
        );
    }

    /// One coordinator (journalled, watchdogs per `config`) and a consumer
    /// on GPU 0 of a four-GPU NVSwitch server.
    fn journalled_world(
        config: crate::coordinator::FailureConfig,
    ) -> (
        Rc<Coordinator>,
        AquaOffloader,
        Arc<aqua_telemetry::JournalTracer>,
    ) {
        let journal = Arc::new(aqua_telemetry::JournalTracer::new());
        let server = Rc::new(ServerTopology::nvswitch(4, GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        coord.set_tracer(journal.clone());
        coord.set_failure_config(config);
        let off = AquaOffloader::new(GpuRef::single(GpuId(0)), Rc::clone(&coord), server, xfer)
            .with_tracer(journal.clone());
        (coord, off, journal)
    }

    aqua_sim::check! {
        /// The early return on `boundary_is_quiet` is exact: against a twin
        /// whose sweep mark is cleared before each boundary, which forces
        /// the full path, every boundary resumes at the same time and
        /// leaves the same offloader state and byte books, and the two
        /// journals are identical. The watchdogs are drawn, so runs without
        /// any have quiet boundaries; the ops interleave swaps, grants,
        /// reclaims, heartbeats, watchdog expiries, coordinator crashes,
        /// recoveries and resyncs, and another consumer's allocations.
        #[test]
        fn quiet_boundaries_match_the_full_path(
            (ttl, deadline) in (aqua_sim::check::AnyBool, aqua_sim::check::AnyBool),
            ops in aqua_sim::check::vec((0u8..11, 1u64..64), 1..60)
        ) {
            let chaos = crate::coordinator::FailureConfig::chaos();
            let config = crate::coordinator::FailureConfig {
                heartbeat_ttl: chaos.heartbeat_ttl.filter(|_| ttl),
                reclaim_deadline: chaos.reclaim_deadline.filter(|_| deadline),
            };
            let (coord_a, mut quick, journal_a) = journalled_world(config);
            let (coord_b, mut full, journal_b) = journalled_world(config);
            let mut now = SimTime::ZERO;
            for (op, amount) in ops {
                now += SimDuration::from_secs(1);
                let producer = GpuRef::single(GpuId(1 + (amount % 3) as usize));
                for (coord, off) in [(&coord_a, &mut quick), (&coord_b, &mut full)] {
                    match op {
                        0 => {
                            off.swap_out(mib(amount * 64), 4, now);
                        }
                        1 => {
                            off.swap_in(mib(amount * 32), 4, now);
                        }
                        2 => {
                            coord.lease(producer, gib(amount % 8 + 1));
                        }
                        3 => coord.reclaim_request(producer, now),
                        4 => {
                            let _ = coord.heartbeat(producer, now, coord.epoch());
                        }
                        5 => now += SimDuration::from_secs(amount % 16),
                        6 => coord.crash(now),
                        7 => {
                            let _ = coord.resync_report(producer, gib(4), coord.epoch(), now);
                        }
                        8 => {
                            let _ = coord.reclaim_status(producer);
                        }
                        9 => coord.recover(now),
                        _ => {
                            let _ = coord.allocate(GpuRef::single(GpuId(3)), mib(amount * 16));
                        }
                    }
                }
                full.quiet_revision = None;
                let a = quick.on_iteration_boundary(now);
                let b = full.on_iteration_boundary(now);
                assert_eq!(a, b, "resume time");
                assert_eq!(quick.peer_bytes, full.peer_bytes);
                assert_eq!(quick.dram_bytes, full.dram_bytes);
                assert_eq!(quick.deferred_frees, full.deferred_frees);
                assert_eq!(
                    (quick.epoch, quick.quiet_revision, quick.degraded_until),
                    (full.epoch, full.quiet_revision, full.degraded_until)
                );
                assert_eq!(
                    (quick.releases, quick.lost_bytes),
                    (full.releases, full.lost_bytes)
                );
                assert_eq!(coord_a.used_bytes(), coord_b.used_bytes());
                assert_eq!(coord_a.book_revision(), coord_b.book_revision());
            }
            assert_eq!(journal_a.to_jsonl(), journal_b.to_jsonl());
        }
    }

    /// The sweep mark the quiet predicate reads follows the book: a
    /// boundary whose sweeps find nothing records the revision it saw, and
    /// one whose sweeps act records nothing. Watchdogs keep every boundary
    /// on the full path.
    #[test]
    fn the_sweep_mark_follows_the_book_revision() {
        let (coord, mut off, _) = journalled_world(crate::coordinator::FailureConfig::chaos());
        let producer = GpuRef::single(GpuId(1));
        coord.lease(producer, gib(10));
        off.swap_out(gib(1), 4, SimTime::ZERO);
        off.on_iteration_boundary(SimTime::from_secs(1));
        let settled = coord.book_revision();
        assert_eq!(off.quiet_revision, Some(settled), "the sweep found nothing");
        coord.heartbeat(producer, SimTime::from_secs(2), 1).unwrap();
        off.on_iteration_boundary(SimTime::from_secs(2));
        assert_eq!(coord.book_revision(), settled, "heartbeats leave the book");
        assert_eq!(off.quiet_revision, Some(settled));
        coord.lease(GpuRef::single(GpuId(2)), gib(4));
        off.on_iteration_boundary(SimTime::from_secs(3));
        assert_ne!(coord.book_revision(), settled);
        assert_eq!(
            off.quiet_revision,
            Some(coord.book_revision()),
            "a new grant moves the mark with the book"
        );
        coord.reclaim_request(producer, SimTime::from_secs(3));
        off.on_iteration_boundary(SimTime::from_secs(4));
        assert_eq!(off.releases(), 1, "the reclaim was seen at once");
        assert_eq!(
            off.quiet_revision, None,
            "a sweep that acted records nothing"
        );
    }

    /// A consumer on GPU 0 of a four-GPU NVSwitch server holding 1 GiB on
    /// a 10 GiB lease from GPU 1, brokered by a journalled coordinator
    /// with no failure config; `build` adds to the offloader before the
    /// first boundary, which settles the book at 1 s.
    fn settled_world(
        build: impl FnOnce(AquaOffloader) -> AquaOffloader,
    ) -> (
        Rc<Coordinator>,
        AquaOffloader,
        Arc<aqua_telemetry::JournalTracer>,
    ) {
        let journal = Arc::new(aqua_telemetry::JournalTracer::new());
        let server = Rc::new(ServerTopology::nvswitch(4, GpuSpec::a100_80g()));
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        coord.set_tracer(journal.clone());
        coord.lease(GpuRef::single(GpuId(1)), gib(10));
        let off = AquaOffloader::new(GpuRef::single(GpuId(0)), Rc::clone(&coord), server, xfer)
            .with_tracer(journal.clone());
        let mut off = build(off);
        off.swap_out(gib(1), 4, SimTime::ZERO);
        off.on_iteration_boundary(SimTime::from_secs(1));
        (coord, off, journal)
    }

    /// A quiet boundary is the identity: for each case whose offloader
    /// answers `boundary_is_quiet`, a boundary returns its time and moves
    /// no state the boundary could touch (its own byte books, deferred
    /// frees, degraded mode and sweep mark; the coordinator's revision and
    /// epoch; the journal). Each condition of the answer is needed: every
    /// case that breaks one answers `false`.
    #[test]
    fn a_quiet_boundary_changes_nothing() {
        type Case = (
            &'static str,
            fn(AquaOffloader) -> AquaOffloader,
            fn(&Coordinator, &mut AquaOffloader),
            bool,
        );
        let keep: fn(AquaOffloader) -> AquaOffloader = |off| off;
        let cases: [Case; 12] = [
            ("settled", keep, |_, _| {}, true),
            (
                "settled again after the book moved",
                keep,
                |coord, off| {
                    coord.lease(GpuRef::single(GpuId(2)), gib(4));
                    off.on_iteration_boundary(SimTime::from_secs(2));
                },
                true,
            ),
            (
                "offloader fault plan",
                |off| off.with_fault_plan(Arc::new(FaultPlan::new())),
                |_, _| {},
                false,
            ),
            (
                "coordinator fault plan",
                keep,
                |coord, _| coord.set_fault_plan(Arc::new(FaultPlan::new())),
                false,
            ),
            (
                "auditor",
                keep,
                |coord, _| coord.set_auditor(aqua_sim::audit::Auditor::collecting()),
                false,
            ),
            (
                "failure config with a watchdog",
                keep,
                |coord, _| coord.set_failure_config(crate::coordinator::FailureConfig::chaos()),
                false,
            ),
            (
                "degraded mode",
                keep,
                |_, off| off.enter_degraded(SimTime::from_secs(1)),
                false,
            ),
            (
                "DRAM-resident bytes",
                keep,
                |_, off| {
                    // Past the lease's room, the swap lands in DRAM.
                    off.swap_out(gib(12), 4, SimTime::from_secs(1));
                    assert!(off.dram_total() > 0);
                },
                false,
            ),
            (
                "revision moved since the last sweep",
                keep,
                |coord, _| {
                    coord.lease(GpuRef::single(GpuId(2)), gib(4));
                },
                false,
            ),
            (
                "reclaim requested since the last sweep",
                keep,
                |coord, _| coord.reclaim_request(GpuRef::single(GpuId(1)), SimTime::from_secs(1)),
                false,
            ),
            (
                "dark period",
                keep,
                |_, off| off.unreachable_since = Some(SimTime::from_secs(1)),
                false,
            ),
            (
                "epoch bump",
                keep,
                |coord, off| {
                    coord.crash(SimTime::from_secs(1));
                    coord.recover(SimTime::from_secs(1));
                    // Only the epoch differs from a settled book.
                    off.quiet_revision = Some(coord.book_revision());
                },
                false,
            ),
        ];
        for (name, build, perturb, quiet) in cases {
            let (coord, mut off, journal) = settled_world(build);
            perturb(&coord, &mut off);
            assert_eq!(off.boundary_is_quiet(), quiet, "{name}");
            if !quiet {
                continue;
            }
            let state = |off: &AquaOffloader| {
                (
                    off.peer_bytes.clone(),
                    off.dram_bytes,
                    off.deferred_frees.clone(),
                    off.degraded_until,
                    off.unreachable_since,
                    off.quiet_revision,
                    off.epoch,
                    (off.releases, off.lost_bytes, off.fabric_bytes_moved),
                )
            };
            let before = (
                state(&off),
                coord.book_revision(),
                coord.epoch(),
                journal.digest(),
            );
            for t in [5, 60, 3_600] {
                let t = SimTime::from_secs(t);
                assert_eq!(off.on_iteration_boundary(t), t, "{name}: resume");
                let after = (
                    state(&off),
                    coord.book_revision(),
                    coord.epoch(),
                    journal.digest(),
                );
                assert_eq!(after, before, "{name}: state at {t:?}");
                assert!(off.boundary_is_quiet(), "{name}: still quiet");
            }
        }
    }

    #[test]
    fn gather_makes_scattered_cheap() {
        // Same payload, wildly different chunk counts: AQUA coalesces, so
        // the cost difference is just the staging sweep.
        let (mut off1, _) = setup(10);
        let t_few = off1.swap_out(mib(320), 1, SimTime::ZERO);
        let (mut off2, _) = setup(10);
        let t_many = off2.swap_out(mib(320), 100_000, SimTime::ZERO);
        let ratio = t_many.as_secs_f64() / t_few.as_secs_f64();
        assert!(
            ratio < 1.5,
            "coalescing keeps scatter cheap, ratio {ratio:.2}"
        );
    }
}
