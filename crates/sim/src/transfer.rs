//! Transfer plans and the port-level transfer engine.
//!
//! Two ideas from the paper live here:
//!
//! 1. **Transfer shape matters** (§3, §5, Figure 3a). Copying many small
//!    tensors (a prompt's per-layer KV slices, a LoRA adapter's per-layer
//!    weights) pays NVLink's poor small-message efficiency once per tensor.
//!    AQUA's custom gather/scatter kernels coalesce them into one large
//!    staging buffer first. [`TransferPlan`] makes the shape explicit so both
//!    strategies can be costed and compared (the `ablate_coalescing` bench).
//! 2. **Ports serialize** (Figure 18). Each directional port processes one
//!    transfer at a time, FIFO; transfers on disjoint ports overlap freely.
//!    [`TransferEngine`] tracks per-port busy horizons to schedule transfers
//!    deterministically.

use crate::audit::{AuditViolation, SharedAuditor};
use crate::fault::FaultPlan;
use crate::link::BandwidthModel;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkPath, PortId};
use aqua_telemetry::{null_tracer, Lane, SharedTracer, TraceEvent};
use std::sync::Arc;

/// The shape of a data movement: one big copy, or many small ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferPlan {
    /// A single contiguous copy of `bytes` (AQUA's gather-then-copy path).
    Coalesced {
        /// Total payload bytes.
        bytes: u64,
    },
    /// `chunks` separate copies of `chunk_bytes` each (the naive path).
    Scattered {
        /// Number of individual copies issued.
        chunks: u64,
        /// Bytes per copy.
        chunk_bytes: u64,
    },
}

impl TransferPlan {
    /// A single contiguous copy.
    pub fn coalesced(bytes: u64) -> Self {
        TransferPlan::Coalesced { bytes }
    }

    /// `chunks` copies of `chunk_bytes` each.
    pub fn scattered(chunks: u64, chunk_bytes: u64) -> Self {
        TransferPlan::Scattered {
            chunks,
            chunk_bytes,
        }
    }

    /// Total payload bytes moved by the plan.
    pub fn total_bytes(self) -> u64 {
        match self {
            TransferPlan::Coalesced { bytes } => bytes,
            TransferPlan::Scattered {
                chunks,
                chunk_bytes,
            } => chunks * chunk_bytes,
        }
    }
}

/// GPU-side cost of gathering scattered tensors into a contiguous staging
/// buffer (or scattering one back): one HBM read plus one HBM write of the
/// payload. This is the price AQUA pays to convert a [`TransferPlan::Scattered`]
/// into a [`TransferPlan::Coalesced`] — tiny next to the link-time it saves.
pub fn staging_time(bytes: u64, hbm_bandwidth: f64) -> SimDuration {
    SimDuration::from_secs_f64(2.0 * bytes as f64 / hbm_bandwidth)
}

/// A scheduled transfer: when it starts (after queueing) and completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledTransfer {
    /// When the transfer acquires all its ports.
    pub start: SimTime,
    /// When the last byte lands.
    pub end: SimTime,
    /// Pure wire time, excluding queueing behind earlier transfers.
    pub wire_time: SimDuration,
}

/// Why a fault-aware transfer could not complete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferError {
    /// A port on the path was already down when the transfer would start.
    PathDown {
        /// The first dead port found on the path.
        port: PortId,
        /// When the transfer would have started.
        at: SimTime,
    },
    /// The transfer started but an outage cut it mid-flight.
    Aborted {
        /// The port whose outage cut the transfer.
        port: PortId,
        /// When the cut happened.
        at: SimTime,
        /// Bytes that made it across before the cut.
        partial_bytes: u64,
    },
}

impl TransferError {
    /// When the failure was observed.
    pub fn at(&self) -> SimTime {
        match self {
            TransferError::PathDown { at, .. } | TransferError::Aborted { at, .. } => *at,
        }
    }

    /// Bytes delivered before the failure (0 for a path that never started).
    #[cfg(test)]
    fn partial_bytes(&self) -> u64 {
        match self {
            TransferError::PathDown { .. } => 0,
            TransferError::Aborted { partial_bytes, .. } => *partial_bytes,
        }
    }
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::PathDown { port, at } => {
                write!(f, "path down: port {port} dead at {}ns", at.as_nanos())
            }
            TransferError::Aborted {
                port,
                at,
                partial_bytes,
            } => write!(
                f,
                "transfer aborted on {port} at {}ns after {partial_bytes} bytes",
                at.as_nanos()
            ),
        }
    }
}

impl std::error::Error for TransferError {}

/// Deterministic per-port FIFO transfer scheduler.
///
/// # Example
///
/// ```
/// use aqua_sim::prelude::*;
///
/// let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
/// let mut engine = TransferEngine::new();
/// let path = server.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
/// let a = engine.schedule(&path, TransferPlan::coalesced(1 << 28), SimTime::ZERO);
/// let b = engine.schedule(&path, TransferPlan::coalesced(1 << 28), SimTime::ZERO);
/// // Same ports: the second transfer queues behind the first.
/// assert_eq!(b.start, a.end);
/// ```
#[derive(Debug, Clone)]
pub struct TransferEngine {
    /// Dense per-port accounting, indexed by [`port_slot`]. One slot update
    /// per port per transfer — no hashing, no separate maps.
    ports: Vec<PortStats>,
    tracer: SharedTracer,
    server: u32,
    faults: Option<Arc<FaultPlan>>,
    auditor: Option<SharedAuditor>,
}

/// Tolerance used by the oversubscription `debug_assert` in
/// [`TransferEngine::port_utilization`].
const UTILIZATION_EPS: f64 = 1e-9;

/// All per-port state in one slot: the scheduling horizon, cumulative
/// counters, and the lazily-rendered trace labels (so the traced path
/// allocates the lane name once per port, not once per transfer).
#[derive(Debug, Clone, Default)]
struct PortStats {
    busy_until: SimTime,
    bytes: u64,
    busy_time: SimDuration,
    lane: Option<Lane>,
}

impl PortStats {
    /// The interned lane label for `port`, rendered on first use.
    fn lane(&mut self, port: PortId) -> &Lane {
        self.lane
            .get_or_insert_with(|| Lane::from(port.to_string()))
    }
}

/// Maps a port to its dense slot: four directional ports per GPU.
fn port_slot(port: PortId) -> usize {
    match port {
        PortId::NvlinkEgress(g) => g.0 * 4,
        PortId::NvlinkIngress(g) => g.0 * 4 + 1,
        PortId::PcieUp(g) => g.0 * 4 + 2,
        PortId::PcieDown(g) => g.0 * 4 + 3,
    }
}

impl Default for TransferEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl TransferEngine {
    /// Creates an idle transfer engine (tracing disabled).
    pub fn new() -> Self {
        TransferEngine {
            ports: Vec::new(),
            tracer: null_tracer(),
            server: 0,
            faults: None,
            auditor: None,
        }
    }

    /// Shared access to a port's slot, if it has ever been touched.
    fn stats(&self, port: PortId) -> Option<&PortStats> {
        self.ports.get(port_slot(port))
    }

    /// Mutable access to a port's slot, growing the dense table on first
    /// touch of a new GPU's ports.
    fn stats_mut(&mut self, port: PortId) -> &mut PortStats {
        let slot = port_slot(port);
        if slot >= self.ports.len() {
            self.ports.resize_with(slot + 1, PortStats::default);
        }
        &mut self.ports[slot]
    }

    /// Attaches a tracer; every booked transfer journals one
    /// `transfer_completed` per port of its path, carrying its issue, start
    /// and end times, tagged with `server` as the trace process.
    pub fn set_tracer(&mut self, tracer: SharedTracer, server: u32) {
        self.tracer = tracer;
        self.server = server;
    }

    /// Attaches a fault plan. Degradation windows stretch wire times on all
    /// scheduling paths; outage windows make [`TransferEngine::try_schedule`]
    /// fail with partial-byte accounting.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Attaches an invariant auditor. Every booking is then checked for
    /// FIFO-horizon legality, lane over-capacity and (with a fault plan)
    /// bookings onto ports inside an active outage. The untraced hot path
    /// pays one `Option` test when no auditor is attached.
    pub fn set_auditor(&mut self, auditor: SharedAuditor) {
        self.auditor = Some(auditor);
    }

    /// Earliest time a transfer issued at `now` could start on `path`.
    fn earliest_start(&self, path: &LinkPath, now: SimTime) -> SimTime {
        path.ports
            .iter()
            .filter_map(|p| self.stats(*p).map(|s| s.busy_until))
            .fold(now, SimTime::max)
    }

    /// Schedules `plan` on `path` at `now`, occupying every port on the path
    /// until completion. Returns the start/end times.
    pub fn schedule(
        &mut self,
        path: &LinkPath,
        plan: TransferPlan,
        now: SimTime,
    ) -> ScheduledTransfer {
        let start = self.earliest_start(path, now);
        let wire_time = self.degraded_wire_time(path, path.model.transfer_time(plan), start);
        self.commit(path, plan, wire_time, start, now)
    }

    /// Schedules a transfer using an explicit bandwidth model instead of the
    /// path's (e.g. pageable PCIe for framework-level copies) while still
    /// occupying the path's ports.
    pub fn schedule_with_model(
        &mut self,
        path: &LinkPath,
        model: &BandwidthModel,
        plan: TransferPlan,
        now: SimTime,
    ) -> ScheduledTransfer {
        let start = self.earliest_start(path, now);
        let wire_time = self.degraded_wire_time(path, model.transfer_time(plan), start);
        self.commit(path, plan, wire_time, start, now)
    }

    /// Fault-aware scheduling: fails instead of silently completing when an
    /// outage window (link down, GPU crash) covers the path.
    ///
    /// * Path already down at the would-be start → [`TransferError::PathDown`]
    ///   and no port state changes.
    /// * Outage opens mid-flight → the transfer is cut at the outage start:
    ///   ports are occupied (and byte counters credited) only up to the cut,
    ///   and [`TransferError::Aborted`] reports the partial bytes delivered.
    ///
    /// Without a fault plan this is exactly [`TransferEngine::schedule`].
    pub fn try_schedule(
        &mut self,
        path: &LinkPath,
        plan: TransferPlan,
        now: SimTime,
    ) -> Result<ScheduledTransfer, TransferError> {
        let Some(faults) = self.faults.clone() else {
            return Ok(self.schedule(path, plan, now));
        };
        let start = self.earliest_start(path, now);
        let traced = self.tracer.enabled();
        if let Some(port) = path.ports.iter().find(|p| faults.port_down(**p, start)) {
            let port = *port;
            if traced {
                let lane = self.stats_mut(port).lane(port).clone();
                self.tracer.emit(TraceEvent::TransferAborted {
                    server: self.server,
                    lane,
                    bytes: plan.total_bytes(),
                    partial: 0,
                    at: start,
                });
            }
            return Err(TransferError::PathDown { port, at: start });
        }
        let wire_time = self.degraded_wire_time(path, path.model.transfer_time(plan), start);
        let end = start + wire_time;
        let cut = path
            .ports
            .iter()
            .filter_map(|p| faults.first_outage_in(*p, start, end).map(|t| (*p, t)))
            .min_by_key(|(_, t)| *t);
        let Some((cut_port, cut_at)) = cut else {
            return Ok(self.commit(path, plan, wire_time, start, now));
        };
        // Mid-flight abort: bytes stream linearly, so the partial payload is
        // proportional to the elapsed fraction of the wire time.
        let bytes = plan.total_bytes();
        let elapsed = cut_at.duration_since(start);
        let partial = if wire_time.is_zero() {
            0
        } else {
            (bytes as u128 * elapsed.as_nanos() as u128 / wire_time.as_nanos() as u128) as u64
        };
        for &p in &path.ports {
            let stats = self.stats_mut(p);
            stats.busy_until = cut_at;
            stats.bytes += partial;
            stats.busy_time += elapsed;
            if traced {
                let lane = stats.lane(p).clone();
                self.tracer.emit(TraceEvent::TransferAborted {
                    server: self.server,
                    lane,
                    bytes,
                    partial,
                    at: cut_at,
                });
            }
        }
        Err(TransferError::Aborted {
            port: cut_port,
            at: cut_at,
            partial_bytes: partial,
        })
    }

    /// Stretches a nominal wire time by the worst degradation multiplier
    /// active on any of the path's ports at `start`.
    fn degraded_wire_time(
        &self,
        path: &LinkPath,
        wire_time: SimDuration,
        start: SimTime,
    ) -> SimDuration {
        let Some(faults) = &self.faults else {
            return wire_time;
        };
        let slow = path
            .ports
            .iter()
            .fold(1.0f64, |acc, p| acc.max(faults.port_slowdown(*p, start)));
        if slow > 1.0 {
            SimDuration::from_secs_f64(wire_time.as_secs_f64() * slow)
        } else {
            wire_time
        }
    }

    /// Books the transfer on every port of the path. `start` is the already
    /// computed [`TransferEngine::earliest_start`] for this path, so commit
    /// never re-scans port horizons.
    ///
    /// This is the hottest line in the simulator: one dense-slot update per
    /// port per transfer, and — untraced — zero allocations and zero virtual
    /// tracer calls. Traced runs journal one line per port, reusing the
    /// port's interned [`Lane`] instead of re-rendering it per transfer.
    fn commit(
        &mut self,
        path: &LinkPath,
        plan: TransferPlan,
        wire_time: SimDuration,
        start: SimTime,
        now: SimTime,
    ) -> ScheduledTransfer {
        let end = start + wire_time;
        let bytes = plan.total_bytes();
        let chunks = match plan {
            TransferPlan::Coalesced { .. } => 1,
            TransferPlan::Scattered { chunks, .. } => chunks,
        };
        if let Some(aud) = &self.auditor {
            for &p in &path.ports {
                let prior = self
                    .ports
                    .get(port_slot(p))
                    .map_or(SimTime::ZERO, |s| s.busy_until);
                if start < prior {
                    aud.record(AuditViolation::PortOverlap {
                        port: p.to_string(),
                        busy_until: prior,
                        start,
                    });
                }
                // Orphan check is fabric-only: PCIe rescue paths (detours,
                // stranded-byte rematerialisation) are host-mediated and
                // modeled as always available, so a crash window downing a
                // GPU's PCIe ports must not flag them. A *fabric* booking
                // inside an outage means someone bypassed `try_schedule`.
                let fabric = matches!(p, PortId::NvlinkEgress(_) | PortId::NvlinkIngress(_));
                if fabric && self.faults.as_ref().is_some_and(|f| f.port_down(p, start)) {
                    aud.record(AuditViolation::OrphanedTransfer {
                        port: p.to_string(),
                        at: start,
                    });
                }
            }
        }
        let traced = self.tracer.enabled();
        for &p in &path.ports {
            let stats = self.stats_mut(p);
            stats.busy_until = end;
            stats.bytes += bytes;
            stats.busy_time += wire_time;
            if traced {
                let lane = stats.lane(p).clone();
                self.tracer.emit(TraceEvent::TransferCompleted {
                    server: self.server,
                    lane,
                    bytes,
                    chunks,
                    queued: now,
                    start,
                    end,
                });
            }
        }
        if let Some(aud) = &self.auditor {
            for &p in &path.ports {
                let s = &self.ports[port_slot(p)];
                if s.busy_time.as_nanos() > s.busy_until.as_nanos() {
                    aud.record(AuditViolation::LaneOverCapacity {
                        port: p.to_string(),
                        busy: s.busy_time,
                        horizon: s.busy_until,
                    });
                }
            }
        }
        ScheduledTransfer {
            start,
            end,
            wire_time,
        }
    }

    /// Busy horizon of a single port (for tests and introspection).
    fn port_busy_until(&self, port: crate::topology::PortId) -> SimTime {
        self.stats(port).map_or(SimTime::ZERO, |s| s.busy_until)
    }

    /// Cumulative payload bytes that crossed a port.
    #[cfg(test)]
    fn port_bytes(&self, port: crate::topology::PortId) -> u64 {
        self.stats(port).map_or(0, |s| s.bytes)
    }

    /// Cumulative time a port spent transferring.
    fn port_busy_time(&self, port: crate::topology::PortId) -> SimDuration {
        self.stats(port).map_or(SimDuration::ZERO, |s| s.busy_time)
    }

    /// Port utilisation over a window: busy time divided by `horizon`
    /// (0 for a zero-length window).
    ///
    /// The ratio is **not** clamped: a value above 1.0 means more busy time
    /// was booked than the window holds — i.e. the queried window is shorter
    /// than the port's backlog, or (a bug) overlapping transfers were booked
    /// on one port. When `horizon` covers the port's full busy horizon the
    /// FIFO invariant makes over-unity impossible, so that case is guarded by
    /// a `debug_assert` instead of silently clamping it away.
    pub fn port_utilization(&self, port: crate::topology::PortId, horizon: SimTime) -> f64 {
        let h = horizon.as_secs_f64();
        if h <= 0.0 {
            return 0.0;
        }
        let ratio = self.port_busy_time(port).as_secs_f64() / h;
        if horizon >= self.port_busy_until(port) {
            debug_assert!(
                ratio <= 1.0 + UTILIZATION_EPS,
                "port {port} oversubscribed: {ratio} busy over a horizon past its backlog"
            );
        }
        ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{GpuId, GpuSpec};
    use crate::link::bytes::mib;
    use crate::topology::ServerTopology;

    fn pair() -> ServerTopology {
        ServerTopology::nvlink_pair(GpuSpec::a100_80g())
    }

    #[test]
    fn plan_total_bytes() {
        assert_eq!(TransferPlan::coalesced(100).total_bytes(), 100);
        assert_eq!(TransferPlan::scattered(10, 7).total_bytes(), 70);
    }

    #[test]
    fn same_path_serializes() {
        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let mut eng = TransferEngine::new();
        let t1 = eng.schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO);
        let t2 = eng.schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO);
        assert_eq!(t1.start, SimTime::ZERO);
        assert_eq!(t2.start, t1.end);
        assert_eq!(t1.wire_time, t2.wire_time);
    }

    #[test]
    fn disjoint_ports_overlap() {
        let s = ServerTopology::nvswitch(4, GpuSpec::a100_80g());
        let p01 = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let p23 = s.gpu_to_gpu_path(GpuId(2), GpuId(3)).unwrap();
        let mut eng = TransferEngine::new();
        let t1 = eng.schedule(&p01, TransferPlan::coalesced(mib(256)), SimTime::ZERO);
        let t2 = eng.schedule(&p23, TransferPlan::coalesced(mib(256)), SimTime::ZERO);
        assert_eq!(t1.start, SimTime::ZERO);
        assert_eq!(t2.start, SimTime::ZERO, "disjoint ports should not queue");
    }

    #[test]
    fn shared_ingress_port_contends() {
        let s = ServerTopology::nvswitch(4, GpuSpec::a100_80g());
        let p01 = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let p21 = s.gpu_to_gpu_path(GpuId(2), GpuId(1)).unwrap();
        let mut eng = TransferEngine::new();
        let t1 = eng.schedule(&p01, TransferPlan::coalesced(mib(256)), SimTime::ZERO);
        let t2 = eng.schedule(&p21, TransferPlan::coalesced(mib(256)), SimTime::ZERO);
        assert_eq!(t2.start, t1.end, "both target gpu1's ingress port");
    }

    #[test]
    fn pcie_duplex_directions_are_independent() {
        let s = pair();
        let up = s.gpu_to_host_path(GpuId(0));
        let down = s.host_to_gpu_path(GpuId(0));
        let mut eng = TransferEngine::new();
        let t1 = eng.schedule(&up, TransferPlan::coalesced(mib(512)), SimTime::ZERO);
        let t2 = eng.schedule(&down, TransferPlan::coalesced(mib(512)), SimTime::ZERO);
        assert_eq!(t1.start, SimTime::ZERO);
        assert_eq!(t2.start, SimTime::ZERO);
    }

    #[test]
    fn latency_includes_queueing() {
        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let mut eng = TransferEngine::new();
        let _ = eng.schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO);
        let t2 = eng.schedule(&path, TransferPlan::coalesced(mib(1)), SimTime::ZERO);
        assert!(t2.end.duration_since(SimTime::ZERO).as_nanos() > t2.wire_time.as_nanos());
    }

    #[test]
    fn telemetry_counts_bytes_and_busy_time() {
        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let mut eng = TransferEngine::new();
        let t1 = eng.schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO);
        let t2 = eng.schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO);
        let egress = crate::topology::PortId::NvlinkEgress(GpuId(0));
        assert_eq!(eng.port_bytes(egress), mib(128));
        assert_eq!(eng.port_busy_time(egress), t1.wire_time + t2.wire_time);
        // Back-to-back transfers: ~100% utilized until t2.end.
        let u = eng.port_utilization(egress, t2.end);
        assert!(u > 0.99, "utilization {u}");
        assert_eq!(eng.port_utilization(egress, SimTime::ZERO), 0.0);
        let idle = crate::topology::PortId::PcieUp(GpuId(0));
        assert_eq!(eng.port_bytes(idle), 0);
    }

    #[test]
    fn short_horizon_exposes_oversubscription_instead_of_clamping() {
        // Two back-to-back transfers book 2x the wire time on the egress
        // port. Querying utilisation over a window that ends at the FIRST
        // transfer's completion must report ~2.0, not silently clamp to 1.0:
        // the old clamp hid exactly this kind of oversubscription.
        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let mut eng = TransferEngine::new();
        let t1 = eng.schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO);
        let t2 = eng.schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO);
        let egress = crate::topology::PortId::NvlinkEgress(GpuId(0));
        let u = eng.port_utilization(egress, t1.end);
        assert!(
            u > 1.5,
            "oversubscribed window must read over-unity, got {u}"
        );
        // Over the full backlog the FIFO invariant holds and the ratio is
        // back at (or below) 1.0 — the debug_assert path.
        let full = eng.port_utilization(egress, t2.end);
        assert!(full <= 1.0 + UTILIZATION_EPS, "{full}");
    }

    #[test]
    fn a_queued_transfer_journals_its_wait() {
        use aqua_telemetry::JournalTracer;
        use std::sync::Arc;

        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let journal = Arc::new(JournalTracer::new());
        let mut eng = TransferEngine::new();
        eng.set_tracer(journal.clone(), 0);
        let first = eng.schedule(&path, TransferPlan::scattered(4, mib(16)), SimTime::ZERO);
        let second = eng.schedule(&path, TransferPlan::coalesced(mib(8)), SimTime::ZERO);

        // One line per port of the path per transfer, in path order.
        let booked: Vec<_> = journal
            .events()
            .into_iter()
            .map(|e| match e {
                TraceEvent::TransferCompleted {
                    lane,
                    bytes,
                    chunks,
                    queued,
                    start,
                    end,
                    ..
                } => (lane.to_string(), bytes, chunks, queued, start, end),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let lines = |t: ScheduledTransfer, bytes, chunks| {
            path.ports
                .iter()
                .map(move |p| (p.to_string(), bytes, chunks, SimTime::ZERO, t.start, t.end))
        };
        let expected: Vec<_> = lines(first, mib(64), 4)
            .chain(lines(second, mib(8), 1))
            .collect();
        assert_eq!(booked, expected);
        assert_eq!(booked[0].0, "nvlink-egress:gpu0");
        for &port in &path.ports {
            assert_eq!(eng.port_bytes(port), mib(72), "{port}");
        }
        // The second transfer waited on the line itself: issued at zero,
        // on the wire only once the first one left it.
        assert!(SimTime::ZERO < second.start);
        assert_eq!(second.start, first.end);
    }

    #[test]
    fn staging_is_cheap_relative_to_pcie() {
        let spec = GpuSpec::a100_80g();
        let bytes = mib(320);
        let gather = staging_time(bytes, spec.hbm_bandwidth);
        let pcie = spec.pcie.copy_time(bytes);
        assert!(gather.as_secs_f64() * 10.0 < pcie.as_secs_f64());
    }

    crate::check! {
        /// Random transfer sequences under a journal: time only moves
        /// forward, each booking journals exactly one line per port of its
        /// path carrying the call's issue, start and end times, and the
        /// journal alone rebuilds every port's timeline: spans on one lane
        /// never overlap, and the last one ends at the port's horizon.
        #[test]
        fn port_exclusivity_invariant(
            ops in crate::check::vec((0usize..4, 0usize..4, 1u64..(64 << 20), 0u64..1_000_000), 1..60)
        ) {
            use aqua_telemetry::JournalTracer;
            use std::collections::HashMap;

            let s = ServerTopology::nvswitch(4, GpuSpec::a100_80g());
            let journal = Arc::new(JournalTracer::new());
            let mut eng = TransferEngine::new();
            eng.set_tracer(journal.clone(), 0);
            for (a, b, bytes, at) in ops {
                if a == b {
                    continue;
                }
                let path = s.gpu_to_gpu_path(GpuId(a), GpuId(b)).unwrap();
                let now = SimTime::from_nanos(at);
                let before = journal.len();
                let t = eng.schedule(&path, TransferPlan::coalesced(bytes), now);
                assert!(t.start >= now);
                assert!(t.end > t.start);
                let booked: Vec<_> = journal.events()[before..]
                    .iter()
                    .map(|e| match e {
                        TraceEvent::TransferCompleted { lane, queued, start, end, .. } => {
                            (lane.to_string(), *queued, *start, *end)
                        }
                        other => panic!("unexpected event {other:?}"),
                    })
                    .collect();
                let expected: Vec<_> =
                    path.ports.iter().map(|p| (p.to_string(), now, t.start, t.end)).collect();
                assert_eq!(booked, expected);
                // Each booked port's horizon is this transfer's end, at
                // every step, not only at the end of the run.
                for p in &path.ports {
                    assert_eq!(eng.port_busy_until(*p), t.end, "{p}");
                }
            }
            let mut lanes: HashMap<String, Vec<(SimTime, SimTime)>> = HashMap::new();
            for event in journal.events() {
                if let TraceEvent::TransferCompleted { lane, start, end, .. } = event {
                    lanes.entry(lane.to_string()).or_default().push((start, end));
                }
            }
            let ports = (0..4).flat_map(|g| {
                [PortId::NvlinkEgress(GpuId(g)), PortId::NvlinkIngress(GpuId(g))]
            });
            for port in ports {
                let spans = lanes.remove(&port.to_string()).unwrap_or_default();
                // Each span starts at or after the one before it on its
                // lane ends, so no two overlap.
                assert!(spans.windows(2).all(|w| w[1].0 >= w[0].1), "{port}: {spans:?}");
                let last = spans.last().map_or(SimTime::ZERO, |&(_, end)| end);
                assert_eq!(eng.port_busy_until(port), last, "{port}");
            }
            assert!(lanes.is_empty(), "lanes off the fabric: {lanes:?}");
        }
    }

    #[test]
    fn try_schedule_without_a_plan_matches_schedule() {
        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let mut a = TransferEngine::new();
        let mut b = TransferEngine::new();
        let plain = a.schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO);
        let faulty = b
            .try_schedule(&path, TransferPlan::coalesced(mib(64)), SimTime::ZERO)
            .expect("no plan, no faults");
        assert_eq!(plain, faulty);
    }

    #[test]
    fn outage_at_start_fails_without_occupying_ports() {
        use crate::fault::FaultPlan;
        use std::sync::Arc;

        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let mut eng = TransferEngine::new();
        eng.set_fault_plan(Arc::new(FaultPlan::new().link_down(
            crate::topology::PortId::NvlinkEgress(GpuId(0)),
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        )));
        let err = eng
            .try_schedule(
                &path,
                TransferPlan::coalesced(mib(64)),
                SimTime::from_secs(15),
            )
            .unwrap_err();
        assert!(matches!(err, TransferError::PathDown { .. }));
        assert_eq!(err.partial_bytes(), 0);
        assert_eq!(
            eng.port_bytes(crate::topology::PortId::NvlinkEgress(GpuId(0))),
            0
        );
        // After the window the same transfer goes through.
        assert!(eng
            .try_schedule(
                &path,
                TransferPlan::coalesced(mib(64)),
                SimTime::from_secs(20)
            )
            .is_ok());
    }

    #[test]
    fn mid_flight_outage_cuts_with_partial_bytes() {
        use crate::fault::FaultPlan;
        use aqua_telemetry::JournalTracer;
        use std::sync::Arc;

        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let egress = crate::topology::PortId::NvlinkEgress(GpuId(0));
        // Find the healthy wire time first, then cut halfway through it.
        let probe =
            TransferEngine::new().schedule(&path, TransferPlan::coalesced(mib(256)), SimTime::ZERO);
        let halfway = SimTime::from_nanos(probe.wire_time.as_nanos() / 2);

        let journal = Arc::new(JournalTracer::new());
        let mut eng = TransferEngine::new();
        eng.set_tracer(journal.clone(), 0);
        eng.set_fault_plan(Arc::new(FaultPlan::new().gpu_crash(
            GpuId(1),
            halfway,
            SimTime::from_secs(100),
        )));
        let err = eng
            .try_schedule(&path, TransferPlan::coalesced(mib(256)), SimTime::ZERO)
            .unwrap_err();
        let TransferError::Aborted {
            at, partial_bytes, ..
        } = err
        else {
            panic!("expected mid-flight abort, got {err:?}");
        };
        assert_eq!(at, halfway);
        // ~half the payload crossed before the cut.
        let half = mib(256) / 2;
        assert!(partial_bytes.abs_diff(half) < mib(1), "{partial_bytes}");
        assert_eq!(eng.port_bytes(egress), partial_bytes);
        assert_eq!(eng.port_busy_until(egress), halfway);
        // One abort per port of the path, each carrying the partial bytes.
        let aborted: Vec<u64> = journal
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TransferAborted { partial, .. } => Some(*partial),
                _ => None,
            })
            .collect();
        assert_eq!(aborted, vec![partial_bytes; path.ports.len()]);
    }

    #[test]
    fn degradation_stretches_wire_time() {
        use crate::fault::FaultPlan;
        use std::sync::Arc;

        let s = pair();
        let path = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let healthy = TransferEngine::new()
            .schedule(&path, TransferPlan::coalesced(mib(256)), SimTime::ZERO)
            .wire_time;
        let mut eng = TransferEngine::new();
        eng.set_fault_plan(Arc::new(FaultPlan::new().link_degraded(
            crate::topology::PortId::NvlinkEgress(GpuId(0)),
            3.0,
            SimTime::ZERO,
            SimTime::from_secs(100),
        )));
        let slow = eng
            .schedule(&path, TransferPlan::coalesced(mib(256)), SimTime::ZERO)
            .wire_time;
        let ratio = slow.as_secs_f64() / healthy.as_secs_f64();
        assert!((ratio - 3.0).abs() < 1e-6, "ratio {ratio}");
        // Outside the window behaviour is nominal again.
        let after = eng
            .schedule(
                &path,
                TransferPlan::coalesced(mib(256)),
                SimTime::from_secs(200),
            )
            .wire_time;
        assert_eq!(after, healthy);
    }

    #[test]
    fn schedule_with_model_uses_override() {
        let s = pair();
        let down = s.host_to_gpu_path(GpuId(0));
        let mut eng = TransferEngine::new();
        let pageable = crate::link::BandwidthModel::pcie_gen4_pageable();
        let fast = eng.schedule(&down, TransferPlan::coalesced(mib(320)), SimTime::ZERO);
        let mut eng2 = TransferEngine::new();
        let slow = eng2.schedule_with_model(
            &down,
            &pageable,
            TransferPlan::coalesced(mib(320)),
            SimTime::ZERO,
        );
        assert!(slow.wire_time > fast.wire_time);
    }
}
