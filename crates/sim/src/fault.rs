//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is a set of time windows during which some part of the
//! simulated server misbehaves: a link goes down or degrades, a GPU crashes,
//! the DRAM path congests, or the coordinator stalls. Plans are built either
//! by explicit scheduling (chainable builders) or from a seed
//! ([`FaultPlan::randomized`]), so chaos runs are exactly as reproducible as
//! fault-free ones — the same plan plus the same workload seed yields a
//! byte-identical telemetry journal.
//!
//! The plan itself is passive: components *query* it. The transfer engine
//! asks [`FaultPlan::port_down`] / [`FaultPlan::port_slowdown`] /
//! [`FaultPlan::first_outage_in`] when scheduling, the offloader asks
//! [`FaultPlan::stall_at`] at iteration boundaries, and the engine
//! driver replays GPU-crash windows as paused engines. This keeps fault
//! state out of every component's mutable state and makes a chaos run a pure
//! function of `(workload seed, FaultPlan)`.

use crate::gpu::GpuId;
use crate::time::{SimDuration, SimTime};
use crate::topology::PortId;
use aqua_telemetry::{trace, SharedTracer, TraceEvent};

/// What breaks during a fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A directional port carries no traffic at all.
    LinkDown {
        /// The dead port.
        port: PortId,
    },
    /// A directional port runs `slowdown`× slower than modelled.
    LinkDegraded {
        /// The degraded port.
        port: PortId,
        /// Wire-time multiplier (> 1.0 means slower).
        slowdown: f64,
    },
    /// A GPU is dead: every port touching it is down and its engine makes
    /// no progress (the driver pauses it).
    GpuCrash {
        /// The crashed GPU.
        gpu: GpuId,
    },
    /// Host-DRAM PCIe paths (both directions, all GPUs) run slower.
    DramCongestion {
        /// Wire-time multiplier for PCIe transfers.
        slowdown: f64,
    },
    /// Every coordinator round-trip costs `extra` additional latency.
    CoordinatorStall {
        /// Added latency per iteration-boundary control exchange.
        extra: SimDuration,
    },
    /// The coordinator process crashes at the window start, losing its
    /// in-memory lease book, and finishes rebuilding at the window end
    /// (the window length is the rebuild delay). While the window is
    /// active the coordinator is unreachable from every GPU.
    CoordinatorCrash,
    /// The control-plane network splits in two: GPUs with index `< split`
    /// stay connected to the coordinator (group A), GPUs with index
    /// `>= split` are cut off (group B) until the window end heals the
    /// partition. The split index is a compact, `Copy` encoding of the
    /// two groups — scale-up domains number GPUs densely, so a threshold
    /// expresses every contiguous split the experiments need.
    Partition {
        /// First GPU index on the far side of the partition.
        split: usize,
    },
}

impl FaultKind {
    /// Stable kind label used in trace events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link-down",
            FaultKind::LinkDegraded { .. } => "link-degraded",
            FaultKind::GpuCrash { .. } => "gpu-crash",
            FaultKind::DramCongestion { .. } => "dram-congestion",
            FaultKind::CoordinatorStall { .. } => "coordinator-stall",
            FaultKind::CoordinatorCrash => "coordinator-crash",
            FaultKind::Partition { .. } => "partition",
        }
    }

    /// Stable target label used in trace events.
    pub fn target(&self) -> String {
        match self {
            FaultKind::LinkDown { port } => port.to_string(),
            FaultKind::LinkDegraded { port, .. } => port.to_string(),
            FaultKind::GpuCrash { gpu } => gpu.to_string(),
            FaultKind::DramCongestion { .. } => "dram".to_owned(),
            FaultKind::CoordinatorStall { .. } | FaultKind::CoordinatorCrash => {
                "coordinator".to_owned()
            }
            FaultKind::Partition { split } => format!("split@{split}"),
        }
    }
}

/// One fault active over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// What breaks.
    pub kind: FaultKind,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl FaultWindow {
    /// Whether the window covers `at`.
    pub fn active(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }
}

/// Parameters for [`FaultPlan::randomized`].
#[derive(Debug, Clone)]
pub struct RandomFaultProfile {
    /// Ports eligible for outage/degradation faults.
    pub link_ports: Vec<PortId>,
    /// GPUs eligible for crash faults.
    pub crash_gpus: Vec<GpuId>,
    /// Whether to draw control-plane faults too (coordinator crash and
    /// network partition).
    pub control_plane: bool,
    /// How many fault windows to draw.
    pub events: usize,
    /// Minimum window length.
    pub min_duration: SimDuration,
    /// Maximum window length.
    pub max_duration: SimDuration,
}

/// splitmix64 — tiny, seedable, and good enough for fault placement. The
/// sim crate deliberately has no RNG dependency; workload randomness lives
/// in `aqua-workloads`.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; 0 for a zero bound.
    pub fn next_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A reproducible schedule of fault windows.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults ever).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn window(mut self, kind: FaultKind, start: SimTime, end: SimTime) -> Self {
        assert!(start < end, "fault window must have positive length");
        self.windows.push(FaultWindow { kind, start, end });
        self
    }

    /// Schedules a full outage of `port` over `[start, end)`.
    pub fn link_down(self, port: PortId, start: SimTime, end: SimTime) -> Self {
        self.window(FaultKind::LinkDown { port }, start, end)
    }

    /// Schedules a `slowdown`× degradation of `port` over `[start, end)`.
    pub fn link_degraded(self, port: PortId, slowdown: f64, start: SimTime, end: SimTime) -> Self {
        assert!(slowdown >= 1.0, "slowdown must be >= 1.0");
        self.window(FaultKind::LinkDegraded { port, slowdown }, start, end)
    }

    /// Schedules a crash of `gpu` over `[start, end)`.
    pub fn gpu_crash(self, gpu: GpuId, start: SimTime, end: SimTime) -> Self {
        self.window(FaultKind::GpuCrash { gpu }, start, end)
    }

    /// Schedules DRAM-path congestion over `[start, end)`.
    fn dram_congestion(self, slowdown: f64, start: SimTime, end: SimTime) -> Self {
        assert!(slowdown >= 1.0, "slowdown must be >= 1.0");
        self.window(FaultKind::DramCongestion { slowdown }, start, end)
    }

    /// Schedules added coordinator latency over `[start, end)`.
    fn coordinator_stall(self, extra: SimDuration, start: SimTime, end: SimTime) -> Self {
        self.window(FaultKind::CoordinatorStall { extra }, start, end)
    }

    /// Schedules a coordinator crash at `at`: the lease book is lost at the
    /// window start and the restarted process finishes its rebuild
    /// `rebuild_delay` later.
    pub fn coordinator_crash(self, at: SimTime, rebuild_delay: SimDuration) -> Self {
        self.window(FaultKind::CoordinatorCrash, at, at + rebuild_delay)
    }

    /// Schedules a control-plane partition over `[start, heal_at)`: GPUs
    /// with index `>= split` lose the coordinator until the heal.
    pub fn partition(self, split: usize, start: SimTime, heal_at: SimTime) -> Self {
        assert!(split > 0, "partition must leave the coordinator a side");
        self.window(FaultKind::Partition { split }, start, heal_at)
    }

    /// Draws `profile.events` fault windows from `seed` inside
    /// `[ZERO, horizon)`. Same seed + same profile → same plan.
    pub fn randomized(seed: u64, horizon: SimTime, profile: &RandomFaultProfile) -> Self {
        assert!(
            profile.min_duration <= profile.max_duration,
            "min_duration must not exceed max_duration"
        );
        let mut rng = FaultRng::new(seed);
        let mut plan = FaultPlan::new();
        let span = profile.max_duration.as_nanos() - profile.min_duration.as_nanos();
        for _ in 0..profile.events {
            let dur =
                SimDuration::from_nanos(profile.min_duration.as_nanos() + rng.next_range(span + 1));
            let latest_start = horizon.as_nanos().saturating_sub(dur.as_nanos());
            let start = SimTime::from_nanos(rng.next_range(latest_start + 1));
            let end = start + dur;
            // Kind index layout: the two always-available kinds first, then
            // the link pair, the GPU crash, and the control-plane pair —
            // each block present only when the profile enables it.
            let links = usize::from(!profile.link_ports.is_empty()) * 2;
            let gpus = usize::from(!profile.crash_gpus.is_empty());
            let n_kinds = 2 + links + gpus + usize::from(profile.control_plane) * 2;
            let k = rng.next_range(n_kinds as u64) as usize;
            plan = if k == 0 {
                plan.dram_congestion(2.0 + 6.0 * rng.next_f64(), start, end)
            } else if k == 1 {
                plan.coordinator_stall(SimDuration::from_millis(1 + rng.next_range(50)), start, end)
            } else if k < 2 + links {
                let port =
                    profile.link_ports[rng.next_range(profile.link_ports.len() as u64) as usize];
                if k == 2 {
                    plan.link_down(port, start, end)
                } else {
                    plan.link_degraded(port, 2.0 + 8.0 * rng.next_f64(), start, end)
                }
            } else if k < 2 + links + gpus {
                let gpu =
                    profile.crash_gpus[rng.next_range(profile.crash_gpus.len() as u64) as usize];
                plan.gpu_crash(gpu, start, end)
            } else if k == 2 + links + gpus {
                plan.coordinator_crash(start, dur)
            } else {
                plan.partition(1 + rng.next_range(4) as usize, start, end)
            };
        }
        plan
    }

    /// All scheduled windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The `(start, end)` of every [`FaultKind::GpuCrash`] window of
    /// `gpu`, in insertion order.
    pub fn gpu_crashes(&self, gpu: GpuId) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.windows
            .iter()
            .filter(move |w| w.kind == FaultKind::GpuCrash { gpu })
            .map(|w| (w.start, w.end))
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn port_gpu(port: PortId) -> GpuId {
        match port {
            PortId::NvlinkEgress(g)
            | PortId::NvlinkIngress(g)
            | PortId::PcieUp(g)
            | PortId::PcieDown(g) => g,
        }
    }

    fn outage_covers(kind: FaultKind, port: PortId) -> bool {
        match kind {
            FaultKind::LinkDown { port: p } => p == port,
            FaultKind::GpuCrash { gpu } => Self::port_gpu(port) == gpu,
            _ => false,
        }
    }

    /// Whether `port` carries no traffic at `at` (link outage or a crash of
    /// the GPU the port belongs to).
    pub fn port_down(&self, port: PortId, at: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| w.active(at) && Self::outage_covers(w.kind, port))
    }

    /// Wire-time multiplier on `port` at `at` (1.0 = nominal). Overlapping
    /// degradations take the worst multiplier, not the product.
    pub fn port_slowdown(&self, port: PortId, at: SimTime) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.active(at))
            .fold(1.0f64, |acc, w| match w.kind {
                FaultKind::LinkDegraded { port: p, slowdown } if p == port => acc.max(slowdown),
                FaultKind::DramCongestion { slowdown }
                    if matches!(port, PortId::PcieUp(_) | PortId::PcieDown(_)) =>
                {
                    acc.max(slowdown)
                }
                _ => acc,
            })
    }

    /// Earliest outage (link-down or GPU-crash) affecting `port` that begins
    /// strictly inside `(start, end)` — the cut point for an in-flight
    /// transfer occupying the port over that span.
    pub fn first_outage_in(&self, port: PortId, start: SimTime, end: SimTime) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| Self::outage_covers(w.kind, port) && start < w.start && w.start < end)
            .map(|w| w.start)
            .min()
    }

    /// Added coordinator round-trip latency at `at` (ZERO when healthy).
    /// Overlapping stalls take the worst, not the sum.
    pub fn stall_at(&self, at: SimTime) -> SimDuration {
        self.windows
            .iter()
            .filter(|w| w.active(at))
            .filter_map(|w| match w.kind {
                FaultKind::CoordinatorStall { extra } => Some(extra),
                _ => None,
            })
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Whether a [`FaultKind::CoordinatorCrash`] window covers `at` (the
    /// coordinator process is down and rebuilding).
    fn coordinator_down(&self, at: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| w.active(at) && matches!(w.kind, FaultKind::CoordinatorCrash))
    }

    /// The active partition's split at `at`, if any. Overlapping partitions
    /// take the widest cut (the largest far side, i.e. the smallest split).
    fn partition_split(&self, at: SimTime) -> Option<usize> {
        self.windows
            .iter()
            .filter(|w| w.active(at))
            .filter_map(|w| match w.kind {
                FaultKind::Partition { split } => Some(split),
                _ => None,
            })
            .min()
    }

    /// Whether `gpu` can reach the coordinator at `at`: the coordinator
    /// process is up and no active partition puts the GPU on the far side.
    pub fn coordinator_reachable(&self, gpu: GpuId, at: SimTime) -> bool {
        !self.coordinator_down(at) && self.partition_split(at).is_none_or(|split| gpu.0 < split)
    }

    /// Journals every window as a [`TraceEvent::FaultInjected`] /
    /// [`TraceEvent::FaultCleared`] pair, in insertion order, so chaos runs
    /// are digest-checkable end to end.
    pub fn emit(&self, tracer: &SharedTracer) {
        if !tracer.enabled() {
            return;
        }
        for w in &self.windows {
            trace!(
                tracer,
                TraceEvent::FaultInjected {
                    kind: w.kind.label().to_owned(),
                    target: w.kind.target(),
                    at: w.start,
                }
            );
            trace!(
                tracer,
                TraceEvent::FaultCleared {
                    kind: w.kind.label().to_owned(),
                    target: w.kind.target(),
                    at: w.end,
                }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn port_down_covers_links_and_crashed_gpus() {
        let egress = PortId::NvlinkEgress(GpuId(1));
        let ingress = PortId::NvlinkIngress(GpuId(1));
        let plan = FaultPlan::new()
            .link_down(egress, secs(10), secs(20))
            .gpu_crash(GpuId(0), secs(30), secs(40));
        assert!(!plan.port_down(egress, secs(9)));
        assert!(plan.port_down(egress, secs(10)));
        assert!(plan.port_down(egress, secs(19)));
        assert!(!plan.port_down(egress, secs(20)), "end is exclusive");
        assert!(!plan.port_down(ingress, secs(15)), "other ports unaffected");
        // The crash takes down every port of GPU 0.
        assert!(plan.port_down(PortId::NvlinkEgress(GpuId(0)), secs(35)));
        assert!(plan.port_down(PortId::PcieUp(GpuId(0)), secs(35)));
        assert!(!plan.port_down(PortId::PcieUp(GpuId(1)), secs(35)));
    }

    #[test]
    fn slowdown_takes_worst_overlap_and_congestion_hits_pcie_only() {
        let egress = PortId::NvlinkEgress(GpuId(0));
        let plan = FaultPlan::new()
            .link_degraded(egress, 3.0, secs(0), secs(100))
            .link_degraded(egress, 5.0, secs(50), secs(60))
            .dram_congestion(4.0, secs(0), secs(100));
        assert_eq!(plan.port_slowdown(egress, secs(10)), 3.0);
        assert_eq!(plan.port_slowdown(egress, secs(55)), 5.0);
        assert_eq!(plan.port_slowdown(PortId::PcieUp(GpuId(1)), secs(10)), 4.0);
        assert_eq!(
            plan.port_slowdown(PortId::PcieDown(GpuId(0)), secs(10)),
            4.0
        );
        assert_eq!(
            plan.port_slowdown(PortId::NvlinkIngress(GpuId(1)), secs(10)),
            1.0
        );
    }

    #[test]
    fn first_outage_is_strictly_inside_the_span() {
        let egress = PortId::NvlinkEgress(GpuId(0));
        let plan = FaultPlan::new()
            .link_down(egress, secs(50), secs(60))
            .link_down(egress, secs(30), secs(31));
        assert_eq!(
            plan.first_outage_in(egress, secs(0), secs(100)),
            Some(secs(30))
        );
        assert_eq!(
            plan.first_outage_in(egress, secs(40), secs(100)),
            Some(secs(50))
        );
        // An outage already active at `start` is not a *new* cut.
        assert_eq!(plan.first_outage_in(egress, secs(50), secs(100)), None);
        assert_eq!(plan.first_outage_in(egress, secs(61), secs(100)), None);
    }

    #[test]
    fn coordinator_stall_takes_worst_overlap() {
        let plan = FaultPlan::new()
            .coordinator_stall(SimDuration::from_millis(5), secs(0), secs(50))
            .coordinator_stall(SimDuration::from_millis(20), secs(10), secs(20));
        assert_eq!(plan.stall_at(secs(5)), SimDuration::from_millis(5));
        assert_eq!(plan.stall_at(secs(15)), SimDuration::from_millis(20));
        assert_eq!(plan.stall_at(secs(60)), SimDuration::ZERO);
    }

    #[test]
    fn randomized_is_seed_deterministic() {
        let profile = RandomFaultProfile {
            link_ports: vec![
                PortId::NvlinkEgress(GpuId(0)),
                PortId::NvlinkIngress(GpuId(1)),
            ],
            crash_gpus: vec![GpuId(1)],
            control_plane: false,
            events: 12,
            min_duration: SimDuration::from_secs(1),
            max_duration: SimDuration::from_secs(30),
        };
        let horizon = secs(600);
        let a = FaultPlan::randomized(7, horizon, &profile);
        let b = FaultPlan::randomized(7, horizon, &profile);
        let c = FaultPlan::randomized(8, horizon, &profile);
        assert_eq!(a.windows(), b.windows());
        assert_ne!(a.windows(), c.windows());
        assert_eq!(a.windows().len(), 12);
        for w in a.windows() {
            assert!(w.start < w.end);
            assert!(w.end <= horizon + SimDuration::from_secs(30));
        }
    }

    #[test]
    fn randomized_control_plane_draws_crashes_and_partitions() {
        let profile = RandomFaultProfile {
            link_ports: vec![PortId::NvlinkEgress(GpuId(0))],
            crash_gpus: vec![GpuId(1)],
            control_plane: true,
            events: 64,
            min_duration: SimDuration::from_secs(1),
            max_duration: SimDuration::from_secs(30),
        };
        let plan = FaultPlan::randomized(11, secs(600), &profile);
        let crashes = plan
            .windows()
            .iter()
            .filter(|w| matches!(w.kind, FaultKind::CoordinatorCrash))
            .count();
        let partitions = plan
            .windows()
            .iter()
            .filter(|w| matches!(w.kind, FaultKind::Partition { .. }))
            .count();
        assert!(crashes > 0, "64 draws must include a coordinator crash");
        assert!(partitions > 0, "64 draws must include a partition");
        for w in plan.windows() {
            if let FaultKind::Partition { split } = w.kind {
                assert!((1..=4).contains(&split));
            }
        }
        // Same profile without control-plane faults draws neither.
        let calm = RandomFaultProfile {
            control_plane: false,
            ..profile
        };
        assert!(FaultPlan::randomized(11, secs(600), &calm)
            .windows()
            .iter()
            .all(|w| !matches!(
                w.kind,
                FaultKind::CoordinatorCrash | FaultKind::Partition { .. }
            )));
    }

    #[test]
    fn coordinator_reachability_tracks_crash_and_partition_windows() {
        let plan = FaultPlan::new()
            .coordinator_crash(secs(10), SimDuration::from_secs(5))
            .partition(1, secs(30), secs(40));
        // Crash window: everyone loses the coordinator.
        assert!(!plan.coordinator_down(secs(9)));
        assert!(plan.coordinator_down(secs(10)));
        assert!(plan.coordinator_down(secs(14)));
        assert!(!plan.coordinator_down(secs(15)), "rebuild completes");
        assert!(!plan.coordinator_reachable(GpuId(0), secs(12)));
        // Partition window: only the far side (index >= split) is cut off.
        assert_eq!(plan.partition_split(secs(35)), Some(1));
        assert_eq!(plan.partition_split(secs(45)), None);
        assert!(plan.coordinator_reachable(GpuId(0), secs(35)));
        assert!(!plan.coordinator_reachable(GpuId(1), secs(35)));
        assert!(plan.coordinator_reachable(GpuId(1), secs(40)), "healed");
    }

    #[test]
    fn emit_journals_every_window_twice() {
        use aqua_telemetry::JournalTracer;
        use std::sync::Arc;

        let plan = FaultPlan::new()
            .gpu_crash(GpuId(1), secs(300), secs(420))
            .dram_congestion(2.0, secs(100), secs(110));
        let journal = Arc::new(JournalTracer::new());
        let shared: SharedTracer = journal.clone();
        plan.emit(&shared);
        assert_eq!(journal.len(), 4);
        let names: Vec<&str> = journal.events().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "fault_injected",
                "fault_cleared",
                "fault_injected",
                "fault_cleared"
            ]
        );
    }
}
