//! `aqua-repro fuzz` — seeded chaos fuzzing under full invariant auditing.
//!
//! A campaign draws self-describing points of one [`FuzzInput`] kind:
//!
//! * [`FuzzPoint`] (`fuzz`): a `FaultPlan × workload × topology`
//!   combination replayed on the chaos scenario — an LLM producer donating
//!   HBM to a long-prompt FlexGen consumer — with every aqua-audit hook
//!   attached: transfer-engine port legality, coordinator lease books,
//!   driver time monotonicity and offloader byte conservation.
//! * [`GatewayFuzzPoint`] (`fuzz --gateway`): a `FaultPlan × scheduler
//!   policy × load` combination on the serving path, under the
//!   crash-restore auditor plus a stream-integrity gate.
//!
//! A point is *fully described by its field values*, so any point a sweep
//! discovers can be re-run from the command line its
//! [`FuzzInput::repro_spec`] prints.
//!
//! [`run_fuzz`] fans points across the [`Sweep`] runner exactly like the
//! experiment suite: one digest-only journal per point, results and the
//! combined determinism digest in input order, so `--jobs 8` explores the
//! identical universe `--jobs 1` does (`tests/determinism.rs` pins this).
//!
//! When a point fails, the one greedy [`shrink`] minimises it
//! deterministically for either kind. [`FaultPlan::randomized`] draws its
//! windows sequentially from one splitmix64 stream, so halving `faults`
//! keeps a *prefix* of the original schedule; the other axes halve toward
//! their floors. Every candidate re-runs under a throwaway digest journal
//! and is kept only if it still fails, so the minimal reproducer printed at
//! the end fails for the same reason the original did.

use crate::setup::{ServerCtx, CELL_MAX_OUTSTANDING, CELL_POOL_BYTES};
use crate::sweep::Sweep;
use aqua_core::coordinator::{FailureConfig, GpuRef};
use aqua_engines::driver::Engine;
use aqua_gateway::engine::GatewayConfig;
use aqua_gateway::scheduler::PolicyKind;
use aqua_sim::audit::{AuditViolation, Auditor};
use aqua_sim::fault::{FaultPlan, FaultRng, RandomFaultProfile};
use aqua_sim::gpu::GpuId;
use aqua_sim::time::{SimDuration, SimTime};
use aqua_sim::topology::PortId;
use aqua_telemetry::JournalTracer;
use aqua_workloads::longprompt::long_prompt_trace;
use std::sync::Arc;

/// A self-describing fuzz input: the campaign, the shrinker and the
/// `aqua-repro fuzz` flow are written once over this trait.
pub trait FuzzInput: Copy + Send + Sync {
    /// Derives point `index` of a campaign from its base seed. A pure
    /// function of `(base_seed, index)`: the sweep explores the same points
    /// in any job count and on any machine.
    fn derive(base_seed: u64, index: u64) -> Self;

    /// Runs the point under full auditing, journalling into the ambient
    /// tracer (inside a [`Sweep`] that is the point's own digest journal).
    fn run(&self) -> FuzzOutcome<Self>;

    /// The shrink moves, in preference order; each strictly shrinks one
    /// bounded axis.
    fn shrink_candidates(&self) -> Vec<Self>;

    /// The flag string that re-runs exactly this point.
    fn repro_spec(&self) -> String;
}

/// What one audited point produced.
#[derive(Debug, Clone)]
pub struct FuzzOutcome<P> {
    /// The input that ran.
    pub point: P,
    /// Tokens generated (a liveness witness — the run made progress, it
    /// didn't just idle past the faults).
    pub tokens: u64,
    /// Streams whose token count disagrees with the request's output
    /// length, plus any admission-accounting mismatch (submitted requests
    /// not accounted completed/aborted after the drain). Always 0 for
    /// inputs without a stream-integrity gate.
    pub truncated: usize,
    /// Every invariant violation the auditor recorded, in order.
    pub violations: Vec<AuditViolation>,
}

impl<P> FuzzOutcome<P> {
    /// Whether this point failed either gate (audit or stream integrity).
    pub fn dirty(&self) -> bool {
        !self.violations.is_empty() || self.truncated > 0
    }

    /// Why the point failed, e.g. `2 violation(s); 1 truncated stream(s)`.
    pub fn failure(&self) -> String {
        let mut parts = Vec::new();
        if !self.violations.is_empty() {
            parts.push(format!("{} violation(s)", self.violations.len()));
        }
        if self.truncated > 0 {
            parts.push(format!("{} truncated stream(s)", self.truncated));
        }
        parts.join("; ")
    }
}

/// [`FuzzInput::run`] under a throwaway digest journal — shrink probes and
/// explicit single-point re-runs use this so they never pollute an ambient
/// `AQUA_TRACE` capture.
pub fn run_quiet<P: FuzzInput>(p: &P) -> FuzzOutcome<P> {
    crate::trace::with_tracer(Arc::new(JournalTracer::digest_only()), || p.run())
}

/// A fuzz campaign: how many derived points, how wide a fan-out.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Base seed every point derives from.
    pub base_seed: u64,
    /// Number of points.
    pub points: usize,
    /// Sweep worker threads.
    pub jobs: usize,
}

/// A completed campaign, in point order.
#[derive(Debug, Clone)]
pub struct FuzzReport<P> {
    /// Outcome per point, index-aligned with the derivation order.
    pub outcomes: Vec<FuzzOutcome<P>>,
    /// Combined determinism digest across all point journals.
    pub combined_digest: u64,
    /// Worker threads actually used.
    pub jobs: usize,
}

impl<P> FuzzReport<P> {
    /// Indices of points that failed either gate.
    pub fn dirty(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.dirty())
            .map(|(i, _)| i)
            .collect()
    }

    /// Total violations across the campaign.
    pub fn violation_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Total truncated streams across the campaign.
    pub fn truncated_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.truncated).sum()
    }
}

/// Runs a campaign through the [`Sweep`] fan-out: `cfg.points` derived
/// points, each passed through `plant` (which sets the self-test plants)
/// before any of them runs.
pub fn run_fuzz<P: FuzzInput>(cfg: &FuzzConfig, plant: impl Fn(&mut P)) -> FuzzReport<P> {
    let points: Vec<P> = (0..cfg.points)
        .map(|i| {
            let mut p = P::derive(cfg.base_seed, i as u64);
            plant(&mut p);
            p
        })
        .collect();
    let result = Sweep::new().jobs(cfg.jobs).run(&points, P::run);
    FuzzReport {
        combined_digest: result.combined_digest(),
        jobs: result.jobs,
        outcomes: result.results(),
    }
}

/// A finished shrink: the minimal still-failing point and its witness.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome<P> {
    /// The smallest point found that still fails a gate.
    pub minimal: P,
    /// Points executed during the search (including the confirming re-run).
    pub candidates_run: usize,
    /// The first audit violation of the minimal point, if the failure was
    /// an audit trip (stream-integrity failures have no violation record).
    pub violation: Option<AuditViolation>,
}

/// Greedily minimises a failing point: takes the first candidate that
/// still fails, until none does. Returns `None` if the starting point does
/// not fail when re-run (it never should — points are pure functions of
/// their fields). Terminates because every accepted candidate strictly
/// shrinks a bounded axis.
pub fn shrink<P: FuzzInput>(start: P) -> Option<ShrinkOutcome<P>> {
    let mut best = run_quiet(&start);
    let mut candidates_run = 1;
    if !best.dirty() {
        return None;
    }
    loop {
        let mut improved = false;
        for cand in best.point.shrink_candidates() {
            candidates_run += 1;
            let out = run_quiet(&cand);
            if out.dirty() {
                best = out;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    Some(ShrinkOutcome {
        violation: best.violations.first().cloned(),
        minimal: best.point,
        candidates_run,
    })
}

// ---------------------------------------------------------------------------
// Core mode: FaultPlan × workload × topology on the offload path.
// ---------------------------------------------------------------------------

/// The smallest horizon the shrinker will propose: long enough for a lease
/// grant, one fault window and the offloader's recovery sweep to fit.
pub const MIN_HORIZON_SECS: u64 = 30;

/// One self-describing core fuzz input. Every field appears in its
/// [`FuzzInput::repro_spec`], so a point prints as the exact command line
/// that re-runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzPoint {
    /// Seed for [`FaultPlan::randomized`] and the workload trace.
    pub seed: u64,
    /// Server size: 2 (NVLink pair) or 8 (NVSwitch).
    pub gpus: usize,
    /// Long-prompt requests scheduled on the consumer.
    pub work: usize,
    /// Fault windows drawn into the plan.
    pub faults: usize,
    /// Simulated run length in seconds.
    pub horizon_secs: u64,
    /// Plant a coordinator double-free (the audit self-test).
    pub plant: bool,
    /// Plant an epoch-fencing bypass (the crash-recovery audit self-test).
    pub plant_fence: bool,
}

impl FuzzInput for FuzzPoint {
    fn derive(base_seed: u64, index: u64) -> FuzzPoint {
        let mut rng = FaultRng::new(base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FuzzPoint {
            seed: rng.next_u64(),
            // The NVSwitch box costs ~4x a pair; sample it at 1-in-4.
            gpus: if rng.next_range(4) == 0 { 8 } else { 2 },
            work: 1 + rng.next_range(2) as usize,
            faults: 1 + rng.next_range(6) as usize,
            horizon_secs: 60 + rng.next_range(4) * 30,
            plant: false,
            plant_fence: false,
        }
    }

    fn run(&self) -> FuzzOutcome<Self> {
        let tracer = crate::trace::tracer();
        let auditor = Auditor::with_tracer(tracer.clone());
        let mut ctx = if self.gpus >= 8 {
            ServerCtx::eight_gpu_traced(tracer.clone())
        } else {
            ServerCtx::two_gpu_traced(tracer.clone())
        };
        ctx = ctx.with_auditor(auditor.clone());

        let producer_gpu = GpuId(1);
        let horizon = SimTime::from_secs(self.horizon_secs);
        let mut link_ports = Vec::new();
        for g in 0..ctx.server.gpu_count().min(4) {
            link_ports.push(PortId::NvlinkEgress(GpuId(g)));
            link_ports.push(PortId::NvlinkIngress(GpuId(g)));
        }
        let profile = RandomFaultProfile {
            link_ports,
            crash_gpus: vec![producer_gpu],
            // Core campaign draws the control-plane kinds too: coordinator
            // crashes and partitions interleave with link/GPU faults.
            control_plane: true,
            events: self.faults,
            min_duration: SimDuration::from_secs(5),
            max_duration: SimDuration::from_secs(30),
        };
        let plan = Arc::new(FaultPlan::randomized(self.seed, horizon, &profile));
        // Journal the generated plan: the point digest then witnesses fault
        // *generation* determinism, not just execution determinism.
        plan.emit(&tracer);
        ctx = ctx.with_fault_plan(Arc::clone(&plan));
        ctx.coordinator.set_failure_config(FailureConfig::chaos());

        let (mut consumer, mut producer, mut driver) = ctx.donation_cell(
            long_prompt_trace(self.work, 200_000, self.seed)
                .into_iter()
                .map(|(_, r)| (SimTime::from_secs(5), r)),
        );

        if self.plant {
            plant_double_free(&ctx);
        }
        if self.plant_fence {
            plant_fencing_bypass(&ctx);
        }

        let mut engines: Vec<&mut dyn Engine> = vec![&mut consumer, &mut producer];
        driver.run(&mut engines, horizon);

        FuzzOutcome {
            point: *self,
            tokens: consumer.tokens_generated(),
            truncated: 0,
            violations: auditor.violations(),
        }
    }

    /// Fewer faults first (halving keeps a prefix of the seeded plan), then
    /// a shorter horizon, less work, and a smaller server.
    fn shrink_candidates(&self) -> Vec<FuzzPoint> {
        let mut out = Vec::new();
        if self.faults > 0 {
            let mut c = *self;
            c.faults /= 2;
            out.push(c);
        }
        if self.horizon_secs > MIN_HORIZON_SECS {
            let mut c = *self;
            c.horizon_secs = (c.horizon_secs / 2).max(MIN_HORIZON_SECS);
            out.push(c);
        }
        if self.work > 1 {
            let mut c = *self;
            c.work /= 2;
            out.push(c);
        }
        if self.gpus > 2 {
            let mut c = *self;
            c.gpus = 2;
            out.push(c);
        }
        out
    }

    /// `--seed S --gpus G --work W --faults F --horizon H [--plant]
    /// [--plant-fence]`.
    fn repro_spec(&self) -> String {
        let mut s = format!(
            "--seed {} --gpus {} --work {} --faults {} --horizon {}",
            self.seed, self.gpus, self.work, self.faults, self.horizon_secs
        );
        if self.plant {
            s.push_str(" --plant");
        }
        if self.plant_fence {
            s.push_str(" --plant-fence");
        }
        s
    }
}

/// A buggy client planted for the audit self-test: allocates on its lease,
/// then hands the same bytes back twice. The second free is the
/// `double_free` the auditor must catch (the coordinator rejects it with
/// [`OverFree`](aqua_core::coordinator::AquaError::OverFree) either way —
/// the books stay correct; the *caller's* are what broke).
fn plant_double_free(ctx: &ServerCtx) {
    let bytes = 64 << 20;
    let lease = ctx.coordinator.lease(GpuRef::single(GpuId(1)), 256 << 20);
    let granted = ctx.coordinator.try_allocate_on(lease, bytes);
    debug_assert!(granted, "planted allocation must fit the fresh lease");
    let _ = ctx.coordinator.free(lease, bytes);
    let _ = ctx.coordinator.free(lease, bytes);
}

/// A buggy control plane planted for the fencing self-test: a producer's
/// grant survives a coordinator crash, and after the rebuild its pre-crash
/// inventory is pushed through the unfenced
/// [`plant_stale_resync`](aqua_core::coordinator::Coordinator::plant_stale_resync)
/// bypass instead of the fenced `/resync` verb. The audit must record
/// `stale_epoch_accepted` at the merge and `double_grant_across_epochs`
/// for the stale lease the bypass leaves live in the rebuilt book.
fn plant_fencing_bypass(ctx: &ServerCtx) {
    let producer = GpuRef::single(GpuId(1));
    let stale = ctx.coordinator.lease(producer, 256 << 20);
    ctx.coordinator.crash(SimTime::from_secs(1));
    ctx.coordinator.recover(SimTime::from_secs(2));
    let current = ctx.coordinator.epoch();
    let _ = ctx
        .coordinator
        .resync_report(producer, 128 << 20, current, SimTime::from_secs(3));
    ctx.coordinator
        .plant_stale_resync(producer, 64 << 20, stale.epoch(), SimTime::from_secs(4));
}

// ---------------------------------------------------------------------------
// Gateway mode: FaultPlan × scheduler policy × load on the serving path.
// ---------------------------------------------------------------------------

/// The fault-drawing span floor for gateway points (seconds). Long enough
/// for the arrival stream, one crash window and the retry backoff to fit.
pub const GATEWAY_MIN_HORIZON_SECS: u64 = 60;

/// One self-describing gateway fuzz input: a seeded `FaultPlan` crossed
/// with a scheduler policy, an offload axis and a load multiplier over the
/// three-tenant serving mix. Like [`FuzzPoint`], every field appears in its
/// [`FuzzInput::repro_spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayFuzzPoint {
    /// Seed for [`FaultPlan::randomized`] and the workload trace.
    pub seed: u64,
    /// Index into [`PolicyKind::ALL`].
    pub policy: usize,
    /// Load multiplier over the 2 req/s base chat rate (count scales too).
    pub load: usize,
    /// Base chat-tenant request count.
    pub count: usize,
    /// Fault windows drawn into the plan.
    pub faults: usize,
    /// Span (seconds) the fault windows are drawn over. The simulation
    /// itself always runs until the gateway drains.
    pub horizon_secs: u64,
    /// Swap preemption + AQUA offloader (vs recompute).
    pub offload: bool,
    /// Plant the skipped-restore bug (the `token_without_restore`
    /// audit self-test).
    pub plant: bool,
}

impl GatewayFuzzPoint {
    /// The scheduling policy this point runs.
    fn policy_kind(&self) -> PolicyKind {
        PolicyKind::ALL[self.policy % PolicyKind::ALL.len()]
    }
}

impl FuzzInput for GatewayFuzzPoint {
    fn derive(base_seed: u64, index: u64) -> GatewayFuzzPoint {
        let mut rng = FaultRng::new(base_seed ^ index.wrapping_mul(0x517C_C1B7_2722_0A95));
        GatewayFuzzPoint {
            seed: rng.next_u64(),
            policy: rng.next_range(PolicyKind::ALL.len() as u64) as usize,
            load: 1 + rng.next_range(4) as usize,
            count: 16 * (1 + rng.next_range(2) as usize),
            faults: 1 + rng.next_range(4) as usize,
            horizon_secs: GATEWAY_MIN_HORIZON_SECS + rng.next_range(4) * 30,
            offload: rng.next_range(2) == 0,
            plant: false,
        }
    }

    fn run(&self) -> FuzzOutcome<Self> {
        use aqua_engines::vllm::PreemptionPolicy;
        use aqua_sim::link::bytes::gib;
        use aqua_workloads::tenants::tenant_stream;

        let tracer = crate::trace::tracer();
        let auditor = Auditor::with_tracer(tracer.clone());
        let rate = 2.0 * self.load as f64;
        let mix = tenant_stream(rate, self.count * self.load, self.seed);
        let expected: std::collections::BTreeMap<u64, u64> = mix
            .clone()
            .map(|(_, r)| (r.id.0, r.output_tokens))
            .collect();

        let gateway_gpu = GpuId(0);
        let span = SimTime::from_secs(self.horizon_secs);
        let profile = RandomFaultProfile {
            link_ports: vec![
                PortId::NvlinkEgress(gateway_gpu),
                PortId::NvlinkIngress(gateway_gpu),
                PortId::NvlinkEgress(GpuId(1)),
                PortId::NvlinkIngress(GpuId(1)),
            ],
            crash_gpus: vec![gateway_gpu],
            // The gateway campaign keeps its historical fault universe (the
            // coord_chaos experiment covers control-plane faults on the
            // serving path), so its seeded plans stay digest-stable.
            control_plane: false,
            events: self.faults,
            min_duration: SimDuration::from_secs(5),
            max_duration: SimDuration::from_secs(30),
        };
        let mut plan = FaultPlan::randomized(self.seed, span, &profile);
        if self.plant {
            // The planted bug only fires on a crash, so force one into the
            // arrival window where work is guaranteed in flight.
            plan = plan.gpu_crash(gateway_gpu, SimTime::from_secs(5), SimTime::from_secs(10));
        }
        plan.emit(&tracer);
        let plan = Arc::new(plan);

        let ctx = ServerCtx::two_gpu_traced(tracer)
            .with_auditor(auditor.clone())
            .with_fault_plan(Arc::clone(&plan));
        if self.offload {
            ctx.static_lease(GpuId(1), gib(30));
        }
        let (mut engine, mut driver) = ctx.serving_cell(
            mix,
            self.policy_kind(),
            GatewayConfig {
                kv_pool_bytes: CELL_POOL_BYTES,
                preemption: if self.offload {
                    PreemptionPolicy::Swap
                } else {
                    PreemptionPolicy::Recompute
                },
                max_outstanding_per_tenant: CELL_MAX_OUTSTANDING,
                plant_skip_restore: self.plant,
                ..GatewayConfig::default()
            },
            format!("fuzz:gw:{}", self.policy_kind()),
            Some(&plan),
            Some(auditor.clone()),
        );
        driver.run(
            &mut [&mut engine as &mut dyn Engine],
            SimTime::from_secs(40_000),
        );

        // Stream integrity: every completed request streamed exactly its
        // output length, and after the drain every submitted request is
        // accounted completed or terminally crash-aborted.
        let streams = engine.drain_streams();
        let mut truncated = 0;
        let mut tokens = 0u64;
        for s in streams.streams() {
            tokens += s.tokens.len() as u64;
            if expected.get(&s.id).copied() != Some(s.tokens.len() as u64) {
                truncated += 1;
            }
        }
        let o = engine.outcomes();
        let accounted = o.completed() + o.crash_aborted() + o.shed() + o.timed_out();
        let drained = engine.queue_depth() == 0 && engine.running_count() == 0;
        if o.completed() != streams.len() || accounted != expected.len() || !drained {
            truncated += 1;
        }

        FuzzOutcome {
            point: *self,
            tokens,
            truncated,
            violations: auditor.violations(),
        }
    }

    /// Fewer faults (halving keeps a prefix of the seeded plan), a shorter
    /// fault span, less work, a lighter load, then the canonical FCFS
    /// policy.
    fn shrink_candidates(&self) -> Vec<GatewayFuzzPoint> {
        let mut out = Vec::new();
        if self.faults > 0 {
            let mut c = *self;
            c.faults /= 2;
            out.push(c);
        }
        if self.horizon_secs > GATEWAY_MIN_HORIZON_SECS {
            let mut c = *self;
            c.horizon_secs = (c.horizon_secs / 2).max(GATEWAY_MIN_HORIZON_SECS);
            out.push(c);
        }
        if self.count > 8 {
            let mut c = *self;
            c.count = (c.count / 2).max(8);
            out.push(c);
        }
        if self.load > 1 {
            let mut c = *self;
            c.load /= 2;
            out.push(c);
        }
        if self.policy != 0 {
            let mut c = *self;
            c.policy = 0;
            out.push(c);
        }
        out
    }

    /// `--gateway --seed S --policy I --load N --count N --faults F
    /// --horizon H [--offload] [--plant]`.
    fn repro_spec(&self) -> String {
        let mut s = format!(
            "--gateway --seed {} --policy {} --load {} --count {} --faults {} --horizon {}",
            self.seed, self.policy, self.load, self.count, self.faults, self.horizon_secs
        );
        if self.offload {
            s.push_str(" --offload");
        }
        if self.plant {
            s.push_str(" --plant");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_points_are_pure_functions_of_seed_and_index() {
        for i in 0..8 {
            assert_eq!(FuzzPoint::derive(7, i), FuzzPoint::derive(7, i));
        }
        assert_ne!(FuzzPoint::derive(7, 0).seed, FuzzPoint::derive(7, 1).seed);
        assert_ne!(FuzzPoint::derive(7, 0).seed, FuzzPoint::derive(8, 0).seed);
        let p = FuzzPoint::derive(7, 3);
        assert!(p.gpus == 2 || p.gpus == 8);
        assert!(p.work >= 1 && p.faults >= 1 && p.horizon_secs >= 60);
    }

    #[test]
    fn repro_spec_round_trips_every_field() {
        let p = FuzzPoint {
            seed: 123,
            gpus: 8,
            work: 2,
            faults: 3,
            horizon_secs: 90,
            plant: true,
            plant_fence: true,
        };
        let s = p.repro_spec();
        assert_eq!(
            s,
            "--seed 123 --gpus 8 --work 2 --faults 3 --horizon 90 --plant --plant-fence"
        );
        assert!(!FuzzPoint::derive(1, 0).repro_spec().contains("--plant"));
    }

    #[test]
    fn seeded_point_runs_clean_and_makes_progress() {
        let out = run_quiet(&FuzzPoint::derive(42, 0));
        assert!(
            out.violations.is_empty(),
            "clean chaos point tripped the audit: {:?}",
            out.violations
        );
        assert!(out.tokens > 0, "consumer made no progress");
    }

    #[test]
    fn planted_double_free_is_caught_and_shrinks_to_the_floor() {
        let start = FuzzPoint {
            seed: 9,
            gpus: 8,
            work: 2,
            faults: 4,
            horizon_secs: 120,
            plant: true,
            plant_fence: false,
        };
        let shrunk = shrink(start).expect("planted point must violate");
        let v = shrunk.violation.expect("failure must be an audit trip");
        assert_eq!(v.kind(), "double_free");
        // The plant is independent of faults, horizon, work and topology,
        // so the shrinker must strip all of them to their floors.
        assert_eq!(shrunk.minimal.faults, 0);
        assert_eq!(shrunk.minimal.horizon_secs, MIN_HORIZON_SECS);
        assert_eq!(shrunk.minimal.work, 1);
        assert_eq!(shrunk.minimal.gpus, 2);
        assert!(shrunk.minimal.plant);
        assert!(shrunk.candidates_run > 1);
        // And the minimal spec re-runs to the same violation.
        let again = run_quiet(&shrunk.minimal);
        assert_eq!(again.violations[0].kind(), "double_free");
    }

    #[test]
    fn planted_fencing_bypass_is_caught_and_shrinks_to_the_floor() {
        let start = FuzzPoint {
            seed: 13,
            gpus: 8,
            work: 2,
            faults: 4,
            horizon_secs: 120,
            plant: false,
            plant_fence: true,
        };
        let shrunk = shrink(start).expect("planted fencing bypass must violate");
        // The unfenced stale merge is recorded at the merge itself, and the
        // stale lease it leaves live in the rebuilt book is the split-brain
        // witness.
        let v = shrunk.violation.expect("failure must be an audit trip");
        assert_eq!(v.kind(), "stale_epoch_accepted");
        let again = run_quiet(&shrunk.minimal);
        let kinds: Vec<&str> = again.violations.iter().map(|v| v.kind()).collect();
        assert!(
            kinds.contains(&"double_grant_across_epochs"),
            "bypass must leave a cross-epoch double grant: {kinds:?}"
        );
        // The plant drives its own crash/recover, so every chaos axis must
        // strip to its floor.
        assert_eq!(shrunk.minimal.faults, 0);
        assert_eq!(shrunk.minimal.horizon_secs, MIN_HORIZON_SECS);
        assert_eq!(shrunk.minimal.work, 1);
        assert_eq!(shrunk.minimal.gpus, 2);
        assert!(shrunk.minimal.plant_fence);
    }

    #[test]
    fn gateway_points_derive_purely_and_round_trip_their_spec() {
        for i in 0..8 {
            assert_eq!(
                GatewayFuzzPoint::derive(7, i),
                GatewayFuzzPoint::derive(7, i)
            );
        }
        assert_ne!(
            GatewayFuzzPoint::derive(7, 0).seed,
            GatewayFuzzPoint::derive(7, 1).seed
        );
        let p = GatewayFuzzPoint {
            seed: 5,
            policy: 2,
            load: 3,
            count: 16,
            faults: 2,
            horizon_secs: 90,
            offload: true,
            plant: true,
        };
        assert_eq!(
            p.repro_spec(),
            "--gateway --seed 5 --policy 2 --load 3 --count 16 --faults 2 \
             --horizon 90 --offload --plant"
        );
        let d = GatewayFuzzPoint::derive(3, 1);
        assert!(d.policy < PolicyKind::ALL.len());
        assert!((1..=4).contains(&d.load));
        assert!(d.count >= 16 && d.faults >= 1);
        assert!(d.horizon_secs >= GATEWAY_MIN_HORIZON_SECS);
    }

    #[test]
    fn seeded_gateway_point_streams_clean_under_faults() {
        let mut p = GatewayFuzzPoint::derive(42, 0);
        // Keep the unit test cheap; the CI smoke covers the full range.
        p.load = p.load.min(2);
        p.count = 16;
        let out = run_quiet(&p);
        assert!(
            out.violations.is_empty(),
            "clean gateway point tripped the audit: {:?}",
            out.violations
        );
        assert_eq!(out.truncated, 0, "clean gateway point truncated streams");
        assert!(out.tokens > 0, "gateway made no progress");
    }

    #[test]
    fn planted_skip_restore_is_caught_and_shrinks_to_the_floor() {
        let start = GatewayFuzzPoint {
            seed: 11,
            policy: 3,
            load: 2,
            count: 32,
            faults: 3,
            horizon_secs: 120,
            offload: false,
            plant: true,
        };
        let shrunk = shrink(start).expect("planted point must violate");
        let v = shrunk.violation.expect("failure must be an audit trip");
        assert_eq!(v.kind(), "token_without_restore");
        // The plant forces its own crash window, so every other axis must
        // strip to its floor.
        assert_eq!(shrunk.minimal.faults, 0);
        assert_eq!(shrunk.minimal.horizon_secs, GATEWAY_MIN_HORIZON_SECS);
        assert_eq!(shrunk.minimal.count, 8);
        assert_eq!(shrunk.minimal.load, 1);
        assert_eq!(shrunk.minimal.policy, 0);
        assert!(shrunk.minimal.plant);
        // And the minimal spec re-runs to the same violation.
        let again = run_quiet(&shrunk.minimal);
        assert_eq!(again.violations[0].kind(), "token_without_restore");
    }
}
