//! `aqua-repro coord_chaos` — serving through a control-plane failure.
//!
//! The other chaos experiments kill GPUs and links; this one kills the
//! *coordinator* (DESIGN §4.12). A gateway serves the chat/code/batch
//! tenant mix on GPU 0 with AQUA swap offload, a Llama-2-13B producer on
//! GPU 1 donates through its llm-informer — the live informer path, not a
//! static lease — and mid-trace the control plane fails one of two ways:
//!
//! * **Crash** ([`FaultKind::CoordinatorCrash`]): the coordinator process
//!   dies, losing its entire lease book, and rebuilds after a delay with a
//!   bumped epoch. Both sides run autonomously while it is down (consumer
//!   swaps pin to DRAM, the informer skips its verbs), then reconstruct:
//!   the informer re-registers its full inventory via `resync_report`, and
//!   every verb still naming the old epoch — a heartbeat, or a free of a
//!   lease handle minted before the crash — bounces off the fence.
//! * **Partition** ([`FaultKind::Partition`]): the coordinator stays up but
//!   the producer cannot reach it. Its heartbeats lapse, the chaos TTL
//!   expires the lease underneath the consumer, and the books re-converge
//!   through the same-epoch resync path after the heal.
//!
//! Each faulted cell also runs its fault-free twin (journal-silent) and
//! reports the chat-goodput ratio — the acceptance bound is ≥ 90% — plus
//! the recovery-to-first-regrant clock from the coordinator's own metrics.
//! Zero truncated streams and a clean audit are part of the bar: a
//! control-plane outage may slow requests down, it must never lose one.
//!
//! [`FaultKind::CoordinatorCrash`]: aqua_sim::fault::FaultKind
//! [`FaultKind::Partition`]: aqua_sim::fault::FaultKind

use crate::setup::{ServerCtx, CELL_MAX_OUTSTANDING, CELL_POOL_BYTES};
use aqua_core::coordinator::FailureConfig;
use aqua_core::informer::LlmInformerConfig;
use aqua_engines::driver::Engine;
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::engine::GatewayConfig;
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::goodput::{GoodputReport, SloSpec};
use aqua_metrics::streaming::StreamLog;
use aqua_metrics::table::Table;
use aqua_models::zoo;
use aqua_sim::audit::SharedAuditor;
use aqua_sim::fault::FaultPlan;
use aqua_sim::gpu::GpuId;
use aqua_sim::time::SimTime;
use aqua_telemetry::SharedTracer;
use aqua_workloads::tenants::{tenant_stream, TENANT_CHAT};
use std::sync::Arc;

/// Chat TTFT SLO the goodput judgement uses, seconds (same bound as
/// `serve_chaos`, so the two chaos studies score against one objective).
pub const CHAT_SLO_TTFT_S: f64 = 30.0;

/// The control-plane outage window `(start_s, end_s)`, replayed identically
/// by the crash and partition cells. 40 s is long enough to cross both the
/// coordinator's 10 s heartbeat TTL and the consumer's 30 s conservative
/// local-revocation deadline.
const OUTAGE_WINDOW_SECS: (u64, u64) = (20, 60);

/// Experiment parameters shared by every cell.
#[derive(Debug, Clone, Copy)]
pub struct CoordChaosConfig {
    /// Chat-tenant request rate, req/s. Kept at 1 so the arrival span
    /// comfortably brackets the outage window.
    pub rate: f64,
    /// Chat-tenant request count.
    pub count: usize,
    /// Workload seed.
    pub seed: u64,
}

impl CoordChaosConfig {
    /// The standard configuration. `count` is clamped so the arrival span
    /// always extends past the heal at `OUTAGE_WINDOW_SECS.1` — the
    /// recovery clock needs post-outage ticks to observe the first regrant.
    pub fn standard(count: usize, seed: u64) -> Self {
        CoordChaosConfig {
            rate: 1.0,
            count: count.clamp(80, 90),
            seed,
        }
    }

    /// Goodput measurement horizon, seconds.
    pub fn measure_horizon_s(&self) -> f64 {
        self.count as f64 / self.rate + 60.0
    }

    /// Simulation horizon: slack past the last arrival so every stream
    /// drains and the post-recovery reconciliation completes.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs((self.count as f64 / self.rate) as u64 + 400)
    }
}

/// The fault axis of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordCell {
    /// No fault — the goodput yardstick.
    FaultFree,
    /// Coordinator process crash: lease book lost, epoch bumped on rebuild.
    Crash,
    /// The producer loses the coordinator; the coordinator stays up.
    Partition,
}

impl CoordCell {
    /// Every cell, in suite (and repro-point) order.
    pub fn all() -> [CoordCell; 3] {
        [CoordCell::FaultFree, CoordCell::Crash, CoordCell::Partition]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            CoordCell::FaultFree => "faultfree",
            CoordCell::Crash => "crash",
            CoordCell::Partition => "partition",
        }
    }

    /// The fault plan this cell replays, if any. The partition split is 1:
    /// GPU 0 (the consumer) keeps control-plane reachability, GPU 1 (the
    /// producer) goes dark.
    pub fn plan(&self) -> Option<FaultPlan> {
        let (start, end) = OUTAGE_WINDOW_SECS;
        let (start, end) = (SimTime::from_secs(start), SimTime::from_secs(end));
        match self {
            CoordCell::FaultFree => None,
            CoordCell::Crash => {
                Some(FaultPlan::new().coordinator_crash(start, end.duration_since(start)))
            }
            CoordCell::Partition => Some(FaultPlan::new().partition(1, start, end)),
        }
    }
}

/// What one cell produced.
#[derive(Debug)]
pub struct CoordChaosRun {
    /// The cell that ran.
    pub cell: CoordCell,
    /// Per-request token streams.
    pub streams: StreamLog,
    /// Streams that delivered no tokens (must be zero: an outage may slow
    /// requests, never lose them).
    pub truncated: usize,
    /// Requests refused, cancelled or aborted by the gateway.
    pub dropped: usize,
    /// Chat-tenant goodput against [`CHAT_SLO_TTFT_S`].
    pub chat: GoodputReport,
    /// Chat goodput of the fault-free twin (the denominator of `ratio`);
    /// `None` for the fault-free cell itself.
    pub twin_chat: Option<GoodputReport>,
    /// Final coordinator epoch (2 after a crash, 1 otherwise).
    pub epoch: u64,
    /// Seconds from coordinator recovery to the first re-grant in the new
    /// epoch; `None` unless the cell crashed the coordinator.
    pub regrant_secs: Option<f64>,
    /// Simulator events the cell's driver processed.
    pub sim_events: u64,
}

impl CoordChaosRun {
    /// Chat goodput as a fraction of the fault-free twin.
    fn goodput_ratio(&self) -> Option<f64> {
        let twin = self.twin_chat.as_ref()?;
        if twin.goodput_tps() == 0.0 {
            return None;
        }
        Some(self.chat.goodput_tps() / twin.goodput_tps())
    }
}

/// One gateway+producer run of the timeline, with `cell`'s fault plan
/// installed (or none). Returns the run minus twin/ratio bookkeeping.
fn run_once(
    cfg: &CoordChaosConfig,
    cell: CoordCell,
    tracer: SharedTracer,
    auditor: Option<SharedAuditor>,
) -> CoordChaosRun {
    let mut ctx = ServerCtx::two_gpu_traced(tracer.clone());
    if let Some(aud) = &auditor {
        ctx = ctx.with_auditor(aud.clone());
    }
    ctx.coordinator.set_failure_config(FailureConfig::chaos());
    let plan = cell.plan().map(Arc::new);
    if let Some(plan) = &plan {
        ctx = ctx.with_fault_plan(Arc::clone(plan));
        plan.emit(&tracer);
    }
    let (mut gateway, mut driver) = ctx.serving_cell(
        tenant_stream(cfg.rate, cfg.count, cfg.seed),
        PolicyKind::SjfBucket,
        GatewayConfig {
            kv_pool_bytes: CELL_POOL_BYTES,
            preemption: PreemptionPolicy::Swap,
            max_outstanding_per_tenant: CELL_MAX_OUTSTANDING,
            ..GatewayConfig::default()
        },
        format!("coord:{}", cell.label()),
        plan.as_deref(),
        auditor,
    );
    let mut producer =
        ctx.llm_producer_with_informer(&zoo::llama2_13b(), GpuId(1), LlmInformerConfig::default());
    driver.run(
        &mut [&mut gateway as &mut dyn Engine, &mut producer],
        cfg.horizon(),
    );
    let streams = gateway.drain_streams();
    let truncated = streams
        .streams()
        .iter()
        .filter(|s| s.tokens.is_empty())
        .count();
    let chat = streams
        .tenant(TENANT_CHAT)
        .goodput(&SloSpec::ttft(CHAT_SLO_TTFT_S), cfg.measure_horizon_s());
    let (recovered_at, first_regrant_at) = ctx.coordinator.recovery_metrics();
    let regrant_secs = match (recovered_at, first_regrant_at) {
        (Some(r), Some(g)) if g >= r => Some(g.duration_since(r).as_secs_f64()),
        _ => None,
    };
    let outcomes = gateway.outcomes();
    CoordChaosRun {
        cell,
        truncated,
        dropped: outcomes.shed() + outcomes.timed_out() + outcomes.crash_aborted(),
        chat,
        twin_chat: None,
        epoch: ctx.coordinator.epoch(),
        regrant_secs,
        streams,
        sim_events: driver.processed_events(),
    }
}

/// Runs one cell with the process tracer.
pub fn run_cell(cfg: &CoordChaosConfig, cell: CoordCell) -> CoordChaosRun {
    run_cell_traced(cfg, cell, crate::trace::tracer(), None)
}

/// Runs one cell, journalling into `tracer` and (optionally) under a
/// runtime auditor. Faulted cells additionally run their fault-free twin
/// journal-silent, so `CoordChaosRun::goodput_ratio` has its denominator;
/// the twin never touches `tracer`, keeping digests comparable between
/// audited and unaudited runs.
pub fn run_cell_traced(
    cfg: &CoordChaosConfig,
    cell: CoordCell,
    tracer: SharedTracer,
    auditor: Option<SharedAuditor>,
) -> CoordChaosRun {
    let mut run = run_once(cfg, cell, tracer, auditor);
    if cell != CoordCell::FaultFree {
        let twin = run_once(
            cfg,
            CoordCell::FaultFree,
            aqua_telemetry::null_tracer(),
            None,
        );
        run.twin_chat = Some(twin.chat);
    }
    run
}

/// Renders one cell as its `aqua-repro` suite point prints it.
pub fn render_cell(run: &CoordChaosRun) -> String {
    format!(
        "{}\n",
        cell_table(
            std::slice::from_ref(run),
            &format!("Coord-chaos `{}` control-plane recovery", run.cell.label()),
        )
    )
}

/// Renders cells as the recovery table.
fn cell_table(runs: &[CoordChaosRun], title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "cell",
            "streams",
            "truncated",
            "dropped",
            "chat_n",
            "chat_met",
            "chat_goodput_tps",
            "goodput_ratio",
            "epoch",
            "regrant_s",
        ],
    );
    for run in runs {
        t.row(&[
            run.cell.label().to_owned(),
            run.streams.len().to_string(),
            run.truncated.to_string(),
            run.dropped.to_string(),
            run.chat.streams.to_string(),
            run.chat.slo_met_streams.to_string(),
            format!("{:.1}", run.chat.goodput_tps()),
            run.goodput_ratio()
                .map_or("-".to_owned(), |r| format!("{r:.3}")),
            run.epoch.to_string(),
            run.regrant_secs
                .map_or("-".to_owned(), |s| format!("{s:.1}")),
        ]);
    }
    t
}

/// The `aqua-repro` decomposition: one point per cell, rendered through
/// [`render_cell`].
pub fn repro_points(a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    use crate::runner::ReproPoint;
    let (count, seed) = (a.count, a.seed);
    CoordCell::all()
        .into_iter()
        .map(|cell| {
            let label = format!("cell={}", cell.label());
            ReproPoint::new("coord_chaos", label, move || {
                let cfg = CoordChaosConfig::standard(count, seed);
                render_cell(&run_cell(&cfg, cell))
            })
            .with_cost_hint(if cell == CoordCell::FaultFree { 1 } else { 2 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::audit::Auditor;
    use aqua_telemetry::{JournalTracer, TraceEvent};

    fn cfg() -> CoordChaosConfig {
        CoordChaosConfig::standard(80, 7)
    }

    #[test]
    fn crash_cell_recovers_goodput_without_losing_streams() {
        // Acceptance: a mid-trace coordinator crash recovers to >= 90% of
        // the fault-free chat goodput, with zero audit violations, zero
        // truncated streams, and the epoch fence engaged end to end.
        let cfg = cfg();
        let auditor = Auditor::collecting();
        let journal = Arc::new(JournalTracer::new());
        let run = run_cell_traced(
            &cfg,
            CoordCell::Crash,
            journal.clone(),
            Some(auditor.clone()),
        );
        assert!(
            auditor.is_clean(),
            "audit tripped: {:?}",
            auditor.violations()
        );
        assert_eq!(
            run.truncated, 0,
            "a control-plane outage must not lose streams"
        );
        assert_eq!(run.dropped, 0, "nothing was shed or aborted");
        assert_eq!(run.epoch, 2, "the crash must have bumped the epoch");
        let ratio = run.goodput_ratio().expect("crash cell has a twin");
        assert!(
            ratio >= 0.9,
            "crash cell must recover to >= 90% of fault-free goodput, got {ratio:.3}"
        );
        let regrant = run.regrant_secs.expect("recovery must re-grant a lease");
        assert!(
            regrant < 30.0,
            "first regrant should land soon after rebuild, took {regrant:.1}s"
        );
        // The epoch machinery actually fired on the wire.
        let names: Vec<&'static str> = journal.events().iter().map(|e| e.name()).collect();
        for expected in [
            "coordinator_crashed",
            "epoch_bumped",
            "coordinator_recovered",
        ] {
            assert!(names.contains(&expected), "missing {expected} in journal");
        }
    }

    #[test]
    fn partition_cell_reconverges_in_the_same_epoch() {
        let cfg = cfg();
        let auditor = Auditor::collecting();
        let journal = Arc::new(JournalTracer::new());
        let run = run_cell_traced(
            &cfg,
            CoordCell::Partition,
            journal.clone(),
            Some(auditor.clone()),
        );
        assert!(
            auditor.is_clean(),
            "audit tripped: {:?}",
            auditor.violations()
        );
        assert_eq!(run.truncated, 0);
        assert_eq!(run.epoch, 1, "a partition never bumps the epoch");
        assert!(run.regrant_secs.is_none(), "no crash, no regrant clock");
        let names: Vec<&'static str> = journal.events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"partition_started"));
        assert!(names.contains(&"partition_healed"));
        // The producer's heartbeats lapsed while it was dark: the watchdog
        // expired its lease and the informer later resynced the books.
        assert!(
            names.contains(&"lease_expired"),
            "the partition must expire the unheartbeated lease"
        );
        assert!(
            journal.events().iter().any(|e| matches!(
                e,
                TraceEvent::InformerDecision { decision, .. } if decision.starts_with("resync-revoked")
            )),
            "the informer must resync the expired lease once it is back"
        );
    }

    #[test]
    fn cells_are_seed_deterministic() {
        let cfg = cfg();
        let a = run_cell_traced(&cfg, CoordCell::Crash, Arc::new(JournalTracer::new()), None);
        let b = run_cell_traced(&cfg, CoordCell::Crash, Arc::new(JournalTracer::new()), None);
        assert_eq!(a.streams.ttfts(), b.streams.ttfts());
        assert_eq!(a.chat, b.chat);
        assert_eq!(a.regrant_secs, b.regrant_secs);
    }

    #[test]
    fn tables_render_every_cell() {
        let cfg = CoordChaosConfig::standard(80, 3);
        let runs: Vec<CoordChaosRun> = CoordCell::all()
            .into_iter()
            .map(|c| run_cell_traced(&cfg, c, aqua_telemetry::null_tracer(), None))
            .collect();
        let t = cell_table(&runs, "test");
        assert!(!t.is_empty());
        for run in &runs {
            assert!(!render_cell(run).is_empty());
        }
    }
}
