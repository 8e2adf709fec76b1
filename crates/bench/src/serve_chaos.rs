//! `aqua-repro serve_chaos` — goodput under overload and crash recovery.
//!
//! Two questions the scheduler study (`serve`) cannot answer:
//!
//! 1. **Does overload protection buy goodput?** The study's zoo never drops
//!    a request, so at 4× overload every policy eventually serves everything
//!    — late. This experiment judges each mode against the chat tenant's
//!    SLO ([`CHAT_SLO_TTFT_S`] seconds to first token) and reports
//!    *goodput*: SLO-met tokens per second. A protected front door
//!    (SJF+bucketing, swap offload, KV-cost shedding, batch brownout, chat
//!    deadlines) should plateau as load grows; an unprotected FCFS queue
//!    should collapse, because its unbounded backlog pushes every chat TTFT
//!    past the deadline.
//! 2. **How fast does serving recover from a GPU crash?** A mid-run
//!    [`FaultKind::GpuCrash`] destroys the HBM KV of every running
//!    sequence. With swap offloading, preempted sequences keep their KV in
//!    the offload store and live-restore over NVLink; with recompute, every
//!    re-admission re-prefills from scratch. Both cells replay the same
//!    crash; the recovery clock measures how long after the window the
//!    in-flight population takes to drain.
//!
//! Every cell is seed-deterministic and journals through the ambient
//! tracer, so the experiment fans across the sweep runner digest-checked
//! like the rest of the suite.
//!
//! [`FaultKind::GpuCrash`]: aqua_sim::fault::FaultKind

use crate::setup::{ServerCtx, CELL_MAX_OUTSTANDING, CELL_POOL_BYTES};
use aqua_engines::driver::Engine;
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::admission::{BrownoutConfig, OverloadPolicy};
use aqua_gateway::engine::GatewayConfig;
use aqua_gateway::outcome::{SloPolicy, TenantSlo};
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::goodput::{GoodputReport, SloSpec};
use aqua_metrics::streaming::StreamLog;
use aqua_metrics::table::Table;
use aqua_sim::audit::SharedAuditor;
use aqua_sim::fault::FaultPlan;
use aqua_sim::gpu::GpuId;
use aqua_sim::link::bytes::gib;
use aqua_sim::time::{SimDuration, SimTime};
use aqua_telemetry::SharedTracer;
use aqua_workloads::tenants::{tenant_stream, TENANT_BATCH, TENANT_CHAT, TENANT_CODE};

/// The chat tenant's TTFT SLO (seconds). Both the protected gateway's
/// admission deadline and the goodput judgement use this bound, so the two
/// modes are scored against the identical objective.
pub const CHAT_SLO_TTFT_S: f64 = 30.0;

/// Load multipliers applied to the base rate *and* request count, so every
/// load level spans the same arrival window at a different intensity.
const LOAD_MULTIPLIERS: [usize; 3] = [1, 2, 4];

/// The crash window replayed by the recovery cells, seconds.
const CRASH_WINDOW_SECS: (u64, u64) = (12, 17);

/// Experiment parameters shared by every cell.
#[derive(Debug, Clone, Copy)]
pub struct ChaosExperiment {
    /// Chat-tenant request rate at 1× load, req/s.
    pub base_rate: f64,
    /// Chat-tenant request count at 1× load.
    pub base_count: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ChaosExperiment {
    /// The standard configuration: the scheduler study's tight pool at a
    /// 2 req/s base chat rate.
    pub fn standard(base_count: usize, seed: u64) -> Self {
        ChaosExperiment {
            base_rate: 2.0,
            base_count,
            seed,
        }
    }

    /// The goodput measurement horizon, seconds. Both rate and count scale
    /// with load, so the arrival span is load-invariant and every cell is
    /// normalized by the same denominator — load ratios compare goodput
    /// *tokens* directly.
    pub fn measure_horizon_s(&self) -> f64 {
        self.base_count as f64 / self.base_rate + 60.0
    }

    /// Simulation horizon at `load`: generous slack past the last arrival
    /// so even the unprotected queue drains completely.
    pub fn horizon(&self, load: usize) -> SimTime {
        let span = (self.base_count * load) as f64 / (self.base_rate * load as f64);
        SimTime::from_secs(span as u64 + 40_000)
    }

    /// The overload policy of the protected mode. The brownout is the
    /// primary defense: under queue pressure the non-interactive tenants
    /// (batch *and* code) are paused and their arrivals shed, so the whole
    /// engine serves chat. The KV-cost budget and deep-queue watermark are
    /// backstops against pathological commitment; both are sized to stay
    /// inert at 1× load.
    fn protection(&self) -> OverloadPolicy {
        OverloadPolicy {
            queue_watermark: Some(6 * self.base_count),
            kv_commit_bytes: Some(8 * CELL_POOL_BYTES),
            brownout: Some(BrownoutConfig {
                enter_depth: 16,
                exit_depth: 4,
                capped_tenants: vec![TENANT_BATCH, TENANT_CODE],
                capped_outstanding: 0,
            }),
        }
    }

    /// The protected mode's admission deadlines: chat requests that can no
    /// longer meet [`CHAT_SLO_TTFT_S`] are cancelled instead of consuming
    /// capacity on an already-missed SLO.
    fn deadlines(&self) -> SloPolicy {
        SloPolicy::none().tenant(
            TENANT_CHAT,
            TenantSlo {
                ttft: Some(SimDuration::from_secs(CHAT_SLO_TTFT_S as u64)),
                total: None,
            },
        )
    }
}

/// One cell of the study: a serving mode at a load level, optionally with
/// a crash window.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Decode scheduling policy.
    pub policy: PolicyKind,
    /// Swap preemption + AQUA offloader (vs recompute).
    pub offload: bool,
    /// Overload protection + chat deadlines engaged.
    pub protected: bool,
    /// Load multiplier over the base rate/count.
    pub load: usize,
    /// GPU crash window `(start_s, end_s)`, if any.
    pub crash: Option<(u64, u64)>,
}

impl CellSpec {
    /// The protected front door at `load`.
    fn protected(load: usize) -> Self {
        CellSpec {
            policy: PolicyKind::SjfBucket,
            offload: true,
            protected: true,
            load,
            crash: None,
        }
    }

    /// The unprotected FCFS baseline at `load`.
    pub fn unprotected(load: usize) -> Self {
        CellSpec {
            policy: PolicyKind::Fcfs,
            offload: false,
            protected: false,
            load,
            crash: None,
        }
    }

    /// A crash-recovery cell: protection off (so no shedding confounds the
    /// recovery clock), restore axis selected by `offload`.
    pub fn crashed(offload: bool) -> Self {
        CellSpec {
            policy: PolicyKind::SjfBucket,
            offload,
            protected: false,
            load: 2,
            crash: Some(CRASH_WINDOW_SECS),
        }
    }

    /// Display label for the mode axis.
    pub fn mode(&self) -> &'static str {
        match (self.protected, self.offload) {
            (true, _) => "protected",
            (false, true) => "fcfs+swap",
            (false, false) => "fcfs",
        }
    }

    /// Display label for the restore axis of crash cells.
    pub fn restore(&self) -> &'static str {
        if self.offload {
            "swap"
        } else {
            "recompute"
        }
    }
}

/// What one cell produced.
#[derive(Debug)]
pub struct ChaosRun {
    /// The cell that ran.
    pub spec: CellSpec,
    /// Per-request token streams (completed requests only).
    pub streams: StreamLog,
    /// Requests refused at admission.
    pub shed: usize,
    /// Requests cancelled on a blown deadline.
    pub timed_out: usize,
    /// Requests terminally lost to the crash.
    pub crash_aborted: usize,
    /// Crash-retry attempts across all requests.
    pub retries: u64,
    /// Chat-tenant goodput against [`CHAT_SLO_TTFT_S`].
    pub chat: GoodputReport,
    /// Simulator events the cell's driver processed.
    pub sim_events: u64,
}

impl ChaosRun {
    /// Recovery time after the crash window, seconds: how long until every
    /// request that was in flight when the GPU died had fully streamed.
    /// `None` when the cell had no crash or nothing was in flight.
    fn recovery_secs(&self) -> Option<f64> {
        let (start_s, end_s) = self.spec.crash?;
        let (start, end) = (SimTime::from_secs(start_s), SimTime::from_secs(end_s));
        self.streams
            .streams()
            .iter()
            .filter(|s| s.arrival <= start && s.completion().is_some_and(|c| c > start))
            .map(|s| s.completion().unwrap())
            .max()
            .map(|last| last.duration_since(end).as_secs_f64())
    }
}

/// Runs one cell with the process tracer.
pub fn run_cell(cfg: &ChaosExperiment, spec: CellSpec) -> ChaosRun {
    run_cell_traced(cfg, spec, crate::trace::tracer(), None)
}

/// Runs one cell, journalling into `tracer` and (optionally) under a
/// runtime auditor guarding the crash-restore invariant.
pub fn run_cell_traced(
    cfg: &ChaosExperiment,
    spec: CellSpec,
    tracer: SharedTracer,
    auditor: Option<SharedAuditor>,
) -> ChaosRun {
    let rate = cfg.base_rate * spec.load as f64;
    let ctx = ServerCtx::two_gpu_traced(tracer);
    if spec.offload {
        ctx.static_lease(GpuId(1), gib(30));
    }
    let plan = spec.crash.map(|(start_s, end_s)| {
        FaultPlan::new().gpu_crash(
            GpuId(0),
            SimTime::from_secs(start_s),
            SimTime::from_secs(end_s),
        )
    });
    let (mut engine, mut driver) = ctx.serving_cell(
        tenant_stream(rate, cfg.base_count * spec.load, cfg.seed),
        spec.policy,
        GatewayConfig {
            kv_pool_bytes: CELL_POOL_BYTES,
            preemption: if spec.offload {
                PreemptionPolicy::Swap
            } else {
                PreemptionPolicy::Recompute
            },
            max_outstanding_per_tenant: CELL_MAX_OUTSTANDING,
            overload: if spec.protected {
                cfg.protection()
            } else {
                OverloadPolicy::default()
            },
            slo: if spec.protected {
                cfg.deadlines()
            } else {
                SloPolicy::none()
            },
            ..GatewayConfig::default()
        },
        format!("chaos:{}:x{}", spec.mode(), spec.load),
        plan.as_ref(),
        auditor,
    );
    driver.run(
        &mut [&mut engine as &mut dyn Engine],
        cfg.horizon(spec.load),
    );
    let streams = engine.drain_streams();
    let chat = streams
        .tenant(TENANT_CHAT)
        .goodput(&SloSpec::ttft(CHAT_SLO_TTFT_S), cfg.measure_horizon_s());
    ChaosRun {
        spec,
        shed: engine.outcomes().shed(),
        timed_out: engine.outcomes().timed_out(),
        crash_aborted: engine.outcomes().crash_aborted(),
        retries: engine.outcomes().total_retries(),
        streams,
        chat,
        sim_events: driver.processed_events(),
    }
}

/// Every cell of the study, in suite order: goodput cells (load × mode)
/// followed by the two crash-restore cells. This is the point order of
/// [`repro_points`].
fn suite_cells() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &load in &LOAD_MULTIPLIERS {
        cells.push(CellSpec::protected(load));
        cells.push(CellSpec::unprotected(load));
    }
    cells.push(CellSpec::crashed(true));
    cells.push(CellSpec::crashed(false));
    cells
}

/// Renders one cell as its `aqua-repro` suite point prints it.
fn render_cell(run: &ChaosRun) -> String {
    let spec = run.spec;
    if spec.crash.is_some() {
        format!(
            "{}\n",
            recovery_table(
                std::slice::from_ref(run),
                &format!("Serve-chaos crash recovery via `{}`", spec.restore()),
            )
        )
    } else {
        format!(
            "{}\n",
            goodput_table(
                std::slice::from_ref(run),
                &format!("Serve-chaos `{}` at {}x load", spec.mode(), spec.load),
            )
        )
    }
}

/// Renders goodput cells as the overload table.
fn goodput_table(runs: &[ChaosRun], title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "mode",
            "load",
            "streams",
            "shed",
            "timeout",
            "chat_n",
            "chat_met",
            "chat_goodput_tps",
            "chat_attain",
        ],
    );
    for run in runs {
        t.row(&[
            run.spec.mode().to_owned(),
            format!("{}x", run.spec.load),
            run.streams.len().to_string(),
            run.shed.to_string(),
            run.timed_out.to_string(),
            run.chat.streams.to_string(),
            run.chat.slo_met_streams.to_string(),
            format!("{:.1}", run.chat.goodput_tps()),
            format!("{:.3}", run.chat.slo_attainment()),
        ]);
    }
    t
}

/// Renders crash cells as the recovery table.
fn recovery_table(runs: &[ChaosRun], title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "restore",
            "load",
            "streams",
            "retries",
            "aborted",
            "recovery_s",
        ],
    );
    for run in runs {
        t.row(&[
            run.spec.restore().to_owned(),
            format!("{}x", run.spec.load),
            run.streams.len().to_string(),
            run.retries.to_string(),
            run.crash_aborted.to_string(),
            run.recovery_secs()
                .map_or("-".to_owned(), |s| format!("{s:.1}")),
        ]);
    }
    t
}

/// The `aqua-repro` decomposition: one point per goodput cell (mode × load)
/// plus one per crash-restore cell, rendered through `render_cell`.
pub fn repro_points(a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    use crate::runner::ReproPoint;
    // The suite default of 200 chat requests would make the 4× cell the
    // tail of every run; the overload shapes show just as well at 48.
    let (count, seed) = (a.count.min(48), a.seed);
    suite_cells()
        .into_iter()
        .map(|spec| {
            let label = if spec.crash.is_some() {
                format!("crash,restore={}", spec.restore())
            } else {
                format!("mode={},load={}", spec.mode(), spec.load)
            };
            ReproPoint::new("serve_chaos", label, move || {
                let cfg = ChaosExperiment::standard(count, seed);
                render_cell(&run_cell(&cfg, spec))
            })
            .with_cost_hint(spec.load as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::audit::Auditor;

    fn cfg() -> ChaosExperiment {
        ChaosExperiment::standard(48, 7)
    }

    #[test]
    fn goodput_plateaus_with_protection_and_collapses_without() {
        // Acceptance: at 4x overload the protected mode keeps >= 70% of its
        // 1x chat goodput; the unprotected FCFS queue drops below 30%.
        let cfg = cfg();
        let prot_1 = run_cell(&cfg, CellSpec::protected(1));
        let prot_4 = run_cell(&cfg, CellSpec::protected(4));
        let fcfs_1 = run_cell(&cfg, CellSpec::unprotected(1));
        let fcfs_4 = run_cell(&cfg, CellSpec::unprotected(4));

        assert!(
            prot_1.chat.goodput_tokens > 0,
            "protected 1x must serve chat within SLO"
        );
        assert!(
            fcfs_1.chat.goodput_tokens > 0,
            "unprotected 1x must serve chat within SLO"
        );
        let prot_ratio = prot_4.chat.goodput_tps() / prot_1.chat.goodput_tps();
        let fcfs_ratio = fcfs_4.chat.goodput_tps() / fcfs_1.chat.goodput_tps();
        assert!(
            prot_ratio >= 0.7,
            "protected goodput must plateau: 4x/1x ratio {prot_ratio:.2}"
        );
        assert!(
            fcfs_ratio < 0.3,
            "unprotected goodput must collapse: 4x/1x ratio {fcfs_ratio:.2}"
        );
        // Protection engages under overload and stays inert at 1x-ish load.
        assert!(
            prot_4.shed + prot_4.timed_out > 0,
            "4x overload must trip protection"
        );
        assert_eq!(fcfs_4.shed, 0, "unprotected mode never sheds");
    }

    #[test]
    fn swap_restore_recovers_faster_than_recompute() {
        // Acceptance: after the same mid-run GpuCrash, live-restoring
        // swapped KV beats re-prefilling from scratch on recovery time.
        let cfg = cfg();
        let auditor = Auditor::collecting();
        let swap = run_cell_traced(
            &cfg,
            CellSpec::crashed(true),
            aqua_telemetry::null_tracer(),
            Some(auditor.clone()),
        );
        let recompute = run_cell(&cfg, CellSpec::crashed(false));
        let s = swap.recovery_secs().expect("swap cell saw the crash");
        let r = recompute
            .recovery_secs()
            .expect("recompute cell saw the crash");
        assert!(
            s < r,
            "swap restore ({s:.1}s) must beat recompute ({r:.1}s)"
        );
        assert!(
            swap.retries + recompute.retries > 0,
            "the crash must have retried in-flight work"
        );
        assert!(
            auditor.is_clean(),
            "restore invariant violated: {:?}",
            auditor.violations()
        );
    }

    #[test]
    fn cells_are_seed_deterministic() {
        let cfg = cfg();
        let a = run_cell(&cfg, CellSpec::protected(2));
        let b = run_cell(&cfg, CellSpec::protected(2));
        assert_eq!(a.streams.ttfts(), b.streams.ttfts());
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.timed_out, b.timed_out);
        assert_eq!(a.chat, b.chat);
    }

    #[test]
    fn tables_render_every_cell() {
        let cfg = ChaosExperiment::standard(16, 3);
        let runs = [
            run_cell(&cfg, CellSpec::protected(1)),
            run_cell(&cfg, CellSpec::unprotected(1)),
        ];
        let t = goodput_table(&runs, "test");
        assert!(!t.is_empty());
        let crash = [run_cell(&cfg, CellSpec::crashed(true))];
        assert!(!recovery_table(&crash, "test").is_empty());
    }
}
