//! The queue and batch tracks replayed from the journal are exact: the
//! journal holds a gateway's edges, not its levels, and
//! `aqua_telemetry::levels::gateway_levels` replays them. A wrapper that
//! forwards every `Engine` call but `step_run` to a traced gateway (so the
//! default steps it one call at a time, as in the twin test, which shows
//! that steady runs end where those steps do) notes, after each `submit`,
//! `step` and `tick`, how long the journal is and the gateway's own
//! `queue_depth()` and `running_count()`. Replaying the journal up to each
//! note must give those two levels. The cases are
//! the steady-run twin cases (a policy, a preemption mode, a GPU crash
//! window, SLO deadlines, brownout and a donating informer) and the
//! coordinator-crash cell of `aqua-repro coord_chaos`.

mod cases;

use aqua_bench::coord_chaos::{CoordCell, CoordChaosConfig};
use aqua_bench::setup::{ServerCtx, CELL_MAX_OUTSTANDING, CELL_POOL_BYTES};
use aqua_core::coordinator::FailureConfig;
use aqua_core::informer::LlmInformerConfig;
use aqua_engines::driver::{Driver, Engine};
use aqua_engines::request::InferenceRequest;
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::requests::RequestRecord;
use aqua_models::zoo;
use aqua_sim::check::AnyBool;
use aqua_sim::gpu::GpuId;
use aqua_sim::time::SimTime;
use aqua_telemetry::levels::gateway_levels;
use aqua_telemetry::{JournalTracer, SharedTracer};
use aqua_workloads::tenants::tenant_stream;
use cases::Features;
use std::sync::Arc;

/// The journal's length and the gateway's `(queue_depth, running)` after
/// one call.
type Note = (usize, (u64, u64));

/// Forwards every `Engine` call but `step_run` to the gateway, and notes
/// the levels after each call that can move them.
struct Noting {
    gateway: GatewayEngine,
    journal: Arc<JournalTracer>,
    notes: Vec<Note>,
}

impl Noting {
    fn new(gateway: GatewayEngine, journal: Arc<JournalTracer>) -> Self {
        Noting {
            gateway,
            journal,
            notes: Vec::new(),
        }
    }

    fn note(&mut self) {
        let levels = (
            self.gateway.queue_depth() as u64,
            self.gateway.running_count() as u64,
        );
        self.notes.push((self.journal.len(), levels));
    }
}

impl Engine for Noting {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.gateway.submit(req, now);
        self.note();
    }

    fn has_work(&self) -> bool {
        self.gateway.has_work()
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        let done = self.gateway.step(now);
        self.note();
        done
    }

    fn tick(&mut self, now: SimTime) {
        self.gateway.tick(now);
        self.note();
    }

    fn idle_tick_is_noop(&self) -> bool {
        self.gateway.idle_tick_is_noop()
    }

    fn drain_completions(&mut self) -> Vec<RequestRecord> {
        self.gateway.drain_completions()
    }
}

/// Replays the journal of `noting` and checks every note of its gateway
/// against it. Returns how many edges the replay walked.
fn check_levels(noting: &Noting, scope: &str) -> usize {
    let levels: Vec<_> = gateway_levels(&noting.journal.events())
        .into_iter()
        .filter(|level| level.gateway == scope)
        .collect();
    let mut replayed = levels.iter().peekable();
    let mut at = (0, 0);
    for &(len, levels) in &noting.notes {
        while let Some(level) = replayed.next_if(|level| level.index < len) {
            at = (level.queue_depth, level.running);
        }
        assert_eq!(at, levels, "replayed (queue, running) after {len} events");
    }
    levels.len()
}

aqua_sim::check! {
    #![cases(96)]

    #[test]
    fn replayed_levels_match_the_gateway(
        reqs in aqua_sim::check::vec((1u64..30_000, 1u64..1_000, 0u64..20_000), 1..40),
        (policy, swap, crash) in (0usize..5, AnyBool, 0usize..3),
        (slo, brownout, informer) in (0u8..4, AnyBool, 0u8..4),
        window_s in 1u64..1_200,
    ) {
        let f = Features::drawn(policy, swap, crash, slo, brownout, informer);
        let journal = Arc::new(JournalTracer::new());
        let (gateway, mut driver) = cases::cell(&reqs, f, journal.clone());
        let mut noting = Noting::new(gateway, journal);
        for end in cases::window_ends(window_s) {
            driver.run(&mut [&mut noting], SimTime::from_secs(end));
        }
        assert!(!noting.gateway.has_work(), "{f:?}: every request is served or dropped");
        let edges = check_levels(&noting, "gateway:twin");
        assert!(edges >= 2 * reqs.len(), "{f:?}: each request enters and leaves");
    }
}

/// The `crash` cell of `aqua-repro coord_chaos`, as that experiment builds
/// it: a swapping SJF+bucket gateway on GPU 0, a donating Llama-2-13B
/// producer on GPU 1 and a coordinator that crashes from 20 s to 60 s.
#[test]
fn replayed_levels_match_a_coordinator_crash_cell() {
    let cfg = CoordChaosConfig::standard(80, 42);
    let journal = Arc::new(JournalTracer::new());
    let tracer: SharedTracer = journal.clone();
    let mut ctx = ServerCtx::two_gpu_traced(tracer.clone());
    ctx.coordinator.set_failure_config(FailureConfig::chaos());
    let plan = Arc::new(CoordCell::Crash.plan().expect("the crash cell has a plan"));
    ctx = ctx.with_fault_plan(Arc::clone(&plan));
    plan.emit(&tracer);
    let (gateway, mut driver): (GatewayEngine, Driver) = ctx.serving_cell(
        tenant_stream(cfg.rate, cfg.count, cfg.seed),
        PolicyKind::SjfBucket,
        GatewayConfig {
            kv_pool_bytes: CELL_POOL_BYTES,
            preemption: PreemptionPolicy::Swap,
            max_outstanding_per_tenant: CELL_MAX_OUTSTANDING,
            ..GatewayConfig::default()
        },
        "coord:crash",
        Some(&plan),
        None,
    );
    let mut producer =
        ctx.llm_producer_with_informer(&zoo::llama2_13b(), GpuId(1), LlmInformerConfig::default());
    let mut noting = Noting::new(gateway, journal);
    driver.run(&mut [&mut noting, &mut producer], cfg.horizon());
    assert_eq!(ctx.coordinator.epoch(), 2, "the coordinator crashed once");
    let edges = check_levels(&noting, "coord:crash");
    assert!(edges >= 2 * cfg.count, "each request enters and leaves");
    eprintln!(
        "coord_chaos crash cell: {} notes over {edges} replayed edges",
        noting.notes.len()
    );
}
