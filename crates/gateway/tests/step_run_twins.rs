//! Steady decode runs are invisible: a gateway driven through
//! `Driver::run`, which continues each decode run through the gateway's
//! own `Engine::step_run`, must end exactly where its twin ends behind a
//! wrapper that forwards every `Engine` method except `step_run` (so the
//! default steps it one call at a time, as the benchmark's `TimedEngine`
//! does). Each case draws a policy, a preemption mode, a GPU crash
//! window, SLO deadlines, brownout and a donating informer, and compares
//! the journal digest, every token time of every stream, the outcome
//! counts, the gateway's counters and the driver's event count, clock and
//! next seq. The digest covers each request's fate, which the journal
//! records under its id.

use aqua_engines::driver::{Driver, Engine};
use aqua_engines::northbound::{Informer, MemoryElastic};
use aqua_engines::offload::DramOffloader;
use aqua_engines::request::InferenceRequest;
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::admission::{BrownoutConfig, OverloadPolicy};
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::outcome::{SloPolicy, TenantSlo};
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::requests::RequestRecord;
use aqua_models::lora::LoraAdapter;
use aqua_models::zoo;
use aqua_sim::check::AnyBool;
use aqua_sim::fault::FaultPlan;
use aqua_sim::gpu::{GpuId, GpuSpec};
use aqua_sim::link::bytes::gib;
use aqua_sim::time::{SimDuration, SimTime};
use aqua_sim::topology::ServerTopology;
use aqua_sim::transfer::TransferEngine;
use aqua_telemetry::JournalTracer;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Forwards every `Engine` method but `step_run`.
struct PerStep<E>(E);

impl<E: Engine> Engine for PerStep<E> {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.0.submit(req, now)
    }

    fn has_work(&self) -> bool {
        self.0.has_work()
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        self.0.step(now)
    }

    fn tick(&mut self, now: SimTime) {
        self.0.tick(now)
    }

    fn idle_tick_is_noop(&self) -> bool {
        self.0.idle_tick_is_noop()
    }

    fn drain_completions(&mut self) -> Vec<RequestRecord> {
        self.0.drain_completions()
    }
}

/// Donates half the donatable pool while the queue is empty and takes
/// everything back once requests wait.
struct Donor;

impl Informer for Donor {
    fn control(&mut self, engine: &mut dyn MemoryElastic, now: SimTime) -> SimTime {
        let stats = engine.stats();
        if stats.pending_requests == 0 {
            engine.donate(stats.donatable_bytes / 2);
        } else if stats.donated_bytes > 0 {
            engine.reclaim(stats.donated_bytes);
        }
        now
    }
}

/// What one served gateway shows from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    digest: u64,
    streams: aqua_metrics::streaming::StreamLog,
    outcomes: aqua_gateway::outcome::OutcomeCounts,
    iterations: u64,
    preemptions: u64,
    lora_cache: (u64, u64),
    /// `processed_events`, `next_event_time` and `next_seq` after each
    /// `run` window.
    clocks: Vec<(u64, Option<SimTime>, u64)>,
}

/// Runs `gateway`, journalling into `journal`, on `driver` to each
/// horizon in `ends` (in seconds), bare or behind [`PerStep`].
fn drive(
    gateway: GatewayEngine,
    journal: &JournalTracer,
    mut driver: Driver,
    ends: impl IntoIterator<Item = u64>,
    per_step: bool,
) -> Observed {
    let mut engine = PerStep(gateway);
    let mut clocks = Vec::new();
    for end in ends {
        let e: &mut dyn Engine = if per_step { &mut engine } else { &mut engine.0 };
        driver.run(&mut [e], SimTime::from_secs(end));
        clocks.push((
            driver.processed_events(),
            driver.next_event_time(),
            driver.next_seq(),
        ));
    }
    let mut gateway = engine.0;
    assert!(!gateway.has_work(), "every request is served or dropped");
    Observed {
        digest: journal.digest(),
        streams: gateway.drain_streams(),
        outcomes: gateway.outcomes(),
        iterations: gateway.iterations(),
        preemptions: gateway.preemptions(),
        lora_cache: gateway.lora_cache_stats(),
        clocks,
    }
}

/// Where a case's GPU crash lands.
#[derive(Debug, Clone, Copy)]
enum Crash {
    None,
    /// The driver pauses the gateway over the window, and the gateway's
    /// fault plan aborts its batch when the window ends.
    Window,
    /// Only the gateway knows the plan: it is not paused, and handles the
    /// crash at its first step inside the window.
    PlanOnly,
}

/// The drawn features of one case.
#[derive(Debug, Clone, Copy)]
struct Features {
    policy: PolicyKind,
    swap: bool,
    crash: Crash,
    slo: bool,
    brownout: bool,
    informer: bool,
}

/// Serves `reqs` (`(prompt, output, arrival ms)`) from three capped tenants
/// on a 6 GiB Mistral-7B pool (large enough to donate from) with an
/// 8-sequence batch, over `run` windows of `window_s` seconds and a final
/// drain, bare or behind [`PerStep`]. The crash window is shorter than the
/// first retry backoff, so retries stay parked while others decode.
fn serve(reqs: &[(u64, u64, u64)], f: Features, window_s: u64, per_step: bool) -> Observed {
    let geom = *zoo::mistral_7b().llm_geometry().unwrap();
    let journal = Arc::new(JournalTracer::digest_only());
    let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
    let transfers = Rc::new(RefCell::new(TransferEngine::new()));
    let (crash_start, crash_end) = (SimTime::from_secs(10), SimTime::from_millis(10_100));
    let overload = OverloadPolicy {
        brownout: f.brownout.then(|| BrownoutConfig {
            enter_depth: 3,
            exit_depth: 1,
            capped_tenants: vec![1],
            capped_outstanding: 1,
        }),
        ..OverloadPolicy::default()
    };
    let slo = if f.slo {
        SloPolicy::with_default(TenantSlo {
            ttft: Some(SimDuration::from_secs(8)),
            total: Some(SimDuration::from_secs(40)),
        })
    } else {
        SloPolicy::none()
    };
    let tenants = (0..reqs.len() as u64).map(|id| (id, (id % 3) as u32));
    let mut gateway = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        f.policy,
        GatewayConfig {
            max_batch: 8,
            kv_pool_bytes: gib(6),
            preemption: if f.swap {
                PreemptionPolicy::Swap
            } else {
                PreemptionPolicy::Recompute
            },
            max_outstanding_per_tenant: 4,
            overload,
            slo,
            ..GatewayConfig::default()
        },
    )
    .with_tenants(tenants.collect())
    .with_tracer(journal.clone(), "gateway:twin")
    .with_offloader(Box::new(DramOffloader::pinned(
        &server,
        GpuId(0),
        transfers,
    )));
    let mut driver = Driver::new();
    if !matches!(f.crash, Crash::None) {
        let plan = FaultPlan::new().gpu_crash(GpuId(0), crash_start, crash_end);
        gateway = gateway.with_fault_plan(&plan, GpuId(0));
    }
    if matches!(f.crash, Crash::Window) {
        driver.crash_window(0, crash_start, crash_end);
    }
    if f.informer {
        gateway = gateway.with_informer(Box::new(Donor));
    }
    for (id, &(prompt, output, at_ms)) in reqs.iter().enumerate() {
        let req = InferenceRequest::text(id as u64, prompt, output);
        driver.schedule_arrival(0, SimTime::from_millis(at_ms), req);
    }
    // PDES-style windows over the busy span, then one run to drain.
    let ends = (1..=1_200 / window_s).map(|w| w * window_s).chain([2_400]);
    drive(gateway, &journal, driver, ends, per_step)
}

aqua_sim::check! {
    #![cases(96)]

    // Informers and deadlines keep every run per-step, so each is drawn
    // one case in four and most cases exercise steady runs.
    #[test]
    fn steady_runs_match_stepping_one_call_at_a_time(
        reqs in aqua_sim::check::vec((1u64..30_000, 1u64..1_000, 0u64..20_000), 1..40),
        (policy, swap, crash) in (0usize..5, AnyBool, 0usize..3),
        (slo, brownout, informer) in (0u8..4, AnyBool, 0u8..4),
        window_s in 1u64..1_200,
    ) {
        let f = Features {
            policy: PolicyKind::ALL[policy],
            swap,
            crash: [Crash::None, Crash::Window, Crash::PlanOnly][crash],
            slo: slo == 0,
            brownout,
            informer: informer == 0,
        };
        let steady = serve(&reqs, f, window_s, false);
        assert!(steady.iterations > 0, "{f:?}");
        assert_eq!(steady, serve(&reqs, f, window_s, true), "{f:?}");
    }
}

/// An `sjf+aging` promotion that falls due inside a steady run: a short job
/// arrives every second for two minutes, two never fit the pool together,
/// so each decodes alone with the next one blocked and the admission memo
/// set, while the long job waits for its 60 s promotion. The run must stop
/// where the promotion lands, and the promoted job must be admitted at the
/// same step as when stepping one call at a time.
#[test]
fn an_aging_promotion_inside_a_steady_run_lands_on_time() {
    let run = |per_step: bool| {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let journal = Arc::new(JournalTracer::digest_only());
        let mut gateway = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::SjfAging,
            GatewayConfig {
                kv_pool_bytes: gib(6),
                max_outstanding_per_tenant: 2,
                ..GatewayConfig::default()
            },
        )
        .with_tenants(BTreeMap::from([(0, 1)]))
        .with_tracer(journal.clone(), "gateway:aging");
        // 6 GiB less 1 GiB donated leaves 40,960 tokens.
        assert_eq!(gateway.donate(gib(1)), gib(1));
        let mut driver = Driver::new();
        for i in 1..=120 {
            let req = InferenceRequest::text(i, 30_000, 20);
            driver.schedule_arrival(0, SimTime::from_secs(i - 1), req);
        }
        let long = InferenceRequest::text(0, 1_000, 3_000);
        driver.schedule_arrival(0, SimTime::from_millis(500), long);
        drive(gateway, &journal, driver, [10_000], per_step)
    };
    let steady = run(false);
    let long = steady.streams.streams().iter().find(|s| s.id == 0).unwrap();
    let first = long.tokens.first().unwrap();
    assert!(first >= SimTime::from_millis(60_500), "promoted at {first}");
    assert_eq!(steady, run(true));
}

/// A batch that references LoRA adapters counts a cache hit for each of
/// them every iteration, so it never runs steady: with two adapter slots,
/// a mixed LoRA and base-model load must hit, miss and load exactly as
/// when stepping one call at a time.
#[test]
fn lora_batches_hit_their_adapters_every_iteration() {
    let run = |per_step: bool| {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let journal = Arc::new(JournalTracer::digest_only());
        let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        let transfers = Rc::new(RefCell::new(TransferEngine::new()));
        let gateway = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                lora_cache_slots: 2,
                ..GatewayConfig::vllm()
            },
        )
        .with_adapters(LoraAdapter::zephyr().synthesize_pool(3))
        .with_tracer(journal.clone(), "gateway:lora")
        .with_offloader(Box::new(DramOffloader::pinned(
            &server,
            GpuId(0),
            transfers,
        )));
        let mut driver = Driver::new();
        for id in 0..12 {
            let at = SimTime::from_millis(700 * id);
            let req = match id % 4 {
                3 => InferenceRequest::text(id, 256, 90),
                a => InferenceRequest::with_adapter(id, 256, 60 + 10 * id, a as usize),
            };
            driver.schedule_arrival(0, at, req);
        }
        drive(gateway, &journal, driver, [1_000], per_step)
    };
    let steady = run(false);
    assert!(
        steady.lora_cache.0 > 0 && steady.lora_cache.1 > 2,
        "{:?}",
        steady.lora_cache
    );
    assert_eq!(steady, run(true));
}
