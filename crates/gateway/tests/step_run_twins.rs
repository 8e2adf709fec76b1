//! Steady decode runs are invisible: a gateway driven through
//! `Driver::run`, which continues each decode run through the gateway's
//! own `Engine::step_run`, must end exactly where its twin ends behind a
//! wrapper that forwards every `Engine` method except `step_run` (so the
//! default steps it one call at a time, as the benchmark's `TimedEngine`
//! does). Each case draws a policy, a preemption mode, a GPU crash
//! window, SLO deadlines, brownout and a donating informer, and compares
//! the journal digest, every token time of every stream, the outcome
//! counts, the gateway's counters, the driver's event count, clock and
//! next seq, and the KV blocks in use at every window end. The digest
//! covers each request's fate, which the journal records under its id; the
//! KV blocks cover a steady run's growth plan, which no journal sees.

mod cases;

use aqua_engines::driver::{Driver, Engine};
use aqua_engines::northbound::MemoryElastic;
use aqua_engines::offload::DramOffloader;
use aqua_engines::request::InferenceRequest;
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::requests::RequestRecord;
use aqua_models::lora::LoraAdapter;
use aqua_models::zoo;
use aqua_sim::check::AnyBool;
use aqua_sim::gpu::{GpuId, GpuSpec};
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_sim::topology::ServerTopology;
use aqua_sim::transfer::TransferEngine;
use aqua_telemetry::JournalTracer;
use cases::Features;
use std::cell::RefCell;
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

/// What one served gateway shows from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    digest: u64,
    streams: aqua_metrics::streaming::StreamLog,
    outcomes: aqua_gateway::outcome::OutcomeCounts,
    iterations: u64,
    preemptions: u64,
    lora_cache: (u64, u64),
    /// `processed_events`, `next_event_time` and `next_seq` of the
    /// driver, and the gateway's KV blocks in use, after each `run` window.
    clocks: Vec<(u64, Option<SimTime>, u64, u64)>,
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
            engine.0.kv().used_blocks(),
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

/// Serves `reqs` (`(prompt, output, arrival ms)`) as the case `f` over
/// `run` windows of `window_s` seconds and a final drain, bare or behind
/// [`PerStep`].
fn serve(reqs: &[(u64, u64, u64)], f: Features, window_s: u64, per_step: bool) -> Observed {
    let journal = Arc::new(JournalTracer::digest_only());
    let (gateway, driver) = cases::cell(reqs, f, journal.clone());
    drive(
        gateway,
        &journal,
        driver,
        cases::window_ends(window_s),
        per_step,
    )
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
        let f = Features::drawn(policy, swap, crash, slo, brownout, informer);
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
        .with_tracer(journal.clone(), "gateway:aging");
        // 6 GiB less 1 GiB donated leaves 40,960 tokens.
        assert_eq!(gateway.donate(gib(1)), gib(1));
        let mut driver = Driver::new();
        for i in 1..=120 {
            let req = InferenceRequest::text(i, 30_000, 20);
            driver.schedule_arrival(0, SimTime::from_secs(i - 1), req);
        }
        let long = InferenceRequest {
            tenant: 1,
            ..InferenceRequest::text(0, 1_000, 3_000)
        };
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
