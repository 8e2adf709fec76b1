//! Quiet boundaries are invisible: an AQUA swap cell shaped like the
//! `serve_swap` benchmark (the three-tenant mix on a Codellama-34B gateway,
//! SJF+bucket, swap preemption to a peer lease), driven through
//! `Driver::run` so its steady runs skip every quiet offloader boundary,
//! must end exactly where its twin ends behind a wrapper that forwards
//! every `Engine` method except `step_run` (and so calls every boundary).
//! Cases add what makes boundaries loud: coordinator watchdogs, an
//! auditor, a coordinator crash from a fault plan, and a reclaim of the
//! peer lease between two `run` windows (which strands the swapped bytes
//! in DRAM until a new lease takes them back). The journal digest (which
//! covers each request's fate), the streams, the outcome counts, the
//! gateway's counters and the coordinator's book revision and epoch must
//! agree.

use aqua::core::coordinator::{FailureConfig, GpuRef};
use aqua::engines::driver::{Driver, Engine};
use aqua::engines::request::InferenceRequest;
use aqua::engines::vllm::PreemptionPolicy;
use aqua::gateway::engine::{GatewayConfig, GatewayEngine};
use aqua::gateway::scheduler::PolicyKind;
use aqua::metrics::requests::RequestRecord;
use aqua::metrics::streaming::StreamLog;
use aqua::sim::audit::Auditor;
use aqua::sim::fault::FaultPlan;
use aqua::sim::gpu::GpuId;
use aqua::sim::link::bytes::{gib, mib};
use aqua::sim::time::{SimDuration, SimTime};
use aqua::telemetry::{JournalTracer, SharedTracer, TraceEvent};
use aqua::workloads::tenants::tenant_stream;
use aqua_bench::serve_schedulers::ServeExperiment;
use aqua_bench::setup::{ServerCtx, CELL_MAX_OUTSTANDING, CELL_POOL_BYTES};
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

/// What makes a case's boundaries loud.
#[derive(Debug, Clone, Copy, Default)]
struct Loud {
    /// Coordinator watchdogs (chaos failure config): the static lease has
    /// no heartbeat, so the watchdog revokes it mid-run.
    watchdogs: bool,
    /// An auditor on the coordinator, the offloader, the gateway and the
    /// driver.
    auditor: bool,
    /// A fault plan crashing the coordinator at 30 s for 5 s: the
    /// offloader serves autonomously, then sees the epoch bump.
    crash: bool,
    /// A reclaim of the peer lease after the first window, and a fresh
    /// lease after the second.
    reclaim: bool,
}

/// What one served cell shows from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    digest: u64,
    streams: StreamLog,
    outcomes: aqua::gateway::outcome::OutcomeCounts,
    iterations: u64,
    preemptions: u64,
    swapped_bytes: u64,
    /// The offloader's journalled reclaim releases, bytes failed over from
    /// a peer to DRAM (in these cases, only stranded bytes) and promotions.
    offloader: [u64; 3],
    /// The coordinator's `(book revision, epoch)` after each window.
    book: Vec<(u64, u64)>,
    /// The driver's `(processed events, next seq)` after each window.
    driver: Vec<(u64, u64)>,
}

/// The gateway of the `serve_swap` cell for `cfg`, swapping to a 30 GiB
/// lease from GPU 1, with its driver and the context it was built from.
fn swap_cell(
    cfg: &ServeExperiment,
    tracer: SharedTracer,
    loud: Loud,
) -> (GatewayEngine, Driver, ServerCtx) {
    let mut ctx = ServerCtx::two_gpu_traced(tracer);
    let auditor = loud.auditor.then(Auditor::collecting);
    if let Some(aud) = &auditor {
        ctx = ctx.with_auditor(aud.clone());
    }
    if loud.watchdogs {
        ctx.coordinator.set_failure_config(FailureConfig::chaos());
    }
    if loud.crash {
        let plan =
            FaultPlan::new().coordinator_crash(SimTime::from_secs(30), SimDuration::from_secs(5));
        ctx = ctx.with_fault_plan(Arc::new(plan));
    }
    ctx.static_lease(GpuId(1), gib(30));
    let (gateway, driver) = ctx.serving_cell(
        tenant_stream(cfg.rate, cfg.count, cfg.seed),
        PolicyKind::SjfBucket,
        GatewayConfig {
            kv_pool_bytes: cfg.pool_bytes,
            preemption: PreemptionPolicy::Swap,
            max_outstanding_per_tenant: cfg.max_outstanding,
            ..GatewayConfig::default()
        },
        "gateway:sjf+bucket:aqua",
        None,
        auditor,
    );
    (gateway, driver, ctx)
}

/// Serves the small cell over 2 s `run` windows up to 200 s, then to its
/// horizon, bare or behind [`PerStep`]. A reclaiming case asks for the
/// peer lease back after the first window that ends with swapped bytes on
/// it, and grants a fresh lease five windows later.
fn serve(loud: Loud, per_step: bool) -> (Observed, GatewayEngine) {
    let journal = Arc::new(JournalTracer::new());
    // A 768 MiB pool, so decode growth preempts and swaps often.
    let cfg = ServeExperiment {
        pool_bytes: mib(768),
        ..ServeExperiment::at_rate(3.0, 96, 7)
    };
    let (gateway, mut driver, ctx) = swap_cell(&cfg, journal.clone(), loud);
    let mut engine = PerStep(gateway);
    let mut book = Vec::new();
    let mut clocks = Vec::new();
    let mut reclaimed = None;
    let ends = (1..=100).map(|w| SimTime::from_secs(2 * w));
    for (window, end) in ends.chain([cfg.horizon()]).enumerate() {
        let e: &mut dyn Engine = if per_step { &mut engine } else { &mut engine.0 };
        driver.run(&mut [e], end);
        book.push((ctx.coordinator.book_revision(), ctx.coordinator.epoch()));
        clocks.push((driver.processed_events(), driver.next_seq()));
        if !loud.reclaim {
            continue;
        }
        match reclaimed {
            None if ctx.coordinator.used_bytes() > 0 => {
                ctx.coordinator
                    .reclaim_request(GpuRef::single(GpuId(1)), end);
                reclaimed = Some(window);
            }
            Some(at) if window == at + 5 => ctx.static_lease(GpuId(1), gib(30)),
            _ => {}
        }
    }
    assert!(!loud.reclaim || reclaimed.is_some(), "nothing to reclaim");
    let mut gateway = engine.0;
    assert!(!gateway.has_work(), "every request is served");
    let observed = Observed {
        digest: journal.digest(),
        streams: gateway.drain_streams(),
        outcomes: gateway.outcomes(),
        iterations: gateway.iterations(),
        preemptions: gateway.preemptions(),
        swapped_bytes: gateway.swapped_bytes_total(),
        offloader: journal.events().iter().fold([0; 3], |mut n, e| {
            match e {
                TraceEvent::ReclaimReleased { .. } => n[0] += 1,
                TraceEvent::FailoverEngaged { to, bytes, .. } if to == "dram" => n[1] += bytes,
                TraceEvent::LeasePromoted { .. } => n[2] += 1,
                _ => {}
            }
            n
        }),
        book,
        driver: clocks,
    };
    (observed, gateway)
}

#[test]
fn skipped_quiet_boundaries_leave_the_run_unchanged() {
    let cases = [
        Loud::default(),
        Loud {
            watchdogs: true,
            ..Loud::default()
        },
        Loud {
            auditor: true,
            ..Loud::default()
        },
        Loud {
            crash: true,
            ..Loud::default()
        },
        Loud {
            reclaim: true,
            ..Loud::default()
        },
        Loud {
            watchdogs: true,
            auditor: true,
            crash: true,
            reclaim: true,
        },
    ];
    for loud in cases {
        let (bare, gateway) = serve(loud, false);
        let (stepped, _) = serve(loud, true);
        assert!(bare.preemptions > 0, "{loud:?}: the cell must swap");
        assert!(bare.swapped_bytes > 0, "{loud:?}: the cell must swap");
        assert!(gateway.steady_iterations() > 0, "{loud:?}: no steady run");
        let [releases, stranded, promotions] = bare.offloader;
        if loud.reclaim {
            assert!(releases > 0 && promotions > 0, "{loud:?}: reclaim unserved");
        }
        if loud.watchdogs && loud.reclaim {
            assert!(stranded > 0, "{loud:?}: the watchdog stranded nothing");
        }
        if loud.crash {
            assert!(bare.book.last().unwrap().1 > 1, "{loud:?}: no epoch bump");
        }
        assert_eq!(bare, stepped, "{loud:?}");
    }
}

/// The shares of a gateway's iterations that ran steady and that skipped
/// their offloader boundary.
fn shares(gateway: &GatewayEngine) -> (f64, f64) {
    let iterations = gateway.iterations() as f64;
    (
        gateway.steady_iterations() as f64 / iterations,
        gateway.skipped_boundaries() as f64 / iterations,
    )
}

/// The fast path must not silently turn off: on the small quiet cell,
/// steady runs decode iterations and skip their AQUA boundaries. Watchdogs
/// keep every boundary loud, so none is skipped there.
#[test]
fn steady_and_quiet_shares_stay_on() {
    let (_, quiet) = serve(Loud::default(), false);
    let (steady, skipped) = shares(&quiet);
    eprintln!("quiet swap cell: steady share {steady:.3}, skipped boundary share {skipped:.3}");
    assert!(steady > 0.0, "no iteration ran steady");
    assert!(skipped > 0.0, "no quiet boundary was skipped");
    let loud = Loud {
        watchdogs: true,
        ..Loud::default()
    };
    let (_, watched) = serve(loud, false);
    assert!(watched.steady_iterations() > 0);
    assert_eq!(
        watched.skipped_boundaries(),
        0,
        "watchdogs run every boundary"
    );
}

/// The steady and skipped-boundary shares of the full `serve_swap`
/// benchmark workload (37,500 chat requests at 0.3 req/s, seed 42,
/// untraced), with its iteration, steady-iteration, skipped-boundary and
/// preemption counts pinned. `ci.sh` runs it; well under a second in
/// release:
///
/// ```text
/// cargo test --release --offline --test quiet_boundaries -- --ignored --nocapture
/// ```
#[test]
#[ignore = "the full serve_swap workload; run in release"]
fn serve_swap_shares() {
    let cfg = ServeExperiment::at_rate(0.3, 37_500, 42);
    let (mut gateway, mut driver, _ctx) =
        swap_cell(&cfg, aqua::telemetry::null_tracer(), Loud::default());
    assert_eq!(cfg.pool_bytes, CELL_POOL_BYTES);
    assert_eq!(cfg.max_outstanding, CELL_MAX_OUTSTANDING);
    driver.run(&mut [&mut gateway], cfg.horizon());
    let (steady, skipped) = shares(&gateway);
    eprintln!(
        "serve_swap: {} iterations, {} steady ({:.1} %), {} boundaries skipped ({:.1} %), \
         {} preemptions",
        gateway.iterations(),
        gateway.steady_iterations(),
        100.0 * steady,
        gateway.skipped_boundaries(),
        100.0 * skipped,
        gateway.preemptions(),
    );
    // The benchmark's shape: a driver or gateway change that moves any of
    // these counts moves the `serve_swap` workload.
    assert_eq!(gateway.iterations(), 2_753_745, "iterations");
    assert_eq!(gateway.steady_iterations(), 2_622_744, "steady iterations");
    assert_eq!(gateway.skipped_boundaries(), 2_622_791, "skipped");
    assert_eq!(gateway.preemptions(), 310, "the benchmark's preemptions");
    assert!(steady > 0.0 && skipped > 0.0);
}
