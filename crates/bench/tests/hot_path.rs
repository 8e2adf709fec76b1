//! Hot-path gates, checked through a counting global allocator, the
//! gateway's scheduler-key comparison counter and, for two cost ratios,
//! the wall clock.
//!
//! Thirteen guarantees: the untraced transfer-schedule path performs zero
//! heap allocations per transfer — the budget behind Figure 11's sub-5%
//! producer overhead (it allocated up to four strings per transfer before
//! lane interning and the dense `PortStats` table); the placer's catalog
//! DP stays within a small allocation budget per memoised state on a 64-GPU
//! mixed solve; the untraced decode step's only heap traffic is amortized
//! doubling of block tables and of the gateway's iteration clock, and the
//! same holds for the steady decode runs a driver hands the gateway, with
//! no offloader or with an AQUA offloader whose boundaries they skip as
//! quiet; a driver queues a trace `Driver::schedule_trace` scheduled one
//! arrival at a time; a scale run's peak heap grows by at most 32 B per
//! extra request;
//! a scale-style server idling out a 40,000 s horizon is never ticked (the
//! driver fast-forwards its no-op tick rounds yet still counts them); an
//! event queue filled out of time order pops in logarithmic, not linear,
//! time; one gateway admission round does work independent of backlog
//! depth (the incremental scheduler indices, checked for every policy via
//! allocation and key-comparison counters at backlogs of 1,000 vs 10,000);
//! a CFS slice's heap peak does not grow with its backlog (the fair
//! index, at the same two depths);
//! a digest-only journal emit allocates nothing (the event is hashed
//! from its fields, interned labels and all); a quiet AQUA iteration
//! boundary costs the same with 64 tracked leases as with one (its lease
//! sweeps are skipped while the coordinator's book revision stands); and
//! a drained serving log keeps one clock entry per gateway iteration plus
//! a small fixed record per stream, never a timestamp per token.
//!
//! The allocation counter is process-wide, so the gates run one after
//! another from a plain `main` (`harness = false`) rather than on the test
//! harness's worker threads. Run with `cargo test -p aqua-bench --test
//! hot_path`. Per-operation timings live in the `benchmark/` crate; the two
//! timed gates here compare ratios, the best of five batches each side.

use aqua_bench::fig14_placer::mixed_instance;
use aqua_bench::scale_cluster::{run_scale, ScaleSpec};
use aqua_bench::setup::{OffloadKind, ServerCtx, CELL_MAX_OUTSTANDING};
use aqua_core::coordinator::{Coordinator, GpuRef};
use aqua_core::offloader::AquaOffloader;
use aqua_engines::cfs::{CfsConfig, CfsEngine};
use aqua_engines::driver::{Driver, Engine};
use aqua_engines::offload::{DramOffloader, Offloader};
use aqua_engines::request::InferenceRequest;
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::scheduler::{sched_comparisons, PolicyKind};
use aqua_metrics::requests::RequestRecord;
use aqua_models::zoo;
use aqua_placer::solver::solve_optimal_stats;
use aqua_sim::event::EventQueue;
use aqua_sim::gpu::{GpuId, GpuSpec};
use aqua_sim::link::bytes::gib;
use aqua_sim::time::{SimDuration, SimTime};
use aqua_sim::topology::ServerTopology;
use aqua_sim::transfer::{TransferEngine, TransferPlan};
use aqua_telemetry::{JournalTracer, Lane, TraceEvent, Tracer};
use aqua_workloads::tenants::tenant_stream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts every allocation and the bytes
/// live, so the gates below can observe the hot paths directly.
struct CountingAlloc;

/// Allocations and reallocations since process start. It publishes no
/// other data, so `Relaxed` increments suffice; the gates read it on the
/// one thread that does the counted work.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed, at their requested sizes. Wrapping
/// arithmetic, so a gate reads it as a difference of two loads.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The most [`LIVE_BYTES`] has reached since a gate last set it.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` guarantees are exactly `System`'s
// preconditions; the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let size = layout.size() as u64;
        let live = LIVE_BYTES
            .fetch_add(size, Ordering::Relaxed)
            .wrapping_add(size);
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let grown = (new_size as u64).wrapping_sub(layout.size() as u64);
        let live = LIVE_BYTES
            .fetch_add(grown, Ordering::Relaxed)
            .wrapping_add(grown);
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The untraced schedule path must be allocation-free: one dense-slot
/// update per port, no lane strings, no counter-name formatting, no map
/// rehashing. Warm-up covers the one legitimate allocation (first touch of
/// a GPU's ports grows the dense table); after that, 10k transfers must
/// leave the allocation counter untouched.
fn assert_untraced_schedule_is_allocation_free() {
    let server = ServerTopology::nvswitch(8, GpuSpec::a100_80g());
    let path = server.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
    let mut eng = TransferEngine::new();
    let mut now = SimTime::ZERO;
    for _ in 0..64 {
        now = eng
            .schedule(&path, TransferPlan::coalesced(1 << 26), now)
            .end;
    }
    const TRANSFERS: u64 = 10_000;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..TRANSFERS {
        now = eng
            .schedule(&path, TransferPlan::coalesced(1 << 26), now)
            .end;
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "untraced schedule path made {allocs} allocations over {TRANSFERS} transfers \
         (it allocated up to 4 strings per transfer before lane interning)"
    );
    black_box(&eng);
    eprintln!(
        "hot_path: untraced transfer-schedule path: 0 allocations over {TRANSFERS} transfers"
    );
}

/// The catalog-DP solver must stay allocation-lean: memoised frontiers are
/// the only per-state heap traffic (one `Rc<[Pair]>` plus occasional map
/// rehash/scratch growth), so a 64-GPU mixed solve is capped at a small
/// constant per DP state plus fixed slack for the catalog, greedy incumbent
/// and model grouping. The pre-catalog solver allocated a fresh candidate
/// `Vec` per *expansion* — orders of magnitude above this bound.
fn assert_placer_solve_allocation_bounded() {
    let inst = mixed_instance(64);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let (placement, stats) = solve_optimal_stats(&inst);
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    placement.validate(&inst).unwrap();
    let cap = 8 * stats.dp_states as u64 + 1024;
    assert!(
        allocs <= cap,
        "placer 64-GPU mixed solve made {allocs} allocations for {} DP states \
         (cap {cap}: 8/state + 1024 slack)",
        stats.dp_states
    );
    black_box(&placement);
    eprintln!(
        "hot_path: placer 64-GPU mixed solve: {allocs} allocations over {} DP states (cap {cap})",
        stats.dp_states
    );
}

/// The decode hot path must be allocation-lean: with an untraced engine
/// (the gateway in its vLLM configuration; gauges short-circuit), no
/// offloader, no LoRA adapters and no completions in flight, a
/// steady-state decode step touches only the SoA sequence arrays, the paged
/// KV free-list watermark, the sequences' open runs and the gateway's
/// iteration clock — its sole legitimate heap traffic is the amortized
/// doubling of a sequence's block table as it crosses block boundaries
/// (≤ log₂(blocks) reallocations per sequence over its whole life) and of
/// the clock (≤ log₂(steps) over the gateway's life). Before the SoA/arena rework this path allocated per
/// step via per-sequence map churn and gauge-name formatting.
fn assert_untraced_decode_step_is_allocation_lean() {
    const SEQS: u64 = 8;
    const STEPS: u64 = 512;
    // Amortized block-table and clock doubling is the only budgeted traffic.
    const CAP: u64 = SEQS * 6;
    let geom = *zoo::mistral_7b().llm_geometry().unwrap();
    let mut e = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        PolicyKind::Fcfs,
        GatewayConfig::vllm(),
    );
    for i in 0..SEQS {
        // Output far beyond the measured window, so nothing completes and
        // the completion-record path stays cold.
        e.submit(InferenceRequest::text(i, 128, 1 << 20), SimTime::ZERO);
    }
    let mut now = SimTime::ZERO;
    for _ in 0..64 {
        now = e.step(now); // warm-up: admission, first KV blocks, batch growth
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..STEPS {
        now = e.step(now);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(
        allocs <= CAP,
        "untraced decode step made {allocs} allocations over {STEPS} steps x {SEQS} seqs \
         (cap {CAP}: amortized block-table and clock doubling only)"
    );
    black_box(&e);
    eprintln!(
        "hot_path: untraced decode hot path: {allocs} allocations over {STEPS} steps \
         x {SEQS} seqs (cap {CAP})"
    );
}

/// The decode-step bound again, through `Driver::run`: `step` is never
/// called directly, so the driver hands each decode run to the gateway's
/// `step_run`, and a batch that cannot change (one FCFS queue, drained by
/// the first step; no informer, deadlines, adapters or offloader) goes
/// through its steady loop. Over at least as many iterations and sequences
/// as the step gate, cut into 120 runs by 50 ms `run` windows (as PDES
/// lanes cut theirs), its only heap traffic must also be amortized
/// block-table and clock doubling: neither a steady iteration nor a run's
/// plan, KV growth and token settlement may allocate.
fn assert_steady_decode_run_is_allocation_lean() {
    steady_decode_run_allocations("driven decode runs", None);
}

/// The steady-run bound with an AQUA offloader holding a settled peer
/// lease: its iteration boundaries are quiet, so the steady runs skip
/// them, and that path may not allocate either.
fn assert_quiet_aqua_decode_run_is_allocation_lean() {
    let ctx = ServerCtx::two_gpu_traced(aqua_telemetry::null_tracer());
    ctx.static_lease(GpuId(1), gib(30));
    let offloader = ctx.offloader(OffloadKind::Aqua, GpuId(0));
    steady_decode_run_allocations("driven decode runs, quiet AQUA boundaries", Some(offloader));
}

/// Drives eight never-ending sequences through 120 `run` windows of an
/// FCFS gateway in its vLLM configuration, with `offloader` if any, and
/// checks the allocations against the decode-step cap. With an offloader,
/// the steady runs must skip a quiet boundary on most iterations.
fn steady_decode_run_allocations(label: &str, offloader: Option<Box<dyn Offloader>>) {
    const SEQS: u64 = 8;
    const STEPS: u64 = 512;
    const CAP: u64 = SEQS * 6;
    let geom = *zoo::mistral_7b().llm_geometry().unwrap();
    let mut e = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        PolicyKind::Fcfs,
        GatewayConfig::vllm(),
    );
    let quiet = offloader.is_some();
    if let Some(off) = offloader {
        e = e.with_offloader(off);
    }
    let mut driver = Driver::new();
    for i in 0..SEQS {
        // Output far beyond the measured window: nothing completes.
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(i, 128, 1 << 20));
    }
    // Warm-up: arrivals, admission, first KV blocks, the driver's slots.
    driver.run(&mut [&mut e], SimTime::from_millis(500));
    let warm = (e.iterations(), e.skipped_boundaries());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for window in 1..=120 {
        driver.run(&mut [&mut e], SimTime::from_millis(500 + 50 * window));
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let steps = e.iterations() - warm.0;
    let skipped = e.skipped_boundaries() - warm.1;
    assert!(
        steps >= STEPS,
        "{label}: the window must cover {STEPS} iterations, ran {steps}"
    );
    assert!(
        !quiet || 2 * skipped >= steps,
        "{label}: only {skipped} of {steps} boundaries skipped as quiet"
    );
    assert!(
        allocs <= CAP,
        "{label}: {allocs} allocations over {steps} iterations x {SEQS} seqs \
         (cap {CAP}: amortized block-table and clock doubling only)"
    );
    black_box(&e);
    eprintln!(
        "hot_path: {label}: {allocs} allocations over {steps} iterations \
         x {SEQS} seqs, {skipped} boundaries skipped (cap {CAP})"
    );
}

/// A drained `StreamLog` must keep the gateway's iteration clock once, in
/// its compact form, not a delivery time per token: after a small `serve`
/// cell (the three-tenant mix, 64 chat requests at 3 req/s) on a 1 GiB KV
/// pool, so that swap preemption splits some streams into several runs,
/// freeing the log may release at most 4 B per gateway iteration, 8 B per
/// high word the clock can span (one per 2^32 ns, counted from zero to the
/// last delivery) and 64 B per stream (its record and runs). Storing every
/// token's time again (8 B per token, hundreds of tokens per stream), or
/// the clock at 8 B per iteration, trips it.
fn assert_drained_streams_share_the_clock() {
    let ctx = ServerCtx::two_gpu();
    ctx.static_lease(GpuId(1), gib(30));
    let (mut engine, mut driver) = ctx.serving_cell(
        tenant_stream(3.0, 64, 42),
        PolicyKind::SjfBucket,
        GatewayConfig {
            kv_pool_bytes: gib(1),
            preemption: PreemptionPolicy::Swap,
            max_outstanding_per_tenant: CELL_MAX_OUTSTANDING,
            ..GatewayConfig::default()
        },
        "gateway:streams",
        None,
        None,
    );
    driver.run(
        &mut [&mut engine as &mut dyn Engine],
        SimTime::from_secs(10_000),
    );
    let iterations = engine.iterations();
    let preemptions = engine.preemptions();
    let streams = engine.drain_streams();
    drop((engine, driver, ctx));
    let count = streams.len() as u64;
    let tokens: u64 = streams
        .streams()
        .iter()
        .map(|s| s.tokens.len() as u64)
        .sum();
    let last = streams
        .streams()
        .iter()
        .filter_map(|s| s.completion())
        .max()
        .unwrap_or(SimTime::ZERO);
    let high_words = (last.as_nanos() >> 32) + 1;
    assert!(
        count > 0 && preemptions > 0,
        "the cell must serve and preempt"
    );
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    drop(streams);
    let kept = before.wrapping_sub(LIVE_BYTES.load(Ordering::SeqCst));
    let cap = 4 * iterations + 8 * high_words + 64 * count;
    assert!(
        kept <= cap,
        "a drained log of {count} streams ({tokens} tokens) kept {kept} B \
         (cap {cap}: 4 B x {iterations} iterations + 8 B x {high_words} high words \
         + 64 B per stream)"
    );
    eprintln!(
        "hot_path: drained log of {count} streams, {tokens} tokens, {preemptions} \
         preemptions: {kept} B kept (cap {cap}: 4 B x {iterations} iterations \
         + 8 B x {high_words} high words + 64 B/stream)"
    );
}

/// A driver must queue a trace scheduled with [`Driver::schedule_trace`]
/// one arrival at a time: right after scheduling and at every chunk of the
/// run, its event queue holds at most the trace's next arrival. A driver
/// that queued the trace eagerly again would hold all 2,000.
fn assert_driver_queues_arrivals_on_demand() {
    const REQUESTS: usize = 2_000;
    let geom = *zoo::mistral_7b().llm_geometry().unwrap();
    let mut e = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        PolicyKind::Fcfs,
        GatewayConfig::vllm(),
    );
    let mut driver = Driver::new();
    driver.schedule_trace(
        0,
        (0..REQUESTS).map(|i| {
            let at = SimTime::from_nanos(i as u64 * 50_000_000);
            (at, InferenceRequest::text(i as u64, 64, 8))
        }),
    );
    let mut most = driver.queued_events();
    // Far past the trace span (100 s of arrivals) — the driver idle-ticks
    // to the horizon, so `SimTime::MAX` would never return.
    for secs in (10..=1_000).step_by(10) {
        driver.run(&mut [&mut e], SimTime::from_secs(secs));
        most = most.max(driver.queued_events());
    }
    assert!(
        driver.next_event_time().is_none(),
        "trace must drain inside the horizon"
    );
    assert_eq!(
        most, 1,
        "the driver queued up to {most} arrivals of one trace at once"
    );
    assert!(
        driver.processed_events() > REQUESTS as u64,
        "trace must actually run ({} events)",
        driver.processed_events()
    );
    eprintln!(
        "hot_path: a {REQUESTS}-request trace ran {} events with at most one arrival queued",
        driver.processed_events()
    );
}

/// Peak live heap bytes of an 8-server, single-lane `scale_cluster` run at
/// 0.5 req/s per server, `per_server` chat requests each, over what was
/// live before it; and the run's requests, every tenant's counted.
fn scale_peak_bytes(per_server: usize) -> (u64, u64) {
    let spec = ScaleSpec {
        servers: 8,
        requests_per_server: per_server,
        rate: 0.5,
        seed: 42,
        lanes: 1,
        audited: false,
    };
    let requests = (0..spec.servers)
        .map(|s| tenant_stream(spec.rate, per_server, spec.seed + s as u64).len() as u64)
        .sum();
    let live = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(live, Ordering::SeqCst);
    let run = run_scale(&spec);
    let peak = PEAK_BYTES.load(Ordering::SeqCst).wrapping_sub(live);
    assert_eq!(run.audit_violations, 0);
    (peak, requests)
}

/// A scale run's memory must not grow with the requests it has served or
/// will serve: the driver draws each server's tenant stream one arrival at
/// a time, each request carries its tenant (no id-keyed map), each server
/// drains its completions every window, and each gateway's iteration clock
/// forgets what no stream can still read. Between 250 and 1,000 chat
/// requests per server (8 servers, 0.5 req/s; 3,064 and 12,256 requests
/// across the three tenants), the peak live heap may grow by at most 32 B
/// per extra request; it measures 8 B. A server that held its whole trace
/// (48 B a request) and a tenant map measured 98 B; a driver that also
/// queued every arrival (64 B a request), with servers that kept every
/// completed stream and clock entry to the end, measured 367 B.
fn assert_scale_memory_per_request_is_bounded() {
    const SMALL: usize = 250;
    const LARGE: usize = 1_000;
    let (small, few) = scale_peak_bytes(SMALL);
    let (large, many) = scale_peak_bytes(LARGE);
    let per_request = large.saturating_sub(small) as f64 / (many - few) as f64;
    assert!(
        per_request <= 32.0,
        "an 8-server scale run's peak heap grew {per_request:.0} B per extra request \
         (bound 32 B): {small} B for {few} requests, {large} B for {many}"
    );
    eprintln!(
        "hot_path: 8-server scale run: peak heap {small} B for {few} requests, {large} B \
         for {many}: {per_request:.0} B per extra request (bound 32 B)"
    );
}

/// Forwards every `Engine` call but `step_run`, the no-op-tick declaration
/// included, and counts steps and ticks (so every iteration is a counted
/// `step`).
struct CountingEngine<E> {
    inner: E,
    steps: u64,
    ticks: u64,
}

impl<E: Engine> Engine for CountingEngine<E> {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.inner.submit(req, now)
    }

    fn has_work(&self) -> bool {
        self.inner.has_work()
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        self.steps += 1;
        self.inner.step(now)
    }

    fn tick(&mut self, now: SimTime) {
        self.ticks += 1;
        self.inner.tick(now)
    }

    fn idle_tick_is_noop(&self) -> bool {
        self.inner.idle_tick_is_noop()
    }

    fn drain_completions(&mut self) -> Vec<RequestRecord> {
        self.inner.drain_completions()
    }
}

/// A `scale_cluster` server (gateway plus AQUA offloader over static peer
/// leases, no informer) that has drained its trace must sit out the
/// 40,000 s idle tail without one `tick` call: its rounds are no-ops, so
/// the driver fast-forwards them instead of firing 400,000 of them.
/// `processed_events` must still count every round, because scale
/// heartbeats journal it and every digest depends on it.
fn assert_idle_server_is_never_ticked() {
    const REQUESTS: u64 = 16;
    const TAIL_SECS: u64 = 40_000;
    let geom = *zoo::codellama_34b().llm_geometry().unwrap();
    let ctx = ServerCtx::eight_gpu();
    for g in 1..8 {
        ctx.static_lease(GpuId(g), gib(10));
    }
    let gateway = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        PolicyKind::SjfBucket,
        GatewayConfig {
            kv_pool_bytes: gib(3),
            preemption: PreemptionPolicy::Swap,
            max_outstanding_per_tenant: 8,
            ..GatewayConfig::default()
        },
    )
    .with_offloader(ctx.offloader(OffloadKind::Aqua, GpuId(0)));
    let mut e = CountingEngine {
        inner: gateway,
        steps: 0,
        ticks: 0,
    };
    let mut driver = Driver::new();
    driver.schedule_trace(
        0,
        (0..REQUESTS as usize).map(|i| {
            let i = i as u64;
            let at = SimTime::from_secs(2 * i);
            (at, InferenceRequest::text(i, 512, 64))
        }),
    );
    let drained = SimTime::from_secs(2 * REQUESTS + 60);
    driver.run(&mut [&mut e], drained);
    assert!(
        driver.next_event_time().is_none(),
        "the trace must drain before the idle tail"
    );
    let busy_ticks = e.ticks;
    let horizon = drained + SimDuration::from_secs(TAIL_SECS);
    driver.run(&mut [&mut e], horizon);
    let idle_ticks = e.ticks - busy_ticks;
    assert_eq!(
        idle_ticks, 0,
        "an idle server with no informer was ticked {idle_ticks} times over {TAIL_SECS} s"
    );
    // Every 100 ms grid instant in [0, horizon] is one round, fired or not.
    let rounds = horizon.as_nanos() / 100_000_000 + 1;
    assert_eq!(
        driver.processed_events(),
        REQUESTS + e.steps + rounds,
        "arrivals + steps + tick rounds"
    );
    assert_eq!(e.drain_completions().len() as u64, REQUESTS);
    eprintln!(
        "hot_path: idle scale server: 0 ticks over a {TAIL_SECS} s tail, {} events \
         ({REQUESTS} arrivals + {} steps + {rounds} tick rounds)",
        driver.processed_events(),
        e.steps
    );
}

/// Nanoseconds per pop while draining `entries` events that were all pushed
/// into the queue's past (earlier than the last popped time), in
/// descending time order: the best of five batches, so a slow host period
/// inflates no ratio.
fn past_pop_ns(entries: u64) -> f64 {
    (0..5)
        .map(|_| {
            let mut q = EventQueue::with_capacity(entries as usize + 1);
            q.push(SimTime::from_nanos(entries + 1), 0);
            black_box(q.pop());
            for i in 0..entries {
                q.push(SimTime::from_nanos(entries - i), i);
            }
            let start = Instant::now();
            while let Some(e) = q.pop() {
                black_box(e);
            }
            start.elapsed().as_nanos() as f64 / entries as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Pushes into the past (earlier than the last popped time) are rare, but
/// a queue filled out of time order must not make each pop scan them all:
/// the queue is one `(time, seq)` min-heap, so a pop costs O(log n). Per-pop
/// cost at 64,000 past entries may be at most 8× the cost at 1,000; the
/// linear scan for the earliest past entry that this replaced was ~64×
/// (100–200 µs per pop once such a queue was deep).
fn assert_out_of_order_fill_pops_stay_logarithmic() {
    let small = past_pop_ns(1_000);
    let big = past_pop_ns(64_000);
    assert!(
        big <= 8.0 * small,
        "a pop from 64,000 past entries cost {big:.0} ns vs {small:.0} ns from 1,000 \
         (bound 8x): pushes into the past are scanned, not heap-ordered"
    );
    eprintln!(
        "hot_path: out-of-order fill: pop {small:.0} ns at 1k past entries, \
         {big:.0} ns at 64k ({:.1}x, bound 8x)",
        big / small
    );
}

/// One gateway `step()` (an admission round of `max_batch` picks plus a
/// decode iteration) with `backlog` queued requests: returns the heap
/// allocations and scheduler key comparisons it performed.
fn gateway_admit_work(policy: PolicyKind, backlog: u64) -> (u64, u64) {
    let geom = *zoo::mistral_7b().llm_geometry().unwrap();
    let mut e = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        policy,
        GatewayConfig {
            max_batch: 8,
            max_outstanding_per_tenant: 1_000_000,
            ..GatewayConfig::default()
        },
    );
    // Nanosecond-spaced arrivals: distinct tie-breaker keys, but a span far
    // below the 60 s aging threshold so no promotions land mid-measure.
    for i in 0..backlog {
        e.submit(InferenceRequest::text(i, 100, 8), SimTime::from_nanos(i));
    }
    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    let comps_before = sched_comparisons();
    black_box(e.step(SimTime::from_millis(1)));
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let comps = sched_comparisons() - comps_before;
    black_box(&e);
    (allocs, comps)
}

/// Gateway admission must be backlog-independent: the incremental scheduler
/// indices make one admission round cost O(batch · log backlog) — never a
/// scan or sort of the whole queue. One `step()` at a backlog of 10,000 may
/// not allocate more than the same step at 1,000 (plus fixed slack), and
/// its scheduler-key comparisons may at most double (tree depth grows by
/// log₁₀, nowhere near the 10× a backlog-linear walk would show). Before
/// the index rework, `admit()` cloned and sorted every eligible entry per
/// iteration — ~10⁵ comparisons and thousands of allocations at this depth.
fn assert_gateway_admit_is_backlog_independent() {
    for policy in PolicyKind::ALL {
        let (allocs_small, comps_small) = gateway_admit_work(policy, 1_000);
        let (allocs_big, comps_big) = gateway_admit_work(policy, 10_000);
        let alloc_cap = allocs_small + 64;
        assert!(
            allocs_big <= alloc_cap,
            "{policy}: admit at backlog 10k made {allocs_big} allocations \
             vs {allocs_small} at 1k (cap {alloc_cap}) — backlog-dependent work",
        );
        let comp_cap = 2 * comps_small + 256;
        assert!(
            comps_big <= comp_cap,
            "{policy}: admit at backlog 10k made {comps_big} key comparisons \
             vs {comps_small} at 1k (cap {comp_cap}) — backlog-dependent work",
        );
        eprintln!(
            "hot_path: gateway admit [{policy}]: backlog 1k -> 10k: \
             {allocs_small} -> {allocs_big} allocations, \
             {comps_small} -> {comps_big} key comparisons"
        );
    }
}

/// Peak live heap bytes, over what was live before it, of one CFS slice
/// with `backlog` queued prompts. The pool fits the eight active contexts
/// with room to spare, so the selection scan stops at `max_active`. The
/// measured slice is the second: it pages the first slice's eight out and
/// prefills the next eight.
fn cfs_slice_peak_bytes(backlog: u64) -> u64 {
    let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
    let xfer = Rc::new(RefCell::new(TransferEngine::new()));
    let mut e = CfsEngine::new(
        *zoo::mistral_7b().llm_geometry().unwrap(),
        GpuSpec::a100_80g(),
        CfsConfig {
            slice_tokens: 5,
            max_active: 8,
            kv_pool_bytes: gib(1),
        },
        Box::new(DramOffloader::pinned(&server, GpuId(0), xfer)),
    );
    for i in 0..backlog {
        // Output far beyond two slices, so nothing completes.
        e.submit(
            InferenceRequest::text(i, 100, 1_000),
            SimTime::from_nanos(i),
        );
    }
    let now = e.step(SimTime::ZERO);
    let live = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(live, Ordering::SeqCst);
    black_box(e.step(now));
    let peak = PEAK_BYTES.load(Ordering::SeqCst).wrapping_sub(live);
    assert_eq!(e.outstanding() as u64, backlog);
    peak
}

/// A CFS slice picks its active set from the fair index, walking only as
/// far as it picks, so its heap peak may not grow with the backlog: from
/// 1,000 to 10,000 queued prompts it may rise by at most 1 KiB. Sorting
/// an index vector of the whole backlog, as the selection once did, costs
/// 8 B per queued prompt, 72,000 B more at 10k than at 1k.
fn assert_cfs_slice_heap_is_backlog_independent() {
    let small = cfs_slice_peak_bytes(1_000);
    let big = cfs_slice_peak_bytes(10_000);
    assert!(
        big <= small + 1024,
        "a CFS slice's heap peak grew with the backlog: {small} B at 1k, {big} B at 10k \
         (bound: 1k + 1024 B)"
    );
    eprintln!("hot_path: CFS slice heap peak: {small} B at a 1k backlog, {big} B at 10k");
}

/// A digest-only journal hashes each event straight from its fields: no
/// line buffer, no `fmt` into a `String`, no interned label copied. After
/// a warm-up long enough for each label to find its skip table, 10k emits
/// each of a gauge (interned name, integral and fractional values, so the
/// `f64` slow path runs too), a transfer completion and a gateway
/// completion must leave the allocation counter untouched.
fn assert_digest_only_emit_is_allocation_free() {
    let journal = JournalTracer::digest_only();
    let gauge = Lane::from("gateway:fcfs:aqua.queue_depth");
    let lane = Lane::from("nvlink-egress:gpu0");
    let gateway = Lane::from("gateway:fcfs:aqua");
    let emit_round = |i: u64| {
        journal.emit(TraceEvent::Gauge {
            name: gauge.clone(),
            value: i as f64 / if i.is_multiple_of(2) { 1.0 } else { 3.0 },
            at: SimTime::from_nanos(i),
        });
        journal.emit(TraceEvent::TransferCompleted {
            server: 0,
            lane: lane.clone(),
            bytes: i << 20,
            chunks: 1,
            start: SimTime::from_nanos(i),
            end: SimTime::from_nanos(2 * i),
        });
        journal.emit(TraceEvent::GatewayCompleted {
            gateway: gateway.clone(),
            request: i,
            output_tokens: i % 512,
            at: SimTime::from_nanos(3 * i),
        });
    };
    for i in 0..1_000 {
        emit_round(i);
    }
    const EMITS: u64 = 10_000;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..EMITS {
        emit_round(i);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "digest-only journal made {allocs} allocations over {EMITS} rounds of three emits"
    );
    black_box(journal.digest());
    eprintln!(
        "hot_path: digest-only journal: 0 allocations over {} emits",
        3 * EMITS
    );
}

/// Nanoseconds per `on_iteration_boundary` of an AQUA offloader tracking
/// `leases` peer leases once its book has settled (no fault plan, failure
/// config or auditor, nothing degraded, no DRAM bytes to promote): the
/// best of five batches.
fn quiet_boundary_ns(leases: usize) -> f64 {
    const BOUNDARIES: u64 = 20_000;
    let server = Rc::new(ServerTopology::nvswitch(leases + 1, GpuSpec::a100_80g()));
    let transfers = Rc::new(RefCell::new(TransferEngine::new()));
    let coordinator = Rc::new(Coordinator::new());
    for g in 1..=leases {
        coordinator.lease(GpuRef::single(GpuId(g)), gib(1));
    }
    let mut off = AquaOffloader::new(
        GpuRef::single(GpuId(0)),
        Rc::clone(&coordinator),
        server,
        transfers,
    );
    // Each lease holds exactly one region, so every swap lands on a fresh
    // lease and the consumer ends up tracking all of them.
    let mut now = SimTime::ZERO;
    for _ in 0..leases {
        now = off.swap_out(gib(1), 1, now);
    }
    assert_eq!(off.peer_total(), gib(leases as u64));
    assert_eq!(off.dram_total(), 0);
    // The first boundary sweeps the settled book and finds nothing.
    off.on_iteration_boundary(now);
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..BOUNDARIES {
                black_box(off.on_iteration_boundary(now + SimDuration::from_nanos(i)));
            }
            start.elapsed().as_nanos() as f64 / BOUNDARIES as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A passive iteration boundary must cost the same however many leases the
/// consumer tracks: once a sweep found nothing to act on, the boundary
/// returns at once on `boundary_is_quiet` until the coordinator's book
/// revision moves, and the predicate walks no lease. One boundary with 64
/// tracked leases may cost at most 2x one with 1 lease; sweeping them
/// every time was one lease-state and one pending-reclaim lookup per lease.
fn assert_quiet_boundary_is_flat() {
    let one = quiet_boundary_ns(1);
    let many = quiet_boundary_ns(64);
    assert!(
        many <= 2.0 * one,
        "a quiet boundary with 64 tracked leases cost {many:.0} ns vs {one:.0} ns with 1 \
         (bound 2x): the boundary walks the leases although the book has not moved"
    );
    eprintln!(
        "hot_path: quiet iteration boundary: {one:.0} ns with 1 tracked lease, {many:.0} ns \
         with 64 ({:.2}x, bound 2x)",
        many / one
    );
}

fn main() {
    assert_untraced_schedule_is_allocation_free();
    assert_placer_solve_allocation_bounded();
    assert_untraced_decode_step_is_allocation_lean();
    assert_steady_decode_run_is_allocation_lean();
    assert_quiet_aqua_decode_run_is_allocation_lean();
    assert_drained_streams_share_the_clock();
    assert_driver_queues_arrivals_on_demand();
    assert_scale_memory_per_request_is_bounded();
    assert_idle_server_is_never_ticked();
    assert_out_of_order_fill_pops_stay_logarithmic();
    assert_gateway_admit_is_backlog_independent();
    assert_cfs_slice_heap_is_backlog_independent();
    assert_digest_only_emit_is_allocation_free();
    assert_quiet_boundary_is_flat();
}
