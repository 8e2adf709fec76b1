//! Chaos run — Figure 10's elasticity timeline with the producer crashing.
//!
//! The same 2-GPU server as Figure 10: a Llama-2-13B producer donating via
//! its llm-informer and an OPT-30B long-prompt consumer (FlexGen + AQUA).
//! Instead of a request burst, the producer GPU *crashes* mid-lease:
//!
//! * Quiet start → the informer donates, the consumer's context lands on
//!   the producer's HBM, throughput jumps to the fabric rate.
//! * At `crash_start` a [`FaultPlan`] takes the producer GPU down. The
//!   transfer engine aborts its in-flight fabric transfers, the driver
//!   stops ticking the producer (so no informer heartbeats), and after the
//!   chaos heartbeat TTL the coordinator expires the lease.
//! * The consumer's next iteration boundary finds the lease revoked,
//!   re-materialises the stranded bytes into host DRAM over PCIe, and
//!   enters degraded mode — new offloads pin to DRAM until the window
//!   lapses. During the fault it runs at DRAM speed, never losing a
//!   request.
//! * At `crash_end` the producer returns; its informer resyncs its books
//!   against the coordinator and donates again, and the offloader
//!   promotes the context back to the fabric — throughput recovers.
//!
//! The report compares the fault-window throughput against a consumer-only
//! FlexGen DRAM baseline (the acceptance bound: within 2×) and the
//! recovered throughput against the pre-fault rate (≥ 90%).

use crate::setup::{opt_flexgen, OffloadKind, ServerCtx};
use aqua_core::coordinator::FailureConfig;
use aqua_engines::driver::{Driver, Engine};
use aqua_metrics::table::Table;
use aqua_metrics::timeseries::TimeSeries;
use aqua_sim::audit::SharedAuditor;
use aqua_sim::fault::FaultPlan;
use aqua_sim::gpu::GpuId;
use aqua_sim::time::SimTime;
use aqua_telemetry::{SharedTracer, TraceEvent, Tracer};
use aqua_workloads::longprompt::long_prompt_trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The chaos timeline (seconds).
#[derive(Debug, Clone, Copy)]
pub struct ChaosTimeline {
    /// When the consumer job arrives (the producer idles and donates).
    pub consumer_start: u64,
    /// When the producer GPU crashes.
    pub crash_start: u64,
    /// When the producer GPU comes back.
    pub crash_end: u64,
    /// Total window.
    pub end: u64,
}

impl Default for ChaosTimeline {
    fn default() -> Self {
        ChaosTimeline {
            consumer_start: 20,
            crash_start: 300,
            crash_end: 420,
            end: 700,
        }
    }
}

impl ChaosTimeline {
    /// A scaled-down timeline for tests (same phases, shorter window).
    pub fn short() -> Self {
        ChaosTimeline {
            consumer_start: 10,
            crash_start: 60,
            crash_end: 100,
            end: 200,
        }
    }

    /// Sampling span for the healthy pre-fault phase (skip warm-up).
    fn pre_span(&self) -> (SimTime, SimTime) {
        (
            SimTime::from_secs(self.consumer_start + 10),
            SimTime::from_secs(self.crash_start),
        )
    }

    /// Sampling span inside the fault (skip the lease-expiry TTL and the
    /// blocking DRAM re-materialisation at the front).
    fn fault_span(&self) -> (SimTime, SimTime) {
        (
            SimTime::from_secs(self.crash_start + 15),
            SimTime::from_secs(self.crash_end),
        )
    }

    /// Sampling span after recovery (skip the degraded-window tail and the
    /// promotion copy).
    fn recovery_span(&self) -> (SimTime, SimTime) {
        (
            SimTime::from_secs(self.crash_end + 20),
            SimTime::from_secs(self.end),
        )
    }
}

/// The traced chaos run (digest-checkable — no baselines, no counters).
#[derive(Debug)]
pub struct ChaosResult {
    /// Consumer decode throughput (tokens/s) per sample bucket.
    pub consumer_throughput: TimeSeries,
    /// Consumer tokens generated over the whole window.
    pub consumer_tokens: u64,
    /// Mean throughput while the lease is healthy.
    pub pre_fault_tput: f64,
    /// Mean throughput while the producer is down (degraded mode).
    pub fault_tput: f64,
    /// Mean throughput after the producer returns and re-donates.
    pub recovery_tput: f64,
}

/// The full chaos report: the traced run plus the DRAM baseline and the
/// robustness counters the acceptance criteria check.
#[derive(Debug)]
pub struct ChaosReport {
    /// The chaos run itself.
    pub chaos: ChaosResult,
    /// Consumer-only FlexGen DRAM baseline mean throughput (no fault).
    pub dram_baseline_tput: f64,
    /// The fault-free AQUA run's mean throughput over the recovery span
    /// (the recovery yardstick — same context length, no crash).
    pub nofault_recovery_tput: f64,
    /// Leases the coordinator expired on missed heartbeats.
    pub lease_expirations: u64,
    /// Offloader failovers down the lease → sibling → DRAM ladder.
    pub failovers: u64,
    /// Aborted fabric transfers the offloader retried.
    pub retries: u64,
    /// Times the offloader entered degraded (DRAM-pinned) mode.
    pub degraded_entries: u64,
}

/// One producer+consumer run over the chaos timeline, with the fault
/// injected or not. Returns the sampled consumer throughput and the total
/// token count.
fn run_consumer(
    tl: &ChaosTimeline,
    sample_secs: u64,
    tracer: SharedTracer,
    faulted: bool,
    auditor: Option<SharedAuditor>,
) -> (TimeSeries, u64) {
    let mut ctx = ServerCtx::two_gpu_traced(tracer.clone());
    if let Some(aud) = &auditor {
        ctx = ctx.with_auditor(aud.clone());
    }
    if faulted {
        let plan = Arc::new(FaultPlan::new().gpu_crash(
            GpuId(1),
            SimTime::from_secs(tl.crash_start),
            SimTime::from_secs(tl.crash_end),
        ));
        ctx = ctx.with_fault_plan(Arc::clone(&plan));
        plan.emit(&tracer);
        ctx.coordinator.set_failure_config(FailureConfig::chaos());
    }

    let start = SimTime::from_secs(tl.consumer_start);
    let (mut consumer, mut producer, mut driver) = ctx.donation_cell(
        long_prompt_trace(1, 1_000_000, 0)
            .into_iter()
            .map(move |(_, r)| (start, r)),
    );

    let mut consumer_throughput = TimeSeries::new("consumer-tokens-per-s");
    let mut last_tokens = 0u64;
    let mut t = 0u64;
    while t < tl.end {
        t = (t + sample_secs).min(tl.end);
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut consumer, &mut producer];
            driver.run(&mut engines, SimTime::from_secs(t));
        }
        let tokens = consumer.tokens_generated();
        consumer_throughput.push(
            SimTime::from_secs(t),
            (tokens - last_tokens) as f64 / sample_secs as f64,
        );
        last_tokens = tokens;
    }
    let tokens = consumer.tokens_generated();
    (consumer_throughput, tokens)
}

/// Runs the chaos experiment against an explicit tracer, sampling every
/// `sample_secs`. Determinism tests call this twice with two journals and
/// compare digests.
///
/// With an `auditor`, the transfer engine, coordinator, driver and
/// offloader all report into it. A clean audited run journals the exact
/// same event stream — and digest — as an unaudited one
/// (`tests/determinism.rs` pins this).
pub fn run_traced(
    tl: &ChaosTimeline,
    sample_secs: u64,
    tracer: SharedTracer,
    auditor: Option<SharedAuditor>,
) -> ChaosResult {
    let (consumer_throughput, consumer_tokens) =
        run_consumer(tl, sample_secs, tracer, true, auditor);
    let mean = |(a, b)| consumer_throughput.mean_in(a, b).unwrap_or(0.0);
    let pre_fault_tput = mean(tl.pre_span());
    let fault_tput = mean(tl.fault_span());
    let recovery_tput = mean(tl.recovery_span());
    ChaosResult {
        consumer_throughput,
        consumer_tokens,
        pre_fault_tput,
        fault_tput,
        recovery_tput,
    }
}

/// The fault-free AQUA run's mean throughput over the recovery span — the
/// apples-to-apples yardstick for recovery. (The long-prompt job's
/// per-token cost grows with its context, so the pre-fault rate overstates
/// what even a healthy run does this late in the window.)
fn run_nofault_recovery(tl: &ChaosTimeline, sample_secs: u64) -> f64 {
    let (ts, _) = run_consumer(tl, sample_secs, aqua_telemetry::null_tracer(), false, None);
    let (a, b) = tl.recovery_span();
    ts.mean_in(a, b).unwrap_or(0.0)
}

/// The consumer-only FlexGen baseline: same job, DRAM offload, no fault.
/// This is the floor the degraded consumer is measured against.
fn run_dram_baseline(tl: &ChaosTimeline, sample_secs: u64) -> f64 {
    // Silenced: the baseline is an internal yardstick; an `AQUA_TRACE`
    // capture of the chaos experiment should witness the faulted run, not
    // this one.
    let ctx = ServerCtx::two_gpu_traced(aqua_telemetry::null_tracer());
    let mut consumer = opt_flexgen(
        &ctx,
        OffloadKind::DramPinned,
        crate::fig07_long_prompt::CONTEXT_BUDGET,
    );
    let mut driver = Driver::new();
    let start = SimTime::from_secs(tl.consumer_start);
    driver.schedule_trace(
        0,
        long_prompt_trace(1, 1_000_000, 0)
            .into_iter()
            .map(move |(_, r)| (start, r)),
    );
    let mut ts = TimeSeries::new("dram-baseline-tokens-per-s");
    let mut last_tokens = 0u64;
    let mut t = 0u64;
    while t < tl.end {
        t = (t + sample_secs).min(tl.end);
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut consumer];
            driver.run(&mut engines, SimTime::from_secs(t));
        }
        let tokens = consumer.tokens_generated();
        ts.push(
            SimTime::from_secs(t),
            (tokens - last_tokens) as f64 / sample_secs as f64,
        );
        last_tokens = tokens;
    }
    ts.mean_in(
        SimTime::from_secs(tl.consumer_start + 10),
        SimTime::from_secs(tl.end),
    )
    .unwrap_or(0.0)
}

/// The faulted run's tracer: forwards every event to `sink` and counts
/// the four the report's `counters` row prints, so the row covers this run
/// alone whatever journal `sink` is.
#[derive(Debug)]
struct RowCounter {
    sink: SharedTracer,
    /// Lease expirations, failovers, retries, degraded-mode entries.
    counts: [AtomicU64; 4],
}

impl Tracer for RowCounter {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: TraceEvent) {
        let slot = match &event {
            TraceEvent::LeaseExpired { .. } => Some(0),
            TraceEvent::FailoverEngaged { .. } => Some(1),
            TraceEvent::TransferRetried { .. } => Some(2),
            TraceEvent::DegradedMode { state, .. } if state == "enter" => Some(3),
            _ => None,
        };
        if let Some(slot) = slot {
            self.counts[slot].fetch_add(1, Ordering::Relaxed);
        }
        self.sink.emit(event);
    }
}

/// Runs the chaos experiment end to end: traced run, DRAM baseline, and
/// the robustness counters.
pub fn run(tl: &ChaosTimeline, sample_secs: u64) -> ChaosReport {
    // With a sweep-point override or `AQUA_TRACE` active, the faulted run
    // journals into that capture so the exported trace and digest witness
    // the fault cascade; otherwise its events are counted and dropped.
    let row = Arc::new(RowCounter {
        sink: crate::trace::tracer(),
        counts: Default::default(),
    });
    let chaos = run_traced(tl, sample_secs, row.clone(), None);
    let [lease_expirations, failovers, retries, degraded_entries] =
        row.counts.each_ref().map(|c| c.load(Ordering::Relaxed));
    ChaosReport {
        chaos,
        dram_baseline_tput: run_dram_baseline(tl, sample_secs),
        nofault_recovery_tput: run_nofault_recovery(tl, sample_secs),
        lease_expirations,
        failovers,
        retries,
        degraded_entries,
    }
}

/// Renders the chaos report: the throughput time-series plus a phase
/// summary against the acceptance bounds.
pub fn table(report: &ChaosReport) -> Table {
    let mut t = Table::new(
        "Chaos: consumer throughput through a producer crash",
        &["t_s", "consumer_tokens_per_s"],
    );
    for (ts, tput) in report.chaos.consumer_throughput.points() {
        t.row(&[format!("{:.0}", ts.as_secs_f64()), format!("{tput:.2}")]);
    }
    t
}

/// The phase summary table (pre / fault / recovery vs the bounds).
fn summary_table(report: &ChaosReport) -> Table {
    let mut t = Table::new(
        "Chaos summary: phase means vs acceptance bounds",
        &["phase", "tokens_per_s", "bound"],
    );
    t.row(&[
        "pre-fault (fabric)".into(),
        format!("{:.2}", report.chaos.pre_fault_tput),
        "-".into(),
    ]);
    t.row(&[
        "fault (degraded)".into(),
        format!("{:.2}", report.chaos.fault_tput),
        format!(">= {:.2} (dram/2)", report.dram_baseline_tput / 2.0),
    ]);
    t.row(&[
        "recovery".into(),
        format!("{:.2}", report.chaos.recovery_tput),
        format!(
            ">= {:.2} (0.9x healthy)",
            0.9 * report.nofault_recovery_tput
        ),
    ]);
    t.row(&[
        "healthy run, same span".into(),
        format!("{:.2}", report.nofault_recovery_tput),
        "-".into(),
    ]);
    t.row(&[
        "dram baseline".into(),
        format!("{:.2}", report.dram_baseline_tput),
        "-".into(),
    ]);
    t.row(&[
        "counters".into(),
        format!(
            "expirations={} failovers={} retries={} degraded={}",
            report.lease_expirations, report.failovers, report.retries, report.degraded_entries
        ),
        "-".into(),
    ]);
    t
}

/// The `aqua-repro` decomposition: one chaos-timeline point (faults and
/// parallel fan-out compose — the point digest captures the cascade).
pub fn repro_points(_a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    vec![
        crate::runner::ReproPoint::new("chaos", "default-timeline", move || {
            let tl = ChaosTimeline::default();
            let r = run(&tl, 10);
            format!("{}\n{}\n", table(&r), summary_table(&r))
        })
        .with_cost_hint(20),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_telemetry::JournalTracer;

    #[test]
    fn producer_crash_degrades_then_recovers() {
        let tl = ChaosTimeline::short();
        let r = run(&tl, 5);
        // The lease must actually have expired and the offloader failed over.
        assert!(r.lease_expirations >= 1, "no lease expired: {r:?}");
        assert!(r.failovers >= 1, "no failover engaged: {r:?}");
        assert!(r.degraded_entries >= 1, "never entered degraded: {r:?}");
        // Fabric phase beats the fault phase; the fault phase still moves.
        assert!(
            r.chaos.pre_fault_tput > r.chaos.fault_tput,
            "pre {:.2} vs fault {:.2}",
            r.chaos.pre_fault_tput,
            r.chaos.fault_tput
        );
        assert!(r.chaos.fault_tput > 0.0, "consumer stalled during fault");
        // Degraded throughput stays within 2x of the DRAM baseline.
        assert!(
            r.chaos.fault_tput >= r.dram_baseline_tput / 2.0,
            "fault {:.2} vs dram baseline {:.2}",
            r.chaos.fault_tput,
            r.dram_baseline_tput
        );
        // Recovery reaches >= 90% of what the identical fault-free run does
        // over the same span.
        assert!(
            r.chaos.recovery_tput >= 0.9 * r.nofault_recovery_tput,
            "recovery {:.2} vs healthy {:.2}",
            r.chaos.recovery_tput,
            r.nofault_recovery_tput
        );
        assert!(!table(&r).is_empty());
        assert!(!summary_table(&r).is_empty());
    }

    #[test]
    fn counters_row_counts_only_its_own_run() {
        let journal = Arc::new(JournalTracer::digest_only());
        let counts = |r: &ChaosReport| {
            (
                r.lease_expirations,
                r.failovers,
                r.retries,
                r.degraded_entries,
            )
        };
        let (first, second) = crate::trace::with_tracer(journal.clone(), || {
            let tl = ChaosTimeline::default();
            (run(&tl, 10), run(&tl, 10))
        });
        assert_eq!(counts(&first), (1, 3, 6, 1));
        assert_eq!(counts(&second), (1, 3, 6, 1));
        assert!(
            !journal.is_empty(),
            "the faulted runs journal into the capture"
        );
    }

    #[test]
    fn traced_chaos_runs_are_digest_identical() {
        let tl = ChaosTimeline::short();
        let a = Arc::new(JournalTracer::new());
        let b = Arc::new(JournalTracer::new());
        let ra = run_traced(&tl, 5, a.clone(), None);
        let rb = run_traced(&tl, 5, b.clone(), None);
        assert_eq!(ra.consumer_tokens, rb.consumer_tokens);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.digest(), b.digest());
        assert!(!a.is_empty(), "chaos run journaled nothing");
    }
}
