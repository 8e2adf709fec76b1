//! Figures 10 and 11 — elastic AQUA tensors under changing load.
//!
//! A Llama-2-13B producer (vLLM + llm-informer) shares the 2-GPU server
//! with an OPT-30B long-prompt consumer (FlexGen + AQUA):
//!
//! * Quiet start → the informer donates everything above the 5 GB retain
//!   floor; the consumer's offloaded context lands on the producer's HBM
//!   and throughput jumps (~6×, Figure 10b).
//! * At t≈150 s the producer serves 100 requests at 1 req/s — the retained
//!   memory absorbs them.
//! * At t≈400 s a burst of 250 requests at 5 req/s builds the queue; the
//!   informer reclaims, the consumer blocks while releasing (migrating its
//!   tensors to DRAM over PCIe) and then runs at DRAM speed.
//! * When the burst drains the informer donates again and the offloader
//!   promotes the tensors back — throughput recovers.
//!
//! Figure 11 reruns the producer workload without AQUA to show donation
//! costs the producer almost nothing except the reclaim pause.

use crate::setup::{opt_flexgen, OffloadKind, ServerCtx};
use aqua_core::informer::LlmInformerConfig;
use aqua_engines::driver::{Driver, Engine};
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::requests::RequestLog;
use aqua_metrics::table::Table;
use aqua_metrics::timeseries::TimeSeries;
use aqua_models::zoo;
use aqua_sim::gpu::GpuId;
use aqua_sim::link::GIB;
use aqua_sim::time::SimTime;
use aqua_workloads::longprompt::long_prompt_trace;
use aqua_workloads::sampling::Sampler;

/// The experiment timeline (seconds).
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    /// When the consumer job and the low-rate producer phase start.
    pub low_phase_start: u64,
    /// Low-phase request count at 1 req/s.
    pub low_count: usize,
    /// When the high-rate burst starts.
    pub burst_start: u64,
    /// Burst request count at 5 req/s.
    pub burst_count: usize,
    /// Total window.
    pub end: u64,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline {
            low_phase_start: 150,
            low_count: 100,
            burst_start: 400,
            burst_count: 250,
            end: 700,
        }
    }
}

/// Results of the elasticity run.
#[derive(Debug)]
pub struct Fig10Result {
    /// Figure 10a: producer free memory (GiB) over time.
    pub producer_free: TimeSeries,
    /// Figure 10b: consumer decode throughput (tokens/s) per sample bucket.
    pub consumer_throughput: TimeSeries,
    /// Producer request log with AQUA active (Figure 11 "AQUA" series).
    pub producer_log: RequestLog,
    /// Consumer tokens generated in the whole window.
    pub consumer_tokens: u64,
}

/// The producer's two-phase trace, in time order.
fn producer_trace(
    tl: &Timeline,
    seed: u64,
) -> Vec<(SimTime, aqua_engines::request::InferenceRequest)> {
    // ShareGPT-like lengths with the paper's two-phase arrival pattern.
    let mut s = Sampler::new(seed);
    let mut out = Vec::new();
    let mut id = 500_000u64;
    let phase = |start: u64,
                 rate: f64,
                 count: usize,
                 output_mu: f64,
                 s: &mut Sampler,
                 out: &mut Vec<_>,
                 id: &mut u64| {
        for at in s.poisson_arrivals(SimTime::from_secs(start), rate, count) {
            let prompt = s.token_count(5.2, 0.9, 16, 1024);
            let output = s.token_count(output_mu, 0.7, 16, 1024);
            out.push((
                at,
                aqua_engines::request::InferenceRequest::text(*id, prompt, output),
            ));
            *id += 1;
        }
    };
    // Low phase: ordinary ShareGPT responses — the retained 5 GB copes.
    phase(
        tl.low_phase_start,
        1.0,
        tl.low_count,
        5.0,
        &mut s,
        &mut out,
        &mut id,
    );
    // Burst: long responses at 5 req/s genuinely exhaust the retained
    // memory, so the informer reclaims.
    phase(
        tl.burst_start,
        5.0,
        tl.burst_count,
        5.8,
        &mut s,
        &mut out,
        &mut id,
    );
    // A low phase that runs into the burst interleaves with it; the
    // driver takes a trace in time order.
    out.sort_by_key(|&(at, _)| at);
    out
}

/// Runs the elasticity experiment, sampling every `sample_secs`.
pub fn run(tl: &Timeline, sample_secs: u64, seed: u64) -> Fig10Result {
    let ctx = ServerCtx::two_gpu();
    let mut producer =
        ctx.llm_producer_with_informer(&zoo::llama2_13b(), GpuId(1), LlmInformerConfig::default());
    let mut consumer = opt_flexgen(
        &ctx,
        OffloadKind::Aqua,
        crate::fig07_long_prompt::CONTEXT_BUDGET,
    );

    let mut driver = Driver::new();
    let start = SimTime::from_secs(tl.low_phase_start);
    driver.schedule_trace(
        0,
        long_prompt_trace(1, 1_000_000, 0)
            .into_iter()
            .map(move |(_, r)| (start, r)),
    );
    driver.schedule_trace(1, producer_trace(tl, seed));

    let mut producer_free = TimeSeries::new("producer-free-gib");
    let mut consumer_throughput = TimeSeries::new("consumer-tokens-per-s");
    let mut last_tokens = 0u64;

    let mut t = 0u64;
    while t < tl.end {
        t = (t + sample_secs).min(tl.end);
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut consumer, &mut producer];
            driver.run(&mut engines, SimTime::from_secs(t));
        }
        let stats = aqua_engines::northbound::MemoryElastic::stats(&producer);
        let free = stats
            .context_reserved_bytes
            .saturating_sub(stats.context_used_bytes);
        producer_free.push(SimTime::from_secs(t), free as f64 / GIB);
        let tokens = consumer.tokens_generated();
        consumer_throughput.push(
            SimTime::from_secs(t),
            (tokens - last_tokens) as f64 / sample_secs as f64,
        );
        last_tokens = tokens;
    }

    Fig10Result {
        producer_free,
        consumer_throughput,
        producer_log: producer.drain_completions().into_iter().collect(),
        consumer_tokens: consumer.tokens_generated(),
    }
}

/// Figure 11 baseline: the identical producer workload without AQUA.
pub fn run_producer_baseline(tl: &Timeline, seed: u64) -> RequestLog {
    let ctx = ServerCtx::two_gpu();
    let mut producer =
        ctx.llm_producer_with_informer(&zoo::llama2_13b(), GpuId(1), LlmInformerConfig::default());
    // Strip the informer by rebuilding a plain engine with the same pool.
    let _ = &mut producer;
    let geom = *zoo::llama2_13b().llm_geometry().unwrap();
    let pool = aqua_sim::gpu::GpuSpec::a100_80g().hbm_bytes
        - aqua_models::cost::llm_static_bytes(&geom, 4096);
    let mut baseline = GatewayEngine::new(
        geom,
        aqua_sim::gpu::GpuSpec::a100_80g(),
        PolicyKind::Fcfs,
        GatewayConfig {
            kv_pool_bytes: pool,
            ..GatewayConfig::vllm()
        },
    );
    let mut driver = Driver::new();
    driver.schedule_trace(0, producer_trace(tl, seed));
    let mut engines: Vec<&mut dyn Engine> = vec![&mut baseline];
    driver.run(&mut engines, SimTime::from_secs(tl.end + 600));
    baseline.drain_completions().into_iter().collect()
}

/// Renders Figure 10 as two time-series tables.
pub fn table(result: &Fig10Result) -> Table {
    let mut t = Table::new(
        "Figure 10: producer free memory and consumer throughput over time",
        &["t_s", "producer_free_gib", "consumer_tokens_per_s"],
    );
    for ((ts, free), (_, tput)) in result
        .producer_free
        .points()
        .iter()
        .zip(result.consumer_throughput.points())
    {
        t.row(&[
            format!("{:.0}", ts.as_secs_f64()),
            format!("{free:.1}"),
            format!("{tput:.2}"),
        ]);
    }
    t
}

/// Renders Figure 11: sorted producer RCTs with and without AQUA.
pub fn producer_table(aqua: &RequestLog, baseline: &RequestLog) -> Table {
    let mut t = Table::new(
        "Figure 11: producer RCTs, baseline vs donating via AQUA",
        &["system", "n", "rct_p50_s", "rct_p95_s", "rct_max_s"],
    );
    for (name, log) in [("baseline", baseline), ("aqua", aqua)] {
        let s = log.rct_summary();
        t.row(&[
            name.to_owned(),
            log.len().to_string(),
            format!("{:.3}", s.p50),
            format!("{:.3}", s.p95),
            format!("{:.3}", s.max),
        ]);
    }
    t
}

/// Helper for tests and ablations: run with a custom informer threshold.
pub fn run_with_informer(tl: &Timeline, config: LlmInformerConfig, seed: u64) -> (u64, RequestLog) {
    let ctx = ServerCtx::two_gpu();
    let mut producer = ctx.llm_producer_with_informer(&zoo::llama2_13b(), GpuId(1), config);
    let mut consumer = opt_flexgen(
        &ctx,
        OffloadKind::Aqua,
        crate::fig07_long_prompt::CONTEXT_BUDGET,
    );
    let mut driver = Driver::new();
    let start = SimTime::from_secs(tl.low_phase_start);
    driver.schedule_trace(
        0,
        long_prompt_trace(1, 1_000_000, 0)
            .into_iter()
            .map(move |(_, r)| (start, r)),
    );
    driver.schedule_trace(1, producer_trace(tl, seed));
    let mut engines: Vec<&mut dyn Engine> = vec![&mut consumer, &mut producer];
    driver.run(&mut engines, SimTime::from_secs(tl.end));
    (
        consumer.tokens_generated(),
        producer.drain_completions().into_iter().collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_timeline() -> Timeline {
        Timeline {
            low_phase_start: 20,
            low_count: 20,
            burst_start: 80,
            burst_count: 200,
            end: 180,
        }
    }

    #[test]
    fn donation_then_reclaim_shapes_free_memory() {
        let tl = short_timeline();
        let r = run(&tl, 5, 11);
        // Early: informer donated, free ≈ retain floor (5 GiB).
        let early = r
            .producer_free
            .value_at(SimTime::from_secs(tl.low_phase_start))
            .unwrap();
        assert!(early < 10.0, "free after donation {early:.1} GiB");
        // After the burst begins, memory comes back (> 20 GiB).
        let late_max = r
            .producer_free
            .points()
            .iter()
            .filter(|(t, _)| t.as_secs_f64() >= tl.burst_start as f64)
            .map(|(_, v)| *v)
            .fold(0.0, f64::max);
        assert!(late_max > 20.0, "reclaimed free {late_max:.1} GiB");
        assert!(r.consumer_tokens > 0);
        assert!(!table(&r).is_empty());
    }

    #[test]
    fn consumer_fast_while_donated_slow_after_reclaim() {
        let tl = short_timeline();
        let r = run(&tl, 5, 13);
        let early_rate = r
            .consumer_throughput
            .mean_in(
                SimTime::from_secs(tl.low_phase_start + 10),
                SimTime::from_secs(tl.burst_start),
            )
            .unwrap_or(0.0);
        // The dip: the slowest sample bucket while the burst holds the
        // producer's memory (throughput recovers once the informer donates
        // again, so the mean over the whole tail would wash the dip out).
        let dip = r
            .consumer_throughput
            .points()
            .iter()
            .filter(|(t, _)| {
                let s = t.as_secs_f64();
                s > (tl.burst_start + 5) as f64 && s < (tl.end - 5) as f64
            })
            .map(|(_, v)| *v)
            .fold(f64::MAX, f64::min);
        assert!(
            early_rate > 2.0 * dip.max(0.1),
            "fabric phase {early_rate:.2} tok/s vs reclaim dip {dip:.2}"
        );
    }

    #[test]
    fn producer_overhead_is_small_outside_reclaim() {
        let tl = short_timeline();
        let aqua = run(&tl, 5, 17).producer_log;
        let baseline = run_producer_baseline(&tl, 17);
        assert!(aqua.len() >= 130, "aqua producer finished {}", aqua.len());
        assert_eq!(baseline.len(), 220);
        let ratio = aqua.rct_summary().p50 / baseline.rct_summary().p50;
        assert!(
            ratio < 2.0,
            "median producer RCT ratio {ratio:.2} (paper: near parity)"
        );
        assert!(!producer_table(&aqua, &baseline).is_empty());
    }
}
