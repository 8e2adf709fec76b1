//! Figure 12 — AQUA's benefit grows with offloaded-tensor size.
//!
//! 200 synthesized adapters at a fixed size (160 MB or 320 MB), 200 prompts
//! at 10 req/s, **each prompt assigned a different adapter** (guaranteed
//! cache misses), 10 GB reserved for the GPU adapter cache. The larger
//! adapter moves more bytes for the same compute, so AQUA's faster loads
//! save more — "AQUA benefits workloads that need larger I/O more".

use crate::setup::{mistral_lora_vllm, OffloadKind, ServerCtx};
use aqua_engines::driver::{Driver, Engine};
use aqua_engines::request::InferenceRequest;
use aqua_metrics::requests::RequestLog;
use aqua_metrics::table::Table;
use aqua_models::lora::LoraAdapter;
use aqua_sim::gpu::GpuId;
use aqua_sim::link::bytes::{gib, mib};
use aqua_sim::time::SimTime;
use aqua_workloads::sampling::Sampler;

/// Result for one adapter size: baseline and AQUA logs.
#[derive(Debug)]
pub struct Fig12Result {
    /// Adapter size in bytes.
    pub adapter_bytes: u64,
    /// Baseline (DRAM per-tensor loads) log.
    pub baseline: RequestLog,
    /// AQUA log.
    pub aqua: RequestLog,
}

impl Fig12Result {
    /// Median-RCT improvement factor.
    pub fn p50_improvement(&self) -> f64 {
        self.baseline.rct_summary().p50 / self.aqua.rct_summary().p50
    }
}

fn trace(count: usize, rate: f64, seed: u64) -> Vec<(SimTime, InferenceRequest)> {
    let mut s = Sampler::new(seed);
    s.poisson_arrivals(SimTime::ZERO, rate, count)
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let prompt = s.token_count(5.0, 0.8, 16, 1024);
            let output = s.token_count(4.2, 0.7, 8, 256);
            // Each prompt gets its own adapter: guaranteed miss.
            (
                at,
                InferenceRequest::with_adapter(i as u64, prompt, output, i),
            )
        })
        .collect()
}

/// Runs the experiment for one adapter size.
pub fn run(adapter_bytes: u64, count: usize, rate: f64, seed: u64) -> Fig12Result {
    let cache_slots = (gib(10) / adapter_bytes) as usize;
    let pool: Vec<LoraAdapter> = (0..count)
        .map(|i| LoraAdapter::sized_like_mistral(format!("syn-{i}"), adapter_bytes))
        .collect();
    let trace = trace(count, rate, seed);

    let run_one = |kind: OffloadKind| -> RequestLog {
        let ctx = ServerCtx::two_gpu();
        if kind == OffloadKind::Aqua {
            // StableDiffusion producer: lease covers the adapter pool.
            ctx.static_lease(GpuId(1), (adapter_bytes * count as u64) + gib(2));
        }
        let mut engine = mistral_lora_vllm(&ctx, kind, pool.clone(), cache_slots);
        let mut driver = Driver::new();
        driver.schedule_trace(0, trace.clone());
        let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
        driver.run(&mut engines, SimTime::from_secs(3_600));
        engine.drain_completions().into_iter().collect()
    };

    Fig12Result {
        adapter_bytes,
        baseline: run_one(OffloadKind::DramPageable),
        aqua: run_one(OffloadKind::Aqua),
    }
}

/// Renders the per-size comparison.
pub fn table(results: &[Fig12Result]) -> Table {
    let mut t = Table::new(
        "Figure 12: AQUA benefit vs offloaded tensor size (200 adapters, 10 req/s)",
        &[
            "adapter_mb",
            "baseline_rct_p50_s",
            "aqua_rct_p50_s",
            "improvement",
        ],
    );
    for r in results {
        t.row(&[
            (r.adapter_bytes >> 20).to_string(),
            format!("{:.3}", r.baseline.rct_summary().p50),
            format!("{:.3}", r.aqua.rct_summary().p50),
            format!("{:.2}x", r.p50_improvement()),
        ]);
    }
    t
}

/// The paper's two sizes.
fn paper_sizes() -> [u64; 2] {
    [mib(160), mib(320)]
}

/// The `aqua-repro` decomposition: one sweep point per adapter size.
pub fn repro_points(a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    let (count, seed) = (a.count, a.seed);
    paper_sizes()
        .iter()
        .map(|&bytes| {
            crate::runner::ReproPoint::new("fig12", format!("bytes={bytes}"), move || {
                let r = run(bytes, count, 10.0, seed);
                format!("{}\n", table(std::slice::from_ref(&r)))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_adapters_benefit_more() {
        let small = run(mib(160), 60, 10.0, 21);
        let large = run(mib(320), 60, 10.0, 21);
        assert!(small.baseline.len() >= 55);
        assert!(large.aqua.len() >= 55);
        let si = small.p50_improvement();
        let li = large.p50_improvement();
        assert!(si > 1.05, "160 MB improvement {si:.2}");
        assert!(li > si, "320 MB ({li:.2}x) should beat 160 MB ({si:.2}x)");
        assert!(!table(&[small, large]).is_empty());
    }
}
