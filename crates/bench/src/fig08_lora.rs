//! Figure 8 — LoRA adapter serving (sorted RCTs, up to 1.8×).
//!
//! Mistral-7B serves requests that each need one of 30 × 320 MB adapters;
//! the GPU caches only 10, so most requests must load an adapter. The
//! baseline loads adapters from DRAM with vLLM's default per-tensor copies;
//! AQUA stores them on the colocated producer GPU and loads them as one
//! coalesced NVLink copy. 8a colocates with StableDiffusion(-XL); 8b with a
//! Llama-2-13B producer — the data path is the same, only the lease donor
//! differs.

use crate::setup::{mistral_lora_vllm, OffloadKind, ServerCtx};
use aqua_engines::driver::{Driver, Engine};
use aqua_metrics::requests::RequestLog;
use aqua_metrics::table::Table;
use aqua_models::lora::LoraAdapter;
use aqua_sim::gpu::GpuId;
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_workloads::lora::lora_trace;

/// The Figure 8 pool: 30 copies of the 320 MB Zephyr adapter.
fn adapter_pool() -> Vec<LoraAdapter> {
    LoraAdapter::zephyr().synthesize_pool(30)
}

/// GPU adapter-cache slots ("the serving engine can cache only 10 adapters
/// at a time on the GPU").
const CACHE_SLOTS: usize = 10;

/// Result: per-system completed-request logs.
#[derive(Debug)]
pub struct Fig08Result {
    /// `(system, log)` pairs.
    pub systems: Vec<(String, RequestLog)>,
}

impl Fig08Result {
    /// Log for one system.
    pub fn log_of(&self, system: &str) -> &RequestLog {
        &self
            .systems
            .iter()
            .find(|(s, _)| s == system)
            .unwrap_or_else(|| panic!("system {system} missing"))
            .1
    }

    /// Median-RCT improvement of AQUA over the baseline.
    pub fn p50_improvement(&self) -> f64 {
        self.log_of("baseline").rct_summary().p50 / self.log_of("aqua").rct_summary().p50
    }
}

/// Runs `count` LoRA requests at `rate` req/s against the baseline and
/// AQUA backends.
pub fn run(rate: f64, count: usize, seed: u64) -> Fig08Result {
    let trace = lora_trace(rate, count, 30, seed, 0);
    let mut systems = Vec::new();
    for (name, kind) in [
        ("baseline", OffloadKind::DramPageable),
        ("aqua", OffloadKind::Aqua),
    ] {
        let ctx = ServerCtx::two_gpu();
        if kind == OffloadKind::Aqua {
            // Producer lease covering the whole adapter pool (30 x 320 MB).
            ctx.static_lease(GpuId(1), gib(12));
        }
        let mut engine = mistral_lora_vllm(&ctx, kind, adapter_pool(), CACHE_SLOTS);
        let mut driver = Driver::new();
        driver.schedule_trace(0, trace.clone());
        let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
        driver.run(&mut engines, SimTime::from_secs(3_600));
        systems.push((
            name.to_owned(),
            engine.drain_completions().into_iter().collect(),
        ));
    }
    Fig08Result { systems }
}

/// Renders the sorted-RCT curves (empirical CDF quantiles) plus counts —
/// the Figure 8 series.
pub fn table(result: &Fig08Result) -> Table {
    let mut t = Table::new(
        "Figure 8: sorted LoRA request completion times (Mistral-7B, 30x320MB adapters)",
        &[
            "system",
            "n",
            "rct_p0_s",
            "rct_p25_s",
            "rct_p50_s",
            "rct_p75_s",
            "rct_p100_s",
        ],
    );
    for (name, log) in &result.systems {
        let cdf = aqua_metrics::cdf::Cdf::from_samples(&log.rcts());
        let row = cdf.quantile_row(5);
        let mut cells = vec![name.clone(), log.len().to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.3}")));
        t.row(&cells);
    }
    t
}

/// Appendix A.2: the one-hour LoRA workload (2 req/s for one simulated
/// hour = 7,200 requests, seed 99) as p50/p95 RCTs per system plus the
/// improvement over the baseline. Paper: 2x at p50, 1.7x at p95.
pub fn long_run_report() -> String {
    let result = run(2.0, 7_200, 99);
    let mut t = Table::new(
        "Appendix A.2: 1-hour LoRA workload (Mistral-7B, 320 MB adapters, 2 req/s)",
        &["system", "n", "rct_p50_s", "rct_p95_s"],
    );
    for (name, log) in &result.systems {
        let s = log.rct_summary();
        t.row(&[
            name.clone(),
            log.len().to_string(),
            format!("{:.3}", s.p50),
            format!("{:.3}", s.p95),
        ]);
    }
    let b = result.log_of("baseline").rct_summary();
    let a = result.log_of("aqua").rct_summary();
    format!(
        "{t}\np50 improvement {:.2}x (paper 2x); p95 improvement {:.2}x (paper 1.7x)\n",
        b.p50 / a.p50,
        b.p95 / a.p95
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aqua_improves_lora_rcts() {
        let r = run(2.0, 120, 7);
        let baseline = r.log_of("baseline");
        let aqua = r.log_of("aqua");
        assert!(baseline.len() >= 110);
        assert_eq!(baseline.len(), aqua.len());
        let improvement = r.p50_improvement();
        // Paper: "improves the Request completion times (RCTs) by up-to
        // 1.8X"; shape check with a generous band.
        assert!(
            (1.2..3.0).contains(&improvement),
            "p50 improvement {improvement:.2}"
        );
        // Sorted-RCT dominance: AQUA's curve sits below the baseline's in
        // the loaded region.
        let b = baseline.sorted_rcts();
        let a = aqua.sorted_rcts();
        let mid = b.len() / 2;
        assert!(a[mid] < b[mid]);
        assert!(!table(&r).is_empty());
    }
}
