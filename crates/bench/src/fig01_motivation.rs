//! Figure 1 — the motivating experiment.
//!
//! An LLM served at 5 req/s on one A100: vLLM batch-processes and starves
//! queued prompts (TTFT spikes, Figure 1a) while keeping RCT low
//! (Figure 1b); fair scheduling over DRAM fixes TTFT but inflates RCT by
//! paging over PCIe; AQUA keeps both low by paging over NVLink to the
//! neighbouring GPU.

use crate::setup::{OffloadKind, ServerCtx};
use aqua_engines::cfs::{CfsConfig, CfsEngine};
use aqua_engines::driver::{Driver, Engine};
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::requests::RequestLog;
use aqua_metrics::table::Table;
use aqua_models::zoo;
use aqua_sim::gpu::{GpuId, GpuSpec};
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_workloads::sharegpt::{sharegpt_trace, ShareGptConfig};

/// Results of one Figure-1 run: per-system request logs.
#[derive(Debug)]
pub struct Fig01Result {
    /// `(system name, completed-request log)` triples.
    pub systems: Vec<(String, RequestLog)>,
}

/// KV pool used for the constrained consumer GPU: roughly 20 interactive
/// contexts fit, matching the paper's "after ≈ 20 requests, the GPU runs
/// out of memory" observation.
const CONSTRAINED_POOL: u64 = 7 * (1 << 30);

/// Runs the motivation experiment: `count` ShareGPT requests at `rate`
/// req/s against vLLM, vLLM+CFS (DRAM) and AQUA.
pub fn run(rate: f64, count: usize, seed: u64) -> Fig01Result {
    let model = zoo::llama2_13b();
    let geom = *model.llm_geometry().unwrap();
    let trace = sharegpt_trace(&ShareGptConfig::new(rate, count), seed, 0);
    let horizon = SimTime::from_secs(3_600);

    let mut systems = Vec::new();

    // vLLM: batch processing with admission control.
    {
        let mut engine = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                kv_pool_bytes: CONSTRAINED_POOL,
                max_batch: 64,
                ..GatewayConfig::vllm()
            },
        );
        let mut driver = Driver::new();
        driver.schedule_trace(0, trace.clone());
        let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
        driver.run(&mut engines, horizon);
        systems.push((
            "vllm".to_owned(),
            engine.drain_completions().into_iter().collect(),
        ));
    }

    // vLLM + CFS over DRAM, and AQUA (CFS over NVLink).
    for (name, kind) in [
        ("vllm+cfs", OffloadKind::DramScattered),
        ("aqua", OffloadKind::Aqua),
    ] {
        let ctx = ServerCtx::two_gpu();
        if kind == OffloadKind::Aqua {
            // The neighbouring GPU (hosting a compute-bound model) leases
            // its spare HBM; Figure 1 abstracts the producer away.
            ctx.static_lease(GpuId(1), gib(40));
        }
        let mut engine = CfsEngine::new(
            geom,
            GpuSpec::a100_80g(),
            CfsConfig {
                slice_tokens: 8,
                max_active: 32,
                kv_pool_bytes: CONSTRAINED_POOL,
            },
            ctx.offloader(kind, GpuId(0)),
        );
        let mut driver = Driver::new();
        driver.schedule_trace(0, trace.clone());
        let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
        driver.run(&mut engines, horizon);
        systems.push((
            name.to_owned(),
            engine.drain_completions().into_iter().collect(),
        ));
    }

    Fig01Result { systems }
}

/// Renders Figure 1a/1b as one table: per-system TTFT and RCT summaries.
pub fn table(result: &Fig01Result) -> Table {
    let mut t = Table::new(
        "Figure 1: responsiveness (TTFT) and throughput (RCT) at 5 req/s",
        &[
            "system",
            "n",
            "ttft_p50_s",
            "ttft_p99_s",
            "rct_p50_s",
            "rct_p99_s",
        ],
    );
    for (name, log) in &result.systems {
        let ttft = log.ttft_summary();
        let rct = log.rct_summary();
        t.row(&[
            name.clone(),
            log.len().to_string(),
            format!("{:.3}", ttft.p50),
            format!("{:.3}", ttft.p99),
            format!("{:.3}", rct.p50),
            format!("{:.3}", rct.p99),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_shape_holds_small() {
        // Scaled down: 60 requests at 5/s.
        let r = run(5.0, 60, 42);
        assert_eq!(r.systems.len(), 3);
        let get = |name: &str| {
            &r.systems
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        let vllm = get("vllm");
        let cfs = get("vllm+cfs");
        let aqua = get("aqua");
        assert!(vllm.len() >= 55, "vllm finished {}", vllm.len());
        assert!(cfs.len() >= 55);
        assert!(aqua.len() >= 55);

        // Fair scheduling cuts tail TTFT relative to batch processing.
        assert!(
            aqua.ttft_summary().p99 < vllm.ttft_summary().p99,
            "aqua p99 ttft {} vs vllm {}",
            aqua.ttft_summary().p99,
            vllm.ttft_summary().p99
        );
        // AQUA's RCT beats CFS-over-DRAM.
        assert!(
            aqua.rct_summary().p50 < cfs.rct_summary().p50,
            "aqua rct {} vs cfs {}",
            aqua.rct_summary().p50,
            cfs.rct_summary().p50
        );
        let tbl = table(&r);
        assert_eq!(tbl.len(), 3);
    }
}
