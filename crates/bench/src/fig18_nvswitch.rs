//! Figure 18 — stressing the NVSwitch.
//!
//! Four long-prompt consumers (OPT-30B on FlexGen) and four producers share
//! one 8-GPU NVSwitch server; the long-prompt workload is the most
//! bandwidth-intensive one, so this tests whether switched connectivity
//! sustains the direct-NVLink numbers. The paper: "all the 4 consumers
//! achieve the same high throughput compared to the 2 GPU server confirming
//! that AQUA's benefits extend to a switched architecture."

use crate::setup::ServerCtx;
use aqua_engines::driver::{Driver, Engine};
use aqua_metrics::table::Table;
use aqua_sim::gpu::GpuId;
use aqua_sim::time::SimTime;
use aqua_workloads::longprompt::long_prompt_trace;

/// Per-producer lease: sized to back exactly one consumer's streamed
/// context plus its growth over a ten-minute window (the 1:1 pairing
/// AQUA-PLACER enforces; producers have tens of GB spare at their plateau
/// batch, Figure 2).
const PER_PRODUCER_LEASE: u64 = 24 * (1 << 30);

/// Result: per-consumer token counts plus the 2-GPU reference.
#[derive(Debug, Clone)]
pub struct Fig18Result {
    /// Tokens generated by each of the four consumers in the window.
    pub per_consumer_tokens: Vec<u64>,
    /// NVLink egress utilisation of each producer's port over the window —
    /// the stress the paper is probing (telemetry from the transfer engine).
    pub producer_egress_utilization: Vec<f64>,
    /// Tokens generated by the single consumer on the 2-GPU server (the
    /// Figure 7 AQUA configuration) in the same window.
    pub two_gpu_reference: u64,
}

impl Fig18Result {
    /// Worst consumer relative to the 2-GPU reference.
    #[cfg(test)]
    fn worst_relative(&self) -> f64 {
        let min = *self.per_consumer_tokens.iter().min().expect("4 consumers") as f64;
        min / self.two_gpu_reference as f64
    }
}

/// Runs 4 consumers + 4 producers on the NVSwitch server for
/// `window_secs`, and the 2-GPU reference for the same window.
pub fn run(window_secs: u64) -> Fig18Result {
    let ctx = ServerCtx::eight_gpu();
    // Producers on GPUs 4..8, one lease each; AQUA-PLACER's stable
    // matching pairs consumer i with producer i+4.
    for g in 4..8 {
        ctx.static_lease(GpuId(g), PER_PRODUCER_LEASE);
        ctx.pair(GpuId(g - 4), GpuId(g));
    }
    let mut consumers: Vec<_> = (0..4)
        .map(|i| {
            aqua_engines::flexgen::FlexGenEngine::new(
                *aqua_models::zoo::opt_30b().llm_geometry().unwrap(),
                aqua_sim::gpu::GpuSpec::a100_80g(),
                aqua_engines::flexgen::FlexGenConfig {
                    context_budget_bytes: crate::fig07_long_prompt::CONTEXT_BUDGET,
                    ..Default::default()
                },
                Box::new(ctx.aqua_offloader(GpuId(i))),
            )
        })
        .collect();

    let mut driver = Driver::new();
    for i in 0..4 {
        driver.schedule_trace(i, long_prompt_trace(1, 1_000_000, i as u64 * 10));
    }
    {
        let mut engines: Vec<&mut dyn Engine> =
            consumers.iter_mut().map(|e| e as &mut dyn Engine).collect();
        driver.run(&mut engines, SimTime::from_secs(window_secs));
    }
    let per_consumer_tokens = consumers.iter().map(|c| c.tokens_generated()).collect();
    let horizon = SimTime::from_secs(window_secs);
    let producer_egress_utilization = (4..8)
        .map(|g| {
            ctx.transfers
                .borrow()
                .port_utilization(aqua_sim::topology::PortId::NvlinkEgress(GpuId(g)), horizon)
        })
        .collect();

    let two_gpu_reference = crate::fig07_long_prompt::run(window_secs).tokens_of("aqua");
    Fig18Result {
        per_consumer_tokens,
        producer_egress_utilization,
        two_gpu_reference,
    }
}

/// Renders the Figure 18 comparison.
pub fn table(result: &Fig18Result, window_secs: u64) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 18: NVSwitch stress, 4 long-prompt consumers + 4 producers ({window_secs}s)"
        ),
        &[
            "consumer",
            "tokens",
            "relative_to_2gpu",
            "producer_port_util",
        ],
    );
    for (i, tok) in result.per_consumer_tokens.iter().enumerate() {
        t.row(&[
            format!("gpu{i}"),
            tok.to_string(),
            format!("{:.2}", *tok as f64 / result.two_gpu_reference as f64),
            format!("{:.0}%", 100.0 * result.producer_egress_utilization[i]),
        ]);
    }
    t.row(&[
        "2-gpu-ref".to_owned(),
        result.two_gpu_reference.to_string(),
        "1.00".to_owned(),
        "-".to_owned(),
    ]);
    t
}

/// The `aqua-repro` decomposition: one NVSwitch stress window point.
pub fn repro_points(a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    let window = a.window;
    vec![
        crate::runner::ReproPoint::new("fig18", format!("window={window}"), move || {
            let r = run(window);
            format!("{}\n", table(&r, window))
        })
        .with_cost_hint(20),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    use aqua_sim::link::bytes::gib;

    #[test]
    fn premise() {
        let geom = *aqua_models::zoo::opt_30b().llm_geometry().unwrap();
        assert!(
            PER_PRODUCER_LEASE > geom.kv_bytes(8_000) + gib(1),
            "lease backs one streamed context plus growth"
        );
    }

    #[test]
    fn all_consumers_match_two_gpu_throughput() {
        let r = run(30);
        assert_eq!(r.per_consumer_tokens.len(), 4);
        // Each producer's egress port carries a real share of the stream
        // (the workload is bandwidth-intensive) yet stays below saturation.
        for u in &r.producer_egress_utilization {
            assert!((0.2..1.0).contains(u), "utilization {u}");
        }
        assert!(
            r.worst_relative() > 0.85,
            "worst consumer at {:.2} of the 2-GPU rate ({:?} vs {})",
            r.worst_relative(),
            r.per_consumer_tokens,
            r.two_gpu_reference
        );
        assert!(!table(&r, 30).is_empty());
    }
}
