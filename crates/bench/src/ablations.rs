//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Coalescing** — AQUA's gather/scatter kernels vs naive per-tensor
//!    copies over NVLink (§5's "small transfers are slow over NVlinks").
//! 2. **CFS slice length** — responsiveness vs context-switch overhead.
//! 3. **Producer sharing** — one producer backing two consumers halves the
//!    producer's port bandwidth (why AQUA-PLACER enforces 1:1, §4).
//! 4. **Reclaim threshold** — the llm-informer's high-water mark trades
//!    producer latency against consumer throughput.

use crate::fig09_cfs::{run as run_cfs, CfsExperiment};
use crate::fig10_elasticity::{run_with_informer, Timeline};
use crate::setup::ServerCtx;
use aqua_core::informer::LlmInformerConfig;
use aqua_engines::driver::{Driver, Engine};
use aqua_metrics::table::Table;
use aqua_sim::gpu::GpuId;
use aqua_sim::link::bytes::{gib, mib};
use aqua_sim::link::BandwidthModel;
use aqua_sim::time::SimTime;
use aqua_sim::transfer::TransferPlan;
use aqua_workloads::longprompt::long_prompt_trace;

/// Ablation 1: scattered vs coalesced transfer time over NVLink.
fn coalescing_table() -> Table {
    let nv = BandwidthModel::nvlink_a100();
    let mut t = Table::new(
        "Ablation: coalesced vs scattered NVLink copies (gather/scatter kernels)",
        &[
            "payload",
            "chunks",
            "scattered_ms",
            "coalesced_ms",
            "penalty",
        ],
    );
    for (label, bytes, chunks) in [
        ("LoRA 320MB", mib(320), 256u64),
        ("LoRA 160MB", mib(160), 256),
        ("KV 1 seq (400 tok)", 400 * 196_608, 96),
        ("KV pool 2GiB", gib(2), 4096),
    ] {
        let scattered = nv
            .transfer_time(TransferPlan::scattered(chunks, bytes / chunks))
            .as_secs_f64()
            * 1e3;
        let coalesced = nv
            .transfer_time(TransferPlan::coalesced(bytes))
            .as_secs_f64()
            * 1e3;
        t.row(&[
            label.to_owned(),
            chunks.to_string(),
            format!("{scattered:.2}"),
            format!("{coalesced:.2}"),
            format!("{:.1}x", scattered / coalesced),
        ]);
    }
    t
}

/// Ablation 2: CFS slice length sweep (AQUA backend).
fn cfs_slice_table(slices: &[u64], count: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation: CFS slice length (tokens per slice, AQUA backend)",
        &["slice_tokens", "ttft_p90_s", "rct_p50_s"],
    );
    for &slice in slices {
        let cfg = CfsExperiment {
            slice_tokens: slice,
            ..CfsExperiment::figure9(5.0, count, seed)
        };
        let r = run_cfs(&cfg);
        let aqua = r.log_of("aqua");
        let mut ttfts = aqua.ttfts();
        ttfts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p90 = ttfts[(ttfts.len() - 1) * 9 / 10];
        t.row(&[
            slice.to_string(),
            format!("{p90:.3}"),
            format!("{:.3}", aqua.rct_summary().p50),
        ]);
    }
    t
}

/// Ablation 3: two consumers sharing one producer vs dedicated producers.
/// Returns `(shared per-consumer tokens, dedicated per-consumer tokens)`.
fn producer_sharing(window_secs: u64) -> (Vec<u64>, Vec<u64>) {
    let run_pair = |dedicated: bool| -> Vec<u64> {
        let ctx = ServerCtx::eight_gpu();
        if dedicated {
            ctx.static_lease(GpuId(4), gib(16));
            ctx.static_lease(GpuId(5), gib(16));
            ctx.pair(GpuId(0), GpuId(4));
            ctx.pair(GpuId(1), GpuId(5));
        } else {
            // One big lease on one producer: both consumers land on it and
            // share its NVLink ports.
            ctx.static_lease(GpuId(4), gib(32));
            ctx.pair(GpuId(0), GpuId(4));
            ctx.pair(GpuId(1), GpuId(4));
        }
        let mut consumers: Vec<_> = (0..2)
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
        for i in 0..2 {
            driver.schedule_trace(i, long_prompt_trace(1, 1_000_000, i as u64));
        }
        let mut engines: Vec<&mut dyn Engine> =
            consumers.iter_mut().map(|e| e as &mut dyn Engine).collect();
        driver.run(&mut engines, SimTime::from_secs(window_secs));
        drop(engines);
        consumers.iter().map(|c| c.tokens_generated()).collect()
    };
    (run_pair(false), run_pair(true))
}

/// Renders ablation 3.
fn producer_sharing_table(window_secs: u64) -> Table {
    let (shared, dedicated) = producer_sharing(window_secs);
    let mut t = Table::new(
        "Ablation: one producer shared by two consumers vs 1:1 pairing",
        &["config", "consumer0_tokens", "consumer1_tokens"],
    );
    t.row(&[
        "shared-producer".to_owned(),
        shared[0].to_string(),
        shared[1].to_string(),
    ]);
    t.row(&[
        "dedicated-producers".to_owned(),
        dedicated[0].to_string(),
        dedicated[1].to_string(),
    ]);
    t
}

/// Ablation 5: vLLM preemption policy (recompute vs swap) across offload
/// backends, under KV pressure.
fn preemption_table(count: usize, seed: u64) -> Table {
    use aqua_engines::vllm::PreemptionPolicy;
    use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
    use aqua_gateway::scheduler::PolicyKind;
    use aqua_workloads::sharegpt::{sharegpt_trace, ShareGptConfig};

    let geom = *aqua_models::zoo::mistral_7b().llm_geometry().unwrap();
    let trace = sharegpt_trace(&ShareGptConfig::new(6.0, count), seed, 0);
    let mut t = Table::new(
        "Ablation: preemption policy under KV pressure (Mistral-7B, 6 req/s)",
        &["policy", "backend", "preemptions", "rct_p50_s", "rct_p95_s"],
    );
    for (policy, pname) in [
        (PreemptionPolicy::Recompute, "recompute"),
        (PreemptionPolicy::Swap, "swap"),
    ] {
        for backend in [
            crate::setup::OffloadKind::DramScattered,
            crate::setup::OffloadKind::Aqua,
        ] {
            let ctx = ServerCtx::eight_gpu();
            ctx.static_lease(GpuId(1), gib(20));
            let mut engine = GatewayEngine::new(
                geom,
                aqua_sim::gpu::GpuSpec::a100_80g(),
                PolicyKind::Fcfs,
                GatewayConfig {
                    kv_pool_bytes: geom.kv_bytes_per_token() * 16 * 600, // tight
                    preemption: policy,
                    ..GatewayConfig::vllm()
                },
            )
            .with_offloader(ctx.offloader(backend, GpuId(0)));
            let mut driver = Driver::new();
            driver.schedule_trace(0, trace.clone());
            let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
            driver.run(&mut engines, SimTime::from_secs(3_600));
            let log: aqua_metrics::requests::RequestLog =
                engine.drain_completions().into_iter().collect();
            let s = log.rct_summary();
            t.row(&[
                pname.to_owned(),
                backend.to_string(),
                engine.preemptions().to_string(),
                format!("{:.3}", s.p50),
                format!("{:.3}", s.p95),
            ]);
        }
    }
    t
}

/// Ablation 4: llm-informer high-water mark sweep.
fn reclaim_threshold_table(highs: &[usize], tl: &Timeline, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation: llm-informer reclaim threshold (pending requests)",
        &["high_pending", "consumer_tokens", "producer_rct_p95_s"],
    );
    for &high in highs {
        let cfg = LlmInformerConfig {
            high_pending: high,
            ..LlmInformerConfig::default()
        };
        let (tokens, log) = run_with_informer(tl, cfg, seed);
        t.row(&[
            high.to_string(),
            tokens.to_string(),
            format!("{:.3}", log.rct_summary().p95),
        ]);
    }
    t
}

/// Ablation 6: adapter popularity skew. Heavy-headed (Zipf) adapter
/// traffic raises cache hit rates, shrinking the loading cost AQUA
/// accelerates — the uniform assignment of Figures 8/12 is AQUA's
/// best case.
fn lora_skew_table(skews: &[f64], count: usize, seed: u64) -> Table {
    use crate::setup::mistral_lora_vllm;
    use aqua_models::lora::LoraAdapter;
    use aqua_workloads::lora::lora_trace_skewed;

    let mut t = Table::new(
        "Ablation: LoRA adapter popularity skew (Zipf exponent)",
        &[
            "skew",
            "cache_hit_rate",
            "baseline_rct_p50_s",
            "aqua_rct_p50_s",
            "improvement",
        ],
    );
    for &skew in skews {
        let trace = lora_trace_skewed(2.0, count, 30, skew, seed, 0);
        let mut row = Vec::new();
        let mut hit_rate = 0.0;
        for kind in [
            crate::setup::OffloadKind::DramPageable,
            crate::setup::OffloadKind::Aqua,
        ] {
            let ctx = ServerCtx::two_gpu();
            if kind == crate::setup::OffloadKind::Aqua {
                ctx.static_lease(GpuId(1), gib(12));
            }
            let mut engine =
                mistral_lora_vllm(&ctx, kind, LoraAdapter::zephyr().synthesize_pool(30), 10);
            let mut driver = Driver::new();
            driver.schedule_trace(0, trace.clone());
            let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
            driver.run(&mut engines, SimTime::from_secs(3_600));
            let log: aqua_metrics::requests::RequestLog =
                engine.drain_completions().into_iter().collect();
            let (hits, misses) = engine.lora_cache_stats();
            hit_rate = hits as f64 / (hits + misses).max(1) as f64;
            row.push(log.rct_summary().p50);
        }
        t.row(&[
            format!("{skew:.1}"),
            format!("{hit_rate:.2}"),
            format!("{:.3}", row[0]),
            format!("{:.3}", row[1]),
            format!("{:.2}x", row[0] / row[1]),
        ]);
    }
    t
}

/// The `aqua-repro` decomposition: one sweep point per ablation study.
pub fn repro_points(a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    let a = *a;
    let points = vec![
        crate::runner::ReproPoint::new("ablations", "coalescing", move || {
            format!("{}\n", coalescing_table())
        }),
        crate::runner::ReproPoint::new("ablations", "cfs-slice", move || {
            format!(
                "{}\n",
                cfs_slice_table(&[2, 4, 8, 16], a.count.min(120), a.seed)
            )
        }),
        crate::runner::ReproPoint::new("ablations", "producer-sharing", move || {
            format!("{}\n", producer_sharing_table(a.window))
        }),
        crate::runner::ReproPoint::new("ablations", "reclaim-threshold", move || {
            format!(
                "{}\n",
                reclaim_threshold_table(&[2, 8, 32], &Timeline::default(), a.seed)
            )
        }),
        crate::runner::ReproPoint::new("ablations", "preemption", move || {
            format!("{}\n", preemption_table(a.count, a.seed))
        }),
        crate::runner::ReproPoint::new("ablations", "lora-skew", move || {
            format!("{}\n", lora_skew_table(&[0.0, 1.0, 2.0], a.count, a.seed))
        }),
    ];
    // Reclaim-threshold replays the full production timeline three times and
    // dominates the study's wall; the other five points are near-instant.
    points
        .into_iter()
        .map(|p| {
            let hint = if p.label() == "reclaim-threshold" {
                55
            } else {
                4
            };
            p.with_cost_hint(hint)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_always_wins() {
        let t = coalescing_table();
        assert_eq!(t.len(), 4);
        // Parse the penalty column: every row ends with "x" and > 1.
        for line in t.to_csv().lines().skip(1) {
            let penalty: f64 = line
                .split(',')
                .next_back()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(penalty > 1.0, "row {line}");
        }
    }

    #[test]
    fn dedicated_producers_beat_sharing() {
        let (shared, dedicated) = producer_sharing(20);
        let shared_min = *shared.iter().min().unwrap() as f64;
        let dedicated_min = *dedicated.iter().min().unwrap() as f64;
        assert!(
            dedicated_min > 1.2 * shared_min,
            "dedicated {dedicated:?} vs shared {shared:?}"
        );
    }

    #[test]
    fn skew_reduces_aqua_advantage() {
        let t = lora_skew_table(&[0.0, 2.0], 80, 11);
        let rows: Vec<Vec<String>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        let parse = |s: &str| s.trim_end_matches('x').parse::<f64>().unwrap();
        let uniform_improvement = parse(&rows[0][4]);
        let skewed_improvement = parse(&rows[1][4]);
        let uniform_hits = parse(&rows[0][1]);
        let skewed_hits = parse(&rows[1][1]);
        assert!(skewed_hits > uniform_hits, "skew raises hit rate");
        assert!(
            skewed_improvement < uniform_improvement,
            "skew shrinks AQUA's edge: {skewed_improvement} vs {uniform_improvement}"
        );
    }

    #[test]
    fn preemption_sweep_renders() {
        let t = preemption_table(40, 3);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn slice_sweep_renders() {
        let t = cfs_slice_table(&[4, 16], 30, 9);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reclaim_threshold_sweep_renders() {
        let tl = Timeline {
            low_phase_start: 10,
            low_count: 10,
            burst_start: 40,
            burst_count: 60,
            end: 90,
        };
        let t = reclaim_threshold_table(&[4, 16], &tl, 3);
        assert_eq!(t.len(), 2);
    }
}
