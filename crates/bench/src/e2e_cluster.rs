//! §6.1 — the end-to-end cluster evaluation.
//!
//! "We evaluate the end-to-end benefits of using AQUA in a cluster of 8
//! servers, each with 2 GPUs. We host 16 models, one on each GPU … We test
//! two sets of 16 models", a **balanced** split (equal parts image, audio
//! and language models) and an **LLM-heavy** split (all LLMs with varying
//! workloads). AQUA-PLACER maps models to servers; in-server stable
//! matching pairs each consumer with its producer; and — like the paper,
//! which "uses these servers as building blocks by evaluating AQUA on an
//! individual server independently and sequentially" — each consumer
//! server's workload is then executed with AQUA and with the DRAM baseline.

use crate::setup::{
    codellama_cfs, mistral_lora_vllm, opt_flexgen, producer_engine, OffloadKind, ServerCtx,
};
use aqua_core::informer::LlmInformerConfig;
use aqua_engines::driver::{Driver, Engine};
use aqua_metrics::requests::RequestLog;
use aqua_metrics::table::Table;
use aqua_models::lora::LoraAdapter;
use aqua_models::zoo::{self, ModelProfile};
use aqua_placer::instance::{ModelSpec, PlacementInstance};
use aqua_placer::matching::stable_match;
use aqua_placer::solver::solve_optimal;
use aqua_sim::gpu::GpuId;
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_workloads::items::item_trace;
use aqua_workloads::longprompt::long_prompt_trace;
use aqua_workloads::lora::lora_trace;
use aqua_workloads::sharegpt::{sharegpt_trace, ShareGptConfig};

/// The consumer workloads of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumerKind {
    /// OPT-30B long-prompt inference on FlexGen (metric: tokens generated).
    LongPrompt,
    /// Mistral-7B LoRA serving on vLLM (metric: RCT p50 seconds).
    Lora,
    /// Codellama-34B code summary on vLLM + CFS (metric: TTFT p90 seconds).
    Cfs,
}

impl std::fmt::Display for ConsumerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConsumerKind::LongPrompt => "long-prompt (OPT-30B)",
            ConsumerKind::Lora => "lora (Mistral-7B)",
            ConsumerKind::Cfs => "cfs (Codellama-34B)",
        };
        f.write_str(s)
    }
}

/// What a GPU in the cluster hosts.
#[derive(Debug, Clone)]
pub enum HostedModel {
    /// A memory-bound consumer workload.
    Consumer(ConsumerKind),
    /// A compute-bound image/audio producer.
    MediaProducer(ModelProfile),
    /// A lightly loaded LLM producer.
    LlmProducer(ModelProfile),
}

impl HostedModel {
    /// The signed `R_m` handed to AQUA-PLACER: consumers declare their
    /// deficit, producers their plateau excess (media) or donatable pool
    /// (LLMs under low traffic).
    fn placement_spec(&self, name: String) -> ModelSpec {
        match self {
            HostedModel::Consumer(ConsumerKind::LongPrompt) => ModelSpec::consumer(name, gib(12)),
            HostedModel::Consumer(ConsumerKind::Lora) => ModelSpec::consumer(name, gib(10)),
            HostedModel::Consumer(ConsumerKind::Cfs) => ModelSpec::consumer(name, gib(8)),
            HostedModel::MediaProducer(m) => match m.modality() {
                aqua_models::zoo::Modality::Image => ModelSpec::producer(name, gib(55)),
                _ => ModelSpec::producer(name, gib(60)),
            },
            HostedModel::LlmProducer(_) => ModelSpec::producer(name, gib(35)),
        }
    }

    fn label(&self) -> String {
        match self {
            HostedModel::Consumer(k) => k.to_string(),
            HostedModel::MediaProducer(m) => format!("producer {}", m.name),
            HostedModel::LlmProducer(m) => format!("llm-producer {}", m.name),
        }
    }
}

/// The paper's two 16-model splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Equal parts image, audio and language models.
    Balanced,
    /// All models are LLMs with varying workloads.
    LlmHeavy,
}

impl std::fmt::Display for Split {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Split::Balanced => "balanced",
            Split::LlmHeavy => "llm-heavy",
        })
    }
}

/// Builds the 16-model roster for a split (models sampled with replacement,
/// like the paper: "Since there are fewer unique models than GPUs, we
/// sample models with replacement").
fn roster(split: Split) -> Vec<HostedModel> {
    match split {
        Split::Balanced => vec![
            // 6 language models: 3 consumers + 3 producers.
            HostedModel::Consumer(ConsumerKind::LongPrompt),
            HostedModel::Consumer(ConsumerKind::Lora),
            HostedModel::Consumer(ConsumerKind::Cfs),
            HostedModel::LlmProducer(zoo::llama2_13b()),
            HostedModel::LlmProducer(zoo::mistral_7b()),
            HostedModel::LlmProducer(zoo::llama2_13b()),
            // 5 image producers.
            HostedModel::MediaProducer(zoo::stable_diffusion()),
            HostedModel::MediaProducer(zoo::stable_diffusion_xl()),
            HostedModel::MediaProducer(zoo::kandinsky()),
            HostedModel::MediaProducer(zoo::stable_diffusion()),
            HostedModel::MediaProducer(zoo::stable_diffusion_xl()),
            // 5 audio producers.
            HostedModel::MediaProducer(zoo::audiogen()),
            HostedModel::MediaProducer(zoo::musicgen()),
            HostedModel::MediaProducer(zoo::audiogen()),
            HostedModel::MediaProducer(zoo::musicgen()),
            HostedModel::MediaProducer(zoo::audiogen()),
        ],
        Split::LlmHeavy => {
            let mut v = Vec::new();
            for _ in 0..2 {
                v.push(HostedModel::Consumer(ConsumerKind::LongPrompt));
            }
            for _ in 0..3 {
                v.push(HostedModel::Consumer(ConsumerKind::Lora));
            }
            for _ in 0..3 {
                v.push(HostedModel::Consumer(ConsumerKind::Cfs));
            }
            for i in 0..8 {
                let m = if i % 2 == 0 {
                    zoo::llama2_13b()
                } else {
                    zoo::mistral_7b()
                };
                v.push(HostedModel::LlmProducer(m));
            }
            v
        }
    }
}

/// One consumer's end-to-end outcome.
#[derive(Debug, Clone)]
pub struct ConsumerOutcome {
    /// Server the pair was placed on.
    pub server: usize,
    /// The consumer workload.
    pub kind: ConsumerKind,
    /// The producer it was paired with.
    pub producer: String,
    /// Headline metric with the DRAM baseline.
    pub baseline: f64,
    /// Headline metric with AQUA.
    pub aqua: f64,
}

impl ConsumerOutcome {
    /// AQUA's improvement factor (higher is better for tokens; for latency
    /// metrics the ratio is baseline/aqua, also higher-is-better).
    fn factor(&self) -> f64 {
        match self.kind {
            ConsumerKind::LongPrompt => self.aqua / self.baseline,
            ConsumerKind::Lora | ConsumerKind::Cfs => self.baseline / self.aqua,
        }
    }

    fn metric_name(&self) -> &'static str {
        match self.kind {
            ConsumerKind::LongPrompt => "tokens/window",
            ConsumerKind::Lora => "rct_p50_s",
            ConsumerKind::Cfs => "ttft_p90_s",
        }
    }
}

/// The whole §6.1 run for one split.
#[derive(Debug)]
pub struct E2eResult {
    /// Which split ran.
    pub split: Split,
    /// `(server, hosted models)` as placed by AQUA-PLACER.
    pub placement: Vec<(usize, Vec<String>)>,
    /// Per-consumer outcomes.
    pub outcomes: Vec<ConsumerOutcome>,
}

/// Places a roster on the 8×2 cluster with AQUA-PLACER and stable matching,
/// returning per-server `(consumer index, producer index)` pairs.
fn place(models: &[HostedModel]) -> (Vec<usize>, Vec<(usize, usize, usize)>) {
    let specs: Vec<ModelSpec> = models
        .iter()
        .enumerate()
        .map(|(i, m)| m.placement_spec(format!("m{i}")))
        .collect();
    let inst = PlacementInstance::new(8, 2, gib(80), specs.clone());
    let placement = solve_optimal(&inst);
    placement.validate(&inst).expect("feasible");

    let mut pairs = Vec::new();
    for s in 0..inst.servers {
        let members = placement.models_on(s);
        let member_specs: Vec<ModelSpec> = members.iter().map(|&m| specs[m].clone()).collect();
        for p in stable_match(&member_specs) {
            pairs.push((s, members[p.consumer], members[p.producer]));
        }
    }
    (placement.assignment, pairs)
}

fn producer_for(models: &[HostedModel], idx: usize) -> &ModelProfile {
    match &models[idx] {
        HostedModel::MediaProducer(m) | HostedModel::LlmProducer(m) => m,
        HostedModel::Consumer(_) => panic!("matching paired a consumer as producer"),
    }
}

/// Runs one consumer workload against one producer, with and without AQUA.
/// Returns `(baseline, aqua)`.
fn run_pair(
    models: &[HostedModel],
    kind: ConsumerKind,
    producer_idx: usize,
    window_secs: u64,
    seed: u64,
) -> (f64, f64) {
    // Validate the pairing target up front (panics on a consumer).
    let _ = producer_for(models, producer_idx);
    let run_one = |aqua: bool| -> f64 {
        let ctx = ServerCtx::two_gpu();
        let mut driver = Driver::new();
        // The paired producer occupies GPU 1 and keeps serving.
        let mut producers: Vec<Box<dyn Engine>> = Vec::new();
        if aqua {
            match &models[producer_idx] {
                HostedModel::MediaProducer(m) => {
                    let engine = producer_engine(m).with_informer(Box::new(
                        aqua_core::informer::BatchInformer::new(
                            aqua_core::coordinator::GpuRef::single(GpuId(1)),
                            std::rc::Rc::clone(&ctx.coordinator),
                        ),
                    ));
                    driver.schedule_trace(
                        1,
                        item_trace(0.4, (window_secs / 3) as usize, seed + 1, 1_000_000),
                    );
                    producers.push(Box::new(engine));
                }
                HostedModel::LlmProducer(m) => {
                    let engine =
                        ctx.llm_producer_with_informer(m, GpuId(1), LlmInformerConfig::default());
                    driver.schedule_trace(
                        1,
                        sharegpt_trace(
                            &ShareGptConfig::new(0.4, (window_secs / 3) as usize),
                            seed + 1,
                            1_000_000,
                        ),
                    );
                    producers.push(Box::new(engine));
                }
                HostedModel::Consumer(_) => unreachable!("validated by producer_for"),
            }
        }
        let backend = |scattered: bool| {
            if aqua {
                OffloadKind::Aqua
            } else if scattered {
                OffloadKind::DramScattered
            } else {
                OffloadKind::DramPinned
            }
        };

        let horizon = SimTime::from_secs(window_secs);
        match kind {
            ConsumerKind::LongPrompt => {
                let mut engine = opt_flexgen(&ctx, backend(false), gib(8));
                driver.schedule_trace(0, long_prompt_trace(1, 1_000_000, 0));
                let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
                for p in producers.iter_mut() {
                    engines.push(p.as_mut());
                }
                driver.run(&mut engines, horizon);
                engine.tokens_generated() as f64
            }
            ConsumerKind::Lora => {
                let adapters = LoraAdapter::zephyr().synthesize_pool(30);
                let kind = if aqua {
                    OffloadKind::Aqua
                } else {
                    OffloadKind::DramPageable
                };
                let mut engine = mistral_lora_vllm(&ctx, kind, adapters, 10);
                let count = (window_secs * 2) as usize;
                driver.schedule_trace(0, lora_trace(2.0, count, 30, seed, 0));
                let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
                for p in producers.iter_mut() {
                    engines.push(p.as_mut());
                }
                driver.run(
                    &mut engines,
                    horizon + aqua_sim::time::SimDuration::from_secs(600),
                );
                let log: RequestLog = engine.drain_completions().into_iter().collect();
                log.rct_summary().p50
            }
            ConsumerKind::Cfs => {
                let count = (window_secs * 5) as usize;
                let trace = sharegpt_trace(&ShareGptConfig::code_summary(5.0, count), seed, 0);
                if aqua {
                    let mut engine = codellama_cfs(&ctx, OffloadKind::Aqua, 1 << 30, 4);
                    driver.schedule_trace(0, trace);
                    let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
                    for p in producers.iter_mut() {
                        engines.push(p.as_mut());
                    }
                    driver.run(
                        &mut engines,
                        horizon + aqua_sim::time::SimDuration::from_secs(1_200),
                    );
                    let log: RequestLog = engine.drain_completions().into_iter().collect();
                    ttft_p90(&log)
                } else {
                    let mut engine = crate::setup::codellama_vllm(1 << 30);
                    driver.schedule_trace(0, trace);
                    let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
                    driver.run(
                        &mut engines,
                        horizon + aqua_sim::time::SimDuration::from_secs(1_200),
                    );
                    let log: RequestLog = engine.drain_completions().into_iter().collect();
                    ttft_p90(&log)
                }
            }
        }
    };
    (run_one(false), run_one(true))
}

fn ttft_p90(log: &RequestLog) -> f64 {
    let mut t = log.ttfts();
    if t.is_empty() {
        return f64::NAN;
    }
    t.sort_by(|a, b| a.partial_cmp(b).unwrap());
    t[(t.len() - 1) * 9 / 10]
}

/// Runs §6.1 for one split.
pub fn run(split: Split, window_secs: u64, seed: u64) -> E2eResult {
    let models = roster(split);
    let (assignment, pairs) = place(&models);

    let mut placement = Vec::new();
    for s in 0..8 {
        let names: Vec<String> = assignment
            .iter()
            .enumerate()
            .filter(|(_, &sv)| sv == s)
            .map(|(m, _)| models[m].label())
            .collect();
        placement.push((s, names));
    }

    let mut outcomes = Vec::new();
    for (server, consumer_idx, producer_idx) in pairs {
        let HostedModel::Consumer(kind) = models[consumer_idx] else {
            continue;
        };
        let (baseline, aqua) = run_pair(&models, kind, producer_idx, window_secs, seed);
        outcomes.push(ConsumerOutcome {
            server,
            kind,
            producer: models[producer_idx].label(),
            baseline,
            aqua,
        });
    }
    E2eResult {
        split,
        placement,
        outcomes,
    }
}

/// Renders the placement and per-consumer outcomes.
pub fn tables(result: &E2eResult) -> (Table, Table) {
    let mut placement = Table::new(
        format!(
            "Section 6.1 ({}) — AQUA-PLACER placement, 8 servers x 2 GPUs",
            result.split
        ),
        &["server", "models"],
    );
    for (s, names) in &result.placement {
        placement.row(&[s.to_string(), names.join(" + ")]);
    }
    let mut outcomes = Table::new(
        format!("Section 6.1 ({}) — per-consumer results", result.split),
        &[
            "server",
            "workload",
            "paired_producer",
            "metric",
            "baseline",
            "aqua",
            "factor",
        ],
    );
    for o in &result.outcomes {
        outcomes.row(&[
            o.server.to_string(),
            o.kind.to_string(),
            o.producer.clone(),
            o.metric_name().to_owned(),
            format!("{:.2}", o.baseline),
            format!("{:.2}", o.aqua),
            format!("{:.2}x", o.factor()),
        ]);
    }
    (placement, outcomes)
}

/// The `aqua-repro` decomposition: one sweep point per cluster split.
pub fn repro_points(a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    let (window, seed) = (a.window, a.seed);
    [Split::Balanced, Split::LlmHeavy]
        .iter()
        .map(|&split| {
            crate::runner::ReproPoint::new("e2e", format!("{split:?}"), move || {
                let r = run(split, window, seed);
                let (p, o) = tables(&r);
                format!("{p}\n{o}\n")
            })
            .with_cost_hint(25)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_have_sixteen_models() {
        for split in [Split::Balanced, Split::LlmHeavy] {
            let r = roster(split);
            assert_eq!(r.len(), 16, "{split}");
            let consumers = r
                .iter()
                .filter(|m| matches!(m, HostedModel::Consumer(_)))
                .count();
            assert!(consumers >= 3);
        }
    }

    #[test]
    fn placement_pairs_every_consumer() {
        for split in [Split::Balanced, Split::LlmHeavy] {
            let models = roster(split);
            let (assignment, pairs) = place(&models);
            assert_eq!(assignment.len(), 16);
            let consumers = models
                .iter()
                .filter(|m| matches!(m, HostedModel::Consumer(_)))
                .count();
            assert_eq!(pairs.len(), consumers, "{split}: every consumer paired");
            // Every pair is intra-server and producer-backed.
            for (s, c, p) in pairs {
                assert_eq!(assignment[c], s);
                assert_eq!(assignment[p], s);
                assert!(matches!(
                    models[p],
                    HostedModel::MediaProducer(_) | HostedModel::LlmProducer(_)
                ));
            }
        }
    }

    #[test]
    fn balanced_split_end_to_end_wins() {
        let r = run(Split::Balanced, 40, 17);
        assert_eq!(r.outcomes.len(), 3);
        for o in &r.outcomes {
            assert!(
                o.factor() > 1.2,
                "{} vs {}: factor {:.2}",
                o.kind,
                o.producer,
                o.factor()
            );
        }
        let (p, t) = tables(&r);
        assert_eq!(p.len(), 8);
        assert_eq!(t.len(), 3);
    }
}
