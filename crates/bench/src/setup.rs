//! Shared experiment scaffolding: servers, coordinators, offloaders,
//! engine builders matching the paper's testbeds, and the two cells the
//! studies replay — the multi-tenant serving cell of every gateway study
//! and the donation cell of the chaos runs.

use aqua_core::coordinator::{Coordinator, GpuRef};
use aqua_core::informer::{LlmInformer, LlmInformerConfig};
use aqua_core::offloader::AquaOffloader;
use aqua_engines::cfs::{CfsConfig, CfsEngine};
use aqua_engines::driver::Driver;
use aqua_engines::flexgen::{FlexGenConfig, FlexGenEngine};
use aqua_engines::offload::{DramOffloader, Offloader};
use aqua_engines::producer::{ProducerEngine, ProducerModel};
use aqua_engines::request::InferenceRequest;
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::scheduler::PolicyKind;
use aqua_models::lora::LoraAdapter;
use aqua_models::zoo::{self, ModelProfile};
use aqua_sim::audit::SharedAuditor;
use aqua_sim::fault::FaultPlan;
use aqua_sim::gpu::{GpuId, GpuSpec};
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_sim::topology::ServerTopology;
use aqua_sim::transfer::TransferEngine;
use aqua_telemetry::{Lane, SharedTracer};
use aqua_workloads::tenants::TenantTrace;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// KV pool of the serving cell's gateway in every gateway study: one of
/// the batch tenant's 8k-token contexts plus a dozen interactive turns —
/// tight enough that admission order decides interactive TTFT and decode
/// growth forces preemption, while every request still fits alone.
pub const CELL_POOL_BYTES: u64 = gib(3);

/// Per-tenant cap on admitted-but-unfinished requests in every gateway
/// study's serving cell.
pub const CELL_MAX_OUTSTANDING: usize = 8;

/// Which offload backend an experiment wires into a consumer engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadKind {
    /// Host DRAM over pinned PCIe with one coalesced copy (FlexGen's
    /// pipelined context streaming).
    DramPinned,
    /// Host DRAM over pinned PCIe with per-tensor copies (vLLM's KV swap
    /// path — no gather/scatter kernels).
    DramScattered,
    /// Host DRAM with framework-level pageable copies (default LoRA path).
    DramPageable,
    /// AQUA: peer-GPU HBM over the fabric with DRAM fallback.
    Aqua,
}

impl std::fmt::Display for OffloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OffloadKind::DramPinned => "dram-pinned",
            OffloadKind::DramScattered => "dram-pinned-scattered",
            OffloadKind::DramPageable => "dram-pageable",
            OffloadKind::Aqua => "aqua",
        };
        f.write_str(s)
    }
}

/// One simulated multi-GPU server with its shared transfer engine and an
/// AQUA coordinator.
pub struct ServerCtx {
    /// The server topology (2-GPU NVLink or 8-GPU NVSwitch).
    pub server: Rc<ServerTopology>,
    /// The server-wide transfer engine (shared port contention).
    pub transfers: Rc<RefCell<TransferEngine>>,
    /// The AQUA coordinator.
    pub coordinator: Rc<Coordinator>,
    /// The tracer every component built through this context reports to
    /// (the process `AQUA_TRACE` tracer unless injected explicitly).
    pub tracer: SharedTracer,
    /// The injected fault schedule, when this is a chaos run.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// The invariant auditor, when this is an audited run.
    pub auditor: Option<SharedAuditor>,
}

impl ServerCtx {
    /// The paper's first testbed: 2× A100-80G joined by direct NVLinks.
    pub fn two_gpu() -> Self {
        Self::two_gpu_traced(crate::trace::tracer())
    }

    /// The paper's second testbed: 8× A100-80G behind an NVSwitch.
    pub fn eight_gpu() -> Self {
        Self::eight_gpu_traced(crate::trace::tracer())
    }

    /// [`ServerCtx::two_gpu`] with an explicit tracer (determinism tests
    /// journal the same scenario into two independent journals).
    pub fn two_gpu_traced(tracer: SharedTracer) -> Self {
        Self::build(ServerTopology::nvlink_pair(GpuSpec::a100_80g()), tracer)
    }

    /// [`ServerCtx::eight_gpu`] with an explicit tracer.
    pub fn eight_gpu_traced(tracer: SharedTracer) -> Self {
        Self::build(ServerTopology::nvswitch(8, GpuSpec::a100_80g()), tracer)
    }

    fn build(server: ServerTopology, tracer: SharedTracer) -> Self {
        let mut transfers = TransferEngine::new();
        transfers.set_tracer(tracer.clone(), 0);
        let coordinator = Rc::new(Coordinator::new());
        coordinator.set_tracer(tracer.clone());
        ServerCtx {
            server: Rc::new(server),
            transfers: Rc::new(RefCell::new(transfers)),
            coordinator,
            tracer,
            fault_plan: None,
            auditor: None,
        }
    }

    /// Injects a fault schedule: the transfer engine aborts/degrades
    /// transfers accordingly, the coordinator replays its crash/partition
    /// windows (epoch bumps, reachability), and offloaders built from this
    /// context model coordinator stalls from the same plan.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.transfers
            .borrow_mut()
            .set_fault_plan(Arc::clone(&plan));
        self.coordinator.set_fault_plan(Arc::clone(&plan));
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches an invariant auditor (aqua-audit): the transfer engine, the
    /// coordinator and every [`AquaOffloader`] built from this context
    /// report suspicious state transitions into it. Clean audited runs
    /// journal the exact same event stream as unaudited ones.
    pub fn with_auditor(mut self, auditor: SharedAuditor) -> Self {
        self.transfers.borrow_mut().set_auditor(auditor.clone());
        self.coordinator.set_auditor(auditor.clone());
        self.auditor = Some(auditor);
        self
    }

    /// Builds an offload backend of `kind` for the consumer at `gpu`.
    pub fn offloader(&self, kind: OffloadKind, gpu: GpuId) -> Box<dyn Offloader> {
        match kind {
            OffloadKind::DramPinned => Box::new(DramOffloader::pinned(
                &self.server,
                gpu,
                self.transfers.clone(),
            )),
            OffloadKind::DramScattered => Box::new(DramOffloader::pinned_scattered(
                &self.server,
                gpu,
                self.transfers.clone(),
            )),
            OffloadKind::DramPageable => Box::new(DramOffloader::pageable_scattered(
                &self.server,
                gpu,
                self.transfers.clone(),
            )),
            OffloadKind::Aqua => Box::new(self.aqua_offloader(gpu)),
        }
    }

    /// Builds a concrete [`AquaOffloader`] (when the caller needs to
    /// prestage content before boxing).
    pub fn aqua_offloader(&self, gpu: GpuId) -> AquaOffloader {
        let off = AquaOffloader::new(
            GpuRef::single(gpu),
            Rc::clone(&self.coordinator),
            self.server.clone(),
            self.transfers.clone(),
        )
        .with_tracer(self.tracer.clone());
        let off = match &self.fault_plan {
            Some(plan) => off.with_fault_plan(Arc::clone(plan)),
            None => off,
        };
        match &self.auditor {
            Some(aud) => off.with_auditor(aud.clone()),
            None => off,
        }
    }

    /// Registers a static lease of `bytes` from the producer at `gpu`
    /// (experiments that do not exercise the informer path).
    pub fn static_lease(&self, gpu: GpuId, bytes: u64) {
        self.coordinator.lease(GpuRef::single(gpu), bytes);
    }

    /// Records an AQUA-PLACER pairing between a consumer and producer GPU.
    pub fn pair(&self, consumer: GpuId, producer: GpuId) {
        self.coordinator
            .pair(GpuRef::single(consumer), GpuRef::single(producer));
    }

    /// The multi-tenant serving cell every gateway study runs: a
    /// Codellama-34B gateway on GPU 0 serving `mix` under `policy`,
    /// journalling into this context's tracer under `scope`, and a driver
    /// with the mix's trace scheduled on engine 0.
    ///
    /// The gateway swaps preempted KV through an AQUA offloader built from
    /// this context exactly when `config.preemption` is `Swap`, so install
    /// leases, a fault plan or an auditor on the context first. The
    /// `GpuCrash` windows of `plan` on GPU 0 reach both the gateway and the
    /// driver, and `auditor` watches both.
    pub fn serving_cell(
        &self,
        mix: TenantTrace,
        policy: PolicyKind,
        config: GatewayConfig,
        scope: impl Into<Lane>,
        plan: Option<&FaultPlan>,
        auditor: Option<SharedAuditor>,
    ) -> (GatewayEngine, Driver) {
        let geom = *zoo::codellama_34b().llm_geometry().unwrap();
        let swap = config.preemption == PreemptionPolicy::Swap;
        let mut gateway = GatewayEngine::new(geom, GpuSpec::a100_80g(), policy, config)
            .with_tenants(mix.tenant_of)
            .with_tracer(self.tracer.clone(), scope);
        if swap {
            gateway = gateway.with_offloader(self.offloader(OffloadKind::Aqua, GpuId(0)));
        }
        let mut driver = Driver::new();
        if let Some(plan) = plan {
            gateway = gateway.with_fault_plan(plan, GpuId(0));
            for (start, end) in plan.gpu_crashes(GpuId(0)) {
                driver.crash_window(0, start, end);
            }
        }
        if let Some(auditor) = auditor {
            gateway = gateway.with_auditor(auditor.clone());
            driver.set_auditor(auditor);
        }
        driver.schedule_trace(0, mix.trace);
        (gateway, driver)
    }

    /// The donation cell the chaos studies replay (Figure 10's server): a
    /// Llama-2-13B producer with its llm-informer on GPU 1 donating to an
    /// OPT-30B long-prompt FlexGen consumer with AQUA offload on GPU 0.
    /// Returns the consumer, the producer and a driver that runs them as
    /// engines 0 and 1 with `trace` scheduled on the consumer.
    ///
    /// The `GpuCrash` windows on GPU 1 of this context's fault plan take
    /// engine 1 down, and this context's auditor watches the driver too.
    pub fn donation_cell(
        &self,
        trace: impl IntoIterator<Item = (SimTime, InferenceRequest)>,
    ) -> (FlexGenEngine, GatewayEngine, Driver) {
        let producer = self.llm_producer_with_informer(
            &zoo::llama2_13b(),
            GpuId(1),
            LlmInformerConfig::default(),
        );
        let consumer = opt_flexgen(
            self,
            OffloadKind::Aqua,
            crate::fig07_long_prompt::CONTEXT_BUDGET,
        );
        let mut driver = Driver::new();
        if let Some(auditor) = &self.auditor {
            driver.set_auditor(auditor.clone());
        }
        if let Some(plan) = &self.fault_plan {
            for (start, end) in plan.gpu_crashes(GpuId(1)) {
                // The producer goes dark: no ticks, no informer heartbeats
                // (so the chaos TTL expires its lease), arrivals held.
                driver.crash_window(1, start, end);
            }
        }
        driver.schedule_trace(0, trace);
        (consumer, producer, driver)
    }

    /// An LLM producer (vLLM serving ShareGPT) with an llm-informer.
    pub fn llm_producer_with_informer(
        &self,
        model: &ModelProfile,
        gpu: GpuId,
        config: LlmInformerConfig,
    ) -> GatewayEngine {
        let geom = *model
            .llm_geometry()
            .unwrap_or_else(|| panic!("{} is not an LLM", model.name));
        let spec = GpuSpec::a100_80g();
        let pool = spec.hbm_bytes - aqua_models::cost::llm_static_bytes(&geom, 4096);
        GatewayEngine::new(
            geom,
            spec,
            PolicyKind::Fcfs,
            GatewayConfig {
                kv_pool_bytes: pool,
                ..GatewayConfig::vllm()
            },
        )
        .with_tracer(self.tracer.clone(), format!("vllm-producer:{gpu}"))
        .with_informer(Box::new(
            LlmInformer::new(GpuRef::single(gpu), Rc::clone(&self.coordinator), config)
                .with_tracer(self.tracer.clone()),
        ))
    }
}

/// A producer engine for an image/audio model at its plateau batch size.
pub fn producer_engine(model: &ModelProfile) -> ProducerEngine {
    let spec = GpuSpec::a100_80g();
    if let Some(g) = model.diffusion_geometry() {
        let (batch, _, _) = aqua_models::cost::peak_batch_under_memory(
            spec.hbm_bytes,
            64,
            |b| aqua_models::cost::diffusion_throughput(g, &spec, b),
            |b| aqua_models::cost::diffusion_used_bytes(g, b),
        );
        ProducerEngine::new(ProducerModel::Diffusion(*g), spec, batch.max(1))
    } else if let Some(g) = model.audio_geometry() {
        let (batch, _, _) = aqua_models::cost::peak_batch_under_memory(
            spec.hbm_bytes,
            64,
            |b| aqua_models::cost::audio_throughput(g, &spec, b),
            |b| aqua_models::cost::audio_used_bytes(g, b),
        );
        ProducerEngine::new(ProducerModel::Audio(*g), spec, batch.max(1))
    } else {
        panic!("{} is not a producer-modality model", model.name);
    }
}

/// The KV pool left on an A100 after loading a model (the consumer-side
/// default unless an experiment constrains it further).
#[cfg(test)]
fn default_pool_bytes(model: &ModelProfile) -> u64 {
    let geom = model.llm_geometry().expect("LLM");
    GpuSpec::a100_80g()
        .hbm_bytes
        .saturating_sub(aqua_models::cost::llm_static_bytes(geom, 4096))
}

/// Builds the Figure 9/13 consumer: Codellama-34B under CFS.
pub fn codellama_cfs(ctx: &ServerCtx, kind: OffloadKind, pool_bytes: u64, slice: u64) -> CfsEngine {
    let model = zoo::codellama_34b();
    let geom = *model.llm_geometry().unwrap();
    CfsEngine::new(
        geom,
        GpuSpec::a100_80g(),
        CfsConfig {
            slice_tokens: slice,
            max_active: 48,
            kv_pool_bytes: pool_bytes,
        },
        ctx.offloader(kind, GpuId(0)),
    )
    .with_tracer(ctx.tracer.clone(), format!("cfs:{kind}"))
}

/// Builds the Figure 9 vLLM baseline for Codellama-34B.
pub fn codellama_vllm(pool_bytes: u64) -> GatewayEngine {
    let model = zoo::codellama_34b();
    let geom = *model.llm_geometry().unwrap();
    GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        PolicyKind::Fcfs,
        GatewayConfig {
            kv_pool_bytes: pool_bytes,
            max_batch: 48,
            ..GatewayConfig::vllm()
        },
    )
}

/// Builds the Figure 7/10 consumer: OPT-30B long prompts on FlexGen.
pub fn opt_flexgen(ctx: &ServerCtx, kind: OffloadKind, budget: u64) -> FlexGenEngine {
    let model = zoo::opt_30b();
    let geom = *model.llm_geometry().unwrap();
    FlexGenEngine::new(
        geom,
        GpuSpec::a100_80g(),
        FlexGenConfig {
            context_budget_bytes: budget,
            ..Default::default()
        },
        ctx.offloader(kind, GpuId(0)),
    )
    .with_tracer(ctx.tracer.clone(), format!("flexgen:{kind}"))
}

/// Builds the Figure 8/12 consumer: Mistral-7B with a LoRA adapter pool.
/// For AQUA the adapters are prestaged into the offload store (peer GPU);
/// for the baselines they live in host DRAM.
pub fn mistral_lora_vllm(
    ctx: &ServerCtx,
    kind: OffloadKind,
    adapters: Vec<LoraAdapter>,
    cache_slots: usize,
) -> GatewayEngine {
    let model = zoo::mistral_7b();
    let geom = *model.llm_geometry().unwrap();
    let offloader: Box<dyn Offloader> = match kind {
        OffloadKind::Aqua => {
            let mut aqua = ctx.aqua_offloader(GpuId(0));
            for a in &adapters {
                aqua.prestage(a.bytes);
            }
            Box::new(aqua)
        }
        other => ctx.offloader(other, GpuId(0)),
    };
    GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        PolicyKind::Fcfs,
        GatewayConfig {
            kv_pool_bytes: gib(20),
            lora_cache_slots: cache_slots,
            ..GatewayConfig::vllm()
        },
    )
    .with_tracer(ctx.tracer.clone(), format!("vllm-lora:{kind}"))
    .with_adapters(adapters)
    .with_offloader(offloader)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_build() {
        let two = ServerCtx::two_gpu();
        assert_eq!(two.server.gpu_count(), 2);
        let eight = ServerCtx::eight_gpu();
        assert_eq!(eight.server.gpu_count(), 8);
    }

    #[test]
    fn offloader_kinds_dispatch() {
        let ctx = ServerCtx::two_gpu();
        for kind in [
            OffloadKind::DramPinned,
            OffloadKind::DramScattered,
            OffloadKind::DramPageable,
            OffloadKind::Aqua,
        ] {
            let off = ctx.offloader(kind, GpuId(0));
            assert!(!off.label().is_empty());
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn producer_engines_pick_plateau_batches() {
        for m in [zoo::stable_diffusion(), zoo::kandinsky(), zoo::audiogen()] {
            let e = producer_engine(&m);
            assert!(e.free_bytes() > gib(20), "{} should have spare HBM", m.name);
        }
    }

    #[test]
    fn default_pools_are_positive() {
        for m in [zoo::mistral_7b(), zoo::llama2_13b(), zoo::codellama_34b()] {
            assert!(default_pool_bytes(&m) > gib(4), "{}", m.name);
        }
    }

    #[test]
    #[should_panic(expected = "not a producer-modality")]
    fn llm_is_not_a_producer_engine() {
        producer_engine(&zoo::mistral_7b());
    }
}
