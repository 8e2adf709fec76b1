//! The serving cases the gateway's integration tests draw: a policy, a
//! preemption mode, a GPU crash window, SLO deadlines, brownout and a
//! donating informer over a random three-tenant trace.

use aqua_engines::driver::Driver;
use aqua_engines::northbound::{Informer, MemoryElastic};
use aqua_engines::offload::DramOffloader;
use aqua_engines::request::InferenceRequest;
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::admission::{BrownoutConfig, OverloadPolicy};
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::outcome::{SloPolicy, TenantSlo};
use aqua_gateway::scheduler::PolicyKind;
use aqua_models::zoo;
use aqua_sim::fault::FaultPlan;
use aqua_sim::gpu::{GpuId, GpuSpec};
use aqua_sim::link::bytes::gib;
use aqua_sim::time::{SimDuration, SimTime};
use aqua_sim::topology::ServerTopology;
use aqua_sim::transfer::TransferEngine;
use aqua_telemetry::SharedTracer;
use std::cell::RefCell;
use std::rc::Rc;

/// Donates half the donatable pool while the queue is empty and takes
/// everything back once requests wait.
pub struct Donor;

impl Informer for Donor {
    fn control(&mut self, engine: &mut dyn MemoryElastic, now: SimTime) -> SimTime {
        let stats = engine.stats();
        if stats.pending_requests == 0 {
            engine.donate(stats.donatable_bytes / 2);
        } else if stats.donated_bytes > 0 {
            engine.reclaim(stats.donated_bytes);
        }
        now
    }
}

/// Where a case's GPU crash lands.
#[derive(Debug, Clone, Copy)]
pub enum Crash {
    None,
    /// The driver pauses the gateway over the window, and the gateway's
    /// fault plan aborts its batch when the window ends.
    Window,
    /// Only the gateway knows the plan: it is not paused, and handles the
    /// crash at its first step inside the window.
    PlanOnly,
}

/// The drawn features of one case.
#[derive(Debug, Clone, Copy)]
pub struct Features {
    pub policy: PolicyKind,
    pub swap: bool,
    pub crash: Crash,
    pub slo: bool,
    pub brownout: bool,
    pub informer: bool,
}

impl Features {
    /// The features of drawn indices: `policy` into [`PolicyKind::ALL`],
    /// `crash` into the three [`Crash`] kinds, and SLOs and the informer
    /// one draw in four (they keep every run per-step).
    pub fn drawn(
        policy: usize,
        swap: bool,
        crash: usize,
        slo: u8,
        brownout: bool,
        informer: u8,
    ) -> Self {
        Features {
            policy: PolicyKind::ALL[policy],
            swap,
            crash: [Crash::None, Crash::Window, Crash::PlanOnly][crash],
            slo: slo == 0,
            brownout,
            informer: informer == 0,
        }
    }
}

/// The gateway and driver of one case, serving `reqs` (`(prompt, output,
/// arrival ms)`) from three capped tenants on a 6 GiB Mistral-7B pool
/// (large enough to donate from) with an 8-sequence batch, journalling into
/// `tracer` under the scope `gateway:twin`. The crash window is shorter
/// than the first retry backoff, so retries stay parked while others
/// decode.
pub fn cell(
    reqs: &[(u64, u64, u64)],
    f: Features,
    tracer: SharedTracer,
) -> (GatewayEngine, Driver) {
    let geom = *zoo::mistral_7b().llm_geometry().unwrap();
    let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
    let transfers = Rc::new(RefCell::new(TransferEngine::new()));
    let (crash_start, crash_end) = (SimTime::from_secs(10), SimTime::from_millis(10_100));
    let overload = OverloadPolicy {
        brownout: f.brownout.then(|| BrownoutConfig {
            enter_depth: 3,
            exit_depth: 1,
            capped_tenants: vec![1],
            capped_outstanding: 1,
        }),
        ..OverloadPolicy::default()
    };
    let slo = if f.slo {
        SloPolicy::with_default(TenantSlo {
            ttft: Some(SimDuration::from_secs(8)),
            total: Some(SimDuration::from_secs(40)),
        })
    } else {
        SloPolicy::none()
    };
    let mut gateway = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        f.policy,
        GatewayConfig {
            max_batch: 8,
            kv_pool_bytes: gib(6),
            preemption: if f.swap {
                PreemptionPolicy::Swap
            } else {
                PreemptionPolicy::Recompute
            },
            max_outstanding_per_tenant: 4,
            overload,
            slo,
            ..GatewayConfig::default()
        },
    )
    .with_tracer(tracer, "gateway:twin")
    .with_offloader(Box::new(DramOffloader::pinned(
        &server,
        GpuId(0),
        transfers,
    )));
    let mut driver = Driver::new();
    if !matches!(f.crash, Crash::None) {
        let plan = FaultPlan::new().gpu_crash(GpuId(0), crash_start, crash_end);
        gateway = gateway.with_fault_plan(&plan, GpuId(0));
    }
    if matches!(f.crash, Crash::Window) {
        driver.crash_window(0, crash_start, crash_end);
    }
    if f.informer {
        gateway = gateway.with_informer(Box::new(Donor));
    }
    for (id, &(prompt, output, at_ms)) in reqs.iter().enumerate() {
        let req = InferenceRequest {
            tenant: (id % 3) as u32,
            ..InferenceRequest::text(id as u64, prompt, output)
        };
        driver.schedule_arrival(0, SimTime::from_millis(at_ms), req);
    }
    (gateway, driver)
}

/// The `run` horizons of a case, in seconds: PDES-style windows of
/// `window_s` over the busy span, then one run to drain.
pub fn window_ends(window_s: u64) -> impl Iterator<Item = u64> {
    (1..=1_200 / window_s)
        .map(move |w| w * window_s)
        .chain([2_400])
}
