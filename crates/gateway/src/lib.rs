//! # aqua-gateway — a request-level serving front-end
//!
//! The engines in `aqua-engines` answer "how fast does one scheduler policy
//! execute a fixed batch"; a serving deployment additionally decides *which*
//! request decodes next, and that decision dominates the user-visible SLOs
//! (P99 TTFT, inter-token latency) under load. This crate adds that layer:
//!
//! * [`scheduler`] — a pluggable decode [`scheduler::Scheduler`] trait and a
//!   zoo of five policies: FCFS, pure SJF, SJF + length-bucketing, SJF +
//!   starvation-aging and an Orca-style remaining-length predictor.
//! * [`admission`] — per-tenant outstanding-request caps, so one tenant's
//!   backlog (e.g. batch long-prompt jobs) cannot monopolize the engine,
//!   plus opt-in overload protection: queue-depth watermarks, KV-cost
//!   shedding and a hysteresis brownout that throttles batch tenants.
//! * [`outcome`] — the typed [`outcome::RequestOutcome`] taxonomy
//!   (completed / shed / timed-out / crash-aborted / retried), per-tenant
//!   SLO deadlines and the deterministic bounded-retry budget.
//! * [`engine`] — [`engine::GatewayEngine`], the workspace's one
//!   continuous-batching engine (paged KV admission, youngest-first
//!   preemption, optional [`aqua_engines::offload::Offloader`] swap path,
//!   LoRA adapter cache, producer-mode donation) that records the delivery
//!   time of every output token into
//!   [`aqua_metrics::streaming::TokenStream`]s, making TTFT and ITL
//!   percentiles first-class outputs. The paper's vLLM baseline is its
//!   FCFS configuration, [`engine::GatewayConfig::vllm`].
//!
//! The gateway sits on the existing [`aqua_engines::driver::Driver`] event
//! loop, so it composes with crash windows, informers and every offloader —
//! the `serve_schedulers` experiment in `aqua-bench` crosses the policy zoo
//! with AQUA offloading on and off under memory pressure.

pub mod admission;
pub mod arena;
pub mod engine;
pub mod outcome;
pub mod scheduler;

pub mod prelude {
    //! Convenience re-exports.
    pub use crate::admission::{AdmissionController, BrownoutConfig, OverloadPolicy};
    pub use crate::engine::{GatewayConfig, GatewayEngine};
    pub use crate::outcome::{
        DeadlineKind, OutcomeLog, RequestOutcome, ShedReason, SloPolicy, TenantSlo,
    };
    pub use crate::scheduler::{PolicyKind, QueuedMeta, Scheduler};
}

pub use prelude::*;
