//! # aqua-gateway — a request-level serving front-end
//!
//! The engines in `aqua-engines` answer "how fast does one scheduler policy
//! execute a fixed batch"; a serving deployment additionally decides *which*
//! request decodes next, and that decision dominates the user-visible SLOs
//! (P99 TTFT, inter-token latency) under load. This crate adds that layer:
//!
//! * [`scheduler`] — the decode admission index, [`scheduler::Scheduler`],
//!   one container for a zoo of five policies that differ only in their
//!   priority key: FCFS, pure SJF, SJF + length-bucketing, SJF +
//!   starvation-aging and an Orca-style remaining-length predictor. It is
//!   also the one store of the gateway's queued sequences, whose keys it
//!   reads through [`scheduler::Queued`].
//! * [`admission`] — per-tenant outstanding-request caps, so one tenant's
//!   backlog (e.g. batch long-prompt jobs) cannot monopolize the engine,
//!   plus opt-in overload protection: queue-depth watermarks, KV-cost
//!   shedding and a hysteresis brownout that throttles batch tenants.
//! * [`outcome`] — per-tenant SLO deadlines, the deterministic
//!   bounded-retry budget and [`outcome::OutcomeCounts`], the five counts
//!   (completed, shed, timed out, crash-aborted, retries) a gateway keeps
//!   of how its requests ended; the journal holds each request's fate.
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
pub mod engine;
pub mod outcome;
pub mod scheduler;

pub mod prelude {
    //! Convenience re-exports.
    pub use crate::admission::{AdmissionController, BrownoutConfig, OverloadPolicy};
    pub use crate::engine::{GatewayConfig, GatewayEngine};
    pub use crate::outcome::{DeadlineKind, OutcomeCounts, ShedReason, SloPolicy, TenantSlo};
    pub use crate::scheduler::{PolicyKind, Queued, Scheduler};
}

pub use prelude::*;
