//! # aqua-workloads — seeded synthetic inference workloads
//!
//! The paper's evaluation drives AQUA with five workload families (§6,
//! Tables 1–3). The original datasets (ShareGPT, Parti prompts, audio
//! descriptions, the authors' own Python files) enter the evaluation only
//! through *length and arrival distributions*, so this crate generates
//! statistically equivalent traces from explicit seeds:
//!
//! * [`sharegpt`] — interactive chat requests with ShareGPT-like log-normal
//!   prompt/response lengths and Poisson arrivals at 1–10 req/s, drawn one
//!   request at a time.
//! * [`longprompt`] — FlexGen's non-interactive long-prompt jobs (8,000
//!   tokens, the GPT-4 context limit the paper cites).
//! * [`lora`] — requests that each need one adapter from a pool (30×320 MB
//!   in Figure 8; 200 adapters of 160/320 MB in Figure 12).
//! * [`chat`] — the closed-loop multi-turn chatbot of Figure 13 (25 users,
//!   think-time between turns).
//! * [`items`] — producer-side image/audio item streams (Parti-style), with
//!   multi-phase rates for the Figure 10 elasticity timeline.
//! * [`sampling`] — the seeded samplers (exponential, log-normal, Poisson
//!   process) everything above is built on. No `rand_distr` dependency:
//!   the transforms are implemented here and unit-tested.
//! * [`tenants`] — merged multi-tenant mixes (chat + code + batch) for the
//!   serving gateway in `aqua-gateway`, streamed, each request tagged with
//!   its tenant.

pub mod chat;
pub mod items;
pub mod longprompt;
pub mod lora;
pub mod sampling;
pub mod sharegpt;
pub mod tenants;

pub mod prelude {
    //! Convenience re-exports.
    pub use crate::chat::ChatWorkload;
    pub use crate::items::{item_trace, phased_item_trace, RatePhase};
    pub use crate::longprompt::long_prompt_trace;
    pub use crate::lora::{lora_trace, lora_trace_skewed};
    pub use crate::sampling::Sampler;
    pub use crate::sharegpt::{sharegpt_stream, sharegpt_trace, ShareGptConfig, ShareGptStream};
    pub use crate::tenants::{tenant_stream, tenant_trace, TenantStream, TenantTrace};
}

pub use prelude::*;
