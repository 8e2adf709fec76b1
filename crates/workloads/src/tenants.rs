//! Multi-tenant serving mixes for the gateway front-end.
//!
//! A serving deployment multiplexes tenants with very different traffic
//! shapes onto one engine: interactive chat (ShareGPT-like), code
//! summarization (Table 1's Codellama workload) and non-interactive batch
//! jobs with long prompts (§6's FlexGen workload). [`tenant_trace`] merges
//! one seeded trace per tenant into a single arrival-ordered stream and
//! remembers which tenant each request id belongs to, so the gateway can
//! apply per-tenant admission control and report per-tenant SLOs.

use crate::longprompt::long_prompt_trace;
use crate::sharegpt::{sharegpt_trace, ShareGptConfig};
use aqua_engines::request::InferenceRequest;
use aqua_sim::time::SimTime;
use std::collections::BTreeMap;

/// The interactive chat tenant.
pub const TENANT_CHAT: u32 = 0;
/// The code-summarization tenant.
pub const TENANT_CODE: u32 = 1;
/// The batch long-prompt tenant.
pub const TENANT_BATCH: u32 = 2;

/// Id blocks keep each tenant's request ids disjoint and recognizable.
const ID_BLOCK: u64 = 1_000_000;

/// A merged multi-tenant request stream.
#[derive(Debug, Clone)]
pub struct TenantTrace {
    /// Arrival-ordered `(arrival, request)` pairs across all tenants.
    pub trace: Vec<(SimTime, InferenceRequest)>,
    /// Which tenant each request id belongs to.
    pub tenant_of: BTreeMap<u64, u32>,
}

/// Builds the standard three-tenant mix.
///
/// * `chat` — `count` ShareGPT-like requests at `rate` req/s, with replies
///   capped at 256 tokens: interactive turns are short, and the long-output
///   tail of raw ShareGPT belongs to the batch tenant here.
/// * `code` — `count / 2` code-summary requests at `rate / 2` req/s.
/// * `batch` — `1 + count / 32` long-prompt jobs decoding 512-token
///   outputs, all queued at time zero (batch tenants submit a backlog, not
///   an arrival process).
///
/// Deterministic in `(rate, count, seed)`; per-tenant sub-seeds are derived
/// so tenants draw independent streams.
pub fn tenant_trace(rate: f64, count: usize, seed: u64) -> TenantTrace {
    let mut chat_cfg = ShareGptConfig::new(rate, count);
    chat_cfg.output_range = (8, 256);
    let code_cfg = ShareGptConfig::code_summary((rate / 2.0).max(0.5), count / 2);
    let batch_jobs = 1 + count / 32;

    let mut trace = Vec::new();
    let mut tenant_of = BTreeMap::new();
    let mut extend = |part: Vec<(SimTime, InferenceRequest)>, tenant: u32| {
        for (at, req) in part {
            tenant_of.insert(req.id.0, tenant);
            trace.push((at, req));
        }
    };
    extend(sharegpt_trace(&chat_cfg, seed, 0), TENANT_CHAT);
    extend(
        sharegpt_trace(&code_cfg, seed.wrapping_add(0x9E37), ID_BLOCK),
        TENANT_CODE,
    );
    extend(
        long_prompt_trace(batch_jobs, 512, 2 * ID_BLOCK),
        TENANT_BATCH,
    );

    trace.sort_by_key(|(at, req)| (*at, req.id.0));
    TenantTrace { trace, tenant_of }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_shape_and_ids() {
        let t = tenant_trace(4.0, 64, 7);
        assert_eq!(t.trace.len(), 64 + 32 + 3);
        assert_eq!(t.tenant_of.len(), t.trace.len(), "ids are disjoint");
        assert!(t.trace.windows(2).all(|w| w[0].0 <= w[1].0));
        let batch: Vec<_> = t
            .trace
            .iter()
            .filter(|(_, r)| t.tenant_of[&r.id.0] == TENANT_BATCH)
            .collect();
        assert_eq!(batch.len(), 3);
        for (at, r) in batch {
            assert_eq!(*at, SimTime::ZERO);
            assert_eq!(r.prompt_tokens, crate::longprompt::LONG_PROMPT_TOKENS);
            assert_eq!(r.output_tokens, 512);
        }
        assert!(
            t.trace
                .iter()
                .filter(|(_, r)| t.tenant_of[&r.id.0] == TENANT_CHAT)
                .all(|(_, r)| r.output_tokens <= 256),
            "interactive turns are short"
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let a = tenant_trace(2.0, 40, 11);
        let b = tenant_trace(2.0, 40, 11);
        assert_eq!(a.trace, b.trace);
        let c = tenant_trace(2.0, 40, 12);
        assert_ne!(a.trace, c.trace);
    }
}
