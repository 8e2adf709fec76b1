//! Multi-tenant serving mixes for the gateway front-end.
//!
//! A serving deployment multiplexes tenants with very different traffic
//! shapes onto one engine: interactive chat (ShareGPT-like), code
//! summarization (Table 1's Codellama workload) and non-interactive batch
//! jobs with long prompts (§6's FlexGen workload). [`tenant_stream`] merges
//! one seeded stream per tenant into a single arrival-ordered stream whose
//! requests carry their tenant, so the gateway can apply per-tenant
//! admission control and report per-tenant SLOs.

use crate::longprompt::LONG_PROMPT_TOKENS;
use crate::sharegpt::{sharegpt_stream, ShareGptConfig, ShareGptStream};
use aqua_engines::request::InferenceRequest;
use aqua_sim::time::SimTime;
use std::collections::BTreeMap;
use std::iter::{Map, Peekable};
use std::ops::Range;

/// The interactive chat tenant.
pub const TENANT_CHAT: u32 = 0;
/// The code-summarization tenant.
pub const TENANT_CODE: u32 = 1;
/// The batch long-prompt tenant.
pub const TENANT_BATCH: u32 = 2;

/// Id blocks keep each tenant's request ids disjoint and recognizable.
const ID_BLOCK: u64 = 1_000_000;

/// Output tokens of each batch job.
const BATCH_OUTPUT_TOKENS: u64 = 512;

/// A merged multi-tenant request stream, collected.
#[derive(Debug, Clone)]
pub struct TenantTrace {
    /// Arrival-ordered `(arrival, request)` pairs across all tenants.
    pub trace: Vec<(SimTime, InferenceRequest)>,
    /// Which tenant each request id belongs to: each request's own
    /// `tenant`, by id.
    pub tenant_of: BTreeMap<u64, u32>,
}

/// [`tenant_stream`], collected, with its tenants by id.
pub fn tenant_trace(rate: f64, count: usize, seed: u64) -> TenantTrace {
    let trace: Vec<_> = tenant_stream(rate, count, seed).collect();
    let tenant_of = trace.iter().map(|(_, r)| (r.id.0, r.tenant)).collect();
    TenantTrace { trace, tenant_of }
}

/// The standard three-tenant mix, drawn one request at a time.
///
/// * `chat` — `count` ShareGPT-like requests at `rate` req/s, with replies
///   capped at 256 tokens: interactive turns are short, and the long-output
///   tail of raw ShareGPT belongs to the batch tenant here.
/// * `code` — `count / 2` code-summary requests at `rate / 2` req/s.
/// * `batch` — `1 + count / 32` long-prompt jobs decoding 512-token
///   outputs, all queued at time zero (batch tenants submit a backlog, not
///   an arrival process).
///
/// The stream yields the three in `(arrival, id)` order, each request
/// tagged with its tenant, and its `len()` is exact throughout.
/// Deterministic in `(rate, count, seed)`; per-tenant sub-seeds are derived
/// so tenants draw independent streams.
pub fn tenant_stream(rate: f64, count: usize, seed: u64) -> TenantStream {
    let mut chat_cfg = ShareGptConfig::new(rate, count);
    chat_cfg.output_range = (8, 256);
    let code_cfg = ShareGptConfig::code_summary((rate / 2.0).max(0.5), count / 2);
    let chat = sharegpt_stream(&chat_cfg, seed, 0).for_tenant(TENANT_CHAT);
    let code =
        sharegpt_stream(&code_cfg, seed.wrapping_add(0x9E37), ID_BLOCK).for_tenant(TENANT_CODE);
    let batch: BatchJobs = (0..1 + count / 32).map(batch_job);
    TenantStream {
        chat: chat.peekable(),
        code: code.peekable(),
        batch: batch.peekable(),
    }
}

/// One `(arrival, request)` pair.
type Arrival = (SimTime, InferenceRequest);

/// The batch tenant's jobs, by index.
type BatchJobs = Map<Range<usize>, fn(usize) -> Arrival>;

/// Batch job `i`: a long prompt decoding 512 tokens, queued at time zero.
fn batch_job(i: usize) -> Arrival {
    let id = 2 * ID_BLOCK + i as u64;
    let req = InferenceRequest {
        tenant: TENANT_BATCH,
        ..InferenceRequest::text(id, LONG_PROMPT_TOKENS, BATCH_OUTPUT_TOKENS)
    };
    (SimTime::ZERO, req)
}

/// The iterator [`tenant_stream`] returns: three per-tenant streams,
/// merged on `(arrival, id)`.
#[derive(Debug, Clone)]
pub struct TenantStream {
    chat: Peekable<ShareGptStream>,
    code: Peekable<ShareGptStream>,
    batch: Peekable<BatchJobs>,
}

impl Iterator for TenantStream {
    type Item = Arrival;

    fn next(&mut self) -> Option<Self::Item> {
        let key = |head: Option<&Self::Item>| head.map(|(at, req)| (*at, req.id));
        let heads = [
            key(self.chat.peek()),
            key(self.code.peek()),
            key(self.batch.peek()),
        ];
        let (_, first) = (0..3).filter_map(|i| Some((heads[i]?, i))).min()?;
        match first {
            0 => self.chat.next(),
            1 => self.code.next(),
            _ => self.batch.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.chat.len() + self.code.len() + self.batch.len();
        (left, Some(left))
    }
}

impl ExactSizeIterator for TenantStream {}

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

    /// The trace as it was built before it streamed: each ShareGPT-like
    /// part drawn whole, every arrival before any length, the three parts
    /// sorted on `(arrival, id)`, and the tenants in a map by id.
    fn eager_oracle(rate: f64, count: usize, seed: u64) -> TenantTrace {
        use crate::longprompt::long_prompt_trace;
        use crate::sampling::Sampler;
        let eager_sharegpt = |config: &ShareGptConfig, seed, id_base| {
            let mut s = Sampler::new(seed);
            let arrivals = s.poisson_arrivals(SimTime::ZERO, config.rate, config.count);
            let mut part = Vec::new();
            for (i, at) in arrivals.into_iter().enumerate() {
                let (mu, sigma, (min, max)) =
                    (config.prompt_mu, config.prompt_sigma, config.prompt_range);
                let prompt = s.token_count(mu, sigma, min, max);
                let (mu, sigma, (min, max)) =
                    (config.output_mu, config.output_sigma, config.output_range);
                let output = s.token_count(mu, sigma, min, max);
                part.push((
                    at,
                    InferenceRequest::text(id_base + i as u64, prompt, output),
                ));
            }
            part
        };
        let mut chat_cfg = ShareGptConfig::new(rate, count);
        chat_cfg.output_range = (8, 256);
        let code_cfg = ShareGptConfig::code_summary((rate / 2.0).max(0.5), count / 2);
        let parts = [
            (eager_sharegpt(&chat_cfg, seed, 0), TENANT_CHAT),
            (
                eager_sharegpt(&code_cfg, seed.wrapping_add(0x9E37), ID_BLOCK),
                TENANT_CODE,
            ),
            (
                long_prompt_trace(1 + count / 32, 512, 2 * ID_BLOCK),
                TENANT_BATCH,
            ),
        ];
        let mut trace = Vec::new();
        let mut tenant_of = BTreeMap::new();
        for (part, tenant) in parts {
            for (at, req) in part {
                tenant_of.insert(req.id.0, tenant);
                trace.push((at, req));
            }
        }
        trace.sort_by_key(|(at, req)| (*at, req.id.0));
        TenantTrace { trace, tenant_of }
    }

    aqua_sim::check! {
        /// The stream yields the eager trace's pairs, in its order, each
        /// request tagged with the tenant the eager map gives its id, and
        /// its `len()` counts what is left before and after every `next()`.
        #[test]
        fn the_stream_is_the_eager_trace(
            rate in 0.1f64..10.0,
            count in 0usize..5_001,
            seed in 0u64..u64::MAX
        ) {
            let oracle = eager_oracle(rate, count, seed);
            let mut stream = tenant_stream(rate, count, seed);
            for (i, (at, want)) in oracle.trace.iter().enumerate() {
                assert_eq!(stream.len(), oracle.trace.len() - i);
                let (got_at, got) = stream.next().expect("the stream ends early");
                assert_eq!(got.tenant, oracle.tenant_of[&got.id.0], "request {}", got.id);
                assert_eq!((got_at, InferenceRequest { tenant: 0, ..got }), (*at, want.clone()));
            }
            assert_eq!(stream.len(), 0);
            assert_eq!(stream.next(), None);
            assert_eq!(stream.len(), 0);
        }
    }

    #[test]
    fn the_collected_map_is_the_eager_map() {
        let t = tenant_trace(3.0, 500, 5);
        assert_eq!(t.tenant_of, eager_oracle(3.0, 500, 5).tenant_of);
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
