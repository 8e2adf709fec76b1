//! Inference requests as engines see them, plus the per-request lifecycle
//! bookkeeping ([`SeqLifecycle`]) every serving engine shares.

use aqua_metrics::requests::RequestRecord;
use aqua_sim::time::SimTime;

/// Opaque request identifier assigned by the workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// One inference request submitted to a serving engine.
///
/// For LLM engines `prompt_tokens`/`output_tokens` are token counts; for the
/// producer engines (image/audio) a request is one item (image or clip) and
/// the token fields are ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceRequest {
    /// Request identifier (unique per workload).
    pub id: RequestId,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Number of tokens to generate before the request completes.
    pub output_tokens: u64,
    /// Index of the LoRA adapter this request needs, if any.
    pub adapter: Option<usize>,
    /// The tenant the request belongs to: 0 unless its generator says
    /// otherwise. The gateway admits and reports by it.
    pub tenant: u32,
}

impl InferenceRequest {
    /// A plain text-generation request.
    pub fn text(id: u64, prompt_tokens: u64, output_tokens: u64) -> Self {
        InferenceRequest {
            id: RequestId(id),
            prompt_tokens,
            output_tokens,
            adapter: None,
            tenant: 0,
        }
    }

    /// A request that must run with LoRA adapter `adapter`.
    pub fn with_adapter(id: u64, prompt_tokens: u64, output_tokens: u64, adapter: usize) -> Self {
        InferenceRequest {
            id: RequestId(id),
            prompt_tokens,
            output_tokens,
            adapter: Some(adapter),
            tenant: 0,
        }
    }

    /// A producer-side item request (one image or one audio clip).
    pub fn item(id: u64) -> Self {
        InferenceRequest {
            id: RequestId(id),
            prompt_tokens: 0,
            output_tokens: 1,
            adapter: None,
            tenant: 0,
        }
    }
}

/// Per-request lifecycle bookkeeping shared by every serving engine.
///
/// The CFS and gateway engines both track the same four facts about a
/// sequence — the request, its arrival, how many tokens it has generated and
/// when the first one appeared — and both turn them into the same
/// [`RequestRecord`] at completion. This struct owns that bookkeeping so the
/// engines only add their scheduler-specific state (residency, swap flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqLifecycle {
    /// The request being served.
    pub req: InferenceRequest,
    /// When the request entered the engine.
    pub arrival: SimTime,
    /// Output tokens generated so far.
    pub generated: u64,
    /// When the first output token was produced, once it has been.
    pub first_token: Option<SimTime>,
}

impl SeqLifecycle {
    /// Starts tracking `req` as of `arrival`. Output is clamped to at least
    /// one token: a zero-token request would otherwise complete without ever
    /// producing a first-token timestamp.
    pub fn new(mut req: InferenceRequest, arrival: SimTime) -> Self {
        req.output_tokens = req.output_tokens.max(1);
        SeqLifecycle {
            req,
            arrival,
            generated: 0,
            first_token: None,
        }
    }

    /// Tokens currently in the KV context: the prompt plus everything
    /// generated so far. This is also what a preempted-and-recomputed
    /// sequence must re-prefill before decoding resumes.
    pub fn context_tokens(&self) -> u64 {
        self.req.prompt_tokens + self.generated
    }

    /// Accounts one generated token at `at`, stamping the first-token time
    /// on the first call.
    pub fn note_token(&mut self, at: SimTime) {
        self.generated += 1;
        if self.first_token.is_none() {
            self.first_token = Some(at);
        }
    }

    /// Returns `true` once the request has generated all its tokens.
    pub fn is_complete(&self) -> bool {
        self.generated >= self.req.output_tokens
    }

    /// The completion record, with `completion` as the last-token time.
    ///
    /// # Panics
    ///
    /// Panics if no token was ever generated (records require a first-token
    /// timestamp).
    pub fn record(&self, completion: SimTime) -> RequestRecord {
        RequestRecord {
            id: self.req.id.0,
            arrival: self.arrival,
            first_token: self
                .first_token
                .expect("completed sequences emitted at least one token"),
            completion,
            output_tokens: self.generated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = InferenceRequest::text(1, 100, 50);
        assert_eq!(r.id, RequestId(1));
        assert_eq!(r.adapter, None);
        assert_eq!(r.tenant, 0);
        let l = InferenceRequest::with_adapter(2, 10, 5, 7);
        assert_eq!(l.adapter, Some(7));
        let i = InferenceRequest::item(3);
        assert_eq!(i.output_tokens, 1);
        assert_eq!(RequestId(3).to_string(), "req3");
    }

    #[test]
    fn lifecycle_clamps_and_counts() {
        let mut s = SeqLifecycle::new(InferenceRequest::text(7, 100, 0), SimTime::from_secs(1));
        assert_eq!(s.req.output_tokens, 1, "zero-token requests are clamped");
        assert_eq!(s.context_tokens(), 100);
        assert!(!s.is_complete());
        s.note_token(SimTime::from_secs(2));
        assert_eq!(s.first_token, Some(SimTime::from_secs(2)));
        assert_eq!(s.context_tokens(), 101);
        assert!(s.is_complete());
        let r = s.record(SimTime::from_secs(3));
        assert_eq!(r.id, 7);
        assert_eq!(r.output_tokens, 1);
        assert!((r.ttft() - 1.0).abs() < 1e-9);
        assert!((r.rct() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lifecycle_first_token_is_sticky() {
        let mut s = SeqLifecycle::new(InferenceRequest::text(1, 10, 3), SimTime::ZERO);
        s.note_token(SimTime::from_secs(1));
        s.note_token(SimTime::from_secs(2));
        assert_eq!(s.first_token, Some(SimTime::from_secs(1)));
        assert_eq!(s.generated, 2);
        assert!(!s.is_complete());
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn record_without_tokens_panics() {
        SeqLifecycle::new(InferenceRequest::text(0, 1, 1), SimTime::ZERO).record(SimTime::ZERO);
    }
}
