//! ShareGPT-like interactive chat traces.
//!
//! "Inspired by related work, we use the Share-GPT dataset to sample
//! requests for interactive inference … We use the length of the response
//! for a prompt in the dataset and set it as the generation length and use
//! poisson distribution for request arrivals times. Like vLLM, we continue
//! to use request rates between 1-10 per second" (§6).
//!
//! ShareGPT conversations have heavy-tailed lengths; we fit log-normals
//! whose medians (~180-token prompts, ~200-token responses) match the
//! summary statistics commonly reported for the dataset.

use crate::sampling::Sampler;
use aqua_engines::request::InferenceRequest;
use aqua_sim::time::{SimDuration, SimTime};

/// Parameters of a ShareGPT-like trace.
#[derive(Debug, Clone)]
pub struct ShareGptConfig {
    /// Request arrival rate, requests/s (the paper sweeps 1–10).
    pub rate: f64,
    /// Number of requests.
    pub count: usize,
    /// Log-normal location of prompt length.
    pub prompt_mu: f64,
    /// Log-normal scale of prompt length.
    pub prompt_sigma: f64,
    /// Log-normal location of response length.
    pub output_mu: f64,
    /// Log-normal scale of response length.
    pub output_sigma: f64,
    /// Clamp bounds for prompt tokens.
    pub prompt_range: (u64, u64),
    /// Clamp bounds for output tokens.
    pub output_range: (u64, u64),
}

impl ShareGptConfig {
    /// A trace of `count` requests at `rate` req/s with the default
    /// ShareGPT-like length distributions.
    pub fn new(rate: f64, count: usize) -> Self {
        ShareGptConfig {
            rate,
            count,
            prompt_mu: 5.2, // median ≈ 180 tokens
            prompt_sigma: 0.9,
            output_mu: 5.3, // median ≈ 200 tokens
            output_sigma: 0.8,
            prompt_range: (16, 2048),
            output_range: (8, 1024),
        }
    }
}

impl ShareGptConfig {
    /// The Codellama code-summary workload of Table 1: "we randomly sample
    /// python files from our own code base and prompt the LLM to summarize
    /// them" — medium-length code prompts, short summaries.
    pub fn code_summary(rate: f64, count: usize) -> Self {
        ShareGptConfig {
            rate,
            count,
            prompt_mu: 5.5, // median ≈ 250 tokens of code
            prompt_sigma: 0.5,
            output_mu: 4.5, // median ≈ 90-token summary
            output_sigma: 0.5,
            prompt_range: (64, 1024),
            output_range: (16, 256),
        }
    }
}

/// Generates a `(arrival, request)` trace. Request ids start at `id_base`
/// so multiple traces can coexist in one experiment.
pub fn sharegpt_trace(
    config: &ShareGptConfig,
    seed: u64,
    id_base: u64,
) -> Vec<(SimTime, InferenceRequest)> {
    sharegpt_stream(config, seed, id_base).collect()
}

/// [`sharegpt_trace`] drawn one request at a time, holding two sampler
/// states instead of the trace.
///
/// The trace draws every arrival gap, then each request's prompt and
/// output length, from one seeded generator. A gap is one `uniform`, two
/// generator words, so the lengths start at word `2·count`: the stream
/// reads gaps from a sampler at word 0 and lengths from a second one
/// sought to word `2·count`, and yields exactly the trace's requests.
pub fn sharegpt_stream(config: &ShareGptConfig, seed: u64, id_base: u64) -> ShareGptStream {
    ShareGptStream {
        config: config.clone(),
        gaps: Sampler::new(seed),
        lengths: Sampler::at_word(seed, 2 * config.count as u64),
        at: SimTime::ZERO,
        next: 0,
        id_base,
        tenant: 0,
    }
}

/// The iterator [`sharegpt_stream`] returns: exactly sized, in arrival
/// order, ids ascending from its base.
#[derive(Debug, Clone)]
pub struct ShareGptStream {
    config: ShareGptConfig,
    /// Draws the arrival gaps.
    gaps: Sampler,
    /// Draws the prompt and output lengths, `2·count` words in.
    lengths: Sampler,
    /// The last arrival yielded.
    at: SimTime,
    /// Requests yielded so far.
    next: usize,
    id_base: u64,
    tenant: u32,
}

impl ShareGptStream {
    /// The stream with every request tagged as `tenant`'s.
    pub(crate) fn for_tenant(self, tenant: u32) -> Self {
        ShareGptStream { tenant, ..self }
    }
}

impl Iterator for ShareGptStream {
    type Item = (SimTime, InferenceRequest);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.config.count {
            return None;
        }
        let c = &self.config;
        self.at += SimDuration::from_secs_f64(self.gaps.exponential(c.rate));
        let prompt = self.lengths.token_count(
            c.prompt_mu,
            c.prompt_sigma,
            c.prompt_range.0,
            c.prompt_range.1,
        );
        let output = self.lengths.token_count(
            c.output_mu,
            c.output_sigma,
            c.output_range.0,
            c.output_range.1,
        );
        let id = self.id_base + self.next as u64;
        self.next += 1;
        let req = InferenceRequest {
            tenant: self.tenant,
            ..InferenceRequest::text(id, prompt, output)
        };
        Some((self.at, req))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.count - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ShareGptStream {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_shape() {
        let cfg = ShareGptConfig::new(5.0, 200);
        let trace = sharegpt_trace(&cfg, 1, 100);
        assert_eq!(trace.len(), 200);
        assert!(
            trace.windows(2).all(|w| w[0].0 <= w[1].0),
            "sorted arrivals"
        );
        assert_eq!(trace[0].1.id.0, 100);
        assert_eq!(trace[199].1.id.0, 299);
        for (_, r) in &trace {
            assert!((16..=2048).contains(&r.prompt_tokens));
            assert!((8..=1024).contains(&r.output_tokens));
            assert!(r.adapter.is_none());
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = ShareGptConfig::new(2.0, 50);
        assert_eq!(sharegpt_trace(&cfg, 9, 0), sharegpt_trace(&cfg, 9, 0));
        assert_ne!(sharegpt_trace(&cfg, 9, 0), sharegpt_trace(&cfg, 10, 0));
    }

    #[test]
    fn median_lengths_are_sharegpt_like() {
        let cfg = ShareGptConfig::new(5.0, 4000);
        let trace = sharegpt_trace(&cfg, 7, 0);
        let mut prompts: Vec<u64> = trace.iter().map(|(_, r)| r.prompt_tokens).collect();
        prompts.sort_unstable();
        let median = prompts[prompts.len() / 2];
        assert!((100..350).contains(&median), "prompt median {median}");
    }
}
