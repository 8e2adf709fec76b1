//! Per-token streaming delivery records — the serving-gateway view of a
//! request.
//!
//! The figure harnesses summarize a request by two timestamps (first and
//! last token, [`crate::requests::RequestRecord`]); a serving front-end
//! additionally cares *when every token* reached the client, because the
//! user-visible SLOs are TTFT and inter-token latency (ITL). [`TokenStream`]
//! keeps the full delivery timeline of one request and [`StreamLog`]
//! aggregates streams into P50/P99 TTFT and ITL summaries.

use crate::latency::Summary;
use crate::requests::RequestRecord;
use aqua_sim::time::SimTime;

/// The token-delivery timeline of one request served by a gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenStream {
    /// Request identifier.
    pub id: u64,
    /// Tenant the request belongs to.
    pub tenant: u32,
    /// When the request entered the gateway.
    pub arrival: SimTime,
    /// Delivery time of every output token, in order (never empty for a
    /// completed stream).
    pub tokens: Vec<SimTime>,
}

impl TokenStream {
    /// Time to first token, seconds. `None` when the stream delivered no
    /// tokens (a request cancelled, shed or aborted before its first token).
    pub fn ttft(&self) -> Option<f64> {
        self.tokens
            .first()
            .map(|t| t.duration_since(self.arrival).as_secs_f64())
    }

    /// When the last token was delivered, or `None` for a tokenless stream.
    pub fn completion(&self) -> Option<SimTime> {
        self.tokens.last().copied()
    }

    /// Gaps between consecutive token deliveries, seconds. Empty for a
    /// single-token (or tokenless) stream.
    fn itl_samples(&self) -> Vec<f64> {
        self.tokens
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect()
    }

    /// Collapses the stream to the two-timestamp record the figure
    /// harnesses consume. `None` for a tokenless stream, which has no
    /// first-token or completion timestamp to report.
    pub fn record(&self) -> Option<RequestRecord> {
        Some(RequestRecord {
            id: self.id,
            arrival: self.arrival,
            first_token: *self.tokens.first()?,
            completion: self.completion()?,
            output_tokens: self.tokens.len() as u64,
        })
    }
}

/// A log of completed token streams with SLO-oriented accessors.
///
/// # Example
///
/// ```
/// use aqua_metrics::streaming::{StreamLog, TokenStream};
/// use aqua_sim::time::SimTime;
///
/// let mut log = StreamLog::new();
/// log.record(TokenStream {
///     id: 0,
///     tenant: 1,
///     arrival: SimTime::ZERO,
///     tokens: vec![SimTime::from_millis(100), SimTime::from_millis(150)],
/// });
/// assert_eq!(log.ttft_summary().p99, 0.1);
/// assert_eq!(log.itl_summary().p50, 0.05);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamLog {
    streams: Vec<TokenStream>,
}

impl StreamLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a completed stream.
    pub fn record(&mut self, stream: TokenStream) {
        self.streams.push(stream);
    }

    /// All streams, in recording order.
    pub fn streams(&self) -> &[TokenStream] {
        &self.streams
    }

    /// Number of completed streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Returns `true` if nothing completed.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// TTFT samples in arrival order, seconds. Tokenless streams contribute
    /// no sample.
    pub fn ttfts(&self) -> Vec<f64> {
        let mut by_arrival = self.streams.clone();
        by_arrival.sort_by_key(|s| (s.arrival, s.id));
        by_arrival.iter().filter_map(TokenStream::ttft).collect()
    }

    /// Every inter-token gap across all streams, seconds.
    pub fn itls(&self) -> Vec<f64> {
        let mut by_arrival = self.streams.clone();
        by_arrival.sort_by_key(|s| (s.arrival, s.id));
        by_arrival.iter().flat_map(|s| s.itl_samples()).collect()
    }

    /// Summary statistics over TTFTs (all-zero default when empty).
    pub fn ttft_summary(&self) -> Summary {
        Summary::from_samples(&self.ttfts())
    }

    /// Summary statistics over inter-token latencies.
    pub fn itl_summary(&self) -> Summary {
        Summary::from_samples(&self.itls())
    }

    /// Streams belonging to `tenant` only.
    pub fn tenant(&self, tenant: u32) -> StreamLog {
        StreamLog {
            streams: self
                .streams
                .iter()
                .filter(|s| s.tenant == tenant)
                .cloned()
                .collect(),
        }
    }
}

impl FromIterator<TokenStream> for StreamLog {
    fn from_iter<I: IntoIterator<Item = TokenStream>>(iter: I) -> Self {
        StreamLog {
            streams: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(id: u64, tenant: u32, arrival_ms: u64, token_ms: &[u64]) -> TokenStream {
        TokenStream {
            id,
            tenant,
            arrival: SimTime::from_millis(arrival_ms),
            tokens: token_ms.iter().map(|&t| SimTime::from_millis(t)).collect(),
        }
    }

    #[test]
    fn ttft_itl_and_record() {
        let s = stream(7, 2, 100, &[250, 300, 400]);
        assert!((s.ttft().unwrap() - 0.15).abs() < 1e-9);
        assert_eq!(s.itl_samples(), vec![0.05, 0.1]);
        let r = s.record().unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.output_tokens, 3);
        assert_eq!(r.completion, SimTime::from_millis(400));
    }

    #[test]
    fn single_token_stream_has_no_itl() {
        let s = stream(0, 0, 0, &[50]);
        assert!(s.itl_samples().is_empty());
        assert_eq!(s.completion(), Some(SimTime::from_millis(50)));
    }

    #[test]
    fn tokenless_stream_is_total_not_panicking() {
        let s = stream(3, 0, 100, &[]);
        assert_eq!(s.ttft(), None);
        assert_eq!(s.completion(), None);
        assert_eq!(s.record(), None);
        assert!(s.itl_samples().is_empty());

        let mut log = StreamLog::new();
        log.record(s);
        log.record(stream(4, 0, 0, &[50]));
        // The tokenless stream contributes no samples and no record, and
        // percentile queries over the remaining single-token stream are
        // well-defined rather than panicking.
        assert_eq!(log.ttfts(), vec![0.05]);
        assert_eq!(log.ttft_summary().count, 1);
        assert_eq!(log.itl_summary().count, 0);
    }

    #[test]
    fn log_summaries_and_tenant_filter() {
        let mut log = StreamLog::new();
        log.record(stream(1, 0, 0, &[100, 200]));
        log.record(stream(2, 1, 0, &[300, 350]));
        assert_eq!(log.len(), 2);
        assert_eq!(log.itls(), vec![0.1, 0.05]);
        assert_eq!(log.tenant(1).len(), 1);
        assert!((log.tenant(1).ttft_summary().p50 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_log_is_safe() {
        let log = StreamLog::new();
        assert!(log.is_empty());
        assert_eq!(log.ttft_summary().p99, 0.0);
        assert_eq!(log.itl_summary().count, 0);
    }
}
