//! Per-request latency records (TTFT and RCT).

use crate::latency::Summary;
use aqua_sim::time::SimTime;

/// Lifecycle timestamps of one completed inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Opaque request identifier (assigned by the workload generator).
    pub id: u64,
    /// When the request was submitted to the serving engine.
    pub arrival: SimTime,
    /// When the first output token was produced.
    pub first_token: SimTime,
    /// When the last output token was produced.
    pub completion: SimTime,
    /// Number of output tokens generated.
    pub output_tokens: u64,
}

impl RequestRecord {
    /// Time to first token, in seconds — the paper's responsiveness metric.
    pub fn ttft(&self) -> f64 {
        self.first_token.duration_since(self.arrival).as_secs_f64()
    }

    /// Request completion time, in seconds — the paper's throughput metric.
    pub fn rct(&self) -> f64 {
        self.completion.duration_since(self.arrival).as_secs_f64()
    }
}

/// A log of completed requests with summary accessors.
///
/// # Example
///
/// ```
/// use aqua_metrics::requests::{RequestLog, RequestRecord};
/// use aqua_sim::time::SimTime;
///
/// let mut log = RequestLog::new();
/// log.record(RequestRecord {
///     id: 0,
///     arrival: SimTime::ZERO,
///     first_token: SimTime::from_millis(120),
///     completion: SimTime::from_secs(2),
///     output_tokens: 100,
/// });
/// assert_eq!(log.ttfts(), vec![0.12]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestLog {
    records: Vec<RequestRecord>,
}

impl RequestLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a completed request.
    pub fn record(&mut self, rec: RequestRecord) {
        self.records.push(rec);
    }

    /// All records, in completion-recording order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Number of completed requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing completed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// TTFT samples in arrival order, seconds.
    pub fn ttfts(&self) -> Vec<f64> {
        let mut by_arrival = self.records.clone();
        by_arrival.sort_by_key(|r| (r.arrival, r.id));
        by_arrival.iter().map(RequestRecord::ttft).collect()
    }

    /// RCT samples in arrival order, seconds.
    pub fn rcts(&self) -> Vec<f64> {
        let mut by_arrival = self.records.clone();
        by_arrival.sort_by_key(|r| (r.arrival, r.id));
        by_arrival.iter().map(RequestRecord::rct).collect()
    }

    /// RCT samples sorted ascending (the Figure 8/11/12 presentation).
    pub fn sorted_rcts(&self) -> Vec<f64> {
        crate::latency::sorted(&self.rcts())
    }

    /// Summary statistics over TTFTs.
    pub fn ttft_summary(&self) -> Summary {
        Summary::from_samples(&self.ttfts())
    }

    /// Summary statistics over RCTs.
    pub fn rct_summary(&self) -> Summary {
        Summary::from_samples(&self.rcts())
    }
}

impl FromIterator<RequestRecord> for RequestLog {
    fn from_iter<I: IntoIterator<Item = RequestRecord>>(iter: I) -> Self {
        RequestLog {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<RequestRecord> for RequestLog {
    fn extend<I: IntoIterator<Item = RequestRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, arrival_ms: u64, first_ms: u64, done_ms: u64) -> RequestRecord {
        RequestRecord {
            id,
            arrival: SimTime::from_millis(arrival_ms),
            first_token: SimTime::from_millis(first_ms),
            completion: SimTime::from_millis(done_ms),
            output_tokens: 10,
        }
    }

    #[test]
    fn ttft_and_rct() {
        let r = rec(1, 100, 250, 1100);
        assert!((r.ttft() - 0.15).abs() < 1e-9);
        assert!((r.rct() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_orders_by_arrival() {
        let mut log = RequestLog::new();
        log.record(rec(2, 200, 300, 400));
        log.record(rec(1, 100, 500, 600));
        let ttfts = log.ttfts();
        assert!((ttfts[0] - 0.4).abs() < 1e-9, "first arrival first");
        assert!((ttfts[1] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn sorted_rcts_ascend() {
        let log: RequestLog = vec![rec(1, 0, 1, 500), rec(2, 0, 1, 100)]
            .into_iter()
            .collect();
        let s = log.sorted_rcts();
        assert!(s[0] < s[1]);
    }

    #[test]
    fn empty_log_summaries_are_default() {
        let log = RequestLog::new();
        assert!(log.is_empty());
        assert_eq!(log.ttft_summary().count, 0);
        assert_eq!(log.rct_summary().count, 0);
    }

    #[test]
    fn extend_and_merge() {
        let mut a = RequestLog::new();
        a.record(rec(1, 0, 1, 2));
        let b: RequestLog = vec![rec(2, 0, 1, 2)].into_iter().collect();
        a.extend(b.records().iter().copied());
        a.extend(vec![rec(3, 0, 1, 2)]);
        assert_eq!(a.len(), 3);
    }
}
