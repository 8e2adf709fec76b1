//! Goodput — SLO-met tokens per second.
//!
//! Raw throughput hides overload collapse: an engine can keep emitting
//! tokens while every interactive request blows its deadline. *Goodput*
//! counts only the tokens of streams that met their tenant's SLO, so a
//! front door that protects chat latency under a 4× batch storm shows a
//! plateau where an unprotected FCFS queue shows a cliff. The `serve_chaos`
//! experiment in `aqua-bench` reports this metric per tenant and load.

use crate::streaming::{StreamLog, TokenStream};

/// The service-level objective a stream is judged against.
///
/// Deadlines are expressed in seconds relative to the request's arrival.
/// A `None` bound is unconstrained; [`SloSpec::none`] (both unconstrained)
/// accepts every completed stream, which is the right reading for batch
/// tenants whose tokens all count as useful work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSpec {
    /// Maximum time to first token, seconds.
    pub ttft_s: Option<f64>,
    /// Maximum total latency (arrival to last token), seconds.
    pub total_s: Option<f64>,
}

impl SloSpec {
    /// No deadlines: every stream with at least one token meets the SLO.
    pub fn none() -> Self {
        Self::default()
    }

    /// An interactive SLO bounding only TTFT.
    pub fn ttft(ttft_s: f64) -> Self {
        SloSpec {
            ttft_s: Some(ttft_s),
            total_s: None,
        }
    }

    /// An interactive SLO bounding both TTFT and total latency.
    pub fn interactive(ttft_s: f64, total_s: f64) -> Self {
        SloSpec {
            ttft_s: Some(ttft_s),
            total_s: Some(total_s),
        }
    }

    /// Whether `stream` met this SLO. Tokenless streams never do — they
    /// delivered nothing to a client.
    fn met_by(&self, stream: &TokenStream) -> bool {
        let Some(ttft) = stream.ttft() else {
            return false;
        };
        let Some(completion) = stream.completion() else {
            return false;
        };
        if let Some(bound) = self.ttft_s {
            if ttft > bound {
                return false;
            }
        }
        if let Some(bound) = self.total_s {
            if completion.duration_since(stream.arrival).as_secs_f64() > bound {
                return false;
            }
        }
        true
    }
}

/// Goodput over a [`StreamLog`]: how many streams met the SLO and how many
/// of the delivered tokens were SLO-met, normalized by a measurement
/// horizon.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GoodputReport {
    /// Completed streams examined.
    pub streams: usize,
    /// Streams that met the SLO.
    pub slo_met_streams: usize,
    /// Tokens delivered across all streams.
    pub total_tokens: u64,
    /// Tokens delivered by SLO-met streams.
    pub goodput_tokens: u64,
    /// Measurement horizon, seconds.
    pub horizon_s: f64,
}

impl GoodputReport {
    /// SLO-met tokens per second (0 for a non-positive horizon).
    pub fn goodput_tps(&self) -> f64 {
        if self.horizon_s > 0.0 {
            self.goodput_tokens as f64 / self.horizon_s
        } else {
            0.0
        }
    }

    /// Fraction of streams that met the SLO (0 when no streams completed).
    pub fn slo_attainment(&self) -> f64 {
        if self.streams > 0 {
            self.slo_met_streams as f64 / self.streams as f64
        } else {
            0.0
        }
    }
}

impl StreamLog {
    /// Judges every stream in the log against `slo` and reports goodput
    /// over `horizon_s` seconds.
    pub fn goodput(&self, slo: &SloSpec, horizon_s: f64) -> GoodputReport {
        let mut report = GoodputReport {
            horizon_s,
            ..GoodputReport::default()
        };
        for stream in self.streams() {
            report.streams += 1;
            report.total_tokens += stream.tokens.len() as u64;
            if slo.met_by(stream) {
                report.slo_met_streams += 1;
                report.goodput_tokens += stream.tokens.len() as u64;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::time::SimTime;

    fn stream(arrival_ms: u64, token_ms: &[u64]) -> TokenStream {
        TokenStream {
            id: arrival_ms,
            tenant: 0,
            arrival: SimTime::from_millis(arrival_ms),
            tokens: token_ms.iter().map(|&t| SimTime::from_millis(t)).collect(),
        }
    }

    #[test]
    fn slo_judgement_covers_both_deadlines() {
        let slo = SloSpec::interactive(0.1, 1.0);
        assert!(slo.met_by(&stream(0, &[50, 900])));
        assert!(!slo.met_by(&stream(0, &[200, 900])), "ttft blown");
        assert!(!slo.met_by(&stream(0, &[50, 1500])), "total blown");
        assert!(SloSpec::none().met_by(&stream(0, &[5000])));
        assert!(!SloSpec::none().met_by(&stream(0, &[])), "tokenless");
    }

    #[test]
    fn goodput_counts_only_met_tokens() {
        let mut log = StreamLog::new();
        log.record(stream(0, &[50, 60, 70]));
        log.record(stream(0, &[500, 600]));
        let r = log.goodput(&SloSpec::ttft(0.1), 10.0);
        assert_eq!(r.streams, 2);
        assert_eq!(r.slo_met_streams, 1);
        assert_eq!(r.total_tokens, 5);
        assert_eq!(r.goodput_tokens, 3);
        assert!((r.goodput_tps() - 0.3).abs() < 1e-12);
        assert!((r.slo_attainment() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_log_and_zero_horizon_are_safe() {
        let log = StreamLog::new();
        let r = log.goodput(&SloSpec::none(), 0.0);
        assert_eq!(r.goodput_tps(), 0.0);
        assert_eq!(r.slo_attainment(), 0.0);
    }
}
