//! Per-token streaming delivery records — the serving-gateway view of a
//! request.
//!
//! The figure harnesses summarize a request by two timestamps (first and
//! last token, [`crate::requests::RequestRecord`]); a serving front-end
//! additionally cares *when every token* reached the client, because the
//! user-visible SLOs are TTFT and inter-token latency (ITL). [`TokenStream`]
//! keeps the full delivery timeline of one request and [`StreamLog`]
//! aggregates streams into P50/P99 TTFT and ITL summaries.
//!
//! A continuously batched engine delivers one token to every running
//! sequence at each iteration boundary, so the timeline is stored once per
//! engine: an [`IterationClock`] of iteration end times, appended to at the
//! end and forgotten from the front. A stream's [`TokenTimes`] is that
//! clock, shared, plus the [`Run`]s of consecutive iterations the request
//! spent in the batch (a preemption or crash retry starts a new run).
//!
//! The clock keeps 4 bytes per retained iteration: each time's low 32
//! bits, plus one `(first index, high word)` pair whenever the high 32 bits
//! change, which happens at most once per 2^32 ns (4.29 s) of simulated
//! time. Indices are absolute: forgetting the entries below some index
//! moves no later entry's index, so runs stay valid across it.

use crate::latency::Summary;
use crate::requests::RequestRecord;
use aqua_sim::time::{SimDuration, SimTime};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A stretch of consecutive clock entries: the `count` iterations from
/// clock index `first` on each delivered one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Clock index of the run's first token.
    pub first: u32,
    /// Tokens in the run.
    pub count: u32,
}

impl Run {
    fn span(self) -> Range<usize> {
        self.first as usize..self.first as usize + self.count as usize
    }
}

/// A log of iteration end times, 4 bytes per retained entry: the low 32
/// bits of each time, and one `(first index, high word)` pair per change
/// of the high 32 bits. Reading one entry binary-searches the pairs;
/// [`TokenTimes::iter`] walks each run with a cursor, O(1) per entry.
///
/// Indices are absolute and at most `u32::MAX`. The owner may forget a
/// prefix no reader still needs ([`IterationClock::forget_below`]); every
/// later entry keeps its index, and reading a forgotten one panics.
#[derive(Debug, Clone, Default)]
pub struct IterationClock {
    /// Index of `lows[0]`: the entries below it are forgotten.
    base: u32,
    /// Each retained entry's low 32 bits.
    lows: Vec<u32>,
    /// `(index of the first entry, high 32 bits)` at every change of the
    /// high word, indices strictly ascending; the first pair has index
    /// `base`.
    highs: Vec<(u32, u32)>,
}

impl IterationClock {
    /// Appends an entry.
    pub fn push(&mut self, at: SimTime) {
        let nanos = at.as_nanos();
        let high = (nanos >> 32) as u32;
        if self.highs.last().is_none_or(|&(_, h)| h != high) {
            let first = u32::try_from(self.len()).expect("at most u32::MAX entries");
            self.highs.push((first, high));
        }
        self.lows.push(nanos as u32);
    }

    /// Number of entries ever pushed, forgotten ones included: the index
    /// the next push gets.
    pub fn len(&self) -> usize {
        self.base as usize + self.lows.len()
    }

    /// Whether nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries not forgotten.
    pub fn retained(&self) -> usize {
        self.lows.len()
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// If `index` is out of bounds or forgotten.
    pub fn get(&self, index: usize) -> SimTime {
        let high = self.highs[self.pair_of(index)].1;
        SimTime::from_nanos(u64::from(high) << 32 | u64::from(self.lows[self.offset(index)]))
    }

    /// Forgets the entries below `index`, but only once they are at least
    /// half of the retained entries, so that the copy of what is kept costs
    /// O(1) amortised per forgotten entry. Forgets nothing below an
    /// already forgotten index.
    pub fn forget_below(&mut self, index: usize) {
        let forget = index
            .saturating_sub(self.base as usize)
            .min(self.lows.len());
        if forget == 0 || 2 * forget < self.lows.len() {
            return;
        }
        let base = self.base as usize + forget;
        if forget == self.lows.len() {
            // The next push opens a pair of its own.
            self.highs.clear();
        } else {
            self.highs.drain(..self.pair_of(base));
            self.highs[0].0 = base as u32;
        }
        self.lows.drain(..forget);
        self.base = base as u32;
    }

    /// Drops spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.lows.shrink_to_fit();
        self.highs.shrink_to_fit();
    }

    /// Position in `lows` of entry `index`.
    ///
    /// # Panics
    ///
    /// If `index` is forgotten.
    fn offset(&self, index: usize) -> usize {
        index.checked_sub(self.base as usize).unwrap_or_else(|| {
            panic!(
                "clock entry {index} is forgotten: this clock keeps entries from {} on",
                self.base
            )
        })
    }

    /// Position in `highs` of the pair that covers entry `index` (0 for an
    /// empty clock).
    fn pair_of(&self, index: usize) -> usize {
        self.highs
            .partition_point(|&(first, _)| first as usize <= index)
            .saturating_sub(1)
    }

    /// The entries in `span`, in order: one binary search, then one slice
    /// of low words per high word.
    fn times(&self, span: Range<usize>) -> impl Iterator<Item = SimTime> + '_ {
        // Where `lows` starts, once `offset` has checked that the span is
        // not forgotten.
        let base = span.start - self.offset(span.start);
        (self.pair_of(span.start)..self.highs.len())
            .map(move |k| {
                let (first, high) = self.highs[k];
                let end = self
                    .highs
                    .get(k + 1)
                    .map_or(self.len(), |&(next, _)| next as usize);
                let part = (first as usize).max(span.start)..end.min(span.end);
                (u64::from(high) << 32, part)
            })
            .take_while(|(_, part)| part.start < part.end)
            .flat_map(move |(high, part)| {
                self.lows[part.start - base..part.end - base]
                    .iter()
                    .map(move |&low| SimTime::from_nanos(high | u64::from(low)))
            })
    }
}

impl FromIterator<SimTime> for IterationClock {
    fn from_iter<I: IntoIterator<Item = SimTime>>(iter: I) -> Self {
        let mut clock = IterationClock::default();
        iter.into_iter().for_each(|at| clock.push(at));
        clock
    }
}

/// The delivery times of one stream's tokens, in order: non-empty,
/// disjoint, ascending [`Run`]s over a shared clock. Clones share the
/// clock; `==` and `Debug` compare and print the delivery times, not the
/// representation.
#[derive(Clone)]
pub struct TokenTimes {
    clock: Arc<IterationClock>,
    runs: Box<[Run]>,
}

impl TokenTimes {
    /// The tokens `runs` select from `clock`.
    ///
    /// # Panics
    ///
    /// If a run is empty, reaches past the clock, starts before the
    /// previous run ends, or reads a forgotten entry.
    pub fn new(clock: Arc<IterationClock>, runs: Box<[Run]>) -> Self {
        if let Some(run) = runs.first() {
            assert!(
                run.first >= clock.base,
                "run {run:?} reads forgotten clock entries: this clock keeps entries from {} on",
                clock.base
            );
        }
        let mut end = 0;
        for run in runs.iter() {
            let span = run.span();
            assert!(
                run.count > 0 && span.start >= end && span.end <= clock.len(),
                "run {run:?} is empty, overlaps its predecessor or leaves the {}-entry clock",
                clock.len()
            );
            end = span.end;
        }
        TokenTimes { clock, runs }
    }

    /// The runs, in delivery order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of tokens delivered.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.count as usize).sum()
    }

    /// Whether no token was delivered.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// When the first token was delivered.
    pub fn first(&self) -> Option<SimTime> {
        let run = self.runs.first()?;
        Some(self.clock.get(run.span().start))
    }

    /// When the last token was delivered.
    pub fn last(&self) -> Option<SimTime> {
        let run = self.runs.last()?;
        Some(self.clock.get(run.span().end - 1))
    }

    /// Every delivery time, in order.
    pub fn iter(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.runs.iter().flat_map(|r| self.clock.times(r.span()))
    }

    /// The gap before each token after the first, run boundaries included:
    /// the differences of `windows(2)` over [`iter`](Self::iter).
    pub fn gaps(&self) -> impl Iterator<Item = SimDuration> + '_ {
        let mut times = self.iter();
        let first = times.next();
        times.scan(first, |previous, at| {
            Some(at.duration_since(previous.replace(at)?))
        })
    }
}

impl From<Vec<SimTime>> for TokenTimes {
    /// One run over a clock of exactly these times.
    fn from(times: Vec<SimTime>) -> Self {
        let count = u32::try_from(times.len()).expect("at most u32::MAX tokens");
        let runs: Box<[Run]> = if count == 0 {
            Box::default()
        } else {
            Box::new([Run { first: 0, count }])
        };
        TokenTimes::new(Arc::new(times.into_iter().collect()), runs)
    }
}

impl PartialEq for TokenTimes {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for TokenTimes {}

impl fmt::Debug for TokenTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

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
    pub tokens: TokenTimes,
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
        self.tokens.last()
    }

    /// Gaps between consecutive token deliveries, seconds. Empty for a
    /// single-token (or tokenless) stream.
    fn itl_samples(&self) -> Vec<f64> {
        self.tokens.gaps().map(SimDuration::as_secs_f64).collect()
    }

    /// Collapses the stream to the two-timestamp record the figure
    /// harnesses consume. `None` for a tokenless stream, which has no
    /// first-token or completion timestamp to report.
    pub fn record(&self) -> Option<RequestRecord> {
        Some(RequestRecord {
            id: self.id,
            arrival: self.arrival,
            first_token: self.tokens.first()?,
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
///     tokens: vec![SimTime::from_millis(100), SimTime::from_millis(150)].into(),
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

    /// The streams sorted by arrival (then id).
    fn by_arrival(&self) -> Vec<&TokenStream> {
        let mut by_arrival: Vec<&TokenStream> = self.streams.iter().collect();
        by_arrival.sort_by_key(|s| (s.arrival, s.id));
        by_arrival
    }

    /// TTFT samples in arrival order, seconds. Tokenless streams contribute
    /// no sample.
    pub fn ttfts(&self) -> Vec<f64> {
        self.by_arrival()
            .into_iter()
            .filter_map(TokenStream::ttft)
            .collect()
    }

    /// Every inter-token gap across all streams, seconds.
    pub fn itls(&self) -> Vec<f64> {
        self.by_arrival()
            .into_iter()
            .flat_map(TokenStream::itl_samples)
            .collect()
    }

    /// Summary statistics over TTFTs (all-zero default when empty).
    pub fn ttft_summary(&self) -> Summary {
        summary_of_nanos(
            self.streams
                .iter()
                .filter_map(|s| Some(s.tokens.first()?.duration_since(s.arrival)))
                .collect(),
        )
    }

    /// Summary statistics over inter-token latencies.
    pub fn itl_summary(&self) -> Summary {
        summary_of_nanos(self.streams.iter().flat_map(|s| s.tokens.gaps()).collect())
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

/// [`Summary::from_samples`] of `spans` in seconds, computed by sorting
/// the integer spans and converting them in order. Exact: `as_secs_f64` is
/// monotone, so the converted values come out sorted, and the mean is
/// summed over the same sequence.
fn summary_of_nanos(mut spans: Vec<SimDuration>) -> Summary {
    spans.sort_unstable();
    let secs: Vec<f64> = spans.into_iter().map(SimDuration::as_secs_f64).collect();
    Summary::from_sorted(&secs)
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
            tokens: token_ms
                .iter()
                .map(|&t| SimTime::from_millis(t))
                .collect::<Vec<_>>()
                .into(),
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

    /// The summary's fields, bit for bit.
    fn bits(s: &Summary) -> (usize, [u64; 6]) {
        let f = [s.mean, s.p50, s.p95, s.p99, s.min, s.max];
        (s.count, f.map(f64::to_bits))
    }

    aqua_sim::check! {
        /// The integer-sorted summaries equal `Summary::from_samples` over
        /// the arrival-ordered samples bit for bit, across tied arrivals,
        /// tied gaps (zero included) and tokenless streams.
        #[test]
        fn summaries_match_the_sample_vectors_bit_for_bit(
            specs in aqua_sim::check::vec((0u64..4, aqua_sim::check::vec(0u64..4, 0..6)), 0..40)
        ) {
            // An odd unit makes the f64 seconds inexact.
            let unit = 1_234_567u64;
            let log: StreamLog = specs
                .iter()
                .enumerate()
                .map(|(id, (arrival, gaps))| {
                    let mut at = arrival * unit;
                    let arrival = SimTime::from_nanos(at);
                    let tokens = gaps
                        .iter()
                        .map(|g| {
                            at += g * unit;
                            SimTime::from_nanos(at)
                        })
                        .collect::<Vec<_>>()
                        .into();
                    TokenStream { id: id as u64, tenant: 0, arrival, tokens }
                })
                .collect();
            assert_eq!(bits(&log.ttft_summary()), bits(&Summary::from_samples(&log.ttfts())));
            assert_eq!(bits(&log.itl_summary()), bits(&Summary::from_samples(&log.itls())));
        }
    }

    /// Ascending times from `back` ns before the start of high word
    /// `high` (clamped at zero), one per drawn step: `(0, _)` repeats the
    /// previous time, `(1, raw)` adds under 1 us, and `(2, raw)` adds
    /// `raw`, up to five 2^32 ns high words (an idle engine).
    fn ascending((high, back): (u64, u64), steps: &[(u8, u64)]) -> Vec<SimTime> {
        let mut at = (high << 32).saturating_sub(back);
        steps
            .iter()
            .map(|&(kind, raw)| {
                at += match kind {
                    0 => 0,
                    1 => raw % 1_000,
                    _ => raw,
                };
                SimTime::from_nanos(at)
            })
            .collect()
    }

    aqua_sim::check! {
        /// An `IterationClock` reads back every pushed time, keeps one
        /// high-word pair per change of the high 32 bits, and walks any
        /// range as the slice of the model; `TokenTimes` over it in one run
        /// is the model: across equal times, 2^32 ns boundaries and gaps of
        /// several high words.
        #[test]
        fn iteration_clock_matches_the_flattened_vec(
            start in (0u64..1 << 20, 0u64..2_000),
            steps in aqua_sim::check::vec((0u8..3, 0u64..5 << 32), 0..40)
        ) {
            let model = ascending(start, &steps);
            let clock: IterationClock = model.iter().copied().collect();
            assert_eq!(clock.len(), model.len());
            assert_eq!(clock.is_empty(), model.is_empty());
            for (i, &at) in model.iter().enumerate() {
                assert_eq!(clock.get(i), at, "entry {i}");
            }
            let mut high_words: Vec<u64> = model.iter().map(|t| t.as_nanos() >> 32).collect();
            high_words.dedup();
            assert_eq!(clock.highs.len(), high_words.len());
            for a in 0..=model.len() {
                for b in a..=model.len() {
                    assert_eq!(clock.times(a..b).collect::<Vec<_>>(), model[a..b], "{a}..{b}");
                }
            }

            let times = TokenTimes::from(model.clone());
            assert_eq!(times.len(), model.len());
            assert_eq!(times.first(), model.first().copied());
            assert_eq!(times.last(), model.last().copied());
            assert_eq!(times.iter().collect::<Vec<_>>(), model);
            let gaps: Vec<SimDuration> =
                model.windows(2).map(|w| w[1].duration_since(w[0])).collect();
            assert_eq!(times.gaps().collect::<Vec<_>>(), gaps);
            assert_eq!(times, times.clone());
            assert_eq!(format!("{times:?}"), format!("{model:?}"));
        }
    }

    aqua_sim::check! {
        /// A clock that forgets reads back every retained entry, and every
        /// span of them, at its absolute index, as the model does; it
        /// forgets a prefix exactly when that prefix is at least half of
        /// what it retains, and keeps one high-word pair per high word it
        /// still holds: across pushes, forgets and 2^32 ns boundaries.
        #[test]
        fn a_forgetting_clock_matches_the_model(
            start in (0u64..1 << 20, 0u64..2_000),
            steps in aqua_sim::check::vec((0u8..3, 0u64..5 << 32), 0..60),
            // After the push of step `i`, forget below the drawn point
            // (as a share in 1/8ths of the clock's length), when drawn.
            forgets in aqua_sim::check::vec((0usize..60, 0usize..10), 0..12)
        ) {
            let model = ascending(start, &steps);
            let mut clock = IterationClock::default();
            for (i, &at) in model.iter().enumerate() {
                clock.push(at);
                for &(_, eighths) in forgets.iter().filter(|&&(step, _)| step == i) {
                    let (base, retained) = (clock.len() - clock.retained(), clock.retained());
                    let index = clock.len() * eighths / 8;
                    clock.forget_below(index);
                    let forget = index.saturating_sub(base).min(retained);
                    let forgot = forget > 0 && 2 * forget >= retained;
                    let expected = if forgot { retained - forget } else { retained };
                    assert_eq!(clock.retained(), expected, "forget below {index}");
                }
                assert_eq!(clock.len(), i + 1);
                let base = clock.len() - clock.retained();
                for (j, &at) in model.iter().enumerate().take(i + 1).skip(base) {
                    assert_eq!(clock.get(j), at, "entry {j}");
                }
                for a in base..=i + 1 {
                    assert_eq!(clock.times(a..i + 1).collect::<Vec<_>>(), model[a..=i]);
                }
                let mut high_words: Vec<u64> =
                    model[base..=i].iter().map(|t| t.as_nanos() >> 32).collect();
                high_words.dedup();
                assert_eq!(clock.highs.len(), high_words.len());
                assert!(clock.highs.first().is_none_or(|&(first, _)| first as usize == base));
            }
        }
    }

    #[test]
    #[should_panic(expected = "clock entry 3 is forgotten: this clock keeps entries from 4 on")]
    fn reading_a_forgotten_entry_panics() {
        let mut clock: IterationClock = (0..8).map(SimTime::from_nanos).collect();
        clock.forget_below(4);
        assert_eq!(clock.get(4), SimTime::from_nanos(4));
        clock.get(3);
    }

    #[test]
    #[should_panic(expected = "reads forgotten clock entries: this clock keeps entries from 4 on")]
    fn token_times_over_a_forgotten_entry_panic() {
        let mut clock: IterationClock = (0..8).map(SimTime::from_nanos).collect();
        clock.forget_below(4);
        let clock = Arc::new(clock);
        let kept = TokenTimes::new(Arc::clone(&clock), Box::new([Run { first: 4, count: 4 }]));
        assert_eq!(kept.first(), Some(SimTime::from_nanos(4)));
        TokenTimes::new(clock, Box::new([Run { first: 2, count: 4 }]));
    }

    aqua_sim::check! {
        /// `TokenTimes` over an ascending clock and disjoint runs behaves
        /// exactly like the flattened `Vec<SimTime>` it stands for, runs
        /// across 2^32 ns boundaries included.
        #[test]
        fn token_times_match_the_flattened_vec(
            start in (0u64..1 << 20, 0u64..2_000),
            steps in aqua_sim::check::vec((0u8..3, 0u64..5 << 32), 0..60),
            spec in aqua_sim::check::vec((0u32..4, 1u32..6), 0..12)
        ) {
            let clock = ascending(start, &steps);
            // Each (skip, count) lays a run `skip` entries past the
            // previous one, until the clock runs out.
            let mut runs = Vec::new();
            let mut next = 0;
            for &(skip, count) in &spec {
                let first = next + skip;
                if (first + count) as usize > clock.len() {
                    break;
                }
                runs.push(Run { first, count });
                next = first + count;
            }
            let model: Vec<SimTime> = runs
                .iter()
                .flat_map(|r| clock[r.span()].iter().copied())
                .collect();
            let times = TokenTimes::new(Arc::new(clock.into_iter().collect()), runs.into());

            assert_eq!(times.len(), model.len());
            assert_eq!(times.is_empty(), model.is_empty());
            assert_eq!(times.first(), model.first().copied());
            assert_eq!(times.last(), model.last().copied());
            assert_eq!(times.iter().collect::<Vec<_>>(), model);
            let gaps: Vec<SimDuration> =
                model.windows(2).map(|w| w[1].duration_since(w[0])).collect();
            assert_eq!(times.gaps().collect::<Vec<_>>(), gaps);

            let flat = TokenTimes::from(model.clone());
            assert_eq!(flat, times);
            assert_eq!(flat.iter().collect::<Vec<_>>(), model);
            let copy = times.clone();
            assert_eq!(copy, times);
            assert_eq!(format!("{copy:?}"), format!("{model:?}"));
            if let Some((last, rest)) = model.split_last() {
                let mut shifted = rest.to_vec();
                shifted.push(*last + SimDuration::from_nanos(1));
                assert_ne!(TokenTimes::from(shifted), times);
                assert_ne!(TokenTimes::from(rest.to_vec()), times);
            }
        }
    }

    #[test]
    fn empty_log_is_safe() {
        let log = StreamLog::new();
        assert!(log.is_empty());
        assert_eq!(log.ttft_summary().p99, 0.0);
        assert_eq!(log.itl_summary().count, 0);
    }
}
