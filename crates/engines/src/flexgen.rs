//! FlexGen-style long-prompt engine (paper §6, "Long prompts"), and the
//! DeepSpeed-style serial offloading the paper's related work compares it
//! to (§9).
//!
//! FlexGen targets throughput-oriented inference when the context does not
//! fit in the GPU's remaining HBM: it streams the KV cache through the GPU
//! from an offload store, overlapping the I/O with compute. Its throughput
//! is therefore bounded by
//!
//! ```text
//! tokens/s ≈ 1 / max(compute_per_token, kv_bytes(context) / offload_bw)
//! ```
//!
//! Over PCIe to DRAM the I/O term dominates by an order of magnitude; with
//! AQUA the same context streams over NVLink from a neighbouring GPU, which
//! is where Figure 7's 6× token count and Figure 10b's elastic throughput
//! timeline come from.
//!
//! "Deepspeed-zero is another engine like FlexGen that can execute models
//! with offloading when there is not enough GPU memory. FlexGen evaluated
//! Deepspeed and showed that they perform better because of their more
//! efficient offloading strategy. Since AQUA can improve FlexGen's
//! performance, similar benefits can extend to Deepspeed." The efficiency
//! difference FlexGen documented is overlap: DeepSpeed's inference
//! offloading runs fetch, compute and write-back strictly in turn. With
//! [`FlexGenConfig::overlap_io`] off this engine follows that serial rule
//! over the same [`Offloader`], which is how `fig07_long_prompt` measures
//! DeepSpeed.

use crate::driver::Engine;
use crate::offload::Offloader;
use crate::request::{InferenceRequest, SeqLifecycle};
use aqua_metrics::requests::RequestRecord;
use aqua_models::cost;
use aqua_models::geometry::LlmGeometry;
use aqua_sim::gpu::GpuSpec;
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_telemetry::{null_tracer, trace, Lane, SharedTracer, TraceEvent};
use std::collections::VecDeque;

/// Decode tokens simulated per driver step. This is part of the modelled
/// timing when I/O overlaps compute: each step restarts the I/O cursor at
/// its start time, so every chunk boundary is a pipeline bubble. Serial
/// offloading has no pipeline to stall and runs the same at any chunk size.
const DECODE_CHUNK: u64 = 8;

/// Configuration of a [`FlexGenEngine`].
#[derive(Debug, Clone)]
pub struct FlexGenConfig {
    /// HBM bytes available for inference context after weights and
    /// workspace. When a request's full context exceeds this budget the
    /// engine runs in streaming (offloaded) mode.
    pub context_budget_bytes: u64,
    /// Whether streamed context I/O overlaps compute (FlexGen). When off,
    /// the engine offloads the DeepSpeed way: the prefill write-out starts
    /// once prefill compute is done, and each decode token reads its
    /// context, then computes, then appends its KV, one after another.
    pub overlap_io: bool,
}

impl Default for FlexGenConfig {
    fn default() -> Self {
        FlexGenConfig {
            context_budget_bytes: gib(8),
            overlap_io: true,
        }
    }
}

#[derive(Debug, Clone)]
struct FgSeq {
    life: SeqLifecycle,
    prefilled: bool,
    streaming: bool,
}

/// Long-prompt streaming engine.
///
/// # Example
///
/// ```
/// use aqua_engines::flexgen::{FlexGenConfig, FlexGenEngine};
/// use aqua_engines::driver::Engine;
/// use aqua_engines::offload::DramOffloader;
/// use aqua_engines::request::InferenceRequest;
/// use aqua_models::zoo;
/// use aqua_sim::prelude::*;
/// use std::{cell::RefCell, rc::Rc};
///
/// let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
/// let xfer = Rc::new(RefCell::new(TransferEngine::new()));
/// let geom = *zoo::opt_30b().llm_geometry().unwrap();
/// let off = DramOffloader::pinned(&server, GpuId(0), xfer);
/// let mut fg = FlexGenEngine::new(geom, GpuSpec::a100_80g(), FlexGenConfig::default(), Box::new(off));
/// // An 8,000-token prompt: context exceeds the budget, so it streams.
/// fg.submit(InferenceRequest::text(0, 8_000, 32), SimTime::ZERO);
/// let mut now = SimTime::ZERO;
/// while fg.has_work() { now = fg.step(now); }
/// assert_eq!(fg.drain_completions().len(), 1);
/// ```
pub struct FlexGenEngine {
    geom: LlmGeometry,
    gpu: GpuSpec,
    config: FlexGenConfig,
    queue: VecDeque<FgSeq>,
    current: Option<FgSeq>,
    completions: Vec<RequestRecord>,
    offloader: Box<dyn Offloader>,
    tokens_generated: u64,
    streamed_bytes: u64,
    tracer: SharedTracer,
    scope: Lane,
}

impl std::fmt::Debug for FlexGenEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlexGenEngine")
            .field("queued", &self.queue.len())
            .field("active", &self.current.is_some())
            .field("tokens_generated", &self.tokens_generated)
            .finish()
    }
}

impl FlexGenEngine {
    /// Creates a long-prompt engine for `geom` on `gpu` with the given
    /// offload backend.
    pub fn new(
        geom: LlmGeometry,
        gpu: GpuSpec,
        config: FlexGenConfig,
        offloader: Box<dyn Offloader>,
    ) -> Self {
        FlexGenEngine {
            geom,
            gpu,
            config,
            queue: VecDeque::new(),
            current: None,
            completions: Vec::new(),
            offloader,
            tokens_generated: 0,
            streamed_bytes: 0,
            tracer: null_tracer(),
            scope: Lane::from("flexgen"),
        }
    }

    /// Attaches a tracer; every streamed decode chunk becomes a
    /// [`TraceEvent::WindowFetched`]. `scope` labels this engine's events.
    pub fn with_tracer(mut self, tracer: SharedTracer, scope: impl Into<Lane>) -> Self {
        self.tracer = tracer;
        self.scope = scope.into();
        self
    }

    /// Total tokens generated so far (the Figure 7 metric).
    pub fn tokens_generated(&self) -> u64 {
        self.tokens_generated
    }

    /// Total context bytes streamed through the offload path.
    #[cfg(test)]
    fn streamed_bytes(&self) -> u64 {
        self.streamed_bytes
    }

    /// Whether a request of this shape must stream its context.
    fn must_stream(&self, req: &InferenceRequest) -> bool {
        let max_ctx = req.prompt_tokens + req.output_tokens;
        self.geom.kv_bytes(max_ctx) > self.config.context_budget_bytes
    }

    /// Computes the prompt's KV. A streaming context is written out to the
    /// offload store as its blocks are produced (overlapped) or once
    /// compute is done (serial).
    fn prefill(&mut self, seq: &mut FgSeq, now: SimTime) -> SimTime {
        seq.prefilled = true;
        let prompt = seq.life.req.prompt_tokens;
        let compute_done = now + cost::llm_prefill_time(&self.geom, &self.gpu, prompt);
        if !seq.streaming {
            return compute_done;
        }
        let bytes = self.geom.kv_bytes(prompt);
        self.streamed_bytes += bytes;
        let io_start = if self.config.overlap_io {
            now
        } else {
            compute_done
        };
        let io_done = self
            .offloader
            .swap_out(bytes, self.geom.layers * 2, io_start);
        compute_done.max(io_done)
    }

    /// Decodes up to [`DECODE_CHUNK`] tokens. Each token must sweep the
    /// full context KV; in streaming mode that sweep crosses the offload
    /// link.
    fn decode(&mut self, seq: &mut FgSeq, now: SimTime) -> SimTime {
        let chunk = DECODE_CHUNK.min(seq.life.req.output_tokens - seq.life.generated);
        let mut cursor = now;
        let mut io_cursor = now;
        let mut chunk_bytes = 0u64;
        for _ in 0..chunk {
            let ctx = seq.life.context_tokens() + 1;
            let compute = cost::llm_decode_step_time(&self.geom, &self.gpu, 1, ctx);
            if !seq.streaming {
                cursor += compute;
            } else {
                // Streaming read: the context stays offloaded, and the new
                // token's KV is appended to the store.
                let bytes = self.geom.kv_bytes(ctx);
                let append = self.geom.kv_bytes_per_token();
                chunk_bytes += bytes;
                if self.config.overlap_io {
                    // The reads run back to back on their own cursor, the
                    // append rides the other link direction (tiny), and a
                    // token completes when both its context stream and its
                    // compute are done: compute for token t+1 overlaps the
                    // stream for token t+1.
                    io_cursor = self.offloader.read_in(bytes, self.geom.layers, io_cursor);
                    self.offloader.swap_out(append, self.geom.layers, io_cursor);
                    cursor = cursor.max(io_cursor) + compute;
                } else {
                    // Fetch the full context, then compute, then append.
                    io_cursor = self.offloader.read_in(bytes, self.geom.layers, cursor);
                    cursor = self
                        .offloader
                        .swap_out(append, self.geom.layers, io_cursor + compute);
                }
            }
            seq.life.note_token(cursor);
            self.tokens_generated += 1;
        }
        if chunk_bytes > 0 {
            self.streamed_bytes += chunk_bytes;
            trace!(
                self.tracer,
                TraceEvent::WindowFetched {
                    engine: self.scope.clone(),
                    bytes: chunk_bytes,
                    start: now,
                    end: io_cursor,
                }
            );
        }
        cursor
    }
}

impl Engine for FlexGenEngine {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        let life = SeqLifecycle::new(req, now);
        let streaming = self.must_stream(&life.req);
        self.queue.push_back(FgSeq {
            life,
            prefilled: false,
            streaming,
        });
    }

    fn has_work(&self) -> bool {
        self.current.is_some() || !self.queue.is_empty()
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        let now = self.offloader.on_iteration_boundary(now).max(now);
        if self.current.is_none() {
            self.current = self.queue.pop_front();
        }
        let Some(mut seq) = self.current.take() else {
            return now;
        };
        let end = if seq.prefilled {
            self.decode(&mut seq, now)
        } else {
            self.prefill(&mut seq, now)
        };
        if seq.prefilled && seq.life.is_complete() {
            self.completions.push(seq.life.record(end));
        } else {
            self.current = Some(seq);
        }
        end
    }

    fn idle_tick_is_noop(&self) -> bool {
        true
    }

    fn drain_completions(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.completions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::DramOffloader;
    use aqua_models::zoo;
    use aqua_sim::gpu::GpuId;
    use aqua_sim::topology::ServerTopology;
    use aqua_sim::transfer::TransferEngine;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn pinned_dram() -> Box<dyn Offloader> {
        let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        Box::new(DramOffloader::pinned(&server, GpuId(0), xfer))
    }

    fn dram_engine(budget: u64, overlap_io: bool) -> FlexGenEngine {
        let geom = *zoo::opt_30b().llm_geometry().unwrap();
        FlexGenEngine::new(
            geom,
            GpuSpec::a100_80g(),
            FlexGenConfig {
                context_budget_bytes: budget,
                overlap_io,
            },
            pinned_dram(),
        )
    }

    /// First-token and completion times, in nanoseconds, of one request
    /// run alone from time zero.
    fn request_times(mut engine: impl Engine, prompt: u64, output: u64) -> [u64; 2] {
        engine.submit(InferenceRequest::text(0, prompt, output), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        while engine.has_work() {
            now = engine.step(now);
        }
        let recs = engine.drain_completions();
        assert_eq!(recs.len(), 1);
        [
            recs[0].first_token.as_nanos(),
            recs[0].completion.as_nanos(),
        ]
    }

    #[test]
    fn overlapped_and_serial_timings_are_pinned() {
        // OPT-30B over pinned DRAM with the default budget: an 8,000-token
        // prompt streams its context, a 128-token prompt stays resident.
        // Serial offloading (fetch, then compute, then append) is slower
        // only when the context streams.
        let geom = *zoo::opt_30b().llm_geometry().unwrap();
        let overlapped = || {
            FlexGenEngine::new(
                geom,
                GpuSpec::a100_80g(),
                FlexGenConfig::default(),
                pinned_dram(),
            )
        };
        let serial = || {
            FlexGenEngine::new(
                geom,
                GpuSpec::a100_80g(),
                FlexGenConfig {
                    overlap_io: false,
                    ..FlexGenConfig::default()
                },
                pinned_dram(),
            )
        };
        assert_eq!(
            request_times(overlapped(), 8_000, 64),
            [3_558_906_245, 31_689_699_916]
        );
        assert_eq!(
            request_times(serial(), 8_000, 64),
            [3_999_404_187, 34_292_471_097]
        );
        assert_eq!(
            request_times(overlapped(), 128, 32),
            [85_319_538, 1_111_412_673]
        );
        assert_eq!(
            request_times(serial(), 128, 32),
            [85_319_538, 1_111_412_673]
        );
    }

    fn run_for(engine: &mut FlexGenEngine, seconds: u64) -> SimTime {
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs(seconds);
        while engine.has_work() && now < end {
            now = engine.step(now);
        }
        now
    }

    #[test]
    fn long_prompt_streams() {
        let mut e = dram_engine(gib(8), true);
        let req = InferenceRequest::text(0, 8_000, 64);
        assert!(e.must_stream(&req));
        e.submit(req, SimTime::ZERO);
        run_for(&mut e, 3_600);
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 1);
        assert!(e.streamed_bytes() > gib(64), "context swept repeatedly");
    }

    #[test]
    fn short_prompt_stays_resident() {
        let mut e = dram_engine(gib(8), true);
        let req = InferenceRequest::text(0, 512, 32);
        assert!(!e.must_stream(&req));
        e.submit(req, SimTime::ZERO);
        run_for(&mut e, 3_600);
        assert_eq!(e.drain_completions().len(), 1);
        assert_eq!(e.streamed_bytes(), 0);
    }

    #[test]
    fn streaming_decode_is_io_bound_over_pcie() {
        // 8,000-token context on OPT-30B = ~11 GB per token sweep; at
        // 25 GB/s PCIe that is ~0.44 s/token, far slower than compute.
        let mut e = dram_engine(gib(8), true);
        e.submit(InferenceRequest::text(0, 8_000, 16), SimTime::ZERO);
        // Prefill step.
        let mut now = e.step(SimTime::ZERO);
        let decode_start = now;
        now = e.step(now); // one chunk of 8 tokens
        let per_token = (now - decode_start).as_secs_f64() / 8.0;
        assert!(
            (0.3..0.7).contains(&per_token),
            "per-token {per_token}s should be PCIe-bound (~0.45 s)"
        );
    }

    #[test]
    fn short_contexts_run_at_full_speed() {
        // A resident context never crosses the offload link, so serial
        // offloading costs it nothing.
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let engine = |overlap_io| {
            FlexGenEngine::new(
                geom,
                GpuSpec::a100_80g(),
                FlexGenConfig {
                    overlap_io,
                    ..FlexGenConfig::default()
                },
                pinned_dram(),
            )
        };
        let req = InferenceRequest::text(0, 128, 32);
        let mut serial = engine(false);
        assert!(!serial.must_stream(&req));
        serial.submit(req, SimTime::ZERO);
        run_for(&mut serial, 600);
        let recs = serial.drain_completions();
        assert_eq!(recs[0].output_tokens, 32);
        assert_eq!(
            [
                recs[0].first_token.as_nanos(),
                recs[0].completion.as_nanos()
            ],
            request_times(engine(true), 128, 32)
        );
    }

    #[test]
    fn tokens_generated_counts_across_requests() {
        let mut e = dram_engine(gib(64), true);
        e.submit(InferenceRequest::text(0, 100, 10), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 100, 10), SimTime::ZERO);
        run_for(&mut e, 3_600);
        assert_eq!(e.tokens_generated(), 20);
        assert_eq!(e.drain_completions().len(), 2);
    }

    #[test]
    fn traced_engine_journals_window_fetches() {
        use aqua_telemetry::{JournalTracer, TraceEvent};
        use std::sync::Arc;

        let journal = Arc::new(JournalTracer::new());
        let mut e = dram_engine(gib(8), true).with_tracer(journal.clone(), "flexgen:test");
        e.submit(InferenceRequest::text(0, 8_000, 16), SimTime::ZERO);
        run_for(&mut e, 3_600);
        assert_eq!(e.drain_completions().len(), 1);
        let events = journal.events();
        let fetched: u64 = events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::WindowFetched { engine, bytes, .. } if engine == "flexgen:test" => {
                    Some(*bytes)
                }
                _ => None,
            })
            .sum();
        assert!(fetched > 0, "streaming decode journals window fetches");
        // Streamed bytes are the prefill's write-out plus every fetch.
        let prompt_kv = zoo::opt_30b().llm_geometry().unwrap().kv_bytes(8_000);
        assert_eq!(e.streamed_bytes(), prompt_kv + fetched);
    }

    #[test]
    fn requests_run_one_at_a_time() {
        for overlap_io in [true, false] {
            let mut e = dram_engine(gib(64), overlap_io);
            e.submit(InferenceRequest::text(0, 100, 5), SimTime::ZERO);
            e.submit(InferenceRequest::text(1, 100, 5), SimTime::ZERO);
            run_for(&mut e, 3_600);
            let recs = e.drain_completions();
            assert_eq!(recs.len(), 2);
            // Second request's first token strictly after the first completes.
            let r0 = recs.iter().find(|r| r.id == 0).unwrap();
            let r1 = recs.iter().find(|r| r.id == 1).unwrap();
            assert!(r1.first_token > r0.completion, "overlap_io={overlap_io}");
        }
    }
}
