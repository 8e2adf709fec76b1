//! Completely fair prompt scheduling (paper §5).
//!
//! Inspired by Linux's CFS, the engine time-shares the GPU across *all*
//! outstanding prompts instead of batch-processing an admitted subset:
//!
//! * A **slice** generates `slice_tokens` tokens for the active set.
//! * After each slice, the prompts with the **fewest generated tokens** run
//!   next (new arrivals have zero, so they reach the GPU within one slice —
//!   that is where the 4× TTFT improvement of Figure 9 comes from).
//! * Context switching **pages KV caches** out of and into HBM through the
//!   configured [`Offloader`]. Over PCIe to DRAM this overhead inflates RCT
//!   by ~50% (Figure 1b); over NVLink via AQUA it nearly vanishes.

use crate::driver::Engine;
use crate::gauges::GaugeCache;
use crate::kvcache::{PagedKvCache, DEFAULT_BLOCK_TOKENS};
use crate::northbound::{EngineStats, MemoryElastic};
use crate::offload::Offloader;
use crate::request::{InferenceRequest, SeqLifecycle};
use aqua_metrics::requests::RequestRecord;
use aqua_models::cost;
use aqua_models::geometry::LlmGeometry;
use aqua_sim::gpu::GpuSpec;
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_telemetry::{null_tracer, trace, SharedTracer, TraceEvent};

/// The one gauge a traced CFS engine journals, `<scope>.outstanding`, at
/// position [`OUTSTANDING`].
const GAUGES: [&str; 1] = ["outstanding"];
const OUTSTANDING: usize = 0;

/// Configuration of a [`CfsEngine`].
#[derive(Debug, Clone)]
pub struct CfsConfig {
    /// Tokens generated per scheduling slice (the paper's Figure 6 uses 5).
    pub slice_tokens: u64,
    /// Maximum sequences active in one slice.
    pub max_active: usize,
    /// Bytes reserved for the resident KV pool.
    pub kv_pool_bytes: u64,
}

impl Default for CfsConfig {
    fn default() -> Self {
        CfsConfig {
            slice_tokens: 5,
            max_active: 64,
            kv_pool_bytes: gib(30),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Not yet prefilled.
    New,
    /// KV cache resident in HBM.
    Resident,
    /// KV cache offloaded through the offloader.
    Swapped,
}

#[derive(Debug, Clone)]
struct CfsSeq {
    life: SeqLifecycle,
    place: Place,
}

/// Token-slice fair scheduler over a paged KV pool.
///
/// # Example
///
/// ```
/// use aqua_engines::cfs::{CfsConfig, CfsEngine};
/// use aqua_engines::driver::Engine;
/// use aqua_engines::offload::DramOffloader;
/// use aqua_engines::request::InferenceRequest;
/// use aqua_models::zoo;
/// use aqua_sim::prelude::*;
/// use std::{cell::RefCell, rc::Rc};
///
/// let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
/// let xfer = Rc::new(RefCell::new(TransferEngine::new()));
/// let geom = *zoo::mistral_7b().llm_geometry().unwrap();
/// let off = DramOffloader::pinned(&server, GpuId(0), xfer);
/// let mut cfs = CfsEngine::new(geom, GpuSpec::a100_80g(), CfsConfig::default(), Box::new(off));
/// cfs.submit(InferenceRequest::text(0, 128, 10), SimTime::ZERO);
/// let mut now = SimTime::ZERO;
/// while cfs.has_work() { now = cfs.step(now); }
/// assert_eq!(cfs.drain_completions().len(), 1);
/// ```
pub struct CfsEngine {
    geom: LlmGeometry,
    gpu: GpuSpec,
    config: CfsConfig,
    kv: PagedKvCache,
    seqs: Vec<CfsSeq>,
    completions: Vec<RequestRecord>,
    offloader: Box<dyn Offloader>,
    context_switches: u64,
    swapped_bytes: u64,
    slices: u64,
    tracer: SharedTracer,
    scope: String,
    gauges: GaugeCache,
}

impl std::fmt::Debug for CfsEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CfsEngine")
            .field("outstanding", &self.seqs.len())
            .field("slices", &self.slices)
            .field("context_switches", &self.context_switches)
            .finish()
    }
}

impl CfsEngine {
    /// Creates a fair scheduler for `geom` on `gpu`, context-switching
    /// through `offloader`.
    pub fn new(
        geom: LlmGeometry,
        gpu: GpuSpec,
        config: CfsConfig,
        offloader: Box<dyn Offloader>,
    ) -> Self {
        let kv = PagedKvCache::new(geom, config.kv_pool_bytes, DEFAULT_BLOCK_TOKENS);
        CfsEngine {
            geom,
            gpu,
            config,
            kv,
            seqs: Vec::new(),
            completions: Vec::new(),
            offloader,
            context_switches: 0,
            swapped_bytes: 0,
            slices: 0,
            tracer: null_tracer(),
            scope: "cfs".to_owned(),
            gauges: GaugeCache::new("cfs", &GAUGES),
        }
    }

    /// Attaches a tracer; every slice becomes a [`TraceEvent::SliceFinished`]
    /// and context switching feeds the `cfs.*` counters. `scope` labels this
    /// engine's events (e.g. `"cfs:s0/gpu0"`).
    pub fn with_tracer(mut self, tracer: SharedTracer, scope: impl Into<String>) -> Self {
        self.tracer = tracer;
        self.scope = scope.into();
        self.gauges = GaugeCache::new(&self.scope, &GAUGES);
        self
    }

    /// Number of scheduling slices executed.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Number of sequences paged out across all context switches.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// Total bytes moved by context switching (both directions).
    pub fn swapped_bytes(&self) -> u64 {
        self.swapped_bytes
    }

    /// Outstanding (incomplete) sequences.
    pub fn outstanding(&self) -> usize {
        self.seqs.len()
    }

    /// Offload-backend label (for reports).
    pub fn offloader_label(&self) -> &str {
        self.offloader.label()
    }

    /// Picks the fair active set: least-generated first, bounded by KV pool
    /// capacity (context plus slice growth) and `max_active`.
    fn select_active(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.seqs.len()).collect();
        let key = |&i: &usize| {
            let s = &self.seqs[i];
            (s.life.generated, s.life.arrival, s.life.req.id)
        };
        // The scan below almost always stops after `max_active` picks, so a
        // full O(n log n) sort of a deep backlog is wasted work: partition
        // the smallest-key prefix out first and sort only that. The prefix
        // is generous (skipped oversized contexts consume candidates), and
        // if it still cannot settle the answer the full sort runs — the
        // chosen set is identical either way because keys are unique
        // (request ids are) and both paths scan the same ascending order.
        let prefix = self.config.max_active + 64;
        let partial = order.len() > prefix.saturating_mul(2);
        if partial {
            order.select_nth_unstable_by_key(prefix, key);
            order[..prefix].sort_unstable_by_key(key);
            if let Some(chosen) = self.scan_for_active(order[..prefix].iter().copied(), false) {
                return chosen;
            }
        }
        order.sort_unstable_by_key(key);
        self.scan_for_active(order.iter().copied(), true)
            .expect("full scan is total")
    }

    /// Walks candidates in fair order, picking until the KV pool or
    /// `max_active` is exhausted. Returns `None` when `complete` is false
    /// and the walk ran out of candidates while slots remained — a longer
    /// candidate list could still add picks, so the caller must retry with
    /// the full order.
    fn scan_for_active(
        &self,
        order: impl Iterator<Item = usize>,
        complete: bool,
    ) -> Option<Vec<usize>> {
        let mut chosen = Vec::new();
        let mut blocks = 0u64;
        for i in order {
            if chosen.len() >= self.config.max_active {
                break;
            }
            let s = &self.seqs[i];
            let tokens = s.life.context_tokens() + self.config.slice_tokens;
            let need = tokens.div_ceil(DEFAULT_BLOCK_TOKENS);
            if blocks + need > self.kv.total_blocks() {
                if chosen.is_empty() {
                    panic!(
                        "CFS KV pool ({} blocks) cannot hold a single context of {} tokens",
                        self.kv.total_blocks(),
                        tokens
                    );
                }
                continue;
            }
            blocks += need;
            chosen.push(i);
        }
        if complete || chosen.len() >= self.config.max_active {
            Some(chosen)
        } else {
            None
        }
    }
}

impl Engine for CfsEngine {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.seqs.push(CfsSeq {
            life: SeqLifecycle::new(req, now),
            place: Place::New,
        });
    }

    fn has_work(&self) -> bool {
        !self.seqs.is_empty()
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        self.slices += 1;
        let now = self.offloader.on_iteration_boundary(now).max(now);
        let slice_start = now;
        let active = self.select_active();
        let active_count = active.len() as u64;
        let is_active = |i: usize| active.contains(&i);

        // Page out residents that lost their slot.
        let mut bytes_out = 0u64;
        let mut chunks_out = 0u64;
        for (i, s) in self.seqs.iter_mut().enumerate() {
            if s.place == Place::Resident && !is_active(i) {
                bytes_out += self.kv.free_seq(s.life.req.id);
                chunks_out += 2 * self.geom.layers;
                s.place = Place::Swapped;
                self.context_switches += 1;
            }
        }
        let out_done = self.offloader.swap_out(bytes_out, chunks_out, now);

        // Page in previously swapped members of the active set.
        let mut bytes_in = 0u64;
        let mut chunks_in = 0u64;
        let mut prefill_tokens = 0u64;
        for &i in &active {
            let s = &mut self.seqs[i];
            match s.place {
                Place::Swapped => {
                    let tokens = s.life.context_tokens();
                    self.kv
                        .grow_seq(s.life.req.id, tokens)
                        .expect("select_active sized the set to fit");
                    bytes_in += self.geom.kv_bytes(tokens);
                    chunks_in += 2 * self.geom.layers;
                    s.place = Place::Resident;
                }
                Place::New => {
                    self.kv
                        .grow_seq(s.life.req.id, s.life.req.prompt_tokens)
                        .expect("select_active sized the set to fit");
                    prefill_tokens += s.life.req.prompt_tokens;
                    s.place = Place::Resident;
                }
                Place::Resident => {}
            }
        }
        let in_done = self.offloader.swap_in(bytes_in, chunks_in, now);
        self.swapped_bytes += bytes_out + bytes_in;
        if chunks_out > 0 {
            self.tracer.incr(
                "cfs.context_switches_out",
                chunks_out / (2 * self.geom.layers),
            );
        }
        self.tracer.incr("cfs.swapped_bytes", bytes_out + bytes_in);

        // Compute starts once incoming context has landed; outgoing copies
        // overlap on the other link direction but must also finish before
        // the freed blocks are reused — take the max.
        let io_done = out_done.max(in_done);
        let t_prefill = cost::llm_prefill_time(&self.geom, &self.gpu, prefill_tokens);
        let mut cursor = io_done + t_prefill;

        // Run the slice: up to `slice_tokens` decode steps. KV growth is
        // batched to one `grow_seq` per sequence at slice end — nothing
        // inside the loop reads the pool (decode timing depends only on
        // `life.context_tokens()`), and `select_active` already reserved the
        // full end-of-slice footprint, so per-token bookkeeping would only
        // repeat the same map lookup `slice_tokens` times.
        let mut live: Vec<usize> = active;
        let gen_before: Vec<(usize, u64)> = live
            .iter()
            .map(|&i| (i, self.seqs[i].life.generated))
            .collect();
        let mut slice_tokens_generated = 0u64;
        for _ in 0..self.config.slice_tokens {
            live.retain(|&i| !self.seqs[i].life.is_complete());
            if live.is_empty() {
                break;
            }
            let batch = live.len() as u64;
            slice_tokens_generated += batch;
            let total_ctx: u64 = live
                .iter()
                .map(|&i| self.seqs[i].life.context_tokens() + 1)
                .sum();
            cursor += cost::llm_decode_step_time(&self.geom, &self.gpu, batch, total_ctx);
            for &i in &live {
                self.seqs[i].life.note_token(cursor);
            }
        }
        for (i, before) in gen_before {
            let s = &self.seqs[i];
            let grew = s.life.generated - before;
            if grew > 0 {
                self.kv
                    .grow_seq(s.life.req.id, grew)
                    .expect("slice growth reserved at selection");
            }
        }

        // Retire completed sequences.
        let mut i = 0;
        while i < self.seqs.len() {
            if self.seqs[i].life.is_complete() {
                let s = self.seqs.swap_remove(i);
                self.kv.free_seq(s.life.req.id);
                self.completions.push(s.life.record(cursor));
            } else {
                i += 1;
            }
        }

        trace!(
            self.tracer,
            TraceEvent::SliceFinished {
                engine: self.scope.clone(),
                slice: self.slices,
                active: active_count,
                tokens: slice_tokens_generated,
                start: slice_start,
                end: cursor,
            }
        );
        if self.tracer.enabled() {
            let outstanding = self.seqs.len() as f64;
            if let Some(name) = self.gauges.changed(OUTSTANDING, outstanding) {
                self.tracer.gauge(name, outstanding);
                self.tracer.emit(TraceEvent::Gauge {
                    name: name.clone(),
                    value: outstanding,
                    at: cursor,
                });
            }
        }
        cursor
    }

    fn idle_tick_is_noop(&self) -> bool {
        true
    }

    fn drain_completions(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.completions)
    }
}

impl MemoryElastic for CfsEngine {
    fn stats(&self) -> EngineStats {
        EngineStats {
            pending_requests: self.seqs.iter().filter(|s| s.place == Place::New).count(),
            running_requests: self.seqs.iter().filter(|s| s.place != Place::New).count(),
            context_used_bytes: self.kv.used_bytes(),
            context_reserved_bytes: self.kv.capacity_bytes(),
            donatable_bytes: 0, // CFS hosts memory-bound consumers
            donated_bytes: 0,
        }
    }

    fn donate(&mut self, _bytes: u64) -> u64 {
        0
    }

    fn reclaim(&mut self, _bytes: u64) {}
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

    fn engine(pool_gib: u64, slice: u64, max_active: usize) -> CfsEngine {
        let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let geom = *zoo::codellama_34b().llm_geometry().unwrap();
        CfsEngine::new(
            geom,
            GpuSpec::a100_80g(),
            CfsConfig {
                slice_tokens: slice,
                max_active,
                kv_pool_bytes: gib(pool_gib),
            },
            Box::new(DramOffloader::pinned(&server, GpuId(0), xfer)),
        )
    }

    fn run(engine: &mut CfsEngine) -> SimTime {
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while engine.has_work() {
            now = engine.step(now);
            guard += 1;
            assert!(guard < 500_000, "no progress");
        }
        now
    }

    #[test]
    fn completes_all_requests() {
        let mut e = engine(10, 5, 8);
        for i in 0..10 {
            e.submit(InferenceRequest::text(i, 200, 30), SimTime::ZERO);
        }
        run(&mut e);
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().all(|r| r.output_tokens == 30));
        assert_eq!(e.outstanding(), 0);
    }

    #[test]
    fn late_arrival_gets_fast_first_token() {
        // Saturate the engine with long jobs, then submit a latecomer: CFS
        // must schedule it in the next slice, not after the long jobs drain.
        let mut e = engine(6, 5, 4);
        let mut now = SimTime::ZERO;
        for i in 0..8 {
            e.submit(InferenceRequest::text(i, 512, 400), now);
        }
        // Run a few slices, then inject the latecomer.
        for _ in 0..6 {
            now = e.step(now);
        }
        let late_arrival = now;
        e.submit(InferenceRequest::text(99, 128, 10), now);
        while e.has_work() {
            now = e.step(now);
        }
        let recs = e.drain_completions();
        let late = recs.iter().find(|r| r.id == 99).expect("latecomer done");
        let ttft = late.first_token.duration_since(late_arrival).as_secs_f64();
        // One slice of 4×5 decode steps on a 34B model is well under 2 s;
        // batch processing would have made it wait tens of seconds.
        assert!(ttft < 3.0, "latecomer TTFT {ttft}");
    }

    #[test]
    fn context_switching_pages_kv() {
        // More sequences than the pool can hold resident: swapping must occur
        // (12 × ~840-token contexts on Codellama-34B ≈ 2 GB of KV > 1 GiB).
        let mut e = engine(1, 5, 16);
        for i in 0..12 {
            e.submit(InferenceRequest::text(i, 800, 40), SimTime::ZERO);
        }
        run(&mut e);
        assert!(e.context_switches() > 0, "expected paging");
        assert!(e.swapped_bytes() > 0);
        assert_eq!(e.drain_completions().len(), 12);
    }

    #[test]
    fn fairness_bounds_ttft_spread() {
        let mut e = engine(8, 5, 8);
        for i in 0..16 {
            e.submit(InferenceRequest::text(i, 300, 60), SimTime::ZERO);
        }
        run(&mut e);
        let recs = e.drain_completions();
        let ttfts: Vec<f64> = recs.iter().map(|r| r.ttft()).collect();
        let max = ttfts.iter().cloned().fold(0.0, f64::max);
        let min = ttfts.iter().cloned().fold(f64::MAX, f64::min);
        // All 16 requests see a first token within a few slices of each
        // other; batch processing would give the last ones ~16x the first's.
        assert!(max / min < 10.0, "ttft spread {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "cannot hold a single context")]
    fn oversized_context_panics_clearly() {
        let mut e = engine(1, 5, 4);
        e.submit(InferenceRequest::text(0, 100_000, 10), SimTime::ZERO);
        e.step(SimTime::ZERO);
    }

    aqua_sim::check! {
        #![cases(16)]

        // Liveness and accounting: every submitted request eventually
        // completes with exactly its requested tokens, first tokens never
        // precede arrivals, and the KV pool drains back to empty.
        #[test]
        fn cfs_liveness_and_accounting(
            reqs in aqua_sim::check::vec((1u64..600, 1u64..80, 0u64..20), 1..14)
        ) {
            use crate::driver::Driver;
            let mut e = engine(4, 5, 6);
            let mut driver = Driver::new();
            for (i, (prompt, output, at_s)) in reqs.iter().enumerate() {
                driver.schedule_arrival(
                    0,
                    SimTime::from_secs(*at_s),
                    InferenceRequest::text(i as u64, *prompt, *output),
                );
            }
            {
                let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
                driver.run(&mut engines, SimTime::from_secs(100_000));
            }
            assert!(!e.has_work(), "drained within the horizon");
            let recs = e.drain_completions();
            assert_eq!(recs.len(), reqs.len());
            for r in &recs {
                let (_, output, _) = reqs[r.id as usize];
                assert_eq!(r.output_tokens, output.max(1));
                assert!(r.first_token >= r.arrival);
                assert!(r.completion >= r.first_token);
            }
            assert_eq!(e.kv.used_blocks(), 0, "pool drains");
        }
    }

    /// The once-failing liveness case `reqs = [(1, 1, 1)]`: a one-token
    /// prompt arriving at 1 s completes its one token and drains the pool.
    #[test]
    fn one_token_request_completes_and_drains() {
        use crate::driver::Driver;
        let mut e = engine(4, 5, 6);
        let mut driver = Driver::new();
        driver.schedule_arrival(0, SimTime::from_secs(1), InferenceRequest::text(0, 1, 1));
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
            driver.run(&mut engines, SimTime::from_secs(100_000));
        }
        assert!(!e.has_work(), "drained within the horizon");
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].output_tokens, 1);
        assert!(recs[0].first_token >= recs[0].arrival);
        assert!(recs[0].completion >= recs[0].first_token);
        assert_eq!(e.kv.used_blocks(), 0, "pool drains");
    }

    #[test]
    fn traced_engine_journals_slices_and_paging() {
        use aqua_telemetry::{JournalTracer, TraceEvent};
        use std::sync::Arc;

        let journal = Arc::new(JournalTracer::new());
        let mut e = engine(1, 5, 16);
        e = e.with_tracer(journal.clone(), "cfs:test");
        for i in 0..12 {
            e.submit(InferenceRequest::text(i, 800, 40), SimTime::ZERO);
        }
        run(&mut e);
        let events = journal.events();
        let slices = events
            .iter()
            .filter(
                |ev| matches!(ev, TraceEvent::SliceFinished { engine, .. } if engine == "cfs:test"),
            )
            .count() as u64;
        assert_eq!(slices, e.slices());
        // Every slice's duration is non-negative and tokens are accounted.
        for ev in &events {
            if let TraceEvent::SliceFinished { start, end, .. } = ev {
                assert!(end >= start);
            }
        }
        assert_eq!(
            journal.registry().counter("cfs.swapped_bytes"),
            e.swapped_bytes()
        );
        assert!(events.iter().any(
            |ev| matches!(ev, TraceEvent::Gauge { name, .. } if name == "cfs:test.outstanding")
        ));
    }

    #[test]
    fn stats_report_places() {
        let mut e = engine(8, 5, 4);
        for i in 0..3 {
            e.submit(InferenceRequest::text(i, 100, 50), SimTime::ZERO);
        }
        let s = e.stats();
        assert_eq!(s.pending_requests, 3);
        e.step(SimTime::ZERO);
        let s = e.stats();
        assert_eq!(s.pending_requests + s.running_requests, 3);
        assert_eq!(e.donate(1 << 30), 0, "consumers do not donate");
    }
}
