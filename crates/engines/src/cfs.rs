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
use crate::kvcache::{PagedKvCache, DEFAULT_BLOCK_TOKENS};
use crate::northbound::{EngineStats, MemoryElastic};
use crate::offload::Offloader;
use crate::request::{InferenceRequest, RequestId, SeqLifecycle};
use aqua_metrics::requests::RequestRecord;
use aqua_models::cost;
use aqua_models::geometry::LlmGeometry;
use aqua_sim::gpu::GpuSpec;
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_telemetry::{null_tracer, trace, Lane, SharedTracer, TraceEvent};
use std::collections::BTreeMap;

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

/// A sequence's place in the fair order: fewest generated tokens first,
/// then earliest arrival, then request id. `submit` refuses a duplicate,
/// so the order is total.
type FairKey = (u64, SimTime, RequestId);

fn fair_key(life: &SeqLifecycle) -> FairKey {
    (life.generated, life.arrival, life.req.id)
}

/// What the selection scan needs of a sequence, kept beside its key so the
/// scan never reads `seqs`.
#[derive(Debug)]
struct FairEntry {
    /// Prompt tokens; with the key's generated count, the context size.
    prompt_tokens: u64,
    /// The sequence's position in `seqs`.
    slot: usize,
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
    /// Every sequence in `seqs`, in fair order. A slice re-keys only the
    /// sequences it grew, so picking the next active set walks the order
    /// from the front instead of sorting the backlog.
    fair: BTreeMap<FairKey, FairEntry>,
    completions: Vec<RequestRecord>,
    offloader: Box<dyn Offloader>,
    context_switches: u64,
    swapped_bytes: u64,
    slices: u64,
    tracer: SharedTracer,
    scope: Lane,
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
            fair: BTreeMap::new(),
            completions: Vec::new(),
            offloader,
            context_switches: 0,
            swapped_bytes: 0,
            slices: 0,
            tracer: null_tracer(),
            scope: Lane::from("cfs"),
        }
    }

    /// Attaches a tracer; every slice becomes a [`TraceEvent::SliceFinished`].
    /// `scope` labels this engine's events (e.g. `"cfs:s0/gpu0"`).
    pub fn with_tracer(mut self, tracer: SharedTracer, scope: impl Into<Lane>) -> Self {
        self.tracer = tracer;
        self.scope = scope.into();
        self
    }

    /// Number of scheduling slices executed.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Number of sequences paged out across all context switches.
    #[cfg(test)]
    fn context_switches(&self) -> u64 {
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
    /// capacity (context plus slice growth) and `max_active`. A context that
    /// does not fit beside the ones already picked is skipped, not waited
    /// for.
    fn select_active(&self) -> Vec<usize> {
        let mut chosen = Vec::with_capacity(self.config.max_active.min(self.fair.len()));
        let mut blocks = 0u64;
        for (&(generated, ..), entry) in &self.fair {
            if chosen.len() >= self.config.max_active {
                break;
            }
            let tokens = entry.prompt_tokens + generated + self.config.slice_tokens;
            let need = self.kv.blocks_for(tokens);
            if blocks + need > self.kv.total_blocks() {
                assert!(
                    !chosen.is_empty(),
                    "CFS KV pool ({} blocks) cannot hold a single context of {} tokens",
                    self.kv.total_blocks(),
                    tokens
                );
                continue;
            }
            blocks += need;
            chosen.push(entry.slot);
        }
        chosen
    }

    /// Runs one slice over the active set `select` picks. `step` passes
    /// [`Self::select_active`]; the tests also pass the sort-based oracle.
    fn run_slice(&mut self, now: SimTime, select: fn(&Self) -> Vec<usize>) -> SimTime {
        self.slices += 1;
        let now = self.offloader.on_iteration_boundary(now).max(now);
        let slice_start = now;
        let active = select(self);
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
                let entry = self
                    .fair
                    .remove(&(before, s.life.arrival, s.life.req.id))
                    .expect("every sequence is in the fair order");
                self.fair.insert(fair_key(&s.life), entry);
            }
        }

        // Retire completed sequences.
        let mut i = 0;
        while i < self.seqs.len() {
            if self.seqs[i].life.is_complete() {
                let s = self.seqs.swap_remove(i);
                self.fair.remove(&fair_key(&s.life));
                if let Some(moved) = self.seqs.get(i) {
                    self.fair
                        .get_mut(&fair_key(&moved.life))
                        .expect("every sequence is in the fair order")
                        .slot = i;
                }
                self.kv.free_seq(s.life.req.id);
                self.completions.push(s.life.record(cursor));
            } else {
                i += 1;
            }
        }
        debug_assert_eq!(self.fair.len(), self.seqs.len());

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
        cursor
    }
}

impl Engine for CfsEngine {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        let life = SeqLifecycle::new(req, now);
        let entry = FairEntry {
            prompt_tokens: life.req.prompt_tokens,
            slot: self.seqs.len(),
        };
        let fresh = self.fair.insert(fair_key(&life), entry).is_none();
        assert!(fresh, "CFS request {} submitted twice", life.req.id);
        self.seqs.push(CfsSeq {
            life,
            place: Place::New,
        });
    }

    fn has_work(&self) -> bool {
        !self.seqs.is_empty()
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        self.run_slice(now, Self::select_active)
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

    fn codellama() -> LlmGeometry {
        *zoo::codellama_34b().llm_geometry().unwrap()
    }

    fn engine_with(config: CfsConfig) -> CfsEngine {
        let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        CfsEngine::new(
            codellama(),
            GpuSpec::a100_80g(),
            config,
            Box::new(DramOffloader::pinned(&server, GpuId(0), xfer)),
        )
    }

    fn engine(pool_gib: u64, slice: u64, max_active: usize) -> CfsEngine {
        engine_with(CfsConfig {
            slice_tokens: slice,
            max_active,
            kv_pool_bytes: gib(pool_gib),
        })
    }

    /// The sort-based selection the fair index replaced, kept as the
    /// executable specification: sort the whole backlog by `(generated,
    /// arrival, id)`, then scan it with the same pick rules.
    mod oracle {
        use super::*;

        pub(super) fn select_active(e: &CfsEngine) -> Vec<usize> {
            let mut order: Vec<usize> = (0..e.seqs.len()).collect();
            order.sort_by_key(|&i| fair_key(&e.seqs[i].life));
            let mut chosen = Vec::new();
            let mut blocks = 0u64;
            for i in order {
                if chosen.len() >= e.config.max_active {
                    break;
                }
                let tokens = e.seqs[i].life.context_tokens() + e.config.slice_tokens;
                let need = e.kv.blocks_for(tokens);
                if blocks + need > e.kv.total_blocks() {
                    assert!(!chosen.is_empty(), "oracle: no context fits");
                    continue;
                }
                blocks += need;
                chosen.push(i);
            }
            chosen
        }
    }

    /// The request ids behind `slots`, in pick order.
    fn ids(e: &CfsEngine, slots: &[usize]) -> Vec<RequestId> {
        slots.iter().map(|&i| e.seqs[i].life.req.id).collect()
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

    aqua_sim::check! {
        #![cases(128)]

        // The fair index picks exactly what the sort-based oracle picks.
        // Two engines see the same submissions; one steps through
        // `select_active`, the other through `oracle::select_active`, and
        // before every slice both selections must name the same requests.
        // Arrivals land between slices, pools as small as one largest
        // context make the scan skip, and outputs that are not a multiple
        // of the slice complete mid-slice. The runs must end in the same
        // completion records, in the same order.
        #[test]
        fn fair_index_matches_the_sort_oracle(
            reqs in aqua_sim::check::vec((1u64..600, 1u64..80, 0u64..40), 1..48),
            max_active in 1usize..65,
            slice in 1u64..9,
            spare_blocks in 0u64..400
        ) {
            // The largest context a selection can size: a 599-token prompt
            // with 78 tokens generated, plus one slice.
            let max_blocks = (599 + 78 + slice).div_ceil(DEFAULT_BLOCK_TOKENS);
            let block_bytes = codellama().kv_bytes_per_token() * DEFAULT_BLOCK_TOKENS;
            let config = CfsConfig {
                slice_tokens: slice,
                max_active,
                kv_pool_bytes: (max_blocks + spare_blocks) * block_bytes,
            };
            let mut indexed = engine_with(config.clone());
            let mut sorted = engine_with(config);
            let mut now = SimTime::ZERO;
            let mut slice_no = 0u64;
            loop {
                for (id, &(prompt, output, at)) in reqs.iter().enumerate() {
                    if at == slice_no {
                        let req = InferenceRequest::text(id as u64, prompt, output);
                        indexed.submit(req.clone(), now);
                        sorted.submit(req, now);
                    }
                }
                if !indexed.has_work() {
                    // Idle: the next arrival comes at once.
                    match reqs.iter().map(|r| r.2).filter(|&at| at > slice_no).min() {
                        Some(next) => {
                            slice_no = next;
                            continue;
                        }
                        None => break,
                    }
                }
                let picked = indexed.select_active();
                let expected = oracle::select_active(&sorted);
                assert_eq!(
                    ids(&indexed, &picked),
                    ids(&sorted, &expected),
                    "slice {slice_no}: active set"
                );
                let end = indexed.step(now);
                assert_eq!(sorted.run_slice(now, oracle::select_active), end);
                now = end;
                slice_no += 1;
                assert!(slice_no < 100_000, "no progress");
            }
            assert!(!sorted.has_work());
            assert_eq!(indexed.drain_completions(), sorted.drain_completions());
            assert!(indexed.fair.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "submitted twice")]
    fn duplicate_submission_panics() {
        let mut e = engine(1, 5, 4);
        e.submit(InferenceRequest::text(7, 100, 10), SimTime::ZERO);
        e.submit(InferenceRequest::text(7, 100, 10), SimTime::ZERO);
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
        assert!(e.swapped_bytes() > 0, "12 sequences over 5 slots page");
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
