//! The gateway serving engine: the workspace's one continuous-batching
//! core.
//!
//! [`GatewayEngine`] does vLLM-style continuous batching: paged KV
//! admission control, youngest-first preemption with recompute or swap, and
//! the roofline cost model of `aqua-models`. On top of that core:
//!
//! * Admission order comes from one [`Scheduler`] index, whatever the
//!   policy, gated by per-tenant [`AdmissionController`] caps.
//! * Every output token's delivery time is recorded into a
//!   [`TokenStream`], so TTFT *and* inter-token latency percentiles are
//!   first-class outputs ([`GatewayEngine::drain_streams`]). The batch
//!   shares each iteration's end time, so the gateway appends it once to
//!   an iteration clock and each sequence keeps only the [`Run`]s of
//!   clock indices it spent in the batch.
//! * LoRA requests load their adapter into a fixed-slot GPU cache through
//!   the configured [`Offloader`] before computing (§B.1), the data path
//!   AQUA accelerates in Figures 8 and 12.
//! * An attached [`Informer`] donates free KV-pool memory to AQUA and
//!   reclaims it under load (producer mode, Figures 10 and 11).
//!
//! The paper's vLLM baseline is one configuration of this engine:
//! [`PolicyKind::Fcfs`] with [`GatewayConfig::vllm`] (one tenant, no cap,
//! no SLOs). It implements [`Engine`], so it runs on the
//! [`aqua_engines::driver::Driver`] event loop alongside crash windows and
//! any offload backend.

use crate::admission::{AdmissionController, OverloadPolicy};
use crate::outcome::{DeadlineKind, OutcomeCounts, SloPolicy, MAX_RETRIES, RETRY_BACKOFF};
use crate::scheduler::{PolicyKind, Pop, Queued, Scheduler};
use aqua_engines::driver::Engine;
use aqua_engines::kvcache::{DecodeGrowth, PagedKvCache, DEFAULT_BLOCK_TOKENS};
use aqua_engines::northbound::{EngineStats, Informer, MemoryElastic};
use aqua_engines::offload::Offloader;
use aqua_engines::request::{InferenceRequest, SeqLifecycle};
use aqua_engines::vllm::PreemptionPolicy;
use aqua_metrics::requests::RequestRecord;
use aqua_metrics::streaming::{IterationClock, Run, StreamLog, TokenStream, TokenTimes};
use aqua_models::cost;
use aqua_models::geometry::LlmGeometry;
use aqua_models::lora::LoraAdapter;
use aqua_sim::audit::{AuditViolation, SharedAuditor};
use aqua_sim::fault::FaultPlan;
use aqua_sim::gpu::{GpuId, GpuSpec};
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_telemetry::{null_tracer, trace, Lane, SharedTracer, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// KV pool a donating engine always retains: the paper's producer LLM
/// keeps 5 GB "to stay responsive".
const DONATION_FLOOR_BYTES: u64 = gib(5);

/// Configuration of a [`GatewayEngine`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Maximum sequences batched per iteration.
    pub max_batch: usize,
    /// Bytes reserved for the paged KV pool.
    pub kv_pool_bytes: u64,
    /// GPU adapter-cache slots: the LoRA adapters resident at once, and
    /// the distinct adapters one batch may reference (vLLM's `max_loras`).
    pub lora_cache_slots: usize,
    /// What happens to sequences preempted under KV pressure.
    pub preemption: PreemptionPolicy,
    /// Per-tenant cap on admitted-but-unfinished requests.
    pub max_outstanding_per_tenant: usize,
    /// Overload protection (shedding, brownout). Inert by default: the
    /// gateway never drops a request unless a deployment opts in.
    pub overload: OverloadPolicy,
    /// Per-tenant latency deadlines. No deadlines by default.
    pub slo: SloPolicy,
    /// Audit self-test knob: when set, the gateway "forgets" to journal
    /// restore events after a crash, which the `token_without_restore`
    /// audit invariant must catch. Never enable outside fuzzing.
    pub plant_skip_restore: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_batch: 256,
            kv_pool_bytes: gib(40),
            lora_cache_slots: 10,
            preemption: PreemptionPolicy::Recompute,
            max_outstanding_per_tenant: 16,
            overload: OverloadPolicy::default(),
            slo: SloPolicy::none(),
            plant_skip_restore: false,
        }
    }
}

impl GatewayConfig {
    /// The paper's vLLM baseline: one FCFS queue with no tenant cap, no
    /// shedding and no SLOs. Build it with [`PolicyKind::Fcfs`] and serve
    /// it requests of tenant 0, the default.
    pub fn vllm() -> Self {
        GatewayConfig {
            max_outstanding_per_tenant: usize::MAX,
            ..GatewayConfig::default()
        }
    }
}

#[derive(Debug, Clone)]
struct GateSeq {
    life: SeqLifecycle,
    tenant: u32,
    /// The iteration-clock runs of the tokens delivered so far, one per
    /// batch residency. Admission opens a run (or restarts a still-empty
    /// one) at the next clock index, and each decode iteration extends the
    /// last run by one. Non-empty iff the request has been admitted: it
    /// then counts against its tenant's outstanding cap until it retires,
    /// but is never re-gated.
    runs: Vec<Run>,
    prefilled: bool,
    /// KV cache lives in the offload store (swap preemption).
    swapped: bool,
    /// GPU crashes that aborted the sequence so far (at most
    /// `MAX_RETRIES + 1`: the one past the budget retires it).
    attempts: u8,
    /// Retry backoff: the sequence may not be scheduled before this time.
    eligible_after: SimTime,
    /// The sequence was in flight during a GPU crash and must journal a
    /// restore event before delivering another token: the gateway's one
    /// record of a restore debt.
    needs_restore: bool,
    /// The gateway's enqueue count when the sequence last entered the
    /// queue: its place in queue-entry order, which deadline timeouts of
    /// one step are journalled in.
    queued: u64,
}

impl Queued for GateSeq {
    fn id(&self) -> u64 {
        self.life.req.id.0
    }
    fn capped_by(&self) -> Option<u32> {
        self.runs.is_empty().then_some(self.tenant)
    }
    fn enqueued(&self) -> SimTime {
        self.life.arrival
    }
    fn prompt_tokens(&self) -> u64 {
        self.life.req.prompt_tokens
    }
    fn output_tokens(&self) -> u64 {
        self.life.req.output_tokens
    }
    fn generated(&self) -> u64 {
        self.life.generated
    }
    fn eligible_after(&self) -> SimTime {
        self.eligible_after
    }
}

impl GateSeq {
    /// The deadline of `slo` the sequence has missed at `now`, if any.
    fn missed(&self, slo: &SloPolicy, now: SimTime) -> Option<DeadlineKind> {
        slo.of(self.tenant)
            .missed(self.life.arrival, self.life.generated, now)
    }

    /// Extends the open run by `tokens` tokens already counted in
    /// `life.generated`.
    fn extend_run(&mut self, tokens: u32) {
        self.runs.last_mut().expect("admission opens a run").count += tokens;
        debug_assert_eq!(
            self.runs.iter().map(|r| u64::from(r.count)).sum::<u64>(),
            self.life.generated,
            "the runs hold every generated token"
        );
    }
}

/// A completed request's stream, waiting for a drain to attach the clock:
/// holding the clock's `Arc` here would make the next append copy it. It is
/// the gateway's only per-completion state: both drains read it.
struct Delivered {
    id: u64,
    tenant: u32,
    arrival: SimTime,
    runs: Box<[Run]>,
}

/// A request-level serving front-end admitting in the order of one of five
/// scheduler policies.
///
/// # Example
///
/// ```
/// use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
/// use aqua_gateway::scheduler::PolicyKind;
/// use aqua_engines::driver::Engine;
/// use aqua_engines::request::InferenceRequest;
/// use aqua_models::zoo;
/// use aqua_sim::gpu::GpuSpec;
/// use aqua_sim::time::SimTime;
///
/// let geom = *zoo::mistral_7b().llm_geometry().unwrap();
/// let mut gw = GatewayEngine::new(
///     geom,
///     GpuSpec::a100_80g(),
///     PolicyKind::SjfBucket,
///     GatewayConfig::default(),
/// );
/// gw.submit(InferenceRequest::text(0, 128, 16), SimTime::ZERO);
/// let mut now = SimTime::ZERO;
/// while gw.has_work() {
///     now = gw.step(now);
/// }
/// let streams = gw.drain_streams();
/// assert_eq!(streams.streams()[0].tokens.len(), 16);
/// ```
pub struct GatewayEngine {
    geom: LlmGeometry,
    gpu: GpuSpec,
    config: GatewayConfig,
    /// Whether `config.slo` sets any deadline (the config never changes
    /// after `new`, so `enforce_deadlines` need not ask every step).
    has_deadlines: bool,
    kv: PagedKvCache,
    /// The admission index, and the one store of the queued sequences.
    scheduler: Scheduler<GateSeq>,
    /// Sequences queued so far, re-queues included: the next
    /// [`GateSeq::queued`] stamp.
    enqueues: u64,
    admission: AdmissionController,
    /// In a debug build, the request id → tenant map of
    /// [`GatewayEngine::with_tenants`], which each request's own tenant
    /// must match (0 when unmapped); empty otherwise.
    tenant_check: BTreeMap<u64, u32>,
    /// Admitted batch. `Vec` doubles as the youngest-first preemption
    /// index: the last element is the most recent admission, so victim
    /// selection is an O(1) `pop`. Its sequences are exactly the KV pool's
    /// live sequences (donation only gives away free blocks), which lets
    /// one decode step grow the whole pool in one pass.
    running: Vec<GateSeq>,
    /// Context tokens of the running sequences not yet prefilled: the
    /// prefill work of the next step.
    unprefilled_tokens: u64,
    /// Scratch for `step`: batch indices of sequences that finished this
    /// iteration, kept across steps so it never re-allocates.
    finished: Vec<usize>,
    /// Scratch for `steady_run`: the KV growth plan of the current run,
    /// allocated by the first run and reused by every later one.
    growth: DecodeGrowth,
    /// End time of every decode iteration, in order: the delivery time of
    /// each running sequence's token. Indexed by `u32`, so one gateway
    /// runs at most `u32::MAX` decode iterations. Empty while
    /// `shared_clock` holds it.
    clock: IterationClock,
    /// The clock, moved here by a drain for its streams to share; the next
    /// decode iteration takes it back, copying it only if a drained log
    /// still lives, and forgets the entries below the pin (see
    /// `push_clock`).
    shared_clock: Option<Arc<IterationClock>>,
    /// Completed streams not yet drained.
    delivered: Vec<Delivered>,
    /// The first run's clock index of every running sequence and every
    /// queued one that has a run, with its multiplicity. Runs only move
    /// forwards, so the smallest key, the pin, is the oldest clock entry a
    /// later stream can read once the completed ones are drained.
    first_runs: BTreeMap<u32, u32>,
    offloader: Option<Box<dyn Offloader>>,
    informer: Option<Box<dyn Informer>>,
    /// KV-pool bytes currently donated to AQUA.
    donated_bytes: u64,
    /// The LoRA adapters requests may reference, by index.
    adapters: Vec<LoraAdapter>,
    /// GPU-resident adapters, least recently used first.
    lora_cache: VecDeque<usize>,
    lora_hits: u64,
    lora_misses: u64,
    pending_swap_out: u64,
    pending_swap_in: u64,
    swapped_bytes_total: u64,
    iterations: u64,
    /// Iterations decoded inside steady runs, past their first step.
    steady_iterations: u64,
    /// Iteration boundaries skipped because the offloader's was quiet.
    skipped_boundaries: u64,
    preemptions: u64,
    tracer: SharedTracer,
    scope: Lane,
    /// The scheduler policy's name, as `request_scheduled` carries it.
    policy_label: Lane,
    /// `[recompute, swap]`: the preemption modes `request_preempted`
    /// carries.
    preemption_labels: [Lane; 2],
    outcomes: OutcomeCounts,
    /// GpuCrash windows affecting this gateway's GPU, sorted by start.
    crash_windows: Vec<(SimTime, SimTime)>,
    /// Crash windows already processed by recovery.
    next_crash: usize,
    auditor: Option<SharedAuditor>,
}

impl std::fmt::Debug for GatewayEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayEngine")
            .field("policy", &self.scheduler.policy().name())
            .field("pending", &self.scheduler.len())
            .field("running", &self.running.len())
            .field("iterations", &self.iterations)
            .finish()
    }
}

impl GatewayEngine {
    /// Creates a gateway hosting `geom` on `gpu`, admitting in `policy`
    /// order.
    pub fn new(geom: LlmGeometry, gpu: GpuSpec, policy: PolicyKind, config: GatewayConfig) -> Self {
        let kv = PagedKvCache::new(geom, config.kv_pool_bytes, DEFAULT_BLOCK_TOKENS);
        let admission = AdmissionController::new(config.max_outstanding_per_tenant)
            .with_overload(config.overload.clone());
        GatewayEngine {
            geom,
            gpu,
            kv,
            scheduler: Scheduler::new(policy),
            enqueues: 0,
            admission,
            tenant_check: BTreeMap::new(),
            running: Vec::new(),
            unprefilled_tokens: 0,
            finished: Vec::new(),
            growth: DecodeGrowth::default(),
            clock: IterationClock::default(),
            shared_clock: None,
            delivered: Vec::new(),
            first_runs: BTreeMap::new(),
            offloader: None,
            informer: None,
            donated_bytes: 0,
            adapters: Vec::new(),
            lora_cache: VecDeque::new(),
            lora_hits: 0,
            lora_misses: 0,
            pending_swap_out: 0,
            pending_swap_in: 0,
            swapped_bytes_total: 0,
            iterations: 0,
            steady_iterations: 0,
            skipped_boundaries: 0,
            preemptions: 0,
            tracer: null_tracer(),
            scope: Lane::from("gateway"),
            policy_label: Lane::from(policy.name()),
            preemption_labels: [Lane::from("recompute"), Lane::from("swap")],
            outcomes: OutcomeCounts::default(),
            crash_windows: Vec::new(),
            next_crash: 0,
            auditor: None,
            has_deadlines: config.slo.any_deadline(),
            config,
        }
    }

    /// Attaches a tracer; `scope` labels this gateway's events.
    pub fn with_tracer(mut self, tracer: SharedTracer, scope: impl Into<Lane>) -> Self {
        self.tracer = tracer;
        self.scope = scope.into();
        self
    }

    /// Checks a request-id → tenant map against the requests. Each request
    /// carries its tenant ([`InferenceRequest::tenant`]), which is what the
    /// gateway admits and reports by; a debug build asserts at `submit`
    /// that it equals the map's (0 for an unmapped id), and a release build
    /// drops the map.
    pub fn with_tenants(mut self, tenants: BTreeMap<u64, u32>) -> Self {
        if cfg!(debug_assertions) {
            self.tenant_check = tenants;
        }
        self
    }

    /// Installs the offload backend used by swap preemption and LoRA
    /// adapter loads.
    pub fn with_offloader(mut self, offloader: Box<dyn Offloader>) -> Self {
        self.offloader = Some(offloader);
        self
    }

    /// Installs the adapter pool LoRA requests index into.
    pub fn with_adapters(mut self, adapters: Vec<LoraAdapter>) -> Self {
        self.adapters = adapters;
        self
    }

    /// Attaches an AQUA informer (producer mode): it runs at every
    /// iteration boundary and idle tick, donating and reclaiming KV-pool
    /// memory through [`MemoryElastic`].
    pub fn with_informer(mut self, informer: Box<dyn Informer>) -> Self {
        self.informer = Some(informer);
        self
    }

    /// Tells the gateway which `FaultPlan` governs `gpu`, the GPU it
    /// serves on. GpuCrash windows of that GPU destroy the HBM KV of
    /// running sequences: at its first step after a window opens, the
    /// gateway aborts them and re-queues survivors under the retry budget,
    /// while sequences whose KV sits in the offload store restore via the
    /// cheap swap path. Without a plan, crash windows only pause the
    /// engine (the pre-existing driver semantics).
    pub fn with_fault_plan(mut self, plan: &FaultPlan, gpu: GpuId) -> Self {
        let mut windows: Vec<(SimTime, SimTime)> = plan.gpu_crashes(gpu).collect();
        windows.sort();
        self.crash_windows = windows;
        self
    }

    /// Attaches the runtime auditor guarding the crash-restore invariant.
    pub fn with_auditor(mut self, auditor: SharedAuditor) -> Self {
        self.auditor = Some(auditor);
        self
    }

    /// The admission policy this gateway runs.
    pub fn policy(&self) -> PolicyKind {
        self.scheduler.policy()
    }

    /// Number of decode/prefill iterations executed.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Of [`iterations`](Self::iterations), those a steady run decoded
    /// without the full phases of a step (DESIGN.md §6, "Steady runs").
    pub fn steady_iterations(&self) -> u64 {
        self.steady_iterations
    }

    /// Of [`iterations`](Self::iterations), those whose offloader
    /// boundary a steady run skipped as quiet
    /// ([`Offloader::boundary_is_quiet`]); every iteration of a run without
    /// an offloader counts.
    pub fn skipped_boundaries(&self) -> u64 {
        self.skipped_boundaries
    }

    /// Number of mid-decode preemptions.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Total KV bytes moved by swap preemption (both directions).
    pub fn swapped_bytes_total(&self) -> u64 {
        self.swapped_bytes_total
    }

    /// Requests queued for admission.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.len()
    }

    /// Sequences currently being decoded.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Read access to the KV pool.
    pub fn kv(&self) -> &PagedKvCache {
        &self.kv
    }

    /// Bytes currently donated to AQUA.
    pub fn donated_bytes(&self) -> u64 {
        self.donated_bytes
    }

    /// `(hits, misses)` of the GPU LoRA-adapter cache.
    pub fn lora_cache_stats(&self) -> (u64, u64) {
        (self.lora_hits, self.lora_misses)
    }

    /// Removes and returns the requests completed since the last drain, as
    /// token streams. They share the iteration clock, trimmed to its
    /// length; the gateway's next decode iteration, if any, appends to a
    /// copy while the log lives, and first forgets the clock entries below
    /// the oldest run start of any sequence it still holds, which no later
    /// stream can read (DESIGN.md §6, "Memory that does not grow with
    /// requests"). A gateway drained only at the end never forgets; one
    /// drained as it serves keeps the clock since its oldest unfinished
    /// request.
    ///
    /// The gateway keeps one log of completions, which this and
    /// [`Engine::drain_completions`] both empty: each completed request is
    /// handed out once, to whichever drain comes first.
    pub fn drain_streams(&mut self) -> StreamLog {
        self.clock.shrink_to_fit();
        self.take_streams()
    }

    /// Empties the completion log into streams over the shared clock. An
    /// empty log leaves the clock where it is.
    fn take_streams(&mut self) -> StreamLog {
        if self.delivered.is_empty() {
            return StreamLog::new();
        }
        let clock = self
            .shared_clock
            .get_or_insert_with(|| Arc::new(std::mem::take(&mut self.clock)));
        std::mem::take(&mut self.delivered)
            .into_iter()
            .map(|d| TokenStream {
                id: d.id,
                tenant: d.tenant,
                arrival: d.arrival,
                tokens: TokenTimes::new(Arc::clone(clock), d.runs),
            })
            .collect()
    }

    /// The iteration clock, wherever it lives.
    fn clock(&self) -> &IterationClock {
        self.shared_clock.as_deref().unwrap_or(&self.clock)
    }

    /// [`first_runs`](Self::first_runs) recounted from the sequences.
    #[cfg(test)]
    fn recount_first_runs(&self) -> BTreeMap<u32, u32> {
        let mut counts = BTreeMap::new();
        let runs = (self.running.iter().map(|s| s.runs.as_slice()))
            .chain(self.scheduler.iter().map(|s| s.runs.as_slice()));
        for run in runs.filter_map(<[Run]>::first) {
            *counts.entry(run.first).or_default() += 1;
        }
        counts
    }

    /// Counts `first` in [`first_runs`](Self::first_runs).
    fn hold_first_run(&mut self, first: u32) {
        *self.first_runs.entry(first).or_default() += 1;
    }

    /// Uncounts `first` from [`first_runs`](Self::first_runs).
    fn release_first_run(&mut self, first: u32) {
        let count = self
            .first_runs
            .get_mut(&first)
            .expect("a sequence's first run is counted");
        *count -= 1;
        if *count == 0 {
            self.first_runs.remove(&first);
        }
    }

    /// How many requests completed, were shed, timed out or were
    /// crash-aborted, and how many crash aborts hit a running sequence.
    pub fn outcomes(&self) -> OutcomeCounts {
        self.outcomes
    }

    /// Whether brownout mode is currently engaged.
    pub fn brownout_active(&self) -> bool {
        self.admission.brownout_active()
    }

    /// Estimated KV bytes for a request: full context (prompt plus every
    /// output token) at the model's per-token KV cost.
    fn est_bytes(&self, req: &InferenceRequest) -> u64 {
        self.geom
            .kv_bytes(req.prompt_tokens + req.output_tokens.max(1))
    }

    /// Releases a sequence's admission slot and KV commitment estimate.
    fn retire(&mut self, seq: &GateSeq) {
        // Only an admitted sequence has a run.
        if let Some(run) = seq.runs.first() {
            self.release_first_run(run.first);
            self.admission.on_complete(seq.tenant);
        }
        let est = self.est_bytes(&seq.life.req);
        self.admission.release_bytes(est);
    }

    /// Queues `seq` behind every queued sequence (a fresh arrival, or a
    /// cap-exempt re-queue of admitted work): stamps its place in
    /// queue-entry order and files it in the index.
    fn enqueue(&mut self, mut seq: GateSeq) {
        seq.queued = self.enqueues;
        self.enqueues += 1;
        self.scheduler.insert(seq);
    }

    /// Processes GpuCrash windows that opened since the last step.
    ///
    /// The driver withholds steps while the window is active, so the first
    /// step afterwards observes `window.start <= now` and runs recovery:
    /// every running sequence lost its HBM KV and is either re-queued
    /// under the retry budget (restore mode `recompute`) or terminally
    /// aborted; preempted-and-swapped pending sequences keep their KV in
    /// the offload store and restore via the cheap `swap` path at their
    /// next admission. Both kinds owe a `request_restored` journal entry
    /// before any further token — the `token_without_restore` invariant.
    fn handle_crashes(&mut self, now: SimTime) {
        while self.next_crash < self.crash_windows.len()
            && self.crash_windows[self.next_crash].0 <= now
        {
            self.next_crash += 1;
            self.on_gpu_crash(now);
        }
    }

    fn on_gpu_crash(&mut self, now: SimTime) {
        self.unprefilled_tokens = 0;
        for mut victim in std::mem::take(&mut self.running) {
            let id = victim.life.req.id.0;
            self.kv.free_seq(victim.life.req.id);
            trace!(
                self.tracer,
                TraceEvent::RequestCrashAborted {
                    gateway: self.scope.clone(),
                    request: id,
                    generated: victim.life.generated,
                    at: now,
                }
            );
            self.outcomes.retries += 1;
            victim.attempts += 1;
            let attempt = u32::from(victim.attempts);
            if attempt > MAX_RETRIES {
                self.outcomes.crash_aborted += 1;
                self.retire(&victim);
            } else {
                trace!(
                    self.tracer,
                    TraceEvent::RequestRetried {
                        gateway: self.scope.clone(),
                        request: id,
                        attempt: u64::from(attempt),
                        at: now,
                    }
                );
                victim.prefilled = false;
                victim.swapped = false;
                victim.needs_restore = true;
                victim.eligible_after = now + RETRY_BACKOFF.backoff_for(attempt);
                // Re-queue as an event: the scheduler parks the victim on
                // its backoff deadline and files it when due, instead of
                // the engine re-filtering `eligible_after` every step.
                self.enqueue(victim);
            }
        }
        // Swap-preempted queued sequences survived — their KV was captured
        // into the offload store at preemption time — but they are still
        // crashed sequences: their readmission must journal a swap restore.
        // (`needs_restore` is not part of the scheduler key, so this walk
        // needs no index updates.)
        for seq in self.scheduler.iter_mut() {
            if seq.swapped {
                seq.needs_restore = true;
            }
        }
    }

    /// Cancels queued and running sequences that blew a tenant deadline.
    /// A cancelled sequence frees its KV (and its slot in the admission
    /// books) immediately — capacity spent on an already-missed SLO is
    /// capacity stolen from requests that can still meet theirs.
    fn enforce_deadlines(&mut self, now: SimTime) {
        if !self.has_deadlines {
            return;
        }
        let slo = &self.config.slo;
        let mut missed = self.scheduler.sweep(|seq| seq.missed(slo, now));
        // The sweep walks the index's order; the journal keeps the order
        // the sequences entered the queue in, re-queues included.
        missed.sort_unstable_by_key(|(_, seq)| seq.queued);
        for (kind, seq) in missed {
            self.timeout_seq(seq, kind, now);
        }
        let mut i = 0;
        while i < self.running.len() {
            if let Some(kind) = self.running[i].missed(&self.config.slo, now) {
                let seq = self.running.remove(i);
                if !seq.prefilled {
                    self.unprefilled_tokens -= seq.life.context_tokens();
                }
                self.kv.free_seq(seq.life.req.id);
                self.timeout_seq(seq, kind, now);
            } else {
                i += 1;
            }
        }
    }

    fn timeout_seq(&mut self, seq: GateSeq, kind: DeadlineKind, now: SimTime) {
        let id = seq.life.req.id.0;
        trace!(
            self.tracer,
            TraceEvent::RequestTimedOut {
                gateway: self.scope.clone(),
                request: id,
                deadline: kind.label().to_owned(),
                at: now,
            }
        );
        self.outcomes.timed_out += 1;
        self.retire(&seq);
    }

    /// Admits pending requests in scheduler order.
    ///
    /// Admission stops at the first request whose KV does not fit
    /// (head-of-line semantics, like vLLM); the scheduler reports that head
    /// as blocked and keeps it indexed. While the batch is empty, though, a
    /// head that can never fit (its context exceeds the pool's undonated
    /// capacity) is popped and skipped instead, so one oversized head
    /// cannot stall an idle engine that still has admissible work. A head
    /// that fits only once donated memory returns still blocks. So does a
    /// LoRA head whose adapter would push the batch past
    /// `lora_cache_slots` distinct adapters (vLLM's `max_loras`).
    ///
    /// Each admission is one `pop_next` against the incremental index,
    /// whose order the step has brought up to `now` — cap gating happens
    /// inside the pop — so a round's cost scales with the *batch*, never
    /// with the backlog. The old implementation materialized and sorted
    /// every eligible entry per decode iteration, which turned saturated
    /// million-request traces quadratic.
    fn admit(&mut self, now: SimTime) {
        // Idle-engine skips that can never fit sit out the rest of the
        // round here (matching the sort-based walk, which never revisits a
        // skipped entry) and rejoin the index afterwards.
        let mut stashed: Vec<GateSeq> = Vec::new();
        while self.running.len() < self.config.max_batch {
            // A head fits if its context plus its first decoded token fits
            // the free blocks. An idle engine pops any head (see above).
            let idle = self.running.is_empty();
            let context_limit = if idle {
                u64::MAX
            } else {
                self.kv.free_tokens()
            };
            let mut seq = match self.scheduler.pop_next(&self.admission, context_limit) {
                Pop::Popped(seq) => seq,
                Pop::Blocked | Pop::Empty => break,
            };
            let needed = seq.life.context_tokens() + 1;
            if !self.kv.can_fit_tokens(needed) {
                debug_assert!(idle, "a limited pop returns only heads that fit");
                if self.kv.blocks_for(needed) > self.undonated_blocks() {
                    stashed.push(seq);
                    continue;
                }
                self.scheduler.insert(seq);
                break;
            }
            if !self.adapter_admissible(seq.life.req.adapter) {
                self.scheduler.insert(seq);
                break;
            }
            trace!(
                self.tracer,
                TraceEvent::RequestScheduled {
                    gateway: self.scope.clone(),
                    policy: self.policy_label.clone(),
                    request: seq.life.req.id.0,
                    at: now,
                }
            );
            if seq.runs.is_empty() {
                self.admission.on_admit(seq.tenant);
            }
            // The clock holds fewer than `u32::MAX` entries (see `step`).
            let first = self.clock().len() as u32;
            let held = seq.runs.first().map(|run| run.first);
            match seq.runs.last_mut() {
                // A preemption ended the last residency before its first
                // token, so its run is still empty: move it here.
                Some(run) if run.count == 0 => run.first = first,
                _ => {
                    seq.runs.reserve_exact(1);
                    seq.runs.push(Run { first, count: 0 });
                }
            }
            // The first run opened here, or it was the empty one and moved.
            if held != Some(seq.runs[0].first) {
                if let Some(held) = held {
                    self.release_first_run(held);
                }
                self.hold_first_run(first);
            }
            self.kv
                .grow_seq(seq.life.req.id, seq.life.context_tokens())
                .expect("can_fit_tokens checked");
            if seq.needs_restore && !self.config.plant_skip_restore {
                trace!(
                    self.tracer,
                    TraceEvent::RequestRestored {
                        gateway: self.scope.clone(),
                        request: seq.life.req.id.0,
                        mode: if seq.swapped { "swap" } else { "recompute" }.to_owned(),
                        bytes: self.geom.kv_bytes(seq.life.context_tokens()),
                        at: now,
                    }
                );
                seq.needs_restore = false;
            }
            if seq.swapped {
                let bytes = self.geom.kv_bytes(seq.life.context_tokens());
                self.pending_swap_in += bytes;
                self.swapped_bytes_total += bytes;
                seq.swapped = false;
                seq.prefilled = true;
            } else {
                seq.prefilled = false;
                self.unprefilled_tokens += seq.life.context_tokens();
            }
            self.running.push(seq);
        }
        // Reinsert skipped picks. Keys recompute identically (the index's
        // time and ratio have not moved), so the index order is as if they
        // never left.
        for seq in stashed {
            self.scheduler.insert(seq);
        }
    }

    /// Whether [`admit`](Self::admit) would change nothing: the batch is
    /// full, the queue is empty, or the batch is non-empty and the head
    /// the round's first pop would see does not fit the free KV tokens.
    fn admit_is_noop(&self) -> bool {
        self.running.len() >= self.config.max_batch
            || self.scheduler.is_empty()
            || !self.running.is_empty()
                && self
                    .scheduler
                    .head_context(&self.admission)
                    .is_none_or(|ctx| ctx >= self.kv.free_tokens())
    }

    /// KV blocks the pool would hold with every donation returned.
    fn undonated_blocks(&self) -> u64 {
        self.kv.total_blocks() + self.donated_bytes / self.kv.block_bytes()
    }

    /// Adapters referenced by running sequences, which are pinned in the
    /// adapter cache (empty, and allocation-free, for non-LoRA batches).
    fn referenced_adapters(&self) -> Vec<usize> {
        self.running
            .iter()
            .filter_map(|s| s.life.req.adapter)
            .collect()
    }

    /// Whether admitting a request for `adapter` keeps the batch within
    /// `lora_cache_slots` distinct adapters: unreferenced cached adapters
    /// can always be evicted, referenced ones cannot.
    fn adapter_admissible(&self, adapter: Option<usize>) -> bool {
        let Some(idx) = adapter else { return true };
        let mut needed = self.referenced_adapters();
        needed.push(idx);
        needed.sort_unstable();
        needed.dedup();
        needed.len() <= self.config.lora_cache_slots
    }

    /// Loads adapters newly required by the running batch, least recently
    /// used evicted first; returns the completion time of the last load
    /// (`now` on full cache hits). Adapters referenced by running sequences
    /// are never evicted, so an adapter is loaded at most once per
    /// residency.
    fn load_adapters(&mut self, now: SimTime) -> SimTime {
        let mut io_done = now;
        if self.adapters.is_empty() {
            // `submit` takes no LoRA request without an adapter pool.
            return io_done;
        }
        let mut needed = self.referenced_adapters();
        needed.sort_unstable();
        needed.dedup();
        for &idx in &needed {
            if let Some(pos) = self.lora_cache.iter().position(|&a| a == idx) {
                self.lora_hits += 1;
                self.lora_cache.remove(pos);
                self.lora_cache.push_back(idx);
                continue;
            }
            self.lora_misses += 1;
            while self.lora_cache.len() >= self.config.lora_cache_slots {
                let victim = self
                    .lora_cache
                    .iter()
                    .position(|a| !needed.contains(a))
                    .expect("adapter_admissible gated admission on a free slot");
                self.lora_cache.remove(victim);
            }
            self.lora_cache.push_back(idx);
            let adapter = &self.adapters[idx];
            if let Some(off) = self.offloader.as_mut() {
                // Adapters persist in the offload store; loading is a read.
                io_done = off.read_in(adapter.bytes, adapter.tensor_count, io_done);
            }
        }
        io_done
    }

    /// Runs the attached informer, if any; returns when serving may resume
    /// (later than `now` only while a blocking reclaim is waited out).
    fn run_informer(&mut self, now: SimTime) -> SimTime {
        let Some(mut informer) = self.informer.take() else {
            return now;
        };
        let resume = informer.control(self, now);
        self.informer = Some(informer);
        resume.max(now)
    }

    /// Ensures every running sequence can grow by one token this iteration,
    /// preempting the youngest (most recently admitted) under KV pressure.
    fn make_room_for_decode(&mut self, now: SimTime) {
        debug_assert!(self.batch_is_the_pool());
        loop {
            // The batch is the pool, so the blocks this step allocates are
            // the pool's full sequences.
            if self.kv.full_seqs() as u64 <= self.kv.free_blocks() || self.running.is_empty() {
                return;
            }
            let mut victim = self.running.pop().expect("non-empty");
            if !victim.prefilled {
                self.unprefilled_tokens -= victim.life.context_tokens();
            }
            self.kv.free_seq(victim.life.req.id);
            self.preemptions += 1;
            let swapping =
                self.config.preemption == PreemptionPolicy::Swap && self.offloader.is_some();
            trace!(
                self.tracer,
                TraceEvent::RequestPreempted {
                    engine: self.scope.clone(),
                    request: victim.life.req.id.0,
                    policy: self.preemption_labels[usize::from(swapping)].clone(),
                    at: now,
                }
            );
            if swapping {
                let bytes = self.geom.kv_bytes(victim.life.context_tokens());
                self.pending_swap_out += bytes;
                self.swapped_bytes_total += bytes;
                victim.swapped = true;
            } else {
                victim.prefilled = false;
            }
            // Preempted work was admitted before, so it re-queues
            // cap-exempt with no backoff (immediately re-admissible).
            self.enqueue(victim);
        }
    }

    /// Debug check: the batch holds exactly the KV pool's live sequences,
    /// each with its full context mapped.
    fn batch_is_the_pool(&self) -> bool {
        self.running.len() == self.kv.seq_count()
            && self.running.iter().all(|s| {
                let id = s.life.req.id;
                self.kv.blocks_of(id).is_some()
                    && self.kv.used_tokens_of(id) == s.life.context_tokens()
            })
    }

    /// Opens a decode iteration at `now`: runs the informer, then the
    /// offloader's iteration boundary (AQUA-LIB's `respond()`), and
    /// returns when the iteration's work may start.
    fn open_iteration(&mut self, now: SimTime) -> SimTime {
        self.iterations += 1;
        let now = self.run_informer(now);
        match self.offloader.as_mut() {
            Some(off) => off.on_iteration_boundary(now).max(now),
            None => now,
        }
    }

    /// Everything of a step after [`open_iteration`](Self::open_iteration):
    /// scheduling, admission and preemption at `now`, then one decode
    /// iteration and its per-sequence bookkeeping. Returns the iteration's
    /// end.
    fn step_at(&mut self, now: SimTime) -> SimTime {
        self.scheduler.advance(now);
        self.handle_crashes(now);
        self.enforce_deadlines(now);
        if let Some(engaged) = self.admission.update_brownout(self.queue_depth()) {
            trace!(
                self.tracer,
                TraceEvent::GatewayBrownout {
                    gateway: self.scope.clone(),
                    state: if engaged { "enter" } else { "exit" }.to_owned(),
                    at: now,
                }
            );
        }
        self.admit(now);
        self.make_room_for_decode(now);
        if self.running.is_empty() {
            // If the only schedulable work is backing off after a crash
            // retry, tell the driver when it becomes eligible — spinning
            // 1ns steps until then would melt the event loop. (The index
            // is at `now`, so the parked set holds only strictly-future
            // deadlines.)
            let resume = self.scheduler.next_parked().unwrap_or(now);
            self.scheduler.advance(resume);
            return resume;
        }

        let mut io_done = self.load_adapters(now);
        if let Some(off) = self.offloader.as_mut() {
            let chunks_per_gib = 2 * self.geom.layers;
            if self.pending_swap_out > 0 {
                io_done = io_done.max(off.swap_out(self.pending_swap_out, chunks_per_gib, now));
                self.pending_swap_out = 0;
            }
            if self.pending_swap_in > 0 {
                io_done = io_done.max(off.swap_in(self.pending_swap_in, chunks_per_gib, now));
                self.pending_swap_in = 0;
            }
        } else {
            self.pending_swap_out = 0;
            self.pending_swap_in = 0;
        }

        debug_assert_eq!(
            self.unprefilled_tokens,
            self.running
                .iter()
                .filter(|s| !s.prefilled)
                .map(|s| s.life.context_tokens())
                .sum::<u64>()
        );
        let end = self.decode(io_done);
        self.finished.clear();
        for (i, seq) in self.running.iter_mut().enumerate() {
            seq.prefilled = true;
            // More tokens than the request declared is a simulator bug.
            assert!(
                seq.life.generated < seq.life.req.output_tokens,
                "token record past declared output"
            );
            seq.life.note_token(end);
            seq.extend_run(1);
            // The crash-restore invariant: a crashed sequence that still
            // owes a restore at token time journalled none. Flag once, then
            // clear so one planted bug does not flood the journal.
            if seq.needs_restore {
                if let Some(aud) = &self.auditor {
                    aud.record(AuditViolation::TokenWithoutRestore {
                        gateway: self.scope.to_string(),
                        request: seq.life.req.id.0,
                        at: end,
                    });
                }
                seq.needs_restore = false;
            }
            if seq.life.generated == 1 {
                trace!(
                    self.tracer,
                    TraceEvent::FirstTokenEmitted {
                        gateway: self.scope.clone(),
                        request: seq.life.req.id.0,
                        at: end,
                    }
                );
            }
            if seq.life.is_complete() {
                self.finished.push(i);
            }
        }
        // Descending, so each removal leaves the lower indices valid.
        let finished = std::mem::take(&mut self.finished);
        for &i in finished.iter().rev() {
            let seq = self.running.remove(i);
            self.kv.free_seq(seq.life.req.id);
            self.retire(&seq);
            self.outcomes.completed += 1;
            self.scheduler
                .observe_completion(seq.life.req.prompt_tokens, seq.life.generated);
            trace!(
                self.tracer,
                TraceEvent::GatewayCompleted {
                    gateway: self.scope.clone(),
                    request: seq.life.req.id.0,
                    output_tokens: seq.life.generated,
                    at: end,
                }
            );
            self.delivered.push(Delivered {
                id: seq.life.req.id.0,
                tenant: seq.tenant,
                arrival: seq.life.arrival,
                runs: seq.runs.into_boxed_slice(),
            });
        }
        self.finished = finished;
        // Completions may have moved the learned ratio and promotions may
        // have fallen due during the step: applying them here lets
        // `has_work` read the order the next step pops in.
        self.scheduler.advance(end);
        end
    }

    /// The decode core of a step: the cost of prefilling the batch's
    /// unprefilled context and decoding one token per sequence, started at
    /// `io_done`; one more KV token for every sequence; and the
    /// iteration's end appended to the clock. Returns that end.
    fn decode(&mut self, io_done: SimTime) -> SimTime {
        let prefill_tokens = std::mem::take(&mut self.unprefilled_tokens);
        let t_prefill = cost::llm_prefill_time(&self.geom, &self.gpu, prefill_tokens);
        let batch = self.running.len() as u64;
        let total_ctx = self.kv.total_context_tokens() + batch;
        let t_decode = cost::llm_decode_step_time(&self.geom, &self.gpu, batch, total_ctx);
        let end = io_done + t_prefill + t_decode;

        self.kv
            .grow_each_by_one()
            .expect("make_room_for_decode guarantees headroom");
        self.push_clock(end);
        end
    }

    /// Appends a decode iteration's end to the clock, first taking the
    /// clock back from a drain. This is where the clock forgets what no
    /// stream can read any more: the drain took every completed stream and
    /// no sequence completes before its step's append, so only the running
    /// and pending sequences can still be read, and no run of theirs
    /// starts below the pin (all of the clock when none has a run: new
    /// runs start at its end). The clock forgets only a prefix at least
    /// half as long as what it keeps, and a gateway drained only at the end
    /// never gets here.
    fn push_clock(&mut self, end: SimTime) {
        if let Some(shared) = self.shared_clock.take() {
            self.clock = Arc::unwrap_or_clone(shared);
            debug_assert!(self.delivered.is_empty(), "a drain took every completion");
            let pin = self.first_runs.keys().next();
            let pin = pin.map_or(self.clock.len(), |&first| first as usize);
            self.clock.forget_below(pin);
        }
        assert!(
            self.clock.len() < u32::MAX as usize,
            "a gateway's iteration clock is indexed by u32"
        );
        self.clock.push(end);
    }

    /// How many decode iterations after the current step can run steady
    /// (see [`steady_run`](Self::steady_run)): none unless every phase of
    /// [`step_at`](Self::step_at) but the time-guarded ones and the decode
    /// core is a no-op, and then one less than the fewest tokens
    /// a running sequence still owes, so that none completes in the run.
    ///
    /// Those phases stay no-ops through the run: no informer runs, no
    /// deadline is enforced, no swap bytes or unprefilled context exist
    /// (only admission, preemption and crashes make them); no running
    /// sequence owes a restore, since every admission decodes a token in
    /// the same step, whose audit clears the debt, and a pending sequence
    /// delivers no token in the run; the queue depth and brownout state
    /// stay put, so the brownout check stays idle; and `admit` stays a
    /// no-op because the batch and queue keep their sizes, the index's
    /// order stays put, and decode only takes free blocks, so a head that
    /// did not fit still does not. A sequence with
    /// its first token still to come, or with an adapter to keep warm,
    /// would make its iterations differ.
    fn steady_span(&self) -> u64 {
        let steady = self.informer.is_none()
            && !self.has_deadlines
            && self.pending_swap_out == 0
            && self.pending_swap_in == 0
            && self.unprefilled_tokens == 0
            && self
                .admission
                .brownout_transition(self.queue_depth())
                .is_none();
        if !steady {
            return 0;
        }
        debug_assert!(
            self.running.iter().all(|s| !s.needs_restore),
            "every step pays or audits the restores of its batch"
        );
        let span = self
            .running
            .iter()
            .map(|s| match (s.life.generated, s.life.req.adapter) {
                (1.., None) => s
                    .life
                    .req
                    .output_tokens
                    .saturating_sub(s.life.generated + 1),
                _ => 0,
            })
            .min()
            .unwrap_or(0);
        // Asked last: the index query is the dearest condition.
        if span > 0 && self.admit_is_noop() {
            span
        } else {
            0
        }
    }

    /// The first time at which time alone breaks a steady iteration
    /// (`None`: never): the next GPU crash window opens, or advancing the
    /// scheduler index would move the order. Nothing inside a steady run
    /// moves it, so an iteration opening before it passes both guards.
    fn steady_until(&self) -> Option<SimTime> {
        let crash = self.crash_windows.get(self.next_crash);
        crash
            .map(|&(start, _)| start)
            .into_iter()
            .chain(self.scheduler.next_move())
            .min()
    }

    /// Whether opening an iteration would return its time and change
    /// nothing, given no informer: the offloader's boundary is quiet, or
    /// there is no offloader.
    fn boundary_is_quiet(&self) -> bool {
        self.offloader
            .as_ref()
            .is_none_or(|off| off.boundary_is_quiet())
    }

    /// Runs up to `span` ([`steady_span`](Self::steady_span)) decode
    /// iterations back to back, the first starting at `done`, each while
    /// [`Engine::step_run`]'s bounds allow. Each opens like a step, checks
    /// its guards and decodes; the other phases of a step are no-ops here,
    /// and none journals an edge. An iteration whose guard fails runs the
    /// full phases instead, which ends the run. Every iteration's closing
    /// index advance is quiet but the last one's (the next iteration's
    /// guard checked a later time), so that one runs once, at the end.
    ///
    /// What a step reads from its own state is planned once per run: the
    /// guards time can break ([`steady_until`](Self::steady_until)); the
    /// batch, hence the decode compute term; the context, which grows by
    /// one token per sequence per iteration; the KV blocks each iteration
    /// takes ([`DecodeGrowth`]), which give the headroom guard (an
    /// iteration fits iff the blocks of the run so far do). While the
    /// offloader's boundary is quiet it is skipped: nothing in the run
    /// calls the offloader or its coordinator, so it stays quiet to the
    /// run's end. A boundary that runs is asked again. The KV growth and
    /// the per-sequence token bookkeeping are [settled](Self::settle) once
    /// per run. Returns like `step_run`.
    fn steady_run(
        &mut self,
        mut done: SimTime,
        limit: SimTime,
        span: u64,
    ) -> (SimTime, SimTime, u64) {
        let batch = self.running.len() as u64;
        let compute = cost::llm_decode_compute_secs(&self.geom, &self.gpu, batch);
        let mut context = self.kv.total_context_tokens();
        self.kv.plan_decode_growth(&mut self.growth);
        let headroom = self.growth.steps_within(self.kv.free_blocks());
        let until = self.steady_until();
        let mut quiet = self.boundary_is_quiet();
        let mut tokens = 0;
        loop {
            let start = done;
            let now = if quiet {
                self.iterations += 1;
                self.skipped_boundaries += 1;
                start
            } else {
                let now = self.open_iteration(start);
                quiet = self.boundary_is_quiet();
                now
            };
            if tokens == headroom || until.is_some_and(|until| now >= until) {
                self.settle(tokens);
                return (start, self.step_at(now), tokens + 1);
            }
            context += batch;
            let t_decode = cost::llm_decode_step_time_from(&self.geom, &self.gpu, compute, context);
            done = now + t_decode;
            self.push_clock(done);
            tokens += 1;
            if tokens == span || !(start < done && done <= limit) {
                self.settle(tokens);
                self.scheduler.advance(done);
                return (start, done, tokens);
            }
        }
    }

    /// Takes the `tokens` iterations of a steady run in the KV pool and
    /// credits every running sequence with their tokens, as that many
    /// steps would have one by one. Inside a steady run no sequence gets
    /// its first token, completes or owes a restore, so this is all their
    /// bookkeeping.
    fn settle(&mut self, tokens: u64) {
        if tokens == 0 {
            return;
        }
        self.kv
            .grow_each_by(tokens)
            .expect("the run's headroom covers its blocks");
        self.steady_iterations += tokens;
        // The clock, which every token indexes, holds fewer than
        // `u32::MAX` entries.
        let count = tokens as u32;
        for seq in &mut self.running {
            seq.life.generated += tokens;
            // A steady run stops short of every sequence's last token.
            assert!(
                seq.life.generated < seq.life.req.output_tokens,
                "token record past declared output"
            );
            seq.extend_run(count);
        }
    }
}

impl Engine for GatewayEngine {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        if let Some(idx) = req.adapter {
            assert!(
                idx < self.adapters.len(),
                "request {} references unknown adapter {idx}",
                req.id.0
            );
        }
        self.scheduler.advance(now);
        let tenant = req.tenant;
        debug_assert!(
            self.tenant_check.is_empty()
                || self.tenant_check.get(&req.id.0).copied().unwrap_or(0) == tenant,
            "request {} arrived as tenant {tenant}, but the tenant map says otherwise",
            req.id.0
        );
        trace!(
            self.tracer,
            TraceEvent::GatewayEnqueued {
                gateway: self.scope.clone(),
                tenant: u64::from(tenant),
                request: req.id.0,
                at: now,
            }
        );
        let est = self.est_bytes(&req);
        if let Some(reason) = self.admission.shed_reason(tenant, self.queue_depth(), est) {
            trace!(
                self.tracer,
                TraceEvent::RequestShed {
                    gateway: self.scope.clone(),
                    tenant: u64::from(tenant),
                    request: req.id.0,
                    reason: reason.label().to_owned(),
                    at: now,
                }
            );
            self.outcomes.shed += 1;
            return;
        }
        self.admission.commit_bytes(est);
        let life = SeqLifecycle::new(req, now);
        self.enqueue(GateSeq {
            life,
            tenant,
            runs: Vec::new(),
            prefilled: false,
            swapped: false,
            attempts: 0,
            eligible_after: SimTime::ZERO,
            needs_restore: false,
            queued: 0,
        });
    }

    fn has_work(&self) -> bool {
        // An idle engine's pool is empty, and `admit` takes the first head,
        // in the index's order, that could ever fit, if it fits right now.
        // A crash retry parked on its backoff is outside that order but
        // counts as work: a step that admits nothing returns its deadline.
        !self.running.is_empty()
            || self.scheduler.next_parked().is_some()
            || self
                .scheduler
                .first_context(
                    &self.admission,
                    self.undonated_blocks() * self.kv.block_tokens(),
                )
                .is_some_and(|ctx| self.kv.can_fit_tokens(ctx + 1))
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        let now = self.open_iteration(now);
        self.step_at(now)
    }

    /// The default loop, except that whenever the batch is steady (no
    /// informer, deadline, adapter, swap or prefill; nothing to admit;
    /// every sequence past its first token and short of its last two) the
    /// following iterations run in a tight loop that skips the phases they
    /// provably leave unchanged: every other layer sees the calls stepping
    /// one by one makes, and the gateway ends in the state stepping would
    /// leave (DESIGN.md §6, "Steady runs").
    fn step_run(
        &mut self,
        mut start: SimTime,
        mut done: SimTime,
        limit: SimTime,
    ) -> (SimTime, SimTime, u64) {
        let mut steps = 0;
        while start < done && done <= limit && self.has_work() {
            let span = self.steady_span();
            let (s, d, n) = if span > 0 {
                self.steady_run(done, limit, span)
            } else {
                (done, self.step(done), 1)
            };
            (start, done) = (s, d);
            steps += n;
        }
        (start, done, steps)
    }

    fn tick(&mut self, now: SimTime) {
        self.scheduler.advance(now);
        let _ = self.run_informer(now);
    }

    fn idle_tick_is_noop(&self) -> bool {
        self.informer.is_none()
    }

    /// The [`TokenStream::record`] of each stream
    /// [`GatewayEngine::drain_streams`] would return: the two drains empty
    /// one log, so each completed request is handed out once, to whichever
    /// drain comes first. Leaves the clock untrimmed, since no log outlives
    /// the call.
    fn drain_completions(&mut self) -> Vec<RequestRecord> {
        records(&self.take_streams())
    }
}

/// The two-timestamp records of drained streams.
fn records(streams: &StreamLog) -> Vec<RequestRecord> {
    streams
        .streams()
        .iter()
        .map(|s| s.record().expect("a completed stream delivered a token"))
        .collect()
}

impl MemoryElastic for GatewayEngine {
    fn stats(&self) -> EngineStats {
        let donatable = self.kv.free_bytes().min(
            self.kv
                .capacity_bytes()
                .saturating_sub(DONATION_FLOOR_BYTES),
        );
        EngineStats {
            pending_requests: self.queue_depth(),
            running_requests: self.running.len(),
            context_used_bytes: self.kv.used_bytes(),
            context_reserved_bytes: self.kv.capacity_bytes(),
            donatable_bytes: donatable,
            donated_bytes: self.donated_bytes,
        }
    }

    fn donate(&mut self, bytes: u64) -> u64 {
        let max_donation = self
            .kv
            .capacity_bytes()
            .saturating_sub(DONATION_FLOOR_BYTES.max(self.kv.used_bytes()));
        let granted = self.kv.donate_bytes(bytes.min(max_donation));
        self.donated_bytes += granted;
        granted
    }

    fn reclaim(&mut self, bytes: u64) {
        // Whole blocks only, so `donated_bytes` stays a block multiple and
        // a partial reclaim loses no capacity.
        let block = self.kv.block_bytes();
        let bytes = bytes.min(self.donated_bytes) / block * block;
        self.kv.reclaim_bytes(bytes);
        self.donated_bytes -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::ShedReason;
    use aqua_models::zoo;
    use aqua_sim::time::SimDuration;

    fn engine(policy: PolicyKind, pool_blocks: u64) -> GatewayEngine {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let pool = geom.kv_bytes_per_token() * DEFAULT_BLOCK_TOKENS * pool_blocks;
        GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            policy,
            GatewayConfig {
                kv_pool_bytes: pool,
                ..GatewayConfig::default()
            },
        )
    }

    /// The paper's vLLM baseline with a `pool_bytes` KV pool.
    fn vllm_engine(pool_bytes: u64) -> GatewayEngine {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                kv_pool_bytes: pool_bytes,
                ..GatewayConfig::vllm()
            },
        )
    }

    /// A Mistral-7B KV pool of `blocks` blocks.
    fn pool_of_blocks(blocks: u64) -> u64 {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        geom.kv_bytes_per_token() * DEFAULT_BLOCK_TOKENS * blocks
    }

    fn run_to_completion(e: &mut GatewayEngine) -> SimTime {
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while e.has_work() {
            now = e.step(now);
            guard += 1;
            assert!(guard < 1_000_000, "gateway failed to make progress");
        }
        now
    }

    /// The request fates a journal holds, in journal order: each fate
    /// event's name and request id, with the shed reason or missed
    /// deadline where the event carries one.
    fn fates(journal: &aqua_telemetry::JournalTracer) -> Vec<(&'static str, u64, String)> {
        journal
            .events()
            .iter()
            .filter_map(|ev| {
                let (request, label) = match ev {
                    TraceEvent::RequestShed {
                        request, reason, ..
                    } => (*request, reason.clone()),
                    TraceEvent::RequestTimedOut {
                        request, deadline, ..
                    } => (*request, deadline.clone()),
                    TraceEvent::GatewayCompleted { request, .. }
                    | TraceEvent::RequestCrashAborted { request, .. }
                    | TraceEvent::RequestRetried { request, .. } => (*request, String::new()),
                    _ => return None,
                };
                Some((ev.name(), request, label))
            })
            .collect()
    }

    /// Asserts that every outcome count equals its tally in the journal
    /// and that each of `submitted` requests landed in exactly one
    /// terminal count.
    fn assert_counts_match_journal(
        e: &GatewayEngine,
        journal: &aqua_telemetry::JournalTracer,
        submitted: usize,
    ) {
        let fates = fates(journal);
        let tally = |name: &str| fates.iter().filter(|f| f.0 == name).count();
        let o = e.outcomes();
        assert_eq!(o.shed(), tally("request_shed"));
        assert_eq!(o.timed_out(), tally("request_timed_out"));
        assert_eq!(o.total_retries(), tally("request_crash_aborted") as u64);
        assert_eq!(
            o.crash_aborted(),
            tally("request_crash_aborted") - tally("request_retried")
        );
        assert_eq!(o.completed(), tally("gateway_completed"));
        assert_eq!(
            o.completed() + o.shed() + o.timed_out() + o.crash_aborted(),
            submitted
        );
    }

    #[test]
    fn single_request_streams_every_token() {
        let mut e = engine(PolicyKind::Fcfs, 2000);
        e.submit(InferenceRequest::text(0, 256, 32), SimTime::ZERO);
        run_to_completion(&mut e);
        let streams = e.drain_streams();
        assert_eq!(streams.len(), 1);
        let s = &streams.streams()[0];
        assert_eq!(s.tokens.len(), 32);
        assert!(s.ttft().unwrap() > 0.0);
        assert!(s.tokens.gaps().all(|gap| gap > SimDuration::ZERO));
        assert_eq!(records(&streams).len(), 1);
        assert_eq!(e.kv().used_blocks(), 0);
    }

    #[test]
    fn sjf_admits_short_job_first_under_contention() {
        // Pool fits one sequence at a time: the admission order is the
        // completion order.
        let run = |policy: PolicyKind| -> Vec<u64> {
            let geom = *zoo::mistral_7b().llm_geometry().unwrap();
            let pool = geom.kv_bytes_per_token() * 16 * 80; // 1280 tokens
            let mut e = GatewayEngine::new(
                geom,
                GpuSpec::a100_80g(),
                policy,
                GatewayConfig {
                    kv_pool_bytes: pool,
                    ..GatewayConfig::default()
                },
            );
            e.submit(InferenceRequest::text(0, 900, 100), SimTime::ZERO);
            e.submit(InferenceRequest::text(1, 900, 10), SimTime::ZERO);
            run_to_completion(&mut e);
            e.drain_completions().iter().map(|r| r.id).collect()
        };
        assert_eq!(run(PolicyKind::Fcfs), vec![0, 1], "fcfs serves in order");
        assert_eq!(run(PolicyKind::Sjf), vec![1, 0], "sjf serves short first");
    }

    #[test]
    fn tenant_cap_limits_concurrent_admissions() {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                max_outstanding_per_tenant: 1,
                ..GatewayConfig::default()
            },
        );
        for i in 0..3 {
            e.submit(InferenceRequest::text(i, 64, 8), SimTime::ZERO);
        }
        e.step(SimTime::ZERO);
        assert_eq!(e.running_count(), 1, "cap of 1 admits one at a time");
        assert_eq!(e.queue_depth(), 2);
        run_to_completion(&mut e);
        assert_eq!(e.drain_completions().len(), 3, "nothing is dropped");
    }

    #[test]
    fn tenants_with_free_slots_bypass_a_capped_tenant() {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                max_outstanding_per_tenant: 1,
                ..GatewayConfig::default()
            },
        );
        for (i, tenant) in [0, 0, 1].into_iter().enumerate() {
            let req = InferenceRequest {
                tenant,
                ..InferenceRequest::text(i as u64, 64, 8)
            };
            e.submit(req, SimTime::ZERO);
        }
        e.step(SimTime::ZERO);
        // Tenant 0's second request is capped, but tenant 1's runs.
        assert_eq!(e.running_count(), 2);
        run_to_completion(&mut e);
        assert_eq!(e.drain_completions().len(), 3);
    }

    /// `with_tenants` only checks: a map that disagrees with a request's
    /// own tenant trips it in a debug build.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the tenant map says otherwise")]
    fn a_tenant_map_that_disagrees_with_the_request_panics() {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig::default(),
        )
        .with_tenants(BTreeMap::from([(0, 1)]));
        e.submit(InferenceRequest::text(0, 64, 8), SimTime::ZERO);
    }

    #[test]
    fn preemption_under_pressure_completes_everything() {
        let mut e = engine(PolicyKind::SjfBucket, 40); // 640 tokens
        e.submit(InferenceRequest::text(0, 256, 200), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 256, 200), SimTime::ZERO);
        run_to_completion(&mut e);
        let streams = e.drain_streams();
        assert_eq!(records(&streams).len(), 2);
        assert!(e.preemptions() > 0, "expected KV pressure");
        assert!(streams.streams().iter().all(|s| s.tokens.len() == 200));
    }

    #[test]
    fn swap_preemption_moves_bytes_through_offloader() {
        use aqua_engines::offload::DramOffloader;
        use aqua_sim::gpu::GpuId;
        use aqua_sim::topology::ServerTopology;
        use aqua_sim::transfer::TransferEngine;
        use std::cell::RefCell;
        use std::rc::Rc;

        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                kv_pool_bytes: geom.kv_bytes_per_token() * 16 * 40,
                preemption: PreemptionPolicy::Swap,
                ..GatewayConfig::default()
            },
        )
        .with_offloader(Box::new(DramOffloader::pinned(&server, GpuId(0), xfer)));
        e.submit(InferenceRequest::text(0, 256, 200), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 256, 200), SimTime::ZERO);
        run_to_completion(&mut e);
        assert_eq!(e.drain_completions().len(), 2);
        assert!(e.preemptions() > 0);
        assert!(e.swapped_bytes_total() > 0, "swap path exercised");
    }

    #[test]
    fn oversized_head_does_not_stall_admissible_work() {
        // FCFS head can never fit; the idle-engine skip must let the small
        // request through (and has_work must agree).
        let mut e = engine(PolicyKind::Fcfs, 40); // 640 tokens
        e.submit(InferenceRequest::text(0, 10_000, 5), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 64, 8), SimTime::ZERO);
        assert!(e.has_work());
        run_to_completion(&mut e);
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 1, "only the admissible request completes");
        assert_eq!(recs[0].id, 1);
        assert!(!e.has_work(), "the oversized request can never be admitted");
    }

    #[test]
    fn traced_gateway_journals_the_request_lifecycle() {
        use aqua_telemetry::JournalTracer;
        use std::sync::Arc;

        let journal = Arc::new(JournalTracer::new());
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Sjf,
            GatewayConfig::default(),
        )
        .with_tracer(journal.clone(), "gw:test");
        e.submit(InferenceRequest::text(7, 128, 4), SimTime::ZERO);
        run_to_completion(&mut e);

        let events = journal.events();
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        for expected in [
            "gateway_enqueued",
            "request_scheduled",
            "first_token_emitted",
            "gateway_completed",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::RequestScheduled { policy, request, .. }
                if policy == "sjf" && *request == 7
        )));
        // Lifecycle events serialize canonically.
        for e in &events {
            assert!(aqua_telemetry::json::parse(&e.to_json_line()).is_ok());
        }
    }

    #[test]
    fn queue_watermark_sheds_at_the_door() {
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                overload: OverloadPolicy {
                    queue_watermark: Some(1),
                    kv_commit_bytes: None,
                    brownout: None,
                },
                ..GatewayConfig::default()
            },
        )
        .with_tracer(journal.clone(), "gw:shed");
        for i in 0..3 {
            e.submit(InferenceRequest::text(i, 64, 8), SimTime::ZERO);
        }
        assert_eq!(e.queue_depth(), 1, "watermark of 1 accepts one");
        run_to_completion(&mut e);
        let streams = e.drain_streams();
        assert_eq!(records(&streams).len(), 1);
        assert_eq!(e.outcomes().completed(), 1);
        assert_eq!(e.outcomes().shed(), 2);
        let shed = ShedReason::QueueDepth.label().to_owned();
        assert_eq!(
            fates(&journal),
            [
                ("request_shed", 1, shed.clone()),
                ("request_shed", 2, shed),
                ("gateway_completed", 0, String::new()),
            ]
        );
        assert_counts_match_journal(&e, &journal, 3);
        assert_eq!(streams.len(), 1, "shed requests have no stream");
    }

    #[test]
    fn kv_cost_budget_sheds_expensive_requests() {
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let budget = geom.kv_bytes(200);
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                overload: OverloadPolicy {
                    queue_watermark: None,
                    kv_commit_bytes: Some(budget),
                    brownout: None,
                },
                ..GatewayConfig::default()
            },
        )
        .with_tracer(journal.clone(), "gw:kv");
        e.submit(InferenceRequest::text(0, 64, 8), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 1000, 100), SimTime::ZERO);
        let shed = ("request_shed", 1, ShedReason::KvCost.label().to_owned());
        assert_eq!(fates(&journal), std::slice::from_ref(&shed));
        let done_at = run_to_completion(&mut e);
        // The commitment estimate is released on completion: a request
        // that would have blown the budget earlier is now accepted.
        e.submit(InferenceRequest::text(2, 64, 8), done_at);
        assert_eq!(e.outcomes().shed(), 1, "accepted after books drained");
        run_to_completion(&mut e);
        assert_eq!(e.outcomes().completed(), 2);
        assert_eq!(
            fates(&journal),
            [
                shed,
                ("gateway_completed", 0, String::new()),
                ("gateway_completed", 2, String::new()),
            ]
        );
        assert_counts_match_journal(&e, &journal, 3);
    }

    #[test]
    fn ttft_deadline_times_out_queued_work() {
        use crate::outcome::{SloPolicy, TenantSlo};
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                max_outstanding_per_tenant: 1,
                slo: SloPolicy::with_default(TenantSlo {
                    ttft: Some(SimDuration::from_secs(1)),
                    total: None,
                }),
                ..GatewayConfig::default()
            },
        )
        .with_tracer(journal.clone(), "gw:slo");
        // Tenant cap 1: request 1 waits behind request 0, whose multi-second
        // decode blows request 1's one-second TTFT deadline in the queue.
        e.submit(InferenceRequest::text(0, 256, 400), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 256, 400), SimTime::ZERO);
        run_to_completion(&mut e);
        assert_eq!(e.drain_completions().len(), 1);
        assert_eq!(e.outcomes().completed(), 1);
        assert_eq!(e.outcomes().timed_out(), 1);
        assert_eq!(
            fates(&journal),
            [
                (
                    "request_timed_out",
                    1,
                    DeadlineKind::Ttft.label().to_owned()
                ),
                ("gateway_completed", 0, String::new()),
            ]
        );
        assert_counts_match_journal(&e, &journal, 2);
        assert_eq!(e.kv().used_blocks(), 0, "cancelled work freed its KV");
        assert!(!e.has_work());
    }

    /// Queued requests that miss their deadlines in one step time out in
    /// the order they entered the queue, whatever the admission order: a
    /// preempted request re-enters at the back although it arrived first,
    /// and fresh requests keep their submission order across tenants.
    #[test]
    fn same_step_timeouts_journal_in_queue_entry_order() {
        use crate::outcome::{SloPolicy, TenantSlo};
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                kv_pool_bytes: pool_of_blocks(2),
                slo: SloPolicy::with_default(TenantSlo::interactive(
                    SimDuration::from_secs(10),
                    SimDuration::from_secs(10),
                )),
                ..GatewayConfig::default()
            },
        )
        .with_tracer(journal.clone(), "gw:order");
        // Request 0 takes both blocks; the fresh requests (tenant 2, then
        // 1, then 2) queue behind it, each too big for what is left.
        e.submit(InferenceRequest::text(0, 20, 100), SimTime::ZERO);
        let mut now = e.step(SimTime::ZERO);
        for (id, tenant) in [(1, 2), (2, 1), (3, 2)] {
            e.submit(
                InferenceRequest {
                    tenant,
                    ..InferenceRequest::text(id, 20, 100)
                },
                now,
            );
        }
        // Request 0 fills its blocks and is preempted to the back.
        while e.preemptions() == 0 {
            now = e.step(now);
        }
        assert_eq!((e.running_count(), e.queue_depth()), (0, 4));
        e.step(SimTime::from_secs(100));
        let timed_out: Vec<(u64, String)> = fates(&journal)
            .into_iter()
            .filter(|f| f.0 == "request_timed_out")
            .map(|(_, id, kind)| (id, kind))
            .collect();
        let (ttft, total) = (DeadlineKind::Ttft.label(), DeadlineKind::Total.label());
        assert_eq!(
            timed_out,
            [(1, ttft), (2, ttft), (3, ttft), (0, total)].map(|(id, k)| (id, k.to_owned()))
        );
        assert_eq!(e.queue_depth(), 0);
        assert_counts_match_journal(&e, &journal, 4);
    }

    #[test]
    fn crash_recovery_retries_and_restores() {
        use aqua_engines::driver::Driver;
        use aqua_sim::audit::Auditor;
        use aqua_telemetry::JournalTracer;
        use std::sync::Arc;

        let journal = Arc::new(JournalTracer::new());
        let auditor = Auditor::with_tracer(journal.clone());
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let plan =
            FaultPlan::new().gpu_crash(GpuId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig::default(),
        )
        .with_tracer(journal.clone(), "gw:crash")
        .with_fault_plan(&plan, GpuId(0))
        .with_auditor(auditor.clone());

        let mut driver = Driver::new();
        driver.crash_window(0, SimTime::from_secs(1), SimTime::from_secs(2));
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 256, 400));
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
            driver.run(&mut engines, SimTime::from_secs(10_000));
        }
        let streams = e.drain_streams();
        assert_eq!(records(&streams).len(), 1, "the request survives the crash");
        assert_eq!(streams.streams()[0].tokens.len(), 400, "no truncation");
        assert_eq!(e.outcomes().completed(), 1);
        assert!(e.outcomes().total_retries() >= 1);
        assert_eq!(
            fates(&journal).last(),
            Some(&("gateway_completed", 0, String::new()))
        );
        assert_counts_match_journal(&e, &journal, 1);

        let names: Vec<&str> = journal.events().iter().map(|ev| ev.name()).collect();
        for expected in [
            "request_crash_aborted",
            "request_retried",
            "request_restored",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert!(journal.events().iter().any(|ev| matches!(
            ev,
            TraceEvent::RequestRestored { mode, .. } if mode == "recompute"
        )));
        assert!(auditor.is_clean(), "restore events satisfy the invariant");
    }

    /// The retry budget: a request aborted by `MAX_RETRIES` GPU crashes
    /// still completes, and one aborted once more ends crash-aborted, with
    /// every abort counted as a retry. Either way each count equals its
    /// journal tally.
    #[test]
    fn retry_budget_bounds_crash_aborts() {
        use aqua_engines::driver::Driver;
        use aqua_telemetry::JournalTracer;

        for crashes in [MAX_RETRIES, MAX_RETRIES + 1] {
            // Four seconds apart, so each crash finds the request readmitted
            // after its backoff (at most two seconds here).
            let windows: Vec<(SimTime, SimTime)> = (0..u64::from(crashes))
                .map(|k| (SimTime::from_secs(1 + 4 * k), SimTime::from_secs(2 + 4 * k)))
                .collect();
            let plan = (windows.iter()).fold(FaultPlan::new(), |plan, &(start, end)| {
                plan.gpu_crash(GpuId(0), start, end)
            });
            let journal = Arc::new(JournalTracer::new());
            let mut e = vllm_engine(gib(20))
                .with_tracer(journal.clone(), "gw:retry")
                .with_fault_plan(&plan, GpuId(0));
            let mut driver = Driver::new();
            for &(start, end) in &windows {
                driver.crash_window(0, start, end);
            }
            driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 64, 10_000));
            driver.run(&mut [&mut e as &mut dyn Engine], SimTime::from_secs(10_000));
            let aborted = crashes > MAX_RETRIES;
            let o = e.outcomes();
            assert_eq!(o.total_retries(), u64::from(crashes), "{crashes} crashes");
            assert_eq!(o.crash_aborted(), usize::from(aborted), "{crashes} crashes");
            assert_eq!(o.completed(), usize::from(!aborted), "{crashes} crashes");
            assert_counts_match_journal(&e, &journal, 1);
            assert!(!e.has_work());
        }
    }

    #[test]
    fn planted_skip_restore_trips_the_audit() {
        use aqua_engines::driver::Driver;
        use aqua_sim::audit::Auditor;

        let auditor = Auditor::collecting();
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let plan =
            FaultPlan::new().gpu_crash(GpuId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                plant_skip_restore: true,
                ..GatewayConfig::default()
            },
        )
        .with_fault_plan(&plan, GpuId(0))
        .with_auditor(auditor.clone());

        let mut driver = Driver::new();
        driver.crash_window(0, SimTime::from_secs(1), SimTime::from_secs(2));
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 256, 400));
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
            driver.run(&mut engines, SimTime::from_secs(10_000));
        }
        assert!(!auditor.is_clean(), "the planted bug must be caught");
        assert_eq!(auditor.first().unwrap().kind(), "token_without_restore");
        // The plant only skips the restore journal entry — serving itself
        // still completes, which is exactly why the invariant is needed.
        assert_eq!(e.drain_completions().len(), 1);
    }

    #[test]
    fn a_blocked_head_admits_a_backoff_once_it_falls_due() {
        // After a crash, request 0 waits out its retry backoff while
        // request 1 decodes and request 2 (larger than the pool) blocks
        // the queue, so every round in between admits nothing. The round
        // at which the backoff falls due must readmit request 0.
        let plan =
            FaultPlan::new().gpu_crash(GpuId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        let mut e = engine(PolicyKind::Fcfs, 512).with_fault_plan(&plan, GpuId(0));
        e.submit(InferenceRequest::text(0, 100, 10_000), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(1) {
            now = e.step(now);
        }
        let crash = now;
        e.submit(InferenceRequest::text(1, 100, 100_000), now);
        e.submit(InferenceRequest::text(2, 512 * 16, 10), now);
        now = e.step(now);
        assert_eq!((e.running_count(), e.queue_depth()), (1, 2));
        assert!(e.admit_is_noop(), "the blocked head stops admission");
        let due = crash + RETRY_BACKOFF.backoff_for(1);
        while now < due {
            now = e.step(now);
            assert_eq!(e.running_count(), 1, "request 0 is still backing off");
        }
        e.step(now);
        assert_eq!((e.running_count(), e.queue_depth()), (2, 1));
    }

    #[test]
    fn single_request_completes_with_sane_latency() {
        let mut e = vllm_engine(gib(40));
        e.submit(InferenceRequest::text(0, 256, 64), SimTime::ZERO);
        run_to_completion(&mut e);
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.output_tokens, 64);
        // TTFT: prefill + one decode step, tens of ms.
        assert!(r.ttft() > 0.005 && r.ttft() < 0.5, "ttft = {}", r.ttft());
        // 64 tokens at roughly 7-10 ms/token.
        assert!(r.rct() > 0.3 && r.rct() < 2.0, "rct = {}", r.rct());
        assert_eq!(e.kv().used_blocks(), 0, "kv released after completion");
    }

    #[test]
    fn batch_improves_aggregate_throughput() {
        let mut single = vllm_engine(gib(40));
        single.submit(InferenceRequest::text(0, 128, 100), SimTime::ZERO);
        let t_single = run_to_completion(&mut single);

        let mut batched = vllm_engine(gib(40));
        for i in 0..16 {
            batched.submit(InferenceRequest::text(i, 128, 100), SimTime::ZERO);
        }
        let t_batch = run_to_completion(&mut batched);
        // 16 requests take far less than 16x one request's time.
        assert!(
            t_batch.as_secs_f64() < 4.0 * t_single.as_secs_f64(),
            "batch {t_batch} vs single {t_single}"
        );
        assert_eq!(batched.drain_completions().len(), 16);
    }

    #[test]
    fn admission_control_queues_when_pool_full() {
        // Fits one 1000-token context but not two.
        let mut e = vllm_engine(pool_of_blocks(80)); // 1280 tokens
        e.submit(InferenceRequest::text(0, 1000, 50), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 1000, 50), SimTime::ZERO);
        e.step(SimTime::ZERO);
        assert_eq!(e.running_count(), 1, "second request must queue");
        assert_eq!(e.queue_depth(), 1);
        run_to_completion(&mut e);
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 2);
        // The queued request's TTFT includes the first one's entire run.
        let ttfts: Vec<f64> = recs.iter().map(|r| r.ttft()).collect();
        let max_ttft = ttfts.iter().cloned().fold(0.0, f64::max);
        let min_ttft = ttfts.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max_ttft > 3.0 * min_ttft,
            "queued TTFT should spike: {ttfts:?}"
        );
    }

    #[test]
    fn preemption_recovers_from_kv_exhaustion() {
        // 640 tokens: two sequences of 256 + 200 = 456 tokens each need
        // 912, so one is preempted mid-decode.
        let mut e = vllm_engine(pool_of_blocks(40));
        e.submit(InferenceRequest::text(0, 256, 200), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 256, 200), SimTime::ZERO);
        run_to_completion(&mut e);
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 2, "both must eventually finish");
        assert!(e.preemptions() > 0, "expected at least one preemption");
        assert!(recs.iter().all(|r| r.output_tokens == 200));
    }

    #[test]
    fn donation_respects_floor_and_usage() {
        let mut e = vllm_engine(gib(20));
        e.submit(InferenceRequest::text(0, 512, 4), SimTime::ZERO);
        e.step(SimTime::ZERO);
        let used = e.kv().used_bytes();
        let granted = e.donate(gib(100));
        assert!(granted > 0);
        // The floor and the current usage are both retained.
        assert!(e.kv().capacity_bytes() >= DONATION_FLOOR_BYTES.max(used));
        assert_eq!(e.stats().donated_bytes, granted);
        e.reclaim(granted);
        assert_eq!(e.donated_bytes(), 0);
        assert_eq!(e.kv().capacity_bytes(), gib(20));
    }

    #[test]
    fn reclaim_is_capped_at_donated() {
        let mut e = vllm_engine(gib(20));
        assert_eq!(e.donate(gib(2)), gib(2));
        e.reclaim(gib(50));
        assert_eq!(e.donated_bytes(), 0);
        assert_eq!(e.kv().capacity_bytes(), gib(20));
    }

    #[test]
    fn a_parked_retry_keeps_an_emptied_batch_working() {
        use aqua_engines::driver::Driver;

        // The crash parks request 0 on its 500 ms backoff in the step that
        // admits request 1 (held while the GPU was down), and request 1
        // finishes before the backoff ends: the empty batch still has work.
        let plan =
            FaultPlan::new().gpu_crash(GpuId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        let mut e = vllm_engine(gib(20)).with_fault_plan(&plan, GpuId(0));
        let mut driver = Driver::new();
        driver.crash_window(0, SimTime::from_secs(1), SimTime::from_secs(2));
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 256, 10_000));
        driver.schedule_arrival(
            0,
            SimTime::from_millis(1_500),
            InferenceRequest::text(1, 64, 2),
        );
        driver.run(&mut [&mut e as &mut dyn Engine], SimTime::from_secs(10_000));
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 2, "the retry completes");
        assert!(recs[0].id == 1 && recs[0].completion < SimTime::from_millis(2_500));
    }

    #[test]
    fn every_call_with_a_time_brings_the_order_up_to_it() {
        // SJF+aging behind a donated pool: A (45,000-token prompt, one
        // output token) is first under SJF but fits only once the donation
        // returns; B arrived earlier, so once both have waited 60 s the
        // FCFS order puts B, which fits, first.
        let queued = || {
            let mut e = GatewayEngine::new(
                *zoo::mistral_7b().llm_geometry().unwrap(),
                GpuSpec::a100_80g(),
                PolicyKind::SjfAging,
                GatewayConfig {
                    kv_pool_bytes: gib(6),
                    ..GatewayConfig::vllm()
                },
            );
            assert_eq!(e.donate(gib(1)), gib(1));
            e.submit(InferenceRequest::text(0, 100, 1_000), SimTime::ZERO); // B
            e.submit(
                InferenceRequest::text(1, 45_000, 1),
                SimTime::from_millis(500),
            ); // A
            assert!(!e.has_work(), "SJF puts A first");
            e
        };
        let at = SimTime::from_secs(61);
        let mut e = queued();
        e.tick(at);
        assert!(e.has_work(), "a tick applies the promotions");
        let mut e = queued();
        e.submit(InferenceRequest::text(2, 100_000, 1), at);
        assert!(e.has_work(), "so does a submit");
        let mut e = queued();
        e.step(at);
        let admitted: Vec<u64> = e.running.iter().map(|s| s.life.req.id.0).collect();
        assert_eq!(admitted, [0], "and a step admits in the promoted order");
    }

    #[test]
    fn a_due_retry_that_fits_only_undonated_is_no_work() {
        // The crash parks request 0; the step that finds nothing to admit
        // returns its backoff deadline and brings the order up to it, so
        // once 1 GiB is donated the retry (45,001 tokens of context in a
        // 40,960-token pool) blocks instead of counting as parked work.
        let plan =
            FaultPlan::new().gpu_crash(GpuId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        let mut e = vllm_engine(gib(6)).with_fault_plan(&plan, GpuId(0));
        e.submit(InferenceRequest::text(0, 45_000, 10_000), SimTime::ZERO);
        let end = e.step(SimTime::ZERO);
        assert!(
            end > SimTime::from_secs(1),
            "the prefill outlasts the crash"
        );
        let resume = e.step(end);
        assert_eq!(resume, end + RETRY_BACKOFF.backoff_for(1));
        assert_eq!(e.donate(gib(1)), gib(1));
        assert!(
            !e.has_work(),
            "the due retry fits only once the donation returns"
        );
        e.reclaim(gib(1));
        assert!(e.has_work());
        e.step(resume);
        assert_eq!(e.running_count(), 1);
    }

    #[test]
    fn has_work_reads_the_order_promoted_during_a_step() {
        // 6 GiB pool with 1 GiB donated: 40,960 tokens now, 49,152 once
        // reclaimed. At 59 s SJF admits C; D, which does not fit beside C,
        // ends the round ahead of B. C's prefill carries the step past
        // 60.5 s, where every request has waited 60 s and the order turns
        // FCFS: A, which fits only once the donation returns, is first.
        let mut e = GatewayEngine::new(
            *zoo::mistral_7b().llm_geometry().unwrap(),
            GpuSpec::a100_80g(),
            PolicyKind::SjfAging,
            GatewayConfig {
                kv_pool_bytes: gib(6),
                ..GatewayConfig::vllm()
            },
        );
        assert_eq!(e.donate(gib(1)), gib(1));
        e.submit(InferenceRequest::text(0, 45_000, 1_000), SimTime::ZERO); // A
        e.submit(InferenceRequest::text(1, 30_000, 2), SimTime::ZERO); // D
        e.submit(InferenceRequest::text(2, 30_000, 1), SimTime::ZERO); // C
        e.submit(InferenceRequest::text(3, 100, 5), SimTime::from_millis(500)); // B
        let end = e.step(SimTime::from_secs(59));
        assert!(end > SimTime::from_millis(60_500), "{end}");
        assert_eq!((e.running_count(), e.queue_depth()), (0, 3));
        assert!(!e.has_work(), "the promoted head blocks until the reclaim");
        e.step(end);
        assert_eq!(e.running_count(), 0, "and the next step admits nothing");
        e.reclaim(gib(1));
        assert!(e.has_work());
        e.step(end);
        assert_eq!(e.running_count(), 1, "A first, then nothing fits beside it");
    }

    #[test]
    fn donated_pool_counts_a_parked_retry_as_work() {
        use aqua_engines::driver::Driver;

        // The crash parks the request on a retry backoff; with memory
        // donated, `has_work` must still wake the engine to promote it.
        let plan =
            FaultPlan::new().gpu_crash(GpuId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        let mut e = vllm_engine(gib(20)).with_fault_plan(&plan, GpuId(0));
        assert_eq!(e.donate(gib(2)), gib(2));
        let mut driver = Driver::new();
        driver.crash_window(0, SimTime::from_secs(1), SimTime::from_secs(2));
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 256, 400));
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
            driver.run(&mut engines, SimTime::from_secs(10_000));
        }
        assert!(e.outcomes().total_retries() >= 1);
        assert_eq!(e.drain_completions().len(), 1, "the retry completes");
    }

    #[test]
    fn partial_reclaim_keeps_whole_blocks() {
        let mut e = vllm_engine(gib(20));
        let block = e.kv().block_bytes();
        assert_eq!(e.donate(gib(2)), gib(2));
        e.reclaim(block + block / 2);
        assert_eq!(e.donated_bytes(), gib(2) - block);
        assert_eq!(e.kv().capacity_bytes(), gib(18) + block);
        e.reclaim(gib(2));
        assert_eq!(e.donated_bytes(), 0);
        assert_eq!(e.kv().capacity_bytes(), gib(20));
    }

    #[test]
    fn donated_pool_blocks_a_head_until_reclaim() {
        // 6 GiB pool, 1 GiB donated: the 45k-token head fits the undonated
        // 49,152 tokens but not the 40,960 left, so the idle engine blocks
        // on it (vLLM's head-of-line rule) instead of skipping it for the
        // small request behind it.
        let mut e = vllm_engine(gib(6));
        assert_eq!(e.donate(gib(1)), gib(1));
        e.submit(InferenceRequest::text(0, 45_000, 4), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 64, 4), SimTime::ZERO);
        assert!(
            !e.has_work(),
            "the head fits only once the donation returns"
        );
        let now = e.step(SimTime::ZERO);
        assert_eq!(e.running_count(), 0);
        assert_eq!(e.queue_depth(), 2);
        e.reclaim(gib(1));
        assert!(e.has_work());
        e.step(now);
        assert_eq!(e.running_count(), 2, "the head is admitted, then the rest");
        run_to_completion(&mut e);
        assert_eq!(e.drain_completions().len(), 2);
        assert_eq!(e.kv().used_blocks(), 0);
    }

    #[test]
    fn donated_pool_still_skips_a_head_that_can_never_fit() {
        // 60k tokens exceed even the undonated 49,152, so the idle engine
        // skips that head and admits the small request behind it.
        let mut e = vllm_engine(gib(6));
        assert_eq!(e.donate(gib(1)), gib(1));
        e.submit(InferenceRequest::text(0, 60_000, 4), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 64, 4), SimTime::ZERO);
        assert!(e.has_work());
        run_to_completion(&mut e);
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, 1);
        assert_eq!(e.queue_depth(), 1, "the oversized request stays queued");
    }

    #[test]
    fn informer_runs_on_ticks_and_its_resume_delays_the_step() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// Counts its calls and reports a resume time one second out, the
        /// way a blocking reclaim does.
        struct Pause(Rc<Cell<u32>>);
        impl Informer for Pause {
            fn control(&mut self, engine: &mut dyn MemoryElastic, now: SimTime) -> SimTime {
                assert_eq!(engine.stats().donated_bytes, 0);
                self.0.set(self.0.get() + 1);
                now + aqua_sim::time::SimDuration::from_secs(1)
            }
        }

        let calls = Rc::new(Cell::new(0));
        let mut e = vllm_engine(gib(20)).with_informer(Box::new(Pause(calls.clone())));
        e.tick(SimTime::ZERO);
        assert_eq!(calls.get(), 1, "idle ticks run the informer");
        e.submit(InferenceRequest::text(0, 64, 1), SimTime::ZERO);
        let end = e.step(SimTime::ZERO);
        assert_eq!(calls.get(), 2, "every step runs the informer first");
        let rec = &e.drain_completions()[0];
        assert!(
            end > SimTime::from_secs(1),
            "compute starts after the pause"
        );
        assert_eq!(rec.first_token, end);
    }

    #[test]
    fn lora_cache_hits_and_misses() {
        let mut e = GatewayEngine::new(
            *zoo::mistral_7b().llm_geometry().unwrap(),
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                lora_cache_slots: 2,
                ..GatewayConfig::vllm()
            },
        )
        .with_adapters(LoraAdapter::zephyr().synthesize_pool(3));
        e.submit(InferenceRequest::with_adapter(0, 64, 4, 0), SimTime::ZERO);
        run_to_completion(&mut e);
        let later = SimTime::from_secs(10);
        e.submit(InferenceRequest::with_adapter(1, 64, 4, 0), later);
        let mut now = later;
        while e.has_work() {
            now = e.step(now);
        }
        let (hits, misses) = e.lora_cache_stats();
        assert_eq!(misses, 1, "first use misses");
        assert!(hits >= 1, "second request reuses the cached adapter");
    }

    #[test]
    #[should_panic(expected = "unknown adapter")]
    fn lora_request_needs_an_adapter_pool() {
        let mut e = vllm_engine(gib(20));
        e.submit(InferenceRequest::with_adapter(0, 64, 4, 0), SimTime::ZERO);
    }

    #[test]
    fn max_loras_gates_admission_head_of_line() {
        // Two slots: a batch may reference at most two distinct adapters,
        // so the third adapter's request waits, and so does the request
        // behind it, although its adapter is already in the batch.
        let mut e = GatewayEngine::new(
            *zoo::mistral_7b().llm_geometry().unwrap(),
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                lora_cache_slots: 2,
                ..GatewayConfig::vllm()
            },
        )
        .with_adapters(LoraAdapter::zephyr().synthesize_pool(3));
        for (id, adapter) in [(0, 0), (1, 1), (2, 2), (3, 0)] {
            e.submit(
                InferenceRequest::with_adapter(id, 64, 16, adapter),
                SimTime::ZERO,
            );
        }
        e.step(SimTime::ZERO);
        assert_eq!(e.running_count(), 2);
        assert_eq!(e.queue_depth(), 2);
        run_to_completion(&mut e);
        assert_eq!(e.drain_completions().len(), 4);
        let (hits, misses) = e.lora_cache_stats();
        assert_eq!(misses, 3, "each adapter loads once");
        assert!(hits > 0);
    }

    #[test]
    fn swap_preemption_avoids_recompute() {
        use aqua_engines::offload::DramOffloader;
        use aqua_sim::topology::ServerTopology;
        use aqua_sim::transfer::TransferEngine;
        use std::cell::RefCell;
        use std::rc::Rc;

        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let run = |policy: PreemptionPolicy| -> (SimTime, u64) {
            let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
            let xfer = Rc::new(RefCell::new(TransferEngine::new()));
            let mut e = GatewayEngine::new(
                geom,
                GpuSpec::a100_80g(),
                PolicyKind::Fcfs,
                GatewayConfig {
                    kv_pool_bytes: pool_of_blocks(40), // 640 tokens
                    preemption: policy,
                    ..GatewayConfig::vllm()
                },
            )
            .with_offloader(Box::new(DramOffloader::pinned(&server, GpuId(0), xfer)));
            e.submit(InferenceRequest::text(0, 256, 200), SimTime::ZERO);
            e.submit(InferenceRequest::text(1, 256, 200), SimTime::ZERO);
            let end = run_to_completion(&mut e);
            assert_eq!(e.drain_completions().len(), 2);
            (end, e.preemptions())
        };
        let (t_recompute, p1) = run(PreemptionPolicy::Recompute);
        let (t_swap, p2) = run(PreemptionPolicy::Swap);
        assert!(p1 > 0 && p2 > 0, "both must hit KV pressure");
        // Mistral's GQA KV is tiny (0.125 MB/token): swapping ~450 tokens is
        // far cheaper than re-prefilling them.
        assert!(
            t_swap < t_recompute,
            "swap {t_swap} should beat recompute {t_recompute}"
        );
    }

    #[test]
    fn traced_engine_journals_admissions_and_preemptions() {
        use aqua_telemetry::JournalTracer;
        use std::sync::Arc;

        let journal = Arc::new(JournalTracer::new());
        let mut e = vllm_engine(pool_of_blocks(40)).with_tracer(journal.clone(), "vllm:test");
        e.submit(InferenceRequest::text(0, 256, 200), SimTime::ZERO);
        e.submit(InferenceRequest::text(1, 256, 200), SimTime::ZERO);
        run_to_completion(&mut e);

        let events = journal.events();
        let admissions = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RequestScheduled { gateway, .. } if gateway == "vllm:test"))
            .count() as u64;
        let preempted = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RequestPreempted { engine, policy, .. } if engine == "vllm:test" && policy == "recompute"))
            .count() as u64;
        assert!(preempted > 0);
        assert_eq!(preempted, e.preemptions());
        // Each request is admitted once, and again after each preemption.
        assert_eq!(admissions, 2 + preempted);
        // The replayed levels peak at both requests running and end empty.
        let levels = aqua_telemetry::levels::gateway_levels(&events);
        assert_eq!(levels.iter().map(|l| l.running).max(), Some(2));
        let last = levels.last().expect("the gateway journalled its edges");
        assert_eq!((last.queue_depth, last.running), (0, 0));
    }

    /// Every stream's delivery times are the clock entries of its runs, in
    /// strictly increasing order.
    fn assert_runs_read_the_clock(e: &GatewayEngine, streams: &StreamLog) {
        for s in streams.streams() {
            let from_clock: Vec<SimTime> = s
                .tokens
                .runs()
                .iter()
                .flat_map(|r| r.first as usize..(r.first + r.count) as usize)
                .map(|i| e.clock().get(i))
                .collect();
            assert_eq!(s.tokens.iter().collect::<Vec<_>>(), from_clock);
            assert!(s.tokens.gaps().all(|gap| gap > SimDuration::ZERO));
        }
    }

    /// The run count of each drained stream, by request id.
    fn runs_by_id(streams: &StreamLog) -> BTreeMap<u64, usize> {
        streams
            .streams()
            .iter()
            .map(|s| (s.id, s.tokens.runs().len()))
            .collect()
    }

    #[test]
    fn a_stream_is_one_run_per_batch_residency() {
        use aqua_engines::driver::Driver;
        use aqua_engines::offload::DramOffloader;
        use aqua_sim::topology::ServerTopology;
        use aqua_sim::transfer::TransferEngine;
        use std::cell::RefCell;
        use std::rc::Rc;

        // A straight request stays in the batch from admission to
        // completion.
        let mut e = vllm_engine(gib(20));
        e.submit(InferenceRequest::text(0, 64, 40), SimTime::ZERO);
        run_to_completion(&mut e);
        let streams = e.drain_streams();
        assert_eq!(runs_by_id(&streams), BTreeMap::from([(0, 1)]));
        assert_runs_read_the_clock(&e, &streams);

        // 640 tokens: two sequences of 256 + 200 = 456 tokens each need
        // 912, so the younger is preempted once and resumes after the
        // older completes, under either preemption policy.
        for policy in [PreemptionPolicy::Swap, PreemptionPolicy::Recompute] {
            let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
            let xfer = Rc::new(RefCell::new(TransferEngine::new()));
            let mut e = GatewayEngine::new(
                *zoo::mistral_7b().llm_geometry().unwrap(),
                GpuSpec::a100_80g(),
                PolicyKind::Fcfs,
                GatewayConfig {
                    kv_pool_bytes: pool_of_blocks(40),
                    preemption: policy,
                    ..GatewayConfig::vllm()
                },
            )
            .with_offloader(Box::new(DramOffloader::pinned(&server, GpuId(0), xfer)));
            e.submit(InferenceRequest::text(0, 256, 200), SimTime::ZERO);
            e.submit(InferenceRequest::text(1, 256, 200), SimTime::ZERO);
            run_to_completion(&mut e);
            assert_eq!(e.preemptions(), 1, "{policy:?}");
            let streams = e.drain_streams();
            assert_eq!(runs_by_id(&streams), BTreeMap::from([(0, 1), (1, 2)]));
            assert!(streams.streams().iter().all(|s| s.tokens.len() == 200));
            assert_runs_read_the_clock(&e, &streams);
        }

        // Each GPU crash aborts the running request; each retry resumes
        // it in a new run.
        let plan = FaultPlan::new()
            .gpu_crash(GpuId(0), SimTime::from_secs(1), SimTime::from_secs(2))
            .gpu_crash(GpuId(0), SimTime::from_secs(4), SimTime::from_secs(5));
        let mut e = vllm_engine(gib(20)).with_fault_plan(&plan, GpuId(0));
        let mut driver = Driver::new();
        driver.crash_window(0, SimTime::from_secs(1), SimTime::from_secs(2));
        driver.crash_window(0, SimTime::from_secs(4), SimTime::from_secs(5));
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 64, 1_000));
        driver.run(&mut [&mut e as &mut dyn Engine], SimTime::from_secs(10_000));
        assert_eq!(e.outcomes().total_retries(), 2);
        let streams = e.drain_streams();
        assert_eq!(runs_by_id(&streams), BTreeMap::from([(0, 3)]));
        assert_eq!(streams.streams()[0].tokens.len(), 1_000);
        assert_runs_read_the_clock(&e, &streams);
    }

    /// The two drains empty one completion log: after swap preemption,
    /// recompute preemption and crash retries, whichever drain runs first
    /// hands out every completed request and leaves the other empty, and
    /// the records are those of the streams. A drained log keeps its times
    /// while the gateway serves on and forgets them.
    #[test]
    fn each_completion_is_drained_once() {
        use aqua_engines::driver::Driver;
        use aqua_engines::offload::DramOffloader;
        use aqua_sim::topology::ServerTopology;
        use aqua_sim::transfer::TransferEngine;
        use std::cell::RefCell;
        use std::rc::Rc;

        fn served(case: usize) -> GatewayEngine {
            if case < 2 {
                let policy = [PreemptionPolicy::Swap, PreemptionPolicy::Recompute][case];
                let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
                let xfer = Rc::new(RefCell::new(TransferEngine::new()));
                let mut e = GatewayEngine::new(
                    *zoo::mistral_7b().llm_geometry().unwrap(),
                    GpuSpec::a100_80g(),
                    PolicyKind::Fcfs,
                    GatewayConfig {
                        kv_pool_bytes: pool_of_blocks(40),
                        preemption: policy,
                        ..GatewayConfig::vllm()
                    },
                )
                .with_offloader(Box::new(DramOffloader::pinned(
                    &server,
                    GpuId(0),
                    xfer,
                )));
                e.submit(InferenceRequest::text(0, 256, 200), SimTime::ZERO);
                e.submit(InferenceRequest::text(1, 256, 200), SimTime::ZERO);
                run_to_completion(&mut e);
                assert_eq!(e.preemptions(), 1, "{policy:?}");
                e
            } else {
                let plan = FaultPlan::new()
                    .gpu_crash(GpuId(0), SimTime::from_secs(1), SimTime::from_secs(2))
                    .gpu_crash(GpuId(0), SimTime::from_secs(4), SimTime::from_secs(5));
                let mut e = vllm_engine(gib(20)).with_fault_plan(&plan, GpuId(0));
                let mut driver = Driver::new();
                driver.crash_window(0, SimTime::from_secs(1), SimTime::from_secs(2));
                driver.crash_window(0, SimTime::from_secs(4), SimTime::from_secs(5));
                driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 64, 1_000));
                driver.run(&mut [&mut e as &mut dyn Engine], SimTime::from_secs(10_000));
                assert_eq!(e.outcomes().total_retries(), 2);
                e
            }
        }

        for (case, completed) in [(0, 2), (1, 2), (2, 1)] {
            let mut e = served(case);
            let streams = e.drain_streams();
            assert_eq!(streams.len(), completed, "case {case}");
            assert!(e.drain_completions().is_empty(), "case {case}");
            assert!(e.drain_streams().is_empty(), "case {case}");

            let mut twin = served(case);
            let recs = twin.drain_completions();
            assert_eq!(recs, records(&streams), "case {case}");
            assert!(twin.drain_streams().is_empty(), "case {case}");
            assert!(twin.drain_completions().is_empty(), "case {case}");

            // Serving on while the drained log lives appends to a copy of
            // the clock; the next drain holds only the new request.
            let end = streams
                .streams()
                .iter()
                .filter_map(|s| s.completion())
                .max()
                .unwrap();
            let end_index = e.clock().len();
            e.submit(InferenceRequest::text(9, 64, 8), end);
            let mut now = end;
            while e.has_work() {
                now = e.step(now);
            }
            // The gateway forgot every entry the drained log reads, while
            // the log keeps its own clock.
            assert_eq!(
                e.clock().len() - e.clock().retained(),
                end_index,
                "case {case}"
            );
            assert_eq!(records(&streams), recs, "case {case}");
            let later = e.drain_completions();
            assert_eq!(
                later.iter().map(|r| r.id).collect::<Vec<_>>(),
                [9],
                "case {case}"
            );
            assert!(e.drain_streams().is_empty(), "case {case}");
        }
    }

    /// One stream, owned: id, tenant, arrival and every token time.
    type OwnedStream = (u64, u32, SimTime, Vec<SimTime>);

    /// A gateway drained every `every` steps. Every other drained log is
    /// kept until the next drain, so the next iteration takes back a copy
    /// of the clock; the others are dropped at once, so it takes back the
    /// clock itself. Either way it then forgets below the pin.
    struct Draining {
        inner: GatewayEngine,
        every: u64,
        steps: u64,
        kept: Option<StreamLog>,
        streams: Vec<OwnedStream>,
    }

    impl Draining {
        fn drain(&mut self) {
            let log = self.inner.drain_streams();
            self.assert_pin_counts();
            self.streams.extend(
                log.streams()
                    .iter()
                    .map(|s| (s.id, s.tenant, s.arrival, s.tokens.iter().collect())),
            );
            self.kept = if self.kept.is_none() { Some(log) } else { None };
        }

        fn assert_pin_counts(&self) {
            assert_eq!(
                self.inner.first_runs,
                self.inner.recount_first_runs(),
                "the pin's multiset is what a recount of the sequences finds"
            );
        }
    }

    impl Engine for Draining {
        fn submit(&mut self, req: InferenceRequest, now: SimTime) {
            self.inner.submit(req, now);
        }
        fn has_work(&self) -> bool {
            self.inner.has_work()
        }
        fn step(&mut self, now: SimTime) -> SimTime {
            let done = self.inner.step(now);
            self.assert_pin_counts();
            self.steps += 1;
            if self.steps.is_multiple_of(self.every) {
                self.drain();
            }
            done
        }
        fn tick(&mut self, now: SimTime) {
            self.inner.tick(now);
        }
        fn idle_tick_is_noop(&self) -> bool {
            self.inner.idle_tick_is_noop()
        }
        fn drain_completions(&mut self) -> Vec<RequestRecord> {
            self.inner.drain_completions()
        }
    }

    /// Serves two requests of 128 + 592 and 128 + 400 tokens at t = 0,
    /// then `requests` drawn `(gap in 100 ms, prompt in 64-token units,
    /// output in 16-token units)`, on a 60-block swap-preempting gateway
    /// (too small for the first two together) whose GPU crashes over
    /// [3 s, 4 s) while the first request still decodes, and a last
    /// request of 64 + 384 tokens 60 s after the others; drains every
    /// `every` steps and once at the end.
    fn served_draining(requests: &[(u64, u64, u64)], every: u64) -> Draining {
        use aqua_engines::driver::Driver;
        use aqua_engines::offload::DramOffloader;
        use aqua_sim::topology::ServerTopology;
        use aqua_sim::transfer::TransferEngine;
        use std::cell::RefCell;
        use std::rc::Rc;

        let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        let xfer = Rc::new(RefCell::new(TransferEngine::new()));
        let (crash, healed) = (SimTime::from_secs(3), SimTime::from_secs(4));
        let plan = FaultPlan::new().gpu_crash(GpuId(0), crash, healed);
        let inner = GatewayEngine::new(
            *zoo::mistral_7b().llm_geometry().unwrap(),
            GpuSpec::a100_80g(),
            PolicyKind::Fcfs,
            GatewayConfig {
                kv_pool_bytes: pool_of_blocks(60),
                preemption: PreemptionPolicy::Swap,
                ..GatewayConfig::vllm()
            },
        )
        .with_offloader(Box::new(DramOffloader::pinned(&server, GpuId(0), xfer)))
        .with_fault_plan(&plan, GpuId(0));
        let mut driver = Driver::new();
        driver.crash_window(0, crash, healed);
        let mut at = SimTime::ZERO;
        let trace: Vec<_> = (0u64..)
            .zip(
                [(0, 2, 37), (0, 2, 25)]
                    .iter()
                    .chain(requests)
                    .chain([&(600, 1, 24)]),
            )
            .map(|(id, &(gap, prompt, output))| {
                at += SimDuration::from_millis(100 * gap);
                (at, InferenceRequest::text(id, 64 * prompt, 16 * output))
            })
            .collect();
        driver.schedule_trace(0, trace);
        let mut e = Draining {
            inner,
            every,
            steps: 0,
            kept: None,
            streams: Vec::new(),
        };
        driver.run(&mut [&mut e as &mut dyn Engine], SimTime::from_secs(10_000));
        e.drain();
        e
    }

    aqua_sim::check! {
        #![cases(48)]
        /// A gateway drained every `k` steps, under swap preemption, a GPU
        /// crash and its retries, hands out exactly the streams one final
        /// drain does, in the same order: ids, tenants, arrivals and every
        /// token time. Between drains it forgets the clock entries below
        /// the pin, and the pin's multiset always matches a recount.
        #[test]
        fn draining_every_k_steps_yields_the_final_drain(
            k in 1u64..64,
            requests in aqua_sim::check::vec((0u64..12, 1u64..6, 1u64..24), 4..16)
        ) {
            let once = served_draining(&requests, u64::MAX);
            assert_eq!(once.streams.len(), requests.len() + 3, "every request completes");
            assert!(once.inner.outcomes().total_retries() > 0, "the crash hit a request");
            assert!(once.inner.preemptions() > 0, "the pool preempts");
            let clock = once.inner.clock();
            assert_eq!(clock.retained(), clock.len(), "a gateway drained once never forgets");
            let often = served_draining(&requests, k);
            assert_eq!(often.streams, once.streams);
            assert_eq!(often.inner.preemptions(), once.inner.preemptions());
            let clock = often.inner.clock();
            assert_eq!(clock.len(), once.inner.clock().len());
            assert!(clock.retained() < clock.len(), "a gateway drained every {k} steps forgets");
        }
    }

    #[test]
    #[should_panic(expected = "past declared output")]
    fn token_past_declared_output_is_a_bug() {
        let mut e = vllm_engine(gib(20));
        e.submit(InferenceRequest::text(0, 64, 3), SimTime::ZERO);
        let now = e.step(SimTime::ZERO);
        // A declared output cut below what decode has delivered: the next
        // token is one past it.
        e.running[0].life.req.output_tokens = 1;
        e.step(now);
    }

    #[test]
    fn aging_promotion_admits_the_starved_job_under_donation() {
        // 6 GiB pool with 1 GiB donated leaves 40,960 tokens: one 30,000-
        // token short job fits beside the 1,000-token long job, but two
        // short jobs never fit together. A short job arrives every second
        // for two minutes, so under SJF the long job (tenant 1) waits
        // behind them until its 60 s promotion, and a blocked short head
        // stops admission across that instant.
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut e = GatewayEngine::new(
            geom,
            GpuSpec::a100_80g(),
            PolicyKind::SjfAging,
            GatewayConfig {
                kv_pool_bytes: gib(6),
                max_outstanding_per_tenant: 2,
                ..GatewayConfig::default()
            },
        );
        assert_eq!(e.donate(gib(1)), gib(1));
        let mut arrivals: Vec<(SimTime, InferenceRequest)> = (1..=120)
            .map(|i| {
                let at = SimTime::from_secs(i - 1);
                (at, InferenceRequest::text(i, 30_000, 20))
            })
            .collect();
        // The long job arrives while the first short one is prefilling.
        let long_at = SimTime::from_millis(500);
        let long = InferenceRequest {
            tenant: 1,
            ..InferenceRequest::text(0, 1_000, 3_000)
        };
        arrivals.insert(1, (long_at, long));
        let mut arrivals = VecDeque::from(arrivals);
        let mut now = SimTime::ZERO;
        loop {
            while let Some((at, req)) = arrivals.pop_front() {
                if at > now {
                    arrivals.push_front((at, req));
                    break;
                }
                e.submit(req, at);
            }
            if e.has_work() {
                now = e.step(now).max(now + SimDuration::from_millis(1));
            } else if let Some(&(at, _)) = arrivals.front() {
                now = at;
            } else {
                break;
            }
        }
        let recs = records(&e.drain_streams());
        assert_eq!(recs.len(), 121);
        let long = recs.iter().find(|r| r.id == 0).unwrap();
        assert!(
            long.first_token >= long_at + SimDuration::from_secs(60),
            "SJF starves the long job until its promotion: {}",
            long.first_token
        );
        let passed = recs
            .iter()
            .filter(|r| r.arrival > long.arrival && r.first_token > long.first_token)
            .count();
        assert!(
            passed > 0,
            "the promoted job goes ahead of later, shorter ones"
        );
    }

    #[test]
    fn has_work_false_when_nothing_fits() {
        let mut e = vllm_engine(pool_of_blocks(4)); // 64 tokens
        e.submit(InferenceRequest::text(0, 10_000, 5), SimTime::ZERO);
        assert!(!e.has_work(), "oversized prompt can never be admitted");
    }

    aqua_sim::check! {
        #![cases(16)]

        // Liveness across the whole policy zoo and the vLLM configuration
        // (FCFS, no tenant cap), under both preemption policies, with and
        // without an offloader (Swap without one falls back to recompute;
        // the vLLM configuration always has one): every admissible request
        // completes with its exact token count and the pool drains.
        #[test]
        fn gateway_liveness_across_policies(
            reqs in aqua_sim::check::vec((1u64..400, 1u64..60, 0u64..8), 1..12),
            policy_idx in 0usize..5,
            swap in aqua_sim::check::AnyBool,
            vllm in aqua_sim::check::AnyBool,
            offload in aqua_sim::check::AnyBool,
        ) {
            use aqua_engines::driver::Driver;
            use aqua_engines::offload::DramOffloader;
            use aqua_sim::topology::ServerTopology;
            use aqua_sim::transfer::TransferEngine;
            use std::cell::RefCell;
            use std::rc::Rc;

            let (policy, base) = if vllm {
                (PolicyKind::Fcfs, GatewayConfig::vllm())
            } else {
                let capped = GatewayConfig {
                    max_outstanding_per_tenant: 3,
                    ..GatewayConfig::default()
                };
                (PolicyKind::ALL[policy_idx], capped)
            };
            let geom = *zoo::mistral_7b().llm_geometry().unwrap();
            let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
            let xfer = Rc::new(RefCell::new(TransferEngine::new()));
            let mut e = GatewayEngine::new(
                geom,
                GpuSpec::a100_80g(),
                policy,
                GatewayConfig {
                    kv_pool_bytes: pool_of_blocks(60),
                    preemption: if swap { PreemptionPolicy::Swap } else { PreemptionPolicy::Recompute },
                    ..base
                },
            );
            if offload || vllm {
                e = e.with_offloader(Box::new(DramOffloader::pinned(&server, GpuId(0), xfer)));
            }
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
            assert!(!e.has_work());
            let streams = e.drain_streams();
            let recs = records(&streams);
            assert_eq!(recs.len(), reqs.len());
            assert!(recs.iter().all(|r| r.first_token >= r.arrival));
            assert_eq!(streams.len(), reqs.len());
            for s in streams.streams() {
                let (_, output, _) = reqs[s.id as usize];
                assert_eq!(s.tokens.len() as u64, output.max(1));
                assert!(s.tokens.gaps().all(|gap| gap > SimDuration::ZERO));
            }
            assert_eq!(e.kv().used_blocks(), 0);
        }

        // `has_work` is exactly "the batch is non-empty, or the next step
        // admits something" under random submits, steps, donations and
        // reclaims, for every policy. A non-empty batch decodes, or
        // preempts when a donation took its headroom (as in vLLM). Prompts
        // span never-fitting (> 8 GiB of KV), fits-only-undonated and
        // small.
        #[test]
        fn has_work_matches_next_step_progress(
            ops in aqua_sim::check::vec((0u8..4, 1u64..80_000), 1..60),
            policy_idx in 0usize..5,
        ) {
            let geom = *zoo::mistral_7b().llm_geometry().unwrap();
            let mut e = GatewayEngine::new(
                geom,
                GpuSpec::a100_80g(),
                PolicyKind::ALL[policy_idx],
                GatewayConfig {
                    kv_pool_bytes: gib(8),
                    ..GatewayConfig::vllm()
                },
            );
            let mut now = SimTime::ZERO;
            let mut next_id = 0;
            for (op, arg) in ops {
                match op {
                    0 => {
                        let prompt = if arg % 2 == 0 { arg } else { arg % 512 + 1 };
                        e.submit(InferenceRequest::text(next_id, prompt, arg % 7 + 1), now);
                        next_id += 1;
                    }
                    1 => {
                        let expected = e.has_work();
                        let busy = e.running_count() > 0;
                        now = e.step(now);
                        let finished = !e.drain_completions().is_empty();
                        assert_eq!(
                            expected,
                            busy || e.running_count() > 0 || finished
                        );
                    }
                    2 => {
                        e.donate(geom.kv_bytes(arg));
                    }
                    _ => e.reclaim(geom.kv_bytes(arg)),
                }
            }
        }
    }
}
