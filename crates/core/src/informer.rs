//! Producer-side control loops (§B.1).
//!
//! "To demonstrate the versatility of the policy framework, we … implemented
//! *batch-informer* for image, audio models and *llm-informer* for LLMs."
//!
//! * [`BatchInformer`] — image/audio engines serve requests as they arrive
//!   at a fixed plateau batch, so after each batch the informer "gets an
//!   accurate measure of free memory and donates it".
//! * [`LlmInformer`] — an LLM is a producer only while its traffic is low.
//!   The informer watches the pending-request queue over a window: below
//!   the low-water mark it donates everything above the engine's retain
//!   floor; at the high-water mark it starts the reclaim protocol and
//!   *pauses the engine* until the consumer has released the memory
//!   (Figure 11's reclaim pause).

use crate::coordinator::{Coordinator, GpuRef, ReclaimStatus};
use aqua_engines::northbound::{Informer, MemoryElastic};
use aqua_sim::time::SimTime;
use aqua_telemetry::{null_tracer, trace, SharedTracer, TraceEvent};
use std::collections::VecDeque;
use std::rc::Rc;

/// Minimum donation worth registering (avoids churning tiny leases).
const MIN_DONATION_BYTES: u64 = 512 * 1024 * 1024;

/// Donates a producer's measured free memory after each batch.
///
/// # Example
///
/// ```
/// use aqua_core::coordinator::{Coordinator, GpuRef};
/// use aqua_core::informer::BatchInformer;
/// use aqua_engines::northbound::{Informer, MemoryElastic};
/// use aqua_engines::producer::{ProducerEngine, ProducerModel};
/// use aqua_models::zoo;
/// use aqua_sim::gpu::{GpuId, GpuSpec};
/// use aqua_sim::time::SimTime;
/// use std::rc::Rc;
///
/// let coord = Rc::new(Coordinator::new());
/// let sd = zoo::stable_diffusion();
/// let mut engine = ProducerEngine::new(
///     ProducerModel::Diffusion(*sd.diffusion_geometry().unwrap()),
///     GpuSpec::a100_80g(), 8);
/// let mut informer = BatchInformer::new(GpuRef::single(GpuId(1)), Rc::clone(&coord));
/// informer.control(&mut engine, SimTime::ZERO);
/// assert!(coord.leased_bytes() > 40 << 30); // tens of GB donated
/// ```
#[derive(Debug)]
pub struct BatchInformer {
    link: Link,
}

impl BatchInformer {
    /// Creates a batch informer for the producer at `gpu`.
    pub fn new(gpu: GpuRef, coordinator: Rc<Coordinator>) -> Self {
        BatchInformer {
            link: Link::new(gpu, coordinator),
        }
    }

    /// Attaches a tracer; donations show up as [`TraceEvent::Donated`] +
    /// [`TraceEvent::LeaseGranted`] pairs.
    pub fn with_tracer(mut self, tracer: SharedTracer) -> Self {
        self.link.tracer = tracer;
        self
    }
}

impl Informer for BatchInformer {
    fn control(&mut self, engine: &mut dyn MemoryElastic, now: SimTime) -> SimTime {
        if self.link.check_in(engine, now).is_none() {
            return now;
        }
        let stats = engine.stats();
        if stats.donatable_bytes >= MIN_DONATION_BYTES {
            let granted = engine.donate(stats.donatable_bytes);
            if granted > 0 {
                let lease = self.link.coordinator.lease(self.link.gpu, granted);
                self.link.tracer.incr("informer.donations", 1);
                trace!(
                    self.link.tracer,
                    TraceEvent::Donated {
                        gpu: self.link.gpu.to_string(),
                        bytes: granted,
                        at: now,
                    }
                );
                trace!(
                    self.link.tracer,
                    TraceEvent::LeaseGranted {
                        producer: self.link.gpu.to_string(),
                        lease: lease.id(),
                        bytes: granted,
                        at: now,
                    }
                );
            }
        }
        now
    }
}

/// An informer's line to the coordinator: the producer it speaks for, the
/// coordinator epoch it last synced with, and where it journals.
#[derive(Debug)]
struct Link {
    gpu: GpuRef,
    coordinator: Rc<Coordinator>,
    epoch: u64,
    tracer: SharedTracer,
}

impl Link {
    fn new(gpu: GpuRef, coordinator: Rc<Coordinator>) -> Self {
        let epoch = coordinator.epoch();
        Link {
            gpu,
            coordinator,
            epoch,
            tracer: null_tracer(),
        }
    }

    /// The prologue of every informer's control tick, run before any other
    /// verb: `None` when the tick must end here, otherwise whether the tick
    /// re-registered the donated inventory in a new epoch.
    ///
    /// 1. While the coordinator is unreachable (crashed or partitioned
    ///    away) every control verb would just time out. The producer keeps
    ///    serving autonomously and retries at the next tick.
    /// 2. Epoch fence: a bumped epoch means the coordinator crashed and
    ///    lost the lease book. The full donated inventory is re-registered
    ///    first — a pre-crash heartbeat or free would bounce off the fence,
    ///    and skipping the resync would make a same-epoch revocation path
    ///    reclaim bytes a consumer may still hold.
    /// 3. The heartbeat proves the producer alive to the coordinator's
    ///    failure detector.
    fn check_in(&mut self, engine: &dyn MemoryElastic, now: SimTime) -> Option<bool> {
        if !self.coordinator.reachable(self.gpu.gpu, now) {
            self.tracer.incr("informer.unreachable_ticks", 1);
            return None;
        }
        let current = self.coordinator.epoch();
        let mut resynced = false;
        if current != self.epoch {
            let donated = engine.stats().donated_bytes;
            if donated > 0 {
                // An error means the coordinator crashed again (or is still
                // rebuilding): keep the old epoch and retry at the next tick.
                let lease = self
                    .coordinator
                    .resync_report(self.gpu, donated, current, now)
                    .ok()?;
                resynced = true;
                self.tracer.incr("informer.epoch_resyncs", 1);
                trace!(
                    self.tracer,
                    TraceEvent::InformerDecision {
                        gpu: self.gpu.to_string(),
                        decision: format!(
                            "resync-epoch epoch={current} lease={} bytes={donated}",
                            lease.id(),
                        ),
                        at: now,
                    }
                );
            }
            self.epoch = current;
        }
        // This bounces only while the process is down (a resync that landed
        // proves it up); the next tick retries.
        self.coordinator.heartbeat(self.gpu, now, self.epoch).ok()?;
        Some(resynced)
    }
}

/// Configuration of an [`LlmInformer`].
#[derive(Debug, Clone)]
pub struct LlmInformerConfig {
    /// Number of recent `inform_stats` samples in the decision window.
    pub window: usize,
    /// Donate when every sample in the window has at most this many pending
    /// requests.
    pub low_pending: usize,
    /// Start reclaiming when pending requests reach this level.
    pub high_pending: usize,
}

impl Default for LlmInformerConfig {
    fn default() -> Self {
        LlmInformerConfig {
            window: 5,
            low_pending: 1,
            high_pending: 8,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LlmState {
    Normal,
    Reclaiming,
}

/// Queue-depth-driven donate/reclaim loop for LLM producers.
#[derive(Debug)]
pub struct LlmInformer {
    link: Link,
    config: LlmInformerConfig,
    history: VecDeque<usize>,
    state: LlmState,
    reclaims_started: u64,
}

impl LlmInformer {
    /// Creates an informer for the LLM producer at `gpu`.
    pub fn new(gpu: GpuRef, coordinator: Rc<Coordinator>, config: LlmInformerConfig) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(
            config.low_pending < config.high_pending,
            "low-water mark must be below high-water mark"
        );
        LlmInformer {
            link: Link::new(gpu, coordinator),
            config,
            history: VecDeque::new(),
            state: LlmState::Normal,
            reclaims_started: 0,
        }
    }

    /// Attaches a tracer; the donate/reclaim state machine becomes visible as
    /// [`TraceEvent::InformerDecision`] events plus the memory events they
    /// cause.
    pub fn with_tracer(mut self, tracer: SharedTracer) -> Self {
        self.link.tracer = tracer;
        self
    }

    /// Number of reclaim cycles initiated.
    #[cfg(test)]
    fn reclaims_started(&self) -> u64 {
        self.reclaims_started
    }
}

impl Informer for LlmInformer {
    fn control(&mut self, engine: &mut dyn MemoryElastic, now: SimTime) -> SimTime {
        match self.link.check_in(engine, now) {
            None => return now,
            // The quiet history predates the crash.
            Some(true) => self.history.clear(),
            Some(false) => {}
        }
        let stats = engine.stats();
        match self.state {
            LlmState::Normal => {
                // Resync: leases the coordinator revoked (expiry, forced
                // revocation) are memory the engine believes is donated but
                // nobody will ever release. Take it back immediately.
                let live = self.link.coordinator.live_lease_bytes(self.link.gpu);
                if stats.donated_bytes > live {
                    let lost = stats.donated_bytes - live;
                    engine.reclaim(lost);
                    // The quiet history predates the outage (no ticks ran
                    // while the producer was dark); demand a fresh quiet
                    // window before donating again.
                    self.history.clear();
                    self.link.tracer.incr("informer.resyncs", 1);
                    trace!(
                        self.link.tracer,
                        TraceEvent::InformerDecision {
                            gpu: self.link.gpu.to_string(),
                            decision: format!("resync-revoked bytes={lost}"),
                            at: now,
                        }
                    );
                }
                // The resync may have changed the engine's books.
                let stats = engine.stats();
                self.history.push_back(stats.pending_requests);
                while self.history.len() > self.config.window {
                    self.history.pop_front();
                }
                if stats.pending_requests >= self.config.high_pending && stats.donated_bytes > 0 {
                    // Queue build-up: take the memory back (timestamped, so
                    // the reclaim deadline arms right now).
                    self.link.coordinator.reclaim_request(self.link.gpu, now);
                    self.state = LlmState::Reclaiming;
                    self.reclaims_started += 1;
                    self.link.tracer.incr("informer.reclaims", 1);
                    trace!(
                        self.link.tracer,
                        TraceEvent::InformerDecision {
                            gpu: self.link.gpu.to_string(),
                            decision: format!("reclaim-start pending={}", stats.pending_requests),
                            at: now,
                        }
                    );
                    trace!(
                        self.link.tracer,
                        TraceEvent::ReclaimRequested {
                            producer: self.link.gpu.to_string(),
                            at: now,
                        }
                    );
                    return now;
                }
                let quiet = self.history.len() == self.config.window
                    && self.history.iter().all(|&p| p <= self.config.low_pending);
                if quiet && stats.donatable_bytes >= MIN_DONATION_BYTES {
                    let granted = engine.donate(stats.donatable_bytes);
                    if granted > 0 {
                        let lease = self.link.coordinator.lease(self.link.gpu, granted);
                        self.link.tracer.incr("informer.donations", 1);
                        trace!(
                            self.link.tracer,
                            TraceEvent::InformerDecision {
                                gpu: self.link.gpu.to_string(),
                                decision: format!("donate bytes={granted}"),
                                at: now,
                            }
                        );
                        trace!(
                            self.link.tracer,
                            TraceEvent::Donated {
                                gpu: self.link.gpu.to_string(),
                                bytes: granted,
                                at: now,
                            }
                        );
                        trace!(
                            self.link.tracer,
                            TraceEvent::LeaseGranted {
                                producer: self.link.gpu.to_string(),
                                lease: lease.id(),
                                bytes: granted,
                                at: now,
                            }
                        );
                    }
                }
                now
            }
            LlmState::Reclaiming => match self.link.coordinator.reclaim_status(self.link.gpu) {
                ReclaimStatus::Pending => now,
                ReclaimStatus::Released { bytes, at } => {
                    engine.reclaim(bytes);
                    self.state = LlmState::Normal;
                    self.history.clear();
                    // The engine was effectively paused while its memory was
                    // being released (Figure 11).
                    let resume = at.max(now);
                    trace!(
                        self.link.tracer,
                        TraceEvent::Reclaimed {
                            gpu: self.link.gpu.to_string(),
                            bytes,
                            at: resume,
                        }
                    );
                    trace!(
                        self.link.tracer,
                        TraceEvent::InformerDecision {
                            gpu: self.link.gpu.to_string(),
                            decision: format!("resume bytes={bytes}"),
                            at: resume,
                        }
                    );
                    resume
                }
                ReclaimStatus::None => {
                    self.state = LlmState::Normal;
                    self.history.clear();
                    now
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_engines::northbound::EngineStats;
    use aqua_engines::producer::{ProducerEngine, ProducerModel};
    use aqua_sim::gpu::{GpuId, GpuSpec};
    use aqua_sim::link::bytes::gib;
    use std::sync::Arc;

    /// Scripted engine for exercising informer state machines.
    struct FakeEngine {
        pending: usize,
        donatable: u64,
        donated: u64,
    }

    impl MemoryElastic for FakeEngine {
        fn stats(&self) -> EngineStats {
            EngineStats {
                pending_requests: self.pending,
                running_requests: 0,
                context_used_bytes: 0,
                context_reserved_bytes: gib(40),
                donatable_bytes: self.donatable,
                donated_bytes: self.donated,
            }
        }
        fn donate(&mut self, bytes: u64) -> u64 {
            let granted = bytes.min(self.donatable);
            self.donatable -= granted;
            self.donated += granted;
            granted
        }
        fn reclaim(&mut self, bytes: u64) {
            let back = bytes.min(self.donated);
            self.donated -= back;
            self.donatable += back;
        }
    }

    fn producer() -> GpuRef {
        GpuRef::single(GpuId(1))
    }

    #[test]
    fn llm_informer_donates_after_quiet_window() {
        let coord = Rc::new(Coordinator::new());
        let mut inf = LlmInformer::new(producer(), Rc::clone(&coord), LlmInformerConfig::default());
        let mut eng = FakeEngine {
            pending: 0,
            donatable: gib(30),
            donated: 0,
        };
        // Needs a full quiet window before donating.
        for i in 0..4 {
            inf.control(&mut eng, SimTime::from_secs(i));
            assert_eq!(coord.leased_bytes(), 0, "no donation before window fills");
        }
        inf.control(&mut eng, SimTime::from_secs(4));
        assert_eq!(coord.leased_bytes(), gib(30));
        assert_eq!(eng.donated, gib(30));
    }

    #[test]
    fn llm_informer_reclaims_on_burst_and_pauses_until_release() {
        let coord = Rc::new(Coordinator::new());
        let consumer = GpuRef::single(GpuId(0));
        let mut inf = LlmInformer::new(producer(), Rc::clone(&coord), LlmInformerConfig::default());
        let mut eng = FakeEngine {
            pending: 0,
            donatable: gib(30),
            donated: 0,
        };
        for i in 0..5 {
            inf.control(&mut eng, SimTime::from_secs(i));
        }
        let lease_used = match coord.allocate(consumer, gib(10)) {
            crate::coordinator::AllocationSite::Peer { lease, .. } => lease,
            other => panic!("expected peer allocation, got {other:?}"),
        };

        // Burst: queue jumps past the high-water mark.
        eng.pending = 20;
        let t = inf.control(&mut eng, SimTime::from_secs(10));
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(inf.reclaims_started(), 1);

        // Consumer has not released yet: engine stays paused at `now`.
        let t = inf.control(&mut eng, SimTime::from_secs(11));
        assert_eq!(t, SimTime::from_secs(11));
        assert_eq!(eng.donated, gib(30), "memory not yet back");

        // Consumer releases at t=14.
        coord
            .release(lease_used, gib(10), SimTime::from_secs(14))
            .unwrap();
        let resume = inf.control(&mut eng, SimTime::from_secs(12));
        assert_eq!(
            resume,
            SimTime::from_secs(14),
            "resume when bytes have left"
        );
        assert_eq!(eng.donated, 0);
        assert_eq!(eng.donatable, gib(30));
    }

    #[test]
    fn llm_informer_ignores_burst_when_nothing_donated() {
        let coord = Rc::new(Coordinator::new());
        let mut inf = LlmInformer::new(producer(), Rc::clone(&coord), LlmInformerConfig::default());
        let mut eng = FakeEngine {
            pending: 50,
            donatable: gib(30),
            donated: 0,
        };
        inf.control(&mut eng, SimTime::ZERO);
        assert_eq!(inf.reclaims_started(), 0);
    }

    #[test]
    fn batch_informer_donates_immediately() {
        let coord = Rc::new(Coordinator::new());
        let mut inf = BatchInformer::new(producer(), Rc::clone(&coord));
        let mut eng = FakeEngine {
            pending: 3,
            donatable: gib(50),
            donated: 0,
        };
        inf.control(&mut eng, SimTime::ZERO);
        assert_eq!(coord.leased_bytes(), gib(50));
        // Second call: nothing more to donate, lease unchanged.
        inf.control(&mut eng, SimTime::from_secs(1));
        assert_eq!(coord.leased_bytes(), gib(50));
    }

    #[test]
    fn tiny_donations_are_skipped() {
        let coord = Rc::new(Coordinator::new());
        let mut inf = BatchInformer::new(producer(), Rc::clone(&coord));
        let mut eng = FakeEngine {
            pending: 0,
            donatable: MIN_DONATION_BYTES - 1,
            donated: 0,
        };
        inf.control(&mut eng, SimTime::ZERO);
        assert_eq!(coord.leased_bytes(), 0);
    }

    #[test]
    fn traced_informer_journals_donate_and_reclaim_cycle() {
        use aqua_telemetry::{JournalTracer, TraceEvent};

        let coord = Rc::new(Coordinator::new());
        let journal = Arc::new(JournalTracer::new());
        let tracer: aqua_telemetry::SharedTracer = journal.clone();
        let mut inf = LlmInformer::new(producer(), Rc::clone(&coord), LlmInformerConfig::default())
            .with_tracer(tracer);
        let mut eng = FakeEngine {
            pending: 0,
            donatable: gib(30),
            donated: 0,
        };
        for i in 0..5 {
            inf.control(&mut eng, SimTime::from_secs(i));
        }
        let events = journal.events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Donated { bytes, .. } if *bytes == gib(30)
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::LeaseGranted { .. })));

        // Burst → reclaim-start decision + ReclaimRequested.
        eng.pending = 20;
        inf.control(&mut eng, SimTime::from_secs(10));
        let events = journal.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ReclaimRequested { .. })));

        // Nothing was allocated, so the reclaim resolves immediately.
        inf.control(&mut eng, SimTime::from_secs(11));
        let events = journal.events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Reclaimed { bytes, .. } if *bytes == gib(30)
        )));
        assert_eq!(journal.registry().counter("informer.donations"), 1);
        assert_eq!(journal.registry().counter("informer.reclaims"), 1);
    }

    #[test]
    fn informer_heartbeats_every_control_tick() {
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let coord = Rc::new(Coordinator::new());
        coord.set_tracer(journal.clone());
        let mut inf = LlmInformer::new(producer(), Rc::clone(&coord), LlmInformerConfig::default());
        let mut eng = FakeEngine {
            pending: 0,
            donatable: 0,
            donated: 0,
        };
        for i in 0..3 {
            inf.control(&mut eng, SimTime::from_secs(i));
        }
        assert_eq!(journal.registry().counter("coordinator.heartbeat"), 3);
        assert_eq!(journal.len(), 0, "heartbeats are journal-silent");
    }

    #[test]
    fn informer_resyncs_after_its_lease_expires() {
        use crate::coordinator::FailureConfig;
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let coord = Rc::new(Coordinator::new());
        coord.set_failure_config(FailureConfig::chaos());
        let mut inf = LlmInformer::new(producer(), Rc::clone(&coord), LlmInformerConfig::default())
            .with_tracer(journal.clone());
        let mut eng = FakeEngine {
            pending: 0,
            donatable: gib(30),
            donated: 0,
        };
        for i in 0..5 {
            inf.control(&mut eng, SimTime::from_secs(i));
        }
        assert_eq!(eng.donated, gib(30));
        // The producer goes dark (no control ticks, no heartbeats); the
        // coordinator's watchdog expires the lease.
        coord.advance(SimTime::from_secs(5));
        coord.advance(SimTime::from_secs(30));
        assert_eq!(coord.live_lease_bytes(producer()), 0);
        assert_eq!(eng.donated, gib(30), "engine books are now stale");
        // It comes back: the first control tick resyncs the books.
        inf.control(&mut eng, SimTime::from_secs(31));
        assert_eq!(eng.donated, 0);
        assert_eq!(eng.donatable, gib(30), "engine books match the coordinator");
        assert_eq!(journal.registry().counter("informer.resyncs"), 1);
        assert!(journal.events().iter().any(|e| matches!(
            e,
            TraceEvent::InformerDecision { decision, .. } if decision.starts_with("resync-revoked")
        )));
    }

    #[test]
    fn informer_reregisters_inventory_after_a_coordinator_crash() {
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let coord = Rc::new(Coordinator::new());
        let mut inf = LlmInformer::new(producer(), Rc::clone(&coord), LlmInformerConfig::default())
            .with_tracer(journal.clone());
        let mut eng = FakeEngine {
            pending: 0,
            donatable: gib(30),
            donated: 0,
        };
        for i in 0..5 {
            inf.control(&mut eng, SimTime::from_secs(i));
        }
        assert_eq!(coord.live_lease_bytes(producer()), gib(30));

        // Crash wipes the lease book and bumps the epoch.
        coord.crash(SimTime::from_secs(6));
        // A tick while the coordinator is down makes no progress: the resync
        // bounces and the informer must NOT treat the wiped book as a
        // same-epoch revocation (the consumer may still hold those bytes).
        inf.control(&mut eng, SimTime::from_secs(7));
        assert_eq!(eng.donated, gib(30), "no reclaim while the book is lost");
        assert_eq!(journal.registry().counter("informer.epoch_resyncs"), 0);

        // First tick after recovery re-registers the full inventory in the
        // new epoch instead of releasing it.
        coord.recover(SimTime::from_secs(8));
        inf.control(&mut eng, SimTime::from_secs(9));
        assert_eq!(coord.live_lease_bytes(producer()), gib(30));
        assert_eq!(eng.donated, gib(30), "re-homed, not released");
        assert_eq!(journal.registry().counter("informer.epoch_resyncs"), 1);
        assert_eq!(journal.registry().counter("informer.resyncs"), 0);
        assert!(journal.events().iter().any(|e| matches!(
            e,
            TraceEvent::InformerDecision { decision, .. } if decision.starts_with("resync-epoch epoch=2")
        )));
        // And the books audit clean across the crash.
        let auditor = aqua_sim::audit::Auditor::collecting();
        coord.set_auditor(auditor.clone());
        coord.audit_books(SimTime::from_secs(9));
        assert!(auditor.is_clean(), "{:?}", auditor.violations());
    }

    /// A diffusion producer behind a batch informer on GPU 1.
    fn batch_producer(coord: &Rc<Coordinator>) -> (ProducerEngine, BatchInformer) {
        let sd = aqua_models::zoo::stable_diffusion();
        let model = ProducerModel::Diffusion(*sd.diffusion_geometry().unwrap());
        let engine = ProducerEngine::new(model, GpuSpec::a100_80g(), 8);
        (engine, BatchInformer::new(producer(), Rc::clone(coord)))
    }

    #[test]
    fn batch_informer_reregisters_inventory_after_a_coordinator_crash() {
        let coord = Rc::new(Coordinator::new());
        let (mut engine, mut inf) = batch_producer(&coord);
        inf.control(&mut engine, SimTime::ZERO);
        let donated = engine.donated_bytes();
        assert!(donated >= MIN_DONATION_BYTES);
        assert_eq!(coord.live_lease_bytes(producer()), donated);

        coord.crash(SimTime::from_secs(1));
        inf.control(&mut engine, SimTime::from_secs(2));
        assert_eq!(coord.live_lease_bytes(producer()), 0, "the book is lost");
        coord.recover(SimTime::from_secs(3));
        inf.control(&mut engine, SimTime::from_secs(4));
        assert_eq!(coord.live_lease_bytes(producer()), donated);
        assert_eq!(
            engine.donated_bytes(),
            donated,
            "re-homed, not donated twice"
        );
        // Heartbeats in the new epoch land again.
        assert!(coord
            .heartbeat(producer(), SimTime::from_secs(5), inf.link.epoch)
            .is_ok());
    }

    #[test]
    fn batch_informer_skips_control_verbs_while_partitioned() {
        use aqua_sim::fault::FaultPlan;
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let coord = Rc::new(Coordinator::new());
        coord.set_tracer(journal.clone());
        coord.set_fault_plan(Arc::new(FaultPlan::new().partition(
            1,
            SimTime::ZERO,
            SimTime::from_secs(2),
        )));
        let (mut engine, inf) = batch_producer(&coord);
        let mut inf = inf.with_tracer(journal.clone());
        for i in 0..3 {
            inf.control(&mut engine, SimTime::from_secs(i));
        }
        assert_eq!(journal.registry().counter("coordinator.heartbeat"), 1);
        assert_eq!(journal.registry().counter("informer.unreachable_ticks"), 2);
        assert_eq!(coord.live_lease_bytes(producer()), engine.donated_bytes());
        assert!(
            engine.donated_bytes() > 0,
            "donates once the partition heals"
        );
    }

    #[test]
    fn informer_skips_control_verbs_while_partitioned() {
        use aqua_sim::fault::FaultPlan;
        use aqua_telemetry::JournalTracer;

        let journal = Arc::new(JournalTracer::new());
        let coord = Rc::new(Coordinator::new());
        coord.set_tracer(journal.clone());
        // GPUs 1..=3 lose the coordinator between t=2s and t=4s.
        coord.set_fault_plan(Arc::new(FaultPlan::new().partition(
            1,
            SimTime::from_secs(2),
            SimTime::from_secs(4),
        )));
        let mut inf = LlmInformer::new(producer(), Rc::clone(&coord), LlmInformerConfig::default())
            .with_tracer(journal.clone());
        let mut eng = FakeEngine {
            pending: 0,
            donatable: 0,
            donated: 0,
        };
        for i in 0..6 {
            inf.control(&mut eng, SimTime::from_secs(i));
        }
        // Ticks at t=2 and t=3 fall inside the partition window: no
        // heartbeats land, and the informer records the dark ticks.
        assert_eq!(journal.registry().counter("coordinator.heartbeat"), 4);
        assert_eq!(journal.registry().counter("informer.unreachable_ticks"), 2);
    }

    #[test]
    #[should_panic(expected = "low-water mark")]
    fn invalid_config_rejected() {
        LlmInformer::new(
            producer(),
            Rc::new(Coordinator::new()),
            LlmInformerConfig {
                window: 3,
                low_pending: 9,
                high_pending: 4,
            },
        );
    }
}
