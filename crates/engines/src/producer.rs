//! Compute-bound producer engines (image and audio generation).
//!
//! The paper's §2.1 experiment shows diffusion and audio models plateau in
//! throughput with tens of GB of HBM to spare; those GPUs become AQUA's
//! *memory producers*. This engine serves item requests (one image or clip
//! each) in plateau-sized batches, reports donatable memory through the
//! northbound interface, and models the paper's Figure 3b finding: donating
//! memory costs the producer only a small slowdown while NVLink I/O is in
//! flight (< 5%).

use crate::driver::Engine;
use crate::northbound::{EngineStats, Informer, MemoryElastic};
use crate::request::InferenceRequest;
use aqua_metrics::requests::RequestRecord;
use aqua_models::cost;
use aqua_models::geometry::{AudioGeometry, DiffusionGeometry};
use aqua_sim::gpu::GpuSpec;
use aqua_sim::time::SimTime;
use std::collections::VecDeque;

/// Which compute-bound generator a producer hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProducerModel {
    /// Latent-diffusion image generator.
    Diffusion(DiffusionGeometry),
    /// Autoregressive audio generator.
    Audio(AudioGeometry),
}

impl ProducerModel {
    fn batch_time(&self, gpu: &GpuSpec, batch: u64) -> aqua_sim::time::SimDuration {
        match self {
            ProducerModel::Diffusion(g) => cost::diffusion_batch_time(g, gpu, batch),
            ProducerModel::Audio(g) => cost::audio_batch_time(g, gpu, batch),
        }
    }

    fn used_bytes(&self, batch: u64) -> u64 {
        match self {
            ProducerModel::Diffusion(g) => cost::diffusion_used_bytes(g, batch),
            ProducerModel::Audio(g) => cost::audio_used_bytes(g, batch),
        }
    }
}

/// Fractional slowdown applied to producer iterations while its donated
/// memory is in use (Figure 3b measures this effect at < 5%).
pub const SHARING_SLOWDOWN: f64 = 0.03;

/// Batch-serving engine for compute-bound models.
///
/// # Example
///
/// ```
/// use aqua_engines::producer::{ProducerEngine, ProducerModel};
/// use aqua_engines::driver::Engine;
/// use aqua_engines::request::InferenceRequest;
/// use aqua_models::zoo;
/// use aqua_sim::gpu::GpuSpec;
/// use aqua_sim::time::SimTime;
///
/// let sd = zoo::stable_diffusion();
/// let model = ProducerModel::Diffusion(*sd.diffusion_geometry().unwrap());
/// let mut engine = ProducerEngine::new(model, GpuSpec::a100_80g(), 8);
/// engine.submit(InferenceRequest::item(0), SimTime::ZERO);
/// let done = engine.step(SimTime::ZERO);
/// assert!(done.as_secs_f64() > 0.5); // a ~50-step diffusion run
/// ```
pub struct ProducerEngine {
    model: ProducerModel,
    gpu: GpuSpec,
    max_batch: u64,
    waiting: VecDeque<(InferenceRequest, SimTime)>,
    completions: Vec<RequestRecord>,
    informer: Option<Box<dyn Informer>>,
    donated_bytes: u64,
    batches: u64,
    items_served: u64,
}

impl std::fmt::Debug for ProducerEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProducerEngine")
            .field("waiting", &self.waiting.len())
            .field("batches", &self.batches)
            .field("donated_bytes", &self.donated_bytes)
            .finish()
    }
}

impl ProducerEngine {
    /// Creates a producer serving `model` on `gpu` with operating batch size
    /// `max_batch` (pick the Figure 2 plateau batch).
    pub fn new(model: ProducerModel, gpu: GpuSpec, max_batch: u64) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        ProducerEngine {
            model,
            gpu,
            max_batch,
            waiting: VecDeque::new(),
            completions: Vec::new(),
            informer: None,
            donated_bytes: 0,
            batches: 0,
            items_served: 0,
        }
    }

    /// Attaches an AQUA informer (the paper's batch-informer).
    pub fn with_informer(mut self, informer: Box<dyn Informer>) -> Self {
        self.informer = Some(informer);
        self
    }

    /// Bytes currently donated to AQUA.
    pub fn donated_bytes(&self) -> u64 {
        self.donated_bytes
    }

    /// Items (images/clips) generated so far.
    pub fn items_served(&self) -> u64 {
        self.items_served
    }

    /// Batches executed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Free HBM on this GPU at the operating batch, after donations.
    pub fn free_bytes(&self) -> u64 {
        self.gpu
            .hbm_bytes
            .saturating_sub(self.model.used_bytes(self.max_batch))
            .saturating_sub(self.donated_bytes)
    }

    fn run_informer(&mut self, now: SimTime) -> SimTime {
        if let Some(mut informer) = self.informer.take() {
            let resume = informer.control(self, now);
            self.informer = Some(informer);
            resume.max(now)
        } else {
            now
        }
    }
}

impl Engine for ProducerEngine {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.waiting.push_back((req, now));
    }

    fn has_work(&self) -> bool {
        !self.waiting.is_empty()
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        let now = self.run_informer(now);
        let batch = (self.waiting.len() as u64).min(self.max_batch);
        if batch == 0 {
            return now;
        }
        self.batches += 1;
        let mut t = self.model.batch_time(&self.gpu, batch);
        if self.donated_bytes > 0 {
            t = t.mul_f64(1.0 + SHARING_SLOWDOWN);
        }
        let end = now + t;
        for _ in 0..batch {
            let (req, arrival) = self.waiting.pop_front().expect("batch <= len");
            self.items_served += 1;
            self.completions.push(RequestRecord {
                id: req.id.0,
                arrival,
                first_token: end,
                completion: end,
                output_tokens: 1,
            });
        }
        end
    }

    fn tick(&mut self, now: SimTime) {
        let _ = self.run_informer(now);
    }

    fn idle_tick_is_noop(&self) -> bool {
        self.informer.is_none()
    }

    fn drain_completions(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.completions)
    }
}

impl MemoryElastic for ProducerEngine {
    fn stats(&self) -> EngineStats {
        EngineStats {
            pending_requests: self.waiting.len(),
            running_requests: 0,
            context_used_bytes: self.model.used_bytes(self.max_batch),
            context_reserved_bytes: self.gpu.hbm_bytes,
            donatable_bytes: self.free_bytes(),
            donated_bytes: self.donated_bytes,
        }
    }

    fn donate(&mut self, bytes: u64) -> u64 {
        let granted = bytes.min(self.free_bytes());
        self.donated_bytes += granted;
        granted
    }

    fn reclaim(&mut self, bytes: u64) {
        self.donated_bytes = self.donated_bytes.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_models::zoo;
    use aqua_sim::link::bytes::gib;

    fn sd_engine(batch: u64) -> ProducerEngine {
        let sd = zoo::stable_diffusion();
        ProducerEngine::new(
            ProducerModel::Diffusion(*sd.diffusion_geometry().unwrap()),
            GpuSpec::a100_80g(),
            batch,
        )
    }

    #[test]
    fn batches_requests_up_to_max() {
        let mut e = sd_engine(8);
        for i in 0..12 {
            e.submit(InferenceRequest::item(i), SimTime::ZERO);
        }
        let t1 = e.step(SimTime::ZERO);
        assert_eq!(e.drain_completions().len(), 8);
        let t2 = e.step(t1);
        assert_eq!(e.drain_completions().len(), 4);
        assert!(t2 > t1);
        assert_eq!(e.items_served(), 12);
        assert_eq!(e.batches(), 2);
    }

    #[test]
    fn producer_has_tens_of_gb_free() {
        let e = sd_engine(8);
        assert!(e.free_bytes() > gib(40), "free = {}", e.free_bytes());
    }

    #[test]
    fn donation_reduces_free_and_slows_slightly() {
        let mut e = sd_engine(8);
        for i in 0..16 {
            e.submit(InferenceRequest::item(i), SimTime::ZERO);
        }
        let base = e.step(SimTime::ZERO);
        let free_before = e.free_bytes();
        let granted = e.donate(gib(30));
        assert_eq!(granted, gib(30));
        assert_eq!(e.free_bytes(), free_before - gib(30));
        let shared_end = e.step(base);
        let shared = (shared_end - base).as_secs_f64();
        let baseline = base.as_secs_f64();
        let overhead = shared / baseline - 1.0;
        assert!(
            overhead > 0.0 && overhead < 0.05,
            "sharing overhead {overhead:.3} should be < 5% (Fig 3b)"
        );
    }

    #[test]
    fn donation_capped_at_free() {
        let mut e = sd_engine(8);
        let granted = e.donate(gib(1000));
        assert!(granted < gib(80));
        assert_eq!(e.free_bytes(), 0);
        e.reclaim(granted + gib(5)); // over-reclaim saturates
        assert_eq!(e.donated_bytes(), 0);
    }

    #[test]
    fn audio_producer_works() {
        let ag = zoo::audiogen();
        let mut e = ProducerEngine::new(
            ProducerModel::Audio(*ag.audio_geometry().unwrap()),
            GpuSpec::a100_80g(),
            8,
        );
        e.submit(InferenceRequest::item(0), SimTime::ZERO);
        let end = e.step(SimTime::ZERO);
        // A 10 s clip takes on the order of seconds to generate.
        assert!((0.5..10.0).contains(&end.as_secs_f64()), "end = {end}");
        assert_eq!(e.drain_completions().len(), 1);
    }

    #[test]
    fn stats_reflect_donations() {
        let mut e = sd_engine(8);
        e.donate(gib(10));
        let s = e.stats();
        assert_eq!(s.donated_bytes, gib(10));
        assert!(s.donatable_bytes > 0);
        assert_eq!(s.pending_requests, 0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        sd_engine(0);
    }
}
