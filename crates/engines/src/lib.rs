//! # aqua-engines — serving-engine simulations
//!
//! The paper integrates AQUA into real serving engines; this crate provides
//! faithful scheduler-level simulations of those engines, all driven by the
//! roofline cost model in `aqua-models` and the hardware model in `aqua-sim`.
//! The vLLM baseline (continuous batching over a paged KV cache, LoRA
//! adapter caching, producer-mode donation) is a configuration of
//! `aqua-gateway`'s engine, which builds on the pieces here:
//!
//! * [`vllm`] — vLLM's preemption policy (recompute or swap).
//! * [`cfs`] — the paper's completely fair scheduler (§5): token-slice
//!   time-sharing with context switching through an [`offload::Offloader`].
//! * [`flexgen`] — FlexGen-style long-prompt engine whose decode pipeline is
//!   bounded by context-streaming I/O (the Figure 7 workload); with I/O
//!   overlap off it is the DeepSpeed-style serial offloading the paper's
//!   related work cites (§9).
//! * [`producer`] — compute-bound image/audio engines that serve requests in
//!   plateau-sized batches and donate their spare HBM.
//! * [`offload`] — the offload-backend abstraction (`DramOffloader` here;
//!   AQUA's NVLink offloader lives in `aqua-core`).
//! * [`northbound`] — the stats/donate/reclaim interface AQUA's informers
//!   drive (`inform_stats(...)` in the paper's §B).
//! * [`driver`] — a deterministic multi-engine simulation driver.
//! * [`kvcache`] — the paged KV block pool.
//! * [`request`] — request types shared with the workload generators.

pub mod cfs;
pub mod driver;
pub mod flexgen;
pub mod kvcache;
pub mod northbound;
pub mod offload;
pub mod producer;
pub mod request;
pub mod vllm;

pub mod prelude {
    //! Convenience re-exports.
    pub use crate::cfs::{CfsConfig, CfsEngine};
    pub use crate::driver::{Driver, Engine};
    pub use crate::flexgen::{FlexGenConfig, FlexGenEngine};
    pub use crate::kvcache::PagedKvCache;
    pub use crate::northbound::{EngineStats, Informer, MemoryElastic};
    pub use crate::offload::{DramOffloader, OffloadLocation, Offloader};
    pub use crate::producer::{ProducerEngine, ProducerModel};
    pub use crate::request::{InferenceRequest, RequestId};
    pub use crate::vllm::PreemptionPolicy;
}

pub use prelude::*;
