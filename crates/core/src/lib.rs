//! # aqua-core — AQUA-LIB, the paper's primary contribution
//!
//! AQUA is a transparent and elastic GPU memory-management framework for
//! responsive LLM inference. Instead of offloading dynamic inference context
//! (KV caches, LoRA adapters) to host DRAM over PCIe, AQUA offloads it to
//! the HBM of a neighbouring GPU over the much faster inter-GPU fabric
//! (NVLink/NVSwitch), falling back to DRAM when no neighbour has memory to
//! spare. This crate implements the three mechanisms of §3 and §B:
//!
//! * [`coordinator`] — the central coordinator: a single-threaded store,
//!   shared as `Rc<Coordinator>`, that tracks memory **leases** from producer GPUs and **allocations** by
//!   consumer GPUs, and brokers the reclaim protocol. Its API mirrors the
//!   paper's REST endpoints (`/lease`, `/allocate`, `/free`, `/respond`,
//!   `/reclaim_request`, `/reclaim_status`) as typed methods.
//! * [`tensor`] — **AQUA TENSORS**: migratable, location-transparent tensor
//!   handles with the paper's pointer-invalidation semantics
//!   (`to_responsive_tensor` / `to_torch_tensor`).
//! * [`offloader`] — [`offloader::AquaOffloader`], the one AQUA-LIB offload
//!   loop: an [`aqua_engines::offload::Offloader`] that places context on a
//!   peer lease or in DRAM, gathers it into a staging buffer (the custom
//!   CUDA gather/scatter kernels of §5) and moves it as one coalesced copy
//!   over the fabric. Its
//!   [`on_iteration_boundary`](aqua_engines::offload::Offloader::on_iteration_boundary)
//!   is the paper's `aqua.respond()`: it blocks only while releasing a
//!   reclaimed lease and promotes DRAM-resident context back to a peer in
//!   the background.
//! * [`informer`] — the producer-side control loops of §B.1:
//!   [`informer::LlmInformer`] (donate when the queue is quiet, reclaim on
//!   bursts) and [`informer::BatchInformer`] (donate after each batch).
//!
//! # Example: offloading over NVLink beats DRAM
//!
//! ```
//! use aqua_core::prelude::*;
//! use aqua_engines::offload::{DramOffloader, Offloader};
//! use aqua_sim::prelude::*;
//! use std::{cell::RefCell, rc::Rc};
//!
//! let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
//! let xfer = Rc::new(RefCell::new(TransferEngine::new()));
//! let coord = Rc::new(Coordinator::new());
//!
//! // GPU 1 leases 20 GiB to AQUA.
//! coord.lease(GpuRef::single(GpuId(1)), 20 << 30);
//!
//! // GPU 0's consumer offloads 2 GiB of KV cache.
//! let mut aqua = AquaOffloader::new(
//!     GpuRef::single(GpuId(0)), coord, server.clone(), xfer.clone());
//! let t_aqua = aqua.swap_out(2 << 30, 1024, SimTime::ZERO);
//!
//! let mut dram = DramOffloader::pinned(&server, GpuId(0), xfer);
//! let t_dram = dram.swap_out(2 << 30, 1024, SimTime::ZERO);
//! assert!(t_aqua.as_secs_f64() * 5.0 < t_dram.as_secs_f64());
//! ```

pub mod coordinator;
pub mod error;
pub mod informer;
pub mod offloader;
pub mod tensor;

pub mod prelude {
    //! Convenience re-exports.
    pub use crate::coordinator::{
        AllocationSite, Coordinator, FailureConfig, GpuRef, LeaseId, LeaseState, ReclaimStatus,
    };
    pub use crate::error::AquaError;
    pub use crate::informer::{BatchInformer, LlmInformer, LlmInformerConfig};
    pub use crate::offloader::AquaOffloader;
    pub use crate::tensor::{TensorLocation, TensorTable};
}

pub use prelude::*;

/// How many of `journal`'s events are named `name` (tests tally the
/// journal instead of keeping counters beside it).
#[cfg(test)]
fn tally(journal: &aqua_telemetry::JournalTracer, name: &str) -> usize {
    journal.events().iter().filter(|e| e.name() == name).count()
}
