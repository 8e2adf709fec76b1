//! The offload backend abstraction.
//!
//! Serving engines move inference context (KV caches, LoRA adapters) between
//! GPU HBM and an *offload store*. Today's engines use host DRAM over PCIe;
//! AQUA's contribution is an offloader that uses a neighbouring GPU over
//! NVLink (implemented in `aqua-core`, which plugs in through this trait).
//!
//! An [`Offloader`] is asked to move `bytes` that are naturally scattered
//! across `chunks` tensors. Whether the implementation honours that scatter
//! (many small copies) or coalesces through a staging buffer first is the
//! implementation's choice — that is precisely the design axis the paper's
//! custom gather/scatter kernels occupy.

use aqua_sim::link::BandwidthModel;
use aqua_sim::time::SimTime;
use aqua_sim::topology::LinkPath;
use aqua_sim::transfer::{TransferEngine, TransferPlan};
use std::cell::RefCell;
use std::rc::Rc;

/// Where offloaded context currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OffloadLocation {
    /// Host DRAM over PCIe.
    HostDram,
    /// A peer GPU's HBM over the inter-GPU fabric.
    PeerGpu,
    /// Split between a peer GPU and host DRAM (partial lease).
    Mixed,
}

impl std::fmt::Display for OffloadLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OffloadLocation::HostDram => "host-dram",
            OffloadLocation::PeerGpu => "peer-gpu",
            OffloadLocation::Mixed => "mixed",
        };
        f.write_str(s)
    }
}

/// Moves context between a GPU and its offload store.
///
/// Implementations return the completion time of the requested movement;
/// queueing behind other transfers on shared ports is included.
pub trait Offloader {
    /// Copies `bytes` (scattered across `chunks` tensors) from the GPU to
    /// the offload store, starting no earlier than `now`.
    fn swap_out(&mut self, bytes: u64, chunks: u64, now: SimTime) -> SimTime;

    /// Copies `bytes` (scattered across `chunks` tensors) from the offload
    /// store back into GPU HBM, starting no earlier than `now`. The bytes
    /// leave the offload store (a context switch back in).
    fn swap_in(&mut self, bytes: u64, chunks: u64, now: SimTime) -> SimTime;

    /// Reads `bytes` from the offload store into GPU HBM *without removing
    /// them* — the streaming pattern of FlexGen's per-token context sweeps
    /// and of LoRA adapter loads from a persistent adapter store. Defaults
    /// to [`Offloader::swap_in`] for backends that do not track occupancy.
    fn read_in(&mut self, bytes: u64, chunks: u64, now: SimTime) -> SimTime {
        self.swap_in(bytes, chunks, now)
    }

    /// Called by the engine at each iteration boundary (the paper's
    /// `aqua.respond()`); gives elastic offloaders a chance to migrate
    /// tensors. Returns the time at which the engine may proceed (equals
    /// `now` unless a blocking migration is in progress).
    fn on_iteration_boundary(&mut self, now: SimTime) -> SimTime {
        now
    }

    /// Whether [`Offloader::on_iteration_boundary`] would return its
    /// argument and change nothing, whatever its time, until another call
    /// on this offloader (or on what it shares, such as a coordinator)
    /// moves its state. An offloader with a non-trivial boundary returns
    /// early on its own answer, and an engine whose own state cannot change
    /// in between may skip the call altogether. Defaults to `false`, so a
    /// wrapper that does not forward it keeps every boundary call, each of
    /// which still takes the wrapped offloader's early return.
    fn boundary_is_quiet(&self) -> bool {
        false
    }

    /// Where the offloaded context currently lives.
    fn location(&self) -> OffloadLocation;

    /// Short label for reports (e.g. `"dram"`, `"aqua"`).
    fn label(&self) -> &str;
}

/// Baseline offloader: host DRAM over this GPU's PCIe link.
///
/// This is what vLLM and FlexGen do today (§2.2). It honours the caller's
/// scatter when `coalesce` is false (vLLM's default per-tensor LoRA loads,
/// §B.1) and can use a pinned staging path when `coalesce` is true (KV swap).
///
/// # Example
///
/// ```
/// use aqua_engines::offload::{DramOffloader, Offloader};
/// use aqua_sim::prelude::*;
/// use std::{cell::RefCell, rc::Rc};
///
/// let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
/// let xfer = Rc::new(RefCell::new(TransferEngine::new()));
/// let mut dram = DramOffloader::pinned(&server, GpuId(0), xfer);
/// let done = dram.swap_out(1 << 30, 1, SimTime::ZERO);
/// assert!(done.as_secs_f64() > 0.03); // ~40 ms at 25 GB/s
/// ```
#[derive(Debug, Clone)]
pub struct DramOffloader {
    to_host: LinkPath,
    from_host: LinkPath,
    model: BandwidthModel,
    coalesce: bool,
    transfers: Rc<RefCell<TransferEngine>>,
    label: String,
}

impl DramOffloader {
    /// DRAM offloader using pinned staging buffers (coalesced copies at full
    /// PCIe bandwidth) — the KV-swap fast path.
    pub fn pinned(
        server: &aqua_sim::topology::ServerTopology,
        gpu: aqua_sim::gpu::GpuId,
        transfers: Rc<RefCell<TransferEngine>>,
    ) -> Self {
        DramOffloader {
            to_host: server.gpu_to_host_path(gpu),
            from_host: server.host_to_gpu_path(gpu),
            model: BandwidthModel::pcie_gen4_pinned(),
            coalesce: true,
            transfers,
            label: "dram-pinned".to_owned(),
        }
    }

    /// DRAM offloader with pinned buffers but **per-tensor copies** — how
    /// vLLM swaps KV blocks today: "a given token's key and value tensors
    /// are scattered across multiple tensors and this leads to multiple
    /// small copies" (§5). AQUA's gather/scatter kernels are exactly what
    /// this path lacks.
    pub fn pinned_scattered(
        server: &aqua_sim::topology::ServerTopology,
        gpu: aqua_sim::gpu::GpuId,
        transfers: Rc<RefCell<TransferEngine>>,
    ) -> Self {
        DramOffloader {
            to_host: server.gpu_to_host_path(gpu),
            from_host: server.host_to_gpu_path(gpu),
            model: BandwidthModel::pcie_gen4_pinned(),
            coalesce: false,
            transfers,
            label: "dram-pinned-scattered".to_owned(),
        }
    }

    /// DRAM offloader doing framework-level per-tensor copies from pageable
    /// memory — the default LoRA-adapter load path the paper replaces.
    pub fn pageable_scattered(
        server: &aqua_sim::topology::ServerTopology,
        gpu: aqua_sim::gpu::GpuId,
        transfers: Rc<RefCell<TransferEngine>>,
    ) -> Self {
        DramOffloader {
            to_host: server.gpu_to_host_path(gpu),
            from_host: server.host_to_gpu_path(gpu),
            model: BandwidthModel::pcie_gen4_pageable(),
            coalesce: false,
            transfers,
            label: "dram-pageable".to_owned(),
        }
    }

    fn plan(&self, bytes: u64, chunks: u64) -> TransferPlan {
        if self.coalesce || chunks <= 1 {
            TransferPlan::coalesced(bytes)
        } else {
            TransferPlan::scattered(chunks, bytes / chunks.max(1))
        }
    }
}

impl Offloader for DramOffloader {
    fn swap_out(&mut self, bytes: u64, chunks: u64, now: SimTime) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let plan = self.plan(bytes, chunks);
        self.transfers
            .borrow_mut()
            .schedule_with_model(&self.to_host, &self.model, plan, now)
            .end
    }

    fn swap_in(&mut self, bytes: u64, chunks: u64, now: SimTime) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let plan = self.plan(bytes, chunks);
        self.transfers
            .borrow_mut()
            .schedule_with_model(&self.from_host, &self.model, plan, now)
            .end
    }

    /// The boundary is the trait's no-op.
    fn boundary_is_quiet(&self) -> bool {
        true
    }

    fn location(&self) -> OffloadLocation {
        OffloadLocation::HostDram
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::gpu::{GpuId, GpuSpec};
    use aqua_sim::link::bytes::{gib, mib};
    use aqua_sim::topology::ServerTopology;

    fn setup() -> (ServerTopology, Rc<RefCell<TransferEngine>>) {
        (
            ServerTopology::nvlink_pair(GpuSpec::a100_80g()),
            Rc::new(RefCell::new(TransferEngine::new())),
        )
    }

    #[test]
    fn pinned_swap_is_pcie_speed() {
        let (server, xfer) = setup();
        let mut d = DramOffloader::pinned(&server, GpuId(0), xfer);
        let done = d.swap_out(gib(1), 64, SimTime::ZERO);
        let secs = done.as_secs_f64();
        // 1 GiB at 25 GB/s ≈ 43 ms.
        assert!((0.03..0.08).contains(&secs), "secs = {secs}");
        assert_eq!(d.location(), OffloadLocation::HostDram);
        assert_eq!(d.label(), "dram-pinned");
    }

    #[test]
    fn pageable_scattered_is_slower() {
        let (server, xfer) = setup();
        let mut fast = DramOffloader::pinned(&server, GpuId(0), xfer.clone());
        let mut slow = DramOffloader::pageable_scattered(&server, GpuId(0), xfer);
        let bytes = mib(320);
        let t_fast = fast.swap_in(bytes, 256, SimTime::ZERO).as_secs_f64();
        // Issue the slow one afterwards on a fresh engine to avoid queueing.
        let (server2, xfer2) = setup();
        let mut slow2 = DramOffloader::pageable_scattered(&server2, GpuId(0), xfer2);
        let t_slow = slow2.swap_in(bytes, 256, SimTime::ZERO).as_secs_f64();
        let _ = &mut slow;
        assert!(t_slow > 3.0 * t_fast, "slow {t_slow} vs fast {t_fast}");
    }

    #[test]
    fn zero_bytes_is_instant() {
        let (server, xfer) = setup();
        let mut d = DramOffloader::pinned(&server, GpuId(0), xfer);
        let t = SimTime::from_secs(5);
        assert_eq!(d.swap_out(0, 0, t), t);
        assert_eq!(d.swap_in(0, 10, t), t);
        assert_eq!(d.on_iteration_boundary(t), t);
        assert!(d.boundary_is_quiet());
    }

    #[test]
    fn out_and_in_are_full_duplex() {
        let (server, xfer) = setup();
        let mut d = DramOffloader::pinned(&server, GpuId(0), xfer);
        let out = d.swap_out(gib(1), 1, SimTime::ZERO);
        let inn = d.swap_in(gib(1), 1, SimTime::ZERO);
        // Different PCIe directions do not queue behind each other.
        assert_eq!(out, inn);
    }

    #[test]
    fn sequential_swaps_queue() {
        let (server, xfer) = setup();
        let mut d = DramOffloader::pinned(&server, GpuId(0), xfer);
        let first = d.swap_out(gib(1), 1, SimTime::ZERO);
        let second = d.swap_out(gib(1), 1, SimTime::ZERO);
        assert!(second > first);
    }
}
