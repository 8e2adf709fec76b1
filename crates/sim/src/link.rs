//! Interconnect bandwidth models.
//!
//! The central hardware fact behind AQUA (paper §2.3, Figure 3a) is that
//! inter-GPU links are only fast for *large* transfers:
//!
//! * NVLink between two A100s peaks around **250 GB/s** observed, but a 2 MB
//!   buffer only achieves ≈ **100 GB/s**, and small buffers are "nearly as
//!   slow as transfers over PCIe connections".
//! * PCIe gen4 ×16 to host DRAM delivers ≈ **25 GB/s** for pinned,
//!   well-batched copies and far less for small/pageable copies.
//!
//! We model a transfer of `s` bytes as taking
//!
//! ```text
//! t(s) = launch_overhead + (s + half_size) / peak_bandwidth
//! ```
//!
//! which is the classic latency–bandwidth (α–β) model: `half_size` is the
//! buffer size at which effective bandwidth reaches half of peak. The default
//! NVLink calibration pins the Figure 3a anchors: ≈ 100 GB/s at 2 MB,
//! ≈ 240 GB/s at 64 MB, and single-digit GB/s below 64 KB.

use crate::time::SimDuration;
use crate::transfer::TransferPlan;

/// The kind of interconnect a link models. Used by topologies to pick a
/// [`BandwidthModel`] and by reports to label results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// PCIe between a GPU and host DRAM (pinned-buffer DMA).
    PcieHost,
    /// Direct point-to-point NVLink between two GPUs (2-GPU server).
    NvlinkDirect,
    /// NVLink through an NVSwitch fabric (8-GPU server).
    NvSwitch,
}

impl std::fmt::Display for LinkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LinkKind::PcieHost => "pcie-host",
            LinkKind::NvlinkDirect => "nvlink-direct",
            LinkKind::NvSwitch => "nvswitch",
        };
        f.write_str(s)
    }
}

/// Latency–bandwidth model of one directional link.
///
/// # Example
///
/// ```
/// use aqua_sim::link::BandwidthModel;
/// use aqua_sim::transfer::TransferPlan;
///
/// let nvlink = BandwidthModel::nvlink_a100();
/// let pcie = BandwidthModel::pcie_gen4_pinned();
/// // One coalesced 1 GiB copy is ~8x faster over NVLink than PCIe.
/// let big = TransferPlan::coalesced(1 << 30);
/// let speedup = pcie.transfer_time(big).as_secs_f64()
///     / nvlink.transfer_time(big).as_secs_f64();
/// assert!(speedup > 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Peak sustained bandwidth in bytes per second.
    pub peak_bytes_per_sec: f64,
    /// Buffer size (bytes) at which effective bandwidth is half of peak.
    pub half_size_bytes: f64,
    /// Fixed per-transfer software/launch overhead.
    pub launch_overhead: SimDuration,
}

impl BandwidthModel {
    /// Observed NVLink bandwidth between two A100s (paper Figure 3a:
    /// peak ≈ 250 GB/s, ≈ 100 GB/s at 2 MB buffers).
    pub fn nvlink_a100() -> Self {
        BandwidthModel {
            peak_bytes_per_sec: 250e9,
            half_size_bytes: 2.0 * MIB,
            launch_overhead: SimDuration::from_micros(5),
        }
    }

    /// NVLink through an NVSwitch port on an 8-GPU A100 server. Per-port
    /// bandwidth matches direct NVLink; the switch adds a small hop latency.
    pub fn nvswitch_a100() -> Self {
        BandwidthModel {
            peak_bytes_per_sec: 250e9,
            half_size_bytes: 2.0 * MIB,
            launch_overhead: SimDuration::from_micros(7),
        }
    }

    /// PCIe gen4 ×16 host link with pinned staging buffers (the fast path
    /// serving engines use for KV-cache swapping).
    pub fn pcie_gen4_pinned() -> Self {
        BandwidthModel {
            peak_bytes_per_sec: 25e9,
            half_size_bytes: 256.0 * KIB,
            launch_overhead: SimDuration::from_micros(10),
        }
    }

    /// PCIe gen4 host link with pageable memory and framework-level copies —
    /// the slow path taken by engines that move tensors one at a time from
    /// unpinned framework memory (e.g. vLLM's default per-layer LoRA adapter
    /// loading, paper §B.1). The ~1 ms launch overhead models the
    /// framework-level per-tensor dispatch; pageable DMA sustains only a
    /// fraction of the pinned-path bandwidth.
    pub fn pcie_gen4_pageable() -> Self {
        BandwidthModel {
            peak_bytes_per_sec: 4e9,
            half_size_bytes: 256.0 * KIB,
            launch_overhead: SimDuration::from_micros(500),
        }
    }

    /// Default model for a [`LinkKind`].
    pub fn for_kind(kind: LinkKind) -> Self {
        match kind {
            LinkKind::PcieHost => Self::pcie_gen4_pinned(),
            LinkKind::NvlinkDirect => Self::nvlink_a100(),
            LinkKind::NvSwitch => Self::nvswitch_a100(),
        }
    }

    /// Wall time for a single contiguous copy of `bytes`.
    pub fn copy_time(&self, bytes: u64) -> SimDuration {
        let wire = (bytes as f64 + self.half_size_bytes) / self.peak_bytes_per_sec;
        self.launch_overhead + SimDuration::from_secs_f64(wire)
    }

    /// Wall time to execute a [`TransferPlan`] on this link. A scattered plan
    /// pays the launch overhead and half-size penalty once per chunk, which is
    /// exactly why the paper coalesces small KV/LoRA tensors before copying.
    pub fn transfer_time(&self, plan: TransferPlan) -> SimDuration {
        match plan {
            TransferPlan::Coalesced { bytes } => self.copy_time(bytes),
            TransferPlan::Scattered {
                chunks,
                chunk_bytes,
            } => {
                if chunks == 0 {
                    return SimDuration::ZERO;
                }
                let per_chunk = self.copy_time(chunk_bytes);
                SimDuration::from_nanos(per_chunk.as_nanos().saturating_mul(chunks))
            }
        }
    }

    /// Effective bandwidth (bytes/s) achieved by one contiguous copy of
    /// `bytes` — the quantity plotted in Figure 3a.
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        bytes as f64 / self.copy_time(bytes).as_secs_f64()
    }
}

/// One kibibyte in bytes, as `f64` for bandwidth math.
const KIB: f64 = 1024.0;
/// One mebibyte in bytes, as `f64` for bandwidth math.
const MIB: f64 = 1024.0 * 1024.0;
/// One gibibyte in bytes, as `f64` for bandwidth math.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Integer byte-size helpers used across the workspace.
pub mod bytes {
    /// `n` kibibytes in bytes.
    pub const fn kib(n: u64) -> u64 {
        n * 1024
    }
    /// `n` mebibytes in bytes.
    pub const fn mib(n: u64) -> u64 {
        n * 1024 * 1024
    }
    /// `n` gibibytes in bytes.
    pub const fn gib(n: u64) -> u64 {
        n * 1024 * 1024 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_3a_anchor_points() {
        let nv = BandwidthModel::nvlink_a100();
        // ~100 GB/s at 2 MB (paper: "it reaches 100 GB/s at 2 MB").
        let at_2mib = nv.effective_bandwidth(bytes::mib(2));
        assert!(
            (80e9..120e9).contains(&at_2mib),
            "2 MiB effective bandwidth {at_2mib:.3e} outside Fig 3a band"
        );
        // Peak ~250 GB/s for large buffers.
        let at_256mib = nv.effective_bandwidth(bytes::mib(256));
        assert!(
            (230e9..251e9).contains(&at_256mib),
            "256 MiB effective bandwidth {at_256mib:.3e} not near peak"
        );
        // Small buffers are PCIe-class or slower.
        let at_64kib = nv.effective_bandwidth(bytes::kib(64));
        assert!(
            at_64kib < 10e9,
            "64 KiB effective bandwidth {at_64kib:.3e} should be PCIe-class"
        );
    }

    #[test]
    fn bandwidth_monotone_in_size() {
        let nv = BandwidthModel::nvlink_a100();
        let mut last = 0.0;
        for exp in 10..32 {
            let bw = nv.effective_bandwidth(1u64 << exp);
            assert!(bw >= last, "effective bandwidth must grow with size");
            last = bw;
        }
        assert!(last <= nv.peak_bytes_per_sec);
    }

    #[test]
    fn scattered_is_slower_than_coalesced() {
        let nv = BandwidthModel::nvlink_a100();
        let total = bytes::mib(320);
        let coalesced = nv.transfer_time(TransferPlan::coalesced(total));
        let scattered = nv.transfer_time(TransferPlan::scattered(256, total / 256));
        assert!(
            scattered.as_secs_f64() > 3.0 * coalesced.as_secs_f64(),
            "scattered {scattered} vs coalesced {coalesced}"
        );
    }

    #[test]
    fn empty_plans_cost_nothing_or_overhead_only() {
        let nv = BandwidthModel::nvlink_a100();
        assert_eq!(
            nv.transfer_time(TransferPlan::scattered(0, 0)),
            SimDuration::ZERO
        );
        assert_eq!(nv.effective_bandwidth(0), 0.0);
    }

    #[test]
    fn pcie_slower_than_nvlink_for_large_buffers() {
        let nv = BandwidthModel::nvlink_a100();
        let pcie = BandwidthModel::pcie_gen4_pinned();
        let plan = TransferPlan::coalesced(bytes::gib(1));
        let ratio = pcie.transfer_time(plan).as_secs_f64() / nv.transfer_time(plan).as_secs_f64();
        assert!(ratio > 8.0, "NVLink should be ~10x PCIe, got {ratio:.1}x");
    }

    #[test]
    fn for_kind_covers_all_kinds() {
        for kind in [
            LinkKind::PcieHost,
            LinkKind::NvlinkDirect,
            LinkKind::NvSwitch,
        ] {
            let m = BandwidthModel::for_kind(kind);
            assert!(m.peak_bytes_per_sec > 0.0);
            assert!(!kind.to_string().is_empty());
        }
    }
}
