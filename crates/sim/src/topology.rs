//! Server topologies: which GPUs exist and how they are wired.
//!
//! The paper evaluates two testbeds (§6): a server with **2 A100s connected by
//! direct point-to-point NVLinks**, and a server with **8 A100s connected
//! through an NVSwitch fabric**. Both also reach 1 TB of host DRAM over PCIe.
//!
//! A topology answers one question for the transfer engine: given a source
//! and destination, which [`BandwidthModel`] applies and which directional
//! *ports* are occupied? Ports are the unit of contention — an NVSwitch
//! fabric is internally non-blocking, so transfers contend only at the source
//! GPU's egress port and the destination GPU's ingress port, which is exactly
//! the behaviour the Figure 18 stress test relies on.

use crate::gpu::{GpuId, GpuSpec};
use crate::link::{bytes::gib, BandwidthModel, LinkKind};

/// A directional hardware port that serializes transfers crossing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortId {
    /// NVLink egress (GPU → fabric or peer).
    NvlinkEgress(GpuId),
    /// NVLink ingress (fabric or peer → GPU).
    NvlinkIngress(GpuId),
    /// PCIe device-to-host direction.
    PcieUp(GpuId),
    /// PCIe host-to-device direction.
    PcieDown(GpuId),
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortId::NvlinkEgress(g) => write!(f, "nvlink-egress:{g}"),
            PortId::NvlinkIngress(g) => write!(f, "nvlink-ingress:{g}"),
            PortId::PcieUp(g) => write!(f, "pcie-up:{g}"),
            PortId::PcieDown(g) => write!(f, "pcie-down:{g}"),
        }
    }
}

/// A resolved path between two memory endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPath {
    /// What kind of interconnect this path crosses.
    pub kind: LinkKind,
    /// Bandwidth model applied to transfers on this path.
    pub model: BandwidthModel,
    /// Directional ports the transfer occupies, in order.
    pub ports: Vec<PortId>,
}

/// Endpoint of a transfer inside one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A GPU's HBM.
    Gpu(GpuId),
    /// Host DRAM.
    HostDram,
}

/// One multi-GPU server: GPUs, their inter-GPU fabric, and host DRAM.
///
/// # Example
///
/// ```
/// use aqua_sim::topology::ServerTopology;
/// use aqua_sim::gpu::{GpuId, GpuSpec};
/// use aqua_sim::link::LinkKind;
///
/// let pair = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
/// let path = pair.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
/// assert_eq!(path.kind, LinkKind::NvlinkDirect);
///
/// let dgx = ServerTopology::nvswitch(8, GpuSpec::a100_80g());
/// assert_eq!(dgx.gpu_count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerTopology {
    gpu_count: usize,
    spec: GpuSpec,
    fabric: LinkKind,
    fabric_model: BandwidthModel,
    dram_bytes: u64,
}

impl ServerTopology {
    /// The paper's first testbed: two A100-class GPUs joined by direct
    /// NVLinks, 1 TB host DRAM.
    pub fn nvlink_pair(spec: GpuSpec) -> Self {
        Self::with_fabric(2, spec, LinkKind::NvlinkDirect)
    }

    /// The paper's second testbed: `n` GPUs joined by an NVSwitch fabric
    /// (8 for a DGX A100), 1 TB host DRAM.
    pub fn nvswitch(n: usize, spec: GpuSpec) -> Self {
        Self::with_fabric(n, spec, LinkKind::NvSwitch)
    }

    /// Builds a server with `n` identical GPUs and the given inter-GPU fabric.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `fabric` is [`LinkKind::NvlinkDirect`] with
    /// `n != 2` (direct point-to-point wiring is only modelled for pairs), or
    /// if `fabric` is [`LinkKind::PcieHost`] (the host link is implicit).
    fn with_fabric(n: usize, spec: GpuSpec, fabric: LinkKind) -> Self {
        assert!(n > 0, "a server needs at least one GPU");
        assert!(
            fabric != LinkKind::NvlinkDirect || n == 2,
            "direct NVLink topology is only modelled for 2-GPU servers"
        );
        assert!(
            fabric != LinkKind::PcieHost,
            "the GPU fabric cannot be the host PCIe link"
        );
        ServerTopology {
            gpu_count: n,
            spec,
            fabric,
            fabric_model: BandwidthModel::for_kind(fabric),
            dram_bytes: gib(1024),
        }
    }

    /// Number of GPUs on this server.
    pub fn gpu_count(&self) -> usize {
        self.gpu_count
    }

    /// Inter-GPU fabric kind.
    pub fn fabric(&self) -> LinkKind {
        self.fabric
    }

    /// Host DRAM capacity in bytes (1 TiB by default, like both testbeds).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// Hardware specification of GPU `id` (every GPU on a server shares it).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gpu_spec(&self, id: GpuId) -> &GpuSpec {
        assert!(
            id.0 < self.gpu_count,
            "{id} is out of range for a {}-GPU server",
            self.gpu_count
        );
        &self.spec
    }

    /// Path between two distinct GPUs over the inter-GPU fabric, or `None`
    /// if `src == dst` or either id is out of range.
    pub fn gpu_to_gpu_path(&self, src: GpuId, dst: GpuId) -> Option<LinkPath> {
        if src == dst || src.0 >= self.gpu_count || dst.0 >= self.gpu_count {
            return None;
        }
        Some(LinkPath {
            kind: self.fabric,
            model: self.fabric_model,
            ports: vec![PortId::NvlinkEgress(src), PortId::NvlinkIngress(dst)],
        })
    }

    /// Path from a GPU to host DRAM (device-to-host PCIe direction).
    pub fn gpu_to_host_path(&self, src: GpuId) -> LinkPath {
        LinkPath {
            kind: LinkKind::PcieHost,
            model: self.gpu_spec(src).pcie,
            ports: vec![PortId::PcieUp(src)],
        }
    }

    /// Path from host DRAM to a GPU (host-to-device PCIe direction).
    pub fn host_to_gpu_path(&self, dst: GpuId) -> LinkPath {
        LinkPath {
            kind: LinkKind::PcieHost,
            model: self.gpu_spec(dst).pcie,
            ports: vec![PortId::PcieDown(dst)],
        }
    }

    /// Resolves the path between two endpoints, or `None` for a degenerate
    /// pair (same endpoint, or DRAM→DRAM).
    pub fn path(&self, src: Endpoint, dst: Endpoint) -> Option<LinkPath> {
        match (src, dst) {
            (Endpoint::Gpu(a), Endpoint::Gpu(b)) => self.gpu_to_gpu_path(a, b),
            (Endpoint::Gpu(a), Endpoint::HostDram) => Some(self.gpu_to_host_path(a)),
            (Endpoint::HostDram, Endpoint::Gpu(b)) => Some(self.host_to_gpu_path(b)),
            (Endpoint::HostDram, Endpoint::HostDram) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_has_direct_links_both_ways() {
        let s = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        let ab = s.gpu_to_gpu_path(GpuId(0), GpuId(1)).unwrap();
        let ba = s.gpu_to_gpu_path(GpuId(1), GpuId(0)).unwrap();
        assert_eq!(ab.kind, LinkKind::NvlinkDirect);
        assert_eq!(
            ab.ports,
            vec![
                PortId::NvlinkEgress(GpuId(0)),
                PortId::NvlinkIngress(GpuId(1))
            ]
        );
        assert_eq!(
            ba.ports,
            vec![
                PortId::NvlinkEgress(GpuId(1)),
                PortId::NvlinkIngress(GpuId(0))
            ]
        );
    }

    #[test]
    fn self_path_is_none() {
        let s = ServerTopology::nvswitch(8, GpuSpec::a100_80g());
        assert!(s.gpu_to_gpu_path(GpuId(2), GpuId(2)).is_none());
        assert!(s.path(Endpoint::HostDram, Endpoint::HostDram).is_none());
        assert!(s.gpu_to_gpu_path(GpuId(0), GpuId(9)).is_none());
    }

    #[test]
    fn nvswitch_paths_exist_between_all_pairs() {
        let s = ServerTopology::nvswitch(8, GpuSpec::a100_80g());
        for a in 0..8 {
            for b in 0..8 {
                if a == b {
                    continue;
                }
                let p = s.gpu_to_gpu_path(GpuId(a), GpuId(b)).unwrap();
                assert_eq!(p.kind, LinkKind::NvSwitch);
                assert_eq!(p.ports.len(), 2);
            }
        }
    }

    #[test]
    fn host_paths_use_pcie() {
        let s = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        let up = s.gpu_to_host_path(GpuId(0));
        let down = s.host_to_gpu_path(GpuId(0));
        assert_eq!(up.kind, LinkKind::PcieHost);
        assert_eq!(up.ports, vec![PortId::PcieUp(GpuId(0))]);
        assert_eq!(down.ports, vec![PortId::PcieDown(GpuId(0))]);
        // Up and down are separate resources: full duplex.
        assert_ne!(up.ports, down.ports);
    }

    #[test]
    fn endpoint_path_dispatch() {
        let s = ServerTopology::nvswitch(4, GpuSpec::a100_80g());
        assert!(s
            .path(Endpoint::Gpu(GpuId(0)), Endpoint::Gpu(GpuId(1)))
            .is_some());
        assert!(s
            .path(Endpoint::Gpu(GpuId(0)), Endpoint::HostDram)
            .is_some());
        assert!(s
            .path(Endpoint::HostDram, Endpoint::Gpu(GpuId(3)))
            .is_some());
    }

    #[test]
    #[should_panic(expected = "only modelled for 2-GPU")]
    fn direct_nvlink_requires_pair() {
        ServerTopology::with_fabric(4, GpuSpec::a100_80g(), LinkKind::NvlinkDirect);
    }

    #[test]
    fn dram_capacity_is_one_tib() {
        let s = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
        assert_eq!(s.dram_bytes(), gib(1024));
    }
}
