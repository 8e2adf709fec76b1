//! GPU hardware specifications and addresses.
//!
//! The paper's testbeds use NVIDIA A100-80G GPUs. [`GpuSpec`] captures the
//! three numbers the roofline cost models in `aqua-models` need — HBM
//! capacity, HBM bandwidth and dense-math throughput — plus the PCIe link to
//! host DRAM. [`GpuId`] addresses a GPU within one server. HBM is accounted
//! by the coordinator's lease book and each engine's paged KV pool, not here.

use crate::link::{bytes::gib, BandwidthModel};

/// Index of a GPU within one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GpuId(pub usize);

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Hardware specification of one GPU.
///
/// # Example
///
/// ```
/// use aqua_sim::gpu::GpuSpec;
/// let a100 = GpuSpec::a100_80g();
/// assert_eq!(a100.hbm_bytes, 80 * 1024 * 1024 * 1024);
/// assert!(a100.dense_flops > 1e14);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Human-readable device name.
    pub name: String,
    /// HBM capacity in bytes.
    pub hbm_bytes: u64,
    /// HBM bandwidth in bytes per second.
    pub hbm_bandwidth: f64,
    /// Peak dense fp16/bf16 tensor-core throughput in FLOP/s.
    pub dense_flops: f64,
    /// Fraction of peak FLOP/s realistically achieved by inference kernels.
    pub compute_efficiency: f64,
    /// PCIe link between this GPU and host DRAM.
    pub pcie: BandwidthModel,
}

impl GpuSpec {
    /// NVIDIA A100-80G: 80 GiB HBM2e at ~2.0 TB/s, 312 TFLOP/s dense fp16,
    /// PCIe gen4 ×16 to the host.
    pub fn a100_80g() -> Self {
        GpuSpec {
            name: "A100-80G".to_owned(),
            hbm_bytes: gib(80),
            hbm_bandwidth: 2.0e12,
            dense_flops: 312e12,
            compute_efficiency: 0.5,
            pcie: BandwidthModel::pcie_gen4_pinned(),
        }
    }

    /// Effective dense throughput (FLOP/s) after the efficiency factor.
    pub fn effective_flops(&self) -> f64 {
        self.dense_flops * self.compute_efficiency
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self::a100_80g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_constants_are_sane() {
        let spec = GpuSpec::a100_80g();
        assert_eq!(spec.hbm_bytes, gib(80));
        assert!(spec.hbm_bandwidth > 1e12);
        assert!(spec.effective_flops() < spec.dense_flops);
        assert_eq!(GpuSpec::default(), spec);
    }

    #[test]
    fn gpu_id_displays_its_index() {
        assert_eq!(GpuId(3).to_string(), "gpu3");
    }
}
