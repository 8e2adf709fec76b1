//! Clusters of multi-GPU servers.
//!
//! The paper's end-to-end evaluation (§6.1) runs on "a cluster of 8
//! servers, each with 2 GPUs", hosting 16 models placed by AQUA-PLACER.
//! Inter-GPU offloading only works *within* a server (the NVLink domain);
//! across servers there is only the datacenter fabric, which AQUA does not
//! use. A [`Cluster`] is therefore just an indexed set of independent
//! [`ServerTopology`]s, each with its own transfer engine, plus addressing
//! helpers.

use crate::gpu::{GpuId, GpuSpec};
use crate::topology::ServerTopology;

/// Cluster-wide GPU address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterGpu {
    /// Server index.
    pub server: usize,
    /// GPU index within the server.
    pub gpu: GpuId,
}

impl std::fmt::Display for ClusterGpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server{}/{}", self.server, self.gpu)
    }
}

/// A cluster of identical multi-GPU servers.
///
/// # Example
///
/// ```
/// use aqua_sim::cluster::Cluster;
/// use aqua_sim::gpu::GpuSpec;
///
/// // The paper's §6.1 cluster: 8 servers x 2 GPUs.
/// let cluster = Cluster::of_nvlink_pairs(8, GpuSpec::a100_80g());
/// assert_eq!(cluster.server_count(), 8);
/// assert_eq!(cluster.total_gpus(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    servers: Vec<ServerTopology>,
}

impl Cluster {
    /// A cluster of `n` two-GPU direct-NVLink servers (the paper's §6.1
    /// building block).
    pub fn of_nvlink_pairs(n: usize, spec: GpuSpec) -> Self {
        assert!(n > 0, "a cluster needs at least one server");
        Cluster {
            servers: (0..n)
                .map(|_| ServerTopology::nvlink_pair(spec.clone()))
                .collect(),
        }
    }

    /// A cluster of `n` NVSwitch servers with `gpus` GPUs each.
    pub fn of_nvswitch_servers(n: usize, gpus: usize, spec: GpuSpec) -> Self {
        assert!(n > 0, "a cluster needs at least one server");
        Cluster {
            servers: (0..n)
                .map(|_| ServerTopology::nvswitch(gpus, spec.clone()))
                .collect(),
        }
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// GPUs per server (identical across the cluster).
    pub fn gpus_per_server(&self) -> usize {
        self.servers[0].gpu_count()
    }

    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.servers.iter().map(ServerTopology::gpu_count).sum()
    }

    /// Shared access to one server.
    pub fn server(&self, s: usize) -> &ServerTopology {
        &self.servers[s]
    }

    /// Iterates over servers in index order.
    pub fn servers(&self) -> impl Iterator<Item = &ServerTopology> {
        self.servers.iter()
    }

    /// Whether two GPUs share a fast inter-GPU network (the precondition
    /// for AQUA offloading between them).
    pub fn same_nvlink_domain(&self, a: ClusterGpu, b: ClusterGpu) -> bool {
        a.server == b.server && a.gpu != b.gpu
    }

    /// Enumerates every GPU address in the cluster.
    pub fn gpu_addresses(&self) -> Vec<ClusterGpu> {
        let mut out = Vec::with_capacity(self.total_gpus());
        for (s, server) in self.servers.iter().enumerate() {
            for g in 0..server.gpu_count() {
                out.push(ClusterGpu {
                    server: s,
                    gpu: GpuId(g),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = Cluster::of_nvlink_pairs(8, GpuSpec::a100_80g());
        assert_eq!(c.server_count(), 8);
        assert_eq!(c.gpus_per_server(), 2);
        assert_eq!(c.total_gpus(), 16);
        assert_eq!(c.gpu_addresses().len(), 16);
    }

    #[test]
    fn nvlink_domain_is_intra_server() {
        let c = Cluster::of_nvlink_pairs(2, GpuSpec::a100_80g());
        let a = ClusterGpu {
            server: 0,
            gpu: GpuId(0),
        };
        let b = ClusterGpu {
            server: 0,
            gpu: GpuId(1),
        };
        let x = ClusterGpu {
            server: 1,
            gpu: GpuId(0),
        };
        assert!(c.same_nvlink_domain(a, b));
        assert!(!c.same_nvlink_domain(a, x), "no NVLink across servers");
        assert!(!c.same_nvlink_domain(a, a), "a GPU is not its own peer");
    }

    #[test]
    fn nvswitch_cluster() {
        let c = Cluster::of_nvswitch_servers(2, 8, GpuSpec::a100_80g());
        assert_eq!(c.total_gpus(), 16);
        assert_eq!(c.server(1).gpu_count(), 8);
        assert_eq!(
            ClusterGpu {
                server: 1,
                gpu: GpuId(3)
            }
            .to_string(),
            "server1/gpu3"
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        Cluster::of_nvlink_pairs(0, GpuSpec::a100_80g());
    }
}
