//! The per-GPU AQUA-LIB instance (§3, §B): the API an ML model imports.
//!
//! "An instance of AQUA-LIB runs on each GPU of a multi-GPU server." The
//! engine-facing offload path lives in [`crate::offloader`]; this module is
//! the *model-facing* API the paper describes — explicit, tensor-granular:
//!
//! * `to_responsive_tensor(tensor)` wraps a tensor and offloads it to
//!   wherever the coordinator places it (peer GPU, else DRAM);
//! * `to_torch_tensor(id)` resolves the current pointer (stale after any
//!   migration — a checked error instead of a segfault);
//! * `aqua.respond()` is the iteration boundary: pending producer reclaims
//!   are served (blocking), and DRAM-resident tensors are promoted back to
//!   a peer when lease capacity reappears (non-blocking).
//!
//! Every movement is charged on the server's shared [`TransferEngine`] with
//! the gather-coalesce strategy, so AQUA-LIB timing composes with whatever
//! engines run beside it.

use crate::coordinator::{AllocationSite, Coordinator, GpuRef, LeaseId};
use crate::tensor::{StaleTensorRef, TensorId, TensorLocation, TensorRef, TensorTable};
use aqua_sim::time::SimTime;
use aqua_sim::topology::ServerTopology;
use aqua_sim::transfer::{staging_time, TransferEngine, TransferPlan};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// A per-GPU AQUA-LIB instance.
///
/// # Example
///
/// ```
/// use aqua_core::aqualib::AquaLib;
/// use aqua_core::coordinator::{Coordinator, GpuRef};
/// use aqua_core::tensor::TensorLocation;
/// use aqua_sim::prelude::*;
/// use std::sync::Arc;
/// use std::{cell::RefCell, rc::Rc};
///
/// let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
/// let transfers = Rc::new(RefCell::new(TransferEngine::new()));
/// let coord = Rc::new(Coordinator::new());
/// coord.lease(GpuRef::single(GpuId(1)), 1 << 30);
///
/// let mut lib = AquaLib::new(GpuRef::single(GpuId(0)), coord, server, transfers);
/// let (id, _done) = lib.to_responsive_tensor(Arc::from(vec![7u8; 4096]), SimTime::ZERO);
/// let ptr = lib.to_torch_tensor(id).unwrap();
/// assert_eq!(ptr.location(), TensorLocation::PeerGpu { gpu: 1 });
/// assert_eq!(lib.read(ptr).unwrap().len(), 4096);
/// ```
pub struct AquaLib {
    gpu: GpuRef,
    coordinator: Rc<Coordinator>,
    server: Rc<ServerTopology>,
    transfers: Rc<RefCell<TransferEngine>>,
    tensors: TensorTable,
    /// Lease backing each peer-resident tensor. Ordered, so `respond()`
    /// migrates and releases in the same order in every instance.
    backing: BTreeMap<TensorId, LeaseId>,
    migrations: u64,
}

impl std::fmt::Debug for AquaLib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AquaLib")
            .field("gpu", &self.gpu)
            .field("tensors", &self.tensors.len())
            .field("migrations", &self.migrations)
            .finish()
    }
}

impl AquaLib {
    /// Creates the AQUA-LIB instance for `gpu`.
    pub fn new(
        gpu: GpuRef,
        coordinator: Rc<Coordinator>,
        server: Rc<ServerTopology>,
        transfers: Rc<RefCell<TransferEngine>>,
    ) -> Self {
        AquaLib {
            gpu,
            coordinator,
            server,
            transfers,
            tensors: TensorTable::new(),
            backing: BTreeMap::new(),
            migrations: 0,
        }
    }

    /// Number of live AQUA tensors.
    pub fn tensor_count(&self) -> usize {
        self.tensors.len()
    }

    /// Total migrations performed across all tensors.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Bytes currently stored at each location class:
    /// `(local, peer, dram)`.
    pub fn footprint(&self) -> (u64, u64, u64) {
        let local = self.tensors.bytes_at(TensorLocation::LocalHbm);
        let dram = self.tensors.bytes_at(TensorLocation::HostDram);
        let mut peer = 0;
        for g in 0..self.server.gpu_count() {
            peer += self.tensors.bytes_at(TensorLocation::PeerGpu { gpu: g });
        }
        (local, peer, dram)
    }

    fn copy_local_to(&mut self, to: TensorLocation, bytes: u64, now: SimTime) -> SimTime {
        self.copy_between(TensorLocation::LocalHbm, to, bytes, now)
    }

    /// Charges the transfer for moving `bytes` between two locations and
    /// returns its completion time.
    fn copy_between(
        &mut self,
        from: TensorLocation,
        to: TensorLocation,
        bytes: u64,
        now: SimTime,
    ) -> SimTime {
        use TensorLocation as L;
        let plan = TransferPlan::coalesced(bytes);
        let mut xfer = self.transfers.borrow_mut();
        let hbm_bw = self.server.gpu_spec(self.gpu.gpu).hbm_bandwidth;
        let start = now + staging_time(bytes, hbm_bw); // gather/scatter kernel
        let end = match (from, to) {
            (L::LocalHbm, L::PeerGpu { gpu }) => {
                let path = self
                    .server
                    .gpu_to_gpu_path(self.gpu.gpu, aqua_sim::gpu::GpuId(gpu))
                    .expect("peer is a distinct same-server GPU");
                xfer.schedule(&path, plan, start).end
            }
            (L::PeerGpu { gpu }, L::LocalHbm) => {
                let path = self
                    .server
                    .gpu_to_gpu_path(aqua_sim::gpu::GpuId(gpu), self.gpu.gpu)
                    .expect("peer is a distinct same-server GPU");
                xfer.schedule(&path, plan, start).end
            }
            (L::LocalHbm, L::HostDram) => {
                let path = self.server.gpu_to_host_path(self.gpu.gpu);
                xfer.schedule(&path, plan, start).end
            }
            (L::HostDram, L::LocalHbm) => {
                let path = self.server.host_to_gpu_path(self.gpu.gpu);
                xfer.schedule(&path, plan, start).end
            }
            (L::PeerGpu { gpu }, L::HostDram) => {
                // Producer HBM -> host, over the producer's PCIe.
                let path = self.server.gpu_to_host_path(aqua_sim::gpu::GpuId(gpu));
                xfer.schedule(&path, plan, start).end
            }
            (L::HostDram, L::PeerGpu { gpu }) => {
                let path = self.server.host_to_gpu_path(aqua_sim::gpu::GpuId(gpu));
                xfer.schedule(&path, plan, start).end
            }
            (a, b) => panic!("degenerate move {a} -> {b}"),
        };
        end
    }

    /// Wraps `payload` as an AQUA tensor and offloads it to the location
    /// the coordinator chooses. Returns the tensor id and the time the
    /// offload completes.
    pub fn to_responsive_tensor(
        &mut self,
        payload: Arc<[u8]>,
        now: SimTime,
    ) -> (TensorId, SimTime) {
        let bytes = payload.len() as u64;
        let site = self.coordinator.allocate(self.gpu, bytes);
        match site {
            AllocationSite::Peer { lease, gpu } => {
                let to = TensorLocation::PeerGpu { gpu: gpu.gpu.0 };
                let done = self.copy_local_to(to, bytes, now);
                let id = self.tensors.to_responsive_tensor(payload, to);
                self.backing.insert(id, lease);
                (id, done)
            }
            AllocationSite::Dram => {
                let done = self.copy_local_to(TensorLocation::HostDram, bytes, now);
                let id = self
                    .tensors
                    .to_responsive_tensor(payload, TensorLocation::HostDram);
                (id, done)
            }
        }
    }

    /// Resolves the current pointer for a tensor.
    pub fn to_torch_tensor(&self, id: TensorId) -> Option<TensorRef> {
        self.tensors.to_torch_tensor(id)
    }

    /// Reads a tensor's payload through a resolved pointer.
    ///
    /// # Errors
    ///
    /// Returns [`StaleTensorRef`] if the tensor migrated since the pointer
    /// was taken.
    pub fn read(&self, r: TensorRef) -> Result<Arc<[u8]>, StaleTensorRef> {
        self.tensors.read(r)
    }

    /// Frees a tensor, returning lease capacity if it was peer-resident.
    pub fn free(&mut self, id: TensorId, _now: SimTime) -> Option<u64> {
        let bytes = self.tensors.free(id)?;
        if let Some(lease) = self.backing.remove(&id) {
            // A lease revoked underneath us already took the bytes back.
            let _ = self.coordinator.free(lease, bytes);
        }
        Some(bytes)
    }

    /// `aqua.respond()`: serves pending reclaims (blocking — returns when
    /// the engine may resume) and promotes DRAM tensors back to peers when
    /// capacity is available (non-blocking).
    pub fn respond(&mut self, now: SimTime) -> SimTime {
        let mut resume = now;

        // 1. Reclaims: migrate every tensor on a reclaiming lease to DRAM.
        let affected: Vec<(TensorId, LeaseId)> = self
            .backing
            .iter()
            .filter(|(_, lease)| self.coordinator.pending_reclaim(**lease) > 0)
            .map(|(id, lease)| (*id, *lease))
            .collect();
        let mut released: BTreeMap<LeaseId, (u64, SimTime)> = BTreeMap::new();
        for (id, lease) in affected {
            let from = self
                .tensors
                .get(id)
                .map(|t| t.location())
                .unwrap_or(TensorLocation::HostDram);
            let bytes = self.tensors.get(id).map(|t| t.len() as u64).unwrap_or(0);
            let done = self.copy_between(from, TensorLocation::HostDram, bytes, resume);
            self.tensors.migrate(id, TensorLocation::HostDram);
            self.backing.remove(&id);
            self.migrations += 1;
            let entry = released.entry(lease).or_insert((0, done));
            entry.0 += bytes;
            entry.1 = entry.1.max(done);
            resume = resume.max(done);
        }
        for (lease, (bytes, at)) in released {
            // A force-revocation racing the migration means the coordinator
            // already returned the bytes; the migration itself still stands.
            let _ = self.coordinator.release(lease, bytes, at);
        }

        // 2. Promotion: DRAM tensors move back to a peer in the background.
        for id in self.tensors.ids_at(TensorLocation::HostDram) {
            let bytes = self.tensors.get(id).map(|t| t.len() as u64).unwrap_or(0);
            match self.coordinator.allocate(self.gpu, bytes) {
                AllocationSite::Peer { lease, gpu } => {
                    let to = TensorLocation::PeerGpu { gpu: gpu.gpu.0 };
                    let _ = self.copy_between(TensorLocation::HostDram, to, bytes, resume);
                    self.tensors.migrate(id, to);
                    self.backing.insert(id, lease);
                    self.migrations += 1;
                }
                AllocationSite::Dram => break,
            }
        }
        resume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::gpu::{GpuId, GpuSpec};
    use aqua_sim::link::bytes::{gib, mib};

    fn setup(lease_gib: u64) -> (AquaLib, Rc<Coordinator>) {
        let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
        let transfers = Rc::new(RefCell::new(TransferEngine::new()));
        let coord = Rc::new(Coordinator::new());
        if lease_gib > 0 {
            coord.lease(GpuRef::single(GpuId(1)), gib(lease_gib));
        }
        let lib = AquaLib::new(
            GpuRef::single(GpuId(0)),
            Rc::clone(&coord),
            server,
            transfers,
        );
        (lib, coord)
    }

    fn payload(mib_count: usize) -> Arc<[u8]> {
        Arc::from(vec![0x5A; mib_count << 20])
    }

    #[test]
    fn tensors_land_on_peer_when_leased() {
        let (mut lib, coord) = setup(10);
        let (id, done) = lib.to_responsive_tensor(payload(512), SimTime::ZERO);
        assert!(
            done.as_secs_f64() < 0.01,
            "512 MiB over NVLink, done {done}"
        );
        let ptr = lib.to_torch_tensor(id).unwrap();
        assert_eq!(ptr.location(), TensorLocation::PeerGpu { gpu: 1 });
        assert_eq!(coord.used_bytes(), mib(512));
        let (_, peer, dram) = lib.footprint();
        assert_eq!(peer, mib(512));
        assert_eq!(dram, 0);
    }

    #[test]
    fn fallback_to_dram_and_promotion() {
        let (mut lib, coord) = setup(0);
        let (id, _) = lib.to_responsive_tensor(payload(256), SimTime::ZERO);
        assert_eq!(
            lib.to_torch_tensor(id).unwrap().location(),
            TensorLocation::HostDram
        );
        // A producer appears; respond() promotes.
        coord.lease(GpuRef::single(GpuId(1)), gib(4));
        let resume = lib.respond(SimTime::from_secs(1));
        assert_eq!(resume, SimTime::from_secs(1), "promotion is non-blocking");
        assert_eq!(
            lib.to_torch_tensor(id).unwrap().location(),
            TensorLocation::PeerGpu { gpu: 1 }
        );
        assert_eq!(lib.migrations(), 1);
    }

    #[test]
    fn reclaim_migrates_and_blocks() {
        let (mut lib, coord) = setup(4);
        let (id, t0) = lib.to_responsive_tensor(payload(512), SimTime::ZERO);
        let old_ptr = lib.to_torch_tensor(id).unwrap();
        coord.reclaim_request(GpuRef::single(GpuId(1)), t0);
        let resume = lib.respond(t0);
        assert!(resume > t0, "release blocks the consumer");
        // Old pointer is stale; the data moved to DRAM intact.
        assert!(lib.read(old_ptr).is_err());
        let fresh = lib.to_torch_tensor(id).unwrap();
        assert_eq!(fresh.location(), TensorLocation::HostDram);
        assert_eq!(lib.read(fresh).unwrap().len(), 512 << 20);
        // Producer sees the lease released.
        assert!(matches!(
            coord.reclaim_status(GpuRef::single(GpuId(1))),
            crate::coordinator::ReclaimStatus::Released { .. }
        ));
    }

    #[test]
    fn free_returns_lease_capacity() {
        let (mut lib, coord) = setup(1);
        let (a, _) = lib.to_responsive_tensor(payload(600), SimTime::ZERO);
        let (b, _) = lib.to_responsive_tensor(payload(600), SimTime::ZERO);
        // Lease (1 GiB) cannot hold both: the second tensor fell to DRAM.
        assert_eq!(
            lib.to_torch_tensor(b).unwrap().location(),
            TensorLocation::HostDram
        );
        assert_eq!(lib.free(a, SimTime::ZERO), Some(mib(600)));
        assert_eq!(coord.used_bytes(), 0);
        // respond() now promotes b into the freed capacity.
        lib.respond(SimTime::from_secs(1));
        assert_eq!(
            lib.to_torch_tensor(b).unwrap().location(),
            TensorLocation::PeerGpu { gpu: 1 }
        );
        assert_eq!(lib.tensor_count(), 1);
    }

    /// `respond()` serves reclaims in tensor-id order and releases in
    /// lease-id order, so every instance journals the same verbs at the
    /// same times.
    #[test]
    fn respond_order_is_identical_across_instances() {
        use aqua_telemetry::{JournalTracer, TraceEvent};

        let journal_of_fresh_lib = || {
            let server = Rc::new(ServerTopology::nvswitch(4, GpuSpec::a100_80g()));
            let transfers = Rc::new(RefCell::new(TransferEngine::new()));
            let coord = Rc::new(Coordinator::new());
            let journal = Arc::new(JournalTracer::new());
            coord.set_tracer(journal.clone());
            let producers = [GpuRef::single(GpuId(1)), GpuRef::single(GpuId(2))];
            for p in producers {
                coord.lease(p, gib(4));
            }
            let mut lib = AquaLib::new(
                GpuRef::single(GpuId(0)),
                Rc::clone(&coord),
                server,
                transfers,
            );
            // Least-loaded placement alternates the tensors over both leases.
            for n in 1..=6 {
                lib.to_responsive_tensor(payload(n), SimTime::ZERO);
            }
            for p in producers {
                coord.reclaim_request(p, SimTime::ZERO);
            }
            lib.respond(SimTime::from_secs(1));
            journal.events()
        };
        let first = journal_of_fresh_lib();
        let released: Vec<&str> = first
            .iter()
            .map(|e| match e {
                TraceEvent::CoordinatorVerb { verb, detail, .. } if verb == "release" => {
                    detail.as_str()
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            released,
            [
                format!("lease=0 bytes={}", mib(1 + 3 + 5)),
                format!("lease=1 bytes={}", mib(2 + 4 + 6)),
            ]
        );
        for _ in 1..20 {
            assert_eq!(journal_of_fresh_lib(), first);
        }
    }

    #[test]
    fn double_free_returns_none() {
        let (mut lib, _) = setup(1);
        let (id, _) = lib.to_responsive_tensor(payload(1), SimTime::ZERO);
        assert!(lib.free(id, SimTime::ZERO).is_some());
        assert_eq!(lib.free(id, SimTime::ZERO), None);
    }
}
