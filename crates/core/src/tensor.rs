//! AQUA TENSORS: migratable, location-transparent tensors (§3, §B).
//!
//! The paper wraps PyTorch tensors so their physical location (this GPU, a
//! peer GPU, or host DRAM) can change between inference iterations without
//! the model noticing: `to_responsive_tensor(torch_tensor)` wraps,
//! `to_torch_tensor()` resolves the *current* pointer, and `aqua.respond()`
//! is the iteration boundary at which migrations happen. In this crate
//! `aqua.respond()` is [`AquaOffloader`]'s [`on_iteration_boundary`]: it
//! blocks while releasing a reclaimed lease and promotes DRAM-resident
//! context back to a peer in the background. This table models the
//! pointer contract. "If a tensor is migrated while a pointer to the
//! previous location of the tensor is in use … it can lead to issues
//! similar to segmentation faults" — we reproduce that contract with a
//! generation counter: a [`TensorRef`] taken before a migration is *stale*
//! afterwards, and dereferencing it is an error instead of a segfault.
//!
//! [`AquaOffloader`]: crate::offloader::AquaOffloader
//! [`on_iteration_boundary`]: aqua_engines::offload::Offloader::on_iteration_boundary

use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of one AQUA tensor within a [`TensorTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(pub u64);

/// Physical location of an AQUA tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorLocation {
    /// Resident in the owning GPU's HBM (paged in for compute).
    LocalHbm,
    /// Offloaded to a peer GPU's HBM over the fabric.
    PeerGpu {
        /// Index of the peer GPU within the server.
        gpu: usize,
    },
    /// Offloaded to host DRAM over PCIe.
    HostDram,
}

impl std::fmt::Display for TensorLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorLocation::LocalHbm => f.write_str("local-hbm"),
            TensorLocation::PeerGpu { gpu } => write!(f, "peer-gpu{gpu}"),
            TensorLocation::HostDram => f.write_str("host-dram"),
        }
    }
}

/// A migratable tensor: payload plus current location and generation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AquaTensor {
    payload: Arc<[u8]>,
    location: TensorLocation,
    generation: u64,
}

/// A resolved pointer to a tensor, valid until the next migration — the
/// `to_torch_tensor()` result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorRef {
    id: TensorId,
    generation: u64,
    location: TensorLocation,
}

impl TensorRef {
    /// Where the pointer pointed when it was taken.
    pub fn location(&self) -> TensorLocation {
        self.location
    }
}

/// Error dereferencing a stale [`TensorRef`] after a migration (the safe
/// analogue of the paper's "issues similar to segmentation faults").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleTensorRef {
    /// The tensor whose pointer went stale.
    pub id: TensorId,
    /// Generation the reference was taken at.
    pub ref_generation: u64,
    /// The tensor's current generation.
    pub current_generation: u64,
}

impl std::fmt::Display for StaleTensorRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale reference to tensor {:?}: taken at generation {}, tensor is at {}",
            self.id, self.ref_generation, self.current_generation
        )
    }
}

impl std::error::Error for StaleTensorRef {}

/// The per-consumer table of AQUA tensors.
///
/// # Example
///
/// ```
/// use aqua_core::tensor::{TensorLocation, TensorTable};
/// use std::sync::Arc;
///
/// let mut table = TensorTable::new();
/// let id = table.to_responsive_tensor(Arc::from(&b"kv-cache"[..]), TensorLocation::LocalHbm);
/// let ptr = table.to_torch_tensor(id).unwrap();
///
/// // aqua.respond(): AQUA migrates the tensor to the peer GPU.
/// table.migrate(id, TensorLocation::PeerGpu { gpu: 1 });
///
/// // The old pointer is now stale — an error, not a segfault.
/// assert!(table.read(ptr).is_err());
/// // Re-resolving yields a fresh, usable pointer with intact data.
/// let fresh = table.to_torch_tensor(id).unwrap();
/// assert_eq!(table.read(fresh).unwrap(), Arc::from(&b"kv-cache"[..]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TensorTable {
    next: u64,
    tensors: BTreeMap<TensorId, AquaTensor>,
}

impl TensorTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a payload as an AQUA tensor (`to_responsive_tensor`).
    pub fn to_responsive_tensor(
        &mut self,
        payload: Arc<[u8]>,
        location: TensorLocation,
    ) -> TensorId {
        let id = TensorId(self.next);
        self.next += 1;
        self.tensors.insert(
            id,
            AquaTensor {
                payload,
                location,
                generation: 0,
            },
        );
        id
    }

    /// Resolves the current pointer for a tensor (`to_torch_tensor`).
    pub fn to_torch_tensor(&self, id: TensorId) -> Option<TensorRef> {
        self.tensors.get(&id).map(|t| TensorRef {
            id,
            generation: t.generation,
            location: t.location,
        })
    }

    /// Reads payload through a resolved pointer.
    ///
    /// # Errors
    ///
    /// Returns [`StaleTensorRef`] if the tensor migrated after the reference
    /// was taken.
    pub fn read(&self, r: TensorRef) -> Result<Arc<[u8]>, StaleTensorRef> {
        let t = self.tensors.get(&r.id).ok_or(StaleTensorRef {
            id: r.id,
            ref_generation: r.generation,
            current_generation: u64::MAX,
        })?;
        if t.generation != r.generation {
            return Err(StaleTensorRef {
                id: r.id,
                ref_generation: r.generation,
                current_generation: t.generation,
            });
        }
        Ok(t.payload.clone())
    }

    /// Moves a tensor to a new location, bumping its generation (what an
    /// `aqua.respond()` migration does). Payload is preserved.
    ///
    /// Returns the bytes moved, or `None` for an unknown id. Migrating to
    /// the current location is a no-op that does not invalidate pointers.
    pub fn migrate(&mut self, id: TensorId, to: TensorLocation) -> Option<u64> {
        let t = self.tensors.get_mut(&id)?;
        if t.location == to {
            return Some(0);
        }
        t.location = to;
        t.generation += 1;
        Some(t.payload.len() as u64)
    }

    /// Frees a tensor, returning its size in bytes.
    #[cfg(test)]
    fn free(&mut self, id: TensorId) -> Option<u64> {
        self.tensors.remove(&id).map(|t| t.payload.len() as u64)
    }

    /// Total bytes stored at `location`.
    #[cfg(test)]
    fn bytes_at(&self, location: TensorLocation) -> u64 {
        self.tensors
            .values()
            .filter(|t| t.location == location)
            .map(|t| t.payload.len() as u64)
            .sum()
    }

    /// Ids of tensors currently stored at `location`, in id order.
    #[cfg(test)]
    fn ids_at(&self, location: TensorLocation) -> Vec<TensorId> {
        self.tensors
            .iter()
            .filter(|(_, t)| t.location == location)
            .map(|(&id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Arc<[u8]> {
        Arc::from(vec![0xAB; n])
    }

    #[test]
    fn wrap_resolve_read() {
        let mut t = TensorTable::new();
        let id = t.to_responsive_tensor(payload(64), TensorLocation::LocalHbm);
        let r = t.to_torch_tensor(id).unwrap();
        assert_eq!(r.location(), TensorLocation::LocalHbm);
        assert_eq!(t.read(r).unwrap().len(), 64);
        assert_eq!(t.tensors[&id].generation, 0);
    }

    #[test]
    fn migration_invalidates_old_pointers() {
        let mut t = TensorTable::new();
        let id = t.to_responsive_tensor(payload(10), TensorLocation::LocalHbm);
        let old = t.to_torch_tensor(id).unwrap();
        assert_eq!(t.migrate(id, TensorLocation::PeerGpu { gpu: 1 }), Some(10));
        let err = t.read(old).unwrap_err();
        assert_eq!(err.ref_generation, 0);
        assert_eq!(err.current_generation, 1);
        assert!(!err.to_string().is_empty());
        // Fresh pointer works and sees the new location with intact payload.
        let fresh = t.to_torch_tensor(id).unwrap();
        assert_eq!(fresh.location(), TensorLocation::PeerGpu { gpu: 1 });
        assert_eq!(t.read(fresh).unwrap(), payload(10));
    }

    #[test]
    fn noop_migration_keeps_pointers_valid() {
        let mut t = TensorTable::new();
        let id = t.to_responsive_tensor(payload(5), TensorLocation::HostDram);
        let r = t.to_torch_tensor(id).unwrap();
        assert_eq!(t.migrate(id, TensorLocation::HostDram), Some(0));
        assert!(t.read(r).is_ok());
    }

    #[test]
    fn free_and_accounting() {
        let mut t = TensorTable::new();
        let a = t.to_responsive_tensor(payload(100), TensorLocation::PeerGpu { gpu: 1 });
        let b = t.to_responsive_tensor(payload(50), TensorLocation::HostDram);
        assert_eq!(t.bytes_at(TensorLocation::PeerGpu { gpu: 1 }), 100);
        assert_eq!(t.bytes_at(TensorLocation::HostDram), 50);
        assert_eq!(t.ids_at(TensorLocation::HostDram), vec![b]);
        assert_eq!(t.free(a), Some(100));
        assert_eq!(t.free(a), None, "double free returns None");
        assert_eq!(t.tensors.len(), 1);
    }

    #[test]
    fn read_after_free_is_stale() {
        let mut t = TensorTable::new();
        let id = t.to_responsive_tensor(payload(1), TensorLocation::LocalHbm);
        let r = t.to_torch_tensor(id).unwrap();
        t.free(id);
        assert!(t.read(r).is_err());
        assert!(t.to_torch_tensor(id).is_none());
    }

    aqua_sim::check! {
        /// Payload bytes survive arbitrary migration sequences, and stale
        /// references never read successfully.
        #[test]
        fn payload_survives_migrations(locs in aqua_sim::check::vec(0u8..3, 1..50)) {
            let mut t = TensorTable::new();
            let data: Arc<[u8]> = Arc::from(vec![7u8; 123]);
            let id = t.to_responsive_tensor(data.clone(), TensorLocation::LocalHbm);
            for l in locs {
                let before = t.to_torch_tensor(id).unwrap();
                let to = match l {
                    0 => TensorLocation::LocalHbm,
                    1 => TensorLocation::PeerGpu { gpu: 1 },
                    _ => TensorLocation::HostDram,
                };
                let moved = t.migrate(id, to).unwrap();
                if moved > 0 {
                    assert!(t.read(before).is_err());
                } else {
                    assert!(t.read(before).is_ok());
                }
                let after = t.to_torch_tensor(id).unwrap();
                assert_eq!(t.read(after).unwrap(), data.clone());
            }
        }
    }
}
