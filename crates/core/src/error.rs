//! Typed control-plane errors.
//!
//! The coordinator's verbs used to panic on any abnormal state; a production
//! control plane cannot. [`AquaError`] covers every fallible control-plane
//! path in this crate — unknown/revoked leases, double frees, stale
//! epochs, a coordinator that is down — while true invariant violations
//! (e.g. a placer pairing two GPUs on different servers) remain panics.

use crate::coordinator::LeaseId;

/// A control-plane failure that callers are expected to handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AquaError {
    /// The lease id is not (or no longer) known to the coordinator.
    UnknownLease(LeaseId),
    /// The lease was revoked (reclaim completed, heartbeat expiry, or a
    /// forced revocation) before the call arrived.
    LeaseRevoked(LeaseId),
    /// A free/release exceeded the bytes actually in use on the lease.
    OverFree {
        /// The offending lease.
        lease: LeaseId,
        /// Bytes in use when the call arrived.
        used: u64,
        /// Bytes the caller tried to return.
        requested: u64,
    },
    /// The verb carried an epoch older than the coordinator's current one
    /// — the caller's view predates a crash/recovery fence and must be
    /// resynced before any mutation is accepted.
    StaleEpoch {
        /// The epoch the caller held.
        held: u64,
        /// The epoch in force at the coordinator.
        current: u64,
    },
    /// The coordinator process is down (crashed, rebuild not complete).
    ServiceUnavailable,
}

impl std::fmt::Display for AquaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AquaError::UnknownLease(lease) => write!(f, "unknown lease {lease}"),
            AquaError::LeaseRevoked(lease) => write!(f, "lease {lease} is revoked"),
            AquaError::OverFree {
                lease,
                used,
                requested,
            } => write!(
                f,
                "over-free on lease {lease}: {requested} bytes requested, {used} in use"
            ),
            AquaError::StaleEpoch { held, current } => {
                write!(f, "stale epoch {held} (coordinator is at epoch {current})")
            }
            AquaError::ServiceUnavailable => write!(f, "coordinator service unavailable"),
        }
    }
}

impl std::error::Error for AquaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        use crate::coordinator::{Coordinator, GpuRef};
        use aqua_sim::gpu::GpuId;

        // The first lease a coordinator mints has id 0; errors print the
        // bare id, not the epoch the handle carries.
        let lease = Coordinator::new().lease(GpuRef::single(GpuId(1)), 10);
        let e = AquaError::OverFree {
            lease,
            used: 10,
            requested: 12,
        };
        let s = e.to_string();
        assert!(
            s.contains("lease 0") && s.contains("12") && s.contains("10"),
            "{s}"
        );
        assert!(AquaError::ServiceUnavailable
            .to_string()
            .contains("unavailable"));
        assert_eq!(
            AquaError::UnknownLease(lease).to_string(),
            "unknown lease 0"
        );
        assert!(AquaError::StaleEpoch {
            held: 1,
            current: 2
        }
        .to_string()
        .contains("stale epoch 1"));
    }
}
