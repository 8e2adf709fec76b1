//! # aqua-sim — deterministic multi-GPU server simulator
//!
//! This crate is the hardware substrate for the AQUA reproduction. The paper
//! evaluates AQUA on servers with 2× and 8× NVIDIA A100-80G GPUs connected by
//! direct NVLinks or an NVSwitch fabric, with host DRAM reachable over PCIe.
//! We cannot require that hardware, so this crate models it:
//!
//! * [`time`] — an integer-nanosecond simulation clock ([`SimTime`],
//!   [`SimDuration`]) so every experiment is bit-for-bit deterministic.
//! * [`event`] — a deterministic discrete-event queue with stable FIFO
//!   tie-breaking.
//! * [`link`] — interconnect bandwidth models with the *size-dependent*
//!   effective bandwidth the paper measures in Figure 3a (small transfers on
//!   NVLink are PCIe-slow; peak bandwidth needs multi-megabyte buffers).
//! * [`gpu`] — GPU hardware specifications (A100-80G by default) and
//!   per-server GPU ids.
//! * [`topology`] — server topologies: 2-GPU direct-NVLink, 8-GPU NVSwitch,
//!   and the PCIe path to host DRAM.
//! * [`transfer`] — a port-level transfer engine: each directional port is a
//!   FIFO resource, so concurrent transfers on disjoint ports overlap while
//!   transfers sharing a port serialize (this is how NVSwitch contention and
//!   the Figure 18 stress test are modelled).
//! * [`audit`] — runtime invariant hooks that record typed violations;
//!   [`fault`] — seeded fault plans; [`pdes`] — the conservative parallel
//!   executor's message and lookahead types.
//! * [`hash`] — a multiply-shift hasher for hot integer-keyed maps.
//! * [`rng`] — the seeded generator every workload draws from, and
//!   [`check`](mod@check) — the seeded property-test harness built on it.
//!
//! # Example
//!
//! ```
//! use aqua_sim::prelude::*;
//!
//! // An 8-GPU NVSwitch server like the paper's second testbed.
//! let server = ServerTopology::nvswitch(8, GpuSpec::a100_80g());
//! let path = server.gpu_to_gpu_path(GpuId(0), GpuId(3)).unwrap();
//! // Offloading 1 GiB of KV cache as one coalesced copy:
//! let t = path.model.transfer_time(TransferPlan::coalesced(1 << 30));
//! assert!(t.as_secs_f64() < 0.01); // a few milliseconds over NVLink
//! ```

pub mod audit;
pub mod check;
pub mod event;
pub mod fault;
pub mod gpu;
pub mod hash;
pub mod link;
pub mod pdes;
pub mod rng;
pub mod topology;
pub mod transfer;

// The simulation clock lives in `aqua-telemetry` (the bottom crate of the
// workspace) so trace events can be stamped with `SimTime` without a
// dependency cycle; `aqua_sim::time` remains the canonical path.
pub use aqua_telemetry::time;

pub mod prelude {
    //! Convenience re-exports of the most common simulator types.
    pub use crate::audit::{AuditViolation, Auditor, SharedAuditor};
    pub use crate::event::EventQueue;
    pub use crate::fault::{FaultKind, FaultPlan, FaultWindow, RandomFaultProfile};
    pub use crate::gpu::{GpuId, GpuSpec};
    pub use crate::link::{BandwidthModel, LinkKind};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{LinkPath, PortId, ServerTopology};
    pub use crate::transfer::{TransferEngine, TransferError, TransferPlan};
}

pub use prelude::*;
