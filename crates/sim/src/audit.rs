//! aqua-audit — cross-cutting runtime invariant auditing.
//!
//! The simulator's correctness story is a set of conservation arguments:
//! bytes moved over NVLink/PCIe are never lost, leases are revoked exactly
//! once, a FIFO port never books overlapping transfers. Those invariants
//! are normally checked incidentally (property tests, the chaos bench); this
//! module makes them *continuously* checkable. Components accept a
//! [`SharedAuditor`] and report every suspicious state transition; the
//! auditor records a typed [`AuditViolation`] and journals it as a
//! [`TraceEvent::AuditViolation`].
//!
//! Two properties matter for how the hooks are written:
//!
//! * **Silent when clean.** An audited run that trips no check emits the
//!   exact same event stream as an unaudited one, so its determinism digest
//!   is unchanged and audited runs can be compared digest-for-digest
//!   against any journal on file (`tests/determinism.rs` pins this).
//! * **Violations, not rejections.** The coordinator properly *rejecting*
//!   an illegal verb (a free racing a revocation is protocol-legal and
//!   handled by the failover ladder) is the system working; the audit
//!   flags transitions that would corrupt the books — an over-free of a
//!   live lease (a double free), a second live lease granted to a producer
//!   that already has one, a transfer booked onto a port inside an active
//!   outage window, time running backwards.
//!
//! The invariant catalogue:
//!
//! | check | component | violation |
//! |---|---|---|
//! //! | lease books (used ≤ total on live leases) | coordinator | [`AuditViolation::ByteConservation`] |
//! | no outflow beyond a tracked holding | offloader | [`AuditViolation::ByteConservation`] |
//! | FIFO port booking (start ≥ prior horizon) | `TransferEngine` | [`AuditViolation::PortOverlap`] |
//! | lane accounting (busy time ≤ horizon) | `TransferEngine` | [`AuditViolation::LaneOverCapacity`] |
//! | no bookings onto dead ports | `TransferEngine` × `FaultPlan` | [`AuditViolation::OrphanedTransfer`] |
//! | no over-free of a live lease | coordinator | [`AuditViolation::DoubleFree`] |
//! | no free applied after revocation | coordinator | [`AuditViolation::FreeAfterRevoke`] |
//! | one live lease per producer | coordinator | [`AuditViolation::DoubleGrant`] |
//! | heartbeat / watchdog / event-queue monotonicity | coordinator, driver | [`AuditViolation::TimeRegression`] |
//! | no token after a crash without a restore | gateway × `FaultPlan` | [`AuditViolation::TokenWithoutRestore`] |
//! | no stale-epoch verb mutates the rebuilt book | coordinator | [`AuditViolation::StaleEpochAccepted`] |
//! | no lease honored in two epochs | coordinator | [`AuditViolation::DoubleGrantAcrossEpochs`] |

use crate::time::{SimDuration, SimTime};
use aqua_telemetry::{null_tracer, trace, SharedTracer, TraceEvent};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A broken runtime invariant, observed by an audit hook.
///
/// Coordinator verbs mirror their REST originals and mostly carry no
/// timestamp; violations raised from them stamp `SimTime::ZERO`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// A lease's or an offloader holding's byte books no longer balance.
    ByteConservation {
        /// Which books: `lease:<id>`, `offloader:<consumer>:<holding>`, …
        scope: String,
        /// What the books should say at most.
        expected: u64,
        /// What they actually say.
        actual: u64,
        /// Observation time.
        at: SimTime,
    },
    /// A transfer was booked on a port before its prior booking finished
    /// (the FIFO horizon ran backwards).
    PortOverlap {
        /// The port's label.
        port: String,
        /// The horizon already booked on the port.
        busy_until: SimTime,
        /// The new transfer's start, before that horizon.
        start: SimTime,
    },
    /// A port accumulated more cumulative busy time than its horizon —
    /// more work booked on the lane than wall-clock legality allows.
    LaneOverCapacity {
        /// The port's label.
        port: String,
        /// Cumulative busy time booked.
        busy: SimDuration,
        /// The port's busy horizon.
        horizon: SimTime,
    },
    /// A transfer was booked onto a port inside an active outage window —
    /// bytes handed to a link that cannot deliver them.
    OrphanedTransfer {
        /// The dead port's label.
        port: String,
        /// When the booking happened.
        at: SimTime,
    },
    /// More bytes freed from a live lease than it had in use: a double free.
    DoubleFree {
        /// `free` or `release`.
        scope: String,
        /// Lease id.
        lease: u64,
        /// Bytes actually in use.
        used: u64,
        /// Bytes the caller tried to hand back.
        requested: u64,
        /// Observation time (`ZERO` for untimestamped verbs).
        at: SimTime,
    },
    /// A free/release mutated a lease after its revocation.
    FreeAfterRevoke {
        /// `free` or `release`.
        scope: String,
        /// Lease id.
        lease: u64,
        /// Observation time (`ZERO` for untimestamped verbs).
        at: SimTime,
    },
    /// A producer ended up with two live non-reclaiming leases (grants must
    /// merge into the existing lease instead).
    DoubleGrant {
        /// Producer GPU label.
        producer: String,
        /// The newly granted lease id.
        lease: u64,
    },
    /// A gateway delivered an output token for a sequence whose KV state
    /// was destroyed by a GPU crash, without first journalling a
    /// `request_restored` event — serving from memory that no longer exists.
    TokenWithoutRestore {
        /// Gateway scope label.
        gateway: String,
        /// The crashed request that produced a token.
        request: u64,
        /// When the illegal token was delivered.
        at: SimTime,
    },
    /// A control verb carrying an epoch older than the coordinator's
    /// mutated the rebuilt lease book instead of being fenced off — the
    /// epoch fence was bypassed.
    StaleEpochAccepted {
        /// The verb that slipped past the fence (`free`, `resync`, …).
        scope: String,
        /// The epoch the caller held.
        held: u64,
        /// The epoch in force when the mutation landed.
        current: u64,
        /// Observation time (`ZERO` for untimestamped verbs).
        at: SimTime,
    },
    /// A producer's donation ended up granted in two epochs at once: a
    /// pre-crash grant survived (or was merged back) alongside the
    /// post-recovery re-registration — the split-brain double grant epoch
    /// fencing exists to make structurally impossible.
    DoubleGrantAcrossEpochs {
        /// Producer GPU label.
        producer: String,
        /// The lease granted in the stale epoch.
        lease: u64,
        /// The epoch the stale grant belongs to.
        prior_epoch: u64,
        /// The epoch in force.
        epoch: u64,
    },
    /// A timestamped sequence ran backwards (heartbeats, watchdog sweeps,
    /// the driver's event queue).
    TimeRegression {
        /// Which clock: `driver.events`, `coordinator.advance`, …
        scope: String,
        /// The later timestamp seen first.
        prev: SimTime,
        /// The earlier timestamp seen second.
        next: SimTime,
    },
}

impl AuditViolation {
    /// Stable snake_case discriminator (the `kind` field of the journal
    /// event).
    pub fn kind(&self) -> &'static str {
        match self {
            AuditViolation::ByteConservation { .. } => "byte_conservation",
            AuditViolation::PortOverlap { .. } => "port_overlap",
            AuditViolation::LaneOverCapacity { .. } => "lane_over_capacity",
            AuditViolation::OrphanedTransfer { .. } => "orphaned_transfer",
            AuditViolation::DoubleFree { .. } => "double_free",
            AuditViolation::FreeAfterRevoke { .. } => "free_after_revoke",
            AuditViolation::DoubleGrant { .. } => "double_grant",
            AuditViolation::TokenWithoutRestore { .. } => "token_without_restore",
            AuditViolation::StaleEpochAccepted { .. } => "stale_epoch_accepted",
            AuditViolation::DoubleGrantAcrossEpochs { .. } => "double_grant_across_epochs",
            AuditViolation::TimeRegression { .. } => "time_regression",
        }
    }

    /// The component whose books broke.
    pub fn scope(&self) -> String {
        match self {
            AuditViolation::ByteConservation { scope, .. } => scope.clone(),
            AuditViolation::PortOverlap { port, .. }
            | AuditViolation::LaneOverCapacity { port, .. }
            | AuditViolation::OrphanedTransfer { port, .. } => format!("port:{port}"),
            AuditViolation::DoubleFree { scope, .. }
            | AuditViolation::FreeAfterRevoke { scope, .. } => format!("coordinator.{scope}"),
            AuditViolation::DoubleGrant { .. } => "coordinator.lease".to_owned(),
            AuditViolation::TokenWithoutRestore { gateway, .. } => format!("gateway:{gateway}"),
            AuditViolation::StaleEpochAccepted { scope, .. } => format!("coordinator.{scope}"),
            AuditViolation::DoubleGrantAcrossEpochs { .. } => "coordinator.lease".to_owned(),
            AuditViolation::TimeRegression { scope, .. } => scope.clone(),
        }
    }

    /// When the violation was observed (`ZERO` for untimestamped verbs).
    pub fn at(&self) -> SimTime {
        match self {
            AuditViolation::ByteConservation { at, .. }
            | AuditViolation::OrphanedTransfer { at, .. }
            | AuditViolation::DoubleFree { at, .. }
            | AuditViolation::FreeAfterRevoke { at, .. }
            | AuditViolation::TokenWithoutRestore { at, .. }
            | AuditViolation::StaleEpochAccepted { at, .. } => *at,
            AuditViolation::PortOverlap { start, .. } => *start,
            AuditViolation::LaneOverCapacity { horizon, .. } => *horizon,
            AuditViolation::DoubleGrant { .. } | AuditViolation::DoubleGrantAcrossEpochs { .. } => {
                SimTime::ZERO
            }
            AuditViolation::TimeRegression { next, .. } => *next,
        }
    }

    fn detail(&self) -> String {
        match self {
            AuditViolation::ByteConservation {
                expected, actual, ..
            } => format!("books say {actual} bytes, legality bound is {expected}"),
            AuditViolation::PortOverlap {
                busy_until, start, ..
            } => format!(
                "booked at {}ns before the horizon {}ns cleared",
                start.as_nanos(),
                busy_until.as_nanos()
            ),
            AuditViolation::LaneOverCapacity { busy, horizon, .. } => format!(
                "{}ns busy inside a {}ns horizon",
                busy.as_nanos(),
                horizon.as_nanos()
            ),
            AuditViolation::OrphanedTransfer { at, .. } => {
                format!("transfer booked onto a dead port at {}ns", at.as_nanos())
            }
            AuditViolation::DoubleFree {
                lease,
                used,
                requested,
                ..
            } => format!("lease {lease} freed {requested} bytes with only {used} in use"),
            AuditViolation::FreeAfterRevoke { lease, .. } => {
                format!("lease {lease} mutated after revocation")
            }
            AuditViolation::DoubleGrant { producer, lease } => {
                format!("second live lease {lease} granted to {producer}")
            }
            AuditViolation::TokenWithoutRestore { request, at, .. } => format!(
                "request {request} delivered a token at {}ns after a crash with no restore event",
                at.as_nanos()
            ),
            AuditViolation::StaleEpochAccepted { held, current, .. } => {
                format!("epoch-{held} verb mutated the epoch-{current} book unfenced")
            }
            AuditViolation::DoubleGrantAcrossEpochs {
                producer,
                lease,
                prior_epoch,
                epoch,
            } => format!(
                "{producer} holds lease {lease} from epoch {prior_epoch} inside the epoch-{epoch} \
                 book"
            ),
            AuditViolation::TimeRegression { prev, next, .. } => format!(
                "clock ran backwards: {}ns after {}ns",
                next.as_nanos(),
                prev.as_nanos()
            ),
        }
    }

    /// The journal representation of this violation.
    fn to_event(&self) -> TraceEvent {
        TraceEvent::AuditViolation {
            kind: self.kind().to_owned(),
            scope: self.scope(),
            detail: self.detail(),
            at: self.at(),
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {}: {}", self.kind(), self.scope(), self.detail())
    }
}

/// The shared violation collector components report into.
///
/// Cheap to clone (always handed around as a [`SharedAuditor`]) and, like
/// the simulator it audits, single-threaded: every component of one run
/// shares it on that run's thread. A component with no auditor attached
/// pays one `Option` test per hook — the hooks stay out of the untraced hot
/// path entirely.
#[derive(Debug)]
pub struct Auditor {
    tracer: SharedTracer,
    violations: RefCell<Vec<AuditViolation>>,
}

/// How audited components hold their auditor.
pub type SharedAuditor = Rc<Auditor>;

impl Default for Auditor {
    fn default() -> Self {
        Auditor {
            tracer: null_tracer(),
            violations: RefCell::new(Vec::new()),
        }
    }
}

impl Auditor {
    /// A fresh auditor journalling violations to `tracer`.
    pub fn with_tracer(tracer: SharedTracer) -> SharedAuditor {
        Rc::new(Auditor {
            tracer,
            violations: RefCell::new(Vec::new()),
        })
    }

    /// A fresh auditor that only collects (no journalling).
    pub fn collecting() -> SharedAuditor {
        Rc::new(Auditor::default())
    }

    /// Records a violation and journals it as a trace event.
    pub fn record(&self, v: AuditViolation) {
        trace!(self.tracer, v.to_event());
        self.violations.borrow_mut().push(v);
    }

    /// `true` while no check has tripped.
    pub fn is_clean(&self) -> bool {
        self.violations.borrow().is_empty()
    }

    /// Number of violations recorded so far.
    pub fn count(&self) -> usize {
        self.violations.borrow().len()
    }

    /// Snapshot of every recorded violation, in observation order.
    pub fn violations(&self) -> Vec<AuditViolation> {
        self.violations.borrow().clone()
    }

    /// The first violation, if any (what a shrinker reproduces).
    pub fn first(&self) -> Option<AuditViolation> {
        self.violations.borrow().first().cloned()
    }

    /// Monotonicity check: `next` must not precede `prev`.
    pub fn check_monotonic(&self, scope: &str, prev: SimTime, next: SimTime) {
        if next < prev {
            self.record(AuditViolation::TimeRegression {
                scope: scope.to_owned(),
                prev,
                next,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_telemetry::JournalTracer;
    use std::sync::Arc;

    #[test]
    fn clean_auditor_reports_clean() {
        let a = Auditor::collecting();
        assert!(a.is_clean());
        assert_eq!(a.count(), 0);
        assert!(a.first().is_none());
    }

    #[test]
    fn violations_are_recorded_in_order_and_journalled() {
        let journal = Arc::new(JournalTracer::new());
        let a = Auditor::with_tracer(journal.clone());
        a.record(AuditViolation::DoubleGrant {
            producer: "gpu1".into(),
            lease: 7,
        });
        a.record(AuditViolation::TimeRegression {
            scope: "driver.events".into(),
            prev: SimTime::from_secs(2),
            next: SimTime::from_secs(1),
        });
        assert_eq!(a.count(), 2);
        assert!(!a.is_clean());
        assert_eq!(a.first().unwrap().kind(), "double_grant");
        let lines = journal.to_jsonl();
        assert_eq!(lines.matches("audit_violation").count(), 2);
        assert!(lines.contains("double_grant"));
        assert!(lines.contains("time_regression"));
    }

    #[test]
    fn monotonic_check_flags_backwards_time() {
        let a = Auditor::collecting();
        a.check_monotonic("t", SimTime::from_secs(1), SimTime::from_secs(1));
        a.check_monotonic("t", SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(a.is_clean());
        a.check_monotonic("t", SimTime::from_secs(3), SimTime::from_secs(2));
        assert_eq!(a.count(), 1);
        assert_eq!(a.first().unwrap().kind(), "time_regression");
    }

    #[test]
    fn violation_display_is_informative() {
        let v = AuditViolation::DoubleFree {
            scope: "free".into(),
            lease: 3,
            used: 10,
            requested: 20,
            at: SimTime::ZERO,
        };
        let s = v.to_string();
        assert!(s.contains("double_free"));
        assert!(s.contains("lease 3"));
    }
}
