//! Request-level failure semantics: per-tenant deadlines, the
//! deterministic retry budget and the counts of how requests ended.
//!
//! Besides completing, a request can be *shed* at the door under overload
//! ([`ShedReason`]), *time out* against a tenant SLO ([`DeadlineKind`],
//! [`SloPolicy`]), or be *crash-aborted* when a GPU loses its KV state,
//! after up to `MAX_RETRIES` re-queues spaced by `RETRY_BACKOFF`. The
//! journal records each fate under the request's id; the gateway keeps
//! only [`OutcomeCounts`].
//!
//! Everything here is plain data with no clocks or randomness of its own;
//! outcome decisions are pure functions of simulation time, so runs remain
//! byte-identical across `--jobs` counts.

use aqua_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Why the gateway refused a request at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue reached its depth watermark.
    QueueDepth,
    /// The request's estimated KV bytes would blow the commit budget.
    KvCost,
    /// A brownout is active and the tenant is capped.
    Brownout,
}

impl ShedReason {
    /// Stable snake_case label (used in trace events and tables).
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueDepth => "queue_depth",
            ShedReason::KvCost => "kv_cost",
            ShedReason::Brownout => "brownout",
        }
    }
}

/// Which deadline a request missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// Time to first token.
    Ttft,
    /// Total latency, arrival to last token.
    Total,
}

impl DeadlineKind {
    /// Stable snake_case label.
    pub fn label(&self) -> &'static str {
        match self {
            DeadlineKind::Ttft => "ttft",
            DeadlineKind::Total => "total",
        }
    }
}

/// Per-tenant latency deadlines. `None` bounds are unenforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantSlo {
    /// Maximum time to first token.
    pub ttft: Option<SimDuration>,
    /// Maximum total latency (arrival to last token).
    pub total: Option<SimDuration>,
}

impl TenantSlo {
    /// No deadlines (batch tenants).
    pub fn none() -> Self {
        TenantSlo::default()
    }

    /// An interactive SLO bounding TTFT and total latency.
    pub fn interactive(ttft: SimDuration, total: SimDuration) -> Self {
        TenantSlo {
            ttft: Some(ttft),
            total: Some(total),
        }
    }

    /// Which deadline (if any) a request has blown at `now`, given its
    /// arrival time and how many tokens it has delivered.
    pub fn missed(&self, arrival: SimTime, generated: u64, now: SimTime) -> Option<DeadlineKind> {
        if generated == 0 {
            if let Some(bound) = self.ttft {
                if now > arrival + bound {
                    return Some(DeadlineKind::Ttft);
                }
            }
        }
        if let Some(bound) = self.total {
            if now > arrival + bound {
                return Some(DeadlineKind::Total);
            }
        }
        None
    }
}

/// The gateway's deadline policy: a default SLO plus per-tenant overrides.
///
/// The default-constructed policy enforces nothing, which keeps the
/// gateway's legacy never-drop semantics unless a deployment opts in.
#[derive(Debug, Clone, Default)]
pub struct SloPolicy {
    default: TenantSlo,
    per_tenant: BTreeMap<u32, TenantSlo>,
}

impl SloPolicy {
    /// No deadlines for anyone.
    pub fn none() -> Self {
        SloPolicy::default()
    }

    /// A policy applying `slo` to every tenant without an override.
    pub fn with_default(slo: TenantSlo) -> Self {
        SloPolicy {
            default: slo,
            per_tenant: BTreeMap::new(),
        }
    }

    /// Overrides the SLO for one tenant.
    pub fn tenant(mut self, tenant: u32, slo: TenantSlo) -> Self {
        self.per_tenant.insert(tenant, slo);
        self
    }

    /// The SLO `tenant` is served under.
    pub fn of(&self, tenant: u32) -> TenantSlo {
        self.per_tenant
            .get(&tenant)
            .copied()
            .unwrap_or(self.default)
    }

    /// Whether any tenant has any deadline (lets the gateway skip the
    /// deadline sweep entirely when the policy is inert).
    pub fn any_deadline(&self) -> bool {
        let has = |s: &TenantSlo| s.ttft.is_some() || s.total.is_some();
        has(&self.default) || self.per_tenant.values().any(has)
    }
}

// Deterministic bounded retry with exponential backoff: a crash-aborted
// request is re-queued at the gateway's recovery step but only becomes
// *eligible* again after `RETRY_BACKOFF.backoff_for(attempt)`
// (`500 ms × 2^(attempt−1)`); after `MAX_RETRIES` failed attempts it is
// terminally crash-aborted. All delays are pure functions of the attempt
// number — no clocks, no jitter — so recovery schedules are identical
// across runs and job counts.

/// How many times a request may be re-queued after crash aborts.
pub(crate) const MAX_RETRIES: u32 = 3;
/// Base backoff before the first retry becomes eligible.
pub(crate) const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// How the gateway's requests ended, as counts. The journal holds each
/// request's fate under its id (`gateway_completed`, `request_shed`,
/// `request_timed_out`, `request_crash_aborted` without a following
/// `request_retried`); the gateway keeps no per-request record once a
/// request ends.
///
/// Once the gateway has no work left, every submission has landed in
/// exactly one of completed, shed, timed out and crash-aborted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    pub(crate) completed: usize,
    pub(crate) shed: usize,
    pub(crate) timed_out: usize,
    pub(crate) crash_aborted: usize,
    pub(crate) retries: u64,
}

impl OutcomeCounts {
    /// Requests shed at admission.
    pub fn shed(&self) -> usize {
        self.shed
    }

    /// Requests cancelled on a deadline.
    pub fn timed_out(&self) -> usize {
        self.timed_out
    }

    /// Requests terminally crash-aborted.
    pub fn crash_aborted(&self) -> usize {
        self.crash_aborted
    }

    /// Requests that completed.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// GPU-crash aborts across all requests, the terminal ones included:
    /// each crash that hits a running sequence counts once.
    pub fn total_retries(&self) -> u64 {
        self.retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_labels() {
        assert_eq!(ShedReason::Brownout.label(), "brownout");
        assert_eq!(DeadlineKind::Total.label(), "total");
    }

    #[test]
    fn slo_missed_distinguishes_ttft_from_total() {
        let slo = TenantSlo::interactive(SimDuration::from_secs(1), SimDuration::from_secs(10));
        let arrival = SimTime::from_secs(5);
        // Within both deadlines.
        assert_eq!(slo.missed(arrival, 0, SimTime::from_secs(6)), None);
        // No token after the TTFT bound.
        assert_eq!(
            slo.missed(arrival, 0, SimTime::from_secs(7)),
            Some(DeadlineKind::Ttft)
        );
        // Tokens flowing, but the total bound passed.
        assert_eq!(
            slo.missed(arrival, 4, SimTime::from_secs(16)),
            Some(DeadlineKind::Total)
        );
        assert_eq!(slo.missed(arrival, 4, SimTime::from_secs(14)), None);
        assert_eq!(TenantSlo::none().missed(arrival, 0, SimTime::MAX), None);
    }

    #[test]
    fn slo_policy_overrides_and_inertness() {
        let inert = SloPolicy::none();
        assert!(!inert.any_deadline());
        let policy = SloPolicy::with_default(TenantSlo::none()).tenant(
            2,
            TenantSlo::interactive(SimDuration::from_secs(1), SimDuration::from_secs(2)),
        );
        assert!(policy.any_deadline());
        assert_eq!(policy.of(0), TenantSlo::none());
        assert!(policy.of(2).ttft.is_some());
    }
}
