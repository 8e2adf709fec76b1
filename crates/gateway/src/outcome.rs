//! Request-level failure semantics: the outcome taxonomy, per-tenant
//! deadlines and the deterministic retry budget.
//!
//! The gateway of PR 6 had exactly one request fate — completion. A front
//! door for "millions of users" needs more honesty: requests can be
//! *shed* at the door under overload, *time out* against a tenant SLO,
//! be *crash-aborted* when a GPU loses their KV state, or be *retried*
//! from a bounded backoff budget. [`RequestOutcome`] names those fates,
//! [`SloPolicy`] carries the per-tenant deadlines, `MAX_RETRIES` and
//! `RETRY_BACKOFF` bound recovery, and [`OutcomeLog`] is the ledger the
//! experiments read.
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

/// The fate of one request as seen by the gateway.
///
/// `Retried` is the only non-terminal state: a crash-aborted request with
/// budget left is re-queued and will later resolve to `Completed`,
/// `TimedOut` or a terminal `CrashAborted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Every output token was delivered.
    Completed,
    /// Refused at the door by overload protection.
    ShedAtAdmission(ShedReason),
    /// Cancelled after missing a per-tenant deadline.
    TimedOut(DeadlineKind),
    /// A GPU crash destroyed its state and the retry budget was exhausted.
    CrashAborted,
    /// Crash-aborted but re-queued under the retry budget (non-terminal).
    Retried,
}

impl RequestOutcome {
    /// Stable snake_case label.
    pub fn label(&self) -> &'static str {
        match self {
            RequestOutcome::Completed => "completed",
            RequestOutcome::ShedAtAdmission(_) => "shed_at_admission",
            RequestOutcome::TimedOut(_) => "timed_out",
            RequestOutcome::CrashAborted => "crash_aborted",
            RequestOutcome::Retried => "retried",
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

/// The ledger of request fates, keyed by request id.
#[derive(Debug, Clone, Default)]
pub struct OutcomeLog {
    outcomes: BTreeMap<u64, (u32, RequestOutcome)>,
    retries: BTreeMap<u64, u32>,
}

impl OutcomeLog {
    /// An empty ledger.
    pub fn new() -> Self {
        OutcomeLog::default()
    }

    /// Records the latest outcome for a request. Later notes overwrite
    /// earlier ones: a `Retried` request that finishes ends `Completed`.
    pub fn note(&mut self, id: u64, tenant: u32, outcome: RequestOutcome) {
        self.outcomes.insert(id, (tenant, outcome));
    }

    /// Bumps and returns the 1-based retry attempt count for a request.
    pub fn note_retry(&mut self, id: u64) -> u32 {
        let n = self.retries.entry(id).or_insert(0);
        *n += 1;
        *n
    }

    /// Retry attempts recorded for a request so far.
    #[cfg(test)]
    fn retries_of(&self, id: u64) -> u32 {
        self.retries.get(&id).copied().unwrap_or(0)
    }

    /// The latest outcome of a request, if any was recorded.
    pub fn of(&self, id: u64) -> Option<RequestOutcome> {
        self.outcomes.get(&id).map(|(_, o)| *o)
    }

    /// Number of requests whose latest outcome matches `pred`.
    fn count_where(&self, pred: impl Fn(RequestOutcome) -> bool) -> usize {
        self.outcomes.values().filter(|(_, o)| pred(*o)).count()
    }

    /// Requests shed at admission.
    pub fn shed(&self) -> usize {
        self.count_where(|o| matches!(o, RequestOutcome::ShedAtAdmission(_)))
    }

    /// Requests cancelled on a deadline.
    pub fn timed_out(&self) -> usize {
        self.count_where(|o| matches!(o, RequestOutcome::TimedOut(_)))
    }

    /// Requests terminally crash-aborted.
    pub fn crash_aborted(&self) -> usize {
        self.count_where(|o| matches!(o, RequestOutcome::CrashAborted))
    }

    /// Requests that completed.
    pub fn completed(&self) -> usize {
        self.count_where(|o| matches!(o, RequestOutcome::Completed))
    }

    /// Total retry attempts across all requests.
    pub fn total_retries(&self) -> u64 {
        self.retries.values().map(|&n| u64::from(n)).sum()
    }

    /// Iterates `(id, tenant, outcome)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32, RequestOutcome)> + '_ {
        self.outcomes.iter().map(|(&id, &(t, o))| (id, t, o))
    }

    /// Number of requests with a recorded outcome.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_labels() {
        assert_eq!(RequestOutcome::Completed.label(), "completed");
        assert_eq!(
            RequestOutcome::ShedAtAdmission(ShedReason::KvCost).label(),
            "shed_at_admission"
        );
        assert_eq!(
            RequestOutcome::TimedOut(DeadlineKind::Ttft).label(),
            "timed_out"
        );
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

    #[test]
    fn ledger_overwrites_and_counts() {
        let mut log = OutcomeLog::new();
        log.note(1, 0, RequestOutcome::Retried);
        assert_eq!(log.note_retry(1), 1);
        assert_eq!(log.note_retry(1), 2);
        log.note(1, 0, RequestOutcome::Completed);
        log.note(
            2,
            2,
            RequestOutcome::ShedAtAdmission(ShedReason::QueueDepth),
        );
        log.note(3, 0, RequestOutcome::TimedOut(DeadlineKind::Ttft));
        log.note(4, 0, RequestOutcome::CrashAborted);
        assert_eq!(log.of(1), Some(RequestOutcome::Completed));
        assert_eq!(log.completed(), 1);
        assert_eq!(log.shed(), 1);
        assert_eq!(log.timed_out(), 1);
        assert_eq!(log.crash_aborted(), 1);
        assert_eq!(log.total_retries(), 2);
        assert_eq!(log.retries_of(1), 2);
        assert_eq!(log.retries_of(9), 0);
        assert_eq!(log.len(), 4);
        assert_eq!(log.iter().count(), 4);
    }
}
