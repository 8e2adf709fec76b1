//! Tenant-aware admission control and overload protection.
//!
//! Two layers of defense live here:
//!
//! * **Pacing.** Capping each tenant's outstanding (admitted-but-unfinished)
//!   requests keeps a backlog tenant — e.g. batch long-prompt jobs submitted
//!   all at once — from claiming every KV block the moment the pool has
//!   room, which is what protects interactive tenants' TTFT. Pacing never
//!   drops a request; it only decides *when* queued work becomes eligible.
//! * **Shedding.** Under genuine overload, pacing is not enough: an
//!   unbounded queue turns every SLO into a lie. An opt-in
//!   [`OverloadPolicy`] refuses requests at the door once the queue passes a
//!   depth watermark or the estimated KV commitment passes a byte budget,
//!   and a hysteresis-gated *brownout* tightens the caps of designated
//!   (batch) tenants before chat SLOs break.
//!
//! The default-constructed policy enforces nothing, preserving the
//! never-drop semantics every pre-existing gateway test assumes.

use crate::outcome::ShedReason;
use std::collections::BTreeMap;

/// Opt-in overload-protection thresholds. The default polices nothing.
#[derive(Debug, Clone, Default)]
pub struct OverloadPolicy {
    /// Shed arrivals once the admission queue reaches this depth.
    pub queue_watermark: Option<usize>,
    /// Shed arrivals whose estimated KV bytes would push the total
    /// committed estimate (queued + running) past this budget.
    pub kv_commit_bytes: Option<u64>,
    /// Brownout mode: tighten designated tenants' caps under pressure.
    pub brownout: Option<BrownoutConfig>,
}

/// Brownout: when the admission queue is deep, capped (batch) tenants are
/// throttled to a tighter outstanding cap and their new arrivals are shed,
/// spending batch throughput to keep interactive SLOs alive. Enter/exit
/// depths form a hysteresis band so the mode does not flap.
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Queue depth at or above which brownout engages.
    pub enter_depth: usize,
    /// Queue depth at or below which brownout clears (must be below
    /// `enter_depth` for useful hysteresis).
    pub exit_depth: usize,
    /// Tenants subject to brownout throttling.
    pub capped_tenants: Vec<u32>,
    /// Outstanding cap applied to capped tenants while browned out (0
    /// pauses new admissions entirely; already-running work continues).
    pub capped_outstanding: usize,
}

/// Per-tenant outstanding-request caps plus overload protection.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    /// Maximum admitted-but-unfinished requests per tenant.
    max_outstanding: usize,
    outstanding: BTreeMap<u32, usize>,
    overload: OverloadPolicy,
    brownout_active: bool,
    /// Estimated KV bytes committed to accepted-but-unretired requests,
    /// maintained as a running counter (`commit_bytes`/`release_bytes`)
    /// instead of being re-derived by a queue scan.
    committed_bytes: u64,
}

impl AdmissionController {
    /// A controller allowing each tenant `max_outstanding` requests in
    /// flight at once.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero (that would deadlock every
    /// tenant).
    pub fn new(max_outstanding: usize) -> Self {
        assert!(max_outstanding > 0, "a zero cap would starve every tenant");
        AdmissionController {
            max_outstanding,
            outstanding: BTreeMap::new(),
            overload: OverloadPolicy::default(),
            brownout_active: false,
            committed_bytes: 0,
        }
    }

    /// Installs an overload-protection policy.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// The installed overload policy.
    pub fn overload(&self) -> &OverloadPolicy {
        &self.overload
    }

    /// The cap currently applied to `tenant`.
    fn cap_of(&self, tenant: u32) -> usize {
        if self.brownout_active {
            if let Some(b) = &self.overload.brownout {
                if b.capped_tenants.contains(&tenant) {
                    return b.capped_outstanding.min(self.max_outstanding);
                }
            }
        }
        self.max_outstanding
    }

    /// Whether `tenant` may have another request scheduled right now.
    pub fn eligible(&self, tenant: u32) -> bool {
        self.outstanding.get(&tenant).copied().unwrap_or(0) < self.cap_of(tenant)
    }

    /// Records an admission for `tenant`.
    pub fn on_admit(&mut self, tenant: u32) {
        *self.outstanding.entry(tenant).or_insert(0) += 1;
    }

    /// Records a completion for `tenant`.
    ///
    /// Saturating: a completion for an unknown tenant, or a double
    /// completion, leaves the books at zero instead of panicking — a
    /// crash-recovery path that retires the same request twice must not
    /// take the whole gateway down with it.
    pub fn on_complete(&mut self, tenant: u32) {
        if let Some(n) = self.outstanding.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
    }

    /// Outstanding requests for `tenant`.
    pub fn outstanding(&self, tenant: u32) -> usize {
        self.outstanding.get(&tenant).copied().unwrap_or(0)
    }

    /// Records `est_bytes` of estimated KV commitment for an accepted
    /// request.
    pub fn commit_bytes(&mut self, est_bytes: u64) {
        self.committed_bytes = self.committed_bytes.saturating_add(est_bytes);
    }

    /// Releases `est_bytes` of estimated KV commitment when a request
    /// retires (or is timed out of the queue).
    pub fn release_bytes(&mut self, est_bytes: u64) {
        self.committed_bytes = self.committed_bytes.saturating_sub(est_bytes);
    }

    /// Estimated KV bytes currently committed to queued + running work.
    #[cfg(test)]
    fn committed_bytes(&self) -> u64 {
        self.committed_bytes
    }

    /// Admission-time shed decision for a new arrival from `tenant`, given
    /// the current queue depth and the arrival's estimated KV bytes; the
    /// committed-bytes side of the KV-budget check reads this controller's
    /// running counter. Returns `None` when the request should be accepted.
    pub fn shed_reason(
        &self,
        tenant: u32,
        queue_depth: usize,
        est_bytes: u64,
    ) -> Option<ShedReason> {
        if self.brownout_active {
            if let Some(b) = &self.overload.brownout {
                if b.capped_tenants.contains(&tenant) {
                    return Some(ShedReason::Brownout);
                }
            }
        }
        if let Some(watermark) = self.overload.queue_watermark {
            if queue_depth >= watermark {
                return Some(ShedReason::QueueDepth);
            }
        }
        if let Some(budget) = self.overload.kv_commit_bytes {
            if self.committed_bytes.saturating_add(est_bytes) > budget {
                return Some(ShedReason::KvCost);
            }
        }
        None
    }

    /// Advances the brownout hysteresis against the current queue depth.
    /// Returns `Some(new_state)` on a transition so the gateway can journal
    /// it, `None` when the state is unchanged.
    pub fn update_brownout(&mut self, queue_depth: usize) -> Option<bool> {
        let transition = self.brownout_transition(queue_depth);
        if let Some(active) = transition {
            self.brownout_active = active;
        }
        transition
    }

    /// The transition [`update_brownout`](Self::update_brownout) would
    /// make at `queue_depth`, without making it.
    pub fn brownout_transition(&self, queue_depth: usize) -> Option<bool> {
        let b = self.overload.brownout.as_ref()?;
        if !self.brownout_active && queue_depth >= b.enter_depth {
            Some(true)
        } else if self.brownout_active && queue_depth <= b.exit_depth {
            Some(false)
        } else {
            None
        }
    }

    /// Whether brownout mode is currently engaged.
    pub fn brownout_active(&self) -> bool {
        self.brownout_active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_gates_eligibility() {
        let mut a = AdmissionController::new(2);
        assert!(a.eligible(0));
        a.on_admit(0);
        a.on_admit(0);
        assert!(!a.eligible(0), "tenant 0 is at its cap");
        assert!(a.eligible(1), "caps are per tenant");
        a.on_complete(0);
        assert!(a.eligible(0));
        assert_eq!(a.outstanding(0), 1);
        assert_eq!(a.outstanding(9), 0);
    }

    #[test]
    #[should_panic(expected = "starve")]
    fn zero_cap_rejected() {
        AdmissionController::new(0);
    }

    #[test]
    fn unmatched_completion_saturates_instead_of_panicking() {
        let mut a = AdmissionController::new(1);
        // Unknown tenant: no admission was ever recorded.
        a.on_complete(3);
        assert_eq!(a.outstanding(3), 0);
        // Double complete: the second retire is a no-op, not an underflow.
        a.on_admit(0);
        a.on_complete(0);
        a.on_complete(0);
        assert_eq!(a.outstanding(0), 0);
        assert!(a.eligible(0));
    }

    #[test]
    fn shed_reasons_fire_in_order() {
        let mut a = AdmissionController::new(4).with_overload(OverloadPolicy {
            queue_watermark: Some(10),
            kv_commit_bytes: Some(1000),
            brownout: None,
        });
        a.commit_bytes(100);
        assert_eq!(a.committed_bytes(), 100);
        assert_eq!(a.shed_reason(0, 3, 100), None);
        assert_eq!(a.shed_reason(0, 10, 100), Some(ShedReason::QueueDepth));
        a.commit_bytes(400);
        assert_eq!(a.shed_reason(0, 3, 600), Some(ShedReason::KvCost));
        // Releasing the commitment re-opens the budget.
        a.release_bytes(400);
        assert_eq!(a.shed_reason(0, 3, 600), None);
        // Release saturates rather than underflowing.
        a.release_bytes(u64::MAX);
        assert_eq!(a.committed_bytes(), 0);
        let unprotected = AdmissionController::new(4);
        assert_eq!(unprotected.shed_reason(0, usize::MAX, u64::MAX), None);
    }

    #[test]
    fn brownout_hysteresis_caps_and_sheds_batch() {
        let mut a = AdmissionController::new(4).with_overload(OverloadPolicy {
            queue_watermark: None,
            kv_commit_bytes: None,
            brownout: Some(BrownoutConfig {
                enter_depth: 8,
                exit_depth: 2,
                capped_tenants: vec![2],
                capped_outstanding: 1,
            }),
        });
        assert!(!a.brownout_active());
        assert_eq!(a.update_brownout(7), None, "below the enter depth");
        assert_eq!(a.update_brownout(8), Some(true));
        assert!(a.brownout_active());
        assert_eq!(a.update_brownout(9), None, "already engaged");
        // Capped tenant: tighter cap and arrivals shed; others untouched.
        a.on_admit(2);
        assert!(!a.eligible(2), "browned-out cap of 1 is full");
        assert!(a.eligible(0));
        assert_eq!(a.shed_reason(2, 5, 0), Some(ShedReason::Brownout));
        assert_eq!(a.shed_reason(0, 5, 0), None);
        // Hysteresis: stays engaged until the exit depth.
        assert_eq!(a.update_brownout(3), None);
        assert_eq!(a.update_brownout(2), Some(false));
        assert!(a.eligible(2));
    }
}
