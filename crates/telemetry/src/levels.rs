//! Queue and batch levels, replayed from a journal's gateway edges.
//!
//! The journal holds edges, not levels. A gateway journals each request
//! entering its queue, being scheduled into its batch, being preempted back
//! and leaving, so how many requests wait and run at any point follows
//! from the edges before it. [`gateway_levels`] replays them per gateway
//! scope and request:
//!
//! * `gateway_enqueued` and `request_retried` move a request to pending;
//! * `request_scheduled` moves it to running;
//! * `request_preempted` moves it back to pending;
//! * `request_shed`, `request_timed_out`, `request_crash_aborted` and
//!   `gateway_completed` remove it.
//!
//! KV use is not replayed: the journal carries neither prompt lengths nor
//! per-iteration progress, so no edge fixes the KV level between two edges
//! (DESIGN.md, "What the journal holds").

use crate::event::{Lane, TraceEvent};
use crate::time::SimTime;
use std::collections::HashMap;

/// One gateway's queue and batch just after one of its edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// Position of the edge in the journal.
    pub index: usize,
    /// The gateway's scope label.
    pub gateway: Lane,
    /// The edge's time.
    pub at: SimTime,
    /// Requests queued after the edge.
    pub queue_depth: u64,
    /// Requests in the running batch after the edge.
    pub running: u64,
}

/// Where a live request is: an index into a gateway's `[pending, running]`
/// counts.
const PENDING: usize = 0;
const RUNNING: usize = 1;

/// Replays the gateway edges of `events`, in journal order, into the
/// levels after each one: one [`Levels`] per edge the module doc lists.
pub fn gateway_levels(events: &[TraceEvent]) -> Vec<Levels> {
    let mut places: HashMap<(&str, u64), usize> = HashMap::new();
    let mut counts: HashMap<&str, [u64; 2]> = HashMap::new();
    let mut levels = Vec::new();
    for (index, event) in events.iter().enumerate() {
        let (gateway, request, to) = match event {
            TraceEvent::GatewayEnqueued {
                gateway, request, ..
            }
            | TraceEvent::RequestRetried {
                gateway, request, ..
            } => (gateway, *request, Some(PENDING)),
            TraceEvent::RequestScheduled {
                gateway, request, ..
            } => (gateway, *request, Some(RUNNING)),
            TraceEvent::RequestPreempted {
                engine, request, ..
            } => (engine, *request, Some(PENDING)),
            TraceEvent::RequestShed {
                gateway, request, ..
            }
            | TraceEvent::RequestTimedOut {
                gateway, request, ..
            }
            | TraceEvent::RequestCrashAborted {
                gateway, request, ..
            }
            | TraceEvent::GatewayCompleted {
                gateway, request, ..
            } => (gateway, *request, None),
            _ => continue,
        };
        let key = (gateway.as_str(), request);
        let from = match to {
            Some(place) => places.insert(key, place),
            None => places.remove(&key),
        };
        let count = counts.entry(gateway.as_str()).or_default();
        if let Some(from) = from {
            count[from] -= 1;
        }
        if let Some(to) = to {
            count[to] += 1;
        }
        levels.push(Levels {
            index,
            gateway: gateway.clone(),
            at: event.at(),
            queue_depth: count[PENDING],
            running: count[RUNNING],
        });
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Every edge of one request's life on gateway `a`, interleaved with a
    /// second gateway `b` whose request ids collide with `a`'s.
    #[test]
    fn each_edge_moves_its_request() {
        let [a, b] = [Lane::from("gw:a"), Lane::from("gw:b")];
        let policy = Lane::from("fcfs");
        let enqueued = |gateway: &Lane, request| TraceEvent::GatewayEnqueued {
            gateway: gateway.clone(),
            tenant: 0,
            request,
            at: t(request),
        };
        let scheduled = |gateway: &Lane, request| TraceEvent::RequestScheduled {
            gateway: gateway.clone(),
            policy: policy.clone(),
            request,
            at: t(10),
        };
        let events = [
            enqueued(&a, 1),
            enqueued(&a, 2),
            enqueued(&b, 1),
            scheduled(&a, 1),
            TraceEvent::FirstTokenEmitted {
                gateway: a.clone(),
                request: 1,
                at: t(11),
            },
            TraceEvent::RequestPreempted {
                engine: a.clone(),
                request: 1,
                policy: Lane::from("swap"),
                at: t(12),
            },
            scheduled(&a, 2),
            TraceEvent::RequestCrashAborted {
                gateway: a.clone(),
                request: 2,
                generated: 3,
                at: t(13),
            },
            TraceEvent::RequestRetried {
                gateway: a.clone(),
                request: 2,
                attempt: 1,
                at: t(13),
            },
            TraceEvent::RequestTimedOut {
                gateway: a.clone(),
                request: 1,
                deadline: "ttft".into(),
                at: t(14),
            },
            scheduled(&a, 2),
            TraceEvent::GatewayCompleted {
                gateway: a.clone(),
                request: 2,
                output_tokens: 4,
                at: t(15),
            },
            TraceEvent::RequestShed {
                gateway: b.clone(),
                tenant: 0,
                request: 1,
                reason: "queue_depth".into(),
                at: t(16),
            },
        ];
        let levels = gateway_levels(&events);
        let replayed: Vec<(usize, &str, u64, u64)> = levels
            .iter()
            .map(|l| (l.index, l.gateway.as_str(), l.queue_depth, l.running))
            .collect();
        assert_eq!(
            replayed,
            [
                (0, "gw:a", 1, 0),
                (1, "gw:a", 2, 0),
                (2, "gw:b", 1, 0),
                (3, "gw:a", 1, 1),
                (5, "gw:a", 2, 0),
                (6, "gw:a", 1, 1),
                (7, "gw:a", 1, 0),
                (8, "gw:a", 2, 0),
                (9, "gw:a", 1, 0),
                (10, "gw:a", 0, 1),
                (11, "gw:a", 0, 0),
                (12, "gw:b", 0, 0),
            ]
        );
    }
}
