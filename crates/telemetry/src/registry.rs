//! A tiny counter registry for cheap always-on statistics.
//!
//! The journal captures *when* things happened; the registry captures *how
//! much* with no per-event cost — bytes per link lane, preemption counts,
//! reclaim counts. Keys are plain strings; the map is a `BTreeMap` so
//! snapshots iterate in a deterministic order. Gauges are journalled as
//! [`TraceEvent::Gauge`](crate::TraceEvent) events instead.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Named monotonic counters.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, u64>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to `counter`, creating it at zero on first touch.
    pub fn incr(&self, counter: &str, delta: u64) {
        let mut counters = self.counters.lock().unwrap();
        if let Some(v) = counters.get_mut(counter) {
            *v = v.saturating_add(delta);
        } else {
            counters.insert(counter.to_owned(), delta);
        }
    }

    /// The current value of one counter (zero if never touched).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters
            .lock()
            .unwrap()
            .get(counter)
            .copied()
            .unwrap_or(0)
    }

    /// A sorted snapshot of every counter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        r.incr("bytes", 10);
        r.incr("bytes", 5);
        assert_eq!(r.counter("bytes"), 15);
        assert_eq!(r.counter("missing"), 0);
        r.incr("bytes", u64::MAX);
        assert_eq!(r.counter("bytes"), u64::MAX);
    }
}
