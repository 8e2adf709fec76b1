//! Change-detecting gauge name cache.
//!
//! Engines journal a handful of gauges (`queue_depth`, `running`, …) every
//! scheduler iteration, but only when the value changed. The naive pattern —
//! `format!("{scope}.{suffix}")` into a `BTreeMap<String, f64>` per probe —
//! allocates a scope-qualified name on every iteration just to discover the
//! value is unchanged. [`GaugeCache`] interns each full gauge name once, as
//! a [`Lane`] the gauge event clones, and answers the "did it change?" probe
//! by the gauge's position in the engine's fixed list, so a probe neither
//! allocates nor compares strings.

use aqua_telemetry::Lane;

/// Interned `scope.suffix` gauge names with last-emitted values, indexed
/// by the suffix's position in the list the cache was built from.
#[derive(Debug, Clone)]
pub struct GaugeCache {
    gauges: Vec<(Lane, Option<f64>)>,
}

impl GaugeCache {
    /// Interns `scope.suffix` for every suffix; no value is recorded yet.
    pub fn new(scope: &str, suffixes: &[&str]) -> Self {
        GaugeCache {
            gauges: suffixes
                .iter()
                .map(|suffix| (Lane::from(format!("{scope}.{suffix}")), None))
                .collect(),
        }
    }

    /// Records `value` for the gauge at position `gauge` and returns its
    /// interned full name if it differs from the previously recorded value,
    /// `None` when unchanged. The first observation always reports changed.
    pub fn changed(&mut self, gauge: usize, value: f64) -> Option<&Lane> {
        let (name, last) = &mut self.gauges[gauge];
        if *last == Some(value) {
            None
        } else {
            *last = Some(value);
            Some(name)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_changes_only() {
        let mut g = GaugeCache::new("eng", &["depth", "running"]);
        assert_eq!(g.changed(0, 1.0).unwrap(), "eng.depth");
        assert_eq!(g.changed(0, 1.0), None);
        assert_eq!(g.changed(0, 2.0).unwrap(), "eng.depth");
        // Independent gauges do not interfere.
        assert_eq!(g.changed(1, 2.0).unwrap(), "eng.running");
        assert_eq!(g.changed(0, 2.0), None);
    }

    #[test]
    fn a_new_cache_forgets_names_and_values() {
        let mut g = GaugeCache::new("a", &["x"]);
        assert!(g.changed(0, 1.0).is_some());
        g = GaugeCache::new("b", &["x"]);
        assert_eq!(g.changed(0, 1.0).unwrap(), "b.x");
    }
}
