//! Time series of sampled simulator quantities.
//!
//! Used for the free-memory timelines of Figures 2 and 10a and the
//! throughput timelines of Figures 10b and 13.

use aqua_sim::time::SimTime;

/// A named series of `(time, value)` samples in nondecreasing time order.
///
/// # Example
///
/// ```
/// use aqua_metrics::timeseries::TimeSeries;
/// use aqua_sim::time::SimTime;
///
/// let mut free = TimeSeries::new("free-memory-gib");
/// free.push(SimTime::ZERO, 75.0);
/// free.push(SimTime::from_secs(10), 5.0);
/// assert_eq!(free.value_at(SimTime::from_secs(7)), Some(75.0));
/// assert_eq!(free.min(), Some(5.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Series name (used as a column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last sample's time.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some((last, _)) = self.points.last() {
            assert!(t >= *last, "samples must be pushed in time order");
        }
        self.points.push((t, value));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The value in force at `t` (last sample at or before `t`), if any.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|(pt, _)| pt.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Minimum sampled value.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, v)| *v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum sampled value.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, v)| *v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean of values sampled within `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut ts = TimeSeries::new("s");
        for i in 0..10u64 {
            ts.push(SimTime::from_secs(i), i as f64);
        }
        ts
    }

    #[test]
    fn value_at_steps() {
        let ts = series();
        assert_eq!(ts.value_at(SimTime::from_secs(3)), Some(3.0));
        assert_eq!(ts.value_at(SimTime::from_millis(3500)), Some(3.0));
        assert_eq!(ts.value_at(SimTime::ZERO), Some(0.0));
        let empty = TimeSeries::new("e");
        assert_eq!(empty.value_at(SimTime::ZERO), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn min_max_mean() {
        let ts = series();
        assert_eq!(ts.min(), Some(0.0));
        assert_eq!(ts.max(), Some(9.0));
        assert_eq!(
            ts.mean_in(SimTime::from_secs(2), SimTime::from_secs(5)),
            Some(3.0)
        );
        assert_eq!(
            ts.mean_in(SimTime::from_secs(20), SimTime::from_secs(30)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut ts = series();
        ts.push(SimTime::from_secs(1), 0.0);
    }
}
