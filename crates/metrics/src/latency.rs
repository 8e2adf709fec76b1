//! Percentile summaries of latency samples.

/// Summary statistics over a set of latency samples (seconds).
///
/// # Example
///
/// ```
/// use aqua_metrics::latency::Summary;
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.p50, 2.5);
/// assert_eq!(s.max, 4.0);
/// assert_eq!(s.count, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (interpolated).
    pub p50: f64,
    /// 95th percentile (interpolated).
    pub p95: f64,
    /// 99th percentile (interpolated).
    pub p99: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes a summary; returns the default (all zeros) for empty input.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Summary {
            count: sorted.len(),
            mean,
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3}s p50={:.3}s p95={:.3}s p99={:.3}s max={:.3}s",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// Linearly interpolated percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Sorts samples ascending and returns them — the "sorted RCTs" presentation
/// used by Figures 8, 11 and 12.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_default() {
        assert_eq!(Summary::from_samples(&[]), Summary::default());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile_sorted(&v, 0.0), 0.0);
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        percentile_sorted(&[], 50.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Summary::from_samples(&[1.0]);
        assert!(s.to_string().contains("p95"));
    }

    aqua_sim::check! {
        #[test]
        fn percentiles_are_monotone(mut v in aqua_sim::check::vec(0.0f64..1e6, 2..100)) {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let p25 = percentile_sorted(&v, 25.0);
            let p50 = percentile_sorted(&v, 50.0);
            let p95 = percentile_sorted(&v, 95.0);
            assert!(p25 <= p50 + 1e-9);
            assert!(p50 <= p95 + 1e-9);
            assert!(v[0] <= p25 + 1e-9);
            assert!(p95 <= v[v.len() - 1] + 1e-9);
        }

        #[test]
        fn summary_bounds_hold(v in aqua_sim::check::vec(0.0f64..1e6, 1..200)) {
            let s = Summary::from_samples(&v);
            assert!(s.min <= s.mean + 1e-9);
            assert!(s.mean <= s.max + 1e-9);
            assert!(s.min <= s.p50 + 1e-9 && s.p50 <= s.max + 1e-9);
            assert_eq!(s.count, v.len());
        }

        #[test]
        fn sorted_is_permutation(v in aqua_sim::check::vec(0.0f64..1e3, 0..50)) {
            let s = sorted(&v);
            assert_eq!(s.len(), v.len());
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
            let sum_a: f64 = v.iter().sum();
            let sum_b: f64 = s.iter().sum();
            assert!((sum_a - sum_b).abs() < 1e-6);
        }
    }
}
