//! Empirical CDFs — the presentation behind the paper's sorted-RCT plots.
//!
//! Figures 8, 11 and 12 plot request completion times in sorted order,
//! which is the empirical CDF with the axes swapped. [`Cdf`] stores the
//! sorted samples once and answers quantile queries, and can emit a
//! fixed-size row of quantiles for table rendering.

/// An empirical cumulative distribution over `f64` samples.
///
/// # Example
///
/// ```
/// use aqua_metrics::cdf::Cdf;
/// let cdf = Cdf::from_samples(&[4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(cdf.quantile_row(3), vec![1.0, 2.5, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (order irrelevant; NaNs rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(
            samples.iter().all(|s| !s.is_nan()),
            "CDF samples must not be NaN"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples (the y-values of a sorted-RCT plot).
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Linearly interpolated quantile, `q` in `[0, 1]`.
    ///
    /// An empty CDF reports 0.0 at every quantile (matching
    /// [`crate::latency::Summary`]'s all-zero default) and a single-sample
    /// CDF reports that sample everywhere — a tail percentile over a run
    /// that completed zero or one request must summarize, not crash.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.sorted.is_empty() {
            return 0.0;
        }
        crate::latency::percentile_sorted(&self.sorted, q * 100.0)
    }

    /// `n` evenly spaced quantiles from 0 to 1 inclusive — a compact row
    /// for table output. All zeros for an empty CDF.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn quantile_row(&self, n: usize) -> Vec<f64> {
        assert!(n >= 2, "need at least the two endpoints");
        (0..n)
            .map(|i| self.quantile(i as f64 / (n - 1) as f64))
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let v: Vec<f64> = iter.into_iter().collect();
        Cdf::from_samples(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.quantile(0.5), 3.0);
    }

    #[test]
    fn quantile_row_endpoints() {
        let cdf: Cdf = (1..=10).map(|i| i as f64).collect();
        let row = cdf.quantile_row(5);
        assert_eq!(row.first(), Some(&1.0));
        assert_eq!(row.last(), Some(&10.0));
        assert!(row.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_cdf_is_safe_everywhere() {
        let cdf = Cdf::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(cdf.quantile(q), 0.0);
        }
        assert_eq!(cdf.quantile_row(5), vec![0.0; 5]);
    }

    #[test]
    fn single_sample_cdf_is_flat() {
        let cdf = Cdf::from_samples(&[7.5]);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(cdf.quantile(q), 7.5, "quantile {q}");
        }
        assert_eq!(cdf.quantile_row(3), vec![7.5; 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_quantile_panics() {
        Cdf::from_samples(&[1.0]).quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Cdf::from_samples(&[1.0, f64::NAN]);
    }
}
