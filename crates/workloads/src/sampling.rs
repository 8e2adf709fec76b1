//! Seeded samplers: exponential, log-normal and Poisson-process arrivals.
//!
//! Implemented from first principles (inverse-CDF and Box–Muller) over the
//! workspace's own seeded generator, [`aqua_sim::rng::StdRng`].

use aqua_sim::rng::StdRng;
use aqua_sim::time::{SimDuration, SimTime};

/// A deterministic sampler seeded once per workload.
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: StdRng,
}

impl Sampler {
    /// Creates a sampler from an explicit seed.
    pub fn new(seed: u64) -> Self {
        Sampler {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The sampler [`Sampler::new`] gives for `seed` once `word` 32-bit
    /// words have been drawn from it: each `uniform` draws two.
    pub(crate) fn at_word(seed: u64, word: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        rng.seek(word);
        Sampler { rng }
    }

    /// Uniform in `[0, 1)`.
    fn uniform(&mut self) -> f64 {
        self.rng.f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.below(n)
    }

    /// Exponential with rate `lambda` (inverse CDF).
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "rate must be positive");
        let u = 1.0 - self.uniform(); // avoid ln(0)
        -u.ln() / lambda
    }

    /// Standard normal via Box–Muller.
    fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal with location `mu` and scale `sigma` (of the underlying
    /// normal).
    fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Log-normal sample rounded to a token count and clamped to
    /// `[min, max]`.
    pub fn token_count(&mut self, mu: f64, sigma: f64, min: u64, max: u64) -> u64 {
        (self.log_normal(mu, sigma).round() as u64).clamp(min, max)
    }

    /// Zipf-distributed index in `[0, n)` with exponent `s` (rank 0 most
    /// popular). Computed by inverse CDF over the normalized weights; used
    /// to model skewed LoRA adapter popularity.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf over an empty set");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut u = self.uniform() * norm;
        for k in 1..=n {
            u -= (k as f64).powf(-s);
            if u <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Arrival times of a Poisson process with `rate` events/s, starting at
    /// `start`, producing `count` events.
    pub fn poisson_arrivals(&mut self, start: SimTime, rate: f64, count: usize) -> Vec<SimTime> {
        let mut t = start;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            t += SimDuration::from_secs_f64(self.exponential(rate));
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Sampler::new(42);
        let mut b = Sampler::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
        let mut c = Sampler::new(43);
        assert_ne!(Sampler::new(42).uniform(), c.uniform());
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut s = Sampler::new(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.2).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn poisson_arrivals_are_ordered_with_right_rate() {
        let mut s = Sampler::new(1);
        let arrivals = s.poisson_arrivals(SimTime::from_secs(10), 5.0, 1000);
        assert_eq!(arrivals.len(), 1000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals[0] >= SimTime::from_secs(10));
        let span = arrivals.last().unwrap().as_secs_f64() - 10.0;
        let rate = 1000.0 / span;
        assert!((4.0..6.0).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn log_normal_median_is_exp_mu() {
        let mut s = Sampler::new(3);
        let mut v: Vec<f64> = (0..20_000).map(|_| s.log_normal(5.0, 0.8)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        let expected = 5.0f64.exp();
        assert!(
            (median / expected - 1.0).abs() < 0.1,
            "median {median} vs {expected}"
        );
    }

    #[test]
    fn token_count_respects_clamp() {
        let mut s = Sampler::new(9);
        for _ in 0..1000 {
            let t = s.token_count(5.0, 2.0, 16, 512);
            assert!((16..=512).contains(&t));
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        Sampler::new(0).exponential(0.0);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut s = Sampler::new(4);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[s.zipf(10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[4], "rank 0 beats rank 4: {counts:?}");
        assert!(counts[0] > counts[9] * 3, "heavy head: {counts:?}");
        // Exponent 0 degenerates to uniform.
        let mut s = Sampler::new(4);
        let mut uni = [0usize; 4];
        for _ in 0..8_000 {
            uni[s.zipf(4, 0.0)] += 1;
        }
        for c in uni {
            assert!((1500..2500).contains(&c), "uniform-ish: {uni:?}");
        }
    }

    aqua_sim::check! {
        #[test]
        fn zipf_in_range(seed in 0u64..500, n in 1usize..50) {
            let mut s = Sampler::new(seed);
            for _ in 0..20 {
                assert!(s.zipf(n, 1.0) < n);
            }
        }

        #[test]
        fn index_in_range(seed in 0u64..1000, n in 1usize..100) {
            let mut s = Sampler::new(seed);
            for _ in 0..50 {
                assert!(s.index(n) < n);
            }
        }
    }
}
