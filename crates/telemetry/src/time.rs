//! Integer-nanosecond simulation time.
//!
//! All simulator state advances on a [`SimTime`] clock measured in whole
//! nanoseconds since the start of the experiment. Using integers (rather than
//! `f64` seconds) keeps event ordering total and deterministic, which the
//! reproduction relies on: every figure harness must print identical rows on
//! every run.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// `x.round() as u64` for a non-negative, non-NaN `x`, without the libm
/// call: below 2^52 the fraction `x - trunc(x)` is exact, so comparing it
/// with one half rounds half away from zero exactly as `f64::round` does;
/// from 2^52 up every `f64` is already an integer, and `as` saturates at
/// `u64::MAX` (infinity included) either way. Below 2^52 the truncation
/// goes through `i64`, exact there too, because signed conversions are
/// single instructions on x86-64 and unsigned ones are not.
fn round_nanos(x: f64) -> u64 {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if x < TWO_POW_52 {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

/// A point in simulated time, in nanoseconds since the simulation epoch.
///
/// # Example
///
/// ```
/// use aqua_telemetry::time::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_nanos(), 5_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use aqua_telemetry::time::SimDuration;
/// let d = SimDuration::from_secs_f64(0.25);
/// assert_eq!(d, SimDuration::from_millis(250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to the epoch.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(round_nanos(s.max(0.0) * 1e9))
    }

    /// Whole nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(round_nanos(s.max(0.0) * 1e9))
    }

    /// Whole nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this span.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` if the span is zero-length.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating difference between two durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by an integer factor.
    pub const fn mul_u64(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// Scales the span by a floating-point factor (rounded; clamps at zero).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// Exponential backoff before retry `attempt` (1-based): this base
    /// doubled per prior attempt, `self × 2^(attempt−1)`. A naive shift
    /// overflows `u64` nanoseconds past attempt ~64 (much earlier for a large
    /// base), so the doubling saturates at `u64::MAX` ns: a pathological
    /// retry count waits out the rest of simulated time instead of wrapping
    /// back to a tiny backoff.
    pub fn backoff_for(self, attempt: u32) -> SimDuration {
        let multiplier = 1u64
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX);
        SimDuration(self.0.saturating_mul(multiplier))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(3) + SimDuration::from_millis(250);
        assert_eq!(t.as_nanos(), 3_250_000_000);
        assert_eq!(t - SimTime::from_secs(3), SimDuration::from_millis(250));
    }

    #[test]
    fn backoff_doubles_deterministically() {
        let base = SimDuration::from_millis(100);
        assert_eq!(base.backoff_for(1), SimDuration::from_millis(100));
        assert_eq!(base.backoff_for(2), SimDuration::from_millis(200));
        assert_eq!(base.backoff_for(3), SimDuration::from_millis(400));
    }

    #[test]
    fn backoff_doubles_then_saturates_instead_of_overflowing() {
        let base = SimDuration::from_millis(2);
        // Small attempts keep the exact doubling ladder the retry tests pin.
        assert_eq!(base.backoff_for(1), SimDuration::from_millis(2));
        assert_eq!(base.backoff_for(2), SimDuration::from_millis(4));
        assert_eq!(base.backoff_for(3), SimDuration::from_millis(8));
        // 2 ms << 44 overflows u64 nanoseconds; the boundary and everything
        // past it saturate instead of wrapping around to a tiny wait.
        let last_exact = base.backoff_for(44);
        assert_eq!(
            last_exact,
            SimDuration::from_nanos(2_000_000u64 << 43),
            "attempt 44 is the last exactly-representable doubling"
        );
        for attempt in [45, 52, 53, 64, 65, 1000, u32::MAX] {
            let b = base.backoff_for(attempt);
            assert_eq!(b, SimDuration::from_nanos(u64::MAX), "attempt {attempt}");
        }
        // A pathological base saturates on the multiply, not just the shift.
        let big = SimDuration::from_nanos(u64::MAX / 2);
        assert_eq!(big.backoff_for(3), SimDuration::from_nanos(u64::MAX));
        // Monotonicity across the boundary: later attempts never wait less.
        let mut prev = SimDuration::ZERO;
        for attempt in 1..80 {
            let b = base.backoff_for(attempt);
            assert!(b >= prev, "backoff regressed at attempt {attempt}");
            prev = b;
        }
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-9), SimDuration::from_nanos(1));
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    /// `round_nanos` agrees with `f64::round` on its whole domain.
    fn assert_rounds_like_libm(x: f64) {
        assert_eq!(
            round_nanos(x),
            x.round() as u64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn rounding_matches_libm_on_halves_in_every_binade() {
        // Every k + 0.5 for small k, then k + 0.5 (an exact tie while
        // k < 2^52, rounded to an integer above) and its neighbours for
        // 4,096 k spread over each binade up to 2^53.
        for k in 0..1u64 << 16 {
            assert_rounds_like_libm(k as f64 + 0.5);
        }
        for e in 16..53 {
            let base = 1u64 << e;
            for j in 0..4_096u64 {
                let k = base + j.wrapping_mul(0x9e37_79b9_7f4a_7c15) % base;
                let half = k as f64 + 0.5;
                for x in [
                    half,
                    f64::from_bits(half.to_bits() - 1),
                    f64::from_bits(half.to_bits() + 1),
                ] {
                    assert_rounds_like_libm(x);
                }
            }
        }
    }

    /// Both `from_secs_f64`s agree with the libm formula they replaced.
    fn assert_converts_like_libm(s: f64) {
        let libm = (s.max(0.0) * 1e9).round() as u64;
        assert_eq!(SimTime::from_secs_f64(s).as_nanos(), libm, "s = {s:e}");
        assert_eq!(SimDuration::from_secs_f64(s).as_nanos(), libm, "s = {s:e}");
    }

    #[test]
    fn rounding_matches_libm_on_random_doubles() {
        // SplitMix64 over raw bit patterns (every sign, NaN and infinity
        // included) and over seconds spread across simulated horizons.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..200_000 {
            let raw = f64::from_bits(next());
            assert_converts_like_libm(raw);
            if raw >= 0.0 {
                assert_rounds_like_libm(raw);
            }
            let secs = (next() >> 11) as f64 / (1u64 << 53) as f64 * 1e4;
            assert_converts_like_libm(secs);
            assert_rounds_like_libm(secs * 1e9);
        }
    }

    #[test]
    fn rounding_edge_cases() {
        let two_52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            two_52 - 0.5,
            two_52 - 1.5,
            // The largest `f64` below 2^52 (its spacing there is 1/2).
            f64::from_bits(two_52.to_bits() - 1),
            two_52,
            f64::from_bits(two_52.to_bits() - 1),
            f64::from_bits(two_52.to_bits() + 1),
            (1u64 << 53) as f64,
            u64::MAX as f64,
            1e20,
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_rounds_like_libm(x);
            assert_converts_like_libm(x / 1e9);
            assert_converts_like_libm(-x);
        }
        for s in [f64::NAN, -0.0, -1.0, f64::NEG_INFINITY, 1e10, 1e12] {
            assert_converts_like_libm(s);
        }
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
        assert_eq!(SimDuration::from_secs_f64(1e12).as_nanos(), u64::MAX);
    }

    #[test]
    fn min_max_are_consistent() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn display_uses_human_units() {
        assert_eq!(SimDuration::from_nanos(10).to_string(), "10ns");
        assert_eq!(SimDuration::from_micros(15).to_string(), "15.00us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.00ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn saturating_add_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }
}
