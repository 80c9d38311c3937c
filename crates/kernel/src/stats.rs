//! Measurement primitives: counters, tallies and confidence intervals.
//!
//! The experiment harness reports the same aggregates the paper plots —
//! average energy per packet, average end-to-end delay — plus their spread
//! (standard deviation, and a 95% confidence interval across replicated
//! seeds) useful when comparing failure and failure-free runs.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use spms_kernel::stats::Counter;
///
/// let mut dropped = Counter::new();
/// dropped.add(3);
/// dropped.incr();
/// assert_eq!(dropped.value(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Merges another counter into this one (used when combining per-node
    /// metrics into a network total).
    pub fn merge(&mut self, other: Counter) {
        self.0 += other.0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running summary statistics over a stream of `f64` observations.
///
/// Uses Welford's algorithm so mean and variance stay numerically stable over
/// millions of samples.
///
/// # Example
///
/// ```
/// use spms_kernel::stats::Tally;
///
/// let mut delays = Tally::new();
/// for d in [1.0, 2.0, 3.0] {
///     delays.record(d);
/// }
/// assert_eq!(delays.mean(), 2.0);
/// assert_eq!(delays.max(), Some(3.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Tally {
    /// Creates an empty tally.
    #[must_use]
    pub fn new() -> Self {
        Tally {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one observation. Non-finite values are ignored (and would
    /// indicate a bug upstream; they are counted separately by debug
    /// assertions).
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0.0 with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merges another tally into this one (parallel-combine form of
    /// Welford's algorithm).
    pub fn merge(&mut self, other: &Tally) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
///
/// Exact table values for df ≤ 30, the normal-approximation limit 1.96
/// beyond — the standard choice when reporting simulation confidence
/// intervals from a handful of replications.
#[must_use]
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        d if d <= 30 => TABLE[(d - 1) as usize],
        _ => 1.96,
    }
}

impl Tally {
    /// Half-width of the 95% confidence interval for the mean
    /// (`t · s / √n`), 0.0 with fewer than two observations.
    ///
    /// # Example
    ///
    /// ```
    /// use spms_kernel::stats::Tally;
    ///
    /// let mut t = Tally::new();
    /// for x in [10.0, 12.0, 11.0, 9.0, 13.0] {
    ///     t.record(x);
    /// }
    /// let half = t.ci95_half_width();
    /// assert!(half > 0.0 && half < t.std_dev() * 3.0);
    /// ```
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        t_critical_95(self.count - 1) * self.std_dev() / (self.count as f64).sqrt()
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_merges() {
        let mut a = Counter::new();
        a.incr();
        a.add(4);
        let mut b = Counter::new();
        b.add(10);
        a.merge(b);
        assert_eq!(a.value(), 15);
        assert_eq!(format!("{a}"), "15");
    }

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic data set is 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn empty_tally_is_safe() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn tally_merge_matches_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Tally::new();
        let mut right = Tally::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn t_critical_values_match_the_table() {
        assert_eq!(t_critical_95(0), f64::INFINITY);
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(4) - 2.776).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        assert!((t_critical_95(31) - 1.96).abs() < 1e-9);
        assert!((t_critical_95(10_000) - 1.96).abs() < 1e-9);
        // Monotone non-increasing.
        let mut prev = f64::INFINITY;
        for df in 1..40 {
            let t = t_critical_95(df);
            assert!(t <= prev, "df={df}");
            prev = t;
        }
    }

    #[test]
    fn ci95_matches_hand_computation() {
        // Classic 5-sample example: mean 11, s = sqrt(2.5), t(4) = 2.776.
        let mut t = Tally::new();
        for x in [10.0, 12.0, 11.0, 9.0, 13.0] {
            t.record(x);
        }
        let expect = 2.776 * (2.5f64).sqrt() / (5f64).sqrt();
        assert!((t.ci95_half_width() - expect).abs() < 1e-9);
        // Degenerate cases.
        let mut one = Tally::new();
        one.record(5.0);
        assert_eq!(one.ci95_half_width(), 0.0);
        assert_eq!(Tally::new().ci95_half_width(), 0.0);
    }
}
