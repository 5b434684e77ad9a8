//! Sample statistics: percentiles with their sample counts.

/// A set of measurements of one quantity (latencies, per-call times).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of all measurements (`0` when empty).
    pub fn sum(&self) -> f64 {
        self.values.iter().fold(0.0, |acc, v| acc + v)
    }

    /// The largest measurement, `0` when empty.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`), interpolated linearly
    /// between the two closest ranks; `0` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// How many measurements lie strictly above the `p`-th percentile —
    /// a percentile is only worth reporting with about ten beyond it.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.percentile(p);
        self.values.iter().filter(|&&v| v > cut).count()
    }

    /// Fraction of measurements at or below `limit`, counting `misses`
    /// extra attempts (failures, refusals) as over the limit; `0` when
    /// nothing was attempted.
    pub fn fraction_within(&self, limit: f64, misses: usize) -> f64 {
        let attempts = self.values.len() + misses;
        if attempts == 0 {
            return 0.0;
        }
        let within = self.values.iter().filter(|&&v| v <= limit).count();
        within as f64 / attempts as f64
    }
}

/// `num / den`, or `0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
        assert_eq!(s.median(), 2.5);
        // rank 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        assert!((s.percentile(90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn odd_counts_hit_the_middle_sample() {
        let s = samples(&[5.0, 1.0, 9.0]);
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.sum(), 15.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_sets_read_zero_not_nan() {
        let s = Samples::new();
        assert_eq!(s.len(), 0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.percentile(90.0), 0.0);
        assert_eq!(s.beyond(90.0), 0);
        assert_eq!(s.fraction_within(1.0, 0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn p90_of_a_hundred_has_ten_beyond() {
        let s = samples(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert!((s.percentile(90.0) - 90.1).abs() < 1e-9);
        assert_eq!(s.beyond(90.0), 10);
        assert_eq!(s.beyond(50.0), 50);
    }

    #[test]
    fn misses_count_against_the_limit() {
        let s = samples(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(s.fraction_within(3.0, 0), 0.75);
        // One refused submission: 3 within of 5 attempted.
        assert_eq!(s.fraction_within(3.0, 1), 0.6);
    }

    #[test]
    fn sums_of_nothing_are_positive_zero() {
        assert!(Samples::new().sum().is_sign_positive());
    }
}
