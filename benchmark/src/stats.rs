//! Order statistics for timing samples.
//!
//! The gated metrics use the *fast decile*. On the 2-vCPU boxes this
//! benchmark runs on, identical jobs come in two speeds about 1.45×
//! apart, in phases of seconds to minutes, at unchanged CPU time — the
//! vCPUs share a physical core for a while, then do not. The median of a
//! 20 s window then says which phase the window fell into, not how fast
//! the code is; the tenth-percentile sample stays in the undisturbed
//! mode as long as a tenth of the window does (`README.md` has the
//! numbers). The median and the highest order statistic with at least
//! ten samples beyond it (`choosing-metrics` §1) are still printed, as
//! information.

/// Timing samples of one kind of job.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Wall seconds per job.
    pub job_s: Vec<f64>,
    /// Wall milliseconds of every superstep of every job.
    pub step_ms: Vec<f64>,
    /// Per job: nominal edges (`|E| × supersteps`) over its seconds.
    pub edges_per_s: Vec<f64>,
}

impl Samples {
    /// Appends the samples of `other`.
    pub fn absorb(&mut self, other: &Samples) {
        self.job_s.extend_from_slice(&other.job_s);
        self.step_ms.extend_from_slice(&other.step_ms);
        self.edges_per_s.extend_from_slice(&other.edges_per_s);
    }
}

/// Samples that must lie beyond the reported high order statistic.
pub const BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The fast-decile sample of a lower-is-better quantity: the
/// `⌊n/10⌋`-th smallest (the minimum below ten samples).
pub fn fast_low(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fast decile of no samples");
    sorted(xs)[xs.len() / 10]
}

/// The fast-decile sample of a higher-is-better quantity.
pub fn fast_high(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fast decile of no samples");
    sorted(xs)[xs.len() - 1 - xs.len() / 10]
}

/// Median of `xs` (mean of the two middle samples for even counts).
/// Panics on an empty slice: a metric with no samples is a benchmark bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index (into the ascending sort of `n` samples) of the highest order
/// statistic with at least [`BEYOND`] samples above it, never below the
/// upper median.
pub fn high_index(n: usize) -> usize {
    assert!(n > 0, "high_index of no samples");
    (n / 2).max(n.saturating_sub(BEYOND + 1))
}

/// The high order statistic of `xs` and the percentile it sits at.
pub fn high(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let i = high_index(v.len());
    (v[i], 100.0 * (i + 1) as f64 / v.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn fast_decile_selection() {
        let xs: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(fast_low(&xs), 1.0, "under ten samples: the minimum");
        assert_eq!(fast_high(&xs), 9.0, "under ten samples: the maximum");
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(fast_low(&xs), 3.0, "two samples are faster");
        assert_eq!(fast_high(&xs), 23.0, "two samples are faster");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!((fast_low(&xs), fast_high(&xs)), (11.0, 90.0));
    }

    #[test]
    fn high_needs_ten_samples_beyond() {
        // Fewer than 21 samples: nothing above the median qualifies.
        for n in 1..=20 {
            assert_eq!(high_index(n), n / 2, "n={n}");
        }
        // From 21 on, exactly ten samples lie beyond the pick.
        for n in [21, 22, 50, 100, 1000] {
            let i = high_index(n);
            assert_eq!(n - 1 - i, BEYOND, "n={n}");
            assert!(i >= n / 2);
        }
    }

    #[test]
    fn high_reports_value_and_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = high(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        let (v, _) = high(&[1.0, 9.0, 5.0]);
        assert_eq!(v, 5.0, "three samples: the median");
    }
}
