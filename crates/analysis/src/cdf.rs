//! Empirical cumulative distribution functions — the workhorse of every
//! figure in the paper.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (non-finite values are dropped). Total:
    /// never panics, whatever the input — NaN/±inf are filtered and the
    /// sort is `total_cmp`, so a non-finite value slipping past the filter
    /// could only misorder, never abort.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Builds from an iterator.
    #[allow(clippy::should_implement_trait)] // fallible-free convenience
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The q-quantile (0 ≤ q ≤ 1) by nearest-rank; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(self.sorted[idx])
    }

    /// Median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let pos = self.sorted.partition_point(|&v| v <= x);
        pos as f64 / self.sorted.len() as f64
    }

    /// `points` evenly spaced (value, cumulative probability) rows for
    /// plotting — what the `repro` harness prints per figure.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        (0..points)
            .map(|i| {
                let q = (i as f64 + 1.0) / points as f64;
                let idx = ((n as f64 * q).ceil() as usize).min(n) - 1;
                (self.sorted[idx], q)
            })
            .collect()
    }

    /// Underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Merges two CDFs.
    pub fn merge(&self, other: &Cdf) -> Cdf {
        let mut all = self.sorted.clone();
        all.extend_from_slice(&other.sorted);
        Cdf::new(all)
    }

    /// Two-sample Kolmogorov–Smirnov statistic: the maximum vertical
    /// distance between the two empirical CDFs. Used to check that a
    /// regenerated figure keeps its shape across seeds, and by the ablation
    /// harness to quantify how much a mechanism moves a distribution.
    pub fn ks_statistic(&self, other: &Cdf) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 1.0;
        }
        let mut d: f64 = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.sorted, &other.sorted);
        while i < a.len() && j < b.len() {
            // Step past the next distinct value in both arrays together so
            // ties do not create a phantom gap.
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] <= x {
                i += 1;
            }
            while j < b.len() && b[j] <= x {
                j += 1;
            }
            let fa = i as f64 / a.len() as f64;
            let fb = j as f64 / b.len() as f64;
            d = d.max((fa - fb).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_data() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.median(), Some(3.0));
        assert_eq!(c.quantile(1.0), Some(5.0));
        assert_eq!(c.mean(), Some(3.0));
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn fraction_leq_counts_correctly() {
        let c = Cdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.fraction_leq(5.0), 0.0);
        assert_eq!(c.fraction_leq(20.0), 0.5);
        assert_eq!(c.fraction_leq(100.0), 1.0);
    }

    #[test]
    fn series_is_monotone_and_spans() {
        let samples: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let c = Cdf::new(samples);
        let s = c.series(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[9], (100.0, 1.0));
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn handles_empty_and_nan() {
        let c = Cdf::new(vec![f64::NAN, f64::INFINITY]);
        assert!(c.quantile(0.5).is_none() || c.len() == 1);
        let empty = Cdf::new(vec![]);
        assert!(empty.is_empty());
        assert!(empty.median().is_none());
        assert!(empty.series(5).is_empty());
        assert_eq!(empty.fraction_leq(1.0), 0.0);
    }

    #[test]
    fn nan_heavy_input_never_panics() {
        // Regression: every ingest point must be total. Before, a NaN that
        // reached a comparator aborted via `partial_cmp(..).expect(..)`.
        let dirty = vec![
            f64::NAN,
            3.0,
            f64::NEG_INFINITY,
            1.0,
            f64::NAN,
            f64::INFINITY,
            2.0,
            -0.0,
        ];
        let c = Cdf::new(dirty.clone());
        assert_eq!(c.samples(), &[-0.0, 1.0, 2.0, 3.0]);
        // Nearest-rank median of 4 samples: index (3 * 0.5).round() = 2.
        assert_eq!(c.median(), Some(2.0));
        // Merge and from_iter funnel through the same filter.
        let m = c.merge(&Cdf::from_iter(dirty));
        assert_eq!(m.len(), 8);
        // Queries at NaN do not panic either (partition_point on finite data).
        assert_eq!(Cdf::new(vec![f64::NAN]).len(), 0);
    }

    #[test]
    fn merge_combines_samples() {
        let a = Cdf::new(vec![1.0, 2.0]);
        let b = Cdf::new(vec![3.0, 4.0]);
        let m = a.merge(&b);
        assert_eq!(m.len(), 4);
        assert_eq!(m.quantile(1.0), Some(4.0));
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let c = Cdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(c.samples(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn ks_identical_is_zero_disjoint_is_one() {
        let a = Cdf::new((0..100).map(|x| x as f64).collect());
        assert!(a.ks_statistic(&a) < 1e-12);
        let b = Cdf::new((1000..1100).map(|x| x as f64).collect());
        assert!((a.ks_statistic(&b) - 1.0).abs() < 1e-12);
        // Symmetric.
        assert!((a.ks_statistic(&b) - b.ks_statistic(&a)).abs() < 1e-12);
    }

    #[test]
    fn ks_half_shifted() {
        // Half the mass disjoint -> D = 0.5.
        let a = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        let b = Cdf::new(vec![3.0, 4.0, 5.0, 6.0]);
        assert!((a.ks_statistic(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_empty_is_one() {
        let a = Cdf::new(vec![1.0]);
        let empty = Cdf::default();
        assert_eq!(a.ks_statistic(&empty), 1.0);
    }
}
