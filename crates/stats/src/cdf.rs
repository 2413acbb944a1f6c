//! Cumulative distributions for the communication-footprint figures.
//!
//! Figures 14 and 15 plot the cumulative share of cache-to-cache
//! transfers against, respectively, the percentage of touched cache lines
//! and the absolute number of lines (semi-log). [`Cdf`] builds that curve
//! from per-line transfer counts sorted hottest-first.

/// A cumulative distribution over hottest-first per-line counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// Cumulative share (0..=1] after including line `i`.
    cumulative: Vec<f64>,
    total: u64,
}

impl Cdf {
    /// Builds a CDF from per-line counts sorted descending.
    ///
    /// # Panics
    ///
    /// Panics if the counts are not sorted descending.
    pub fn from_counts_desc(counts: &[u64]) -> Self {
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "counts must be sorted descending"
        );
        let total: u64 = counts.iter().sum();
        let mut cumulative = Vec::with_capacity(counts.len());
        let mut acc = 0u64;
        for &c in counts {
            acc += c;
            cumulative.push(if total == 0 {
                0.0
            } else {
                acc as f64 / total as f64
            });
        }
        Cdf { cumulative, total }
    }

    /// Share contributed by the hottest `n` lines.
    pub fn share_of_hottest(&self, n: usize) -> f64 {
        if n == 0 || self.cumulative.is_empty() {
            0.0
        } else {
            self.cumulative[n.min(self.cumulative.len()) - 1]
        }
    }

    /// Lines needed to reach a cumulative `share` (0..=1).
    pub fn lines_for_share(&self, share: f64) -> usize {
        self.cumulative.partition_point(|&c| c < share) + 1
    }

    /// Samples the curve at `points` log-spaced line counts — the
    /// Figure 15 series `(lines, share)`.
    pub fn log_spaced_series(&self, points: usize) -> Vec<(usize, f64)> {
        if self.cumulative.is_empty() || points == 0 {
            return Vec::new();
        }
        let max = self.cumulative.len() as f64;
        let mut out = Vec::with_capacity(points);
        for i in 0..points {
            let f = (max.ln() * (i as f64 + 1.0) / points as f64).exp();
            let n = (f.round() as usize).clamp(1, self.cumulative.len());
            out.push((n, self.share_of_hottest(n)));
        }
        out.dedup_by_key(|p| p.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_accumulate_to_one() {
        let cdf = Cdf::from_counts_desc(&[50, 30, 20]);
        assert!((cdf.share_of_hottest(1) - 0.5).abs() < 1e-12);
        assert!((cdf.share_of_hottest(2) - 0.8).abs() < 1e-12);
        assert!((cdf.share_of_hottest(3) - 1.0).abs() < 1e-12);
        assert!((cdf.share_of_hottest(10) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.share_of_hottest(0), 0.0);
    }

    #[test]
    fn lines_for_share_inverts_share() {
        let cdf = Cdf::from_counts_desc(&[50, 30, 20]);
        assert_eq!(cdf.lines_for_share(0.5), 1);
        assert_eq!(cdf.lines_for_share(0.7), 2);
        assert_eq!(cdf.lines_for_share(0.95), 3);
    }

    #[test]
    fn empty_cdf_is_harmless() {
        let cdf = Cdf::from_counts_desc(&[]);
        assert!(cdf.cumulative.is_empty());
        assert_eq!(cdf.share_of_hottest(5), 0.0);
        assert!(cdf.log_spaced_series(10).is_empty());
    }

    #[test]
    fn log_series_is_monotonic() {
        let counts: Vec<u64> = (1..=1000u64).rev().collect();
        let cdf = Cdf::from_counts_desc(&counts);
        let series = cdf.log_spaced_series(20);
        assert!(!series.is_empty());
        for w in series.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert!((series.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "descending")]
    fn unsorted_counts_panic() {
        let _ = Cdf::from_counts_desc(&[1, 5]);
    }
}
