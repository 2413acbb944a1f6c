//! Streaming mean / standard deviation (Welford's algorithm).

use std::fmt;

/// A running summary of samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub(crate) fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub(crate) fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ± {:.3}", self.mean(), self.stddev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.n, 0);
    }

    #[test]
    fn known_mean_and_stddev() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample stddev with n-1: sqrt(32/7).
        assert!((s.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let s: Summary = [42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn display_formats_mean_and_error() {
        let s: Summary = [1.0, 3.0].into_iter().collect();
        assert_eq!(s.to_string(), "2.000 ± 1.414");
    }

    #[test]
    fn extend_matches_push() {
        let mut a = Summary::new();
        a.extend([1.0, 2.0, 3.0]);
        let b: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        assert!((a.mean() - b.mean()).abs() < 1e-12);
        assert!((a.stddev() - b.stddev()).abs() < 1e-12);
    }
}
