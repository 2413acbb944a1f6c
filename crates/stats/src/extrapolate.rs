//! Stratified extrapolation for sampled simulation.
//!
//! A sampled run partitions the measurement window into fixed-cycle
//! units, clusters the units by memory-access signature, and simulates
//! only a few representatives per cluster in detail. This module turns
//! those per-unit measurements back into whole-window estimates: each
//! cluster is a stratum weighted by its population, the measured units
//! are the within-stratum sample, and the estimate is the classic
//! stratified mean with a normal-approximation confidence interval.
//!
//! Everything here is deterministic: strata are processed in input
//! order, sums are accumulated in that order, and no randomness is
//! consumed — the same inputs produce bit-identical estimates on every
//! run, which the plan runner's determinism contract requires.

/// One stratum (signature cluster) of a sampled run.
#[derive(Debug, Clone, PartialEq)]
pub struct Stratum {
    /// The stratum's share of the whole window (cluster population /
    /// total units). Weights need not sum to 1; they are normalized
    /// over the *measured* strata, which also imputes any unmeasured
    /// stratum with the measured-population mean.
    pub weight: f64,
    /// The per-unit measurements taken inside this stratum (empty if
    /// the cluster was never simulated in detail).
    pub values: Vec<f64>,
}

impl Stratum {
    /// A stratum with `weight` and sampled `values`.
    pub fn new(weight: f64, values: Vec<f64>) -> Self {
        Stratum { weight, values }
    }

    fn mean(&self) -> f64 {
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / n as f64
    }

    /// Unbiased sample variance (0 when fewer than two samples).
    fn var(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64
    }
}

/// A point estimate with a 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The stratified point estimate.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (`mean ± ci_half`).
    pub ci_half: f64,
    /// Total measured samples behind the estimate.
    pub samples: usize,
    /// Strata that contributed at least one measurement.
    pub measured_strata: usize,
}

/// z-score of the two-sided 95% normal interval.
const Z95: f64 = 1.96;

/// The stratified estimator.
///
/// The point estimate is `Σ w'_c · mean_c` over measured strata, where
/// `w'_c` renormalizes the measured strata's weights to 1 — which is
/// exactly the estimator that imputes every *unmeasured* stratum with
/// the measured-population mean (unmeasured strata are expected to be
/// rare: unit selection measures every discovered cluster at least
/// once).
///
/// The variance is `Σ w'_c² · σ_c² / n_c`. Singleton strata
/// (`n_c == 1`) have no within-stratum variance estimate; they borrow
/// the weighted pooled variance of the multi-sample strata, or — when
/// every stratum is a singleton — the variance *across* the singleton
/// means, a conservative stand-in that keeps the interval honest
/// instead of collapsing it to zero.
pub fn stratified(strata: &[Stratum]) -> Estimate {
    let measured: Vec<&Stratum> = strata
        .iter()
        .filter(|s| !s.values.is_empty() && s.weight > 0.0)
        .collect();
    let samples: usize = measured.iter().map(|s| s.values.len()).sum();
    if measured.is_empty() {
        return Estimate {
            mean: 0.0,
            ci_half: 0.0,
            samples: 0,
            measured_strata: 0,
        };
    }

    let wsum: f64 = measured.iter().map(|s| s.weight).sum();
    let mean: f64 = measured.iter().map(|s| s.weight * s.mean()).sum::<f64>() / wsum;

    // Pooled variance over the strata that can estimate one.
    let mut pooled_w = 0.0;
    let mut pooled = 0.0;
    for s in &measured {
        if s.values.len() >= 2 {
            pooled_w += s.weight;
            pooled += s.weight * s.var();
        }
    }
    let fallback = if pooled_w > 0.0 {
        pooled / pooled_w
    } else {
        // All singletons: the spread of the singleton means.
        let vals: Vec<f64> = measured.iter().map(|s| s.mean()).collect();
        let m = vals.iter().sum::<f64>() / vals.len() as f64;
        if vals.len() < 2 {
            0.0
        } else {
            vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (vals.len() - 1) as f64
        }
    };

    let mut var = 0.0;
    for s in &measured {
        let w = s.weight / wsum;
        let n = s.values.len() as f64;
        let sv = if s.values.len() >= 2 {
            s.var()
        } else {
            fallback
        };
        var += w * w * sv / n;
    }

    Estimate {
        mean,
        ci_half: Z95 * var.sqrt(),
        samples,
        measured_strata: measured.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator so the tests are seeded without
    /// external dependencies (SplitMix64 step).
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A sample centered on `mid` with spread `half`.
        fn around(&mut self, mid: f64, half: f64) -> f64 {
            mid + (self.next() * 2.0 - 1.0) * half
        }
    }

    #[test]
    fn stratified_mean_weights_clusters_by_population() {
        // Two strata with exactly known means: 80% of the window at
        // 2.0, 20% at 10.0 -> 3.6.
        let strata = [
            Stratum::new(0.8, vec![2.0, 2.0, 2.0]),
            Stratum::new(0.2, vec![10.0, 10.0]),
        ];
        let e = stratified(&strata);
        assert!((e.mean - 3.6).abs() < 1e-12, "mean = {}", e.mean);
        assert_eq!(e.samples, 5);
        assert_eq!(e.measured_strata, 2);
        // Zero within-stratum variance -> zero-width interval.
        assert_eq!(e.ci_half, 0.0);
    }

    #[test]
    fn unmeasured_stratum_is_imputed_with_the_measured_mean() {
        // The unmeasured 50% stratum takes the measured strata's
        // weighted mean, so the estimate equals that mean.
        let strata = [
            Stratum::new(0.25, vec![4.0]),
            Stratum::new(0.25, vec![8.0]),
            Stratum::new(0.50, vec![]),
        ];
        let e = stratified(&strata);
        assert!((e.mean - 6.0).abs() < 1e-12);
        assert_eq!(e.measured_strata, 2);
    }

    #[test]
    fn ci_width_shrinks_with_sample_count() {
        // Seeded noise around a fixed center: quadrupling the sample
        // count should roughly halve the interval, and must strictly
        // shrink it at every step.
        let width = |n: usize, seed: u64| {
            let mut g = Gen(seed);
            let vals: Vec<f64> = (0..n).map(|_| g.around(100.0, 10.0)).collect();
            let e = stratified(&[Stratum::new(1.0, vals)]);
            assert!((e.mean - 100.0).abs() < 10.0);
            e.ci_half
        };
        let (w4, w16, w64) = (width(4, 7), width(16, 7), width(64, 7));
        assert!(w4 > w16 && w16 > w64, "widths {w4} {w16} {w64}");
        // ~1/sqrt(n): 16x the samples is ~4x narrower, allow slack for
        // the seeded draw.
        assert!(w4 / w64 > 2.0, "w4={w4} w64={w64}");
    }

    #[test]
    fn degenerate_one_cluster_reduces_to_the_simple_mean() {
        let mut g = Gen(42);
        let vals: Vec<f64> = (0..32).map(|_| g.around(5.0, 1.0)).collect();
        let plain = vals.iter().sum::<f64>() / vals.len() as f64;
        let e = stratified(&[Stratum::new(1.0, vals)]);
        assert!((e.mean - plain).abs() < 1e-12);
        assert!(e.ci_half > 0.0);
        assert!(e.ci_half / e.mean < 0.25);
        assert!(e.mean - e.ci_half < plain && plain < e.mean + e.ci_half);
    }

    #[test]
    fn single_sample_yields_a_point_not_a_lie() {
        // One unit, one cluster: no variance information at all — the
        // interval is honest about being unknown-width (0 here) rather
        // than invented.
        let e = stratified(&[Stratum::new(1.0, vec![7.0])]);
        assert_eq!(e.mean, 7.0);
        assert_eq!(e.ci_half, 0.0);
        assert_eq!(e.samples, 1);
    }

    #[test]
    fn all_singleton_strata_borrow_cross_stratum_spread() {
        // Three clusters measured once each: the interval must reflect
        // the spread across them instead of collapsing to zero.
        let strata = [
            Stratum::new(0.4, vec![10.0]),
            Stratum::new(0.3, vec![14.0]),
            Stratum::new(0.3, vec![6.0]),
        ];
        let e = stratified(&strata);
        assert!(e.ci_half > 0.0, "singleton strata must not claim certainty");
    }

    #[test]
    fn estimates_are_bit_deterministic() {
        let mut g = Gen(9);
        let strata: Vec<Stratum> = (0..4)
            .map(|i| {
                let vals = (0..8).map(|_| g.around(50.0 + i as f64, 3.0)).collect();
                Stratum::new(0.25, vals)
            })
            .collect();
        let a = stratified(&strata);
        let b = stratified(&strata);
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.ci_half.to_bits(), b.ci_half.to_bits());
    }
}
