//! Zipf-distributed key sampling.
//!
//! Database record popularity in transaction workloads is heavily skewed
//! (a few customers/items are hot, most are cold). The skew is what gives
//! data-cache miss-rate curves their slope between the L1 and the full
//! data-set size: popular records become cache-resident at intermediate
//! capacities. [`ZipfSampler`] draws indices `0..n` with probability
//! proportional to `1/(i+1)^s`.

use prng::SimRng;

/// A precomputed Zipf sampler over `0..n`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `0..n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is not finite and non-negative
    /// (`s = 0` degenerates to uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut sum = 0.0;
        for i in 0..n {
            sum += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(sum);
        }
        for c in &mut cumulative {
            *c /= sum;
        }
        ZipfSampler { cumulative }
    }

    /// Draws an index; `0` is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_s_is_zero() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "uniform-ish: {counts:?}");
        }
    }

    #[test]
    fn skew_concentrates_on_low_indices() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = SimRng::seed_from_u64(2);
        let mut head = 0;
        const N: usize = 50_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        let frac = head as f64 / N as f64;
        assert!(frac > 0.3, "top-1% of keys should draw >30%: {frac}");
    }

    #[test]
    fn samples_stay_in_domain() {
        let z = ZipfSampler::new(7, 1.5);
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
