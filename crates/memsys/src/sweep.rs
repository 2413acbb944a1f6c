//! Single-pass cache-size sweeps (Figures 12 and 13).
//!
//! The paper reports uniprocessor instruction- and data-cache miss rates
//! across cache sizes from 64 KB to 16 MB (4-way set-associative, 64-byte
//! blocks). A [`CacheSweep`] holds one cache per size and feeds every
//! reference to all of them in a single pass over the reference stream, so a
//! whole figure's worth of points costs one simulation.

use crate::addr::Addr;
use crate::cache::Cache;
use crate::config::{CacheConfig, ConfigError};
use crate::protocol::LineState;

/// The paper's Figure 12/13 cache-size axis: 64 KB to 16 MB by powers of 2.
pub const PAPER_SIZES: [u64; 9] = [
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
    8 << 20,
    16 << 20,
];

/// Miss statistics for one cache size in a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepPoint {
    /// References observed.
    pub accesses: u64,
    /// Misses observed.
    pub misses: u64,
}

impl SweepPoint {
    /// Misses per 1000 *instructions* — the paper's y-axis — given the
    /// total instruction count of the measurement window.
    pub fn misses_per_kilo_instr(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

/// A bank of caches of different sizes fed by one reference stream.
#[derive(Debug, Clone)]
pub struct CacheSweep {
    caches: Vec<Cache<4>>,
    points: Vec<SweepPoint>,
    sizes: Vec<u64>,
}

impl CacheSweep {
    /// Builds a sweep over the given capacities with the paper's 4-way /
    /// 64-byte geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any capacity is invalid.
    pub fn new(sizes: &[u64]) -> Result<Self, ConfigError> {
        let mut caches = Vec::with_capacity(sizes.len());
        for &s in sizes {
            caches.push(Cache::new(CacheConfig::new(s, 4, 64)?));
        }
        Ok(CacheSweep {
            points: vec![SweepPoint::default(); sizes.len()],
            sizes: sizes.to_vec(),
            caches,
        })
    }

    /// A sweep over the paper's 64 KB–16 MB axis.
    pub fn paper() -> Self {
        CacheSweep::new(&PAPER_SIZES).expect("paper sizes are valid")
    }

    /// Feeds one reference to every cache in the bank.
    #[inline]
    pub fn access(&mut self, addr: Addr) {
        for (cache, point) in self.caches.iter_mut().zip(&mut self.points) {
            point.accesses += 1;
            if cache.touch(addr).is_none() {
                point.misses += 1;
                let _ = cache.insert(addr, LineState::Shared);
            }
        }
    }

    /// `(capacity_bytes, point)` pairs in ascending capacity order.
    pub fn results(&self) -> Vec<(u64, SweepPoint)> {
        self.sizes
            .iter()
            .copied()
            .zip(self.points.iter().copied())
            .collect()
    }

    /// Resets statistics but keeps cache contents (for warm-up windows).
    pub fn reset_stats(&mut self) {
        for p in &mut self.points {
            *p = SweepPoint::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_caches_never_miss_more_on_looping_stream() {
        // A cyclic working set of 2048 lines (128 KB): caches >= 256 KB
        // should capture it entirely after the first lap; 64 KB cannot.
        let mut sweep = CacheSweep::new(&[64 << 10, 256 << 10, 1 << 20]).unwrap();
        for lap in 0..4 {
            for i in 0..2048u64 {
                sweep.access(Addr(i * 64));
            }
            if lap == 0 {
                sweep.reset_stats();
            }
        }
        let r = sweep.results();
        let miss_rate = |p: &SweepPoint| p.misses as f64 / p.accesses as f64;
        let small = miss_rate(&r[0].1);
        let mid = miss_rate(&r[1].1);
        let big = miss_rate(&r[2].1);
        assert!(small > 0.9, "64 KB thrashes on a 128 KB loop: {small}");
        assert_eq!(mid, 0.0, "256 KB holds the loop");
        assert_eq!(big, 0.0);
    }

    #[test]
    fn misses_per_kilo_instr_uses_instruction_base() {
        let p = SweepPoint {
            accesses: 500,
            misses: 50,
        };
        assert!((p.misses_per_kilo_instr(10_000) - 5.0).abs() < 1e-12);
        assert_eq!(p.misses_per_kilo_instr(0), 0.0);
    }

    #[test]
    fn paper_sweep_has_nine_sizes() {
        let s = CacheSweep::paper();
        let r = s.results();
        assert_eq!(r.len(), 9);
        assert_eq!(r[0].0, 64 << 10);
        assert_eq!(r[8].0, 16 << 20);
    }

    #[test]
    fn cold_misses_counted_once_per_line() {
        let mut s = CacheSweep::new(&[1 << 20]).unwrap();
        for i in 0..100u64 {
            s.access(Addr(i * 64));
        }
        for i in 0..100u64 {
            s.access(Addr(i * 64));
        }
        let (_, p) = s.results()[0];
        assert_eq!(p.accesses, 200);
        assert_eq!(p.misses, 100, "second lap hits everywhere");
    }
}
