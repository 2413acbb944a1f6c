//! Per-cache-line communication statistics (Figures 14 and 15).
//!
//! Tracks, over a measurement window, the set of distinct 64-byte lines
//! touched and the number of cache-to-cache transfers each line caused.
//! From those two ingredients the paper's communication-footprint CDFs are
//! derived: cumulative share of cache-to-cache transfers versus (a) the
//! percentage of touched lines and (b) the absolute number of lines.
//!
//! Uses an FxHash-style multiplicative hasher: the simulator pushes every
//! reference through this map, and SipHash would dominate the run time.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::LineAddr;

/// A fast, non-cryptographic hasher for line addresses (FxHash-style).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
}

type BuildFx = BuildHasherDefault<FxHasher>;

/// Communication-footprint tracker.
#[derive(Debug, Default, Clone)]
pub struct LineStats {
    touched: HashSet<u64, BuildFx>,
    c2c: HashMap<u64, u64, BuildFx>,
}

impl LineStats {
    /// Records that `line` was referenced.
    #[inline]
    pub fn record_touch(&mut self, line: LineAddr) {
        self.touched.insert(line.0);
    }

    /// Records a cache-to-cache transfer of `line`.
    #[inline]
    pub fn record_c2c(&mut self, line: LineAddr) {
        *self.c2c.entry(line.0).or_insert(0) += 1;
    }

    /// Number of distinct lines touched in the window.
    pub fn touched_lines(&self) -> u64 {
        self.touched.len() as u64
    }

    /// Number of distinct lines that caused at least one transfer.
    pub fn communicating_lines(&self) -> u64 {
        self.c2c.len() as u64
    }

    /// Total cache-to-cache transfers recorded.
    pub fn total_c2c(&self) -> u64 {
        self.c2c.values().sum()
    }

    /// Per-line transfer counts, sorted descending — the raw series behind
    /// the paper's Figures 14/15 CDFs.
    pub fn c2c_counts_desc(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.c2c.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Share of all transfers caused by the single hottest line
    /// (the paper reports 20% for SPECjbb, 14% for ECperf).
    pub fn hottest_line_share(&self) -> f64 {
        let total = self.total_c2c();
        if total == 0 {
            return 0.0;
        }
        let max = self.c2c.values().copied().max().unwrap_or(0);
        max as f64 / total as f64
    }

    /// Cumulative share of transfers contributed by the hottest
    /// `fraction` (0..=1) of *touched* lines — a point on Figure 14.
    pub fn share_from_hottest_fraction(&self, fraction: f64) -> f64 {
        let total = self.total_c2c();
        if total == 0 {
            return 0.0;
        }
        let take = ((self.touched_lines() as f64) * fraction).ceil() as usize;
        let counts = self.c2c_counts_desc();
        let sum: u64 = counts.iter().take(take).sum();
        sum as f64 / total as f64
    }

    /// Fraction of touched lines needed to cover *all* transfers
    /// (the paper: 12% for SPECjbb, ~50% for ECperf).
    pub fn fraction_covering_all(&self) -> f64 {
        if self.touched.is_empty() {
            return 0.0;
        }
        self.communicating_lines() as f64 / self.touched_lines() as f64
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.touched.clear();
        self.c2c.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(counts: &[(u64, u64)], touched_extra: u64) -> LineStats {
        let mut s = LineStats::default();
        for &(line, n) in counts {
            s.record_touch(LineAddr(line));
            for _ in 0..n {
                s.record_c2c(LineAddr(line));
            }
        }
        for i in 0..touched_extra {
            s.record_touch(LineAddr(1_000_000 + i));
        }
        s
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LineStats::default();
        assert_eq!(s.touched_lines(), 0);
        assert_eq!(s.total_c2c(), 0);
        assert_eq!(s.hottest_line_share(), 0.0);
        assert_eq!(s.share_from_hottest_fraction(0.5), 0.0);
        assert_eq!(s.fraction_covering_all(), 0.0);
    }

    #[test]
    fn hottest_line_share_is_max_over_total() {
        let s = stats_with(&[(1, 20), (2, 50), (3, 30)], 0);
        assert!((s.hottest_line_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_sorted_descending() {
        let s = stats_with(&[(1, 5), (2, 9), (3, 1)], 0);
        assert_eq!(s.c2c_counts_desc(), vec![9, 5, 1]);
    }

    #[test]
    fn share_from_fraction_counts_touched_lines() {
        // 10 touched lines, 2 of which communicate (90 and 10 transfers).
        let s = stats_with(&[(1, 90), (2, 10)], 8);
        assert_eq!(s.touched_lines(), 10);
        // Hottest 10% of touched lines = 1 line = 90% of transfers.
        assert!((s.share_from_hottest_fraction(0.10) - 0.9).abs() < 1e-12);
        // 20% = both communicating lines = everything.
        assert!((s.share_from_hottest_fraction(0.20) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_covering_all_matches_paper_metric() {
        let s = stats_with(&[(1, 3), (2, 4), (3, 5)], 22);
        assert_eq!(s.touched_lines(), 25);
        assert!((s.fraction_covering_all() - 3.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_window() {
        let mut s = stats_with(&[(1, 2)], 3);
        s.reset();
        assert_eq!(s.touched_lines(), 0);
        assert_eq!(s.total_c2c(), 0);
    }

    #[test]
    fn duplicate_touches_count_once() {
        let mut s = LineStats::default();
        for _ in 0..100 {
            s.record_touch(LineAddr(7));
        }
        assert_eq!(s.touched_lines(), 1);
    }
}
