//! Figure 13: data-cache miss rate vs cache size.
//!
//! The paper: small (16–64 KB) caches see tens of misses per 1000
//! instructions; at 1 MB and beyond the data miss rate falls under two
//! per 1000. ECperf's data miss rate is *lower than even the smallest
//! SPECjbb configuration's* — its middle-tier data set is small — while
//! SPECjbb's grows with the warehouse count (up to ~30% higher at 25
//! warehouses than at 1), since the emulated database lives in the heap.

use simstats::Table;

use crate::figures::fig12::{at_size, render_curves, Curve, SweepData, JBB_WAREHOUSES};

/// The Figure 13 result.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// ECperf's curve.
    pub ecperf: Curve,
    /// SPECjbb's curves at 1/10/25 warehouses.
    pub jbb: [Curve; 3],
}

/// Derives the figure from existing sweep data.
pub fn from_data(d: &SweepData) -> Fig13 {
    Fig13 {
        ecperf: d.ecperf_d.clone(),
        jbb: d.jbb_d.clone(),
    }
}

impl Fig13 {
    /// Renders the paper's series.
    pub fn table(&self) -> Table {
        render_curves(
            "Figure 13: Data Cache Miss Rate (misses / 1000 instructions)",
            &self.ecperf,
            &self.jbb,
        )
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let sizes_big = [1u64 << 20, 4 << 20];
        // SPECjbb's miss rate grows with the data set (warehouses).
        for &size in &sizes_big {
            let j1 = at_size(&self.jbb[0], size);
            let j25 = at_size(&self.jbb[2], size);
            if j25 < j1 {
                v.push(format!(
                    "SPECjbb-25 D-miss at {}KB ({j25:.2}) must exceed SPECjbb-1 ({j1:.2})",
                    size >> 10
                ));
            }
        }
        // ECperf stays below SPECjbb's largest configuration at L2 sizes.
        for &size in &sizes_big {
            let e = at_size(&self.ecperf, size);
            let j25 = at_size(&self.jbb[2], size);
            if e > j25 {
                v.push(format!(
                    "ECperf D-miss at {}KB ({e:.2}) must be below SPECjbb-25 ({j25:.2})",
                    size >> 10
                ));
            }
        }
        // Small caches see substantial miss rates; 1 MB sees low ones.
        let e64 = at_size(&self.ecperf, 64 << 10);
        if e64 < 2.0 {
            v.push(format!("64KB D-miss implausibly low: {e64:.2}"));
        }
        for (name, c) in [("SPECjbb-1", &self.jbb[0]), ("ECperf", &self.ecperf)] {
            let m1 = at_size(c, 1 << 20);
            if m1 > 6.0 {
                v.push(format!("{name}: 1MB D-miss too high: {m1:.2}"));
            }
        }
        let _ = JBB_WAREHOUSES;
        v
    }
}
