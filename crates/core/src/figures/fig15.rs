//! Figure 15: cumulative distribution of cache-to-cache transfers vs the
//! *absolute* amount of memory (semi-log).
//!
//! The paper's point: even though SPECjbb touches far more data in total,
//! ECperf has the larger *absolute* communication footprint — its
//! transfers are spread over more distinct lines, not just a larger
//! percentage of a smaller set.

use simstats::{Cdf, Table};

use crate::figures::fig14::{CommFootprint, Fig14};

/// The Figure 15 result: log-spaced CDF points per workload.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// ECperf: `(lines, cumulative share)`.
    pub ecperf: Vec<(usize, f64)>,
    /// SPECjbb: `(lines, cumulative share)`.
    pub jbb: Vec<(usize, f64)>,
    /// ECperf's communicating-line count (absolute footprint).
    pub ecperf_lines: u64,
    /// SPECjbb's communicating-line count.
    pub jbb_lines: u64,
}

/// Derives the figure from Figure 14's measurement.
pub fn from_fig14(f: &Fig14) -> Fig15 {
    let series = |c: &CommFootprint| Cdf::from_counts_desc(&c.counts_desc).log_spaced_series(24);
    Fig15 {
        ecperf: series(&f.ecperf),
        jbb: series(&f.jbb),
        ecperf_lines: f.ecperf.communicating_lines,
        jbb_lines: f.jbb.communicating_lines,
    }
}

impl Fig15 {
    /// Renders the semi-log CDF series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 15: Distribution of Cache-to-Cache Transfers vs Memory Touched (64-byte lines)",
            &["workload", "lines", "cumulative share"],
        );
        for (name, s) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            for (lines, share) in s {
                t.row(&[name.to_string(), lines.to_string(), format!("{:.3}", share)]);
            }
        }
        t
    }

    /// Checks the paper's qualitative claim.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        // ECperf's absolute communication footprint exceeds SPECjbb's.
        if self.ecperf_lines <= self.jbb_lines {
            v.push(format!(
                "ECperf's absolute communication footprint ({} lines) should exceed \
                 SPECjbb's ({} lines)",
                self.ecperf_lines, self.jbb_lines
            ));
        }
        // CDFs are monotone and reach 1.
        for (name, s) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            if let Some(last) = s.last() {
                if (last.1 - 1.0).abs() > 1e-6 {
                    v.push(format!("{name}: CDF does not reach 1: {:.3}", last.1));
                }
            } else {
                v.push(format!("{name}: empty CDF"));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig14;
    use crate::{Effort, ExperimentPlan};

    #[test]
    fn quick_run_produces_complete_cdfs() {
        let f = from_fig14(&fig14::run(&ExperimentPlan::new(Effort::Quick), 4));
        assert!(!f.jbb.is_empty() && !f.ecperf.is_empty());
        assert!((f.jbb.last().unwrap().1 - 1.0).abs() < 1e-9);
        assert!(f.table().to_string().contains("Figure 15"));
    }
}
