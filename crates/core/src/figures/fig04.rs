//! Figure 4: throughput scaling on a Sun E6000.
//!
//! The paper: ECperf scales super-linearly from 1 to 8 processors,
//! peaks at a speedup of roughly 10 on 12 processors and degrades beyond;
//! SPECjbb climbs more gradually and levels off around 7 from 10
//! processors on. Neither gets close to linear at 15 processors.

use simstats::{fnum, Table};

use crate::figures::scaling::ScalingData;

/// The Figure 4 result: speedup curves for both workloads.
#[derive(Debug, Clone)]
pub struct Fig04 {
    /// `(processors, speedup)` for SPECjbb.
    pub jbb: Vec<(usize, f64)>,
    /// `(processors, speedup)` for ECperf.
    pub ecperf: Vec<(usize, f64)>,
}

/// Derives the figure from an existing scaling sweep.
pub fn from_data(data: &ScalingData) -> Fig04 {
    Fig04 {
        jbb: ScalingData::speedups(&data.jbb),
        ecperf: ScalingData::speedups(&data.ecperf),
    }
}

impl Fig04 {
    /// Renders the paper's series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 4: Throughput Scaling on a Sun E6000 (speedup vs 1 processor)",
            &["P", "ECperf", "SPECjbb", "linear"],
        );
        for (j, e) in self.jbb.iter().zip(&self.ecperf) {
            t.row(&[j.0.to_string(), fnum(e.1), fnum(j.1), fnum(j.0 as f64)]);
        }
        t
    }

    /// Checks the paper's qualitative claims; returns human-readable
    /// violations (empty = shape preserved).
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let last = |s: &[(usize, f64)]| s.last().copied().unwrap_or((1, 1.0));
        let at = |s: &[(usize, f64)], p: usize| s.iter().find(|x| x.0 == p).map(|x| x.1);

        // Both workloads end far from linear speedup.
        for (name, series) in [("SPECjbb", &self.jbb), ("ECperf", &self.ecperf)] {
            let (p, s) = last(series);
            if p >= 12 && s > 0.75 * p as f64 {
                v.push(format!(
                    "{name}: speedup {s:.1} at {p}p is too close to linear"
                ));
            }
            if p >= 12 && s < 3.0 {
                v.push(format!("{name}: speedup {s:.1} at {p}p is implausibly low"));
            }
        }
        // SPECjbb levels off: the last point gains little over 12p.
        if let (Some(s12), Some(send)) = (at(&self.jbb, 12), Some(last(&self.jbb).1)) {
            if send > s12 * 1.25 {
                v.push(format!(
                    "SPECjbb keeps scaling after 12p ({s12:.1} -> {send:.1})"
                ));
            }
        }
        // ECperf outpaces SPECjbb in relative speedup through 8 processors.
        if let (Some(e8), Some(j8)) = (at(&self.ecperf, 8), at(&self.jbb, 8)) {
            if e8 < j8 * 0.9 {
                v.push(format!(
                    "ECperf speedup at 8p ({e8:.1}) should be at least SPECjbb's ({j8:.1})"
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::scaling::run_scaling;
    use crate::{Effort, ExperimentPlan};

    #[test]
    fn quick_two_point_run_produces_monotone_speedup() {
        let f = from_data(&run_scaling(&ExperimentPlan::new(Effort::Quick), &[1, 4]));
        assert_eq!(f.jbb.len(), 2);
        assert!((f.jbb[0].1 - 1.0).abs() < 1e-9);
        assert!(f.jbb[1].1 > 1.5, "4p must beat 1p: {:?}", f.jbb);
        assert!(f.ecperf[1].1 > 1.5, "4p must beat 1p: {:?}", f.ecperf);
        let t = f.table().to_string();
        assert!(t.contains("Figure 4"));
    }
}
