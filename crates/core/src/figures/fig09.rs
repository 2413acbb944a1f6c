//! Figure 9: effect of garbage collection on throughput scaling.
//!
//! The paper: subtracting garbage-collection time from the runtime gives
//! only slightly better speedups — statistically significant for ECperf
//! up to 6 processors, insignificant at larger sizes. GC is *not* the
//! main scalability limiter.

use simstats::{fnum, Table};

use crate::figures::scaling::{ScalingData, ScalingPoint};

/// One workload's measured and GC-factored-out speedups.
#[derive(Debug, Clone)]
pub struct GcSpeedups {
    /// `(processors, speedup, speedup with GC time factored out)`.
    pub points: Vec<(usize, f64, f64)>,
}

/// The Figure 9 result.
#[derive(Debug, Clone)]
pub struct Fig09 {
    /// ECperf's series.
    pub ecperf: GcSpeedups,
    /// SPECjbb's series.
    pub jbb: GcSpeedups,
}

fn series(points: &[ScalingPoint]) -> GcSpeedups {
    let base = points
        .first()
        .map(|p| p.mean(|r| r.throughput()))
        .unwrap_or(1.0)
        .max(f64::MIN_POSITIVE);
    let base_nogc = points
        .first()
        .map(|p| p.mean(|r| r.throughput_no_gc()))
        .unwrap_or(1.0)
        .max(f64::MIN_POSITIVE);
    GcSpeedups {
        points: points
            .iter()
            .map(|p| {
                (
                    p.p,
                    p.mean(|r| r.throughput()) / base,
                    p.mean(|r| r.throughput_no_gc()) / base_nogc,
                )
            })
            .collect(),
    }
}

/// Derives the figure from an existing scaling sweep.
pub fn from_data(data: &ScalingData) -> Fig09 {
    Fig09 {
        ecperf: series(&data.ecperf),
        jbb: series(&data.jbb),
    }
}

impl Fig09 {
    /// Renders the solid (measured) and dotted (no-GC) curves.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 9: Effect of Garbage Collection on Throughput Scaling (speedup)",
            &["P", "ECperf", "ECperf noGC", "SPECjbb", "SPECjbb noGC"],
        );
        for (e, j) in self.ecperf.points.iter().zip(&self.jbb.points) {
            t.row(&[e.0.to_string(), fnum(e.1), fnum(e.2), fnum(j.1), fnum(j.2)]);
        }
        t
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (name, s) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            for &(p, with, without) in &s.points {
                // Factoring GC out never hurts much (small numerical noise
                // allowed) and never transforms the curve.
                if without < with * 0.9 {
                    v.push(format!(
                        "{name} at {p}p: no-GC speedup below measured ({without:.2} < {with:.2})"
                    ));
                }
                if without > with * 1.6 {
                    v.push(format!(
                        "{name} at {p}p: GC dominates scaling ({with:.2} -> {without:.2}), \
                         contradicting the paper"
                    ));
                }
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
    fn quick_run_gap_is_small() {
        let f = from_data(&run_scaling(&ExperimentPlan::new(Effort::Quick), &[1, 4]));
        for (_, with, without) in f.jbb.points.iter().chain(&f.ecperf.points) {
            assert!(*without >= with * 0.8, "no-GC {without} vs {with}");
        }
        assert!(f.table().to_string().contains("Figure 9"));
    }
}
