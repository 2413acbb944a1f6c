//! Figure 8: cache-to-cache transfer ratio.
//!
//! The paper: the fraction of L2 misses that hit in another processor's
//! cache starts around 25% at two processors and rises rapidly past 60%
//! by fourteen — comparable to the highest ratios published for other
//! commercial workloads. Transfers occur even with the benchmark bound
//! to one processor, because the OS runs on all sixteen.

use simstats::Table;

use crate::figures::scaling::{ScalingData, ScalingPoint};

/// The Figure 8 result: `(processors, c2c ratio)` per workload.
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// ECperf's series.
    pub ecperf: Vec<(usize, f64)>,
    /// SPECjbb's series.
    pub jbb: Vec<(usize, f64)>,
}

fn series(points: &[ScalingPoint]) -> Vec<(usize, f64)> {
    points
        .iter()
        .map(|p| (p.p, p.mean(|r| r.c2c_ratio)))
        .collect()
}

/// Derives the figure from an existing scaling sweep.
pub fn from_data(data: &ScalingData) -> Fig08 {
    Fig08 {
        ecperf: series(&data.ecperf),
        jbb: series(&data.jbb),
    }
}

impl Fig08 {
    /// Renders the paper's series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 8: Cache-to-Cache Transfer Ratio (% of L2 misses)",
            &["P", "ECperf", "SPECjbb"],
        );
        for (e, j) in self.ecperf.iter().zip(&self.jbb) {
            t.row(&[
                e.0.to_string(),
                format!("{:.1}", e.1 * 100.0),
                format!("{:.1}", j.1 * 100.0),
            ]);
        }
        t
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (name, s) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            let first = s.first().copied().unwrap_or((1, 0.0));
            let last = s.last().copied().unwrap_or((1, 0.0));
            // Nonzero even at one processor (OS on the other cpus).
            if first.0 == 1 && first.1 <= 0.0 {
                v.push(format!("{name}: 1-processor c2c ratio should be nonzero"));
            }
            // Rises substantially with processors.
            if last.0 >= 8 && last.1 < first.1 + 0.10 {
                v.push(format!(
                    "{name}: c2c ratio must rise with P: {:.2} -> {:.2}",
                    first.1, last.1
                ));
            }
            if last.0 >= 12 && last.1 < 0.25 {
                v.push(format!(
                    "{name}: large-system c2c ratio too small: {:.2}",
                    last.1
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
    fn quick_run_ratio_grows() {
        let f = from_data(&run_scaling(&ExperimentPlan::new(Effort::Quick), &[1, 4]));
        assert!(f.jbb[1].1 > f.jbb[0].1, "{:?}", f.jbb);
        assert!(f.ecperf[1].1 > f.ecperf[0].1, "{:?}", f.ecperf);
        assert!(f.table().to_string().contains("Figure 8"));
    }
}
