//! Figure 6: CPI breakdown vs number of processors.
//!
//! The paper: overall CPI ranges from 1.8 to 2.4 for SPECjbb and 2.0 to
//! 2.8 for ECperf — moderate for commercial workloads on in-order
//! processors — rising roughly 33–40% from 1 to 15 processors, with the
//! growth coming almost entirely from data stalls.

use simstats::{fnum, Table};

use crate::figures::scaling::{ScalingData, ScalingPoint};

/// One workload's CPI components per processor count.
#[derive(Debug, Clone)]
pub struct CpiSeries {
    /// `(processors, instr-stall CPI, data-stall CPI, other CPI)`.
    pub points: Vec<(usize, f64, f64, f64)>,
}

impl CpiSeries {
    /// Total CPI at each point.
    pub(crate) fn totals(&self) -> Vec<(usize, f64)> {
        self.points
            .iter()
            .map(|(p, i, d, o)| (*p, i + d + o))
            .collect()
    }
}

/// The Figure 6 result.
#[derive(Debug, Clone)]
pub struct Fig06 {
    /// ECperf's series.
    pub ecperf: CpiSeries,
    /// SPECjbb's series.
    pub jbb: CpiSeries,
}

fn series(points: &[ScalingPoint]) -> CpiSeries {
    CpiSeries {
        points: points
            .iter()
            .map(|p| {
                (
                    p.p,
                    p.mean(|r| r.cpi.instr_stall_cpi()),
                    p.mean(|r| r.cpi.data_stall_cpi()),
                    p.mean(|r| r.cpi.other_cpi()),
                )
            })
            .collect(),
    }
}

/// Derives the figure from an existing scaling sweep.
pub fn from_data(data: &ScalingData) -> Fig06 {
    Fig06 {
        ecperf: series(&data.ecperf),
        jbb: series(&data.jbb),
    }
}

impl Fig06 {
    /// Renders the paper's stacked bars as rows.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 6: CPI Breakdown vs Number of Processors",
            &[
                "workload",
                "P",
                "instr stall",
                "data stall",
                "other",
                "total",
            ],
        );
        for (name, s) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            for (p, i, d, o) in &s.points {
                t.row(&[
                    name.to_string(),
                    p.to_string(),
                    fnum(*i),
                    fnum(*d),
                    fnum(*o),
                    fnum(i + d + o),
                ]);
            }
        }
        t
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (name, s, lo, hi) in [
            ("ECperf", &self.ecperf, 1.6, 3.4),
            ("SPECjbb", &self.jbb, 1.3, 3.0),
        ] {
            let totals = s.totals();
            let (first, last) = (totals.first().unwrap().1, totals.last().unwrap().1);
            if !(lo..=hi).contains(&first) || !(lo..=hi).contains(&last) {
                v.push(format!(
                    "{name}: CPI out of the paper's band: {first:.2} .. {last:.2}"
                ));
            }
            // The paper sees ~33-40% CPI growth to 15 processors; our
            // compressed transactions reproduce the direction and the
            // data-stall attribution with a smaller magnitude.
            if last < first * 1.05 {
                v.push(format!(
                    "{name}: CPI must grow noticeably with P: {first:.2} -> {last:.2}"
                ));
            }
            // Data stall is the growth component.
            let d_first = s.points.first().unwrap().2;
            let d_last = s.points.last().unwrap().2;
            let growth = last - first;
            if growth > 0.0 && (d_last - d_first) < 0.5 * growth {
                v.push(format!(
                    "{name}: data stall should carry the CPI growth ({:.2} of {:.2})",
                    d_last - d_first,
                    growth
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
    fn quick_run_cpi_in_plausible_band() {
        let f = from_data(&run_scaling(&ExperimentPlan::new(Effort::Quick), &[1, 4]));
        for (_, total) in f.jbb.totals() {
            assert!((1.3..4.0).contains(&total), "jbb CPI {total}");
        }
        for (_, total) in f.ecperf.totals() {
            assert!((1.5..4.0).contains(&total), "ecperf CPI {total}");
        }
        assert!(f.table().to_string().contains("Figure 6"));
    }
}
