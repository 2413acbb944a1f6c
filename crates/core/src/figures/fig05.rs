//! Figure 5: execution-mode breakdown vs number of processors.
//!
//! The paper: ECperf's system time climbs from under 5% at one processor
//! to nearly 30% at fifteen (kernel networking contention), while SPECjbb
//! spends essentially no time in the kernel; both workloads reach roughly
//! 25% idle time on large processor sets, with garbage collection only a
//! minor slice of it.

use simstats::Table;
use sysos::modes::ModeBreakdown;

use crate::figures::scaling::{ScalingData, ScalingPoint};

/// Mode breakdowns per processor count for one workload.
#[derive(Debug, Clone)]
pub struct ModeSeries {
    /// `(processors, mean breakdown)`.
    pub points: Vec<(usize, ModeBreakdown)>,
}

/// The Figure 5 result.
#[derive(Debug, Clone)]
pub struct Fig05 {
    /// ECperf's series.
    pub ecperf: ModeSeries,
    /// SPECjbb's series.
    pub jbb: ModeSeries,
}

fn mean_modes(points: &[ScalingPoint]) -> ModeSeries {
    ModeSeries {
        points: points
            .iter()
            .map(|p| {
                let b = ModeBreakdown {
                    user: p.mean(|r| r.modes.user),
                    system: p.mean(|r| r.modes.system),
                    io: p.mean(|r| r.modes.io),
                    idle: p.mean(|r| r.modes.idle),
                    gc_idle: p.mean(|r| r.modes.gc_idle),
                };
                (p.p, b)
            })
            .collect(),
    }
}

/// Derives the figure from an existing scaling sweep.
pub fn from_data(data: &ScalingData) -> Fig05 {
    Fig05 {
        ecperf: mean_modes(&data.ecperf),
        jbb: mean_modes(&data.jbb),
    }
}

impl Fig05 {
    /// Renders the paper's stacked bars as rows.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 5: Execution Mode Breakdown vs Number of Processors (%)",
            &["workload", "P", "user", "system", "io", "idle", "gc-idle"],
        );
        for (name, series) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            for (p, b) in &series.points {
                t.row(&[
                    name.to_string(),
                    p.to_string(),
                    format!("{:.1}", b.user * 100.0),
                    format!("{:.1}", b.system * 100.0),
                    format!("{:.1}", b.io * 100.0),
                    format!("{:.1}", b.idle * 100.0),
                    format!("{:.1}", b.gc_idle * 100.0),
                ]);
            }
        }
        t
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let first = |s: &ModeSeries| s.points.first().map(|p| p.1).unwrap_or_default();
        let last = |s: &ModeSeries| s.points.last().map(|p| p.1).unwrap_or_default();

        // ECperf system time grows markedly with processors.
        let (e1, eend) = (first(&self.ecperf), last(&self.ecperf));
        if eend.system < e1.system + 0.05 {
            v.push(format!(
                "ECperf system time must grow with P: {:.2} -> {:.2}",
                e1.system, eend.system
            ));
        }
        if e1.system > 0.20 {
            v.push(format!(
                "ECperf 1-processor system time too large: {:.2}",
                e1.system
            ));
        }
        // SPECjbb spends essentially no time in the kernel.
        let jend = last(&self.jbb);
        if jend.system > 0.08 {
            v.push(format!(
                "SPECjbb system time should be tiny: {:.2}",
                jend.system
            ));
        }
        // Significant idle appears on large systems for both workloads.
        if self.jbb.points.last().map(|p| p.0).unwrap_or(0) >= 12 {
            if jend.total_idle() < 0.10 {
                v.push(format!(
                    "SPECjbb large-system idle too small: {:.2}",
                    jend.total_idle()
                ));
            }
            let e = last(&self.ecperf);
            if e.total_idle() + e.system < 0.15 {
                v.push(format!(
                    "ECperf large-system contention (idle+sys) too small: {:.2}",
                    e.total_idle() + e.system
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
    fn quick_run_modes_sum_to_one() {
        let f = from_data(&run_scaling(&ExperimentPlan::new(Effort::Quick), &[2]));
        for (_, b) in f.jbb.points.iter().chain(&f.ecperf.points) {
            assert!((b.sum() - 1.0).abs() < 0.02, "mode sum: {}", b.sum());
        }
        assert!(f.table().to_string().contains("Figure 5"));
    }
}
