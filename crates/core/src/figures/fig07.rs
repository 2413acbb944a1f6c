//! Figure 7: data-stall-time breakdown vs number of processors.
//!
//! The paper: roughly 60% of data-stall time is due to L2 misses, with
//! most of the rest L2 hits; cache-to-cache transfers grow to nearly 50%
//! of the total data stall on larger systems; store-buffer stalls are
//! only 1–2% of execution time and read-after-write hazards about 1%.

use simstats::Table;

use crate::figures::scaling::{ScalingData, ScalingPoint};

/// Data-stall fractions at one processor count.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallSlices {
    /// Store-buffer-full share of data-stall time.
    pub store_buffer: f64,
    /// RAW-hazard share.
    pub raw: f64,
    /// L2-hit share.
    pub l2_hit: f64,
    /// Cache-to-cache share.
    pub c2c: f64,
    /// Memory share.
    pub memory: f64,
}

impl StallSlices {
    /// Share of data stall due to L2 *misses* (c2c + memory).
    pub(crate) fn l2_miss_share(&self) -> f64 {
        self.c2c + self.memory
    }
}

/// One workload's series.
#[derive(Debug, Clone)]
pub struct StallSeries {
    /// `(processors, slices, data-stall fraction of execution time)`.
    pub points: Vec<(usize, StallSlices, f64)>,
}

/// The Figure 7 result.
#[derive(Debug, Clone)]
pub struct Fig07 {
    /// ECperf's series.
    pub ecperf: StallSeries,
    /// SPECjbb's series.
    pub jbb: StallSeries,
}

fn series(points: &[ScalingPoint]) -> StallSeries {
    StallSeries {
        points: points
            .iter()
            .map(|p| {
                let total = p.mean(|r| r.cpi.data_stall.total() as f64).max(1.0);
                let slices = StallSlices {
                    store_buffer: p.mean(|r| r.cpi.data_stall.store_buffer as f64) / total,
                    raw: p.mean(|r| r.cpi.data_stall.raw_hazard as f64) / total,
                    l2_hit: p.mean(|r| r.cpi.data_stall.l2_hit as f64) / total,
                    c2c: p.mean(|r| r.cpi.data_stall.cache_to_cache as f64) / total,
                    memory: p.mean(|r| r.cpi.data_stall.memory as f64) / total,
                };
                (p.p, slices, p.mean(|r| r.cpi.data_stall_fraction()))
            })
            .collect(),
    }
}

/// Derives the figure from an existing scaling sweep.
pub fn from_data(data: &ScalingData) -> Fig07 {
    Fig07 {
        ecperf: series(&data.ecperf),
        jbb: series(&data.jbb),
    }
}

impl Fig07 {
    /// Renders the paper's stacked bars as rows (fractions of data-stall
    /// time).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 7: Data Stall Time Breakdown vs Number of Processors (fraction of data stall)",
            &[
                "workload",
                "P",
                "store buf",
                "RAW",
                "L2 hit",
                "C2C",
                "mem",
                "stall/time",
            ],
        );
        for (name, s) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            for (p, x, frac) in &s.points {
                t.row(&[
                    name.to_string(),
                    p.to_string(),
                    format!("{:.3}", x.store_buffer),
                    format!("{:.3}", x.raw),
                    format!("{:.3}", x.l2_hit),
                    format!("{:.3}", x.c2c),
                    format!("{:.3}", x.memory),
                    format!("{:.3}", frac),
                ]);
            }
        }
        t
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (name, s) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            let Some((_, last, _)) = s.points.last() else {
                continue;
            };
            // Store-buffer and RAW stalls are minor slices.
            if last.store_buffer > 0.15 {
                v.push(format!(
                    "{name}: store-buffer share too large: {:.2}",
                    last.store_buffer
                ));
            }
            if last.raw > 0.15 {
                v.push(format!("{name}: RAW share too large: {:.2}", last.raw));
            }
            // The bulk of data stall is L2 misses (plus the L2-hit rest).
            if last.l2_miss_share() < 0.35 {
                v.push(format!(
                    "{name}: L2-miss share of data stall too small: {:.2}",
                    last.l2_miss_share()
                ));
            }
            // Cache-to-cache transfers become a major component at scale.
            let first_c2c = s.points.first().unwrap().1.c2c;
            if s.points.last().unwrap().0 >= 12 && last.c2c < first_c2c {
                v.push(format!(
                    "{name}: c2c stall share must grow with P ({first_c2c:.2} -> {:.2})",
                    last.c2c
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
    fn quick_run_slices_are_fractions() {
        let f = from_data(&run_scaling(&ExperimentPlan::new(Effort::Quick), &[2]));
        for (_, x, frac) in f.jbb.points.iter().chain(&f.ecperf.points) {
            let sum = x.store_buffer + x.raw + x.l2_hit + x.c2c + x.memory;
            assert!((sum - 1.0).abs() < 0.05, "slices sum: {sum}");
            assert!((0.0..=1.0).contains(frac));
        }
        assert!(f.table().to_string().contains("Figure 7"));
    }
}
