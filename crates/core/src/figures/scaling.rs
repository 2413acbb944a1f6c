//! Shared runner for the scaling figures (4–9): both workloads swept over
//! the processor axis, all window reports retained so each figure can
//! derive its own series without re-simulating.

use crate::engine::WindowReport;
use crate::experiment::{ecperf_machine, jbb_machine, measure, ExperimentPlan, JobTelemetry};
use crate::Effort;

/// One processor count's worth of measurements (one report per seed).
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Processors in the set.
    pub p: usize,
    /// One window report per seed.
    pub reports: Vec<WindowReport>,
}

impl ScalingPoint {
    /// Mean of `f` across seeds.
    pub(crate) fn mean(&self, f: impl Fn(&WindowReport) -> f64) -> f64 {
        let s: f64 = self.reports.iter().map(&f).sum();
        s / self.reports.len() as f64
    }
}

/// Both workloads' sweeps.
#[derive(Debug, Clone)]
pub struct ScalingData {
    /// Effort the sweep ran at.
    pub effort: Effort,
    /// SPECjbb points, ascending processor count.
    pub jbb: Vec<ScalingPoint>,
    /// ECperf points, ascending processor count.
    pub ecperf: Vec<ScalingPoint>,
}

impl ScalingData {
    /// Speedup series for a workload: mean throughput normalized to the
    /// first point's.
    pub(crate) fn speedups(points: &[ScalingPoint]) -> Vec<(usize, f64)> {
        let base = points
            .first()
            .map(|p| p.mean(|r| r.throughput()))
            .unwrap_or(1.0)
            .max(f64::MIN_POSITIVE);
        points
            .iter()
            .map(|p| (p.p, p.mean(|r| r.throughput()) / base))
            .collect()
    }
}

/// Runs both workloads over `ps`, `Effort::seeds` times each.
/// SPECjbb runs with 2P warehouses ("optimal warehouses at each system
/// size", Section 2.1); ECperf's thread pool is tuned per processor count
/// (Section 3.2).
///
/// Every `(workload, p, seed)` run is an independent job on the plan's
/// worker pool; reports are regrouped in axis/seed order, so the result
/// is bit-identical to a serial sweep. The sweep mixes system sizes, so
/// jobs carry [`Effort::cost_hint`]s and the pool claims the 16-way
/// points before the uniprocessor ones.
pub fn run_scaling(plan: &ExperimentPlan, ps: &[usize]) -> ScalingData {
    let effort = plan.effort();
    let seeds = effort.seeds();
    let jobs: Vec<(bool, usize, u64)> = [true, false]
        .iter()
        .flat_map(|&is_jbb| {
            ps.iter()
                .flat_map(move |&p| (0..seeds).map(move |seed| (is_jbb, p, seed)))
        })
        .collect();
    let labels = jobs
        .iter()
        .map(|(is_jbb, p, seed)| {
            let wl = if *is_jbb { "jbb" } else { "ecperf" };
            format!("scaling:{wl}:p{p}:s{seed}")
        })
        .collect();
    let mut reports = plan
        .clone()
        .with_job_labels(labels)
        .run_telemetry(
            &jobs,
            |&(_, p, _)| effort.cost_hint(p),
            |&(is_jbb, p, seed)| {
                let report = if is_jbb {
                    measure(&mut jbb_machine(p, 2 * p, seed, effort), effort)
                } else {
                    measure(&mut ecperf_machine(p, seed, effort), effort)
                };
                (report, JobTelemetry::default())
            },
        )
        .into_iter();
    let mut collect_points = |_is_jbb: bool| -> Vec<ScalingPoint> {
        ps.iter()
            .map(|&p| ScalingPoint {
                p,
                reports: (0..seeds)
                    .map(|_| reports.next().expect("one report per job"))
                    .collect(),
            })
            .collect()
    };
    ScalingData {
        effort,
        jbb: collect_points(true),
        ecperf: collect_points(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_point_statistics() {
        let mk = |tx: u64| WindowReport {
            transactions: tx,
            cycles: simcpu::CLOCK_HZ, // 1 second
            cpi: simcpu::CpiReport::default(),
            modes: Default::default(),
            gc_cycles: 0,
            gc_count: 0,
            c2c_ratio: 0.0,
            snoop_filter_rate: 0.0,
        };
        let p = ScalingPoint {
            p: 4,
            reports: vec![mk(100), mk(200)],
        };
        assert!((p.mean(|r| r.throughput()) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn speedups_normalize_to_first_point() {
        let mk = |p: usize, tx: u64| ScalingPoint {
            p,
            reports: vec![WindowReport {
                transactions: tx,
                cycles: simcpu::CLOCK_HZ,
                cpi: simcpu::CpiReport::default(),
                modes: Default::default(),
                gc_cycles: 0,
                gc_count: 0,
                c2c_ratio: 0.0,
                snoop_filter_rate: 0.0,
            }],
        };
        let pts = vec![mk(1, 100), mk(4, 350)];
        let s = ScalingData::speedups(&pts);
        assert!((s[0].1 - 1.0).abs() < 1e-9);
        assert!((s[1].1 - 3.5).abs() < 1e-9);
    }
}
