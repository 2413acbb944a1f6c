//! Figure 11: memory use vs scale factor.
//!
//! The paper: SPECjbb's live memory (heap occupancy immediately after
//! collection) grows *linearly* with the warehouse count up to about 30,
//! because the emulated database is in-heap; ECperf's grows only until an
//! Orders Injection Rate of about 6 and then stays roughly constant
//! through 40 — the database lives on another machine and the middle
//! tier's footprint is bounded by its pools and caches. Relying on
//! SPECjbb would therefore *overestimate* middleware memory footprints.
//!
//! Reference-driven runs use a scaled heap; reported values are scaled
//! back to the paper's real geometry (both the heap spaces and the data
//! were divided by the same factor, so the ratio is preserved).

use simstats::Table;
use workloads::ecperf::EcperfConfig;

use crate::engine::{Machine, MachineConfig};
use crate::experiment::{ecperf_machine_with, jbb_machine, ExperimentPlan};
use crate::Effort;

/// The Figure 11 result: `(scale factor, live MB after GC)` per workload.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// SPECjbb: scale factor = warehouses.
    pub jbb: Vec<(u32, f64)>,
    /// ECperf: scale factor = Orders Injection Rate.
    pub ecperf: Vec<(u32, f64)>,
}

/// The paper's scale-factor axis.
pub const PAPER_SCALE_AXIS: [u32; 9] = [1, 2, 5, 8, 12, 16, 20, 30, 40];

/// A reduced axis for quick runs.
pub const QUICK_SCALE_AXIS: [u32; 5] = [1, 4, 8, 16, 30];

fn run_until_gcs<W: workloads::model::Workload>(
    m: &mut Machine<W>,
    effort: Effort,
    min_gcs: u64,
) -> Option<u64> {
    let mut horizon = effort.warmup();
    let limit = effort.warmup() + 6 * effort.window();
    loop {
        m.run_until(horizon);
        if m.gc_count() >= min_gcs {
            return m.workload().heap_after_last_gc();
        }
        if horizon >= limit {
            return m.workload().heap_after_last_gc();
        }
        horizon += effort.window();
    }
}

/// Runs the experiment over `axis` (default [`PAPER_SCALE_AXIS`]): each
/// scale factor of each workload is one independent job on the plan's
/// worker pool.
pub fn run(plan: &ExperimentPlan, axis: &[u32]) -> Fig11 {
    let effort = plan.effort();
    let divisor = effort.scale_divisor();
    let pset = 4;
    let jobs: Vec<(bool, u32)> = [true, false]
        .iter()
        .flat_map(|&is_jbb| axis.iter().map(move |&s| (is_jbb, s)))
        .collect();
    let mut results = plan
        .run(&jobs, |&(is_jbb, scale)| {
            let after = if is_jbb {
                let mut m = jbb_machine(pset, scale as usize, 1, effort);
                run_until_gcs(&mut m, effort, 2)
            } else {
                let cfg = EcperfConfig::scaled(scale, divisor);
                let mut m = ecperf_machine_with(MachineConfig::e6000(pset), cfg);
                run_until_gcs(&mut m, effort, 2)
            }
            .unwrap_or(0);
            (scale, (after * divisor) as f64 / (1 << 20) as f64)
        })
        .into_iter();
    let jbb = axis
        .iter()
        .map(|_| results.next().expect("jbb point"))
        .collect();
    let ecperf = axis
        .iter()
        .map(|_| results.next().expect("ecperf point"))
        .collect();
    Fig11 { jbb, ecperf }
}

impl Fig11 {
    /// Renders the paper's series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 11: Memory Use vs Scale Factor (live MB after GC, real-geometry scale)",
            &["scale", "ECperf (MB)", "SPECjbb (MB)"],
        );
        for (j, e) in self.jbb.iter().zip(&self.ecperf) {
            t.row(&[
                j.0.to_string(),
                format!("{:.0}", e.1),
                format!("{:.0}", j.1),
            ]);
        }
        t
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        // SPECjbb grows roughly linearly in the warehouse count. The
        // smallest configurations are dominated by warehouse-independent
        // data (the shared item catalog, pools, code), so linearity is
        // checked from scale 4 upward.
        let jbb_pre30: Vec<_> = self
            .jbb
            .iter()
            .filter(|p| (4..=30).contains(&p.0))
            .collect();
        if let (Some(first), Some(last)) = (jbb_pre30.first(), jbb_pre30.last()) {
            let scale_ratio = last.0 as f64 / first.0 as f64;
            let mem_ratio = last.1 / first.1.max(1.0);
            if mem_ratio < 0.4 * scale_ratio {
                v.push(format!(
                    "SPECjbb memory must grow ~linearly with warehouses: x{scale_ratio:.0} \
                     scale gave only x{mem_ratio:.1} memory"
                ));
            }
        }
        // ECperf flattens: beyond IR 8 the growth is small.
        let ec_big: Vec<_> = self.ecperf.iter().filter(|p| p.0 >= 8).collect();
        if let (Some(first), Some(last)) = (ec_big.first(), ec_big.last()) {
            if last.1 > first.1 * 1.6 + 16.0 {
                v.push(format!(
                    "ECperf memory must stay roughly constant past IR 8: {:.0} -> {:.0} MB",
                    first.1, last.1
                ));
            }
        }
        // At large scale SPECjbb's footprint far exceeds ECperf's.
        if let (Some(j), Some(e)) = (self.jbb.last(), self.ecperf.last()) {
            if j.1 < 2.0 * e.1 {
                v.push(format!(
                    "SPECjbb at scale {} ({:.0} MB) should dwarf ECperf ({:.0} MB)",
                    j.0, j.1, e.1
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_three_point_run_shows_divergence() {
        let f = run(&ExperimentPlan::new(Effort::Quick), &[2, 16]);
        assert_eq!(f.jbb.len(), 2);
        let jbb_growth = f.jbb[1].1 / f.jbb[0].1.max(1.0);
        let ec_growth = f.ecperf[1].1 / f.ecperf[0].1.max(1.0);
        assert!(
            jbb_growth > 1.5 * ec_growth,
            "jbb x{jbb_growth:.2} vs ecperf x{ec_growth:.2}"
        );
        assert!(f.table().to_string().contains("Figure 11"));
    }
}
