//! Figure 14: distribution of cache-to-cache transfers over touched lines.
//!
//! The paper: communication is extremely concentrated in SPECjbb — all
//! transfers come from just 12% of the cache lines touched in the window,
//! over 70% from the hottest 0.1%, and the single hottest line (a
//! contended lock) carries 20% of everything. ECperf's communication is
//! much *wider*: the hottest line carries 14%, the hottest 0.1% only 56%,
//! and transfers spread over roughly half of the touched lines — its
//! shared entity beans are touched by every thread.

use memsys::LineStats;
use simstats::Table;
use workloads::specjbb::SpecJbbConfig;

use crate::engine::{LineStatsObserver, Machine, MachineConfig};
use crate::experiment::{
    ecperf_config, ecperf_machine_with, jbb_machine_with, measure, ExperimentPlan,
};
use crate::Effort;

/// Heap scale for the communication study. Like Figure 10, this must
/// keep eden far larger than the caches: otherwise the single-threaded
/// collector's copies are still cache-resident when the mutators refetch
/// them, and scaled-GC artifacts swamp the lock lines the paper measures.
const SCALE_DIVISOR: u64 = 8;

/// Concentration metrics for one workload.
#[derive(Debug, Clone)]
pub struct CommFootprint {
    /// Share of transfers from the hottest single line.
    pub hottest_share: f64,
    /// Share of transfers from the hottest 0.1% of touched lines.
    pub share_hot_permille: f64,
    /// Fraction of touched lines that communicate at all.
    pub communicating_fraction: f64,
    /// Distinct lines touched in the window.
    pub touched_lines: u64,
    /// Distinct lines that communicated.
    pub communicating_lines: u64,
    /// Total transfers.
    pub total_c2c: u64,
    /// Per-line counts, hottest first (the CDF's raw series).
    pub counts_desc: Vec<u64>,
}

impl CommFootprint {
    /// Extracts the metrics from a line tracker.
    pub fn from_stats(ls: &LineStats) -> Self {
        CommFootprint {
            hottest_share: ls.hottest_line_share(),
            share_hot_permille: ls.share_from_hottest_fraction(0.001),
            communicating_fraction: ls.fraction_covering_all(),
            touched_lines: ls.touched_lines(),
            communicating_lines: ls.communicating_lines(),
            total_c2c: ls.total_c2c(),
            counts_desc: ls.c2c_counts_desc(),
        }
    }
}

/// The Figure 14 result.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// ECperf's footprint.
    pub ecperf: CommFootprint,
    /// SPECjbb's footprint.
    pub jbb: CommFootprint,
}

fn footprint_of<W: workloads::model::Workload>(mut m: Machine<W>, effort: Effort) -> CommFootprint {
    let lines = m.attach_observer(LineStatsObserver::new());
    measure(&mut m, effort);
    CommFootprint::from_stats(m.observer(lines).stats())
}

/// Runs the experiment at `pset` processors (the paper uses its larger
/// multiprocessor configurations); the two workloads run as independent
/// jobs on the plan's worker pool.
pub fn run(plan: &ExperimentPlan, pset: usize) -> Fig14 {
    let effort = plan.effort();
    let mut results = plan
        .run(&[true, false], |&is_jbb| {
            if is_jbb {
                let cfg = SpecJbbConfig::scaled(2 * pset, SCALE_DIVISOR);
                footprint_of(jbb_machine_with(MachineConfig::e6000(pset), cfg), effort)
            } else {
                let cfg = ecperf_config(pset, SCALE_DIVISOR);
                footprint_of(ecperf_machine_with(MachineConfig::e6000(pset), cfg), effort)
            }
        })
        .into_iter();
    let jbb = results.next().expect("jbb footprint");
    let ecperf = results.next().expect("ecperf footprint");
    Fig14 { ecperf, jbb }
}

impl Fig14 {
    /// Renders the paper's key points of the CDF.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 14: Distribution of Cache-to-Cache Transfers (64-byte lines)",
            &["metric", "ECperf", "SPECjbb"],
        );
        let rows: [(&str, f64, f64); 4] = [
            (
                "hottest line share (%)",
                self.ecperf.hottest_share * 100.0,
                self.jbb.hottest_share * 100.0,
            ),
            (
                "hottest 0.1% of touched lines (%)",
                self.ecperf.share_hot_permille * 100.0,
                self.jbb.share_hot_permille * 100.0,
            ),
            (
                "touched lines that communicate (%)",
                self.ecperf.communicating_fraction * 100.0,
                self.jbb.communicating_fraction * 100.0,
            ),
            (
                "total transfers",
                self.ecperf.total_c2c as f64,
                self.jbb.total_c2c as f64,
            ),
        ];
        for (name, e, j) in rows {
            t.row(&[name.to_string(), format!("{e:.1}"), format!("{j:.1}")]);
        }
        t
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        // A few highly contended locks: the hottest line carries a large
        // share in both workloads.
        // The paper reports 14% (ECperf) and 20% (SPECjbb) on the single
        // hottest line. Our ECperf dilutes its hottest line further once
        // the bean working set communicates widely; the check below
        // guards the floor and the SPECjbb-vs-ECperf ordering.
        for (name, f) in [("ECperf", &self.ecperf), ("SPECjbb", &self.jbb)] {
            if f.hottest_share < 0.01 {
                v.push(format!(
                    "{name}: hottest line share too small: {:.1}%",
                    f.hottest_share * 100.0
                ));
            }
            if f.total_c2c == 0 {
                v.push(format!("{name}: no communication recorded"));
            }
        }
        // SPECjbb is more concentrated than ECperf on the hottest line...
        if self.jbb.hottest_share < self.ecperf.hottest_share {
            v.push(format!(
                "SPECjbb's hottest line ({:.1}%) should beat ECperf's ({:.1}%)",
                self.jbb.hottest_share * 100.0,
                self.ecperf.hottest_share * 100.0
            ));
        }
        // ...and ECperf spreads communication over a larger fraction of
        // its touched lines.
        if self.ecperf.communicating_fraction < self.jbb.communicating_fraction {
            v.push(format!(
                "ECperf's communicating fraction ({:.1}%) should exceed SPECjbb's ({:.1}%)",
                self.ecperf.communicating_fraction * 100.0,
                self.jbb.communicating_fraction * 100.0
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_records_concentrated_communication() {
        let f = run(&ExperimentPlan::new(Effort::Quick), 4);
        assert!(f.jbb.total_c2c > 0);
        assert!(f.ecperf.total_c2c > 0);
        assert!(f.jbb.hottest_share > 0.01, "{:?}", f.jbb.hottest_share);
        assert!(f.table().to_string().contains("Figure 14"));
    }
}
