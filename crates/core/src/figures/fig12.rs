//! Figure 12: instruction-cache miss rate vs cache size.
//!
//! The paper: uniprocessor simulation, 4-way set-associative caches with
//! 64-byte blocks, sizes from 64 KB to 16 MB. Instruction misses are low
//! everywhere (below one per 1000 instructions at 1 MB and beyond), but
//! ECperf — whose hot code spans the servlet engine, the EJB container
//! and the application server — has a much higher instruction miss rate
//! for intermediate caches (e.g. 256 KB) than SPECjbb at any warehouse
//! count. This is the paper's headline instruction-side difference.
//!
//! These sweeps run the *full-size* workload configurations (paper heap
//! geometry, full database), since the cache curves are exactly what
//! scaling would distort.

use memsys::CacheSweep;
use simstats::Table;
use workloads::ecperf::EcperfConfig;
use workloads::specjbb::SpecJbbConfig;

use crate::engine::{Machine, MachineConfig, SweepObserver};
use crate::experiment::{ecperf_machine_with, jbb_machine_with, ExperimentPlan};
use crate::Effort;

/// One workload's miss-rate curve: `(capacity bytes, misses per 1000
/// instructions)`.
pub type Curve = Vec<(u64, f64)>;

/// Sweep results for the Figure 12/13 configurations.
#[derive(Debug, Clone)]
pub struct SweepData {
    /// ECperf instruction curve.
    pub ecperf_i: Curve,
    /// ECperf data curve.
    pub ecperf_d: Curve,
    /// SPECjbb instruction curves at 1 / 10 / 25 warehouses.
    pub jbb_i: [Curve; 3],
    /// SPECjbb data curves at 1 / 10 / 25 warehouses.
    pub jbb_d: [Curve; 3],
}

/// SPECjbb warehouse counts simulated (as in the paper).
pub const JBB_WAREHOUSES: [usize; 3] = [1, 10, 25];

fn measure_sweeps<W: workloads::model::Workload>(
    mut machine: Machine<W>,
    effort: Effort,
) -> (Curve, Curve) {
    let sweeps = machine.attach_observer(SweepObserver::paper());
    // Both windows are much longer than the throughput sweeps': these are
    // full-size (unscaled) workloads, and the curves' large-cache
    // behavior is steady-state reuse, not compulsory misses — the window
    // must be long enough for the hot data to be re-touched many times.
    machine.run_until(8 * effort.window());
    machine.begin_measurement();
    let start = machine.time();
    machine.run_until(start + 8 * effort.window());
    let instr = machine.window_report().cpi.instructions.max(1);
    let curve = |sweep: &CacheSweep| {
        sweep
            .results()
            .into_iter()
            .map(|(size, p)| (size, p.misses_per_kilo_instr(instr)))
            .collect()
    };
    let obs = machine.observer(sweeps);
    (curve(obs.isweep()), curve(obs.dsweep()))
}

/// Runs the uniprocessor sweeps for all four configurations — ECperf
/// plus SPECjbb at each warehouse count — as independent jobs on the
/// plan's worker pool.
pub fn run_sweeps(plan: &ExperimentPlan) -> SweepData {
    let effort = plan.effort();
    // Job 0 is ECperf; jobs 1.. are the SPECjbb warehouse counts.
    let jobs: Vec<Option<usize>> = std::iter::once(None)
        .chain(JBB_WAREHOUSES.iter().map(|&w| Some(w)))
        .collect();
    let mut curves = plan
        .run(&jobs, |job| match job {
            None => measure_sweeps(
                ecperf_machine_with(MachineConfig::e6000(1), EcperfConfig::full(10)),
                effort,
            ),
            Some(w) => measure_sweeps(
                jbb_machine_with(MachineConfig::e6000(1), SpecJbbConfig::full(*w)),
                effort,
            ),
        })
        .into_iter();
    let (ecperf_i, ecperf_d) = curves.next().expect("ecperf curves");
    let mut jbb = JBB_WAREHOUSES.map(|_| curves.next().expect("jbb curves"));
    let [j1, j2, j3] = &mut jbb;
    SweepData {
        ecperf_i,
        ecperf_d,
        jbb_i: [
            std::mem::take(&mut j1.0),
            std::mem::take(&mut j2.0),
            std::mem::take(&mut j3.0),
        ],
        jbb_d: [
            std::mem::take(&mut j1.1),
            std::mem::take(&mut j2.1),
            std::mem::take(&mut j3.1),
        ],
    }
}

/// The Figure 12 result.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// ECperf's curve.
    pub ecperf: Curve,
    /// SPECjbb's curves at 1/10/25 warehouses.
    pub jbb: [Curve; 3],
}

/// Derives the figure from existing sweep data.
pub fn from_data(d: &SweepData) -> Fig12 {
    Fig12 {
        ecperf: d.ecperf_i.clone(),
        jbb: d.jbb_i.clone(),
    }
}

/// Renders a miss-rate table shared by Figures 12 and 13.
pub fn render_curves(title: &str, ecperf: &Curve, jbb: &[Curve; 3]) -> Table {
    let mut t = Table::new(
        title,
        &["size", "ECperf", "SPECjbb-1", "SPECjbb-10", "SPECjbb-25"],
    );
    for (i, (size, e)) in ecperf.iter().enumerate() {
        t.row(&[
            if *size >= 1 << 20 {
                format!("{}MB", size >> 20)
            } else {
                format!("{}KB", size >> 10)
            },
            format!("{e:.3}"),
            format!("{:.3}", jbb[0][i].1),
            format!("{:.3}", jbb[1][i].1),
            format!("{:.3}", jbb[2][i].1),
        ]);
    }
    t
}

/// Value of a curve at an exact capacity (0 when absent).
pub fn at_size(curve: &Curve, size: u64) -> f64 {
    curve
        .iter()
        .find(|(s, _)| *s == size)
        .map(|(_, v)| *v)
        .unwrap_or(0.0)
}

use at_size as at;

impl Fig12 {
    /// Renders the paper's series.
    pub fn table(&self) -> Table {
        render_curves(
            "Figure 12: Instruction Cache Miss Rate (misses / 1000 instructions)",
            &self.ecperf,
            &self.jbb,
        )
    }

    /// Checks the paper's qualitative claims.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        // ECperf's 256 KB instruction miss rate is much higher than any
        // SPECjbb configuration's.
        let e256 = at(&self.ecperf, 256 << 10);
        for (i, jbb) in self.jbb.iter().enumerate() {
            let j256 = at(jbb, 256 << 10);
            if e256 < 2.0 * j256 + 0.5 {
                v.push(format!(
                    "ECperf 256KB I-miss ({e256:.2}) must far exceed SPECjbb-{} ({j256:.2})",
                    JBB_WAREHOUSES[i]
                ));
            }
        }
        // Instruction misses fall well below 1/1000 at >= 4 MB.
        let m4 = at(&self.ecperf, 4 << 20);
        if m4 > 1.0 {
            v.push(format!("ECperf: 4MB I-miss too high: {m4:.2}"));
        }
        // Curves are non-increasing in cache size.
        for (name, c) in [
            ("ECperf", &self.ecperf),
            ("SPECjbb-1", &self.jbb[0]),
            ("SPECjbb-25", &self.jbb[2]),
        ] {
            for w in c.windows(2) {
                if w[1].1 > w[0].1 * 1.1 + 0.1 {
                    v.push(format!("{name}: I-miss rate rose with cache size"));
                    break;
                }
            }
        }
        v
    }
}
