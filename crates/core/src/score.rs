//! The official SPECjbb2000 run protocol (paper Section 2.1).
//!
//! "The benchmark is run repeatedly with an increasing number of
//! warehouses until a maximum throughput is reached. The benchmark is
//! then run the same number of times with warehouse values starting at
//! the maximum and increasing to twice that value. Therefore, if the best
//! throughput for a system comes with n warehouses, 2n runs are made.
//! The benchmark score is the average of runs from n to 2n warehouses."
//!
//! The paper skipped this protocol in simulation (prohibitively many
//! runs) and picked representative warehouse counts; this module
//! implements the full protocol so the repository can report an official
//!-style score, and so the "optimal warehouses per system size" choice
//! used by the scaling figures is grounded rather than assumed.
//!
//! The protocol is inherently sequential — whether to run warehouse
//! count w+1 depends on w's throughput — but every point is a pure
//! function of its warehouse count, so the ramp runs as *speculative
//! rounds* on the [`ExperimentPlan`]: each round fans a batch of
//! warehouse points across the worker pool, the peak rule is applied to
//! the order-preserved merge, and any speculative points past the stop
//! are either discarded (the reported ramp is exactly the serial ramp)
//! or reused when they fall inside the scored n..2n region.

use simstats::{fnum, Table};

use crate::experiment::{jbb_machine, measure, ExperimentPlan, JobTelemetry};

/// Relative drop below the running maximum that counts as a real
/// decline. A plateau or single noisy non-increase within this tolerance
/// continues the ramp instead of declaring a premature peak.
pub const RAMP_TOLERANCE: f64 = 0.02;

/// One warehouse point of a ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampPoint {
    /// Warehouses (= threads).
    pub warehouses: usize,
    /// Throughput in transactions per second.
    pub throughput: f64,
}

/// A complete official-style run.
#[derive(Debug, Clone, PartialEq)]
pub struct JbbScore {
    /// The ascending ramp up to (and including) the point that ended it.
    pub ramp: Vec<RampPoint>,
    /// The scored runs from `n` to `2n` warehouses.
    pub scored: Vec<RampPoint>,
    /// The peak warehouse count `n`.
    pub peak_warehouses: usize,
    /// The SPECjbb-style score: mean throughput over `n..=2n`.
    pub score: f64,
}

/// Index of the first point that ends the ramp: the first throughput
/// more than [`RAMP_TOLERANCE`] below the running maximum. `None` while
/// the ramp is still ascending (or plateauing within tolerance).
fn ramp_stop(tputs: &[f64]) -> Option<usize> {
    let mut best = f64::NEG_INFINITY;
    for (i, &t) in tputs.iter().enumerate() {
        if t < best * (1.0 - RAMP_TOLERANCE) {
            return Some(i);
        }
        if t > best {
            best = t;
        }
    }
    None
}

/// The peak warehouse count: first index of the maximum, plus one
/// (warehouse counts are 1-based). Defaults to 1 on an empty ramp.
fn peak_of(tputs: &[f64]) -> usize {
    let mut best = f64::NEG_INFINITY;
    let mut n = 1;
    for (i, &t) in tputs.iter().enumerate() {
        if t > best {
            best = t;
            n = i + 1;
        }
    }
    n
}

/// Runs the official protocol on `pset` processors over `plan`'s worker
/// pool.
///
/// The ramp ascends one warehouse at a time until throughput drops more
/// than [`RAMP_TOLERANCE`] below its running maximum (bounded by
/// `max_warehouses` as a safety net). The result is bit-identical to a
/// serial ramp at any worker count: speculative rounds only ever *add*
/// points past the serial stopping rule, and those are trimmed from the
/// ramp (reused, when they land in the scored region — every point is a
/// pure function of its warehouse count).
pub fn official_run(plan: &ExperimentPlan, pset: usize, max_warehouses: usize) -> JbbScore {
    let effort = plan.effort();
    run_protocol(plan, max_warehouses, |w| {
        let mut m = jbb_machine(pset, w, 1, effort);
        measure(&mut m, effort).throughput()
    })
}

/// The protocol against an arbitrary throughput function — separated so
/// the ramp/peak/score logic is testable on synthetic curves without
/// simulating. `tput(w)` must be a pure function of `w`.
pub(crate) fn run_protocol(
    plan: &ExperimentPlan,
    max_warehouses: usize,
    tput: impl Fn(usize) -> f64 + Sync,
) -> JbbScore {
    let max_warehouses = max_warehouses.max(1);
    // tputs[i] is the throughput at i+1 warehouses; grows by speculative
    // rounds of one batch per worker.
    let mut tputs: Vec<f64> = Vec::new();
    let batch = plan.threads().max(1);
    let mut stop = None;
    while stop.is_none() && tputs.len() < max_warehouses {
        let from = tputs.len() + 1;
        let to = (from + batch - 1).min(max_warehouses);
        let ws: Vec<usize> = (from..=to).collect();
        tputs.extend(plan.run_telemetry(
            &ws,
            |&w| w as u64,
            |&w| (tput(w), JobTelemetry::default()),
        ));
        stop = ramp_stop(&tputs);
    }
    // The serial ramp: everything up to and including the stopping
    // point. Speculative extras stay in `tputs` for reuse below.
    let ramp_len = stop.map(|i| i + 1).unwrap_or(tputs.len());
    let ramp: Vec<RampPoint> = tputs[..ramp_len]
        .iter()
        .enumerate()
        .map(|(i, &t)| RampPoint {
            warehouses: i + 1,
            throughput: t,
        })
        .collect();
    let n = peak_of(&tputs[..ramp_len]);
    // The scored region n..=2n, reusing ramp and speculative points.
    let missing: Vec<usize> = (n..=2 * n).filter(|&w| w > tputs.len()).collect();
    let extra = plan.run_telemetry(
        &missing,
        |&w| w as u64,
        |&w| (tput(w), JobTelemetry::default()),
    );
    let scored: Vec<RampPoint> = (n..=2 * n)
        .map(|w| RampPoint {
            warehouses: w,
            throughput: if w <= tputs.len() {
                tputs[w - 1]
            } else {
                extra[missing.binary_search(&w).expect("missing point computed")]
            },
        })
        .collect();
    let score = scored.iter().map(|p| p.throughput).sum::<f64>() / scored.len() as f64;
    JbbScore {
        ramp,
        scored,
        peak_warehouses: n,
        score,
    }
}

impl JbbScore {
    /// Renders the ramp and the scored region.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "SPECjbb official run protocol (peak n = {}, score = {:.0} tx/s)",
                self.peak_warehouses, self.score
            ),
            &["warehouses", "throughput", "scored"],
        );
        for p in &self.ramp {
            let scored = self.scored.iter().any(|s| s.warehouses == p.warehouses);
            t.row(&[
                p.warehouses.to_string(),
                fnum(p.throughput),
                if scored { "*".into() } else { String::new() },
            ]);
        }
        for p in &self.scored {
            if !self.ramp.iter().any(|r| r.warehouses == p.warehouses) {
                t.row(&[p.warehouses.to_string(), fnum(p.throughput), "*".into()]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Effort;

    /// A synthetic curve with a noisy dip before the real peak and a
    /// plateau at the top — the case the old single-non-increase rule
    /// aborted on.
    fn plateaued(w: usize) -> f64 {
        match w {
            1 => 100.0,
            2 => 108.0,
            3 => 107.0, // within tolerance of 108: noise, not the peak
            4 => 110.0, // the real peak
            5 => 110.0, // exact plateau
            6 => 104.0, // first real drop (> 2% below 110)
            _ => 90.0 - w as f64,
        }
    }

    #[test]
    fn official_run_finds_a_peak_and_scores_n_to_2n() {
        let s = official_run(&ExperimentPlan::new(Effort::Quick), 2, 6);
        assert!(s.peak_warehouses >= 1);
        assert_eq!(s.scored.len(), s.peak_warehouses + 1);
        assert!(s.score > 0.0);
        assert_eq!(s.scored.first().unwrap().warehouses, s.peak_warehouses);
        assert_eq!(s.scored.last().unwrap().warehouses, 2 * s.peak_warehouses);
        assert!(s.table().to_string().contains("official run"));
    }

    #[test]
    fn a_noisy_dip_or_plateau_does_not_abort_the_ramp() {
        let plan = ExperimentPlan::serial(Effort::Quick);
        let s = run_protocol(&plan, 20, plateaued);
        assert_eq!(s.peak_warehouses, 4, "peak must be the true maximum");
        // The ramp ran through the dip and the plateau to the real drop.
        assert_eq!(s.ramp.len(), 6);
        assert_eq!(s.scored.len(), 5);
        assert_eq!(s.scored.first().unwrap().warehouses, 4);
        assert_eq!(s.scored.last().unwrap().warehouses, 8);
    }

    #[test]
    fn a_drop_beyond_tolerance_ends_the_ramp() {
        assert_eq!(ramp_stop(&[100.0, 110.0, 104.0]), Some(2));
        assert_eq!(ramp_stop(&[100.0, 110.0, 109.0]), None);
        assert_eq!(ramp_stop(&[]), None);
        assert_eq!(peak_of(&[100.0, 110.0, 104.0]), 2);
        assert_eq!(peak_of(&[]), 1);
    }

    #[test]
    fn speculative_rounds_match_the_serial_ramp_at_any_worker_count() {
        let serial = run_protocol(&ExperimentPlan::serial(Effort::Quick), 20, plateaued);
        for threads in [2, 3, 4, 7] {
            let plan = ExperimentPlan::serial(Effort::Quick).with_threads(threads);
            let parallel = run_protocol(&plan, 20, plateaued);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn monotone_curve_rides_the_ramp_to_the_cap() {
        let plan = ExperimentPlan::serial(Effort::Quick).with_threads(3);
        let s = run_protocol(&plan, 5, |w| w as f64 * 10.0);
        assert_eq!(s.ramp.len(), 5);
        assert_eq!(s.peak_warehouses, 5);
        assert_eq!(s.scored.len(), 6);
        assert!((s.score - (50.0 + 100.0) / 2.0).abs() < 35.0);
    }
}
