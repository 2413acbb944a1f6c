//! Sampled-vs-full differential validation.
//!
//! The sampled spine's whole claim is that signature-picked units plus
//! functional warming reproduce whole-window behavior within a small
//! error; this module *measures* that claim instead of assuming it. A
//! matrix of short configurations runs twice — once every-cycle, once
//! through the sampled path — and the figure metrics the suite leans on
//! (CPI, L1/L2 miss rates, response-time p50/p95) are compared under a
//! relative-error bound. CI runs this at quick effort and fails the
//! build when any metric drifts past [`ERROR_BOUND`]; the full
//! comparison lands in `SAMPLED_VALIDATION.csv`.
//!
//! Both executions are bit-deterministic, so the recorded errors are
//! properties of the *code*, not the machine or the run: a bound that
//! holds locally holds in CI until the simulator itself changes.

use probes::Histogram;
use simstats::Table;

use crate::engine::{measure_sampled, Machine, SampledRun, SamplingConfig};
use crate::experiment::{ecperf_machine, jbb_machine, ExperimentPlan};
use crate::Effort;
use workloads::model::Workload;

/// Relative error (vs the full run) each validated metric must stay
/// within, per configuration.
pub const ERROR_BOUND: f64 = 0.05;

/// The validated metrics, in row order.
pub const METRICS: [&str; 5] = [
    "cpi",
    "l1_miss_rate",
    "l2_miss_rate",
    "resp_p50",
    "resp_p95",
];

/// The configuration matrix: `(label, is_jbb, pset, window_mult)`.
/// Small psets keep the CI run short; the 8-way point exercises the
/// coherence traffic the signature's sharing dimension exists for.
///
/// `window_mult` stretches the compared window: at the 2-way points a
/// quick-effort window holds roughly *one* GC burst, so whether that
/// burst lands inside the window is decided by sub-percent clock
/// differences between the two modes and a single boundary flip moves
/// the L2 miss rate by ~10% in either direction. Comparing over
/// several windows dilutes the one-event edge sensitivity to noise the
/// bound tolerates; it is a property of the comparison, not of the
/// estimator.
const CONFIGS: [(&str, bool, usize, u64); 3] = [
    ("jbb:p2", true, 2, 4),
    ("jbb:p8", true, 8, 1),
    ("ecperf:p2", false, 2, 4),
];

/// One metric of one configuration, both ways.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Configuration label (`jbb:p8`, ...).
    pub config: String,
    /// Metric name (one of [`METRICS`], or `wall_speedup`).
    pub metric: &'static str,
    /// The every-cycle run's value.
    pub full: f64,
    /// The sampled run's point estimate.
    pub sampled: f64,
    /// Half-width of the sampled estimate's 95% confidence interval
    /// (0 for the histogram quantiles, which extrapolate bucket mass
    /// rather than averaging per-unit values).
    pub ci_half: f64,
    /// `|sampled - full| / full` — except on `wall_speedup` rows,
    /// where it holds `full_secs / sampled_secs` instead.
    pub rel_err: f64,
}

/// The full differential comparison.
#[derive(Debug, Clone)]
pub struct Validation {
    /// All rows, config-major in [`CONFIGS`] × [`METRICS`] order, each
    /// config closed by its `wall_speedup` row.
    pub rows: Vec<ValidationRow>,
    /// The bound [`violations`](Self::violations) checks against.
    pub bound: f64,
}

/// Per-config result of one execution mode.
struct Side {
    values: [f64; METRICS.len()],
    ci: [f64; METRICS.len()],
    wall_secs: f64,
}

/// Window-only metric values from an every-cycle run over
/// `mult` effort windows.
fn full_side<W: Workload>(m: &mut Machine<W>, effort: Effort, mult: u64) -> Side {
    let t = std::time::Instant::now();
    m.run_until(effort.warmup());
    m.begin_measurement();
    let before = m.counters();
    let start = m.time();
    m.run_until(start + effort.window() * mult);
    let report = m.window_report();
    let delta = m.counters().delta(&before);
    let (p50, p95) = hist_quantiles(m.workload().response_hist());
    let sum = |suffix: &str| -> u64 {
        ["load", "store", "ifetch"]
            .iter()
            .map(|k| delta.get(&format!("mem.{k}.{suffix}")).unwrap_or(0))
            .sum()
    };
    let acc = sum("accesses").max(1);
    Side {
        values: [
            report.cpi.cpi(),
            sum("l1_misses") as f64 / acc as f64,
            sum("l2_misses") as f64 / acc as f64,
            p50,
            p95,
        ],
        ci: [0.0; METRICS.len()],
        wall_secs: t.elapsed().as_secs_f64(),
    }
}

/// Metric estimates (with CIs) from a sampled run over the same
/// `mult`-stretched window.
fn sampled_side<W: Workload>(m: &mut Machine<W>, effort: Effort, mult: u64) -> Side {
    let t = std::time::Instant::now();
    let window = effort.window() * mult;
    let s: SampledRun = measure_sampled(
        m,
        effort.warmup(),
        window,
        &SamplingConfig::for_window(window),
    );
    let kinds_sum = |u: &crate::engine::UnitMeasurement, sfx: &str| -> f64 {
        ["load", "store", "ifetch"]
            .iter()
            .map(|k| u.counter(&format!("mem.{k}.{sfx}")))
            .sum::<u64>() as f64
    };
    // Ratio-of-rates, matching the full side's Σmisses/Σaccesses.
    let ratio =
        |suffix: &str| s.ratio_estimate(|u| kinds_sum(u, suffix), |u| kinds_sum(u, "accesses"));
    let cpi = s.cpi();
    let l1 = ratio("l1_misses");
    let l2 = ratio("l2_misses");
    let (p50, p95) = hist_quantiles(s.response_hist().as_ref());
    Side {
        values: [cpi.mean, l1.mean, l2.mean, p50, p95],
        ci: [cpi.ci_half, l1.ci_half, l2.ci_half, 0.0, 0.0],
        wall_secs: t.elapsed().as_secs_f64(),
    }
}

fn hist_quantiles(h: Option<&Histogram>) -> (f64, f64) {
    h.map(|h| (h.quantile(0.5) as f64, h.quantile(0.95) as f64))
        .unwrap_or((0.0, 0.0))
}

/// Runs every `(config, mode)` pair as an independent job on `plan`
/// (the plan's own mode is irrelevant here — the comparison runs both)
/// and joins the sides into rows.
pub fn run(plan: &ExperimentPlan) -> Validation {
    let effort = plan.effort();
    let jobs: Vec<(usize, bool)> = (0..CONFIGS.len())
        .flat_map(|c| [(c, false), (c, true)])
        .collect();
    let labels = jobs
        .iter()
        .map(|&(c, sampled)| {
            let mode = if sampled { "sampled" } else { "full" };
            format!("validate:{}:{mode}", CONFIGS[c].0)
        })
        .collect();
    let sides = plan
        .clone()
        .with_job_labels(labels)
        .run(&jobs, |&(c, sampled)| {
            let (_, is_jbb, p, mult) = CONFIGS[c];
            match (is_jbb, sampled) {
                (true, false) => full_side(&mut jbb_machine(p, 2 * p, 1, effort), effort, mult),
                (true, true) => sampled_side(&mut jbb_machine(p, 2 * p, 1, effort), effort, mult),
                (false, false) => full_side(&mut ecperf_machine(p, 1, effort), effort, mult),
                (false, true) => sampled_side(&mut ecperf_machine(p, 1, effort), effort, mult),
            }
        });
    let mut rows = Vec::new();
    for (c, pair) in sides.chunks(2).enumerate() {
        let (full, samp) = (&pair[0], &pair[1]);
        let config = CONFIGS[c].0.to_string();
        for (i, &metric) in METRICS.iter().enumerate() {
            let f = full.values[i];
            rows.push(ValidationRow {
                config: config.clone(),
                metric,
                full: f,
                sampled: samp.values[i],
                ci_half: samp.ci[i],
                rel_err: (samp.values[i] - f).abs() / f.abs().max(f64::MIN_POSITIVE),
            });
        }
        rows.push(ValidationRow {
            config,
            metric: "wall_speedup",
            full: full.wall_secs,
            sampled: samp.wall_secs,
            ci_half: 0.0,
            rel_err: full.wall_secs / samp.wall_secs.max(f64::MIN_POSITIVE),
        });
    }
    Validation {
        rows,
        bound: ERROR_BOUND,
    }
}

impl Validation {
    /// The metric rows (excluding the `wall_speedup` bookkeeping rows).
    pub fn metric_rows(&self) -> impl Iterator<Item = &ValidationRow> {
        self.rows.iter().filter(|r| r.metric != "wall_speedup")
    }

    /// Metrics outside the error bound — the CI failure condition.
    pub fn violations(&self) -> Vec<String> {
        self.metric_rows()
            .filter(|r| r.rel_err > self.bound)
            .map(|r| {
                format!(
                    "{} {}: sampled {:.4} vs full {:.4} ({:.1}% > {:.0}% bound)",
                    r.config,
                    r.metric,
                    r.sampled,
                    r.full,
                    r.rel_err * 100.0,
                    self.bound * 100.0
                )
            })
            .collect()
    }

    /// Renders the comparison.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Sampled-vs-Full Validation (bound {:.0}%)",
                self.bound * 100.0
            ),
            &["config", "metric", "full", "sampled", "ci±", "rel err"],
        );
        for r in &self.rows {
            if r.metric == "wall_speedup" {
                t.row(&[
                    r.config.clone(),
                    r.metric.into(),
                    format!("{:.2}s", r.full),
                    format!("{:.2}s", r.sampled),
                    String::new(),
                    format!("{:.1}x", r.rel_err),
                ]);
            } else {
                t.row(&[
                    r.config.clone(),
                    r.metric.into(),
                    format!("{:.4}", r.full),
                    format!("{:.4}", r.sampled),
                    format!("{:.4}", r.ci_half),
                    format!("{:.2}%", r.rel_err * 100.0),
                ]);
            }
        }
        t
    }

    /// The comparison as CSV (the `SAMPLED_VALIDATION.csv` artifact).
    /// On `wall_speedup` rows the `rel_err` column holds the speedup
    /// factor and full/sampled hold wall seconds.
    pub fn csv(&self) -> String {
        let mut s = String::from("config,metric,full,sampled,ci_half,rel_err\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{},{},{:.6},{:.6},{:.6},{:.6}\n",
                r.config, r.metric, r.full, r.sampled, r.ci_half, r.rel_err
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_stays_within_bound() {
        let v = run(&ExperimentPlan::new(Effort::Quick));
        assert_eq!(
            v.rows.len(),
            CONFIGS.len() * (METRICS.len() + 1),
            "one row per config x metric plus wall"
        );
        assert_eq!(v.violations(), Vec::<String>::new());
        assert!(v.csv().lines().count() == v.rows.len() + 1);
        // Every config saw responses: the quantile metrics are live.
        for r in v.metric_rows().filter(|r| r.metric.starts_with("resp_")) {
            assert!(
                r.full > 0.0,
                "{} {} has no full responses",
                r.config,
                r.metric
            );
        }
    }
}
