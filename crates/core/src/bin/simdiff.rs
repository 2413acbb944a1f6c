//! `simdiff` — the metric drift gate.
//!
//! Compares two RunLogs, or a RunLog against a committed baseline,
//! counter by counter under the drift classes declared on the
//! descriptor tables (`Exact` for the deterministic majority,
//! `Tolerance(ppm)` for DRAM-timing and ratio counters). Prints the
//! ranked drift table and exits non-zero on any out-of-band drift —
//! the CI job that catches a refactor silently shifting simulation
//! results while every unit test still passes.
//!
//! Usage:
//!   simdiff <base.jsonl> <current.jsonl>       diff two RunLogs
//!   simdiff --baseline BASELINES.json <current.jsonl>
//!                                              gate a RunLog against the
//!                                              committed baseline
//!   simdiff --write-baseline BASELINES.json <runlog.jsonl>
//!                                              aggregate a RunLog into a
//!                                              fresh baseline document
//!                                              (the `rebaseline.sh` path)
//!
//! `--json` (anywhere in the argument list) switches the drift report
//! to a machine-readable JSON document — verdict, per-counter rows
//! (counter, baseline, observed, drift_ppm, class, out_of_band) in the
//! same worst-first rank, and the missing/extra lists — for CI
//! annotations and dashboards. Exit codes are unchanged.
//!
//! Comparisons across mismatched `effort` or `sim_mode` provenance are
//! refused (exit 2): sampled-mode counters are extrapolated estimates
//! and different efforts size different workloads, so the numbers are
//! not comparable — the same guard `bench_smoke.sh` applies to wall
//! times.

use std::process::ExitCode;

use middlesim::engine::probe::descriptor_tables;
use probes::drift::{comparability_error, diff, Baseline, DriftPolicy};
use probes::report;

fn usage() -> ExitCode {
    eprintln!(
        "usage: simdiff [--json] <base.jsonl> <current.jsonl>\n       simdiff [--json] \
         --baseline BASELINES.json <current.jsonl>\n       simdiff --write-baseline \
         BASELINES.json <runlog.jsonl>"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("simdiff: cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

fn load_log(path: &str) -> Result<Baseline, ExitCode> {
    let src = read(path)?;
    let base = report::check(&src)
        .and_then(|log| Baseline::from_log(&log))
        .map_err(|e| {
            eprintln!("simdiff: {path}: {e}");
            ExitCode::FAILURE
        })?;
    if base.counters.is_empty() {
        eprintln!("simdiff: {path}: no counters to compare (empty RunLog?)");
        return Err(ExitCode::FAILURE);
    }
    Ok(base)
}

fn load_baseline(path: &str) -> Result<Baseline, ExitCode> {
    let src = read(path)?;
    Baseline::parse(&src).map_err(|e| {
        eprintln!("simdiff: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let (base, current) = match args.as_slice() {
        [flag, baseline_path, runlog_path] if flag == "--write-baseline" => {
            let base = match load_log(runlog_path) {
                Ok(b) => b,
                Err(code) => return code,
            };
            if let Err(e) = std::fs::write(baseline_path, base.to_json()) {
                eprintln!("simdiff: cannot write {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {baseline_path} ({} counters from {runlog_path})",
                base.counters.len()
            );
            return ExitCode::SUCCESS;
        }
        [flag, baseline_path, runlog_path] if flag == "--baseline" => {
            let base = match load_baseline(baseline_path) {
                Ok(b) => b,
                Err(code) => return code,
            };
            let current = match load_log(runlog_path) {
                Ok(b) => b,
                Err(code) => return code,
            };
            (base, current)
        }
        [base_path, current_path] => {
            let base = match load_log(base_path) {
                Ok(b) => b,
                Err(code) => return code,
            };
            let current = match load_log(current_path) {
                Ok(b) => b,
                Err(code) => return code,
            };
            (base, current)
        }
        _ => return usage(),
    };

    if let Some(err) = comparability_error(&base.provenance, &current.provenance) {
        eprintln!("simdiff: refusing comparison: {err}");
        return ExitCode::from(2);
    }

    let policy = DriftPolicy::new(descriptor_tables());
    let report = diff(&base, &current, &policy);
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
