//! The paper's Figure 10 as an ASCII timeline: cache-to-cache transfers
//! collapse while the single-threaded collector runs.
//!
//! The series comes from the generic `IntervalSampler` (every registered
//! counter, per interval); this view plots the `bus.snoop_cb` deltas,
//! normalized per million cycles since GC pauses stretch intervals past
//! their nominal width. The full sampled series is archived as
//! `RUNLOG_gc_timeline.jsonl` (with host/commit provenance) next to the
//! `BENCH_*.json` artifacts — render it with
//! `simreport --simstat RUNLOG_gc_timeline.jsonl`.
//!
//! Run with: `cargo run --release --example gc_timeline`

use std::sync::Arc;

use memsys::MemoryConfig;
use middlesim::figures::fig10;
use middlesim::{Effort, ExperimentPlan};
use probes::{Provenance, RunLog};

fn main() {
    let log = Arc::new(RunLog::new());
    let plan = ExperimentPlan::new(Effort::Quick).with_run_log(Arc::clone(&log), "gc_timeline");
    let fig = fig10::run(&plan, 8, MemoryConfig::Flat);

    let rates: Vec<f64> = fig
        .intervals
        .iter()
        .map(|s| s.rate_per_mcycle("bus.snoop_cb"))
        .collect();
    let max = rates.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-12);
    println!("cache-to-cache transfers per interval (# = c2c/Mcycle, 'GC' = collector active)\n");
    for (s, rate) in fig.intervals.iter().zip(&rates) {
        let bar = "#".repeat((rate / max * 50.0).round() as usize);
        println!(
            "{:>4} |{:<50}| {}",
            s.seq,
            bar,
            if s.gc { "GC" } else { "" }
        );
    }
    println!(
        "\nmean c2c/Mcycle outside GC: {:.1}, during GC: {:.1} ({} collections)",
        fig.rate_outside_gc(),
        fig.rate_during_gc(),
        fig.gc_count
    );
    println!("The mutators' dirty lines were written back long before collection");
    println!("(eden >> cache), so the collector reads memory, not remote caches.");

    // The plan archived the run as a schema-valid RunLog: provenance
    // line, one run, the figure's span, its interval and event records.
    let jsonl = log.to_jsonl(&Provenance::capture());
    probes::report::check(&jsonl).expect("archived series passes the schema check");
    std::fs::write("RUNLOG_gc_timeline.jsonl", &jsonl).expect("write RUNLOG_gc_timeline.jsonl");
    println!(
        "\nwrote RUNLOG_gc_timeline.jsonl ({} intervals; try `simreport --simstat` on it)",
        log.interval_count()
    );
}
