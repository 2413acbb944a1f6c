//! Offline smoke benchmark for the experiment-plan worker pool: one
//! Standard-effort batch of SPECjbb windows, timed serially and at the
//! machine's core count, written to `BENCH_plan.json`.
//!
//! The batch mixes system sizes so the size-aware (largest-first)
//! scheduler has something to do; the results are asserted identical
//! between the two runs before any timing is reported, so the speedup
//! number can never come from divergent work.
//!
//! Both passes run with a `RunLog` attached and counter snapshots taken
//! at job end (`run_telemetry`), so the bench also produces
//! `RUNLOG_plan.jsonl` — the input `simreport` renders and CI
//! schema-checks. `BENCH_plan.json` carries host/commit provenance.
//!
//! Run with: `cargo run --release --example bench_plan [quick|standard|full]`

use std::sync::Arc;
use std::time::Instant;

use middlesim::{jbb_machine, measure, Effort, ExperimentPlan, JobTelemetry};
use probes::{Provenance, RunLog};

fn main() {
    let effort = match std::env::args().nth(1) {
        None => Effort::Standard,
        Some(arg) => Effort::parse(&arg).unwrap_or_else(|| {
            eprintln!("usage: bench_plan [quick|standard|full]");
            std::process::exit(2)
        }),
    };
    // pset × seed, mixed sizes: the 4-way points cost ~4× the 1-way.
    let jobs: Vec<(usize, u64)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&p| (1..=2u64).map(move |s| (p, s)))
        .collect();
    let labels: Vec<String> = jobs
        .iter()
        .map(|&(p, s)| format!("jbb-p{p}-s{s}"))
        .collect();
    let log = Arc::new(RunLog::new());
    let run = |plan: &ExperimentPlan| {
        plan.run_telemetry(
            &jobs,
            |&(p, _)| effort.cost_hint(p),
            |&(p, s)| {
                let mut m = jbb_machine(p, 2 * p, s, effort);
                let report = measure(&mut m, effort);
                (
                    report.throughput(),
                    JobTelemetry::counters(Some(m.counters())),
                )
            },
        )
    };

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "timing a {:?}-effort batch of {} windows at 1 vs {workers} workers...",
        effort,
        jobs.len()
    );

    let t0 = Instant::now();
    let serial = run(&ExperimentPlan::serial(effort)
        .with_run_log(Arc::clone(&log), "serial")
        .with_job_labels(labels.clone()));
    let serial_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = run(&ExperimentPlan::serial(effort)
        .with_threads(workers)
        .with_run_log(Arc::clone(&log), "parallel")
        .with_job_labels(labels));
    let parallel_secs = t1.elapsed().as_secs_f64();

    let identical = serial
        .iter()
        .zip(&parallel)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "parallel results diverged from serial");

    // With one core both passes run on one worker, so their ratio is
    // noise, not a parallel speedup.
    let speedup = (workers > 1).then(|| serial_secs / parallel_secs.max(1e-9));
    println!("serial:   {serial_secs:.2} s");
    match speedup {
        Some(x) => {
            println!("parallel: {parallel_secs:.2} s  ({x:.2}x, results bit-identical)")
        }
        None => println!(
            "parallel: {parallel_secs:.2} s  (results bit-identical; one worker, \
             so no parallel comparison was possible)"
        ),
    }

    let prov = Provenance::capture()
        .with_workers(workers)
        .with_effort(format!("{effort:?}").to_lowercase());
    let runlog_file = std::fs::File::create("RUNLOG_plan.jsonl").expect("create RUNLOG_plan.jsonl");
    log.write_to(runlog_file, &prov)
        .expect("write RUNLOG_plan.jsonl");
    println!("wrote RUNLOG_plan.jsonl ({} job spans)", log.span_count());

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"experiment_plan\",\n",
            "  \"provenance\": {},\n",
            "  \"effort\": \"{:?}\",\n",
            "  \"jobs\": {},\n",
            "  \"workers\": {},\n",
            "  \"serial_secs\": {:.3},\n",
            "  \"parallel_secs\": {:.3},\n",
            "  \"speedup\": {},\n",
            "  \"bit_identical\": {}\n",
            "}}\n"
        ),
        prov.to_json(),
        effort,
        jobs.len(),
        workers,
        serial_secs,
        parallel_secs,
        speedup.map_or("null".to_string(), |x| format!("{x:.3}")),
        identical
    );
    std::fs::write("BENCH_plan.json", &json).expect("write BENCH_plan.json");
    println!("wrote BENCH_plan.json");
}
