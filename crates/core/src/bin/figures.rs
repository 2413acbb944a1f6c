//! Regenerates every measured figure of the paper and reports whether the
//! published shapes hold.
//!
//! Usage: `figures <quick|standard|full>
//!                 [4|5|...|16|10dram|attrib|memcurve|ablations|validate-sampled|all]...`
//!
//! The effort is required. Several figure names may be given at once
//! (`figures quick 10 attrib`); they share the one plan and RunLog, so
//! the written `RUNLOG_figures.jsonl` carries every named run — the form
//! `rebaseline.sh` aggregates and `ci.sh` gates. No name means `all`,
//! which runs every figure and the ablations but neither `10dram` nor
//! `validate-sampled`. An unknown effort or figure name prints this
//! usage to stderr and exits with status 2.
//!
//! Every figure measures in full detail. `validate-sampled` runs the
//! sampled-vs-full differential matrix, writes `SAMPLED_VALIDATION.csv`,
//! and exits non-zero if any metric breaks the error bound.
//!
//! Every experiment runs on the one plan with a `RunLog` attached; the
//! log is written to `RUNLOG_figures.jsonl` on exit (render it with
//! `simreport RUNLOG_figures.jsonl`).

use std::sync::Arc;

use memsys::{DramConfig, MemoryConfig};
use middlesim::figures::{self, processor_axis, scaling::run_scaling};
use middlesim::{Effort, ExperimentPlan};
use probes::{Provenance, RunLog};

/// Every figure name the command line accepts.
const NAMES: &str =
    "4 5 6 7 8 9 10 10dram 11 12 13 14 15 16 attrib memcurve ablations validate-sampled all";

const USAGE: &str = "usage: figures <quick|standard|full> \
[4|5|...|16|10dram|attrib|memcurve|ablations|validate-sampled|all]...";

fn report(name: &str, table: impl std::fmt::Display, violations: Vec<String>) {
    println!("{table}");
    if violations.is_empty() {
        println!("[shape OK] {name}\n");
    } else {
        println!("[shape VIOLATIONS] {name}:");
        for v in &violations {
            println!("  - {v}");
        }
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = args
        .first()
        .and_then(|a| Effort::parse(a))
        .map(ExperimentPlan::new);
    let whichs: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
    let known = whichs.iter().all(|w| NAMES.split(' ').any(|n| n == *w));
    let Some(plan) = plan.filter(|_| known) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let effort = plan.effort();
    let all = whichs.is_empty() || whichs.contains(&"all");
    // `all` covers every name but the DRAM trace and the validation.
    let has = |n: &str| whichs.contains(&n) || (all && n != "10dram" && n != "validate-sampled");
    let ps = processor_axis(effort);
    let log = Arc::new(RunLog::new());
    let plan = plan.with_run_log(Arc::clone(&log), "figures");

    let scaling_figs = ["4", "5", "6", "7", "8", "9"];
    if scaling_figs.iter().any(|f| has(f)) {
        eprintln!(
            "running scaling sweep over {ps:?} at {effort:?} ({} workers)...",
            plan.threads()
        );
        let data = run_scaling(&plan, ps);
        if has("4") {
            let f = figures::fig04::from_data(&data);
            report("Figure 4", f.table(), f.shape_violations());
        }
        if has("5") {
            let f = figures::fig05::from_data(&data);
            report("Figure 5", f.table(), f.shape_violations());
        }
        if has("6") {
            let f = figures::fig06::from_data(&data);
            report("Figure 6", f.table(), f.shape_violations());
        }
        if has("7") {
            let f = figures::fig07::from_data(&data);
            report("Figure 7", f.table(), f.shape_violations());
        }
        if has("8") {
            let f = figures::fig08::from_data(&data);
            report("Figure 8", f.table(), f.shape_violations());
        }
        if has("9") {
            let f = figures::fig09::from_data(&data);
            report("Figure 9", f.table(), f.shape_violations());
        }
    }

    let traces = [
        ("10", "Figure 10", MemoryConfig::Flat),
        (
            "10dram",
            "Figure 10 (banked DRAM)",
            MemoryConfig::BankedDram(DramConfig),
        ),
    ];
    for (arg, name, memory) in traces {
        if !has(arg) {
            continue;
        }
        eprintln!("running figure 10 trace ({name})...");
        let f = figures::fig10::run(&plan, 8, memory);
        println!(
            "## {name} summary: c2c/Mcycle outside GC = {:.1}, during GC = {:.1} ({} GCs)",
            f.rate_outside_gc(),
            f.rate_during_gc(),
            f.gc_count
        );
        report(name, f.table(), f.shape_violations());
    }

    if has("11") {
        eprintln!("running figure 11 scale sweep...");
        let axis = match effort {
            Effort::Quick => &figures::fig11::QUICK_SCALE_AXIS[..],
            _ => &figures::fig11::PAPER_SCALE_AXIS[..],
        };
        let f = figures::fig11::run(&plan, axis);
        report("Figure 11", f.table(), f.shape_violations());
    }

    if has("12") || has("13") {
        eprintln!("running figure 12/13 uniprocessor sweeps...");
        let data = figures::fig12::run_sweeps(&plan);
        let f12 = figures::fig12::from_data(&data);
        report("Figure 12", f12.table(), f12.shape_violations());
        let f13 = figures::fig13::from_data(&data);
        report("Figure 13", f13.table(), f13.shape_violations());
    }

    if has("14") || has("15") {
        eprintln!("running figure 14/15 communication footprints...");
        let f14 = figures::fig14::run(&plan, 8);
        let f15 = figures::fig15::from_fig14(&f14);
        report("Figure 14", f14.table(), f14.shape_violations());
        report("Figure 15", f15.table(), f15.shape_violations());
    }

    if has("16") {
        eprintln!("running figure 16 shared-cache topologies...");
        let f = figures::fig16::run(&plan);
        report("Figure 16", f.table(), f.shape_violations());
    }

    if has("attrib") {
        eprintln!("running cycle-attribution profiles...");
        let f = figures::attrib::run(&plan, 8);
        report("Cycle attribution", f.table(), f.shape_violations());
    }

    if has("memcurve") {
        eprintln!("running bandwidth-latency curves...");
        let c = figures::memcurve::run(&plan);
        std::fs::write("MEMCURVE.csv", c.csv()).expect("write MEMCURVE.csv");
        eprintln!("wrote MEMCURVE.csv ({} points)", c.points.len());
        report("Bandwidth-latency curves", c.table(), c.shape_violations());
    }

    if has("ablations") {
        eprintln!("running ablations...");
        let ism = figures::ablations::run_ism(&plan);
        report("Ablation: ISM", ism.table(), ism.shape_violations());
        let pl = figures::ablations::run_path_length(&plan, &[1, 4, 8]);
        report("Ablation: path length", pl.table(), pl.shape_violations());
        let oc = figures::ablations::run_objcache(&plan, 8);
        report("Ablation: object cache", oc.table(), oc.shape_violations());
        let cl = figures::ablations::run_c2c_latency(&plan, 8);
        report("Ablation: c2c latency", cl.table(), cl.shape_violations());
        let mb = figures::ablations::run_mem_backend(&plan, 8);
        report(
            "Ablation: memory backend",
            mb.table(),
            mb.shape_violations(),
        );
        let mbe = figures::ablations::run_mem_backend_ecperf(&plan, 2);
        report(
            "Ablation: memory backend (ECperf)",
            mbe.table(),
            mbe.shape_violations(),
        );
    }

    if has("validate-sampled") {
        eprintln!("running sampled-vs-full differential validation...");
        let v = figures::validate::run(&plan);
        std::fs::write("SAMPLED_VALIDATION.csv", v.csv()).expect("write SAMPLED_VALIDATION.csv");
        eprintln!("wrote SAMPLED_VALIDATION.csv ({} rows)", v.rows.len());
        let violations = v.violations();
        report("Sampled-vs-full validation", v.table(), violations.clone());
        if !violations.is_empty() {
            std::process::exit(1);
        }
    }

    let prov = Provenance::capture()
        .with_workers(plan.threads())
        .with_effort(effort.name())
        .with_sim_mode("full");
    let file = std::fs::File::create("RUNLOG_figures.jsonl").expect("create RUNLOG_figures.jsonl");
    log.write_to(file, &prov)
        .expect("write RUNLOG_figures.jsonl");
    eprintln!(
        "wrote RUNLOG_figures.jsonl ({} runs, {} job spans, {} intervals, {} events) — render with `simreport RUNLOG_figures.jsonl`",
        log.run_count(),
        log.span_count(),
        log.interval_count(),
        log.event_count()
    );
}
