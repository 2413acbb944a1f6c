//! The command line: one run of one workload, its metrics as the final
//! JSON line, a provenance-stamped result record, and `--compare`.
//!
//! ```text
//! hostbench --workload NAME --seed N --seconds S --trace 0|1
//! hostbench --compare BASE.json CURRENT.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use probes::json::{self, Json};
use probes::Provenance;

use crate::gate;
use crate::layers;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::workload::{
    iterate, sweep_iteration, Iteration, Scale, Span, Workload, SWEEP_NAME, SWEEP_WORKERS,
};
use crate::{DEFAULT_SEED, EFFORT, END_TO_END, PER_LAYER};

/// One run's request.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed; the machine receives only this.
    pub seed: u64,
    /// Host seconds to keep the closed loop going.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A run's result, printed as the final JSON line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Iterations (plus the traced run's decomposition) attempted.
    pub attempted: u64,
    /// Of those, how many failed a correctness check.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The final JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    json::quote(name),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The provenance every result of `workload` is stamped with. Both
/// timed workloads run on one host thread.
pub fn provenance(workload: Workload) -> Provenance {
    Provenance::capture()
        .with_workers(1)
        .with_effort(EFFORT.name())
        .with_sim_mode(workload.sim_mode())
}

/// Where result records and traced RunLogs go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The closed loop: iterations until `seconds` have passed (at least
/// one), each gated against the first iteration's digest and the pinned
/// one. Failed checks are printed to stderr and counted.
struct Loop {
    workload: Workload,
    seed: u64,
    scale: Scale,
    first_digest: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Loop {
    fn new(workload: Workload, seed: u64, scale: Scale) -> Self {
        Loop {
            workload,
            seed,
            scale,
            first_digest: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn iterate(&mut self, prov: &Provenance, traced: bool) -> Iteration {
        let mut it = iterate(self.workload, self.seed, self.scale, prov, traced);
        eprintln!(
            "hostbench: {} iteration {}{}: setup {:.6} s, run {:.6} s",
            self.workload.name(),
            self.attempted,
            if traced { " (traced)" } else { "" },
            it.setup_s,
            it.run_s
        );
        let first = *self.first_digest.get_or_insert(it.digest);
        let pinned = gate::pinned(self.workload, self.seed, self.scale);
        it.failures
            .extend(gate::check_digest(it.digest, first, pinned));
        self.count(&it.failures);
        it
    }

    fn count(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for f in failures {
            eprintln!("hostbench: {}: check failed: {f}", self.workload.name());
        }
    }
}

/// The floor of a closed loop's run time. Every iteration simulates the
/// identical stream, so slice `k` of one iteration repeats slice `k` of
/// every other; host noise only ever adds time.
#[derive(Debug, Default)]
struct Floors {
    /// Each slice's fastest repeat, in host milliseconds.
    slices_ms: Vec<f64>,
    /// The fastest repeat of the rest of an iteration (before the first
    /// slice, after the last, figure checks and RunLog), in seconds.
    rest_s: f64,
    iterations: usize,
}

impl Floors {
    /// Folds one iteration in.
    fn add(&mut self, it: &Iteration) {
        let rest_s = it.run_s - it.slices_ms.iter().sum::<f64>() / 1e3;
        if self.iterations == 0 {
            self.slices_ms = it.slices_ms.clone();
            self.rest_s = rest_s;
        } else {
            for (floor, &ms) in self.slices_ms.iter_mut().zip(&it.slices_ms) {
                *floor = floor.min(ms);
            }
            self.rest_s = self.rest_s.min(rest_s);
        }
        self.iterations += 1;
    }

    /// Run time with every part at its fastest repeat: a slow stretch
    /// of the host costs a slice only if it hit that slice in every
    /// iteration.
    fn run_s(&self) -> f64 {
        self.slices_ms.iter().sum::<f64>() / 1e3 + self.rest_s
    }
}

/// Runs the untraced closed loop and reports the end-to-end metrics.
pub fn run_untraced(args: &Args, scale: Scale, prov: &Provenance) -> Outcome {
    let mut lp = Loop::new(args.workload, args.seed, scale);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut floors = Floors::default();
    let mut instructions;
    loop {
        let it = lp.iterate(prov, false);
        setups.push(it.setup_s);
        floors.add(&it);
        instructions = it.instructions;
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Run time sums each part's fastest repeat. Set-up, a few
    // milliseconds, is the median.
    let run_s = floors.run_s();
    let mips = instructions as f64 / run_s.max(f64::MIN_POSITIVE) / 1e6;
    let values = [median(&setups), run_s, mips, peak_rss_mb()];
    Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    }
}

/// Runs the traced run: untraced and traced iterations alternate for
/// `seconds` (at least one each), then the layer decomposition, then the
/// traced RunLog is written and checked. Reports the per-layer metrics.
pub fn run_traced(args: &Args, scale: Scale, prov: &Provenance) -> Outcome {
    let w = args.workload;
    let mut lp = Loop::new(w, args.seed, scale);
    let started = Instant::now();
    let mut untraced = Floors::default();
    let mut traced_floors = Floors::default();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut slices = Vec::new();
    loop {
        let plain = lp.iterate(prov, false);
        slices.extend_from_slice(&plain.slices_ms);
        untraced.add(&plain);
        let it = lp.iterate(prov, true);
        slices.extend_from_slice(&it.slices_ms);
        traced_floors.add(&it);
        traced.push(it);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut d = layers::decompose(w, args.seed, scale);
    let mut failures = d.failures.clone();
    // The Figure-10 traced run also runs the sweep batch once, so the
    // banked-DRAM backend and the plan's packing are measured too.
    let sweep = (w == Workload::Jbb8Fig10).then(|| {
        let mut s = sweep_iteration(args.seed, scale, prov);
        let pinned = gate::pinned_sweep(args.seed, scale);
        failures.extend(gate::check_digest(s.digest, s.digest, pinned));
        failures.extend(s.failures.iter().map(|f| format!("{SWEEP_NAME}: {f}")));
        for span in s.spans.drain(..) {
            d.spans.push(Span {
                name: format!("sweep.{}", span.name),
                ..span
            });
        }
        s
    });
    if let Some(bare) = d.spans.iter().find(|s| s.name == "sampling.bare") {
        let digest = bare
            .counters
            .as_ref()
            .map(|c| gate::digest(std::slice::from_ref(c)));
        if digest != lp.first_digest {
            failures
                .push("sampling.bare: counters differ from the run with the slice clock".into());
        }
    }
    let last = traced.last().expect("at least one traced iteration");
    let path = out_dir().join(format!("trace-{}-s{}.jsonl", w.name(), args.seed));
    failures.extend(layers::write_traced_log(w, last, &d, prov, &path));
    lp.count(&failures);

    let span_median = |name: &str| {
        median(
            &traced
                .iter()
                .map(|it| {
                    it.spans
                        .iter()
                        .find(|s| s.name == name)
                        .map_or(0.0, |s| s.wall_secs)
                })
                .collect::<Vec<_>>(),
        )
    };
    let run_s = untraced.run_s();
    let traced_run_s = traced_floors.run_s();
    let machine_new_s = median(&traced.iter().map(|it| it.machine_new_s).collect::<Vec<_>>());
    let counter = |name: &str| -> f64 {
        sweep
            .iter()
            .flat_map(|s| &s.counters)
            .filter_map(|c| c.get(name))
            .sum::<u64>() as f64
    };
    let dram_requests = counter("dram.reads") + counter("dram.writebacks");

    // The sampled spine against its full-detail reference; workloads
    // that run in full detail are their own reference.
    let (full_s, detailed_fraction, units, err_pct) = match &last.sampled {
        Some(s) => {
            let err = s
                .metrics
                .iter()
                .zip(d.full_metrics)
                .map(|(&sampled, full)| (sampled - full).abs() / full.abs().max(f64::MIN_POSITIVE))
                .fold(0.0, f64::max);
            (
                d.secs("sampling.full"),
                s.detailed_fraction,
                s.units as f64,
                100.0 * err,
            )
        }
        None => (run_s, 1.0, 0.0, 0.0),
    };

    // The plan batch: the sweep's own run in its RunLog.
    let (jobs, job_s_sum, efficiency, tail_s) = if let Some(s) = &sweep {
        let plan_jobs: Vec<_> = s.jobs.iter().filter(|j| j.run == 0).collect();
        let batch = d.secs("sweep.plan.batch");
        let sum: f64 = plan_jobs.iter().map(|j| j.wall_secs).sum();
        let busy: Vec<f64> = (0..SWEEP_WORKERS as u64)
            .map(|k| {
                plan_jobs
                    .iter()
                    .filter(|j| j.worker == k)
                    .map(|j| j.wall_secs)
                    .sum()
            })
            .collect();
        let tail = busy.iter().copied().fold(0.0, f64::max)
            - busy.iter().copied().fold(f64::MAX, f64::min);
        (
            plan_jobs.len() as f64,
            sum,
            sum / (SWEEP_WORKERS as f64 * batch).max(f64::MIN_POSITIVE),
            tail,
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };

    let split = layers::host_split(&d);
    let replay_s = d.secs("replay.scalar");
    let values: Vec<f64> = vec![
        split[0].1,
        last.slices_ms.len() as f64,
        median(&untraced.slices_ms),
        quantile(&slices, 0.99),
        last.transactions as f64,
        last.gc_count as f64,
        last.gc_cycles as f64 / last.cycles.max(1) as f64,
        d.refs as f64,
        replay_s,
        d.refs as f64 / replay_s.max(f64::MIN_POSITIVE) / 1e6,
        d.secs("replay.batch"),
        d.secs("replay.unfiltered"),
        d.secs("replay.unfiltered") / replay_s.max(f64::MIN_POSITIVE),
        d.l2_miss_ratio,
        d.c2c_ratio,
        d.snoop_filter_rate,
        counter("dram.reads"),
        counter("dram.writebacks"),
        counter("dram.row_hits") / dram_requests.max(1.0),
        counter("dram.queue_stalls"),
        split[2].1,
        d.secs("live.interval") - d.secs("live.bare"),
        d.secs("replay.attrib") - d.secs("replay.timers"),
        d.secs("live.capture") - d.secs("live.bare"),
        full_s,
        full_s / run_s.max(f64::MIN_POSITIVE),
        detailed_fraction,
        units,
        err_pct,
        jobs,
        job_s_sum,
        efficiency,
        tail_s,
        last.runlog_bytes as f64,
        span_median("probes.write"),
        span_median("probes.check"),
        machine_new_s,
        traced_run_s,
        traced_run_s - run_s,
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    }
}

/// The result record saved beside each run: provenance plus seed,
/// workload and trace flag, and the outcome line.
pub fn record(args: &Args, prov: &Provenance, outcome: &Outcome) -> String {
    format!(
        "{{\"provenance\":{},\"workload\":{},\"seed\":{},\"trace\":{},\"result\":{}}}\n",
        prov.to_json(),
        json::quote(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        outcome.to_json()
    )
}

/// Why two result records must not be compared, if they must not: any
/// difference in host, parallelism, effort, mode, workload, seed or
/// trace flag makes their times incomparable. Git revision and
/// timestamp may differ — comparing revisions is the point.
pub fn incomparable(base: &Json, current: &Json) -> Option<String> {
    const PROVENANCE: [&str; 5] = ["hostname", "cpu_count", "workers", "effort", "sim_mode"];
    const RUN: [&str; 3] = ["workload", "seed", "trace"];
    let prov = |doc: &Json, key: &str| doc.get("provenance").and_then(|p| p.get(key)).cloned();
    for key in PROVENANCE {
        if prov(base, key) != prov(current, key) {
            return Some(format!("provenance field {key:?} differs"));
        }
    }
    for key in RUN {
        if base.get(key) != current.get(key) {
            return Some(format!("{key:?} differs"));
        }
    }
    None
}

/// `--compare BASE CURRENT`: prints each metric's relative change, or
/// refuses (exit 2) when the provenance differs.
pub fn compare(base_path: &str, current_path: &str) -> i32 {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let (base, current) = match (load(base_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("hostbench: {e}");
            return 1;
        }
    };
    if let Some(why) = incomparable(&base, &current) {
        eprintln!("hostbench: refusing comparison: {why}");
        return 2;
    }
    let metrics = |doc: &Json| {
        doc.get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::members)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    for (name, b) in metrics(&base) {
        let value = |m: &Json| m.get("value").and_then(Json::as_num).unwrap_or(0.0);
        let Some((_, c)) = metrics(&current).into_iter().find(|(n, _)| *n == name) else {
            println!("{name:<28} missing in {current_path}");
            continue;
        };
        let (bv, cv) = (value(&b), value(&c));
        let unit = b.get("unit").and_then(Json::as_str).unwrap_or("");
        println!(
            "{name:<28} {bv:>14.6} -> {cv:>14.6} {unit:<7} {:+.2}%",
            100.0 * (cv - bv) / bv.abs().max(f64::MIN_POSITIVE)
        );
    }
    0
}

/// The whole command line; returns the exit code.
pub fn main_with(args: &[String]) -> i32 {
    if let [flag, base, current] = args {
        if flag == "--compare" {
            return compare(base, current);
        }
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "hostbench: {e}\nusage: hostbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                 hostbench --compare BASE.json CURRENT.json"
            );
            return 2;
        }
    };
    let prov = provenance(args.workload);
    println!("# provenance {} seed {}", prov.to_json(), args.seed);
    let outcome = if args.trace {
        run_traced(&args, Scale::BENCH, &prov)
    } else {
        run_untraced(&args, Scale::BENCH, &prov)
    };
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{name:<28} {value:>16.6} {unit}");
    }
    let path = out_dir().join(format!(
        "{}-s{}-t{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let saved = std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(&path, record(&args, &prov, &outcome)));
    if let Err(e) = saved {
        eprintln!("hostbench: cannot save {}: {e}", path.display());
    }
    println!("{}", outcome.to_json());
    0
}
