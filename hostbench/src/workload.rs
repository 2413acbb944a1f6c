//! The two timed workloads and the sweep batch: their machines, one
//! closed-loop iteration each, and what an iteration hands to the
//! metrics and the correctness gate.

use std::sync::Arc;
use std::time::Instant;

use memsys::{Addr, AddrRange, DramConfig, MemoryConfig};
use middlesim::engine::{
    measure_sampled, AttribProfiler, IntervalSampler, Machine, MachineConfig, SampledRun,
    SamplingConfig, SimObserver, TimelineCollector, WindowReport,
};
use middlesim::experiment::{ExperimentPlan, JobTelemetry, WORKLOAD_BASE};
use middlesim::figures::fig10::Fig10;
use probes::registry::Snapshot;
use probes::report::{self, JobEntry};
use probes::runlog::{JobSpan, RunLog, RunMeta};
use probes::{Histogram, Provenance};
use workloads::ecperf::{Ecperf, EcperfConfig};
use workloads::model::Workload as SimWorkload;
use workloads::specjbb::{SpecJbb, SpecJbbConfig};

use crate::gate;
use crate::EFFORT;

/// Width of one slice in simulated cycles: Figure 10's sampling
/// interval, and the unit `slice_ms_*` is reported per.
pub const SLICE_CYCLES: u64 = 2_000_000;

/// Figure 10's heap divisor: eden must dwarf the caches for the c2c
/// collapse during collection to show.
const FIG10_DIVISOR: u64 = 8;

/// The processor counts of the scaling sweep.
const SWEEP_PSETS: [usize; 4] = [1, 2, 4, 8];

/// Host threads of the sweep batch.
pub const SWEEP_WORKERS: usize = 2;

/// The sweep batch's tag in its RunLog and in the gate.
pub const SWEEP_NAME: &str = "sweep_dram_2w";

/// A timed benchmark workload. Both run on one host thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SPECjbb in the Figure-10 shape, full detail.
    Jbb8Fig10,
    /// ECperf on 8 processors through the sampled spine.
    Ecperf8Sampled,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Jbb8Fig10, Workload::Ecperf8Sampled];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Jbb8Fig10 => "jbb8_fig10",
            Workload::Ecperf8Sampled => "ecperf8_sampled",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulation mode, as `Provenance::sim_mode` records it.
    pub fn sim_mode(self) -> &'static str {
        match self {
            Workload::Ecperf8Sampled => "sampled",
            Workload::Jbb8Fig10 => "full",
        }
    }
}

/// Simulated lengths, in cycles. Caches start empty at machine build and
/// fill during the warm-up, which every run pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Warm-up before the measurement window.
    pub warmup: u64,
    /// Window of the sweep's jobs and of the layer decomposition.
    pub window: u64,
    /// Window of `jbb8_fig10`: long enough to hold a collection.
    pub fig10_window: u64,
    /// Window of `ecperf8_sampled`.
    pub sampled_window: u64,
}

impl Scale {
    /// The benchmark's size: `Effort::Quick` windows, a Figure-10 window
    /// that reaches the first collection at every seed, and a sampled
    /// window of four quick windows. How many units the sampled spine
    /// simulates in detail depends on the seed's signature clusters; over
    /// 160 units instead of 40 that share varies less from seed to seed.
    pub const BENCH: Scale = Scale {
        warmup: 15_000_000,
        window: 40_000_000,
        fig10_window: 200_000_000,
        sampled_window: 160_000_000,
    };

    /// A tiny size for smoke tests (too short for a collection, so the
    /// Figure-10 shape check fails by design).
    pub const SMOKE: Scale = Scale {
        warmup: 2_000_000,
        window: 4_000_000,
        fig10_window: 4_000_000,
        sampled_window: 4_000_000,
    };
}

/// One timed phase of a traced iteration or layer decomposition: it
/// becomes a RunLog `job` record labelled with `name`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name, e.g. `engine.window`.
    pub name: String,
    /// Host seconds the phase took.
    pub wall_secs: f64,
    /// The simulator's counters at the end of the phase, where it has
    /// any.
    pub counters: Option<Snapshot>,
}

/// Times the phases of one iteration when tracing is on; a pass-through
/// otherwise, so traced and untraced iterations run the same calls.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    /// Phases recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or passes through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording it as phase `name` when tracing.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.record(name, t.elapsed().as_secs_f64(), None);
        out
    }

    /// Records an already-timed phase when tracing.
    pub fn record(&mut self, name: &str, wall_secs: f64, counters: Option<Snapshot>) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                wall_secs,
                counters,
            });
        }
    }
}

/// Host milliseconds per [`SLICE_CYCLES`] of simulated time, read at
/// the kernel's counter-sampling boundaries. It only reads the clock,
/// so attaching it changes no simulated statistic.
#[derive(Default)]
pub struct SliceClock {
    last: Option<(u64, Instant)>,
    ms: Vec<f64>,
}

impl SliceClock {
    /// Host milliseconds of each whole slice, in order. A collection can
    /// stretch one slice past its nominal width.
    pub fn slices(&self) -> &[f64] {
        &self.ms
    }
}

impl SimObserver for SliceClock {
    fn interval_cycles(&self) -> Option<u64> {
        Some(SLICE_CYCLES)
    }

    fn on_counter_sample(&mut self, now: u64, _counters: &Snapshot) {
        let at = Instant::now();
        if let Some((start, then)) = self.last {
            // Samples trail the boundary they cross by a few cycles, so
            // whole slices measure a little over or under the width;
            // only the re-baseline at a window reset leaves a short one,
            // which is dropped rather than reported as a slice.
            if now - start > SLICE_CYCLES * 3 / 4 {
                self.ms.push((at - then).as_secs_f64() * 1e3);
            }
        }
        self.last = Some((now, at));
    }
}

/// A machine and what building it cost.
pub struct Built<W: SimWorkload> {
    /// The machine, caches empty.
    pub machine: Machine<W>,
    /// Host seconds for the workload build plus `Machine::new`.
    pub setup_s: f64,
    /// Host seconds for `Machine::new` alone.
    pub machine_new_s: f64,
}

fn machine_config(pset: usize, seed: u64, memory: MemoryConfig) -> MachineConfig {
    let mut mc = MachineConfig::e6000(pset);
    mc.seed = seed;
    mc.sample_interval = SLICE_CYCLES;
    mc.hierarchy.memory = memory;
    mc
}

fn timed_build<W: SimWorkload>(mc: MachineConfig, build: impl FnOnce() -> W) -> Built<W> {
    let t = Instant::now();
    let workload = build();
    let t_new = Instant::now();
    let machine = Machine::new(mc, workload);
    Built {
        machine,
        setup_s: t.elapsed().as_secs_f64(),
        machine_new_s: t_new.elapsed().as_secs_f64(),
    }
}

/// Builds a SPECjbb machine: `warehouses` threads on `pset` of 16
/// processors, heap scaled by `divisor`.
pub fn build_jbb(
    pset: usize,
    warehouses: usize,
    divisor: u64,
    memory: MemoryConfig,
    seed: u64,
) -> Built<SpecJbb> {
    timed_build(machine_config(pset, seed, memory), || {
        let cfg = SpecJbbConfig::scaled(warehouses, divisor);
        let region = AddrRange::new(Addr(WORKLOAD_BASE), cfg.required_bytes());
        SpecJbb::new(cfg, region)
    })
}

/// Builds an ECperf application-server machine on `pset` processors,
/// its thread pool tuned to the processor count as the figures tune it.
pub fn build_ecperf(pset: usize, memory: MemoryConfig, seed: u64) -> Built<Ecperf> {
    timed_build(machine_config(pset, seed, memory), || {
        let mut cfg = EcperfConfig::scaled(10, EFFORT.scale_divisor());
        cfg.threads = (pset * 6).clamp(12, 96);
        cfg.db_connections = (cfg.threads as u32 / 2).max(2);
        let region = AddrRange::new(Addr(WORKLOAD_BASE), cfg.required_bytes());
        Ecperf::new(cfg, region)
    })
}

/// The Figure-10 machine.
pub fn build_fig10(seed: u64) -> Built<SpecJbb> {
    build_jbb(8, 16, FIG10_DIVISOR, MemoryConfig::Flat, seed)
}

/// The banked-DRAM memory every sweep job runs on.
pub fn sweep_memory() -> MemoryConfig {
    MemoryConfig::BankedDram(DramConfig::default())
}

/// Warms a fresh machine up, resets its statistics and measures one
/// `window`. Returns the window report and the counters at the window
/// edge.
pub fn run_window<W: SimWorkload>(
    m: &mut Machine<W>,
    warmup: u64,
    window: u64,
) -> (WindowReport, Snapshot) {
    m.run_until(warmup);
    m.begin_measurement();
    let edge = m.counters();
    let start = m.time();
    m.run_until(start + window);
    (m.window_report(), edge)
}

/// The figure metrics the sampled-vs-full validation compares
/// (`figures::validate::METRICS`), from a sampled run.
pub fn sampled_metrics(run: &SampledRun) -> [f64; 5] {
    let kinds = |u: &middlesim::engine::UnitMeasurement, suffix: &str| -> f64 {
        ["load", "store", "ifetch"]
            .iter()
            .map(|k| u.counter(&format!("mem.{k}.{suffix}")))
            .sum::<u64>() as f64
    };
    let ratio = |suffix: &str| run.ratio_estimate(|u| kinds(u, suffix), |u| kinds(u, "accesses"));
    let (p50, p95) = quantiles(run.response_hist().as_ref());
    [
        run.cpi().mean,
        ratio("l1_misses").mean,
        ratio("l2_misses").mean,
        p50,
        p95,
    ]
}

/// The same metrics from a full-detail window: `edge` is the counter
/// snapshot at the window's start.
pub fn full_metrics<W: SimWorkload>(
    m: &Machine<W>,
    report: &WindowReport,
    edge: &Snapshot,
) -> [f64; 5] {
    let delta = m.counters().delta(edge);
    let sum = |suffix: &str| -> f64 {
        ["load", "store", "ifetch"]
            .iter()
            .map(|k| delta.get(&format!("mem.{k}.{suffix}")).unwrap_or(0))
            .sum::<u64>() as f64
    };
    let accesses = sum("accesses").max(1.0);
    let (p50, p95) = quantiles(SimWorkload::response_hist(m.workload()));
    [
        report.cpi.cpi(),
        sum("l1_misses") / accesses,
        sum("l2_misses") / accesses,
        p50,
        p95,
    ]
}

fn quantiles(h: Option<&Histogram>) -> (f64, f64) {
    h.map_or((0.0, 0.0), |h| {
        (h.quantile(0.5) as f64, h.quantile(0.95) as f64)
    })
}

/// What the sampled spine did in one iteration.
#[derive(Debug, Clone, Default)]
pub struct SampledFacts {
    /// Share of the window simulated in detail.
    pub detailed_fraction: f64,
    /// Sample units in the schedule.
    pub units: usize,
    /// The validated figure metrics, estimated from the sample.
    pub metrics: [f64; 5],
}

/// One closed-loop iteration's results.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host seconds building workloads and machines (summed over the
    /// sweep's jobs).
    pub setup_s: f64,
    /// Host seconds inside `Machine::new` alone (summed likewise).
    pub machine_new_s: f64,
    /// Host seconds of the run after set-up: warm-up, window, figure
    /// checks and RunLog write + check. The sweep's batch wall time
    /// includes its jobs' set-up, which runs on the workers.
    pub run_s: f64,
    /// Simulated instructions in the measurement windows.
    pub instructions: u64,
    /// Host milliseconds per simulated slice.
    pub slices_ms: Vec<f64>,
    /// Digest of the end-of-run counter snapshots.
    pub digest: u64,
    /// Correctness checks that failed, one message each.
    pub failures: Vec<String>,
    /// Completed transactions in the windows.
    pub transactions: u64,
    /// Collections in the windows.
    pub gc_count: u64,
    /// Cycles spent collecting, and window cycles, summed over jobs.
    pub gc_cycles: u64,
    /// Window cycles summed over jobs.
    pub cycles: u64,
    /// End-of-run counters of every job, in job order.
    pub counters: Vec<Snapshot>,
    /// Bytes of the RunLog the iteration wrote.
    pub runlog_bytes: usize,
    /// The iteration's RunLog (a traced run appends its spans to it).
    pub log: Arc<RunLog>,
    /// The plan's job spans as `report::check` parsed them back.
    pub jobs: Vec<JobEntry>,
    /// The sampled spine's schedule, for the sampled workload.
    pub sampled: Option<SampledFacts>,
    /// Phases, when traced.
    pub spans: Vec<Span>,
}

/// Runs one iteration of `workload`.
pub fn iterate(
    workload: Workload,
    seed: u64,
    scale: Scale,
    prov: &Provenance,
    traced: bool,
) -> Iteration {
    let mut tr = Tracer::new(traced);
    let it = match workload {
        Workload::Jbb8Fig10 => fig10(seed, scale, &mut tr),
        Workload::Ecperf8Sampled => ecperf_sampled(seed, scale, &mut tr),
    };
    finish(it, prov, tr)
}

/// Runs the sweep batch once, traced: its spans hold `plan.batch`,
/// `setup` and the RunLog write and check.
pub fn sweep_iteration(seed: u64, scale: Scale, prov: &Provenance) -> Iteration {
    let mut tr = Tracer::new(true);
    let it = sweep(seed, scale, &mut tr);
    finish(it, prov, tr)
}

/// Writes and checks the iteration's RunLog and digests its counters.
fn finish(mut it: Iteration, prov: &Provenance, mut tr: Tracer) -> Iteration {
    let started = Instant::now();
    write_and_check(&mut it, prov, &mut tr);
    it.run_s += started.elapsed().as_secs_f64();
    it.digest = gate::digest(&it.counters);
    it.spans = tr.spans;
    it
}

fn fig10(seed: u64, scale: Scale, tr: &mut Tracer) -> Iteration {
    let built = build_fig10(seed);
    tr.record("setup", built.setup_s, None);
    tr.record("setup.machine_new", built.machine_new_s, None);
    let mut m = built.machine;
    let started = Instant::now();
    let (sampler, timeline, clock) = tr.time("observers.attach", || {
        (
            m.attach_observer(IntervalSampler::new(SLICE_CYCLES)),
            m.attach_observer(TimelineCollector::new()),
            m.attach_observer(SliceClock::default()),
        )
    });
    tr.time("engine.warmup", || m.run_until(scale.warmup));
    tr.time("engine.window", || {
        m.begin_measurement();
        let start = m.time();
        m.run_until(start + scale.fig10_window);
    });
    let (report, fig, counters) = tr.time("figure", || {
        let fig = Fig10 {
            intervals: m.observer(sampler).samples().to_vec(),
            interval_cycles: SLICE_CYCLES,
            gc_count: m.gc_count(),
            detailed_spans: Vec::new(),
            warm_factor: 1,
            events: m.observer(timeline).to_records(0, 0),
        };
        (m.window_report(), fig, m.counters())
    });
    let failures = fig
        .shape_violations()
        .into_iter()
        .map(|v| format!("Fig10 shape: {v}"))
        .collect();
    let log = Arc::new(RunLog::new());
    tr.time("probes.record", || {
        let run = log.begin_run(RunMeta {
            tag: Workload::Jbb8Fig10.name().into(),
            effort: EFFORT.name().into(),
            threads: 1,
            jobs: 1,
        });
        log.record_span(JobSpan {
            run,
            id: 0,
            label: Some("fig10:jbb8".into()),
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: started.elapsed().as_secs_f64(),
            counters: Some(counters.clone()),
        });
        log.record_intervals(fig.records(run, 0));
        log.record_events(fig.event_records(run, 0));
    });
    Iteration {
        setup_s: built.setup_s,
        machine_new_s: built.machine_new_s,
        run_s: started.elapsed().as_secs_f64(),
        instructions: report.cpi.instructions,
        slices_ms: m.observer(clock).slices().to_vec(),
        failures,
        transactions: report.transactions,
        gc_count: report.gc_count,
        gc_cycles: report.gc_cycles,
        cycles: report.cycles,
        counters: vec![counters],
        log,
        ..Iteration::default()
    }
}

fn ecperf_sampled(seed: u64, scale: Scale, tr: &mut Tracer) -> Iteration {
    let built = build_ecperf(8, MemoryConfig::Flat, seed);
    tr.record("setup", built.setup_s, None);
    tr.record("setup.machine_new", built.machine_new_s, None);
    let mut m = built.machine;
    let started = Instant::now();
    let clock = m.attach_observer(SliceClock::default());
    let run = tr.time("sampling.measure", || {
        measure_sampled(
            &mut m,
            scale.warmup,
            scale.sampled_window,
            &SamplingConfig::for_window(scale.sampled_window),
        )
    });
    let (report, facts, counters) = tr.time("figure", || {
        let facts = SampledFacts {
            detailed_fraction: run.detailed_fraction(),
            units: run.units.len(),
            metrics: sampled_metrics(&run),
        };
        (run.to_window_report(), facts, m.counters())
    });
    let log = Arc::new(RunLog::new());
    tr.time("probes.record", || {
        let id = log.begin_run(RunMeta {
            tag: Workload::Ecperf8Sampled.name().into(),
            effort: EFFORT.name().into(),
            threads: 1,
            jobs: 1,
        });
        log.record_span(JobSpan {
            run: id,
            id: 0,
            label: Some("sampled:ecperf8".into()),
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: started.elapsed().as_secs_f64(),
            counters: Some(counters.clone()),
        });
        log.record_sample_units(run.sample_units(id, 0));
        log.record_events(run.event_records(id, 0));
    });
    Iteration {
        setup_s: built.setup_s,
        machine_new_s: built.machine_new_s,
        run_s: started.elapsed().as_secs_f64(),
        instructions: report.cpi.instructions,
        slices_ms: m.observer(clock).slices().to_vec(),
        transactions: report.transactions,
        gc_count: report.gc_count,
        gc_cycles: report.gc_cycles,
        cycles: report.cycles,
        counters: vec![counters],
        log,
        sampled: Some(facts),
        ..Iteration::default()
    }
}

/// What one sweep job hands back through the plan.
struct SweepJob {
    setup_s: f64,
    machine_new_s: f64,
    report: WindowReport,
    slices_ms: Vec<f64>,
    counters: Snapshot,
}

fn sweep_job<W: SimWorkload>(built: Built<W>, scale: Scale) -> (SweepJob, JobTelemetry) {
    let mut m = built.machine;
    let base_cpi = MachineConfig::e6000(1).pipeline.base_cpi;
    m.enable_latency_hists();
    let prof = m.attach_observer(AttribProfiler::new(m.workload().region_map(), base_cpi));
    let clock = m.attach_observer(SliceClock::default());
    let (report, _) = run_window(&mut m, scale.warmup, scale.window);
    let profiler: &AttribProfiler = m.observer(prof);
    let mut counters = m.counters();
    counters.record(profiler);
    let mut hists = Vec::new();
    if let Some(h) = m.latency_hist() {
        hists.push(("mem.latency".to_string(), h.clone()));
    }
    if let Some(h) = m.drain_hist() {
        hists.push(("store.drain".to_string(), h));
    }
    let tele = JobTelemetry {
        counters: Some(counters.clone()),
        hists,
        ..JobTelemetry::default()
    }
    .with_attribs(profiler.to_records(0, 0));
    let job = SweepJob {
        setup_s: built.setup_s,
        machine_new_s: built.machine_new_s,
        report,
        slices_ms: m.observer(clock).slices().to_vec(),
        counters,
    };
    (job, tele)
}

/// The sweep's jobs, `(is_jbb, pset)`, in input (and digest) order.
fn sweep_jobs() -> Vec<(bool, usize)> {
    [true, false]
        .into_iter()
        .flat_map(|jbb| SWEEP_PSETS.map(|p| (jbb, p)))
        .collect()
}

fn sweep(seed: u64, scale: Scale, tr: &mut Tracer) -> Iteration {
    let jobs = sweep_jobs();
    let log = Arc::new(RunLog::new());
    let labels = jobs
        .iter()
        .map(|&(jbb, p)| format!("sweep:{}:p{p}", if jbb { "jbb" } else { "ecperf" }))
        .collect();
    let plan = ExperimentPlan::new(EFFORT)
        .with_threads(SWEEP_WORKERS)
        .with_run_log(Arc::clone(&log), SWEEP_NAME)
        .with_job_labels(labels);
    let started = Instant::now();
    let outs = tr.time("plan.batch", || {
        plan.run_telemetry(
            &jobs,
            |&(_, p)| EFFORT.cost_hint(p),
            |&(jbb, p)| {
                if jbb {
                    sweep_job(
                        build_jbb(p, 2 * p, EFFORT.scale_divisor(), sweep_memory(), seed),
                        scale,
                    )
                } else {
                    sweep_job(build_ecperf(p, sweep_memory(), seed), scale)
                }
            },
        )
    });
    let mut it = Iteration {
        run_s: started.elapsed().as_secs_f64(),
        log,
        ..Iteration::default()
    };
    for job in outs {
        it.setup_s += job.setup_s;
        it.machine_new_s += job.machine_new_s;
        it.instructions += job.report.cpi.instructions;
        it.slices_ms.extend(job.slices_ms);
        it.transactions += job.report.transactions;
        it.gc_count += job.report.gc_count;
        it.gc_cycles += job.report.gc_cycles;
        it.cycles += job.report.cycles;
        it.counters.push(job.counters);
    }
    tr.record("setup", it.setup_s, None);
    tr.record("setup.machine_new", it.machine_new_s, None);
    it
}

/// Serializes the iteration's RunLog and schema-checks it back, as
/// `simreport --check` would; a failure is recorded, never dropped.
fn write_and_check(it: &mut Iteration, prov: &Provenance, tr: &mut Tracer) {
    let mut buf = Vec::new();
    let written = tr.time("probes.write", || it.log.write_to(&mut buf, prov));
    if let Err(e) = written {
        it.failures.push(format!("RunLog write failed: {e}"));
        return;
    }
    it.runlog_bytes = buf.len();
    let parsed = tr.time("probes.check", || {
        String::from_utf8(buf)
            .map_err(|e| e.to_string())
            .and_then(|text| report::check(&text))
    });
    match parsed {
        Ok(log) => it.jobs = log.jobs,
        Err(e) => it.failures.push(format!("RunLog check failed: {e}")),
    }
}
