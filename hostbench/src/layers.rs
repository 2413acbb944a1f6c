//! The traced run's layer decomposition.
//!
//! Each layer's host time is measured by timing calls into its public
//! functions from this file, on the same machine and seed as the
//! workload, over one `Scale::window` after the warm-up:
//!
//! - `live.bare`: the live run with no observers;
//! - `live.interval`: the same with Figure 10's interval sampler and
//!   timeline attached (minus bare: `observers.interval_s`);
//! - `live.capture`: the same with a `TraceObserver` recording the
//!   reference stream (minus bare: `observers.capture_s`);
//! - `replay.scalar`, `replay.unfiltered`, `replay.batch`: the capture
//!   through `MemorySystem::access`, through `new_unfiltered`, and
//!   through `SystemTrace::replay_into` (the memory system alone);
//! - `replay.timers`: the scalar replay driving a `CpuTimer` per
//!   processor (minus scalar: `simcpu.timer_s`; bare minus this:
//!   `engine.self_s`, the kernel, scheduler and workload stepping);
//! - `replay.attrib`: the timed replay feeding an `AttribProfiler`
//!   (minus timers: `observers.attrib_s`).
//!
//! Every replay must reproduce the live run's memory statistics
//! exactly, and the observed runs must reproduce the bare run's
//! counters: observers and replays may cost time, never results.

use std::time::Instant;

use memsys::{AccessKind, MemorySystem, SystemTrace, SystemTraceEvent};
use middlesim::engine::{
    measure_sampled, AccessEvent, AccessSource, AttribProfiler, IntervalSampler, MachineConfig,
    SamplingConfig, SimObserver, TimelineCollector, TraceObserver,
};
use probes::runlog::{AttribRecord, JobSpan, RunLog, RunMeta};
use probes::{report, timeline, Provenance};
use simcpu::{CpuTimer, StallCharge};
use workloads::model::Workload as SimWorkload;

use crate::gate;
use crate::workload::{
    build_ecperf, build_fig10, full_metrics, run_window, Built, Iteration, Scale, Span, Tracer,
    Workload, SLICE_CYCLES,
};
use crate::EFFORT;

/// What the decomposition measured.
#[derive(Debug, Default)]
pub struct Decomposition {
    /// One span per timed call, in order.
    pub spans: Vec<Span>,
    /// Checks that failed.
    pub failures: Vec<String>,
    /// References in the capture.
    pub refs: u64,
    /// L2 misses per reference over the live window.
    pub l2_miss_ratio: f64,
    /// Cache-to-cache share of L2 misses over the live window.
    pub c2c_ratio: f64,
    /// Share of snoops the sharer directory filtered.
    pub snoop_filter_rate: f64,
    /// The validated figure metrics from the full-detail sampled window
    /// (sampled workload only).
    pub full_metrics: [f64; 5],
    /// The profiler's stacks from `replay.attrib`, for its span.
    pub attribs: Vec<AttribRecord>,
}

impl Decomposition {
    /// Host seconds of the fastest span named `name` (0 when absent).
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall_secs)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }
}

/// Decomposes `workload`'s host time at `seed`. The sampled workload is
/// represented by its full-detail equivalent.
pub fn decompose(workload: Workload, seed: u64, scale: Scale) -> Decomposition {
    let ecperf = || build_ecperf(8, memsys::MemoryConfig::Flat, seed);
    let mut d = match workload {
        Workload::Jbb8Fig10 => decompose_machine(|| build_fig10(seed), scale),
        Workload::Ecperf8Sampled => decompose_machine(ecperf, scale),
    };
    if workload == Workload::Ecperf8Sampled {
        // The sampled window in full detail: the reference for
        // `sampling.speedup` and `sampling.err_pct`.
        let mut m = ecperf().machine;
        let t = Instant::now();
        let (report, edge) = run_window(&mut m, scale.warmup, scale.sampled_window);
        let secs = t.elapsed().as_secs_f64();
        d.full_metrics = full_metrics(&m, &report, &edge);
        d.spans.push(Span {
            name: "sampling.full".into(),
            wall_secs: secs,
            counters: Some(m.counters()),
        });
        // The sampled path with no observers at all: the slice clock the
        // benchmark attaches must not move a single counter.
        let mut m = ecperf().machine;
        let t = Instant::now();
        measure_sampled(
            &mut m,
            scale.warmup,
            scale.sampled_window,
            &SamplingConfig::for_window(scale.sampled_window),
        );
        d.spans.push(Span {
            name: "sampling.bare".into(),
            wall_secs: t.elapsed().as_secs_f64(),
            counters: Some(m.counters()),
        });
    }
    d
}

/// Each timed call runs this many times, interleaved with the others;
/// the layer numbers use the fastest of each, since host noise only
/// ever adds time.
const REPS: usize = 2;

fn decompose_machine<W: SimWorkload>(build: impl Fn() -> Built<W>, scale: Scale) -> Decomposition {
    let mut d = Decomposition::default();
    let mut tr = Tracer::new(true);

    let mut capture = None;
    for _ in 0..REPS {
        let mut m = build().machine;
        let t = Instant::now();
        run_window(&mut m, scale.warmup, scale.window);
        tr.record("live.bare", t.elapsed().as_secs_f64(), Some(m.counters()));
        drop(m);

        let mut m = build().machine;
        let t = Instant::now();
        m.attach_observer(IntervalSampler::new(SLICE_CYCLES));
        m.attach_observer(TimelineCollector::new());
        run_window(&mut m, scale.warmup, scale.window);
        tr.record(
            "live.interval",
            t.elapsed().as_secs_f64(),
            Some(m.counters()),
        );
        drop(m);

        // Only one capture is kept alive at a time: a window's trace runs
        // to a few hundred megabytes.
        drop(capture.take());
        let mut m = build().machine;
        let t = Instant::now();
        let observer = m.attach_observer(TraceObserver::new());
        run_window(&mut m, scale.warmup, scale.window);
        tr.record(
            "live.capture",
            t.elapsed().as_secs_f64(),
            Some(m.counters()),
        );
        let live = (m.memory().stats().clone(), *m.memory().bus_stats());
        let trace = std::mem::take(m.observer_mut(observer)).into_trace();
        capture = Some((*m.memory().config(), live, m.workload().region_map(), trace));
    }
    let (hierarchy, live, regions, trace) = capture.expect("at least one capture");

    let digest = |s: &Span| {
        s.counters
            .as_ref()
            .map(|c| gate::digest(std::slice::from_ref(c)))
    };
    let bare = digest(&tr.spans[0]);
    for s in &tr.spans {
        if digest(s) != bare {
            d.failures
                .push(format!("{}: counters differ from the bare run's", s.name));
        }
    }
    d.refs = trace.refs();
    d.l2_miss_ratio = live.0.total_l2_misses() as f64 / live.0.total_accesses().max(1) as f64;
    d.c2c_ratio = live.0.c2c_ratio();
    d.snoop_filter_rate = live.1.snoop_filter_rate();

    let base_cpi = MachineConfig::e6000(1).pipeline.base_cpi;
    let mut record =
        |name: &str, (sys, secs): (MemorySystem, f64), extra: Option<&AttribProfiler>| {
            if (sys.stats(), sys.bus_stats()) != (&live.0, &live.1) {
                d.failures.push(format!(
                    "{name}: replay diverged from the live memory statistics"
                ));
            }
            let mut counters = sys.counters();
            if let Some(prof) = extra {
                counters.record(prof);
            }
            tr.record(name, secs, Some(counters));
        };
    let mut attribs = Vec::new();
    for _ in 0..REPS {
        let scalar = |sys: &mut MemorySystem| replay_scalar(&trace, sys);
        record(
            "replay.scalar",
            timed(MemorySystem::new(hierarchy), scalar),
            None,
        );
        record(
            "replay.unfiltered",
            timed(MemorySystem::new_unfiltered(hierarchy), scalar),
            None,
        );
        let batch = |sys: &mut MemorySystem| trace.replay_into(sys);
        record(
            "replay.batch",
            timed(MemorySystem::new(hierarchy), batch),
            None,
        );
        let timers = |sys: &mut MemorySystem| replay_timed(&trace, sys, None);
        record(
            "replay.timers",
            timed(MemorySystem::new(hierarchy), timers),
            None,
        );
        let mut prof = AttribProfiler::new(regions.clone(), base_cpi);
        let attrib = |sys: &mut MemorySystem| replay_timed(&trace, sys, Some(&mut prof));
        let run = timed(MemorySystem::new(hierarchy), attrib);
        record("replay.attrib", run, Some(&prof));
        attribs = prof.to_records(0, 0);
    }
    d.attribs = attribs;
    d.spans = tr.spans;
    d
}

/// Runs `replay` into `sys` and returns the system with the host
/// seconds it took.
fn timed(mut sys: MemorySystem, replay: impl FnOnce(&mut MemorySystem)) -> (MemorySystem, f64) {
    let t = Instant::now();
    replay(&mut sys);
    (sys, t.elapsed().as_secs_f64())
}

/// The capture through `MemorySystem::access`, one reference at a
/// time, resetting statistics at the recorded window edge.
fn replay_scalar(trace: &SystemTrace, sys: &mut MemorySystem) {
    for ev in trace.events() {
        match *ev {
            SystemTraceEvent::Ref {
                cpu, kind, addr, ..
            } => {
                sys.access(cpu as usize, kind, addr);
            }
            SystemTraceEvent::WindowReset => sys.reset_stats(),
            SystemTraceEvent::Instructions { .. } => {}
        }
    }
}

/// The scalar replay charging every reference to a per-processor
/// `CpuTimer`, as the live kernel does (kernel ticks bypass the
/// timers), optionally feeding the charges to a profiler.
fn replay_timed(
    trace: &SystemTrace,
    sys: &mut MemorySystem,
    mut prof: Option<&mut AttribProfiler>,
) {
    let mc = MachineConfig::e6000(1);
    let mut timers: Vec<CpuTimer> = (0..trace.cpus().max(1))
        .map(|_| CpuTimer::new(mc.pipeline, mc.latency))
        .collect();
    for ev in trace.events() {
        match *ev {
            SystemTraceEvent::Instructions { cpu, n } => timers[cpu as usize].retire(n),
            SystemTraceEvent::Ref {
                cpu,
                source,
                kind,
                addr,
            } => {
                let c = cpu as usize;
                let outcome = sys.access(c, kind, addr);
                let charge = if source == AccessSource::KernelTick {
                    StallCharge::default()
                } else {
                    match kind {
                        AccessKind::Ifetch => timers[c].ifetch(&outcome),
                        AccessKind::Load => timers[c].load(&outcome),
                        AccessKind::Store => timers[c].store(&outcome),
                    }
                };
                if let Some(p) = prof.as_deref_mut() {
                    p.on_access(&AccessEvent {
                        cpu: c,
                        kind,
                        addr,
                        outcome: &outcome,
                        now: timers[c].cycles(),
                        source,
                        charge,
                    });
                }
            }
            SystemTraceEvent::WindowReset => {
                sys.reset_stats();
                timers.iter_mut().for_each(CpuTimer::reset);
                if let Some(p) = prof.as_deref_mut() {
                    p.on_window_reset(0);
                }
            }
        }
    }
}

/// Host seconds each layer of the bare live run took, as
/// `(layer;component, seconds)` — the split the folded stacks carry.
pub fn host_split(d: &Decomposition) -> [(&'static str, f64); 3] {
    let timers = d.secs("replay.timers");
    let scalar = d.secs("replay.scalar");
    [
        ("engine;self", d.secs("live.bare") - timers),
        ("memsys;access", scalar),
        ("simcpu;timers", timers - scalar),
    ]
}

/// Appends the traced iteration's phases and the decomposition's calls
/// to the iteration's own RunLog as `job` records of one more run (the
/// phase name in `label`), plus the profiler's stacks and the bare
/// run's host split as `host_us;layer;component;workload` stacks in
/// microseconds. Writes the log to `path` and checks it the way
/// `simreport --check`, `--trace` and `--folded` read it.
pub fn write_traced_log(
    workload: Workload,
    it: &Iteration,
    d: &Decomposition,
    prov: &Provenance,
    path: &std::path::Path,
) -> Vec<String> {
    let log: &RunLog = &it.log;
    let spans: Vec<&Span> = it.spans.iter().chain(&d.spans).collect();
    let run = log.begin_run(RunMeta {
        tag: format!("hostbench:{}", workload.name()),
        effort: EFFORT.name().into(),
        threads: 1,
        jobs: spans.len(),
    });
    // The host split describes one bare run: it goes on the first.
    let first_bare = spans.iter().position(|s| s.name == "live.bare");
    for (id, s) in spans.iter().enumerate() {
        log.record_span(JobSpan {
            run,
            id,
            label: Some(s.name.clone()),
            worker: 0,
            claim: id,
            cost_hint: None,
            wall_secs: s.wall_secs,
            counters: s.counters.clone(),
        });
        match s.name.as_str() {
            "replay.attrib" => log.record_attribs(d.attribs.iter().map(|a| AttribRecord {
                run,
                id,
                ..a.clone()
            })),
            "live.bare" if Some(id) == first_bare => {
                log.record_attribs(host_split(d).into_iter().filter_map(|(frames, secs)| {
                    let us = (secs * 1e6).round();
                    (us >= 1.0).then(|| AttribRecord {
                        run,
                        id,
                        stack: format!("host_us;{frames};{}", workload.name()),
                        cycles: us as u64,
                    })
                }))
            }
            _ => {}
        }
    }
    let text = log.to_jsonl(prov);
    let mut failures = Vec::new();
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            failures.push(format!("cannot create {}: {e}", dir.display()));
        }
    }
    if let Err(e) = std::fs::write(path, &text) {
        failures.push(format!("cannot write {}: {e}", path.display()));
    }
    match report::check(&text) {
        Err(e) => failures.push(format!("traced RunLog fails --check: {e}")),
        Ok(parsed) => {
            if let Err(e) = timeline::validate_chrome_trace(&timeline::render_chrome_trace(&parsed))
            {
                failures.push(format!("traced RunLog fails --trace: {e}"));
            }
            if !report::render_folded(&parsed).contains("host_us;") {
                failures.push("traced RunLog has no host_us stacks for --folded".into());
            }
            let labelled = parsed
                .jobs
                .iter()
                .filter(|j| j.run == run as u64 && j.label.is_some())
                .count();
            if labelled != spans.len() {
                failures.push(format!(
                    "traced RunLog holds {labelled} of {} span records",
                    spans.len()
                ));
            }
        }
    }
    failures
}
