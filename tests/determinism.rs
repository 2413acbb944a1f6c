//! Same-seed determinism, serially and in parallel.
//!
//! A seed names one reproducible universe: two runs of the same machine
//! with the same seed must agree bit-for-bit, and the parallel
//! experiment runner must produce exactly the serial results no matter
//! how many worker threads claim the jobs.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use memsys::{Addr, AddrRange, DramConfig, MemoryConfig};
use middlesim::{ExperimentPlan, JobTelemetry, Machine, MachineConfig, WindowReport};
use probes::RunLog;
use workloads::specjbb::{SpecJbb, SpecJbbConfig};

const MCYCLES: u64 = 1_000_000;

fn jbb_on(pset: usize, seed: u64, memory: MemoryConfig) -> Machine<SpecJbb> {
    let cfg = SpecJbbConfig::scaled(2 * pset, 64);
    let region = AddrRange::new(Addr(0x2000_0000), cfg.required_bytes());
    let mut mc = MachineConfig::e6000(pset);
    mc.seed = seed;
    mc.hierarchy.memory = memory;
    Machine::new(mc, SpecJbb::new(cfg, region))
}

fn jbb(pset: usize, seed: u64) -> Machine<SpecJbb> {
    jbb_on(pset, seed, MemoryConfig::Flat)
}

fn measure_on(pset: usize, seed: u64, memory: MemoryConfig) -> WindowReport {
    let mut m = jbb_on(pset, seed, memory);
    m.run_until(10 * MCYCLES);
    m.begin_measurement();
    let start = m.time();
    m.run_until(start + 20 * MCYCLES);
    m.window_report()
}

/// Fixed provenance for serializing test logs.
fn provenance() -> probes::Provenance {
    probes::Provenance {
        git_rev: "test".into(),
        hostname: "test".into(),
        cpu_count: 4,
        timestamp: 0,
        workers: None,
        effort: None,
        sim_mode: None,
    }
}

fn measure(pset: usize, seed: u64) -> WindowReport {
    measure_on(pset, seed, MemoryConfig::Flat)
}

/// Two runs of the same seed produce the identical window report.
#[test]
fn same_seed_same_report() {
    let a = measure(2, 7);
    let b = measure(2, 7);
    assert_eq!(a, b, "same seed must reproduce the window bit-for-bit");
}

/// The parallel runner returns exactly the serial results, in input
/// order, at every thread count.
#[test]
fn parallel_runner_matches_serial_bit_for_bit() {
    // pset x seed jobs, enough to keep several workers busy at once.
    let jobs: Vec<(usize, u64)> = [1usize, 2]
        .iter()
        .flat_map(|&p| (0..3u64).map(move |s| (p, s)))
        .collect();
    let run = |plan: &ExperimentPlan| plan.run(&jobs, |&(p, s)| measure(p, s));

    let serial = run(&ExperimentPlan::serial(middlesim::Effort::Quick));
    for threads in [2, 4] {
        let parallel = run(&ExperimentPlan::serial(middlesim::Effort::Quick).with_threads(threads));
        assert_eq!(
            serial, parallel,
            "{threads}-thread run diverged from the serial run"
        );
    }
}

/// The determinism contract holds for every memory backend, not just the
/// flat default: a machine timed by the load-dependent `BankedDram`
/// model reproduces its window bit-for-bit on the same seed, and the
/// parallel runner merges the identical results at 1/2/4 workers. The
/// DRAM backend's internal clock advances only from simulated cycles the
/// machine feeds it, so worker scheduling must not leak into the timing.
#[test]
fn dram_backend_runs_are_deterministic_serial_and_parallel() {
    let dram = MemoryConfig::BankedDram(DramConfig::default());
    let a = measure_on(2, 7, dram);
    let b = measure_on(2, 7, dram);
    assert_eq!(a, b, "same seed must reproduce the DRAM-timed window");
    assert_ne!(
        a,
        measure(2, 7),
        "DRAM timing should actually change the window (else the backend is inert)"
    );

    let jobs: Vec<(usize, u64)> = [1usize, 2]
        .iter()
        .flat_map(|&p| (0..2u64).map(move |s| (p, s)))
        .collect();
    let run = |plan: &ExperimentPlan| plan.run(&jobs, |&(p, s)| measure_on(p, s, dram));
    let serial = run(&ExperimentPlan::serial(middlesim::Effort::Quick));
    for threads in [1, 2, 4] {
        let parallel = run(&ExperimentPlan::serial(middlesim::Effort::Quick).with_threads(threads));
        assert_eq!(
            serial, parallel,
            "{threads}-thread DRAM-backed run diverged from the serial run"
        );
    }
}

/// FNV-1a over every `(name, value)` pair of a counter snapshot, in order.
fn counter_digest(snap: &probes::registry::Snapshot) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, _, value) in snap.iter() {
        for &b in name
            .as_bytes()
            .iter()
            .chain(&[0])
            .chain(&value.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins a sampled window on the clocked banked-DRAM backend to recorded
/// values. The fast-forward stamps each functional-warming access with
/// `set_now(base_clock + charge)`, and DRAM row and queue state depend
/// on those stamps, so any change to how the fast path orders its
/// warming accesses or prices their charges moves these counters.
#[test]
fn sampled_dram_window_matches_pinned_counters() {
    use middlesim::engine::{measure_sampled, SamplingConfig};

    let mut m = jbb_on(2, 3, MemoryConfig::BankedDram(DramConfig::default()));
    let run = measure_sampled(
        &mut m,
        10 * MCYCLES,
        20 * MCYCLES,
        &SamplingConfig::for_window(20 * MCYCLES),
    );
    let counters = m.counters();
    let got = (
        counters.get("dram.reads").expect("banked DRAM panel"),
        counters.get("dram.row_hits").expect("banked DRAM panel"),
        counters
            .get("dram.queue_stalls")
            .expect("banked DRAM panel"),
        run.base_q8,
        run.units.len(),
        run.detailed_units(),
        counter_digest(&counters),
    );
    // Recorded from the run that first pinned this window; re-record only
    // with a change meant to alter simulated results.
    assert_eq!(
        got,
        (25_569, 11_223, 7_668, 281, 20, 11, 0xaac3_501f_cb4b_323a)
    );
}

/// Observability must be free: the same batch run bare, with a RunLog
/// attached (cost-hinted `run_telemetry` runs with empty telemetry), and
/// with per-job counter snapshots (`JobTelemetry::counters`) produces
/// bit-identical outputs at every worker count — span emission lives
/// outside the input-order merge.
#[test]
fn run_log_attachment_leaves_outputs_bit_identical() {
    let jobs: Vec<(usize, u64)> = [1usize, 2]
        .iter()
        .flat_map(|&p| (0..2u64).map(move |s| (p, s)))
        .collect();
    let cost = |&(p, _): &(usize, u64)| middlesim::Effort::Quick.cost_hint(p);

    let bare_plain =
        ExperimentPlan::serial(middlesim::Effort::Quick).run(&jobs, |&(p, s)| measure(p, s));
    let bare_hinted =
        ExperimentPlan::serial(middlesim::Effort::Quick).run_telemetry(&jobs, cost, |&(p, s)| {
            (measure(p, s), JobTelemetry::default())
        });
    assert_eq!(bare_plain, bare_hinted);

    let log = Arc::new(RunLog::new());
    for threads in [1, 2, 4] {
        let plan = ExperimentPlan::serial(middlesim::Effort::Quick)
            .with_threads(threads)
            .with_run_log(Arc::clone(&log), "determinism")
            .with_job_labels(jobs.iter().map(|&(p, s)| format!("p{p}-s{s}")).collect());
        let logged = plan.run_telemetry(&jobs, cost, |&(p, s)| {
            (measure(p, s), JobTelemetry::default())
        });
        assert_eq!(
            bare_plain, logged,
            "{threads}-thread logged run diverged from the bare run"
        );
        let probed = plan.run_telemetry(&jobs, cost, |&(p, s)| {
            let mut m = jbb(p, s);
            m.run_until(10 * MCYCLES);
            m.begin_measurement();
            let start = m.time();
            m.run_until(start + 20 * MCYCLES);
            (
                m.window_report(),
                JobTelemetry::counters(Some(m.counters())),
            )
        });
        assert_eq!(
            bare_plain, probed,
            "{threads}-thread probed run diverged from the bare run"
        );
    }

    // Every job of every logged run produced exactly one span, and the
    // serialized log passes the simreport schema check.
    assert_eq!(log.run_count(), 6);
    assert_eq!(log.span_count(), 6 * jobs.len());
    let jsonl = log.to_jsonl(&provenance());
    let parsed = probes::report::check(&jsonl).expect("runner emits schema-valid JSONL");
    assert!(parsed
        .jobs
        .iter()
        .all(|j| j.label.is_some() && j.cost_hint.is_some()));
    // Probed spans carry the counter snapshots; the empty-telemetry
    // runs carry none.
    let probed_spans = parsed
        .jobs
        .iter()
        .filter(|j| !j.counters.is_empty())
        .count();
    assert_eq!(probed_spans, 3 * jobs.len());
}

/// Interval sampling and latency histograms must also be free: running
/// the same jobs with an `IntervalSampler` attached, latency histograms
/// enabled, and the full telemetry streamed through `run_telemetry`
/// leaves every merged output bit-identical to the bare run, at every
/// worker count. The sampler only ever reads counters and the
/// histograms only ever observe latencies the simulation already
/// computed, so attaching them cannot perturb a single simulated event.
#[test]
fn interval_sampler_attachment_leaves_outputs_bit_identical() {
    let jobs: Vec<(usize, u64)> = [1usize, 2]
        .iter()
        .flat_map(|&p| (0..2u64).map(move |s| (p, s)))
        .collect();
    let cost = |&(p, _): &(usize, u64)| middlesim::Effort::Quick.cost_hint(p);
    let bare = ExperimentPlan::serial(middlesim::Effort::Quick).run(&jobs, |&(p, s)| measure(p, s));

    let log = Arc::new(RunLog::new());
    for threads in [1, 2, 4] {
        let plan = ExperimentPlan::serial(middlesim::Effort::Quick)
            .with_threads(threads)
            .with_run_log(Arc::clone(&log), "sampled");
        let sampled = plan.run_telemetry(&jobs, cost, |&(p, s)| {
            let mut m = jbb(p, s);
            m.enable_latency_hists();
            let sampler = m.attach_observer(middlesim::IntervalSampler::new(5 * MCYCLES));
            m.run_until(10 * MCYCLES);
            m.begin_measurement();
            let start = m.time();
            m.run_until(start + 20 * MCYCLES);
            let mut tele = JobTelemetry::counters(Some(m.counters()));
            if let Some(h) = m.latency_hist() {
                tele.hists.push(("mem.latency".into(), h.clone()));
            }
            if let Some(h) = m.drain_hist() {
                tele.hists.push(("cpu.store_drain".into(), h));
            }
            tele.intervals = m.observer(sampler).samples().to_vec();
            (m.window_report(), tele)
        });
        assert_eq!(
            bare, sampled,
            "{threads}-thread sampled run diverged from the bare run"
        );
    }

    // Three logged runs, each with a full telemetry set: spans with
    // counters, a 20-Mcycle measurement window sampled at 5 Mcycles
    // (plus warmup samples), and both histograms per job. The
    // serialized log passes the simreport schema check.
    assert_eq!(log.run_count(), 3);
    assert_eq!(log.span_count(), 3 * jobs.len());
    assert_eq!(log.hist_count(), 3 * jobs.len() * 2);
    assert!(log.interval_count() >= 3 * jobs.len() * 4);
    let jsonl = log.to_jsonl(&provenance());
    let parsed = probes::report::check(&jsonl).expect("telemetry log passes the schema check");
    assert!(parsed.intervals.iter().all(|iv| iv.end > iv.start));
    assert!(parsed.hists.iter().all(|h| h.hist.count() > 0));
}

/// Sampled-mode runs are part of the same determinism contract: the
/// unit schedule, cluster assignment, calibrated fast-clock base and
/// extrapolated estimates must replay bit-for-bit on the same seed, and
/// the plan must merge identical sampled results at 1/2/4 workers. The
/// sampling path consumes no RNG of its own (leader clustering is
/// insertion-ordered, the stride jitter is hashed, the fast clock is
/// integer Q8), so nothing may depend on worker scheduling.
#[test]
fn sampled_runs_are_identical_serial_and_parallel() {
    use middlesim::engine::{measure_sampled, SamplingConfig};

    let jobs: Vec<(usize, u64)> = [1usize, 2]
        .iter()
        .flat_map(|&p| (0..2u64).map(move |s| (p, s)))
        .collect();
    let sample = |&(p, s): &(usize, u64)| {
        let mut m = jbb(p, s);
        let run = measure_sampled(
            &mut m,
            10 * MCYCLES,
            20 * MCYCLES,
            &SamplingConfig::for_window(20 * MCYCLES),
        );
        (
            run.units.clone(),
            run.base_q8,
            run.to_window_report(),
            run.cpi().mean.to_bits(),
        )
    };
    let run = |plan: &ExperimentPlan| plan.run(&jobs, sample);

    let serial = run(&ExperimentPlan::serial(middlesim::Effort::Quick));
    assert!(serial.iter().all(|(units, ..)| !units.is_empty()));
    for threads in [1, 2, 4] {
        let parallel = run(&ExperimentPlan::serial(middlesim::Effort::Quick).with_threads(threads));
        assert_eq!(
            serial, parallel,
            "{threads}-thread sampled run diverged from the serial run"
        );
    }
}

/// The run observatory is part of the determinism contract: the event
/// streams the timeline is built from — GC pauses and window resets
/// from the `TimelineCollector`, DRAM queue-stall episodes drained from
/// the banked backend, and sample-unit strata from the sampled spine —
/// serialize to byte-identical JSONL lines at 1, 2 and 4 workers, in
/// both full and sampled modes. Events are stamped on the worker
/// threads and sorted at serialization time, so worker scheduling must
/// not leak into a single timestamp or a single record's order.
#[test]
fn event_records_are_bit_identical_across_worker_counts() {
    use middlesim::engine::{measure_sampled, SamplingConfig};

    let jobs: Vec<(usize, u64)> = [1usize, 2]
        .iter()
        .flat_map(|&p| (0..2u64).map(move |s| (p, s)))
        .collect();
    let cost = |&(p, _): &(usize, u64)| middlesim::Effort::Quick.cost_hint(p);
    // A harder-scaled heap (divisor 512 vs the file-wide 64) shrinks the
    // eden so GC pauses land inside the short test window.
    let jbb_hot = |p: usize, s: u64, memory: MemoryConfig| {
        let cfg = SpecJbbConfig::scaled(2 * p, 512);
        let region = AddrRange::new(Addr(0x2000_0000), cfg.required_bytes());
        let mut mc = MachineConfig::e6000(p);
        mc.seed = s;
        mc.hierarchy.memory = memory;
        Machine::new(mc, SpecJbb::new(cfg, region))
    };
    let prov = provenance();
    let event_lines = |log: &RunLog| -> Vec<String> {
        log.to_jsonl(&prov)
            .lines()
            .filter(|l| l.contains("\"ev\":\"event\""))
            .map(str::to_string)
            .collect()
    };

    // Full mode on the DRAM-timed backend: GC pauses, the window reset
    // and queue-stall episodes all land in the stream.
    let full = |&(p, s): &(usize, u64)| {
        let mut m = jbb_hot(p, s, MemoryConfig::BankedDram(DramConfig::default()));
        let timeline = m.attach_observer(middlesim::TimelineCollector::new());
        m.run_until(10 * MCYCLES);
        m.begin_measurement();
        let start = m.time();
        m.run_until(start + 20 * MCYCLES);
        let mut events = m.observer(timeline).to_records(0, 0);
        events.extend(
            m.take_dram_stall_episodes()
                .into_iter()
                .map(|(start, end)| probes::runlog::EventRecord {
                    run: 0,
                    id: 0,
                    name: "dram.stall".into(),
                    start,
                    end,
                }),
        );
        let tele = JobTelemetry::counters(Some(m.counters())).with_events(events);
        (m.window_report(), tele)
    };

    // Sampled mode: the unit schedule's detailed / fast-forward /
    // recovery strata join the GC timeline.
    let sampled = |&(p, s): &(usize, u64)| {
        let mut m = jbb_hot(p, s, MemoryConfig::Flat);
        let timeline = m.attach_observer(middlesim::TimelineCollector::new());
        let run = measure_sampled(
            &mut m,
            10 * MCYCLES,
            20 * MCYCLES,
            &SamplingConfig::for_window(20 * MCYCLES),
        );
        let mut events = m.observer(timeline).to_records(0, 0);
        events.extend(run.event_records(0, 0));
        let tele = JobTelemetry::default().with_events(events);
        (run.to_window_report(), tele)
    };

    type Body<'a> = &'a (dyn Fn(&(usize, u64)) -> (WindowReport, middlesim::JobTelemetry) + Sync);
    let modes: [(&str, Body); 2] = [("full", &full), ("sampled", &sampled)];
    for (tag, body) in modes {
        let mut reference: Option<Vec<String>> = None;
        for threads in [1, 2, 4] {
            let log = Arc::new(RunLog::new());
            let plan = ExperimentPlan::serial(middlesim::Effort::Quick)
                .with_threads(threads)
                .with_run_log(Arc::clone(&log), tag);
            let _ = plan.run_telemetry(&jobs, cost, body);
            let lines = event_lines(&log);
            assert!(
                !lines.is_empty(),
                "{tag}-mode run produced no event records"
            );
            match &reference {
                None => {
                    // The streams carry the expected vocabularies.
                    let has = |needle: &str| lines.iter().any(|l| l.contains(needle));
                    assert!(has("gc.pause"), "{tag}-mode stream lacks gc.pause spans");
                    assert!(has("window.reset"), "{tag}-mode stream lacks window.reset");
                    if tag == "full" {
                        assert!(has("dram.stall"), "full-mode stream lacks dram.stall");
                    } else {
                        assert!(has("unit."), "sampled-mode stream lacks unit strata");
                    }
                    reference = Some(lines);
                }
                Some(first) => assert_eq!(
                    first, &lines,
                    "{threads}-thread {tag}-mode event stream diverged from 1-thread"
                ),
            }
        }
    }
}

/// Attribution records ride the same contract as events: the
/// `phase;component;cause;region` cycle folds an `AttribProfiler`
/// harvests are stamped on the worker threads and sorted at
/// serialization time, so the `"ev":"attrib"` JSONL stream must be
/// byte-identical at 1, 2 and 4 workers, in both full and sampled
/// modes, and must carry both the mutator and the GC phase.
#[test]
fn attrib_records_are_bit_identical_across_worker_counts() {
    use middlesim::engine::{measure_sampled, SamplingConfig};
    use workloads::model::Workload;

    let jobs: Vec<(usize, u64)> = [1usize, 2]
        .iter()
        .flat_map(|&p| (0..2u64).map(move |s| (p, s)))
        .collect();
    let cost = |&(p, _): &(usize, u64)| middlesim::Effort::Quick.cost_hint(p);
    // Same harder-scaled heap as the event-record test: a small eden
    // puts GC attribution inside the short window.
    let jbb_hot = |p: usize, s: u64| {
        let cfg = SpecJbbConfig::scaled(2 * p, 512);
        let region = AddrRange::new(Addr(0x2000_0000), cfg.required_bytes());
        let mut mc = MachineConfig::e6000(p);
        mc.seed = s;
        Machine::new(mc, SpecJbb::new(cfg, region))
    };
    let base_cpi = MachineConfig::e6000(1).pipeline.base_cpi;
    let prov = provenance();
    let attrib_lines = |log: &RunLog| -> Vec<String> {
        log.to_jsonl(&prov)
            .lines()
            .filter(|l| l.contains("\"ev\":\"attrib\""))
            .map(str::to_string)
            .collect()
    };

    // Full mode: counters carry the attrib roll-up so the serialized
    // log also exercises the `--check` cross-validation invariant.
    let full = |&(p, s): &(usize, u64)| {
        let mut m = jbb_hot(p, s);
        let handle = m.attach_observer(middlesim::AttribProfiler::new(
            m.workload().region_map(),
            base_cpi,
        ));
        m.run_until(10 * MCYCLES);
        m.begin_measurement();
        let start = m.time();
        m.run_until(start + 20 * MCYCLES);
        let prof = m.observer(handle);
        let mut counters = m.counters();
        counters.record(prof);
        let tele = JobTelemetry::counters(Some(counters)).with_attribs(prof.to_records(0, 0));
        (m.window_report(), tele)
    };

    // Sampled mode: the profiler observes only the detailed units the
    // sampling spine simulates, which must replay identically too.
    let sampled = |&(p, s): &(usize, u64)| {
        let mut m = jbb_hot(p, s);
        let handle = m.attach_observer(middlesim::AttribProfiler::new(
            m.workload().region_map(),
            base_cpi,
        ));
        let run = measure_sampled(
            &mut m,
            10 * MCYCLES,
            20 * MCYCLES,
            &SamplingConfig::for_window(20 * MCYCLES),
        );
        let prof = m.observer(handle);
        let tele = JobTelemetry::default().with_attribs(prof.to_records(0, 0));
        (run.to_window_report(), tele)
    };

    type Body<'a> = &'a (dyn Fn(&(usize, u64)) -> (WindowReport, middlesim::JobTelemetry) + Sync);
    let modes: [(&str, Body); 2] = [("full", &full), ("sampled", &sampled)];
    for (tag, body) in modes {
        let mut reference: Option<Vec<String>> = None;
        for threads in [1, 2, 4] {
            let log = Arc::new(RunLog::new());
            let plan = ExperimentPlan::serial(middlesim::Effort::Quick)
                .with_threads(threads)
                .with_run_log(Arc::clone(&log), tag);
            let _ = plan.run_telemetry(&jobs, cost, body);
            let lines = attrib_lines(&log);
            assert!(
                !lines.is_empty(),
                "{tag}-mode run produced no attrib records"
            );
            match &reference {
                None => {
                    let has = |needle: &str| lines.iter().any(|l| l.contains(needle));
                    assert!(
                        has("\"stack\":\"mutator;"),
                        "{tag}-mode fold lacks mutator stacks"
                    );
                    assert!(has("data_stall"), "{tag}-mode fold lacks data stalls");
                    if tag == "full" {
                        assert!(has("\"stack\":\"gc;"), "full-mode fold lacks GC stacks");
                        // The heap-region dimension survives serialization.
                        assert!(
                            has(";old_gen\"") || has(";eden\""),
                            "full-mode fold lacks heap-region leaves"
                        );
                    }
                    reference = Some(lines);
                }
                Some(first) => assert_eq!(
                    first, &lines,
                    "{threads}-thread {tag}-mode attrib stream diverged from 1-thread"
                ),
            }
        }
    }
}

/// Attribution must be free: running the same jobs with an
/// `AttribProfiler` attached leaves every pre-existing output —
/// window reports and the machine counter snapshots — bit-identical
/// to the bare run at every worker count. The profiler only reads the
/// `StallCharge` the timers already computed, so switching it on may
/// not perturb a single simulated event.
#[test]
fn attrib_profiler_attachment_leaves_outputs_bit_identical() {
    use workloads::model::Workload;

    let jobs: Vec<(usize, u64)> = [1usize, 2]
        .iter()
        .flat_map(|&p| (0..2u64).map(move |s| (p, s)))
        .collect();
    let base_cpi = MachineConfig::e6000(1).pipeline.base_cpi;
    let observe = |&(p, s): &(usize, u64), attach: bool| {
        let mut m = jbb(p, s);
        if attach {
            let _ = m.attach_observer(middlesim::AttribProfiler::new(
                m.workload().region_map(),
                base_cpi,
            ));
        }
        m.run_until(10 * MCYCLES);
        m.begin_measurement();
        let start = m.time();
        m.run_until(start + 20 * MCYCLES);
        (m.window_report(), m.counters())
    };

    let bare =
        ExperimentPlan::serial(middlesim::Effort::Quick).run(&jobs, |job| observe(job, false));
    for threads in [1, 2, 4] {
        let profiled = ExperimentPlan::serial(middlesim::Effort::Quick)
            .with_threads(threads)
            .run(&jobs, |job| observe(job, true));
        assert_eq!(
            bare, profiled,
            "{threads}-thread profiled run diverged from the bare run"
        );
    }
}

/// The official SPECjbb run protocol — speculative ramp rounds on the
/// plan — produces the identical score structure at every worker count.
#[test]
fn official_run_is_identical_serial_and_parallel() {
    let serial =
        middlesim::official_run_with(&ExperimentPlan::serial(middlesim::Effort::Quick), 2, 4);
    for threads in [2, 4] {
        let parallel = middlesim::official_run_with(
            &ExperimentPlan::serial(middlesim::Effort::Quick).with_threads(threads),
            2,
            4,
        );
        assert_eq!(
            serial, parallel,
            "{threads}-thread official run diverged from serial"
        );
    }
}

/// The two-tier cluster — app seeds fanned out, query logs flowing into
/// database replays as plan dependencies — merges to the identical
/// report at every worker count.
#[test]
fn cluster_run_is_identical_serial_and_parallel() {
    let serial = middlesim::run_cluster_with(&ExperimentPlan::serial(middlesim::Effort::Quick), 2);
    for threads in [2, 4] {
        let parallel = middlesim::run_cluster_with(
            &ExperimentPlan::serial(middlesim::Effort::Quick).with_threads(threads),
            2,
        );
        assert_eq!(
            serial, parallel,
            "{threads}-thread cluster run diverged from serial"
        );
    }
}

/// On a mixed-size batch the size-aware runner claims the biggest jobs
/// first — read back from the RunLog's per-span `claim` index, which the
/// runner stamps at claim time — while outputs still land in input order.
#[test]
fn mixed_size_batch_claims_largest_first() {
    // Simulated "system sizes" as cost hints: 1, 16, 2, 8, 4.
    let jobs: Vec<(usize, u64)> = [(0, 1u64), (1, 16), (2, 2), (3, 8), (4, 4)].to_vec();
    for threads in [1, 2, 4] {
        let log = Arc::new(RunLog::new());
        let out = ExperimentPlan::serial(middlesim::Effort::Quick)
            .with_threads(threads)
            .with_run_log(Arc::clone(&log), "claims")
            .run_telemetry(
                &jobs,
                |&(_, size)| middlesim::Effort::Quick.cost_hint(size as usize),
                |&(i, _)| (i, JobTelemetry::default()),
            );
        assert_eq!(out, vec![0, 1, 2, 3, 4], "outputs merge in input order");
        let mut spans = probes::report::check(&log.to_jsonl(&provenance()))
            .expect("runner emits schema-valid JSONL")
            .jobs;
        spans.sort_by_key(|j| j.claim);
        let claimed: Vec<u64> = spans.iter().map(|j| j.id).collect();
        assert_eq!(
            claimed,
            vec![1, 3, 4, 2, 0],
            "{threads}-thread pool must claim largest jobs first"
        );
    }
}

/// The runner demonstrably fans jobs across at least two OS threads.
#[test]
fn parallel_runner_uses_multiple_threads() {
    let plan = ExperimentPlan::serial(middlesim::Effort::Quick).with_threads(4);
    let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
    let jobs: Vec<u32> = (0..16).collect();
    let _ = plan.run(&jobs, |_| {
        ids.lock().unwrap().insert(std::thread::current().id());
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
    let distinct = ids.lock().unwrap().len();
    assert!(
        distinct >= 2,
        "expected >= 2 worker threads, saw {distinct}"
    );
}
