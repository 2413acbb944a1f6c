//! Experiment orchestration: workload factories, warm-up/measurement
//! windows, and the parallel [`ExperimentPlan`] runner all figure
//! experiments fan out through. The multi-seed variability methodology
//! is `ExperimentPlan::seeds` fanned over [`ExperimentPlan::run`].
//!
//! Every figure experiment follows the paper's protocol: build the
//! workload, warm it up (caches, JIT, bean cache, steady-state heap),
//! reset all statistics, measure a window, and repeat across seeds to get
//! means and error bars (Section 3.3).
//!
//! Runs at different seeds or configurations never share state — each
//! builds its own machine and RNG — so the plan can fan them across a
//! worker pool and still produce *bit-identical* results to a serial run:
//! outputs are merged in input order, and every floating-point reduction
//! happens after the merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use memsys::{Addr, AddrRange};
use probes::registry::Snapshot;
use probes::runlog::{
    AttribRecord, EventRecord, HistRecord, IntervalRecord, JobSpan, RunLog, RunMeta,
    SampleUnitRecord,
};
use probes::Histogram;
use workloads::ecperf::{Ecperf, EcperfConfig};
use workloads::model::Workload;
use workloads::specjbb::{SpecJbb, SpecJbbConfig};

use crate::engine::{
    measure_sampled, IntervalSample, Machine, MachineConfig, SampledRun, SamplingConfig, SimMode,
    WindowReport,
};

/// Base address of the workload's memory region: above the engine's
/// reserved kernel-tick lines, below nothing else.
pub const WORKLOAD_BASE: u64 = 0x2000_0000;

/// How hard an experiment works: `Quick` for tests and smoke runs,
/// `Standard` for the bench harness, `Full` for paper-strength windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Short windows, 1 seed.
    Quick,
    /// Medium windows, 3 seeds (bench default).
    Standard,
    /// Long windows, 5 seeds.
    Full,
}

impl Effort {
    /// Warm-up length in cycles.
    pub fn warmup(self) -> u64 {
        match self {
            Effort::Quick => 15_000_000,
            Effort::Standard => 40_000_000,
            Effort::Full => 120_000_000,
        }
    }

    /// Measurement-window length in cycles.
    pub fn window(self) -> u64 {
        match self {
            Effort::Quick => 40_000_000,
            Effort::Standard => 120_000_000,
            Effort::Full => 400_000_000,
        }
    }

    /// Seeds per configuration (the Alameldeen–Wood methodology).
    pub(crate) fn seeds(self) -> u64 {
        match self {
            Effort::Quick => 1,
            Effort::Standard => 3,
            Effort::Full => 5,
        }
    }

    /// Heap/database scale divisor for reference-driven runs.
    pub fn scale_divisor(self) -> u64 {
        match self {
            Effort::Quick => 32,
            Effort::Standard => 16,
            Effort::Full => 8,
        }
    }

    /// A relative cost hint for one simulation job on a `system_size`-
    /// processor machine at this effort: simulated work scales with the
    /// run length (warm-up + window) times the processors stepped.
    /// Units are arbitrary — hints only need to *order* jobs (see
    /// [`ExperimentPlan::run_telemetry`]).
    pub fn cost_hint(self, system_size: usize) -> u64 {
        (self.warmup() + self.window()) * system_size.max(1) as u64
    }

    /// The preset's name, as the RunLog records it.
    pub fn name(self) -> &'static str {
        match self {
            Effort::Quick => "quick",
            Effort::Standard => "standard",
            Effort::Full => "full",
        }
    }

    /// The preset named `name` — the inverse of [`Effort::name`], so
    /// command lines spell efforts exactly as the RunLog does.
    pub fn parse(name: &str) -> Option<Effort> {
        [Effort::Quick, Effort::Standard, Effort::Full]
            .into_iter()
            .find(|e| e.name() == name)
    }

    /// The sampled-mode configuration scaled to this preset's window.
    pub(crate) fn sampling(self) -> SamplingConfig {
        SamplingConfig::for_window(self.window())
    }

    /// The sampled [`SimMode`] for this preset.
    pub fn sampled_mode(self) -> SimMode {
        SimMode::Sampled(self.sampling())
    }
}

/// Telemetry one job can ship into the run log alongside its output:
/// an end-of-window counter snapshot, an `IntervalSampler` series, and
/// named latency histograms. Everything here rides outside the merge
/// path — attaching or dropping it never changes merged outputs.
#[derive(Debug, Clone, Default)]
pub struct JobTelemetry {
    /// End-of-job counter snapshot for the job's span.
    pub counters: Option<Snapshot>,
    /// The job's sampled interval series, in time order.
    pub intervals: Vec<IntervalSample>,
    /// Named histograms, e.g. `("mem.latency", h)`.
    pub hists: Vec<(String, Histogram)>,
    /// The sampled-mode unit schedule, when the job ran sampled. The
    /// job fills `unit`/`cluster`/`weight_ppm`; the runner stamps
    /// `run`/`id` when the records land in the log.
    pub samples: Vec<SampleUnitRecord>,
    /// Sim-time timeline events (GC pauses, window resets, sample-unit
    /// strata, DRAM stall episodes). As with `samples`, the job fills
    /// name and `[start, end]`; the runner stamps `run`/`id`.
    pub events: Vec<EventRecord>,
    /// Cycle-attribution stacks from an
    /// [`AttribProfiler`](crate::engine::AttribProfiler). As with
    /// `samples`, the job fills stack and cycles; the runner stamps
    /// `run`/`id`.
    pub attribs: Vec<AttribRecord>,
}

impl JobTelemetry {
    /// Telemetry carrying only a counter snapshot.
    pub fn counters(snapshot: Option<Snapshot>) -> Self {
        JobTelemetry {
            counters: snapshot,
            ..JobTelemetry::default()
        }
    }

    /// Attaches a sampled run's unit schedule (placeholder `run`/`id`;
    /// the plan runner stamps the real ones at emission).
    pub(crate) fn with_samples(mut self, sampled: Option<&SampledRun>) -> Self {
        if let Some(s) = sampled {
            self.samples = s.sample_units(0, 0);
            self.events.extend(s.event_records(0, 0));
        }
        self
    }

    /// Appends timeline events (placeholder `run`/`id`, stamped at
    /// emission like `samples`).
    pub fn with_events(mut self, events: impl IntoIterator<Item = EventRecord>) -> Self {
        self.events.extend(events);
        self
    }

    /// Appends cycle-attribution stacks (placeholder `run`/`id`,
    /// stamped at emission like `samples`).
    pub fn with_attribs(mut self, attribs: impl IntoIterator<Item = AttribRecord>) -> Self {
        self.attribs.extend(attribs);
        self
    }
}

/// The claim order for cost-hinted runs: largest first, ties broken by
/// input position. Separated out (and public) so schedulers and tests
/// can reason about the exact order workers claim jobs in.
pub fn largest_first_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    order
}

/// A parallel experiment runner: fans independent simulation jobs (seeds
/// × configurations) over a pool of `std::thread` workers and merges
/// their results in input order.
///
/// Determinism contract: for the same inputs and job function, the
/// returned vector is identical whatever the thread count — including
/// `1`, which runs inline with no pool at all. Jobs must therefore be
/// pure functions of their input (every machine builder in this module
/// is: the seed fully determines the run).
///
/// A plan may carry a [`RunLog`] (see [`ExperimentPlan::with_run_log`]):
/// every batch run then emits one `run` event plus a [`JobSpan`] per
/// job. Spans are recorded on the worker threads as jobs finish and
/// never touch the output slots, so logged runs stay bit-identical to
/// unlogged ones.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    effort: Effort,
    mode: SimMode,
    threads: usize,
    log: Option<LogBinding>,
    job_labels: Option<Arc<Vec<String>>>,
}

/// A RunLog plus the tag the plan's runs are recorded under.
#[derive(Debug, Clone)]
struct LogBinding {
    log: Arc<RunLog>,
    tag: String,
}

impl ExperimentPlan {
    /// A plan running at `effort` with one worker per available core.
    pub fn new(effort: Effort) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExperimentPlan {
            effort,
            mode: SimMode::Full,
            threads,
            log: None,
            job_labels: None,
        }
    }

    /// A strictly serial plan (no worker pool).
    pub fn serial(effort: Effort) -> Self {
        Self::new(effort).with_threads(1)
    }

    /// The same plan with an explicit worker count (min 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a run log: every subsequent batch run on this plan
    /// records its spans there under `tag`. Logging observes the runner
    /// from outside the merge path; outputs are unchanged.
    pub fn with_run_log(mut self, log: Arc<RunLog>, tag: &str) -> Self {
        self.log = Some(LogBinding {
            log,
            tag: tag.to_string(),
        });
        self
    }

    /// Human labels for the next batch's jobs, by input index (spans
    /// fall back to bare indices for unlabeled batches).
    pub fn with_job_labels(mut self, labels: Vec<String>) -> Self {
        self.job_labels = Some(Arc::new(labels));
        self
    }

    /// The same plan in a different simulation mode. Sampled mode only
    /// changes *how* each job's window is measured (fast-forward +
    /// extrapolation); job fan-out, merge order and determinism are
    /// untouched.
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// The plan's simulation mode.
    pub(crate) fn mode(&self) -> &SimMode {
        &self.mode
    }

    /// The plan's effort level.
    pub fn effort(&self) -> Effort {
        self.effort
    }

    /// The plan's worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job` over every input, returning outputs in input order.
    ///
    /// With more than one worker, inputs are claimed from a shared
    /// counter (work stealing by index), so long and short jobs pack
    /// tightly; each output lands in its input's slot, which is what
    /// makes the merge order — and therefore every downstream
    /// floating-point reduction — independent of scheduling.
    pub fn run<I, O>(&self, inputs: &[I], job: impl Fn(&I) -> O + Sync) -> Vec<O>
    where
        I: Sync,
        O: Send,
    {
        let order: Vec<usize> = (0..inputs.len()).collect();
        self.run_ordered(inputs, &order, None, |i| (job(i), JobTelemetry::default()))
    }

    /// Like [`ExperimentPlan::run`], but each job carries a relative cost
    /// hint and workers claim the *largest remaining* job first. On mixed
    /// batches (a Full-effort 16-processor point next to uniprocessor
    /// sweeps) this keeps the big jobs from being claimed last and
    /// dragging the tail. Jobs return `(output, JobTelemetry)`:
    /// everything in the telemetry lands in the run log under the job's
    /// `(run, id)` — the span's counter snapshot, `interval`, `hist`,
    /// `sample_unit`, `event` and `attrib` records — and is dropped when
    /// no log is attached. Outputs merge in input order, so results are
    /// bit-identical to [`ExperimentPlan::run`]'s.
    pub fn run_telemetry<I, O>(
        &self,
        inputs: &[I],
        cost: impl Fn(&I) -> u64,
        job: impl Fn(&I) -> (O, JobTelemetry) + Sync,
    ) -> Vec<O>
    where
        I: Sync,
        O: Send,
    {
        let costs: Vec<u64> = inputs.iter().map(cost).collect();
        self.run_ordered(inputs, &largest_first_order(&costs), Some(&costs), job)
    }

    /// The shared engine: claims inputs in `order`, writes outputs into
    /// their input-order slots. Jobs return `(output, telemetry)`; the
    /// telemetry goes to the run log (if any), never into a slot.
    fn run_ordered<I, O>(
        &self,
        inputs: &[I],
        order: &[usize],
        costs: Option<&[u64]>,
        job: impl Fn(&I) -> (O, JobTelemetry) + Sync,
    ) -> Vec<O>
    where
        I: Sync,
        O: Send,
    {
        debug_assert_eq!(order.len(), inputs.len());
        let run = self.log.as_ref().map(|b| {
            b.log.begin_run(RunMeta {
                tag: b.tag.clone(),
                effort: self.effort.name().to_string(),
                threads: self.threads,
                jobs: inputs.len(),
            })
        });
        // Telemetry emission: called on whichever thread finished the
        // job, after the output is produced but independent of the slot
        // writes the merge reads from.
        let emit = |id: usize, worker: usize, claim: usize, wall: f64, tele: JobTelemetry| {
            let (Some(binding), Some(run)) = (&self.log, run) else {
                return;
            };
            binding.log.record_span(JobSpan {
                run,
                id,
                label: self.job_labels.as_ref().and_then(|l| l.get(id).cloned()),
                worker,
                claim,
                cost_hint: costs.map(|c| c[id]),
                wall_secs: wall,
                counters: tele.counters,
            });
            binding
                .log
                .record_intervals(tele.intervals.into_iter().map(|s| IntervalRecord {
                    run,
                    id,
                    seq: s.seq,
                    start: s.start,
                    end: s.end,
                    gc: s.gc,
                    counters: s.counters,
                }));
            for (name, hist) in tele.hists {
                binding.log.record_hist(HistRecord {
                    run,
                    id,
                    name,
                    hist,
                });
            }
            binding
                .log
                .record_sample_units(tele.samples.into_iter().map(|mut r| {
                    r.run = run;
                    r.id = id;
                    r
                }));
            binding
                .log
                .record_events(tele.events.into_iter().map(|mut r| {
                    r.run = run;
                    r.id = id;
                    r
                }));
            binding
                .log
                .record_attribs(tele.attribs.into_iter().map(|mut r| {
                    r.run = run;
                    r.id = id;
                    r
                }));
        };
        if self.threads <= 1 || inputs.len() <= 1 {
            let mut slots: Vec<Option<O>> = inputs.iter().map(|_| None).collect();
            for (claim, &i) in order.iter().enumerate() {
                let started = Instant::now();
                let (out, tele) = job(&inputs[i]);
                emit(i, 0, claim, started.elapsed().as_secs_f64(), tele);
                slots[i] = Some(out);
            }
            return slots
                .into_iter()
                .map(|s| s.expect("order visits every input"))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(inputs.len());
        std::thread::scope(|s| {
            for worker in 0..workers {
                let emit = &emit;
                let job = &job;
                let next = &next;
                let slots = &slots;
                s.spawn(move || loop {
                    let claim = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = order.get(claim) else { break };
                    let started = Instant::now();
                    let (out, tele) = job(&inputs[i]);
                    emit(i, worker, claim, started.elapsed().as_secs_f64(), tele);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }

    /// Seeds this plan replicates over: the effort's seed count in full
    /// mode, a single seed in sampled mode — there the within-run
    /// stratified confidence interval replaces seed replication as the
    /// variability estimate, and dropping the replicas is where most of
    /// the sampled wall-clock win at a fixed effort comes from.
    pub(crate) fn seeds(&self) -> u64 {
        if self.mode.is_sampled() {
            1
        } else {
            self.effort.seeds()
        }
    }
}

/// Builds a SPECjbb machine: `warehouses` threads bound to `pset`
/// processors of a 16-way E6000.
pub fn jbb_machine(pset: usize, warehouses: usize, seed: u64, effort: Effort) -> Machine<SpecJbb> {
    let cfg = SpecJbbConfig::scaled(warehouses, effort.scale_divisor());
    jbb_machine_with(
        MachineConfig {
            seed,
            ..MachineConfig::e6000(pset)
        },
        cfg,
    )
}

/// Builds a SPECjbb machine from explicit machine and workload
/// configurations, placing the workload at [`WORKLOAD_BASE`].
pub fn jbb_machine_with(mc: MachineConfig, cfg: SpecJbbConfig) -> Machine<SpecJbb> {
    let region = AddrRange::new(Addr(WORKLOAD_BASE), cfg.required_bytes());
    Machine::new(mc, SpecJbb::new(cfg, region))
}

/// The scaled ECperf application server for `pset` processors: the
/// thread pool is tuned to the processor count (as the paper tunes per
/// configuration) and the database connections to the pool.
pub(crate) fn ecperf_config(pset: usize, scale_divisor: u64) -> EcperfConfig {
    let mut cfg = EcperfConfig::scaled(10, scale_divisor);
    cfg.threads = (pset * 6).clamp(12, 96);
    cfg.db_connections = (cfg.threads as u32 / 2).max(2);
    cfg
}

/// Builds an ECperf application-server machine from
/// `ecperf_config` on `pset` processors of a 16-way E6000.
pub fn ecperf_machine(pset: usize, seed: u64, effort: Effort) -> Machine<Ecperf> {
    let cfg = ecperf_config(pset, effort.scale_divisor());
    ecperf_machine_with(
        MachineConfig {
            seed,
            ..MachineConfig::e6000(pset)
        },
        cfg,
    )
}

/// Builds an ECperf machine from explicit machine and workload
/// configurations, placing the workload at [`WORKLOAD_BASE`].
pub fn ecperf_machine_with(mc: MachineConfig, cfg: EcperfConfig) -> Machine<Ecperf> {
    let region = AddrRange::new(Addr(WORKLOAD_BASE), cfg.required_bytes());
    Machine::new(mc, Ecperf::new(cfg, region))
}

/// Warm up, measure one window, and return the report.
pub fn measure<W: Workload>(machine: &mut Machine<W>, effort: Effort) -> WindowReport {
    machine.run_until(effort.warmup());
    machine.begin_measurement();
    let start = machine.time();
    machine.run_until(start + effort.window());
    machine.window_report()
}

/// [`measure`] under an explicit [`SimMode`]: in `Full` the report is
/// the machine's own; in `Sampled` the warm-up fast-forwards, only the
/// signature-picked units run in detail, and the report's timing fields
/// are the extrapolated estimates (the [`SampledRun`] rides along for
/// CIs and the unit schedule). The machine must be freshly built.
pub fn measure_in<W: Workload>(
    machine: &mut Machine<W>,
    effort: Effort,
    mode: &SimMode,
) -> (WindowReport, Option<SampledRun>) {
    match mode {
        SimMode::Full => (measure(machine, effort), None),
        SimMode::Sampled(cfg) => {
            let run = measure_sampled(machine, effort.warmup(), effort.window(), cfg);
            (run.to_window_report(), Some(run))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn effort_parse_inverts_name() {
        for e in [Effort::Quick, Effort::Standard, Effort::Full] {
            assert_eq!(Effort::parse(e.name()), Some(e));
        }
        assert_eq!(Effort::parse("Quick"), None);
        assert_eq!(Effort::parse("10"), None);
    }

    #[test]
    fn effort_levels_are_ordered() {
        assert!(Effort::Quick.window() < Effort::Standard.window());
        assert!(Effort::Standard.window() < Effort::Full.window());
        assert!(Effort::Quick.seeds() <= Effort::Full.seeds());
    }

    #[test]
    fn plan_preserves_input_order_at_any_thread_count() {
        let inputs: Vec<u64> = (0..64).collect();
        let serial = ExperimentPlan::serial(Effort::Quick).run(&inputs, |&x| x * x);
        for threads in [2, 4, 7] {
            let parallel = ExperimentPlan::serial(Effort::Quick)
                .with_threads(threads)
                .run(&inputs, |&x| x * x);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn plan_uses_multiple_workers() {
        let ids = Mutex::new(HashSet::new());
        let inputs: Vec<u64> = (0..16).collect();
        ExperimentPlan::serial(Effort::Quick)
            .with_threads(4)
            .run(&inputs, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        assert!(
            ids.lock().unwrap().len() >= 2,
            "expected at least two distinct worker threads"
        );
    }

    #[test]
    fn largest_first_order_sorts_by_cost_then_input_position() {
        assert_eq!(largest_first_order(&[3, 50, 1, 50, 2]), vec![1, 3, 0, 4, 2]);
        assert_eq!(largest_first_order(&[]), Vec::<usize>::new());
    }

    fn test_provenance() -> probes::Provenance {
        probes::Provenance {
            git_rev: "test".into(),
            hostname: "test".into(),
            cpu_count: 1,
            timestamp: 0,
            workers: None,
            effort: None,
            sim_mode: None,
        }
    }

    #[test]
    fn hinted_run_matches_plain_run_bit_for_bit() {
        let inputs: Vec<u64> = (0..32).collect();
        let plain = ExperimentPlan::serial(Effort::Quick).run(&inputs, |&x| (x as f64).sqrt());
        for threads in [1, 3, 5] {
            let hinted = ExperimentPlan::serial(Effort::Quick)
                .with_threads(threads)
                .run_telemetry(
                    &inputs,
                    |&x| x,
                    |&x| ((x as f64).sqrt(), JobTelemetry::default()),
                );
            let same = plain
                .iter()
                .zip(&hinted)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "hinted diverged at {threads} threads");
        }
    }

    #[test]
    fn hinted_claims_go_largest_first_at_any_worker_count() {
        let jobs: Vec<(usize, u64)> = [3u64, 50, 1, 40, 2].iter().copied().enumerate().collect();
        for threads in [1, 2, 4] {
            let log = Arc::new(RunLog::new());
            let out = ExperimentPlan::serial(Effort::Quick)
                .with_threads(threads)
                .with_run_log(Arc::clone(&log), "test")
                .run_telemetry(&jobs, |&(_, c)| c, |&(i, _)| (i, JobTelemetry::default()));
            // Outputs merge in input order regardless of claim order.
            assert_eq!(out, vec![0, 1, 2, 3, 4], "threads={threads}");
            // Claims went out largest-cost first: the runner stamps each
            // span's claim index at claim time.
            let mut spans = probes::report::check(&log.to_jsonl(&test_provenance()))
                .expect("runner emits schema-valid JSONL")
                .jobs;
            spans.sort_by_key(|j| j.claim);
            let claimed: Vec<u64> = spans.iter().map(|j| j.id).collect();
            assert_eq!(claimed, vec![1, 3, 0, 4, 2], "threads={threads}");
        }
    }

    #[test]
    fn attached_log_records_all_spans_without_changing_outputs() {
        let inputs: Vec<u64> = (0..12).collect();
        let bare = ExperimentPlan::serial(Effort::Quick)
            .with_threads(3)
            .run(&inputs, |&x| x * 3);

        let log = Arc::new(RunLog::new());
        let plan = ExperimentPlan::serial(Effort::Quick)
            .with_threads(3)
            .with_run_log(Arc::clone(&log), "test")
            .with_job_labels(inputs.iter().map(|x| format!("job-{x}")).collect());
        let logged = plan.run_telemetry(&inputs, |&x| x, |&x| (x * 3, JobTelemetry::default()));
        assert_eq!(bare, logged);
        assert_eq!(log.run_count(), 1);
        assert_eq!(log.span_count(), inputs.len());

        // Plain runs log spans too, without cost hints.
        let plain = plan.run(&inputs, |&x| x * 3);
        assert_eq!(bare, plain);
        assert_eq!(log.run_count(), 2);
        assert_eq!(log.span_count(), 2 * inputs.len());

        let parsed = probes::report::check(&log.to_jsonl(&test_provenance()))
            .expect("runner emits schema-valid JSONL");
        assert_eq!(parsed.jobs.len(), 2 * inputs.len());
        assert!(parsed
            .jobs
            .iter()
            .all(|j| j.cost_hint.is_some() == (j.run == 0)));
        assert_eq!(parsed.jobs[0].label.as_deref(), Some("job-11"));
    }

    #[test]
    fn run_telemetry_streams_intervals_and_hists_into_log() {
        struct Tick(u64);
        impl probes::registry::CounterSet for Tick {
            fn descriptors(&self) -> &'static [probes::registry::CounterDesc] {
                const D: &[probes::registry::CounterDesc] = &[probes::registry::CounterDesc::new(
                    "tick.n",
                    probes::registry::CounterKind::Count,
                )];
                D
            }
            fn values(&self, out: &mut Vec<u64>) {
                out.push(self.0);
            }
        }

        let job = |&x: &u64| {
            let mut hist = Histogram::new();
            hist.record(x + 1);
            let tele = JobTelemetry {
                counters: Some(Snapshot::of(&Tick(x))),
                intervals: vec![
                    crate::engine::IntervalSample {
                        seq: 0,
                        start: 0,
                        end: 100,
                        gc: false,
                        counters: Snapshot::of(&Tick(x)),
                    },
                    crate::engine::IntervalSample {
                        seq: 1,
                        start: 100,
                        end: 200,
                        gc: true,
                        counters: Snapshot::of(&Tick(x * 2)),
                    },
                ],
                hists: vec![("mem.latency".to_string(), hist)],
                samples: vec![SampleUnitRecord {
                    run: 0,
                    id: 0,
                    unit: 0,
                    cluster: 0,
                    start: 0,
                    end: 200,
                    detailed: true,
                    weight_ppm: 1_000_000,
                }],
                events: vec![probes::runlog::EventRecord {
                    run: 0,
                    id: 0,
                    name: "gc.pause".to_string(),
                    start: 100,
                    end: 160,
                }],
                attribs: vec![AttribRecord {
                    run: 0,
                    id: 0,
                    stack: "mutator;data_stall;memory;eden".to_string(),
                    cycles: x + 1,
                }],
            };
            (x * 7, tele)
        };

        let inputs: Vec<u64> = (0..6).collect();
        let bare = ExperimentPlan::serial(Effort::Quick).run(&inputs, |i| job(i).0);
        assert_eq!(bare, vec![0, 7, 14, 21, 28, 35]);

        for threads in [1, 3] {
            let log = Arc::new(RunLog::new());
            let logged = ExperimentPlan::serial(Effort::Quick)
                .with_threads(threads)
                .with_run_log(Arc::clone(&log), "test")
                .run_telemetry(&inputs, |&x| x, job);
            assert_eq!(bare, logged, "threads={threads}");
            assert_eq!(log.span_count(), inputs.len());
            assert_eq!(log.interval_count(), 2 * inputs.len());
            assert_eq!(log.hist_count(), inputs.len());

            let parsed = probes::report::check(&log.to_jsonl(&test_provenance()))
                .expect("telemetry JSONL passes --check");
            assert_eq!(parsed.intervals.len(), 2 * inputs.len());
            assert_eq!(parsed.hists.len(), inputs.len());
            // Event records were stamped with the real run/id.
            assert_eq!(parsed.events.len(), inputs.len());
            assert!(parsed
                .events
                .iter()
                .all(|e| e.name == "gc.pause" && e.id < inputs.len()));
            // Attribution records were stamped the same way.
            assert_eq!(parsed.attribs.len(), inputs.len());
            assert!(parsed
                .attribs
                .iter()
                .all(|a| a.stack.starts_with("mutator;") && a.id < inputs.len()));
        }
    }
}
