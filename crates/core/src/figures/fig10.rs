//! Figure 10: cache-to-cache transfers per processor per second over time.
//!
//! The paper's surprise result: contrary to the authors' hypothesis that
//! garbage collection caused the high cache-to-cache transfer rates, the
//! snoop-copyback rate *collapses to nearly zero during collections* (the
//! three GC windows in their 30-second SPECjbb trace). The mechanism: the
//! mutators' dirty lines have long been written back by collection time
//! (eden is far larger than the caches), so the single collector thread
//! reads from memory, and the idle mutators issue no requests at all.
//!
//! The time series comes from the generic [`IntervalSampler`]: the
//! `bus.snoop_cb` counter delta of each sampled interval *is* the
//! figure's y-axis, normalized per million cycles since a GC pause can
//! stretch an interval past its nominal width.

use memsys::MemoryConfig;
use probes::runlog::{EventRecord, IntervalRecord};
use simstats::Table;
use workloads::specjbb::{SpecJbb, SpecJbbConfig};

use crate::engine::{IntervalSample, IntervalSampler, Machine, MachineConfig, TimelineCollector};
use crate::experiment::{jbb_machine_with, ExperimentPlan, JobTelemetry};
use crate::Effort;

/// The counter whose interval deltas form the series.
const C2C_COUNTER: &str = "bus.snoop_cb";

/// Nominal sampling interval for this figure. The collapse is only
/// visible when a collection spans whole intervals, so these are finer
/// than the scaled collections.
const BUCKET_CYCLES: u64 = 2_000_000;

/// Heap scale for this figure. The mechanism behind the collapse is that
/// eden dwarfs the caches (320 MB vs 1 MB in the paper), so the mutators'
/// dirty lines are long written back when the collector reads them; the
/// heap here is scaled far more gently than in the throughput sweeps to
/// preserve that ratio.
const SCALE_DIVISOR: u64 = 8;

/// The Figure 10 result: the sampled time series.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Per-interval counter deltas and GC overlap, in time order.
    pub intervals: Vec<IntervalSample>,
    /// Nominal interval width in cycles (a GC pause can stretch an
    /// individual interval past this; rates normalize by actual width).
    pub interval_cycles: u64,
    /// Number of collections in the trace.
    pub gc_count: u64,
    /// Detailed unit spans, set only by callers that build a `Fig10`
    /// from a sampled run (empty otherwise): counter deltas inside these
    /// spans are exact, while fast spans only see the functional-warming
    /// subsample of references.
    pub detailed_spans: Vec<(u64, u64)>,
    /// The warming subsample factor of such a sampled run (1 otherwise):
    /// rates outside `detailed_spans` are multiplied by this to undo the
    /// subsample.
    pub warm_factor: u64,
    /// Run-observatory timeline events (GC pauses, window resets,
    /// sample-unit strata, DRAM stall episodes) with placeholder
    /// `run`/`id`, restamped by [`Fig10::event_records`].
    pub events: Vec<EventRecord>,
}

/// Runs the experiment as one job on `plan`: one SPECjbb run on `pset`
/// processors, sampled until at least three collections (or a generous
/// horizon) have happened.
///
/// `memory` picks the backend. Against the banked-DRAM backend each
/// interval's counter tree also carries `dram.queue_occupancy` and
/// `dram.queue_stalls`, so `simreport --simstat` renders DRAM pressure
/// over time next to the c2c series.
///
/// The job's span is labelled `fig10` (`fig10dram` off the flat
/// backend) and carries the interval series and the timeline events.
pub fn run(plan: &ExperimentPlan, pset: usize, memory: MemoryConfig) -> Fig10 {
    let effort = plan.effort();
    let label = match memory {
        MemoryConfig::Flat => "fig10",
        _ => "fig10dram",
    };
    plan.clone()
        .with_job_labels(vec![label.to_string()])
        .run_telemetry(
            &[memory],
            |_| effort.cost_hint(pset),
            |&memory| {
                let f = trace(effort, pset, memory);
                let tele = JobTelemetry {
                    intervals: f.intervals.clone(),
                    events: f.events.clone(),
                    ..JobTelemetry::default()
                };
                (f, tele)
            },
        )
        .pop()
        .expect("one job, one trace")
}

fn trace(effort: Effort, pset: usize, memory: MemoryConfig) -> Fig10 {
    let mut mc = MachineConfig::e6000(pset);
    mc.hierarchy.memory = memory;
    let mut m = jbb_machine_with(mc, SpecJbbConfig::scaled(2 * pset, SCALE_DIVISOR));
    let sampler = m.attach_observer(IntervalSampler::new(BUCKET_CYCLES));
    let timeline = m.attach_observer(TimelineCollector::new());
    m.run_until(effort.warmup());
    m.begin_measurement();
    let start = m.time();
    // Run long enough to capture several collections.
    let horizon = start + effort.window() * 12;
    let mut next = start;
    while m.gc_count() < 3 && next < horizon {
        next += effort.window();
        m.run_until(next);
    }
    let mut events = m.observer(timeline).to_records(0, 0);
    events.extend(dram_stall_events(&mut m));
    Fig10 {
        intervals: m.observer(sampler).samples().to_vec(),
        interval_cycles: BUCKET_CYCLES,
        gc_count: m.gc_count(),
        detailed_spans: Vec::new(),
        warm_factor: 1,
        events,
    }
}

/// Drains the machine's DRAM queue-stall episodes as `dram.stall`
/// timeline spans (empty with the flat backend).
fn dram_stall_events(m: &mut Machine<SpecJbb>) -> Vec<EventRecord> {
    m.take_dram_stall_episodes()
        .into_iter()
        .map(|(start, end)| EventRecord {
            run: 0,
            id: 0,
            name: "dram.stall".into(),
            start,
            end,
        })
        .collect()
}

impl Fig10 {
    /// One interval's snoop-copyback rate per million cycles. In a
    /// trace built from a sampled run, intervals outside the detailed
    /// unit spans only saw the warming subsample of references, so their
    /// raw rate is multiplied back up by `warm_factor` (intervals
    /// straddling a span boundary are treated as fast — a bounded
    /// overestimate).
    fn c2c_rate(&self, s: &IntervalSample) -> f64 {
        let exact = self.warm_factor == 1
            || self
                .detailed_spans
                .iter()
                .any(|&(a, b)| a <= s.start && s.end <= b);
        let factor = if exact { 1.0 } else { self.warm_factor as f64 };
        s.rate_per_mcycle(C2C_COUNTER) * factor
    }

    fn mean(xs: impl Iterator<Item = f64>) -> f64 {
        let (sum, n) = xs.fold((0.0, 0u64), |(s, n), x| (s + x, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean transfer rate (per Mcycle) outside GC windows, over the
    /// intervals that saw any traffic.
    pub fn rate_outside_gc(&self) -> f64 {
        Self::mean(
            self.intervals
                .iter()
                .filter(|s| !s.gc && s.counters.get(C2C_COUNTER).unwrap_or(0) > 0)
                .map(|s| self.c2c_rate(s)),
        )
    }

    /// Mean transfer rate (per Mcycle) inside GC windows.
    pub fn rate_during_gc(&self) -> f64 {
        Self::mean(
            self.intervals
                .iter()
                .filter(|s| s.gc)
                .map(|s| self.c2c_rate(s)),
        )
    }

    /// Renders the normalized series the paper plots.
    pub fn table(&self) -> Table {
        let max = self
            .intervals
            .iter()
            .map(|s| self.c2c_rate(s))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let mut t = Table::new(
            "Figure 10: Cache-to-Cache Transfers Over Time (normalized; 100 ms intervals)",
            &["interval", "c2c (norm)", "gc"],
        );
        for s in &self.intervals {
            t.row(&[
                s.seq.to_string(),
                format!("{:.3}", self.c2c_rate(s) / max),
                if s.gc { "GC".into() } else { String::new() },
            ]);
        }
        t
    }

    /// The series as RunLog `interval` records for job `(run, id)` —
    /// what `figures` streams into `RUNLOG_figures.jsonl`.
    pub fn records(&self, run: usize, id: usize) -> Vec<IntervalRecord> {
        self.intervals
            .iter()
            .map(|s| IntervalRecord {
                run,
                id,
                seq: s.seq,
                start: s.start,
                end: s.end,
                gc: s.gc,
                counters: s.counters.clone(),
            })
            .collect()
    }

    /// The timeline events as RunLog `event` records for job
    /// `(run, id)`.
    pub fn event_records(&self, run: usize, id: usize) -> Vec<EventRecord> {
        self.events
            .iter()
            .map(|e| EventRecord {
                run,
                id,
                ..e.clone()
            })
            .collect()
    }

    /// Checks the paper's qualitative claim: the transfer rate drops
    /// dramatically during collection.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.gc_count == 0 {
            v.push("no collections in the trace".to_string());
            return v;
        }
        let outside = self.rate_outside_gc();
        let during = self.rate_during_gc();
        if outside <= 0.0 {
            v.push("no cache-to-cache traffic outside GC".to_string());
        } else if during > outside * 0.5 {
            v.push(format!(
                "c2c rate must collapse during GC: outside {outside:.1}/Mcycle, during {during:.1}"
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probes::runlog::write_object;
    use probes::{Provenance, RunLog};
    use std::sync::Arc;

    #[test]
    fn quick_trace_shows_gc_collapse() {
        // 8 processors, as in the figure run: with fewer processors the
        // mutators' dirty share of the scaled eden is proportionally
        // larger and the collapse is muted.
        let log = Arc::new(RunLog::new());
        let plan = ExperimentPlan::serial(Effort::Quick).with_run_log(Arc::clone(&log), "test");
        let f = run(&plan, 8, MemoryConfig::Flat);
        assert!(f.gc_count > 0, "trace must include a collection");
        assert!(
            f.rate_during_gc() < f.rate_outside_gc(),
            "during={} outside={}",
            f.rate_during_gc(),
            f.rate_outside_gc()
        );
        assert!(f.intervals.iter().any(|s| s.gc), "a GC interval is flagged");
        assert!(f.table().to_string().contains("Figure 10"));
        let recs = f.records(0, 0);
        assert_eq!(recs.len(), f.intervals.len());
        assert!(recs.iter().enumerate().all(|(i, r)| r.seq == i));
        // The timeline saw the same collections the intervals flag.
        let evs = f.event_records(1, 2);
        assert!(evs.iter().all(|e| (e.run, e.id) == (1, 2)));
        assert_eq!(
            evs.iter().filter(|e| e.name == "gc.pause").count() as u64,
            f.gc_count
        );
        assert_eq!(
            evs.iter().filter(|e| e.name == "window.reset").count(),
            1,
            "one measurement window"
        );

        // The plan's RunLog holds one run with one counter-free `fig10`
        // span, and its interval and event records are the figure's own.
        let parsed = probes::report::check(&log.to_jsonl(&Provenance::default()))
            .expect("fig10 RunLog passes the schema check");
        assert_eq!(parsed.runs.len(), 1);
        assert_eq!(parsed.jobs.len(), 1);
        assert_eq!(parsed.jobs[0].label.as_deref(), Some("fig10"));
        assert!(parsed.jobs[0].counters.is_none());
        let want: Vec<String> = recs
            .into_iter()
            .map(|mut r| write_object(&mut r, None))
            .collect();
        let got: Vec<String> = parsed
            .intervals
            .into_iter()
            .map(|mut r| write_object(&mut r, None))
            .collect();
        assert_eq!(got, want);
        let mut want_events = f.event_records(0, 0);
        want_events.sort_by(|a, b| (a.start, a.end, &a.name).cmp(&(b.start, b.end, &b.name)));
        assert_eq!(parsed.events, want_events);
    }
}
