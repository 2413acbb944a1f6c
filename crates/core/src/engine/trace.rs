//! Trace capture as an observer; trace replay as a plan job.
//!
//! This is the engine half of the paper's Simics → Sumo pipeline: a
//! [`TraceObserver`] attached via `Machine::attach_observer` records the
//! machine's whole reference stream — per-CPU, tagged with each
//! reference's [`AccessSource`], window boundaries in-stream — and
//! [`replay_trace`] plays a capture back through a fresh
//! [`MemorySystem`], reproducing the live run's measurement-window
//! statistics exactly. Batches of captures go through the
//! [`ExperimentPlan`] like any other job
//! ([`replay_traces`]), so trace-driven and execution-driven experiments
//! share one spine.
//!
//! The paper's Section 3.3 filter (multiprocessor ECperf traces reduced
//! to the application-server processors) is an observer predicate: build
//! the observer with [`TraceObserver::filtered`] — or capture everything
//! and filter at replay time with
//! [`SystemTrace::filtered`](memsys::SystemTrace::filtered).

use memsys::{BusStats, HierarchyConfig, MemorySystem, SystemStats, SystemTrace};

use super::observer::{AccessEvent, AccessSource, SimObserver};
use crate::experiment::{ExperimentPlan, JobTelemetry};

/// Records everything the machine's memory system consumes, in coherence
/// order, as a [`SystemTrace`].
///
/// Unlike the statistics observers, a window reset does not discard the
/// warm-up prefix: the boundary is recorded *in-stream* so a replay can
/// re-warm a cold system identically and reset its counters at the same
/// point.
#[derive(Default)]
pub struct TraceObserver {
    trace: SystemTrace,
    keep: Option<Box<dyn Fn(usize, AccessSource) -> bool + Send>>,
}

impl TraceObserver {
    /// Captures every reference from every processor and source.
    pub fn new() -> Self {
        TraceObserver::default()
    }

    /// Captures only steps `keep(cpu, source)` accepts — the paper's
    /// filter-to-one-tier step applied at capture time.
    pub fn filtered(keep: impl Fn(usize, AccessSource) -> bool + Send + 'static) -> Self {
        TraceObserver {
            trace: SystemTrace::new(),
            keep: Some(Box::new(keep)),
        }
    }

    /// The capture so far.
    pub fn trace(&self) -> &SystemTrace {
        &self.trace
    }

    /// Consumes the observer, returning the capture.
    pub fn into_trace(self) -> SystemTrace {
        self.trace
    }

    fn keeps(&self, cpu: usize, source: AccessSource) -> bool {
        self.keep.as_ref().is_none_or(|k| k(cpu, source))
    }
}

impl SimObserver for TraceObserver {
    fn on_access(&mut self, event: &AccessEvent<'_>) {
        if self.keeps(event.cpu, event.source) {
            self.trace
                .record_ref(event.cpu, event.source, event.kind, event.addr);
        }
    }

    fn on_instructions(&mut self, cpu: usize, n: u64, source: AccessSource) {
        if self.keeps(cpu, source) {
            self.trace.record_instructions(cpu, n);
        }
    }

    fn on_window_reset(&mut self, _now: u64) {
        self.trace.record_window_reset();
    }
}

/// What a replay measured: the memory-system statistics over the
/// capture's measurement window, plus the instruction denominator for
/// per-1000-instruction rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Memory-system statistics after the replay (reset at the capture's
    /// recorded window boundary, so they cover the same window).
    pub stats: SystemStats,
    /// Bus transaction counters over the same window, including the
    /// snoop-filter diagnostics (`snoops_sent` / `snoops_filtered`).
    pub bus: BusStats,
    /// Instructions retired inside the window.
    pub instructions: u64,
}

impl ReplayReport {
    /// Data misses per 1000 instructions over the replayed window.
    pub fn data_miss_per_kilo(&self) -> f64 {
        self.stats.data().l2_misses as f64 * 1000.0 / self.instructions.max(1) as f64
    }
}

/// Replays a capture into a fresh memory system of the given
/// configuration and reports what it measured.
///
/// # Panics
///
/// Panics if the trace references a processor `hierarchy` lacks.
pub fn replay_trace(trace: &SystemTrace, hierarchy: &HierarchyConfig) -> ReplayReport {
    let mut sys = MemorySystem::new(*hierarchy);
    trace.replay_into(&mut sys);
    ReplayReport {
        stats: sys.stats().clone(),
        bus: *sys.bus_stats(),
        instructions: trace.window_instructions(),
    }
}

/// Replays a batch of captures across the plan's worker pool — trace
/// jobs are plan jobs like any other; reports merge in input order.
/// Cost hints are the traces' event counts, so mixed batches schedule
/// largest-first.
pub fn replay_traces(
    plan: &ExperimentPlan,
    traces: &[SystemTrace],
    hierarchy: &HierarchyConfig,
) -> Vec<ReplayReport> {
    plan.run_telemetry(
        traces,
        |t| t.len() as u64,
        |t| (replay_trace(t, hierarchy), JobTelemetry::default()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{AccessKind, AccessOutcome, Addr, HitLevel};

    fn event(cpu: usize, source: AccessSource, outcome: &AccessOutcome) -> AccessEvent<'_> {
        AccessEvent {
            cpu,
            kind: AccessKind::Load,
            addr: Addr(0x40),
            outcome,
            now: 0,
            source,
            charge: simcpu::StallCharge::default(),
        }
    }

    #[test]
    fn observer_records_and_tags() {
        let hit = AccessOutcome {
            level: HitLevel::L1,
            c2c: false,
            writeback: false,
            mem_cycles: None,
        };
        let mut obs = TraceObserver::new();
        obs.on_instructions(0, 12, AccessSource::Workload);
        obs.on_access(&event(0, AccessSource::Workload, &hit));
        obs.on_window_reset(0);
        obs.on_access(&event(1, AccessSource::KernelTick, &hit));
        let t = obs.into_trace();
        assert_eq!(t.refs(), 2);
        assert_eq!(t.instructions(), 12);
        assert_eq!(t.window_instructions(), 0);
        assert_eq!(t.filtered(|_, s| s == AccessSource::KernelTick).refs(), 1);
    }

    #[test]
    fn filtered_observer_drops_at_capture() {
        let hit = AccessOutcome {
            level: HitLevel::L1,
            c2c: false,
            writeback: false,
            mem_cycles: None,
        };
        let mut obs =
            TraceObserver::filtered(|cpu, source| cpu < 2 && source != AccessSource::KernelTick);
        obs.on_access(&event(0, AccessSource::Workload, &hit));
        obs.on_access(&event(1, AccessSource::KernelTick, &hit));
        obs.on_access(&event(5, AccessSource::Workload, &hit));
        obs.on_instructions(5, 100, AccessSource::Workload);
        let t = obs.into_trace();
        assert_eq!(t.refs(), 1);
        assert_eq!(t.instructions(), 0);
    }

    #[test]
    fn replayed_batch_merges_in_input_order() {
        let hierarchy = HierarchyConfig::e6000(2).unwrap();
        let mut a = SystemTrace::new();
        a.record_ref(0, AccessSource::Workload, AccessKind::Store, Addr(0x80));
        let mut b = SystemTrace::new();
        b.record_ref(0, AccessSource::Workload, AccessKind::Load, Addr(0x80));
        b.record_ref(1, AccessSource::Workload, AccessKind::Load, Addr(0x80));
        let plan = ExperimentPlan::serial(crate::Effort::Quick).with_threads(2);
        let reports = replay_traces(&plan, &[a, b], &hierarchy);
        assert_eq!(reports[0].stats.store.accesses, 1);
        assert_eq!(reports[1].stats.load.accesses, 2);
    }
}
