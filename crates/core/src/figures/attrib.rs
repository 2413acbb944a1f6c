//! Figure-7-style cycle-attribution breakdown per workload, with the
//! GC/mutator split the aggregate CPI stacks hide.
//!
//! Three jobs, each attributing every charged cycle to a
//! `phase;component;cause;region` stack through an [`AttribProfiler`]:
//!
//! - **SPECjbb** and **ECperf** run execution-driven with the profiler
//!   attached as an observer, so the fold sees exactly the stall
//!   charges the CPU timers made;
//! - **trace replay** captures a short SPECjbb window with a
//!   [`TraceObserver`], then re-attributes the capture offline —
//!   driving a fresh memory system and fresh timers from the recorded
//!   reference stream. Captures do not tag instruction batches with a
//!   source, so the replay fold is stall-only (no base rows); it
//!   demonstrates that attribution needs only a trace, not a live run.
//!
//! Each job's span carries its full counter snapshot plus the
//! `attrib.*` counters, and its folded stacks land in the run log as
//! `attrib` records — `simreport --attrib` / `--folded` render them,
//! and `--check` cross-validates the stack sums against the span's
//! `attrib.cycles`.

use simstats::Table;

use memsys::{AccessKind, MemorySystem, SystemTraceEvent};
use probes::registry::Snapshot;
use simcpu::{CpuTimer, StallCharge};
use workloads::model::Workload;

use crate::engine::{
    AccessEvent, AccessSource, AttribProfiler, Machine, MachineConfig, SimObserver, TraceObserver,
};
use crate::experiment::{
    ecperf_machine, jbb_machine, measure, Effort, ExperimentPlan, JobTelemetry,
};

/// The capture horizon for the trace-replay arm, in cycles. Fixed
/// rather than effort-scaled: a capture holds every reference in
/// memory, so the horizon is bounded to keep the trace a few million
/// events at any effort.
const CAPTURE_WARMUP: u64 = 2_000_000;
const CAPTURE_WINDOW: u64 = 5_000_000;

/// One workload's attribution fold.
#[derive(Debug, Clone)]
pub struct WorkloadAttrib {
    /// Display name.
    pub name: &'static str,
    /// `(stack, cycles)` rows, as the profiler folded them.
    pub folded: Vec<(String, u64)>,
    /// True for the trace-replay arm, whose fold carries no base
    /// ("other") rows — captures do not tag instruction batches.
    pub stall_only: bool,
}

impl WorkloadAttrib {
    fn sum_where(&self, keep: impl Fn(&[&str]) -> bool) -> u64 {
        self.folded
            .iter()
            .filter(|(s, _)| {
                let frames: Vec<&str> = s.split(';').collect();
                keep(&frames)
            })
            .map(|&(_, c)| c)
            .sum()
    }

    /// Total attributed cycles.
    pub(crate) fn total(&self) -> u64 {
        self.folded.iter().map(|&(_, c)| c).sum()
    }

    /// Cycles attributed to `phase`.
    pub(crate) fn phase_total(&self, phase: &str) -> u64 {
        self.sum_where(|f| f[0] == phase)
    }

    /// Cycles in one `phase;component` slice, optionally narrowed to a
    /// cause.
    pub(crate) fn slice(&self, phase: &str, component: &str, cause: Option<&str>) -> u64 {
        self.sum_where(|f| f[0] == phase && f[1] == component && cause.is_none_or(|c| f[2] == c))
    }

    /// Cycles with `cause` across all phases and components.
    pub(crate) fn cause_total(&self, cause: &str) -> u64 {
        self.sum_where(|f| f[2] == cause)
    }

    /// Data-stall cycles across all phases.
    pub(crate) fn data_stall_total(&self) -> u64 {
        self.sum_where(|f| f[1] == "data_stall")
    }
}

/// The attribution figure: one fold per workload arm.
#[derive(Debug, Clone)]
pub struct AttribFig {
    /// SPECjbb, ECperf, then the trace replay.
    pub workloads: Vec<WorkloadAttrib>,
}

/// Which arm a job runs.
#[derive(Debug, Clone, Copy)]
enum Arm {
    Jbb,
    Ecperf,
    Replay,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Jbb => "SPECjbb",
            Arm::Ecperf => "ECperf",
            Arm::Replay => "jbb-replay",
        }
    }
}

/// Runs all three arms as plan jobs: folds, span counters (machine
/// counters plus `attrib.*`) and `attrib` records all land through the
/// plan's run log.
pub fn run(plan: &ExperimentPlan, p: usize) -> AttribFig {
    let effort = plan.effort();
    let arms = [Arm::Jbb, Arm::Ecperf, Arm::Replay];
    let labels = arms
        .iter()
        .map(|a| format!("attrib:{}", a.name()))
        .collect();
    let folds = plan.clone().with_job_labels(labels).run_telemetry(
        &arms,
        |a| match a {
            Arm::Replay => (CAPTURE_WARMUP + CAPTURE_WINDOW) * 4,
            _ => effort.cost_hint(p),
        },
        |&a| match a {
            Arm::Jbb => profile_live(jbb_machine(p, 2 * p, 1, effort), effort),
            Arm::Ecperf => profile_live(ecperf_machine(p, 1, effort), effort),
            Arm::Replay => profile_replay(effort),
        },
    );
    AttribFig {
        workloads: arms
            .iter()
            .zip(folds)
            .map(|(a, folded)| WorkloadAttrib {
                name: a.name(),
                folded,
                stall_only: matches!(a, Arm::Replay),
            })
            .collect(),
    }
}

/// Measures one machine with an [`AttribProfiler`] attached and
/// packages the fold for the span.
fn profile_live<W: Workload>(
    mut m: Machine<W>,
    effort: Effort,
) -> (Vec<(String, u64)>, JobTelemetry) {
    // The machine builders all start from `MachineConfig::e6000`, so the
    // default pipeline's base CPI is the one the timers charge.
    let base_cpi = MachineConfig::e6000(1).pipeline.base_cpi;
    let handle = m.attach_observer(AttribProfiler::new(m.workload().region_map(), base_cpi));
    measure(&mut m, effort);
    let prof = m.observer(handle);
    let folded = prof.folded();
    let mut counters = m.counters();
    counters.record(prof);
    let tele = JobTelemetry::counters(Some(counters)).with_attribs(prof.to_records(0, 0));
    (folded, tele)
}

/// Captures a short SPECjbb window and re-attributes it offline from
/// the trace alone.
fn profile_replay(effort: Effort) -> (Vec<(String, u64)>, JobTelemetry) {
    let cfg = MachineConfig::e6000(2);
    let mut m = jbb_machine(2, 4, 1, effort);
    let regions = m.workload().region_map();
    let handle = m.attach_observer(TraceObserver::new());
    m.run_until(CAPTURE_WARMUP);
    m.begin_measurement();
    let start = m.time();
    m.run_until(start + CAPTURE_WINDOW);
    let trace = m.observer(handle).trace().clone();
    drop(m);

    // Offline re-attribution: a fresh memory system and fresh timers,
    // driven by the recorded global reference order. Per-CPU reference
    // streams match the live run's, so the timers' stall charges do
    // too. Kernel ticks bypass the timers exactly as they do live.
    let mut sys = MemorySystem::new(cfg.hierarchy);
    let mut timers: Vec<CpuTimer> = (0..trace.cpus().max(1))
        .map(|_| CpuTimer::new(cfg.pipeline, cfg.latency))
        .collect();
    let mut prof = AttribProfiler::new(regions, cfg.pipeline.base_cpi);
    for ev in trace.events() {
        match *ev {
            SystemTraceEvent::Instructions { cpu, n } => {
                // Retirement keeps the store-buffer drain clock honest;
                // the fold stays stall-only because captures carry no
                // per-batch source tag.
                timers[cpu as usize].retire(n);
            }
            SystemTraceEvent::Ref {
                cpu,
                source,
                kind,
                addr,
            } => {
                let c = cpu as usize;
                let outcome = sys.access(c, kind, addr);
                let charge = if matches!(source, AccessSource::KernelTick) {
                    StallCharge::default()
                } else {
                    match kind {
                        AccessKind::Ifetch => timers[c].ifetch(&outcome),
                        AccessKind::Load => timers[c].load(&outcome),
                        AccessKind::Store => timers[c].store(&outcome),
                    }
                };
                prof.on_access(&AccessEvent {
                    cpu: c,
                    kind,
                    addr,
                    outcome: &outcome,
                    now: timers[c].cycles(),
                    source,
                    charge,
                });
            }
            SystemTraceEvent::WindowReset => {
                sys.reset_stats();
                for t in &mut timers {
                    t.reset();
                }
                prof.on_window_reset(0);
            }
        }
    }
    let folded = prof.folded();
    let tele =
        JobTelemetry::counters(Some(Snapshot::of(&prof))).with_attribs(prof.to_records(0, 0));
    (folded, tele)
}

impl AttribFig {
    /// Renders one row per non-empty `(workload, phase)`: total cycles
    /// and each slice's share of the phase.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Cycle attribution: phase x component x cause CPI stacks (share of phase cycles)",
            &[
                "workload", "phase", "cycles", "base", "instr", "d.l2hit", "d.c2c", "d.mem",
                "d.sb", "d.raw",
            ],
        );
        for w in &self.workloads {
            for phase in ["mutator", "gc", "kernel"] {
                let total = w.phase_total(phase);
                if total == 0 {
                    continue;
                }
                let share = |c: u64| format!("{:.3}", c as f64 / total as f64);
                t.row(&[
                    w.name.to_string(),
                    phase.to_string(),
                    total.to_string(),
                    share(w.slice(phase, "other", None)),
                    share(w.slice(phase, "instr_stall", None)),
                    share(w.slice(phase, "data_stall", Some("l2_hit"))),
                    share(w.slice(phase, "data_stall", Some("c2c"))),
                    share(w.slice(phase, "data_stall", Some("memory"))),
                    share(w.slice(phase, "data_stall", Some("store_buffer"))),
                    share(w.slice(phase, "data_stall", Some("raw_hazard"))),
                ]);
            }
        }
        t
    }

    /// Checks the paper's qualitative claims against the fold:
    /// data-stall time dominated by L2 misses (memory + cache-to-cache),
    /// store-buffer stalls a minor slice of execution time, and a
    /// visible GC/mutator split.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for w in &self.workloads {
            let data = w.data_stall_total();
            if data == 0 {
                v.push(format!("{}: no data-stall cycles attributed", w.name));
                continue;
            }
            let l2_miss = w.cause_total("memory") + w.cause_total("c2c");
            if (l2_miss as f64) < 0.35 * data as f64 {
                v.push(format!(
                    "{}: memory+c2c share of data stall too small: {:.2}",
                    w.name,
                    l2_miss as f64 / data as f64
                ));
            }
            let sb = w.cause_total("store_buffer") as f64;
            if w.stall_only {
                // No base rows: bound the slice against data stall, as
                // Figure 7 does.
                if sb > 0.15 * data as f64 {
                    v.push(format!(
                        "{}: store-buffer share of data stall too large: {:.2}",
                        w.name,
                        sb / data as f64
                    ));
                }
            } else {
                let total = w.total() as f64;
                if sb > 0.02 * total {
                    v.push(format!(
                        "{}: store-buffer stalls are {:.1}% of execution time (paper: 1-2%)",
                        w.name,
                        100.0 * sb / total
                    ));
                }
            }
            if w.phase_total("mutator") == 0 {
                v.push(format!("{}: no mutator cycles attributed", w.name));
            }
            if !w.stall_only && w.phase_total("gc") == 0 {
                v.push(format!(
                    "{}: no gc cycles attributed — GC/mutator split missing",
                    w.name
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig(folded: Vec<(&str, u64)>, stall_only: bool) -> AttribFig {
        AttribFig {
            workloads: vec![WorkloadAttrib {
                name: "synthetic",
                folded: folded
                    .into_iter()
                    .map(|(s, c)| (s.to_string(), c))
                    .collect(),
                stall_only,
            }],
        }
    }

    #[test]
    fn healthy_fold_has_no_violations() {
        let f = fig(
            vec![
                ("mutator;other;base;all", 5000),
                ("mutator;data_stall;memory;eden", 900),
                ("mutator;data_stall;c2c;old_gen", 400),
                ("mutator;data_stall;l2_hit;old_gen", 500),
                ("mutator;data_stall;store_buffer;eden", 80),
                ("gc;other;base;all", 600),
                ("gc;data_stall;memory;old_gen", 200),
            ],
            false,
        );
        assert!(
            f.shape_violations().is_empty(),
            "{:?}",
            f.shape_violations()
        );
        let w = &f.workloads[0];
        assert_eq!(w.total(), 7680);
        assert_eq!(w.phase_total("gc"), 800);
        assert_eq!(w.slice("mutator", "data_stall", Some("c2c")), 400);
        assert_eq!(w.cause_total("memory"), 1100);
        let t = f.table().to_string();
        assert!(t.contains("mutator") && t.contains("gc"));
    }

    #[test]
    fn degenerate_folds_are_flagged() {
        // All data stall in the store buffer, no GC phase at all.
        let f = fig(
            vec![
                ("mutator;other;base;all", 1000),
                ("mutator;data_stall;store_buffer;eden", 900),
            ],
            false,
        );
        let v = f.shape_violations();
        assert!(v.iter().any(|m| m.contains("memory+c2c")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("store-buffer")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("GC/mutator")), "{v:?}");

        let empty = fig(vec![("mutator;other;base;all", 1000)], false);
        assert!(empty
            .shape_violations()
            .iter()
            .any(|m| m.contains("no data-stall")));
    }

    #[test]
    fn replay_reattributes_a_short_capture() {
        let (folded, tele) = profile_replay(Effort::Quick);
        assert!(!folded.is_empty(), "replay attributed nothing");
        // Stall-only: captures carry no instruction source, so no base
        // rows appear.
        assert!(folded.iter().all(|(s, _)| !s.contains(";other;base;")));
        // The span counter matches the records the job will emit — the
        // invariant `simreport --check` enforces.
        let recorded: u64 = tele.attribs.iter().map(|r| r.cycles).sum();
        let declared = tele
            .counters
            .as_ref()
            .and_then(|c| c.get("attrib.cycles"))
            .unwrap();
        assert_eq!(recorded, declared);
        // Mutator data stalls classified into heap regions, not just
        // "other".
        assert!(folded
            .iter()
            .any(|(s, _)| s.starts_with("mutator;data_stall;") && !s.ends_with(";other")));
    }
}
