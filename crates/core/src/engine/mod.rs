//! The layered simulation engine.
//!
//! The machine is split into four units behind narrow interfaces:
//!
//! - [`kernel`] — the discrete-event loop: [`Machine`] owns the memory
//!   system, CPU timers and workload, advances virtual time, and wires
//!   each step's references through the sink;
//! - [`dispatch`] — the scheduler: ready queue, affinity, quantum
//!   preemption, locks, sleeps;
//! - [`gc_driver`] — stop-the-world collection choreography and GC
//!   bookkeeping;
//! - [`accounting`] — per-processor clocks, execution-mode accounting and
//!   window-scoped counters;
//! - [`observer`] — the [`SimObserver`] seam through which interval
//!   samplers, cache sweeps and per-line statistics watch a run;
//! - [`attrib`] — the cycle-attribution profiler on that seam:
//!   phase × component × cause × heap-region CPI stacks, exported as
//!   RunLog `attrib` records and folded flamegraph stacks;
//! - [`trace`] — reference-trace capture as an observer on that same
//!   seam, and replay of captures as ordinary experiment-plan jobs;
//! - [`sampling`] — the sampled-simulation spine: signature-picked
//!   sample units, functional fast-forward with cache warming, and
//!   CI-bounded extrapolation of per-unit measurements.
//!
//! The kernel is the only unit that touches the memory system; the
//! scheduler and GC driver manipulate time exclusively through
//! [`accounting::Accounting`], which is what keeps mode fractions summing
//! to one (Figure 5) regardless of how control moves between layers.

pub mod accounting;
pub mod attrib;
pub mod dispatch;
pub mod gc_driver;
pub mod kernel;
pub mod observer;
pub mod probe;
pub mod sampling;
pub mod trace;

pub use accounting::{Accounting, WindowReport};
pub use attrib::AttribProfiler;
pub use dispatch::Scheduler;
pub use gc_driver::GcDriver;
pub use kernel::{Machine, MachineConfig};
pub use observer::{
    AccessEvent, AccessSource, IntervalSample, IntervalSampler, LineStatsObserver, ObserverHandle,
    ObserverSet, SimObserver, SweepObserver, TimelineCollector,
};
pub use sampling::{measure_sampled, SampledRun, SamplingConfig, UnitMeasurement, UnitRecord};
pub use trace::{replay_trace, replay_traces, ReplayReport, TraceObserver};
