//! # middlesim — the characterization harness
//!
//! Reproduces every measured figure (4–16) of *"Memory System Behavior of
//! Java-Based Middleware"* (Karlsson, Moore, Hagersten, Wood — HPCA 2003)
//! by running the [`workloads`] models on a simulated E6000-class machine.
//!
//! - [`engine`] — the layered simulation engine: the discrete-event
//!   kernel, the scheduler, GC orchestration, mode accounting, and the
//!   [`engine::SimObserver`] seam through which interval samplers, cache
//!   sweeps and per-line statistics watch a run;
//! - [`experiment`] — warm-up / measurement-window orchestration and
//!   the [`ExperimentPlan`] worker pool that fans seeds × configurations
//!   over cores with bit-identical serial/parallel results (the
//!   multi-seed variability methodology is `plan.seeds()` over
//!   `plan.run`);
//! - [`figures`] — one experiment per paper figure, each returning typed
//!   series and rendering the same rows the figure plots.

pub mod cluster;
pub mod engine;
pub mod experiment;
pub mod figures;
pub mod score;

pub use cluster::{run_cluster, ClusterReport};
pub use engine::{
    measure_sampled, replay_trace, replay_traces, AccessSource, AttribProfiler, IntervalSample,
    IntervalSampler, LineStatsObserver, Machine, MachineConfig, ObserverHandle, ReplayReport,
    SampledRun, SamplingConfig, SimMode, SimObserver, SweepObserver, TimelineCollector,
    TraceObserver, WindowReport,
};
pub use experiment::{
    ecperf_machine, ecperf_machine_with, jbb_machine, jbb_machine_with, largest_first_order,
    measure, measure_in, Effort, ExperimentPlan, JobTelemetry,
};
pub use score::{official_run, JbbScore, RampPoint, RAMP_TOLERANCE};
