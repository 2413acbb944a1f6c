//! `hostbench` — what the simulator costs in host time.
//!
//! Two figure-shaped workloads run as single-threaded closed loops (the
//! next run starts when the previous one ends) for a fixed number of
//! seconds:
//!
//! - `jbb8_fig10`: SPECjbb in the Figure-10 shape, full detail, with the
//!   interval sampler and timeline attached, ending in its RunLog;
//! - `ecperf8_sampled`: ECperf on 8 processors through the sampled
//!   spine (functional fast-forward plus signature-picked units).
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a
//! traced run (`--trace 1`) times calls into each layer from this
//! crate's own files and reports the per-layer split. The traced run of
//! `jbb8_fig10` also runs the sweep batch once: SPECjbb and ECperf at
//! pset {1,2,4,8} as one `ExperimentPlan` batch on 2 workers, banked
//! DRAM, an attribution profiler per job, ending in `RunLog::write_to` +
//! `report::check`. Every run gates correctness: counter digests, shape
//! checks and RunLog schema checks.

pub mod gate;
pub mod layers;
pub mod output;
pub mod stats;
pub mod workload;

pub use workload::{Scale, Workload};

/// The seed whose counter digests are pinned in [`gate::PINNED`].
pub const DEFAULT_SEED: u64 = 1;

/// The effort preset every workload is sized at (window lengths and
/// heap divisors of `Effort::Quick`).
pub const EFFORT: middlesim::Effort = middlesim::Effort::Quick;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("engine.self_s", "s"),
    ("engine.slices", "count"),
    ("engine.slice_ms_p50", "ms"),
    ("engine.slice_ms_p99", "ms"),
    ("workloads.transactions", "count"),
    ("jvm.gc_count", "count"),
    ("jvm.gc_cycle_share", "ratio"),
    ("memsys.refs", "count"),
    ("memsys.replay_s", "s"),
    ("memsys.mrefs_per_s", "Mref/s"),
    ("memsys.batch_replay_s", "s"),
    ("memsys.unfiltered_replay_s", "s"),
    ("memsys.mru_gain", "ratio"),
    ("memsys.l2_miss_ratio", "ratio"),
    ("memsys.c2c_ratio", "ratio"),
    ("memsys.snoop_filter_rate", "ratio"),
    ("dram.reads", "count"),
    ("dram.writebacks", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.queue_stalls", "count"),
    ("simcpu.timer_s", "s"),
    ("observers.interval_s", "s"),
    ("observers.attrib_s", "s"),
    ("observers.capture_s", "s"),
    ("sampling.full_s", "s"),
    ("sampling.speedup", "ratio"),
    ("sampling.detailed_fraction", "ratio"),
    ("sampling.units", "count"),
    ("sampling.err_pct", "%"),
    ("plan.jobs", "count"),
    ("plan.job_s_sum", "s"),
    ("plan.efficiency", "ratio"),
    ("plan.tail_s", "s"),
    ("probes.runlog_bytes", "bytes"),
    ("probes.write_s", "s"),
    ("probes.check_s", "s"),
    ("setup.machine_new_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
];
