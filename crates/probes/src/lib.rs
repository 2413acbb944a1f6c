//! # probes — cpustat/mpstat-grade telemetry for the simulator
//!
//! The paper's contribution *is* its instrumentation: UltraSPARC II
//! hardware counters read through Solaris `cpustat`, per-CPU mode
//! accounting through `mpstat`, and per-line communication statistics.
//! This crate is the reproduction's counterpart — one uniform surface
//! over every counter the simulation crates maintain:
//!
//! - [`registry`] — the counter registry: each stats struct publishes a
//!   static descriptor table (dot-separated name, kind) and can be
//!   sampled into a flat, ordered [`Snapshot`] of `name → u64` pairs,
//!   with deltas between snapshots. Registries *read* the existing
//!   fields; hot loops keep bumping plain integers, so attaching the
//!   registry changes nothing on the access path.
//! - [`runlog`] — the run event log and its one schema: the
//!   experiment-plan runner emits one structured span per job (id,
//!   label, worker, claim order, cost hint, wall time, end-of-job
//!   counter snapshot) plus the jobs' telemetry records to a [`RunLog`]
//!   sink, serialized as JSONL. Each of the eight record kinds is one
//!   struct declared once through [`runlog::Fields`] (its JSON keys and
//!   value types) and [`runlog::Record`] (its `ev` tag, sort key, job,
//!   sequence and window rules); the writer and [`report::check`] are
//!   generic over those declarations. Emission happens on the worker
//!   threads, outside the input-order merge, so logged runs stay
//!   bit-identical to unlogged ones.
//! - [`hist`] — a dependency-free log2-bucketed [`Histogram`] with
//!   elementwise merge and deterministic integer quantiles, for the
//!   latency distributions (memory access, store-buffer drain,
//!   transaction response) that interval counters cannot carry.
//! - [`report`] — `mpstat`-style per-run worker tables and a
//!   `cpustat`-style counter dump rendered from a RunLog, in human text
//!   and machine CSV, plus `simstat` interval tables/sparklines,
//!   cycle-attribution CPI-stack tables with folded-stack flamegraph
//!   export, and the strict JSONL schema check behind
//!   `simreport --check`, which rejects malformed input with an error,
//!   never a panic.
//! - [`provenance`] — host/commit/config metadata (`git_rev`,
//!   `hostname`, `cpu_count`, `timestamp`, worker count, effort,
//!   simulation mode) stamped into every RunLog and `BENCH_*.json` so
//!   archived results say where they came from.
//! - [`timeline`] — the run observatory's export path: sim-time
//!   [`runlog::EventRecord`]s (GC pauses, window resets, sample-unit
//!   strata, DRAM stall episodes) rendered as Chrome trace-event JSON
//!   for Perfetto / `chrome://tracing`, with the in-tree validator
//!   behind `simreport --check`.
//! - [`drift`] — the `simdiff` metric drift gate: RunLog counters
//!   aggregated into a provenance-stamped [`drift::Baseline`] and
//!   compared counter-by-counter under per-counter
//!   [`registry::DriftClass`] bands.
//! - [`json`] — the tiny JSON reader/writer the above share (the
//!   workspace is dependency-free by design; no serde).

pub mod drift;
pub mod hist;
pub mod json;
pub mod provenance;
pub mod registry;
pub mod report;
pub mod runlog;
pub mod timeline;

pub use hist::Histogram;
pub use json::{Json, JsonError};
pub use provenance::Provenance;
pub use registry::{CounterDesc, CounterKind, CounterSet, DriftClass, Snapshot};
pub use runlog::{AttribRecord, EventRecord, HistRecord, IntervalRecord, JobSpan, RunLog, RunMeta};
