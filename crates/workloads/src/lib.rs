//! # workloads — executable models of SPECjbb2000 and ECperf
//!
//! The subject half of the reproduction: mechanistic models of the two
//! Java-middleware benchmarks the paper characterizes, built on the
//! [`jvm`] and [`sysos`] substrates and emitting their memory behavior
//! through [`memsys::MemSink`]s.
//!
//! - [`model`] — the engine-facing execution protocol (threads, steps,
//!   locks, GC safepoints);
//! - [`objtree`] — B-trees of simulated heap objects (SPECjbb's emulated
//!   database);
//! - [`methodset`] / [`zipf`] — code-path and key-popularity skew;
//! - [`specjbb`] — warehouses, TPC-C-like transaction mix, global
//!   company statistics;
//! - [`ecperf`] — the 3-tier middle-tier model: servlets, EJB-style
//!   entity beans, an application server with thread pooling, database
//!   connection pooling and object-level caching, kernel messaging to the
//!   database tier and supplier emulator.

pub mod ecperf;
pub mod methodset;
pub mod model;
pub mod objtree;
pub(crate) mod regions;
pub mod specjbb;
pub mod zipf;

pub use methodset::MethodSet;
pub use model::{Control, LockDesc, SchedLock, StepCtx, StepResult, WaitKind, Workload};
pub use objtree::ObjTree;
pub use zipf::ZipfSampler;
