//! # java-middleware-memsim
//!
//! A full reproduction, in Rust, of *"Memory System Behavior of
//! Java-Based Middleware"* (Karlsson, Moore, Hagersten, Wood — HPCA
//! 2003): a simulated 16-processor Sun E6000, a HotSpot-1.3.1-like JVM
//! substrate, mechanistic models of the SPECjbb2000 and ECperf
//! (SPECjAppServer2001) benchmarks, and one experiment per measured
//! figure of the paper.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`memsys`] — caches, MOESI snooping coherence, shared-L2 topologies;
//! - [`simcpu`] — the UltraSPARC-II-like CPI/stall timing model;
//! - [`jvm`] — heap, TLABs, single-threaded generational GC, monitors,
//!   code cache;
//! - [`sysos`] — processor sets, mode accounting, the kernel network
//!   path, the TLB/ISM model;
//! - [`workloads`] — the SPECjbb and ECperf models;
//! - [`simstats`] — summaries, CDFs, stratified estimates, table
//!   rendering;
//! - [`middlesim`] — the machine engine and the figure experiments.
//!
//! ## Quickstart
//!
//! ```
//! use middlesim::{jbb_machine, measure, Effort};
//!
//! let mut machine = jbb_machine(2, 4, 1, Effort::Quick);
//! let report = measure(&mut machine, Effort::Quick);
//! assert!(report.transactions > 0);
//! println!("throughput: {:.0} tx/s, CPI {:.2}", report.throughput(), report.cpi.cpi());
//! ```

pub use jvm;
pub use memsys;
pub use middlesim;
pub use simcpu;
pub use simstats;
pub use sysos;
pub use workloads;
