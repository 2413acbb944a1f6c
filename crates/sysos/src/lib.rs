//! # sysos — a Solaris-8-like operating-system substrate
//!
//! The operating-system half of the paper's workload environment:
//!
//! - [`sched::ProcessorSet`] — `psrset`-style processor binding (the paper
//!   scales the benchmarks from 1 to 15 of the E6000's 16 processors while
//!   the OS keeps running everywhere);
//! - [`modes::ModeAccount`] — `mpstat`-style user / system / io / idle /
//!   gc-idle time accounting (Figure 5);
//! - [`net::NetStack`] — the kernel network path ECperf's tiers
//!   communicate through, with its instruction footprint, shared protocol
//!   locks and socket-buffer copies (the source of ECperf's growing system
//!   time);
//! - [`tlb::Tlb`] — the software-filled TLB and the 8 KB vs 4 MB (ISM)
//!   page-size ablation (Section 6 reports >10% from ISM on ECperf).
//!
//! ## Example
//!
//! ```
//! use sysos::modes::{ExecMode, ModeAccount};
//! use sysos::sched::ProcessorSet;
//!
//! let pset = ProcessorSet::first_n(4, 16);
//! let mut modes = ModeAccount::new(16);
//! let cpu = pset.cpus()[0];
//! modes.add(cpu, ExecMode::User, 90);
//! modes.add(cpu, ExecMode::System, 10);
//! assert!((modes.breakdown().user - 0.9).abs() < 1e-12);
//! ```

pub mod modes;
pub mod net;
pub mod sched;
pub mod tlb;

pub use modes::{ExecMode, ModeAccount, ModeBreakdown, ALL_MODES};
pub use net::NetStack;
pub use sched::ProcessorSet;
pub use tlb::{Tlb, TlbConfig};
