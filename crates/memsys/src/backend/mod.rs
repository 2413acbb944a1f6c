//! Pluggable main-memory backends below the L2s.
//!
//! The coherence protocol decides *whether* a reference goes to memory;
//! a [`MemoryBackend`] decides *what that fetch costs*. The seam sits
//! exactly where [`crate::system::MemorySystem`] produces a
//! [`HitLevel::Memory`](crate::HitLevel::Memory) outcome: the backend is
//! consulted once per memory fill (and notified of every dirty-victim
//! writeback, which consumes memory bandwidth without stalling anyone),
//! and its answer rides on the outcome as
//! [`AccessOutcome::mem_cycles`](crate::AccessOutcome::mem_cycles) for
//! the CPU model to consume.
//!
//! Two implementations:
//!
//! - [`FlatLatency`] — the default. With no configured cost it returns
//!   `None` and the CPU side keeps charging its constant table entry,
//!   which is *bit-identical* to the pre-backend simulator (the
//!   `mem_backend` differential test holds it to that). With an explicit
//!   cost it stamps every fill, exercising the variable-cost plumbing
//!   with a constant.
//! - [`BankedDram`] — a channels x banks timing model with an open-row
//!   policy, per-bank busy windows and a bounded per-channel request
//!   queue, so latency becomes a function of applied load (the Mess-style
//!   bandwidth–latency curves) instead of a constant.
//!
//! Backends are deterministic state machines over the access stream:
//! identical streams (addresses, kinds, arrival times) produce identical
//! costs, which is what keeps parallel experiment plans bit-identical to
//! serial runs with either backend.

pub mod dram;
mod flat;

pub use dram::{BankedDram, DramStats};
pub use flat::FlatLatency;

use probes::Histogram;

use crate::addr::Addr;
use crate::config::MemoryConfig;

/// One main-memory timing model below the L2s.
///
/// `now` is the requesting processor's cycle clock at issue. Backends
/// must tolerate non-monotonic `now` values (different processors'
/// clocks interleave): time only ever advances internally.
pub trait MemoryBackend {
    /// Cost in cycles of a demand fill from memory issued at `now`, or
    /// `None` to defer to the caller's flat latency table.
    fn fetch(&mut self, addr: Addr, now: u64) -> Option<u64>;

    /// A dirty-victim writeback issued at `now`: consumes bandwidth and
    /// queue slots, stalls nobody directly.
    fn writeback(&mut self, addr: Addr, now: u64);

    /// Whether the backend's timing depends on request arrival times.
    /// When `false` the driver may skip clock plumbing entirely.
    fn needs_clock(&self) -> bool {
        false
    }

    /// DRAM event counters, if this backend keeps them.
    fn dram_stats(&self) -> Option<&DramStats> {
        None
    }

    /// Per-fill total-latency histogram (queue wait + service), if kept.
    fn queue_hist(&self) -> Option<&Histogram> {
        None
    }

    /// Clears statistics while keeping timing state (open rows, queue
    /// backlog) — the measurement-window contract of
    /// [`MemorySystem::reset_stats`](crate::MemorySystem::reset_stats).
    fn reset_stats(&mut self) {}

    /// Drains the buffered queue-stall episodes `(start, end)` in sim
    /// cycles, for the run-observatory timeline. Backends without a
    /// queue have none.
    fn take_stall_episodes(&mut self) -> Vec<(u64, u64)> {
        Vec::new()
    }
}

/// The backend a [`MemorySystem`](crate::MemorySystem) actually holds:
/// closed enum dispatch keeps the hot path static and the system
/// `Clone`, while the [`MemoryBackend`] trait defines the contract both
/// variants (and external models) implement.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Flat memory (optionally with an explicit constant cost).
    Flat(FlatLatency),
    /// The banked-DRAM timing model.
    Dram(Box<BankedDram>),
}

impl Backend {
    /// Builds the backend a [`MemoryConfig`] names.
    pub(crate) fn from_config(cfg: &MemoryConfig) -> Self {
        match cfg {
            MemoryConfig::Flat => Backend::Flat(FlatLatency::deferred()),
            MemoryConfig::FlatFixed(cycles) => Backend::Flat(FlatLatency::fixed(*cycles)),
            MemoryConfig::BankedDram(_) => Backend::Dram(Box::default()),
        }
    }
}

impl MemoryBackend for Backend {
    #[inline]
    fn fetch(&mut self, addr: Addr, now: u64) -> Option<u64> {
        match self {
            Backend::Flat(b) => b.fetch(addr, now),
            Backend::Dram(b) => b.fetch(addr, now),
        }
    }

    #[inline]
    fn writeback(&mut self, addr: Addr, now: u64) {
        match self {
            Backend::Flat(b) => b.writeback(addr, now),
            Backend::Dram(b) => b.writeback(addr, now),
        }
    }

    fn needs_clock(&self) -> bool {
        match self {
            Backend::Flat(b) => b.needs_clock(),
            Backend::Dram(b) => b.needs_clock(),
        }
    }

    fn dram_stats(&self) -> Option<&DramStats> {
        match self {
            Backend::Flat(b) => b.dram_stats(),
            Backend::Dram(b) => b.dram_stats(),
        }
    }

    fn queue_hist(&self) -> Option<&Histogram> {
        match self {
            Backend::Flat(b) => b.queue_hist(),
            Backend::Dram(b) => b.queue_hist(),
        }
    }

    fn reset_stats(&mut self) {
        match self {
            Backend::Flat(b) => b.reset_stats(),
            Backend::Dram(b) => b.reset_stats(),
        }
    }

    fn take_stall_episodes(&mut self) -> Vec<(u64, u64)> {
        match self {
            Backend::Flat(b) => b.take_stall_episodes(),
            Backend::Dram(b) => b.take_stall_episodes(),
        }
    }
}
