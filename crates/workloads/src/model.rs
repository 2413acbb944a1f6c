//! The workload execution model: how benchmark threads talk to the
//! simulation engine.
//!
//! A workload is a set of threads, each advanced in bounded *steps*. A
//! step emits its memory references and instruction counts through a
//! [`MemSink`] and then returns a [`Control`] telling the engine what the
//! thread needs next: keep running, a lock, an I/O completion, a garbage
//! collection, or nothing (transaction finished). The engine — which owns
//! processors, clocks and the coherent memory system — schedules threads
//! over processors, resolves lock contention (idle time), serializes
//! garbage collection (GC-idle time) and advances virtual time.
//!
//! Splitting at exactly these points is what lets the paper's phenomena
//! emerge: lock waits become Figure 5's idle time, kernel spin locks
//! become ECperf's system time, and the single-threaded collector becomes
//! the GC-idle slice and the Figure 10 snoop-copyback collapse.

use memsys::{MemSink, RegionMap};
use prng::SimRng;
use sysos::modes::ExecMode;

/// A scheduler-level lock (mutex or counting semaphore) index.
///
/// Workloads declare their locks up front via [`Workload::lock_table`];
/// the engine enforces mutual exclusion and accounts waiting time. The
/// *memory traffic* of a lock (the CAS on its lock word) is emitted by the
/// workload itself through the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchedLock(pub u32);

/// How waiters on a lock spend their time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Sleep in the scheduler: waiting shows up as *idle* time (pool
    /// waits, long queues).
    Block,
    /// Busy-wait: waiting is charged to the thread's current mode
    /// (Solaris adaptive kernel mutexes — the source of ECperf's growing
    /// *system* time).
    Spin,
    /// HotSpot-style adaptive monitor: spin on the processor while the
    /// queue is short (no migration, no idle), park once it grows (idle
    /// time under heavy contention).
    Adaptive,
}

/// Declares one scheduler lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockDesc {
    /// Concurrent holders allowed (1 = mutex; >1 = counting semaphore,
    /// e.g. a database connection pool).
    pub capacity: u32,
    /// Wait behavior.
    pub wait: WaitKind,
}

impl LockDesc {
    /// A Java monitor: adaptive spin-then-park.
    pub(crate) fn mutex() -> Self {
        LockDesc {
            capacity: 1,
            wait: WaitKind::Adaptive,
        }
    }

    /// A strictly parking mutex.
    pub fn blocking_mutex() -> Self {
        LockDesc {
            capacity: 1,
            wait: WaitKind::Block,
        }
    }

    /// A spinning kernel mutex.
    pub fn spin_mutex() -> Self {
        LockDesc {
            capacity: 1,
            wait: WaitKind::Spin,
        }
    }

    /// A blocking counting semaphore of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn semaphore(capacity: u32) -> Self {
        assert!(capacity > 0, "semaphore capacity must be positive");
        LockDesc {
            capacity,
            wait: WaitKind::Block,
        }
    }
}

/// What a thread needs after a step.
///
/// The engine's contract for [`Control::Acquire`]: the thread will only be
/// stepped again once the lock has been granted, so the thread may assume
/// possession in its next step. [`Control::Release`] applies after the
/// step's references have been charged (the step's work happened *while
/// holding*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep running; nothing special happened.
    Continue,
    /// The thread needs `SchedLock` before its next step.
    Acquire(SchedLock),
    /// The thread has released `SchedLock`.
    Release(SchedLock),
    /// A transaction (SPECjbb operation / ECperf BBop) completed.
    TxDone,
    /// The thread is waiting for an external completion (database reply,
    /// emulator response) arriving this many cycles from now.
    IoWait(u64),
    /// Allocation failed: the engine must run a stop-the-world collection
    /// (via [`Workload::collect`]) and step this thread again.
    NeedsGc,
    /// The thread has no more work.
    Done,
}

/// The result of one step: what was done and what comes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepResult {
    /// All references and instructions of this step ran in this mode.
    pub mode: ExecMode,
    /// What the thread needs next.
    pub control: Control,
}

impl StepResult {
    /// A user-mode step with the given control.
    pub fn user(control: Control) -> Self {
        StepResult {
            mode: ExecMode::User,
            control,
        }
    }

    /// A system-mode (kernel) step with the given control.
    pub(crate) fn system(control: Control) -> Self {
        StepResult {
            mode: ExecMode::System,
            control,
        }
    }
}

/// Context handed to each step.
pub struct StepCtx<'a> {
    /// Where the step's instructions and references go.
    pub sink: &'a mut dyn MemSink,
    /// Deterministic per-run randomness.
    pub rng: &'a mut SimRng,
    /// The stepping thread's current virtual time in cycles.
    pub now: u64,
}

/// A complete benchmark workload.
pub trait Workload {
    /// Number of threads (fixed for a run).
    fn thread_count(&self) -> usize;

    /// Scheduler locks this workload uses, indexed by [`SchedLock`].
    fn lock_table(&self) -> Vec<LockDesc>;

    /// Advances thread `thread` by one bounded step.
    fn step(&mut self, thread: usize, ctx: &mut StepCtx<'_>) -> StepResult;

    /// Runs a stop-the-world collection; references emitted through `sink`
    /// execute on the single collecting processor.
    fn collect(&mut self, sink: &mut dyn MemSink);

    /// Heap occupancy immediately after the last collection, in bytes
    /// (the Figure 11 metric); `None` if no collection has run yet.
    fn heap_after_last_gc(&self) -> Option<u64>;

    /// How close the workload is to triggering a collection, in 0..=1
    /// (eden occupancy for the generational workloads; 0 for workloads
    /// that never collect). The sampled-execution scheduler polls this
    /// at unit boundaries to force detailed simulation onto units about
    /// to contain a GC burst — a one-unit event that reactive cluster
    /// scheduling would only catch after the fact.
    fn gc_pressure(&self) -> f64 {
        0.0
    }

    /// Named address regions for cycle attribution (heap generations,
    /// code cache, lock words, stacks, kernel structures). Defaults to
    /// an empty map: every access classifies as `other`. Built once at
    /// machine construction — regions are fixed for a run.
    fn region_map(&self) -> RegionMap {
        RegionMap::new()
    }

    /// Per-transaction response-time histogram, when the workload keeps
    /// one (`None` for workloads without a transaction notion).
    fn response_hist(&self) -> Option<&probes::Histogram> {
        None
    }

    /// Discards accumulated response times, so a measurement window
    /// observes only its own transactions.
    fn reset_response_hist(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_desc_constructors() {
        assert_eq!(LockDesc::mutex().capacity, 1);
        assert_eq!(LockDesc::mutex().wait, WaitKind::Adaptive);
        assert_eq!(LockDesc::blocking_mutex().wait, WaitKind::Block);
        assert_eq!(LockDesc::spin_mutex().wait, WaitKind::Spin);
        assert_eq!(LockDesc::semaphore(8).capacity, 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_semaphore_panics() {
        let _ = LockDesc::semaphore(0);
    }

    #[test]
    fn step_result_modes() {
        assert_eq!(StepResult::user(Control::Continue).mode, ExecMode::User);
        assert_eq!(StepResult::system(Control::TxDone).mode, ExecMode::System);
    }
}
