//! The scheduler: thread states, the ready queue, lock management, and
//! processor placement.
//!
//! Models the Solaris TS-class dispatcher the paper runs under: a
//! `psrset` processor binding, FIFO ready queue with weak cache
//! affinity, quantum-expiry preemption at step boundaries, blocking
//! monitors that idle, and spinning kernel mutexes that burn time in
//! their caller's mode. The scheduler owns *who runs where*; it charges
//! time through [`Accounting`] but never touches the memory system.

use std::collections::VecDeque;

use sysos::modes::ExecMode;
use sysos::sched::ProcessorSet;
use workloads::model::LockDesc;
use workloads::WaitKind;

use super::accounting::Accounting;

/// Time quantum in cycles (~160 ms at 248 MHz: Solaris TS-class
/// preemption of compute-bound threads). A running thread is preempted
/// at the next step boundary once its quantum expires and another
/// thread is ready.
const QUANTUM: u64 = 40_000_000;
/// Kernel cycles charged per context switch.
const CTX_SWITCH_COST: u64 = 3_000;

/// What a thread is doing, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Waiting in the ready queue.
    Ready,
    /// Running on the given processor.
    Running(usize),
    /// Parked on a lock.
    Blocked(u32),
    /// Spinning on a lock, holding its processor, in the given mode.
    Spinning(u32, usize, ExecMode),
    /// Asleep until the given cycle.
    Sleeping(u64),
    /// Finished.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct ThreadState {
    status: Status,
    ready_at: u64,
    last_cpu: Option<usize>,
}

#[derive(Debug, Clone)]
struct LockState {
    desc: LockDesc,
    holders: u32,
    waiters: VecDeque<usize>,
}

/// The scheduler: ready queue, per-thread states, lock tables, and the
/// processor set the benchmark is bound to.
#[derive(Debug, Clone)]
pub struct Scheduler {
    pset: ProcessorSet,
    threads: Vec<ThreadState>,
    locks: Vec<LockState>,
    ready: VecDeque<usize>,
    running: Vec<Option<usize>>,
    /// Cycle at which each processor's current thread was dispatched.
    dispatched_at: Vec<u64>,
    /// A lower bound on every sleeper's wake time (`u64::MAX` when none
    /// sleeps), so `wake_sleepers` scans the threads only when one may
    /// be due.
    next_wake: u64,
}

impl Scheduler {
    /// Builds a scheduler for `thread_count` threads over `cpus`
    /// processors, bound to `pset`, with the given lock table. All
    /// threads start ready.
    pub(crate) fn new(
        pset: ProcessorSet,
        cpus: usize,
        thread_count: usize,
        lock_table: Vec<LockDesc>,
    ) -> Self {
        Scheduler {
            pset,
            threads: (0..thread_count)
                .map(|_| ThreadState {
                    status: Status::Ready,
                    ready_at: 0,
                    last_cpu: None,
                })
                .collect(),
            locks: lock_table
                .into_iter()
                .map(|desc| LockState {
                    desc,
                    holders: 0,
                    waiters: VecDeque::new(),
                })
                .collect(),
            ready: (0..thread_count).collect(),
            running: vec![None; cpus],
            dispatched_at: vec![0; cpus],
            next_wake: u64::MAX,
        }
    }

    /// The benchmark's processor set.
    pub(crate) fn pset(&self) -> &ProcessorSet {
        &self.pset
    }

    /// Whether any thread is ready to run.
    pub(crate) fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// The thread currently on `cpu`, if any.
    pub(crate) fn thread_on(&self, cpu: usize) -> Option<usize> {
        self.running[cpu]
    }

    /// Processors currently running a thread.
    pub(crate) fn running_cpus(&self) -> impl Iterator<Item = usize> + '_ {
        self.running
            .iter()
            .enumerate()
            .filter_map(|(c, t)| t.map(|_| c))
    }

    /// Processors whose thread may be stepped (running, not spinning on
    /// a lock — spinners wait for their grant).
    pub(crate) fn steppable_cpus(&self) -> impl Iterator<Item = usize> + '_ {
        self.running.iter().enumerate().filter_map(|(c, t)| {
            t.filter(|&th| matches!(self.threads[th].status, Status::Running(_)))
                .map(|_| c)
        })
    }

    /// Current virtual time: the slowest running processor's clock (all
    /// processors' progress is bounded below by it).
    pub(crate) fn time(&self, acct: &Accounting) -> u64 {
        self.running_cpus()
            .map(|c| acct.clock(c))
            .min()
            .unwrap_or_else(|| acct.clocks().iter().copied().max().unwrap_or(0))
    }

    /// Assigns ready threads to free processors in the set, with cache
    /// affinity: a free processor first looks for a waiter that last ran
    /// on it (Solaris's dispatcher does the same; without this, every
    /// short monitor block would migrate the thread and needlessly turn
    /// its whole cache footprint into coherence traffic).
    pub(crate) fn dispatch(&mut self, acct: &mut Accounting) {
        if self.ready.is_empty() {
            return;
        }
        // Virtual "now" for migration eligibility: an idle processor's
        // own clock is stale, so compare against global progress too.
        let now_global = self.time(acct);
        let mut progressed = true;
        while progressed && !self.ready.is_empty() {
            progressed = false;
            // Placing a thread occupies only the processor it goes to,
            // so a processor free when the round reaches it was free
            // when the round began.
            for i in 0..self.pset.cpus().len() {
                let cpu = self.pset.cpus()[i];
                if self.running[cpu].is_some() {
                    continue;
                }
                if self.ready.is_empty() {
                    break;
                }
                // Anti-starvation first: once the queue head has waited a
                // full quantum it runs next, wherever. Then home
                // processor; then any thread already ready by `now`.
                let now = acct.clock(cpu).max(now_global);
                let head_wait = now.saturating_sub(self.threads[self.ready[0]].ready_at);
                let pick = if head_wait > QUANTUM {
                    Some(0)
                } else {
                    self.ready
                        .iter()
                        .position(|&t| self.threads[t].last_cpu == Some(cpu))
                        .or_else(|| {
                            self.ready.iter().position(|&t| {
                                let ts = &self.threads[t];
                                ts.last_cpu.is_none() || ts.ready_at <= now
                            })
                        })
                };
                let Some(pos) = pick else { continue };
                let t = self.ready.remove(pos).expect("position valid");
                self.place(t, cpu, acct);
                progressed = true;
            }
        }
        // Anti-livelock: if nothing at all is running but threads are
        // ready, force the head onto any free processor.
        if self.running_cpus().next().is_none() {
            if let Some(&cpu) = self
                .pset
                .cpus()
                .iter()
                .find(|&&c| self.running[c].is_none())
            {
                if let Some(t) = self.ready.pop_front() {
                    self.place(t, cpu, acct);
                }
            }
        }
    }

    fn place(&mut self, t: usize, cpu: usize, acct: &mut Accounting) {
        let ready_at = self.threads[t].ready_at;
        acct.fill(cpu, ready_at, ExecMode::Idle);
        self.running[cpu] = Some(t);
        self.threads[t].status = Status::Running(cpu);
        self.threads[t].last_cpu = Some(cpu);
        self.dispatched_at[cpu] = acct.clock(cpu);
    }

    /// Moves due sleepers to the ready queue, in thread-index order.
    pub(crate) fn wake_sleepers(&mut self, now: u64) {
        if now < self.next_wake {
            return;
        }
        self.next_wake = u64::MAX;
        for t in 0..self.threads.len() {
            if let Status::Sleeping(until) = self.threads[t].status {
                if until <= now {
                    self.threads[t].status = Status::Ready;
                    self.threads[t].ready_at = until;
                    self.ready.push_back(t);
                } else {
                    self.next_wake = self.next_wake.min(until);
                }
            }
        }
    }

    /// The earliest sleeping thread's wake time, if any thread sleeps.
    pub(crate) fn earliest_wake(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter_map(|t| match t.status {
                Status::Sleeping(until) => Some(until),
                _ => None,
            })
            .min()
    }

    /// Puts the thread on `cpu` to sleep until `until`, freeing the
    /// processor.
    pub(crate) fn sleep(&mut self, cpu: usize, until: u64) {
        let thread = self.running[cpu].expect("sleep on busy cpu");
        self.threads[thread].status = Status::Sleeping(until);
        self.running[cpu] = None;
        self.next_wake = self.next_wake.min(until);
    }

    /// Marks the thread on `cpu` as finished, freeing the processor.
    pub(crate) fn finish(&mut self, cpu: usize) {
        let thread = self.running[cpu].expect("finish on busy cpu");
        self.threads[thread].status = Status::Done;
        self.running[cpu] = None;
    }

    /// Preempts the running thread at a step boundary once its quantum
    /// has expired and someone else is waiting for a processor. Without
    /// this, a non-blocking thread would monopolize its processor forever
    /// (and a 25-warehouse SPECjbb on one processor would degenerate to a
    /// single warehouse).
    pub(crate) fn maybe_preempt(&mut self, cpu: usize, acct: &mut Accounting) {
        if self.ready.is_empty() {
            return;
        }
        if acct.clock(cpu) - self.dispatched_at[cpu] < QUANTUM {
            return;
        }
        let Some(thread) = self.running[cpu] else {
            return;
        };
        acct.advance(cpu, ExecMode::System, CTX_SWITCH_COST);
        self.threads[thread].status = Status::Ready;
        self.threads[thread].ready_at = acct.clock(cpu);
        self.ready.push_back(thread);
        self.running[cpu] = None;
    }

    /// Handles a thread's lock-acquire request: grants immediately when
    /// uncontended, otherwise spins or parks per the lock's wait kind.
    pub(crate) fn acquire(&mut self, thread: usize, cpu: usize, lock: u32, mode: ExecMode) {
        let l = &mut self.locks[lock as usize];
        if l.holders < l.desc.capacity && l.waiters.is_empty() {
            l.holders += 1;
            return; // granted immediately; thread keeps running
        }
        let queue_len = l.waiters.len();
        l.waiters.push_back(thread);
        let spin = match l.desc.wait {
            WaitKind::Block => false,
            WaitKind::Spin => true,
            // Adaptive (HotSpot-style): spin while the queue is short —
            // the hold is brief and parking would cost a migration —
            // park once contention is real.
            WaitKind::Adaptive => queue_len < 2,
        };
        if spin {
            // The thread burns its processor until granted.
            self.threads[thread].status = Status::Spinning(lock, cpu, mode);
        } else {
            self.threads[thread].status = Status::Blocked(lock);
            self.running[cpu] = None;
        }
    }

    /// Releases a lock held by the thread on `cpu`, granting waiters.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub(crate) fn release(&mut self, cpu: usize, lock: u32, acct: &mut Accounting) {
        let now = acct.clock(cpu);
        let mut grants = Vec::new();
        {
            let l = &mut self.locks[lock as usize];
            assert!(l.holders > 0, "release of unheld lock {lock}");
            l.holders -= 1;
            while l.holders < l.desc.capacity {
                let Some(next) = l.waiters.pop_front() else {
                    break;
                };
                l.holders += 1;
                grants.push(next);
            }
        }
        for next in grants {
            match self.threads[next].status {
                Status::Blocked(_) => {
                    self.threads[next].status = Status::Ready;
                    self.threads[next].ready_at = now;
                    self.ready.push_back(next);
                }
                Status::Spinning(_, spin_cpu, mode) => {
                    // Spinner kept its processor busy until the grant.
                    acct.fill(spin_cpu, now, mode);
                    self.threads[next].status = Status::Running(spin_cpu);
                }
                other => unreachable!("waiter in unexpected state {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(threads: usize, cpus: usize, pset: usize) -> (Scheduler, Accounting) {
        (
            Scheduler::new(
                ProcessorSet::first_n(pset, cpus),
                cpus,
                threads,
                vec![LockDesc::blocking_mutex()],
            ),
            Accounting::new(cpus),
        )
    }

    #[test]
    fn dispatch_fills_the_processor_set() {
        let (mut s, mut a) = sched(4, 4, 2);
        s.dispatch(&mut a);
        assert_eq!(s.running_cpus().count(), 2, "bound to 2 of 4 cpus");
        assert_eq!(s.steppable_cpus().count(), 2);
    }

    #[test]
    fn affinity_prefers_the_home_processor() {
        let (mut s, mut a) = sched(2, 2, 2);
        s.dispatch(&mut a);
        let home = s.thread_on(0).unwrap();
        // Sleep it, let the processor idle, wake it: it returns home.
        s.sleep(0, 100);
        s.wake_sleepers(100);
        s.dispatch(&mut a);
        assert_eq!(s.thread_on(0), Some(home), "woken thread returns home");
    }

    #[test]
    fn due_sleepers_wake_at_their_time_in_thread_order() {
        let (mut s, mut a) = sched(3, 3, 3);
        s.dispatch(&mut a);
        let on = |s: &Scheduler, cpu| s.thread_on(cpu).unwrap();
        let (t0, t1, t2) = (on(&s, 0), on(&s, 1), on(&s, 2));
        // Slept in reverse index order; two due at 100, one at 200.
        s.sleep(2, 100);
        s.sleep(1, 200);
        s.sleep(0, 100);
        s.wake_sleepers(99);
        assert!(!s.has_ready(), "nobody is due before 100");
        s.wake_sleepers(100);
        let mut woken: Vec<usize> = s.ready.iter().copied().collect();
        let mut due = vec![t0, t2];
        due.sort_unstable();
        assert_eq!(woken, due, "due exactly at now, in thread-index order");
        assert_eq!(s.threads[t1].status, Status::Sleeping(200));
        s.wake_sleepers(199);
        assert_eq!(s.ready.len(), 2, "the bound moved to the next sleeper");
        s.wake_sleepers(200);
        woken.push(t1);
        assert!(s.ready.iter().copied().eq(woken));
        assert_eq!(s.earliest_wake(), None);
    }

    #[test]
    fn contended_blocking_lock_parks_and_grants_in_fifo_order() {
        let (mut s, mut a) = sched(3, 3, 3);
        s.dispatch(&mut a);
        s.acquire(0, 0, 0, ExecMode::User); // granted
        s.acquire(1, 1, 0, ExecMode::User); // parks
        assert_eq!(s.thread_on(1), None, "waiter gave up its processor");
        a.advance(0, ExecMode::User, 50);
        s.release(0, 0, &mut a);
        assert!(s.has_ready(), "waiter requeued on grant");
    }

    #[test]
    fn spinner_keeps_its_processor_and_burns_time() {
        let (mut s, mut a) = sched(2, 2, 2);
        let lock = vec![LockDesc::spin_mutex()];
        s.locks = lock
            .into_iter()
            .map(|desc| LockState {
                desc,
                holders: 0,
                waiters: VecDeque::new(),
            })
            .collect();
        s.dispatch(&mut a);
        s.acquire(0, 0, 0, ExecMode::System);
        s.acquire(1, 1, 0, ExecMode::System); // spins on cpu 1
        assert_eq!(s.thread_on(1), Some(1), "spinner holds its processor");
        assert_eq!(s.steppable_cpus().count(), 1, "spinner is not steppable");
        a.advance(0, ExecMode::User, 500);
        s.release(0, 0, &mut a);
        assert_eq!(a.clock(1), 500, "spin time charged up to the grant");
        assert_eq!(s.steppable_cpus().count(), 2);
    }

    #[test]
    fn quantum_expiry_preempts_when_others_wait() {
        let (mut s, mut a) = sched(3, 1, 1);
        s.dispatch(&mut a);
        let first = s.thread_on(0).unwrap();
        a.advance(0, ExecMode::User, QUANTUM - 1);
        s.maybe_preempt(0, &mut a);
        assert_eq!(s.thread_on(0), Some(first), "quantum not yet expired");
        a.advance(0, ExecMode::User, 1);
        s.maybe_preempt(0, &mut a);
        assert_eq!(s.thread_on(0), None, "thread preempted");
        assert_eq!(a.clock(0), QUANTUM + CTX_SWITCH_COST, "switch charged");
        s.dispatch(&mut a);
        assert_ne!(s.thread_on(0), Some(first), "another thread runs next");
    }
}
