//! The discrete-event kernel: [`Machine`] advances a workload over the
//! simulated processors.
//!
//! This is the harness's equivalent of the paper's instrumented E6000 +
//! Simics setup. The kernel owns the coherent [`MemorySystem`], the
//! per-processor [`CpuTimer`]s and the workload; it delegates *who runs
//! where* to the [`Scheduler`], stop-the-world
//! collections to the [`GcDriver`], and all
//! clock/mode bookkeeping to [`Accounting`]. Background OS clock ticks
//! on *every* machine processor touch shared kernel lines — the reason
//! the paper sees cache-to-cache transfers even with the benchmark bound
//! to one processor (Figure 8).

use memsys::{AccessKind, Addr, HierarchyConfig, MemSink, MemorySystem};
use prng::SimRng;
use probes::Histogram;
use simcpu::{CpiReport, CpuTimer, LatencyTable, PipelineParams};
use sysos::modes::ExecMode;
use sysos::tlb::{Tlb, TlbConfig};
use workloads::model::{Control, StepCtx, StepResult, Workload};

use super::accounting::{Accounting, WindowReport};
use super::dispatch::Scheduler;
use super::gc_driver::GcDriver;
use super::observer::{AccessEvent, AccessSource, ObserverHandle, ObserverSet, SimObserver};
use super::sampling::{FastSink, SamplingState, SigCounts, SignatureCollector};

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Cache hierarchy (defaults: E6000 with 16 processors).
    pub hierarchy: HierarchyConfig,
    /// Processors the benchmark is bound to (`psrset`).
    pub pset: usize,
    /// Pipeline parameters.
    pub pipeline: PipelineParams,
    /// Memory latencies.
    pub latency: LatencyTable,
    /// Optional per-processor data TLB (the ISM ablation).
    pub tlb: Option<TlbConfig>,
    /// RNG seed for the run.
    pub seed: u64,
    /// Nothing reads this: an `IntervalSampler` takes its own width.
    /// It stays only because the host-time benchmark assigns it.
    pub sample_interval: u64,
}

/// Cycles between OS clock ticks on each processor (about 1 ms at 248 MHz).
const TICK_PERIOD: u64 = 250_000;
/// Busy cycles charged per tick handler.
const TICK_COST: u64 = 1_500;

impl MachineConfig {
    /// An E6000-like machine with the benchmark bound to `pset` of 16
    /// processors.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is 0 or greater than 16.
    pub fn e6000(pset: usize) -> Self {
        MachineConfig {
            hierarchy: HierarchyConfig::e6000(16).expect("16-cpu E6000 config"),
            pset,
            pipeline: PipelineParams::default(),
            latency: LatencyTable::e6000(),
            tlb: None,
            seed: 1,
            sample_interval: 24_800_000, // 100 ms at 248 MHz
        }
    }

    /// Same machine but with exactly `cpus` processors (no spare OS
    /// processors) — used by the shared-cache topology experiments where
    /// the hierarchy itself is the subject.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn dedicated(hierarchy: HierarchyConfig) -> Self {
        let cpus = hierarchy.cpus;
        MachineConfig {
            hierarchy,
            pset: cpus,
            ..MachineConfig::e6000(1)
        }
    }
}

/// The simulated machine driving a workload.
pub struct Machine<W: Workload> {
    cfg: MachineConfig,
    workload: W,
    mem: MemorySystem,
    timers: Vec<CpuTimer>,
    tlbs: Option<Vec<Tlb>>,
    rng: SimRng,
    next_tick: u64,
    acct: Accounting,
    sched: Scheduler,
    gc: GcDriver,
    observers: ObserverSet,
    /// Next virtual time an attached `IntervalSampler` wants the
    /// counter tree snapshotted (`u64::MAX` when nothing samples).
    next_sample: u64,
    /// Sampled-simulation state, present between `begin_sampling` and
    /// `end_sampling`. When its `fast` flag is set, steps take the
    /// functional fast-forward path instead of detailed timing.
    sampling: Option<Box<SamplingState>>,
}

/// Sink wiring one step's references into the memory system and a CPU
/// timer, optionally through a TLB, and past the attached observers.
struct StepSink<'a> {
    mem: &'a mut MemorySystem,
    timer: &'a mut CpuTimer,
    tlb: Option<&'a mut Tlb>,
    cpu: usize,
    observers: &'a mut ObserverSet,
    source: AccessSource,
    base_clock: u64,
    start_cycles: u64,
    /// Whether the memory backend wants the requester's clock before
    /// each access ([`MemorySystem::needs_clock`]); cached so flat
    /// backends pay nothing on the hot path.
    clocked: bool,
    /// Signature accumulator during a sampled run (detailed units are
    /// fingerprinted too, so cluster assignment sees every unit).
    sig: Option<&'a mut SignatureCollector>,
}

// The per-reference methods are `#[inline(always)]` so that the trait's
// `sweep` and `fetch_code`, compiled for this sink, run each line of a
// range or code run without a call.
impl MemSink for StepSink<'_> {
    #[inline(always)]
    fn instructions(&mut self, n: u64) {
        self.timer.retire(n);
        if let Some(sig) = &mut self.sig {
            sig.instructions(n);
        }
        if self.observers.watches_refs() {
            self.observers.instructions(self.cpu, n, self.source);
        }
    }

    fn access(&mut self, kind: AccessKind, addr: Addr) {
        self.reference(kind, addr);
    }

    #[inline(always)]
    fn load(&mut self, addr: Addr) {
        self.reference(AccessKind::Load, addr);
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr) {
        self.reference(AccessKind::Store, addr);
    }

    #[inline(always)]
    fn ifetch(&mut self, addr: Addr) {
        self.reference(AccessKind::Ifetch, addr);
    }
}

impl StepSink<'_> {
    /// One reference, inlined into each `MemSink` entry point so the
    /// ones with a fixed kind resolve every `kind` branch here and in
    /// [`MemorySystem::access`] at compile time.
    #[inline(always)]
    fn reference(&mut self, kind: AccessKind, addr: Addr) {
        if let Some(sig) = &mut self.sig {
            sig.access(self.cpu, kind, addr);
        }
        if kind.is_data() {
            if let Some(tlb) = &mut self.tlb {
                let stall = tlb.access(addr);
                if stall > 0 {
                    self.timer.stall_extra(stall);
                }
            }
        }
        if self.clocked {
            // The issuing processor's clock at this access: step-start
            // clock plus cycles charged so far within the step.
            self.mem
                .set_now(self.base_clock + (self.timer.cycles() - self.start_cycles));
        }
        let outcome = self.mem.access(self.cpu, kind, addr);
        let charge = match kind {
            AccessKind::Ifetch => self.timer.ifetch(&outcome),
            AccessKind::Load => self.timer.load(&outcome),
            AccessKind::Store => self.timer.store(&outcome),
        };
        if self.observers.watches_refs() {
            // The issuing processor's time: its clock at step start plus
            // the cycles the timer has charged since (including this
            // access's own latency, so a c2c lands in the bucket where
            // the transfer completed).
            let now = self.base_clock + (self.timer.cycles() - self.start_cycles);
            self.observers.access(&AccessEvent {
                cpu: self.cpu,
                kind,
                addr,
                outcome: &outcome,
                now,
                source: self.source,
                charge,
            });
        }
    }
}

impl<W: Workload> Machine<W> {
    /// Builds a machine around a workload.
    ///
    /// # Panics
    ///
    /// Panics if the processor set is empty or exceeds the machine size.
    pub fn new(cfg: MachineConfig, workload: W) -> Self {
        let cpus = cfg.hierarchy.cpus;
        let sched = Scheduler::new(
            sysos::sched::ProcessorSet::first_n(cfg.pset, cpus),
            cpus,
            workload.thread_count(),
            workload.lock_table(),
        );
        Machine {
            mem: MemorySystem::new(cfg.hierarchy),
            timers: (0..cpus)
                .map(|_| CpuTimer::new(cfg.pipeline, cfg.latency))
                .collect(),
            tlbs: cfg.tlb.map(|t| (0..cpus).map(|_| Tlb::new(t)).collect()),
            rng: SimRng::seed_from_u64(cfg.seed),
            next_tick: TICK_PERIOD,
            acct: Accounting::new(cpus),
            sched,
            gc: GcDriver::new(),
            observers: ObserverSet::new(),
            next_sample: u64::MAX,
            sampling: None,
            workload,
            cfg,
        }
    }

    /// The workload (for inspection).
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Mutable workload access (e.g. re-tuning between windows).
    pub(crate) fn workload_mut(&mut self) -> &mut W {
        &mut self.workload
    }

    /// The memory system (for inspection).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Drains the memory backend's buffered DRAM queue-stall episodes
    /// `(start, end)` for the run-observatory timeline. Empty unless
    /// the banked-DRAM backend is configured and stalled.
    pub fn take_dram_stall_episodes(&mut self) -> Vec<(u64, u64)> {
        self.mem.take_dram_stall_episodes()
    }

    /// The clock/mode accounting (for inspection).
    pub(crate) fn accounting(&self) -> &Accounting {
        &self.acct
    }

    /// Processors in the benchmark's set.
    pub(crate) fn pset_cpus(&self) -> &[usize] {
        self.sched.pset().cpus()
    }

    /// CPI report of one processor's timer.
    pub(crate) fn timer_report(&self, cpu: usize) -> CpiReport {
        self.timers[cpu].report()
    }

    /// Attaches an observer; redeem the handle after the run with
    /// [`Machine::observer`]. An observer that asks for interval
    /// sampling ([`SimObserver::interval_cycles`]) is baselined with
    /// the current counter tree immediately.
    pub fn attach_observer<T: SimObserver>(&mut self, observer: T) -> ObserverHandle<T> {
        let samples = observer.interval_cycles().is_some();
        let handle = self.observers.attach(observer);
        if samples {
            let now = self.time();
            let snap = self.counters();
            self.observers.get_mut(handle).on_counter_sample(now, &snap);
            self.schedule_sample(now);
        }
        handle
    }

    /// Recomputes the next sampling boundary after `now`.
    fn schedule_sample(&mut self, now: u64) {
        self.next_sample = match self.observers.min_interval() {
            Some(w) => (now / w + 1) * w,
            None => u64::MAX,
        };
    }

    /// Enables the machine's latency histograms: memory-access latency
    /// (costs from the machine's own latency table) and per-store drain
    /// time on every processor. Both reset with `begin_measurement`.
    pub fn enable_latency_hists(&mut self) {
        self.mem.enable_latency_hist(self.cfg.latency);
        for t in &mut self.timers {
            t.enable_drain_hist();
        }
    }

    /// The memory-access latency histogram, if enabled.
    pub fn latency_hist(&self) -> Option<&Histogram> {
        self.mem.latency_hist()
    }

    /// The store drain-time histogram merged over the benchmark's
    /// processors, if enabled.
    pub fn drain_hist(&self) -> Option<Histogram> {
        let mut merged = Histogram::new();
        let mut any = false;
        for &c in self.sched.pset().cpus() {
            if let Some(h) = self.timers[c].drain_hist() {
                merged.merge(h);
                any = true;
            }
        }
        any.then_some(merged)
    }

    /// The observer behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different machine.
    pub fn observer<T: SimObserver>(&self, handle: ObserverHandle<T>) -> &T {
        self.observers.get(handle)
    }

    /// Mutable access to the observer behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different machine.
    pub fn observer_mut<T: SimObserver>(&mut self, handle: ObserverHandle<T>) -> &mut T {
        self.observers.get_mut(handle)
    }

    /// Current virtual time: the slowest running processor's clock (all
    /// processors' progress is bounded below by it).
    pub fn time(&self) -> u64 {
        self.sched.time(&self.acct)
    }

    /// Completed transactions since construction.
    pub fn transactions(&self) -> u64 {
        self.acct.transactions()
    }

    /// Collections since construction.
    pub fn gc_count(&self) -> u64 {
        self.gc.gc_count()
    }

    /// GC intervals `(start, end)` in cycles since the last window reset.
    pub fn gc_intervals(&self) -> &[(u64, u64)] {
        self.gc.intervals()
    }

    /// Background OS clock tick across every machine processor: each
    /// handler dirties a per-processor line and the global run-queue /
    /// time-of-day lines (shared kernel state).
    fn os_tick(&mut self, at: u64) {
        // Kernel lines live in a reserved low region no workload uses.
        const KERNEL_GLOBALS: u64 = 0x0000_F000;
        if self.mem.needs_clock() {
            self.mem.set_now(at);
        }
        let cpus = self.acct.cpus();
        for cpu in 0..cpus {
            let refs = [
                (AccessKind::Store, Addr(KERNEL_GLOBALS)),
                (AccessKind::Load, Addr(KERNEL_GLOBALS + 64)),
                (AccessKind::Store, Addr(0x1_0000 + (cpu as u64) * 64)),
            ];
            for (kind, addr) in refs {
                let outcome = self.mem.access(cpu, kind, addr);
                if self.observers.watches_refs() {
                    self.observers.access(&AccessEvent {
                        cpu,
                        kind,
                        addr,
                        outcome: &outcome,
                        now: at,
                        source: AccessSource::KernelTick,
                        charge: simcpu::StallCharge::default(),
                    });
                }
            }
            // Tick handlers interrupt whatever the cpu is doing.
            self.acct.advance(cpu, ExecMode::System, TICK_COST);
        }
    }

    /// Runs one thread's step on `cpu`; returns the step's control so
    /// callers can decide whether the thread can keep going.
    fn step_thread(&mut self, cpu: usize) -> Control {
        let thread = self.sched.thread_on(cpu).expect("step_thread on busy cpu");
        let fast = self.sampling.as_deref().is_some_and(|s| s.fast);
        let (result, delta) = if fast {
            self.step_fast(thread, cpu)
        } else {
            self.step_detailed(thread, cpu)
        };
        self.acct.advance(cpu, result.mode, delta);

        match result.control {
            Control::Continue => self.sched.maybe_preempt(cpu, &mut self.acct),
            Control::TxDone => {
                self.acct.tx_done();
                self.observers.tx_done(cpu, self.acct.clock(cpu));
                self.sched.maybe_preempt(cpu, &mut self.acct);
            }
            Control::Acquire(lock) => self.sched.acquire(thread, cpu, lock.0, result.mode),
            Control::Release(lock) => self.sched.release(cpu, lock.0, &mut self.acct),
            Control::IoWait(cycles) => {
                let until = self.acct.clock(cpu) + cycles;
                self.sched.sleep(cpu, until);
            }
            Control::NeedsGc => self.run_gc(cpu),
            Control::Done => self.sched.finish(cpu),
        }
        result.control
    }

    /// One step through the detailed timing path (the default).
    fn step_detailed(&mut self, thread: usize, cpu: usize) -> (StepResult, u64) {
        let before = self.timers[cpu].report().cycles();
        let clocked = self.mem.needs_clock();
        let result = {
            let mut sink = StepSink {
                mem: &mut self.mem,
                timer: &mut self.timers[cpu],
                tlb: self.tlbs.as_mut().map(|t| &mut t[cpu]),
                cpu,
                observers: &mut self.observers,
                source: AccessSource::Workload,
                base_clock: self.acct.clock(cpu),
                start_cycles: before,
                clocked,
                sig: self.sampling.as_deref_mut().map(|s| &mut s.sig),
            };
            let mut ctx = StepCtx {
                sink: &mut sink,
                rng: &mut self.rng,
                now: self.acct.clock(cpu),
            };
            self.workload.step(thread, &mut ctx)
        };
        let delta = self.timers[cpu].report().cycles() - before;
        (result, delta)
    }

    /// One step through the functional fast-forward path: the workload
    /// executes exactly as in detail (same RNG draws, same control
    /// flow), but references only warm the caches and charge a
    /// calibrated stall estimate instead of detailed timing.
    fn step_fast(&mut self, thread: usize, cpu: usize) -> (StepResult, u64) {
        let Machine {
            mem,
            workload,
            rng,
            acct,
            sampling,
            ..
        } = self;
        let state = sampling.as_deref_mut().expect("fast step without sampling");
        let mut sink = FastSink::new(mem, state, cpu, acct.clock(cpu));
        let result = {
            let mut ctx = StepCtx {
                sink: &mut sink,
                rng,
                now: acct.clock(cpu),
            };
            workload.step(thread, &mut ctx)
        };
        let delta = sink.charge();
        (result, delta)
    }

    /// Stop-the-world collection on `cpu`.
    fn run_gc(&mut self, cpu: usize) {
        let Machine {
            mem,
            timers,
            tlbs,
            workload,
            observers,
            gc,
            acct,
            sched,
            sampling,
            ..
        } = self;
        let fast = sampling.as_deref().is_some_and(|s| s.fast);
        let (start, end) = if fast {
            let state = sampling.as_deref_mut().expect("fast gc without sampling");
            gc.collect(acct, sched.pset(), cpu, |at| {
                let mut sink = FastSink::new(mem, state, cpu, at);
                workload.collect(&mut sink);
                sink.charge()
            })
        } else {
            let sig = sampling.as_deref_mut().map(|s| &mut s.sig);
            let before = timers[cpu].report().cycles();
            let clocked = mem.needs_clock();
            gc.collect(acct, sched.pset(), cpu, |at| {
                {
                    let mut sink = StepSink {
                        mem,
                        timer: &mut timers[cpu],
                        tlb: tlbs.as_mut().map(|t| &mut t[cpu]),
                        cpu,
                        observers,
                        source: AccessSource::Collector,
                        base_clock: at,
                        start_cycles: before,
                        clocked,
                        sig,
                    };
                    workload.collect(&mut sink);
                }
                timers[cpu].report().cycles() - before
            })
        };
        self.observers.gc_interval(start, end);
    }

    /// Advances the machine until virtual time `horizon`.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (all threads blocked with no sleeper to wake).
    pub fn run_until(&mut self, horizon: u64) {
        loop {
            self.sched.dispatch(&mut self.acct);
            let mut now = self.time();
            if self.sched.running_cpus().next().is_none() {
                // Nothing running: wake the earliest sleeper or give up.
                match self.sched.earliest_wake() {
                    Some(wake) => {
                        self.sched.wake_sleepers(wake);
                        self.sched.dispatch(&mut self.acct);
                        now = self.time().max(now);
                    }
                    None => {
                        assert!(
                            self.sched.has_ready(),
                            "deadlock: no runnable, sleeping or ready thread"
                        );
                        continue;
                    }
                }
            }
            if now >= horizon {
                break;
            }
            self.sched.wake_sleepers(now);
            while self.next_tick <= now {
                let at = self.next_tick;
                self.os_tick(at);
                self.next_tick += TICK_PERIOD;
            }
            // Interval sampling: when virtual time crossed a boundary,
            // snapshot the whole counter tree once and deliver it. The
            // snapshot only *reads* state, so sampling cannot perturb
            // the run (determinism.rs proves bit-identity).
            if now >= self.next_sample {
                let snap = self.counters();
                self.observers.counter_sample(now, &snap);
                self.schedule_sample(now);
            }
            // Step the slowest steppable processor (spinners wait for
            // their lock grant; stepping them would violate the
            // acquire contract).
            let Some(cpu) = self
                .sched
                .steppable_cpus()
                .min_by_key(|&c| self.acct.clock(c))
            else {
                // Only spinners are running: their holders must be among
                // ready/sleeping threads; force progress by dispatching
                // or waking.
                match self.sched.earliest_wake() {
                    Some(wake) => self.sched.wake_sleepers(wake),
                    None => assert!(
                        self.sched.has_ready(),
                        "livelock: every running thread spins and nothing can release"
                    ),
                }
                continue;
            };
            let control = self.step_thread(cpu);
            // Fast-forward batching: a full scheduler round per step
            // would dominate the functional path's cost, so in fast
            // mode a thread that keeps computing is stepped several
            // more times before control returns to the round. The rule
            // is fixed (so determinism is untouched), the batch never
            // crosses the horizon, the next OS tick or the next
            // counter-sample boundary, and it ends the moment the
            // thread blocks, finishes, or is preempted off the cpu.
            if self.sampling.as_deref().is_some_and(|s| s.fast)
                && matches!(control, Control::Continue | Control::TxDone)
            {
                const FAST_BATCH: u32 = 16;
                let bound = horizon.min(self.next_tick).min(self.next_sample);
                for _ in 1..FAST_BATCH {
                    if self.acct.clock(cpu) >= bound || self.sched.thread_on(cpu).is_none() {
                        break;
                    }
                    match self.step_thread(cpu) {
                        Control::Continue | Control::TxDone => {}
                        _ => break,
                    }
                }
            }
        }
        // Close the books: idle-fill every benchmark processor to the
        // horizon so mode fractions cover the whole window.
        for &c in self.sched.pset().cpus() {
            self.acct.fill(c, horizon, ExecMode::Idle);
        }
    }

    /// Ends the warm-up phase: resets all measured statistics while
    /// keeping caches, heap and scheduler state warm.
    pub fn begin_measurement(&mut self) {
        self.mem.reset_stats();
        self.workload.reset_response_hist();
        for t in &mut self.timers {
            t.reset();
        }
        let now = self.time();
        self.acct.begin_window(now);
        self.gc.begin_window();
        self.observers.window_reset(now);
        // Re-baseline any interval samplers on the freshly reset
        // counters so the first interval starts at the window edge.
        if self.observers.min_interval().is_some() {
            let snap = self.counters();
            self.observers.counter_sample(now, &snap);
            self.schedule_sample(now);
        }
    }

    /// Arms the sampled-execution machinery: the functional
    /// fast-forward clock charges `base_q8` (Q56.8 cycles per
    /// reference, the calibrated short-stall share) plus the machine's
    /// own latency-table cost per warming-access outcome. The machine
    /// starts in detailed mode; flip with [`Machine::set_fast_forward`].
    pub(crate) fn begin_sampling(&mut self, base_q8: u64) {
        self.sampling = Some(Box::new(SamplingState::new(base_q8, self.cfg.latency)));
    }

    /// Tears the sampled-execution machinery down (detailed stepping
    /// resumes unconditionally).
    pub(crate) fn end_sampling(&mut self) {
        self.sampling = None;
    }

    /// Switches between functional fast-forward and detailed stepping.
    ///
    /// # Panics
    ///
    /// Panics unless [`Machine::begin_sampling`] armed the machinery.
    pub(crate) fn set_fast_forward(&mut self, on: bool) {
        self.sampling
            .as_deref_mut()
            .expect("set_fast_forward without begin_sampling")
            .fast = on;
    }

    /// The fast path's current per-reference short-stall estimate (Q8).
    pub(crate) fn fast_base_q8(&self) -> u64 {
        self.sampling.as_deref().map_or(0, |s| s.base_q8)
    }

    /// Re-calibrates the fast path's per-reference short-stall estimate.
    pub(crate) fn set_fast_base_q8(&mut self, q8: u64) {
        if let Some(s) = self.sampling.as_deref_mut() {
            s.base_q8 = q8;
        }
    }

    /// Adjusts the functional-warming subsample factor mid-run (the
    /// pre-warming ramp ahead of a scheduled detailed unit warms every
    /// reference).
    pub(crate) fn set_warm_every(&mut self, n: u32) {
        if let Some(s) = self.sampling.as_deref_mut() {
            s.warm_every = n;
        }
    }

    /// Drains the signature counters accumulated since the last drain
    /// (zeroes if sampling is not armed).
    pub(crate) fn drain_signature(&mut self) -> SigCounts {
        self.sampling
            .as_deref_mut()
            .map(|s| s.sig.drain())
            .unwrap_or_default()
    }

    /// GC cycles since the last window reset.
    pub(crate) fn window_gc_cycles(&self) -> u64 {
        self.gc.window_gc_cycles()
    }

    /// Brings a clocked memory backend's notion of "now" up to virtual
    /// time — after a fast-forwarded span, the DRAM clock would
    /// otherwise lag and the next detailed access would see a
    /// phantom-busy queue.
    pub(crate) fn sync_memory_clock(&mut self) {
        if self.mem.needs_clock() {
            let now = self.time();
            self.mem.set_now(now);
        }
    }

    /// Produces the report for the current measurement window.
    pub fn window_report(&self) -> WindowReport {
        let cycles = self.time().saturating_sub(self.acct.window_start());
        let mut cpi = CpiReport::default();
        for &c in self.sched.pset().cpus() {
            cpi = cpi.merge(&self.timers[c].report());
        }
        WindowReport {
            transactions: self.acct.window_transactions(),
            cycles,
            cpi,
            modes: self.acct.pset_breakdown(self.sched.pset()),
            gc_cycles: self.gc.window_gc_cycles(),
            gc_count: self.gc.window_gc_count(),
            c2c_ratio: self.mem.stats().c2c_ratio(),
            snoop_filter_rate: self.mem.bus_stats().snoop_filter_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::model::LockDesc;

    /// One thread that does no work: it naps in short I/O waits for the
    /// whole run, so OS clock ticks are the only busy time.
    struct Napper;

    impl Workload for Napper {
        fn thread_count(&self) -> usize {
            1
        }

        fn lock_table(&self) -> Vec<LockDesc> {
            Vec::new()
        }

        fn step(&mut self, _: usize, _: &mut StepCtx<'_>) -> StepResult {
            StepResult::user(Control::IoWait(TICK_PERIOD / 10))
        }

        fn collect(&mut self, _: &mut dyn MemSink) {}

        fn heap_after_last_gc(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn every_processor_pays_each_clock_tick_once() {
        let horizon = 40 * TICK_PERIOD + TICK_PERIOD / 2;
        let ticks = horizon / TICK_PERIOD;
        let mut m = Machine::new(MachineConfig::e6000(1), Napper);
        m.run_until(horizon);
        let cpus = m.acct.cpus();
        assert_eq!(
            m.acct.mode_total(ExecMode::System),
            cpus as u64 * ticks * TICK_COST,
            "system time is the tick handlers alone"
        );
        // The processors outside the benchmark's set run nothing else:
        // each clock is its own tick time, so processor 0 holds the rest.
        for cpu in 1..cpus {
            assert_eq!(m.acct.clock(cpu), ticks * TICK_COST, "cpu {cpu}");
        }
    }

    /// Every observer that overrides a per-reference hook must opt in
    /// through `watches_refs`; a forgotten opt-in drops its data
    /// silently, so each one's totals are checked against the memory
    /// system's and the timers' own.
    #[test]
    fn reference_watchers_see_every_reference() {
        use crate::engine::{AttribProfiler, LineStatsObserver, SweepObserver, TraceObserver};
        use crate::experiment::{jbb_machine, Effort};
        use memsys::{CacheSweep, RegionMap};

        let mut m = jbb_machine(4, 4, 1, Effort::Quick);
        let trace = m.attach_observer(TraceObserver::new());
        let sweep = m.attach_observer(SweepObserver::new(
            CacheSweep::new(&[1 << 16]).unwrap(),
            CacheSweep::new(&[1 << 16]).unwrap(),
        ));
        let lines = m.attach_observer(LineStatsObserver::new());
        let attrib = m.attach_observer(AttribProfiler::new(RegionMap::new(), 1.0));
        m.run_until(3 * TICK_PERIOD + TICK_PERIOD / 2);

        let stats = m.memory().stats();
        let refs = stats.total_accesses();
        let tick_refs = 3 * m.acct.cpus() as u64 * (m.next_tick / TICK_PERIOD - 1);
        let reports: Vec<CpiReport> = (0..m.acct.cpus()).map(|c| m.timer_report(c)).collect();
        let instructions: u64 = reports.iter().map(|r| r.instructions).sum();
        let stalls: u64 = reports
            .iter()
            .map(|r| r.instr_stall + r.data_stall.total())
            .sum();
        assert!(tick_refs > 0 && refs > tick_refs && stats.total_c2c() > 0);

        let t = m.observer(trace).trace();
        assert_eq!((t.refs(), t.instructions()), (refs, instructions));
        let s = m.observer(sweep);
        let swept = s.isweep().results()[0].1.accesses + s.dsweep().results()[0].1.accesses;
        assert_eq!(swept, refs - tick_refs, "the sweep skips kernel ticks");
        assert_eq!(m.observer(lines).stats().total_c2c(), stats.total_c2c());
        // With a base CPI of 1 the base rows count retired instructions;
        // every other row is a stall the timers charged.
        let (base, stalled) = m.observer(attrib).folded().into_iter().fold(
            (0, 0),
            |(base, stalled), (stack, cycles)| {
                if stack.ends_with(";other;base;all") {
                    (base + cycles, stalled)
                } else {
                    (base, stalled + cycles)
                }
            },
        );
        assert_eq!((base, stalled), (instructions, stalls));
    }
}
