//! The unified observation seam: [`SimObserver`].
//!
//! The engine emits a small set of events — every memory reference (with
//! its coherence outcome), every completed transaction, every GC interval
//! — and anything that wants to *watch* a run attaches an observer
//! instead of growing the machine a bespoke method. The Figure 10
//! timeline, the Figure 12/13 cache-size sweeps and the Figure 14/15
//! communication footprints are all observers; future tracing and
//! sampling hooks attach the same way.
//!
//! Observers are deliberately downstream of [`memsys::MemSink`]: a sink
//! is *in* the reference path (the workload pushes references through it
//! into the memory system and the CPU timer), while an observer stands
//! beside the path and sees each reference together with what the memory
//! system said about it.

use std::any::Any;
use std::marker::PhantomData;

use memsys::{AccessKind, AccessOutcome, Addr, CacheSweep, LineStats};
use probes::runlog::EventRecord;
use probes::Snapshot;
use simcpu::StallCharge;

// The source tag lives with the trace machinery in `memsys` (captured
// streams carry it); it is re-exported here because the observer seam is
// where the engine applies it.
pub use memsys::AccessSource;

/// One observed memory reference.
#[derive(Debug, Clone, Copy)]
pub struct AccessEvent<'a> {
    /// Processor that issued the reference.
    pub cpu: usize,
    /// Reference kind.
    pub kind: AccessKind,
    /// Referenced address.
    pub addr: Addr,
    /// What the memory system did with it.
    pub outcome: &'a AccessOutcome,
    /// The issuing processor's virtual time in cycles.
    pub now: u64,
    /// Which part of the simulated system issued it.
    pub source: AccessSource,
    /// The stall cycles the CPU timer charged for this access (zero for
    /// references outside any timer, e.g. kernel clock ticks).
    pub charge: StallCharge,
}

/// A passive observer of a machine's execution.
///
/// All methods default to no-ops so an observer implements only what it
/// watches. The `Any` supertrait lets the machine hand back a typed
/// reference via [`ObserverHandle`] after the run.
pub trait SimObserver: Any {
    /// Called for every memory reference, after the memory system
    /// resolved it.
    fn on_access(&mut self, _event: &AccessEvent<'_>) {}

    /// Whether this observer watches individual references through
    /// [`SimObserver::on_access`] or [`SimObserver::on_instructions`].
    /// Asked once at attach. The default is `false`, so an observer that
    /// only samples counters or watches coarse events costs nothing per
    /// reference; one that overrides either hook must return `true`, or
    /// the per-reference path never calls it.
    fn watches_refs(&self) -> bool {
        false
    }

    /// Called when `cpu` retires `n` instructions that make no memory
    /// reference, tagged with the source of the executing step.
    fn on_instructions(&mut self, _cpu: usize, _n: u64, _source: AccessSource) {}

    /// Called when a stop-the-world collection finishes, with its
    /// `[start, end)` interval in cycles.
    fn on_gc_interval(&mut self, _start: u64, _end: u64) {}

    /// Called when a transaction completes on `cpu` at time `now`.
    fn on_tx_done(&mut self, _cpu: usize, _now: u64) {}

    /// Called by `begin_measurement` with the current virtual time:
    /// discard warm-up observations.
    fn on_window_reset(&mut self, _now: u64) {}

    /// The simulated-cycle interval at which this observer wants
    /// whole-machine counter snapshots delivered via
    /// [`SimObserver::on_counter_sample`]. `None` (the default) means
    /// the kernel never samples for this observer.
    fn interval_cycles(&self) -> Option<u64> {
        None
    }

    /// Delivers the cumulative whole-machine counter snapshot at
    /// virtual time `now`. The kernel calls this once when the observer
    /// attaches / the window resets (the baseline) and then whenever
    /// virtual time crosses a sampling boundary.
    fn on_counter_sample(&mut self, _now: u64, _counters: &Snapshot) {}
}

/// A typed handle to an attached observer, returned by
/// `Machine::attach_observer` and redeemed after the run.
pub struct ObserverHandle<T> {
    pub(crate) index: usize,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

// Derived impls would bound `T`; handles are plain indices.
impl<T> Clone for ObserverHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ObserverHandle<T> {}

/// The machine's collection of attached observers.
#[derive(Default)]
pub struct ObserverSet {
    observers: Vec<Box<dyn SimObserver>>,
    /// Indices of the observers that watch references
    /// ([`SimObserver::watches_refs`]), in attach order.
    refs: Vec<usize>,
}

impl ObserverSet {
    /// An empty set.
    pub(crate) fn new() -> Self {
        ObserverSet::default()
    }

    /// Whether any attached observer watches references (lets the hot
    /// path skip event construction entirely).
    #[inline]
    pub(crate) fn watches_refs(&self) -> bool {
        !self.refs.is_empty()
    }

    /// Attaches an observer, returning its typed handle.
    pub(crate) fn attach<T: SimObserver>(&mut self, observer: T) -> ObserverHandle<T> {
        let index = self.observers.len();
        if observer.watches_refs() {
            self.refs.push(index);
        }
        self.observers.push(Box::new(observer));
        ObserverHandle {
            index,
            _marker: PhantomData,
        }
    }

    /// The observer behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different machine.
    pub(crate) fn get<T: SimObserver>(&self, handle: ObserverHandle<T>) -> &T {
        let obs: &dyn Any = &*self.observers[handle.index];
        obs.downcast_ref::<T>()
            .expect("observer handle type mismatch")
    }

    /// Mutable access to the observer behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different machine.
    pub(crate) fn get_mut<T: SimObserver>(&mut self, handle: ObserverHandle<T>) -> &mut T {
        let obs: &mut dyn Any = &mut *self.observers[handle.index];
        obs.downcast_mut::<T>()
            .expect("observer handle type mismatch")
    }

    #[inline]
    pub(crate) fn access(&mut self, event: &AccessEvent<'_>) {
        for &i in &self.refs {
            self.observers[i].on_access(event);
        }
    }

    #[inline]
    pub(crate) fn instructions(&mut self, cpu: usize, n: u64, source: AccessSource) {
        for &i in &self.refs {
            self.observers[i].on_instructions(cpu, n, source);
        }
    }

    pub(crate) fn gc_interval(&mut self, start: u64, end: u64) {
        for o in &mut self.observers {
            o.on_gc_interval(start, end);
        }
    }

    #[inline]
    pub(crate) fn tx_done(&mut self, cpu: usize, now: u64) {
        for o in &mut self.observers {
            o.on_tx_done(cpu, now);
        }
    }

    pub(crate) fn window_reset(&mut self, now: u64) {
        for o in &mut self.observers {
            o.on_window_reset(now);
        }
    }

    /// Smallest sampling interval any attached observer asked for.
    pub(crate) fn min_interval(&self) -> Option<u64> {
        self.observers
            .iter()
            .filter_map(|o| o.interval_cycles())
            .min()
    }

    pub(crate) fn counter_sample(&mut self, now: u64, counters: &Snapshot) {
        for o in &mut self.observers {
            if o.interval_cycles().is_some() {
                o.on_counter_sample(now, counters);
            }
        }
    }
}

/// One emitted interval of an [`IntervalSampler`]: counter deltas over
/// `[start, end)` cycles with a GC-overlap flag.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Sequence number (0 first).
    pub seq: usize,
    /// Interval start in cycles.
    pub start: u64,
    /// Interval end in cycles (exclusive).
    pub end: u64,
    /// Whether a stop-the-world collection overlapped the interval.
    pub gc: bool,
    /// Counter deltas over the interval (`Ratio` counters carry the
    /// end-of-interval value).
    pub counters: Snapshot,
}

impl IntervalSample {
    /// Interval width in cycles (always positive).
    pub(crate) fn width(&self) -> u64 {
        self.end - self.start
    }

    /// One counter's per-million-cycle rate over the interval.
    pub fn rate_per_mcycle(&self, name: &str) -> f64 {
        self.counters.get(name).unwrap_or(0) as f64 * 1e6 / self.width() as f64
    }
}

/// Samples the *entire* registered counter tree (`mem.*`, `bus.*`,
/// `cpustat.*`, `acct.*`) every `width` simulated cycles and records
/// per-interval deltas with GC-active annotation — the `mpstat -p N`
/// of the simulator, generalizing the one-metric timeline observer the
/// Figure 10 driver used to carry.
///
/// The kernel drives the sampling: it polls [`SimObserver::interval_cycles`],
/// builds one whole-machine snapshot whenever virtual time crosses a
/// boundary, and delivers it through [`SimObserver::on_counter_sample`].
/// Because a single step (a long GC pause, a sleep) can jump virtual
/// time past a boundary, emitted intervals are *at least* `width` wide
/// and carry their actual `[start, end)` — consumers normalize by
/// `IntervalSample::width`, never by the nominal width.
#[derive(Debug, Clone, Default)]
pub struct IntervalSampler {
    width: u64,
    last: Option<(u64, Snapshot)>,
    samples: Vec<IntervalSample>,
    gc_intervals: Vec<(u64, u64)>,
}

impl IntervalSampler {
    /// Creates a sampler with the given nominal interval width in
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "sampling interval must be positive");
        IntervalSampler {
            width,
            last: None,
            samples: Vec::new(),
            gc_intervals: Vec::new(),
        }
    }

    /// The emitted intervals, in time order.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }
}

impl SimObserver for IntervalSampler {
    fn interval_cycles(&self) -> Option<u64> {
        Some(self.width)
    }

    fn on_counter_sample(&mut self, now: u64, counters: &Snapshot) {
        match &mut self.last {
            None => self.last = Some((now, counters.clone())),
            Some((start, prev)) => {
                if now <= *start {
                    // A same-instant re-baseline (attach followed by
                    // an immediate boundary): refresh, emit nothing.
                    *prev = counters.clone();
                    return;
                }
                let delta = counters.delta(prev);
                let gc = self
                    .gc_intervals
                    .iter()
                    .any(|&(s, e)| s < now && e > *start);
                self.samples.push(IntervalSample {
                    seq: self.samples.len(),
                    start: *start,
                    end: now,
                    gc,
                    counters: delta,
                });
                *start = now;
                *prev = counters.clone();
            }
        }
    }

    fn on_gc_interval(&mut self, start: u64, end: u64) {
        self.gc_intervals.push((start, end));
    }

    fn on_window_reset(&mut self, _now: u64) {
        self.samples.clear();
        self.gc_intervals.clear();
        self.last = None;
    }
}

/// Feeds every *benchmark* reference into banks of caches of varying
/// capacity in a single pass (Figures 12/13). Kernel-tick references are
/// excluded, as the paper filters its traces to the benchmark's
/// processors (Section 3.3).
#[derive(Debug, Clone)]
pub struct SweepObserver {
    isweep: CacheSweep,
    dsweep: CacheSweep,
}

impl SweepObserver {
    /// Creates the observer from an instruction and a data sweep.
    pub(crate) fn new(isweep: CacheSweep, dsweep: CacheSweep) -> Self {
        SweepObserver { isweep, dsweep }
    }

    /// Both sweeps at the paper's capacity axis.
    pub(crate) fn paper() -> Self {
        SweepObserver::new(CacheSweep::paper(), CacheSweep::paper())
    }

    /// The instruction-cache sweep.
    pub(crate) fn isweep(&self) -> &CacheSweep {
        &self.isweep
    }

    /// The data-cache sweep.
    pub(crate) fn dsweep(&self) -> &CacheSweep {
        &self.dsweep
    }
}

impl SimObserver for SweepObserver {
    fn watches_refs(&self) -> bool {
        true
    }

    fn on_access(&mut self, event: &AccessEvent<'_>) {
        if event.source == AccessSource::KernelTick {
            return;
        }
        if event.kind.is_data() {
            self.dsweep.access(event.addr);
        } else {
            self.isweep.access(event.addr);
        }
    }

    fn on_window_reset(&mut self, _now: u64) {
        self.isweep.reset_stats();
        self.dsweep.reset_stats();
    }
}

/// Tracks per-line communication (Figures 14/15): which lines were
/// touched and which supplied cache-to-cache transfers.
#[derive(Debug, Clone, Default)]
pub struct LineStatsObserver {
    stats: LineStats,
}

impl LineStatsObserver {
    /// An empty tracker.
    pub(crate) fn new() -> Self {
        LineStatsObserver::default()
    }

    /// The accumulated per-line statistics.
    pub(crate) fn stats(&self) -> &LineStats {
        &self.stats
    }
}

impl SimObserver for LineStatsObserver {
    fn watches_refs(&self) -> bool {
        true
    }

    fn on_access(&mut self, event: &AccessEvent<'_>) {
        let line = event.addr.line();
        self.stats.record_touch(line);
        if event.outcome.c2c {
            self.stats.record_c2c(line);
        }
    }

    fn on_window_reset(&mut self, _now: u64) {
        self.stats.reset();
    }
}

/// Collects the run observatory's sim-time events — GC pauses as
/// `gc.pause` spans and measurement-window resets as `window.reset`
/// instants — for the Chrome-trace timeline. The collector stands on
/// the same seams the interval sampler does, so attaching it changes
/// nothing on the access path, and [`TimelineCollector::to_records`]
/// is called on the worker thread after the job body finishes, off the
/// input-order merge (the bit-identity discipline of the RunLog).
///
/// Unlike the statistics observers, a window reset does *not* discard
/// what came before it: the reset itself is an event worth seeing on
/// the timeline (warm-up GC behavior is part of the story the paper's
/// Figure 10 tells), so the collector keeps the full history and marks
/// the reset with an instant.
#[derive(Debug, Clone, Default)]
pub struct TimelineCollector {
    gc_pauses: Vec<(u64, u64)>,
    window_resets: Vec<u64>,
}

impl TimelineCollector {
    /// An empty collector.
    pub fn new() -> Self {
        TimelineCollector::default()
    }

    /// Converts the collected events into RunLog `event` records for
    /// job `(run, id)`.
    pub fn to_records(&self, run: usize, id: usize) -> Vec<EventRecord> {
        let mut out = Vec::with_capacity(self.gc_pauses.len() + self.window_resets.len());
        out.extend(self.gc_pauses.iter().map(|&(start, end)| EventRecord {
            run,
            id,
            name: "gc.pause".into(),
            start,
            end,
        }));
        out.extend(self.window_resets.iter().map(|&t| EventRecord {
            run,
            id,
            name: "window.reset".into(),
            start: t,
            end: t,
        }));
        out
    }
}

impl SimObserver for TimelineCollector {
    fn on_gc_interval(&mut self, start: u64, end: u64) {
        self.gc_pauses.push((start, end));
    }

    fn on_window_reset(&mut self, now: u64) {
        self.window_resets.push(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::HitLevel;

    fn c2c_outcome() -> AccessOutcome {
        AccessOutcome {
            level: HitLevel::CacheToCache,
            c2c: true,
            writeback: false,
            mem_cycles: None,
        }
    }

    use probes::registry::{CounterDesc, CounterKind, CounterSet};

    struct Cb(u64);
    impl CounterSet for Cb {
        fn descriptors(&self) -> &'static [CounterDesc] {
            const D: [CounterDesc; 1] = [CounterDesc::new("bus.snoop_cb", CounterKind::Count)];
            &D
        }
        fn values(&self, out: &mut Vec<u64>) {
            let Cb(v) = self;
            out.push(*v);
        }
    }

    #[test]
    fn sampler_emits_deltas_and_marks_gc() {
        let mut s = IntervalSampler::new(100);
        assert_eq!(s.interval_cycles(), Some(100));
        // Baseline at t=0 with cumulative 5, then boundary deliveries.
        s.on_counter_sample(0, &Snapshot::of(&Cb(5)));
        s.on_counter_sample(100, &Snapshot::of(&Cb(25)));
        s.on_gc_interval(150, 180);
        s.on_counter_sample(210, &Snapshot::of(&Cb(26)));
        s.on_counter_sample(300, &Snapshot::of(&Cb(46)));

        let tl = s.samples();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].counters.get("bus.snoop_cb"), Some(20));
        assert_eq!((tl[0].start, tl[0].end), (0, 100));
        assert!(!tl[0].gc, "GC happened after this interval");
        // The long step past the boundary stretched the interval.
        assert_eq!((tl[1].start, tl[1].end), (100, 210));
        assert!(tl[1].gc, "GC [150,180) overlaps [100,210)");
        assert_eq!(tl[1].counters.get("bus.snoop_cb"), Some(1));
        assert!(!tl[2].gc);
        assert_eq!(tl[2].seq, 2);
        assert!((tl[2].rate_per_mcycle("bus.snoop_cb") - 20.0 * 1e6 / 90.0).abs() < 1e-6);

        // A window reset discards everything, including the baseline.
        s.on_window_reset(300);
        assert!(s.samples().is_empty());
        s.on_counter_sample(400, &Snapshot::of(&Cb(50)));
        assert!(
            s.samples().is_empty(),
            "first post-reset sample is the baseline"
        );
    }

    #[test]
    fn sweep_observer_filters_kernel_ticks() {
        let mut s = SweepObserver::new(
            CacheSweep::new(&[1 << 16]).unwrap(),
            CacheSweep::new(&[1 << 16]).unwrap(),
        );
        let o = AccessOutcome {
            level: HitLevel::Memory,
            c2c: false,
            writeback: false,
            mem_cycles: None,
        };
        let mk = |kind, source| AccessEvent {
            cpu: 0,
            kind,
            addr: Addr(0x40),
            outcome: &o,
            now: 0,
            source,
            charge: StallCharge::default(),
        };
        s.on_access(&mk(AccessKind::Load, AccessSource::Workload));
        s.on_access(&mk(AccessKind::Ifetch, AccessSource::Collector));
        s.on_access(&mk(AccessKind::Store, AccessSource::KernelTick));
        assert_eq!(s.dsweep().results()[0].1.accesses, 1, "tick excluded");
        assert_eq!(s.isweep().results()[0].1.accesses, 1);
    }

    #[test]
    fn observer_set_round_trips_typed_handles() {
        let mut set = ObserverSet::new();
        let h = set.attach(IntervalSampler::new(10));
        assert_eq!(set.min_interval(), Some(10));
        set.counter_sample(0, &Snapshot::of(&Cb(0)));
        set.counter_sample(10, &Snapshot::of(&Cb(4)));
        assert_eq!(set.get(h).samples().len(), 1);
        assert_eq!(
            set.get(h).samples()[0].counters.get("bus.snoop_cb"),
            Some(4)
        );
        set.window_reset(10);
        assert!(set.get(h).samples().is_empty());
    }

    #[test]
    fn counter_only_observers_stay_off_the_reference_path() {
        /// Overrides only the sampling hooks, like a host-clock reader.
        struct Clock(u64);
        impl SimObserver for Clock {
            fn interval_cycles(&self) -> Option<u64> {
                Some(100)
            }
            fn on_counter_sample(&mut self, now: u64, _counters: &Snapshot) {
                self.0 = now;
            }
        }
        let mut set = ObserverSet::new();
        let clock = set.attach(Clock(0));
        set.attach(IntervalSampler::new(10));
        set.attach(TimelineCollector::new());
        assert!(!set.watches_refs());
        set.counter_sample(300, &Snapshot::of(&Cb(0)));
        assert_eq!(set.get(clock).0, 300, "sampling still reaches it");
        set.attach(LineStatsObserver::new());
        assert!(set.watches_refs(), "an on_access observer opts in");
    }

    #[test]
    fn timeline_collector_keeps_history_across_resets() {
        let mut tc = TimelineCollector::new();
        tc.on_gc_interval(100, 400);
        tc.on_window_reset(500);
        tc.on_gc_interval(900, 1200);

        let recs = tc.to_records(2, 3);
        assert_eq!(recs.len(), 3);
        assert!(recs
            .iter()
            .all(|r| (r.run, r.id) == (2, 3) && r.end >= r.start));
        let reset = recs.iter().find(|r| r.name == "window.reset").unwrap();
        assert_eq!((reset.start, reset.end), (500, 500), "instant event");
        let pauses: Vec<(u64, u64)> = recs
            .iter()
            .filter(|r| r.name == "gc.pause")
            .map(|r| (r.start, r.end))
            .collect();
        assert_eq!(
            pauses,
            [(100, 400), (900, 1200)],
            "warm-up GC survives the reset"
        );
    }

    #[test]
    fn line_stats_observer_tracks_touch_and_c2c() {
        let mut ls = LineStatsObserver::new();
        let hit = AccessOutcome {
            level: HitLevel::L1,
            c2c: false,
            writeback: false,
            mem_cycles: None,
        };
        let c2c = c2c_outcome();
        let mk = |addr, outcome| AccessEvent {
            cpu: 0,
            kind: AccessKind::Load,
            addr: Addr(addr),
            outcome,
            now: 0,
            source: AccessSource::Workload,
            charge: StallCharge::default(),
        };
        ls.on_access(&mk(0x00, &hit));
        ls.on_access(&mk(0x40, &c2c));
        ls.on_access(&mk(0x40, &c2c));
        assert_eq!(ls.stats().touched_lines(), 2);
        assert_eq!(ls.stats().communicating_lines(), 1);
        assert_eq!(ls.stats().total_c2c(), 2);
    }
}
