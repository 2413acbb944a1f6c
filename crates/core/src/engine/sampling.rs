//! Sampled simulation: signature-picked sample units, functional
//! fast-forward, and CI-bounded extrapolation.
//!
//! The full-detail spine simulates every cycle of every window. This
//! module adds the statistical alternative the paper's own methodology
//! (and the SMARTS/SimPoint line of work) uses for long middleware
//! runs:
//!
//! 1. the measurement window is segmented into fixed-cycle **units**;
//! 2. every unit — fast or detailed — is fingerprinted with a
//!    **memory-access-signature vector** (reference mix, working-set
//!    reuse, cross-processor sharing, GC activity, transaction rate),
//!    following the "Memory Access Vectors" insight that memory-system
//!    fidelity needs samples picked by access signature, not just
//!    instruction position;
//! 3. units are **clustered online** (deterministic leader clustering —
//!    no RNG is consumed, so sampled runs stay bit-identical at any
//!    plan worker count) and representatives of each cluster are
//!    simulated in detail, each behind a detailed warming prefix;
//! 4. the remaining units **fast-forward functionally**: the workload
//!    executes every step (so heap, scheduler, locks and transaction
//!    counts stay exact) and every `WARM_EVERY`-th reference runs as a
//!    real, timing-discarded access so cache contents, MESI sharer
//!    state and dirty lines keep evolving; time advances by
//!    **outcome-weighted charging** — each warming access is charged
//!    the same latency-table cost the detailed timer would have used
//!    for its hit level, so a miss-heavy thread's fast clock runs as
//!    slow as its detailed clock would (a flat per-reference average
//!    distorts thread interleaving);
//! 5. per-unit measurements extrapolate to the whole window via
//!    [`simstats::extrapolate`] — cluster populations are the stratum
//!    weights and every point estimate carries a confidence interval.
//!
//! What is counted and what is estimated: transaction counts, GC
//! activity and mode fractions are *counted* over the sampled run's own
//! trajectory (the workload runs for the whole window); timing-derived
//! metrics — CPI, miss rates, latency distributions — are *estimated*
//! from the detailed units, which is what the differential validator
//! (`figures validate-sampled`) bounds against a full run. The counts
//! are not the full run's: fast-forward timing changes the thread
//! interleaving, so the trajectory itself differs. On the quick-effort
//! ECperf sweep, sampled runs read a 4p speedup of 2.67 against 3.80
//! in full detail, and a 4p system share of 33.8% against 13.9%.

use memsys::{AccessKind, Addr, MemSink, MemorySystem};
use probes::registry::Snapshot;
use probes::runlog::{EventRecord, SampleUnitRecord};
use probes::Histogram;
use simcpu::{CpiReport, LatencyTable};
use simstats::extrapolate::{stratified, Estimate, Stratum};
use workloads::model::Workload;

use super::accounting::WindowReport;
use super::kernel::Machine;

/// The sampled-execution schedule, scaled to one measurement window.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Cycle width of one sample unit.
    unit_cycles: u64,
    /// Stratified floor: at least this many units are measured, spread
    /// across the window by stride.
    min_units: usize,
    /// Soft ceiling on stride-selected measured units (newly discovered
    /// clusters may still claim detail past it).
    max_units: usize,
    /// Detailed calibration prefix at the start of warm-up, from which
    /// the fast path's short-stall (store-buffer + RAW-hazard)
    /// per-reference estimate is derived.
    calibration_cycles: u64,
}

impl SamplingConfig {
    /// The schedule for a measurement window of `window` cycles. The
    /// floor matters at quick effort: units below ~1M cycles measure
    /// mostly their own warming transient and the error bound slips.
    pub fn for_window(window: u64) -> Self {
        let unit_cycles = (window / 100).max(1_000_000);
        // Coverage scales with the schedule length: long windows (many
        // units) keep at least ~1 measured unit in 4 so no stratum's
        // weight rests on a single noisy measurement.
        let total_units = (window / unit_cycles).max(1) as usize;
        let min_units = 10.max(total_units / 4);
        SamplingConfig {
            unit_cycles,
            min_units,
            max_units: 2 * min_units,
            calibration_cycles: 2_000_000.min(window / 4).max(250_000),
        }
    }
}

/// Euclidean distance below which a unit joins an existing signature
/// cluster instead of founding a new one.
const THRESHOLD: f64 = 0.20;
/// Every n-th fast-path reference executes as a real (timing-discarded)
/// access. Subsampling keeps the functional-warming cost bounded while
/// cache contents, sharer state and dirty lines still evolve; each
/// warming access charges its outcome's cost times this factor,
/// standing in for the skipped references.
const WARM_EVERY: u32 = 4;
/// Units after a collection that are forced into detail and binned as
/// their own *recovery* stratum. The post-GC cold-cache transient (the
/// collector evicted the mutators' working set) carries a miss rate far
/// above steady state while its *behavior* signature looks perfectly
/// ordinary — left to signature clustering, one measured recovery unit
/// poisons the dominant steady-state stratum's mean and biases every
/// miss-rate estimate high. The transient decays over a few Mcycles — a
/// few units at any window length, since units scale with the window.
const RECOVERY_UNITS: usize = 3;

/// Table slots in the signature working-set sketch (direct-mapped).
const SIG_TABLE: usize = 4096;
/// Sentinel for an empty sketch slot.
const SIG_EMPTY: u64 = u64::MAX;
/// Feature-vector dimension.
pub const SIG_DIMS: usize = 7;

/// Accumulates the memory-access signature of the unit in flight.
///
/// The working-set sketch is a direct-mapped table of (line, last-cpu)
/// pairs: a re-reference that still finds its line is a short-reuse
/// hit, and one that finds it last touched by a *different* processor
/// is the sharing signal (the Figure 8+ communication dimension). The
/// sketch persists across units — like the caches it proxies — while
/// the counters drain at every unit boundary.
pub struct SignatureCollector {
    instrs: u64,
    loads: u64,
    stores: u64,
    ifetches: u64,
    reuse_hits: u64,
    shared_hits: u64,
    table: Box<[u64; SIG_TABLE]>,
}

impl SignatureCollector {
    pub(crate) fn new() -> Self {
        SignatureCollector {
            instrs: 0,
            loads: 0,
            stores: 0,
            ifetches: 0,
            reuse_hits: 0,
            shared_hits: 0,
            table: Box::new([SIG_EMPTY; SIG_TABLE]),
        }
    }

    #[inline]
    pub(crate) fn instructions(&mut self, n: u64) {
        self.instrs += n;
    }

    #[inline]
    pub(crate) fn access(&mut self, cpu: usize, kind: AccessKind, addr: Addr) {
        match kind {
            AccessKind::Ifetch => self.ifetches += 1,
            AccessKind::Load => self.loads += 1,
            AccessKind::Store => self.stores += 1,
        }
        let line = addr.0 >> memsys::LINE_BITS;
        let idx = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize;
        let entry = self.table[idx];
        if entry != SIG_EMPTY && (entry >> 8) == line {
            self.reuse_hits += 1;
            if (entry & 0xFF) as usize != cpu {
                self.shared_hits += 1;
            }
        }
        self.table[idx] = (line << 8) | (cpu as u64 & 0xFF);
    }

    /// Drains the per-unit counters (the sketch itself persists, like
    /// the warmed caches it stands in for).
    pub(crate) fn drain(&mut self) -> SigCounts {
        let c = SigCounts {
            instrs: self.instrs,
            loads: self.loads,
            stores: self.stores,
            ifetches: self.ifetches,
            reuse_hits: self.reuse_hits,
            shared_hits: self.shared_hits,
        };
        self.instrs = 0;
        self.loads = 0;
        self.stores = 0;
        self.ifetches = 0;
        self.reuse_hits = 0;
        self.shared_hits = 0;
        c
    }
}

/// Raw signature counts of one unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SigCounts {
    /// Instructions stepped in the unit.
    pub instrs: u64,
    /// Data loads referenced.
    pub loads: u64,
    /// Data stores referenced.
    pub stores: u64,
    /// Instruction fetches referenced.
    pub ifetches: u64,
    /// References that re-found their line in the sketch.
    pub reuse_hits: u64,
    /// Reuse hits whose line was last touched by another processor.
    pub shared_hits: u64,
}

/// A unit's memory-access-signature vector (all components ~0..1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signature(pub [f64; SIG_DIMS]);

impl Signature {
    /// Builds the feature vector from raw counts plus the unit's GC
    /// cycles and completed transactions.
    pub(crate) fn from_counts(
        c: &SigCounts,
        unit_cycles: u64,
        gc_cycles: u64,
        transactions: u64,
    ) -> Self {
        let refs = (c.loads + c.stores + c.ifetches) as f64;
        let instrs = c.instrs.max(1) as f64;
        let cycles = unit_cycles.max(1) as f64;
        let safe = |num: f64| if refs > 0.0 { num / refs } else { 0.0 };
        let tx_per_mcycle = transactions as f64 * 1e6 / cycles;
        Signature([
            // Memory intensity: references per instruction.
            (refs / instrs).min(2.0) / 2.0,
            // Write fraction of the reference stream.
            safe(c.stores as f64),
            // Instruction-fetch fraction.
            safe(c.ifetches as f64),
            // Footprint churn: fraction of references missing the
            // working-set sketch.
            safe(refs - c.reuse_hits as f64),
            // Sharing: sketch hits last touched by another processor.
            safe(c.shared_hits as f64),
            // GC share of the unit.
            (gc_cycles as f64 / cycles).min(1.0),
            // Transaction rate, squashed to 0..1.
            tx_per_mcycle / (tx_per_mcycle + 50.0),
        ])
    }

    /// Euclidean distance to another signature.
    pub(crate) fn distance(&self, other: &Signature) -> f64 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Online leader clustering: the first member of each cluster is its
/// fixed leader, units join the nearest leader within [`THRESHOLD`].
/// Deterministic (insertion order, no RNG) so sampled runs replay
/// bit-for-bit.
struct Leaders {
    sigs: Vec<Signature>,
    pop: Vec<u64>,
    measured: Vec<u32>,
    /// Special-purpose strata (e.g. the post-GC recovery transient):
    /// invisible to signature assignment, their members are selected by
    /// *when* they run, not what their signature looks like.
    special: Vec<bool>,
}

impl Leaders {
    fn new() -> Self {
        Leaders {
            sigs: Vec::new(),
            pop: Vec::new(),
            measured: Vec::new(),
            special: Vec::new(),
        }
    }

    fn assign(&mut self, sig: &Signature) -> usize {
        let mut best = None;
        for (i, leader) in self.sigs.iter().enumerate() {
            if self.special[i] {
                continue;
            }
            let d = leader.distance(sig);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i, d)),
            }
        }
        match best {
            Some((i, d)) if d <= THRESHOLD => {
                self.pop[i] += 1;
                i
            }
            _ => {
                self.sigs.push(*sig);
                self.pop.push(1);
                self.measured.push(0);
                self.special.push(false);
                self.sigs.len() - 1
            }
        }
    }

    /// Assigns a unit to the dedicated stratum behind `slot`, founding
    /// it on first use. A unit in a special stratum never contaminates
    /// the signature clusters — cache-state transients look behaviorally
    /// ordinary, so signature distance cannot keep them apart.
    fn assign_special(&mut self, slot: &mut Option<usize>, sig: &Signature) -> usize {
        match *slot {
            Some(i) => {
                self.pop[i] += 1;
                i
            }
            None => {
                self.sigs.push(*sig);
                self.pop.push(1);
                self.measured.push(0);
                self.special.push(true);
                let i = self.sigs.len() - 1;
                *slot = Some(i);
                i
            }
        }
    }

    /// Whether the cluster has population but no detailed measurement.
    fn hungry(&self, cluster: usize) -> bool {
        self.measured[cluster] == 0
    }
}

/// Live state of the sampled execution path, owned by the [`Machine`].
pub(crate) struct SamplingState {
    /// Whether steps currently take the functional fast path.
    pub(crate) fast: bool,
    /// Calibrated short-stall estimate per reference — the store-buffer
    /// and RAW-hazard cycles the outcome costs don't cover — in 1/256
    /// cycles (Q56.8 fixed point keeps the clock deterministic — no
    /// floats).
    pub(crate) base_q8: u64,
    /// The machine's latency table: warming accesses charge the same
    /// per-outcome cost the detailed timer would.
    pub(crate) lat: LatencyTable,
    /// The signature accumulator (fed by both paths).
    pub(crate) sig: SignatureCollector,
    /// Execute every n-th fast-path reference as a real warming access.
    pub(crate) warm_every: u32,
    /// Rolling counter for the warm subsample.
    pub(crate) warm_tick: u32,
}

impl SamplingState {
    pub(crate) fn new(base_q8: u64, lat: LatencyTable) -> Self {
        SamplingState {
            fast: false,
            base_q8,
            lat,
            sig: SignatureCollector::new(),
            warm_every: WARM_EVERY,
            warm_tick: 0,
        }
    }
}

/// The functional fast-forward sink: instructions charge one cycle
/// each, references feed the signature and charge the calibrated
/// short-stall base. Every `warm_every`-th reference executes as a
/// *real* (timing-discarded) access so cache contents, MESI sharer
/// state and dirty-line population keep evolving across the fast span —
/// without this, writeback and coherence traffic in the next measured
/// unit starts from a frozen snapshot and timing-sensitive backends
/// (banked DRAM) see far too little pressure. Each warming access also
/// charges `warm_every` times the latency-table cost of its own
/// outcome — the same cost the detailed timer stalls loads and
/// ifetches by — standing in for the skipped references. The
/// outcome-weighted charge is what keeps per-thread fast clocks
/// honest: under a flat per-reference average, miss-heavy threads
/// advance too fast and the thread interleaving (hence the measured
/// units' behavior) drifts from the full run. The references in
/// between charge only the base and touch no simulated state; the
/// detailed warming prefix inside each measured unit restores exact
/// recency before statistics count.
pub(crate) struct FastSink<'a> {
    mem: &'a mut MemorySystem,
    state: &'a mut SamplingState,
    cpu: usize,
    charge: u64,
    charge_q8: u64,
    /// The issuing processor's clock at step start; warming accesses on
    /// a clocked backend are stamped `base_clock + charge()` so the
    /// DRAM sees them spread across the span rather than as one burst.
    base_clock: u64,
    clocked: bool,
}

impl<'a> FastSink<'a> {
    pub(crate) fn new(
        mem: &'a mut MemorySystem,
        state: &'a mut SamplingState,
        cpu: usize,
        base_clock: u64,
    ) -> Self {
        let clocked = mem.needs_clock();
        FastSink {
            mem,
            state,
            cpu,
            charge: 0,
            charge_q8: 0,
            base_clock,
            clocked,
        }
    }

    /// Cycles this step charges (at least 1, so time always advances).
    pub(crate) fn charge(&self) -> u64 {
        (self.charge + (self.charge_q8 >> 8)).max(1)
    }
}

impl MemSink for FastSink<'_> {
    fn instructions(&mut self, n: u64) {
        self.charge += n;
        self.state.sig.instructions(n);
    }

    fn access(&mut self, kind: AccessKind, addr: Addr) {
        self.reference(kind, addr);
    }

    fn load(&mut self, addr: Addr) {
        self.reference(AccessKind::Load, addr);
    }

    fn store(&mut self, addr: Addr) {
        self.reference(AccessKind::Store, addr);
    }

    fn ifetch(&mut self, addr: Addr) {
        self.reference(AccessKind::Ifetch, addr);
    }
}

impl FastSink<'_> {
    /// One reference, inlined into each `MemSink` entry point like the
    /// detailed step sink's, so a fixed kind resolves its branches at
    /// compile time.
    #[inline(always)]
    fn reference(&mut self, kind: AccessKind, addr: Addr) {
        self.charge_q8 += self.state.base_q8;
        self.state.sig.access(self.cpu, kind, addr);
        self.state.warm_tick += 1;
        if self.state.warm_tick >= self.state.warm_every {
            self.state.warm_tick = 0;
            // Functional warming: full state transition, statistics
            // discarded (counters recorded during fast spans never
            // enter per-unit deltas — those are captured strictly
            // inside detailed spans).
            if self.clocked {
                self.mem
                    .set_now(self.base_clock + self.charge + (self.charge_q8 >> 8));
            }
            let outcome = self.mem.access(self.cpu, kind, addr);
            if kind != AccessKind::Store {
                // The detailed timer stalls loads and ifetches by
                // exactly this cost; store latency drains through the
                // store buffer and surfaces in the calibrated base.
                let warm_every = u64::from(self.state.warm_every);
                self.charge_q8 += (self.state.lat.cost_of(&outcome) << 8) * warm_every;
            }
        }
    }
}

/// One unit of the sampled schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRecord {
    /// Unit index within the window (0 first).
    pub unit: usize,
    /// Signature cluster the unit was assigned to.
    pub cluster: usize,
    /// Whether the unit was simulated in detail.
    pub detailed: bool,
    /// Whether the unit sat in the post-GC recovery transient (always
    /// detailed, pooled in the dedicated recovery stratum).
    pub recovery: bool,
    /// Cycle the unit started at.
    pub start: u64,
    /// Cycle the unit actually ended at (>= nominal end when a GC
    /// pause ran past the boundary).
    pub end: u64,
}

/// One cluster of the sampled schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterInfo {
    /// Units assigned to the cluster.
    pub pop: u64,
    /// Units of the cluster simulated in detail.
    pub measured: u32,
}

/// The detailed measurement of one unit's post-warming span.
#[derive(Debug, Clone)]
pub struct UnitMeasurement {
    /// Unit index within the window.
    pub unit: usize,
    /// Cluster the unit ended up in.
    pub cluster: usize,
    /// Wall (virtual) cycles of the measured span.
    pub span: u64,
    /// Counter deltas over the span (see `Snapshot::delta`).
    pub counters: Snapshot,
    /// Pipeline-report delta over the span, merged across the pset.
    pub cpi: CpiReport,
    /// Transactions completed in the span.
    pub transactions: u64,
    /// GC cycles inside the span.
    pub gc_cycles: u64,
    /// Response-time histogram delta, when the workload keeps one.
    pub response: Option<Histogram>,
    /// Memory-latency histogram delta, when enabled.
    pub mem_latency: Option<Histogram>,
}

impl UnitMeasurement {
    /// Delta of a named counter over the measured span.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).unwrap_or(0)
    }
}

/// Snapshot of everything a unit measurement diffs.
struct UnitProbe {
    now: u64,
    counters: Snapshot,
    cpi: CpiReport,
    transactions: u64,
    gc_cycles: u64,
    response: Option<Histogram>,
    mem_latency: Option<Histogram>,
}

impl UnitProbe {
    fn capture<W: Workload>(m: &Machine<W>) -> Self {
        UnitProbe {
            now: m.time(),
            counters: m.counters(),
            cpi: m.pset_cpi(),
            transactions: m.transactions(),
            gc_cycles: m.window_gc_cycles(),
            response: m.workload().response_hist().cloned(),
            mem_latency: m.latency_hist().cloned(),
        }
    }

    fn delta(self, base: &UnitProbe, unit: usize) -> UnitMeasurement {
        UnitMeasurement {
            unit,
            cluster: 0, // assigned after clustering
            span: self.now.saturating_sub(base.now).max(1),
            counters: self.counters.delta(&base.counters),
            cpi: cpi_delta(&self.cpi, &base.cpi),
            transactions: self.transactions - base.transactions,
            gc_cycles: self.gc_cycles - base.gc_cycles,
            response: hist_delta(self.response.as_ref(), base.response.as_ref()),
            mem_latency: hist_delta(self.mem_latency.as_ref(), base.mem_latency.as_ref()),
        }
    }
}

/// Field-wise difference of two cumulative pipeline reports.
fn cpi_delta(after: &CpiReport, before: &CpiReport) -> CpiReport {
    CpiReport {
        instructions: after.instructions - before.instructions,
        loads: after.loads - before.loads,
        stores: after.stores - before.stores,
        base_cycles: after.base_cycles - before.base_cycles,
        instr_stall: after.instr_stall - before.instr_stall,
        data_stall: simcpu::DataStall {
            store_buffer: after.data_stall.store_buffer - before.data_stall.store_buffer,
            raw_hazard: after.data_stall.raw_hazard - before.data_stall.raw_hazard,
            l2_hit: after.data_stall.l2_hit - before.data_stall.l2_hit,
            cache_to_cache: after.data_stall.cache_to_cache - before.data_stall.cache_to_cache,
            memory: after.data_stall.memory - before.data_stall.memory,
        },
    }
}

/// Bucket-wise difference of two cumulative histograms.
fn hist_delta(after: Option<&Histogram>, before: Option<&Histogram>) -> Option<Histogram> {
    let after = after?;
    let mut buckets = *after.buckets();
    let mut sum = after.sum();
    if let Some(b) = before {
        for (slot, prev) in buckets.iter_mut().zip(b.buckets()) {
            *slot -= prev;
        }
        sum = sum.saturating_sub(b.sum());
    }
    let count = buckets.iter().sum();
    Some(Histogram::from_parts(count, sum, &buckets).expect("bucket diff is consistent"))
}

/// The outcome of a sampled measurement window.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// The requested window length in cycles.
    pub window_cycles: u64,
    /// Cycles the window actually covered (>= requested when the last
    /// unit's GC overshot).
    pub actual_cycles: u64,
    /// Per-reference fast-path short-stall estimate at window end (Q8):
    /// the store-buffer + RAW-hazard cycles charged on top of the
    /// outcome-weighted warming costs.
    pub base_q8: u64,
    /// Every unit of the schedule, in order.
    pub units: Vec<UnitRecord>,
    /// Cluster populations and measured counts, by cluster id.
    pub clusters: Vec<ClusterInfo>,
    /// The detailed measurements, in unit order.
    pub measurements: Vec<UnitMeasurement>,
    /// The machine's own window report: transactions, mode fractions
    /// and GC bookkeeping in here are exact; its CPI covers only the
    /// detailed cycles and is replaced by [`SampledRun::to_window_report`].
    pub raw_report: WindowReport,
}

impl SampledRun {
    /// Units simulated in detail.
    pub fn detailed_units(&self) -> usize {
        self.measurements.len()
    }

    /// The fraction of the window simulated in detail (including the
    /// warming prefixes).
    pub fn detailed_fraction(&self) -> f64 {
        let detailed: u64 = self
            .units
            .iter()
            .filter(|u| u.detailed)
            .map(|u| u.end - u.start)
            .sum();
        detailed as f64 / self.actual_cycles.max(1) as f64
    }

    /// Stratified estimate of `f` over the measured units, weighted by
    /// cluster population.
    pub(crate) fn estimate(&self, f: impl Fn(&UnitMeasurement) -> f64) -> Estimate {
        let total: u64 = self.clusters.iter().map(|c| c.pop).sum();
        let strata: Vec<Stratum> = self
            .clusters
            .iter()
            .enumerate()
            .map(|(c, info)| {
                Stratum::new(
                    info.pop as f64 / total.max(1) as f64,
                    self.measurements
                        .iter()
                        .filter(|m| m.cluster == c)
                        .map(&f)
                        .collect(),
                )
            })
            .collect();
        stratified(&strata)
    }

    /// Stratified estimate of a whole-window ratio `Σnum / Σden`,
    /// computed as the ratio of the two population-weighted per-cycle
    /// rates. The naive alternative — the stratified mean of per-unit
    /// ratios — is biased whenever the denominator's rate varies across
    /// units (a busy unit contributes more events to a full run's
    /// aggregate than a quiet one, but the per-unit ratio weights them
    /// equally); the rate ratio matches the full run's aggregate
    /// structure. The interval is a delta-method approximation that
    /// ignores the num/den covariance (conservative for positively
    /// correlated counters).
    pub fn ratio_estimate(
        &self,
        num: impl Fn(&UnitMeasurement) -> f64,
        den: impl Fn(&UnitMeasurement) -> f64,
    ) -> Estimate {
        let n = self.estimate(|m| num(m) / m.span.max(1) as f64);
        let d = self.estimate(|m| den(m) / m.span.max(1) as f64);
        if d.mean == 0.0 {
            return Estimate {
                mean: 0.0,
                ci_half: 0.0,
                ..n
            };
        }
        let mean = n.mean / d.mean;
        Estimate {
            mean,
            ci_half: (n.ci_half + mean.abs() * d.ci_half) / d.mean.abs(),
            ..n
        }
    }

    /// Estimated CPI over the window (`Σcycles / Σinstructions`, the
    /// same aggregate a full run reports).
    pub fn cpi(&self) -> Estimate {
        self.ratio_estimate(|m| m.cpi.cycles() as f64, |m| m.cpi.instructions as f64)
    }

    /// Estimated ratio of two counters (e.g. an L2 miss rate).
    pub(crate) fn counter_ratio(&self, num: &str, den: &str) -> Estimate {
        self.ratio_estimate(|m| m.counter(num) as f64, |m| m.counter(den) as f64)
    }

    /// The measured units' histograms merged with each unit's bucket
    /// counts scaled by its cluster's population/measured ratio — the
    /// extrapolated whole-window distribution (integer arithmetic, so
    /// deterministic).
    pub(crate) fn scaled_hist(
        &self,
        select: impl Fn(&UnitMeasurement) -> Option<&Histogram>,
    ) -> Option<Histogram> {
        let mut buckets = [0u64; Histogram::BUCKETS];
        let mut sum = 0u64;
        let mut any = false;
        for m in &self.measurements {
            let Some(h) = select(m) else { continue };
            any = true;
            let info = self.clusters[m.cluster];
            let (num, den) = (info.pop, u64::from(info.measured).max(1));
            for (slot, b) in buckets.iter_mut().zip(h.buckets()) {
                *slot += b * num / den;
            }
            sum += h.sum() * num / den;
        }
        if !any {
            return None;
        }
        let count = buckets.iter().sum();
        Some(Histogram::from_parts(count, sum, &buckets).expect("scaled buckets are consistent"))
    }

    /// Extrapolated response-time distribution, when the workload
    /// keeps one.
    pub fn response_hist(&self) -> Option<Histogram> {
        self.scaled_hist(|m| m.response.as_ref())
    }

    /// A synthetic whole-window [`CpiReport`]: every field is the
    /// stratified per-cycle rate scaled to the window. Transactions,
    /// modes and GC come from the exact bookkeeping.
    pub fn to_window_report(&self) -> WindowReport {
        let scale = |f: &dyn Fn(&UnitMeasurement) -> u64| -> u64 {
            let rate = self.estimate(|m| f(m) as f64 / m.span.max(1) as f64);
            (rate.mean * self.actual_cycles as f64).round().max(0.0) as u64
        };
        let cpi = CpiReport {
            instructions: scale(&|m| m.cpi.instructions),
            loads: scale(&|m| m.cpi.loads),
            stores: scale(&|m| m.cpi.stores),
            base_cycles: scale(&|m| m.cpi.base_cycles),
            instr_stall: scale(&|m| m.cpi.instr_stall),
            data_stall: simcpu::DataStall {
                store_buffer: scale(&|m| m.cpi.data_stall.store_buffer),
                raw_hazard: scale(&|m| m.cpi.data_stall.raw_hazard),
                l2_hit: scale(&|m| m.cpi.data_stall.l2_hit),
                cache_to_cache: scale(&|m| m.cpi.data_stall.cache_to_cache),
                memory: scale(&|m| m.cpi.data_stall.memory),
            },
        };
        let c2c = self.counter_ratio("mem.c2c.percpu_total", "mem.l2_miss.percpu_total");
        let snoop = self.ratio_estimate(
            |m| m.counter("bus.snoops_filtered") as f64,
            |m| (m.counter("bus.snoops_sent") + m.counter("bus.snoops_filtered")) as f64,
        );
        WindowReport {
            cpi,
            c2c_ratio: c2c.mean,
            snoop_filter_rate: snoop.mean,
            ..self.raw_report.clone()
        }
    }

    /// The unit schedule as run-observatory timeline events for job
    /// `(run, id)`: one span per unit, named by stratum —
    /// `unit.recovery` (post-GC transient, detailed), `unit.detailed`
    /// (measured steady state) or `unit.fast` (functional
    /// fast-forward) — so the Chrome-trace view shows exactly which
    /// cycles the extrapolation rests on.
    pub fn event_records(&self, run: usize, id: usize) -> Vec<EventRecord> {
        self.units
            .iter()
            .map(|u| EventRecord {
                run,
                id,
                name: if u.recovery {
                    "unit.recovery".into()
                } else if u.detailed {
                    "unit.detailed".into()
                } else {
                    "unit.fast".into()
                },
                start: u.start,
                end: u.end,
            })
            .collect()
    }

    /// The unit schedule as RunLog records for job `(run, id)`.
    pub fn sample_units(&self, run: usize, id: usize) -> Vec<SampleUnitRecord> {
        let total: u64 = self.clusters.iter().map(|c| c.pop).sum();
        self.units
            .iter()
            .map(|u| SampleUnitRecord {
                run,
                id,
                unit: u.unit,
                cluster: u.cluster,
                start: u.start,
                end: u.end,
                detailed: u.detailed,
                weight_ppm: self.clusters[u.cluster].pop * 1_000_000 / total.max(1),
            })
            .collect()
    }
}

/// Derives the fast path's per-reference *short*-stall estimate (Q8)
/// from a detailed span's pipeline report: the store-buffer and
/// RAW-hazard cycles — the only stall components the per-outcome
/// warming charges don't reproduce — averaged over the references.
fn short_stall_q8(cpi: &CpiReport, refs: u64) -> u64 {
    let short = cpi.data_stall.store_buffer + cpi.data_stall.raw_hazard;
    (short << 8) / refs.max(1)
}

/// Runs one `warmup + window` measurement in sampled mode and returns
/// the per-unit measurements with their extrapolation context.
///
/// The machine must be freshly built (the warm-up starts at time 0,
/// matching `measure`'s contract). Consumes no RNG beyond what the
/// workload itself draws, so a sampled run is bit-deterministic.
pub fn measure_sampled<W: Workload>(
    m: &mut Machine<W>,
    warmup: u64,
    window: u64,
    cfg: &SamplingConfig,
) -> SampledRun {
    // 1. Detailed calibration prefix: learn the per-reference short
    // stall (the outcome-weighted warming charges cover the rest).
    let calib_end = cfg.calibration_cycles.min(warmup).max(1);
    let c0 = (m.pset_cpi(), m.counters());
    m.run_until(calib_end);
    let c1 = (m.pset_cpi(), m.counters());
    let d = c1.1.delta(&c0.1);
    let refs = d.get("mem.load.accesses").unwrap_or(0)
        + d.get("mem.store.accesses").unwrap_or(0)
        + d.get("mem.ifetch.accesses").unwrap_or(0);
    let base_q8 = short_stall_q8(&cpi_delta(&c1.0, &c0.0), refs);
    m.begin_sampling(base_q8);

    // 2. Functionally fast-forward the rest of the warm-up, closing
    // with a full-rate warming ramp so the first (always detailed)
    // unit starts from converged cache state.
    m.set_fast_forward(true);
    m.run_until(warmup.saturating_sub(cfg.unit_cycles).max(calib_end));
    m.set_warm_every(1);
    m.run_until(warmup);
    m.sync_memory_clock();

    // 3. The measurement window, unit by unit.
    m.set_fast_forward(false);
    m.begin_measurement();
    let start = m.time();
    let end_of_window = start + window;
    let warm = cfg.unit_cycles / 2;
    let total_units = (window / cfg.unit_cycles).max(1) as usize;
    let stride = (total_units / cfg.min_units).max(1);
    // A fixed `u % stride == 0` schedule aliases: middleware behavior
    // is periodic (GC cycles, inventory rotation, timer-driven phases)
    // and whenever a phase period divides into the stride's cycle
    // period the strided units land at the *same* phase offset every
    // time — always the burst's peak, or never the burst at all —
    // and the stratum mean inherits the full phase-offset bias.
    // Jittering the measured slot within each stride block by a hash
    // of the block index turns the schedule into stratified random
    // sampling while staying bit-deterministic and consuming nothing
    // from the workload's RNG stream.
    let strided_at = |u: usize| {
        let block = (u / stride) as u64;
        let slot = prng::SimRng::seed_from_u64(block).next_u64() % stride as u64;
        u % stride == slot as usize
    };

    let mut leaders = Leaders::new();
    let mut units: Vec<UnitRecord> = Vec::with_capacity(total_units);
    let mut measurements: Vec<UnitMeasurement> = Vec::new();
    let mut last_cluster = usize::MAX;
    let mut gc_prev = 0u64;
    let mut tx_prev = m.transactions();
    let mut pressure_prev = m.workload().gc_pressure();
    let mut gc_count_prev = m.gc_count();
    // Completed units since the unit a collection finished in; starts
    // saturated so the window's head is not mistaken for a transient.
    let mut since_gc = usize::MAX;
    let mut recovery_slot: Option<usize> = None;
    let mut prev_detailed = false;
    m.drain_signature();

    let mut now = start;
    let mut u = 0usize;
    while now < end_of_window {
        let unit_start = now;
        let unit_end = (unit_start + cfg.unit_cycles).min(end_of_window);
        // Decide detail at unit *start*, predicting the cluster from
        // the previous unit: the first unit always measures, a cluster
        // that has population but no measurement claims detail
        // ("hungry"), and a stratified stride keeps coverage spread
        // across the window up to the configured ceiling.
        let hungry = last_cluster != usize::MAX
            && leaders.hungry(last_cluster)
            && measurements.len() < cfg.max_units + cfg.min_units;
        let strided = strided_at(u) && measurements.len() < cfg.max_units;
        // A GC burst is a one-unit event a reactive schedule only
        // notices after it ran fast — and its compulsory sweep misses
        // are a double-digit share of the window's total, so losing it
        // biases every miss-rate estimate low. Predict it instead:
        // force detail while the eden fill extrapolated over the next
        // unit-and-a-half crosses capacity (the condition stays true
        // until the collection actually runs and resets the pressure).
        let pressure = m.workload().gc_pressure();
        let gc_soon = pressure + 1.5 * (pressure - pressure_prev).max(0.0) >= 1.0;
        pressure_prev = pressure;
        // The units after a collection are the post-GC cold-cache
        // transient: the sweep evicted the mutators' working set, so
        // their miss rates decay from far above steady state while
        // their behavior signatures look ordinary. Force them into
        // detail and pool them in a dedicated stratum (below) so the
        // transient is weighted by its true population instead of
        // leaking into a steady-state cluster's mean.
        let recovering = since_gc < RECOVERY_UNITS;
        let detailed = u == 0 || hungry || strided || gc_soon || recovering;

        let meas = if detailed {
            m.set_fast_forward(false);
            // Warming prefix: detailed execution, excluded from the
            // measurement so post-fast-forward cache state recovers
            // before statistics count. When the previous unit already
            // ran in detail the state is exact and the prefix would
            // only discard measured span — skip it. A GC-forced unit
            // shortens the prefix: the burst must land in the measured
            // span, and the collector's sweep misses are compulsory —
            // nearly independent of how warm the caches are.
            let warm = if prev_detailed {
                0
            } else if gc_soon {
                warm / 4
            } else {
                warm
            };
            m.run_until((unit_start + warm).min(unit_end.saturating_sub(1)));
            let base = UnitProbe::capture(m);
            m.run_until(unit_end);
            Some(UnitProbe::capture(m).delta(&base, u))
        } else {
            m.set_fast_forward(true);
            // Pre-warming ramp: when the next unit is a scheduled
            // detailed one, warm every reference through this unit so
            // the cache state it measures from has converged — the
            // subsampled stream under-warms a large L2 and its extra
            // cold misses land directly in the measured span.
            let next_strided = strided_at(u + 1) && measurements.len() < cfg.max_units;
            m.set_warm_every(if next_strided { 1 } else { WARM_EVERY });
            m.run_until(unit_end);
            None
        };
        m.sync_memory_clock();
        let unit_actual_end = m.time().max(unit_end);

        // Fingerprint and cluster the unit (both paths feed the
        // signature collector).
        let gc_now = m.window_gc_cycles();
        let tx_now = m.transactions();
        let counts = m.drain_signature();
        let sig = Signature::from_counts(
            &counts,
            unit_actual_end - unit_start,
            gc_now - gc_prev,
            tx_now - tx_prev,
        );
        gc_prev = gc_now;
        tx_prev = tx_now;
        let cluster = if recovering {
            leaders.assign_special(&mut recovery_slot, &sig)
        } else {
            leaders.assign(&sig)
        };
        units.push(UnitRecord {
            unit: u,
            cluster,
            detailed,
            recovery: recovering,
            start: unit_start,
            end: unit_actual_end,
        });
        if let Some(mut meas) = meas {
            meas.cluster = cluster;
            leaders.measured[cluster] += 1;
            // Re-calibrate the fast clock from the freshest detailed
            // span (rounded EMA keeps it integer and deterministic).
            let refs = meas.counter("mem.load.accesses")
                + meas.counter("mem.store.accesses")
                + meas.counter("mem.ifetch.accesses");
            if refs > 0 {
                let fresh = short_stall_q8(&meas.cpi, refs);
                m.set_fast_base_q8((m.fast_base_q8() + fresh) / 2);
            }
            measurements.push(meas);
        }
        last_cluster = cluster;
        let gc_count_now = m.gc_count();
        since_gc = if gc_count_now != gc_count_prev {
            0
        } else {
            since_gc.saturating_add(1)
        };
        gc_count_prev = gc_count_now;
        prev_detailed = detailed;
        now = unit_actual_end;
        u += 1;
    }

    m.set_fast_forward(false);
    let base_q8 = m.fast_base_q8();
    m.end_sampling();

    let raw_report = m.window_report();
    SampledRun {
        window_cycles: window,
        actual_cycles: now - start,
        base_q8,
        clusters: leaders
            .pop
            .iter()
            .zip(&leaders.measured)
            .map(|(&pop, &measured)| ClusterInfo { pop, measured })
            .collect(),
        units,
        measurements,
        raw_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{jbb_machine, Effort};

    #[test]
    fn sampled_quick_run_is_sane() {
        let effort = Effort::Quick;
        let mut m = jbb_machine(2, 4, 1, effort);
        let s = measure_sampled(
            &mut m,
            effort.warmup(),
            effort.window(),
            &SamplingConfig::for_window(effort.window()),
        );
        let report = s.to_window_report();

        assert!(!s.units.is_empty());
        assert!(s.detailed_units() >= 1);
        assert!(
            s.detailed_fraction() < 0.5,
            "fast-forward should dominate: detailed fraction {}",
            s.detailed_fraction()
        );
        assert!(report.transactions > 0, "transactions are exact");
        let cpi = s.cpi();
        assert!(cpi.mean > 0.5 && cpi.mean < 20.0, "cpi {}", cpi.mean);
        assert!(cpi.ci_half.is_finite());
        // The synthetic report is internally consistent.
        assert!(report.cpi.instructions > 0);
        assert_eq!(
            s.units.iter().filter(|u| u.detailed).count(),
            s.detailed_units()
        );
        // Unit schedule serializes with sane weights.
        let recs = s.sample_units(0, 0);
        assert_eq!(recs.len(), s.units.len());
        assert!(recs.iter().all(|r| r.weight_ppm <= 1_000_000));
        assert!(recs.iter().all(|r| r.end > r.start));
    }

    #[test]
    fn sampled_runs_are_bit_deterministic() {
        let effort = Effort::Quick;
        let run = || {
            let mut m = jbb_machine(1, 2, 7, effort);
            let s = measure_sampled(
                &mut m,
                effort.warmup(),
                effort.window(),
                &SamplingConfig::for_window(effort.window()),
            );
            (s.to_window_report(), s)
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        assert_eq!(r1, r2);
        assert_eq!(s1.units, s2.units);
        assert_eq!(s1.base_q8, s2.base_q8);
        assert_eq!(s1.cpi().mean.to_bits(), s2.cpi().mean.to_bits());
    }

    #[test]
    fn signature_features_stay_in_unit_range() {
        let c = SigCounts {
            instrs: 1000,
            loads: 300,
            stores: 100,
            ifetches: 200,
            reuse_hits: 400,
            shared_hits: 50,
        };
        let s = Signature::from_counts(&c, 1_000_000, 250_000, 40);
        for (i, f) in s.0.iter().enumerate() {
            assert!((0.0..=1.0).contains(f), "feature {i} = {f}");
        }
        assert_eq!(s.distance(&s), 0.0);
    }

    #[test]
    fn empty_unit_signature_is_all_zero_but_finite() {
        let s = Signature::from_counts(&SigCounts::default(), 1_000_000, 0, 0);
        assert!(s.0.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn collector_sees_reuse_and_sharing() {
        let mut sig = SignatureCollector::new();
        let a = Addr(0x1000);
        sig.access(0, AccessKind::Load, a);
        sig.access(0, AccessKind::Load, a); // same cpu reuse
        sig.access(1, AccessKind::Store, a); // cross-cpu reuse
        let c = sig.drain();
        assert_eq!(c.loads, 2);
        assert_eq!(c.stores, 1);
        assert_eq!(c.reuse_hits, 2);
        assert_eq!(c.shared_hits, 1);
        // Counters drained; the sketch persists.
        assert_eq!(sig.drain().loads, 0);
        sig.access(2, AccessKind::Load, a);
        assert_eq!(sig.drain().shared_hits, 1, "sketch survives the drain");
    }

    #[test]
    fn leader_clustering_is_deterministic_and_threshold_bound() {
        let mut l = Leaders::new();
        let base = Signature([0.5; SIG_DIMS]);
        let near = Signature([0.52, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]);
        let far = Signature([0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 0.5]);
        assert_eq!(l.assign(&base), 0);
        assert_eq!(l.assign(&near), 0);
        assert_eq!(l.assign(&far), 1, "a GC-phase unit founds its own cluster");
        assert_eq!(l.assign(&base), 0);
        assert_eq!(l.pop, vec![3, 1]);
        assert!(l.hungry(0) && l.hungry(1));
    }

    #[test]
    fn short_stall_covers_only_buffer_and_hazard_cycles() {
        let mut cpi = CpiReport::default();
        cpi.data_stall.store_buffer = 400;
        cpi.data_stall.raw_hazard = 200;
        cpi.data_stall.memory = 10_000; // covered by outcome charges
                                        // 600 short-stall cycles / 200 refs = 3 cycles per ref.
        assert_eq!(short_stall_q8(&cpi, 200), 3 << 8);
        assert_eq!(short_stall_q8(&cpi, 0), 600 << 8, "guarded div");
        assert_eq!(short_stall_q8(&CpiReport::default(), 100), 0);
    }

    #[test]
    fn hist_delta_subtracts_bucketwise() {
        let mut before = Histogram::new();
        before.record(5);
        let mut after = before.clone();
        after.record(5);
        after.record(900);
        let d = hist_delta(Some(&after), Some(&before)).unwrap();
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 905);
        assert_eq!(hist_delta(None, None), None);
    }
}
