//! In-order pipeline timing and CPI/stall accounting.
//!
//! The UltraSPARC II is a 4-wide in-order processor. Following the paper's
//! methodology (Section 4.2), execution time per processor is decomposed
//! into:
//!
//! - **other** — instruction execution plus all non-memory stalls (the
//!   paper's "Other" CPI slice), charged as a fixed base CPI;
//! - **instruction stall** — I-fetch misses;
//! - **data stall** — load misses (by supplier: L2 hit, cache-to-cache,
//!   memory), store-buffer-full stalls, and read-after-write hazards.
//!
//! Stores normally retire into the [`StoreBuffer`] without stalling; their
//! memory latency only surfaces when the buffer fills, exactly the
//! mechanism the paper credits for store-buffer stalls being only 1–2% of
//! execution time.

use memsys::AccessOutcome;
use probes::Histogram;

use crate::latency::LatencyTable;
use crate::storebuf::StoreBuffer;

/// Pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineParams {
    /// Base CPI covering execution and non-memory stalls (the "Other"
    /// slice; ~1.3 for these workloads on a 4-wide in-order core).
    pub base_cpi: f64,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams { base_cpi: 1.3 }
    }
}

/// One load in `RAW_HAZARD_PERIOD` is not sufficiently separated from a
/// preceding store and suffers a short hazard stall (Section 4.2: ~1% of
/// execution time).
const RAW_HAZARD_PERIOD: u64 = 40;
/// Cycles lost to one read-after-write hazard.
const RAW_HAZARD_CYCLES: u64 = 4;

/// The stall cycles one access charged the pipeline, returned from
/// [`CpuTimer::ifetch`]/[`CpuTimer::load`]/[`CpuTimer::store`] so
/// observers can attribute cycles per access without re-deriving the
/// timer's accounting. For loads, `raw_cycles` carries the periodic
/// read-after-write hazard share separately from the miss latency; for
/// stores, `cycles` is only the buffer-full stall (the paper's
/// store-buffer slice), not the hidden write latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallCharge {
    /// Stall cycles attributable to the access outcome itself.
    pub cycles: u64,
    /// Read-after-write hazard cycles this access happened to trigger.
    pub raw_cycles: u64,
}

/// Data-stall cycles broken down by cause (the paper's Figure 7 slices).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataStall {
    /// Pipeline blocked on a full store buffer.
    pub store_buffer: u64,
    /// Read-after-write hazards.
    pub raw_hazard: u64,
    /// Loads satisfied by the L2.
    pub l2_hit: u64,
    /// Loads satisfied by a remote cache (cache-to-cache).
    pub cache_to_cache: u64,
    /// Loads satisfied by memory.
    pub memory: u64,
}

impl DataStall {
    /// Total data-stall cycles.
    pub fn total(&self) -> u64 {
        self.store_buffer + self.raw_hazard + self.l2_hit + self.cache_to_cache + self.memory
    }
}

/// Per-processor cycle/instruction accounting.
#[derive(Debug, Clone)]
pub struct CpuTimer {
    params: PipelineParams,
    lat: LatencyTable,
    storebuf: StoreBuffer,
    instructions: u64,
    loads: u64,
    stores: u64,
    base_cycles: f64,
    instr_stall: u64,
    data_stall: DataStall,
    /// Per-store drain-time histogram (pipeline stall + write latency);
    /// `None` until [`CpuTimer::enable_drain_hist`].
    drain_hist: Option<Histogram>,
}

impl CpuTimer {
    /// Creates a timer with the given parameters and latency table.
    pub fn new(params: PipelineParams, lat: LatencyTable) -> Self {
        CpuTimer {
            storebuf: StoreBuffer::default(),
            params,
            lat,
            instructions: 0,
            loads: 0,
            stores: 0,
            base_cycles: 0.0,
            instr_stall: 0,
            data_stall: DataStall::default(),
            drain_hist: None,
        }
    }

    /// An E6000-like timer with default parameters.
    pub fn e6000() -> Self {
        CpuTimer::new(PipelineParams::default(), LatencyTable::e6000())
    }

    /// Retires `n` instructions (charging base CPI).
    #[inline]
    pub fn retire(&mut self, n: u64) {
        self.instructions += n;
        self.base_cycles += n as f64 * self.params.base_cpi;
    }

    /// Current busy-cycle count.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.base_cycles as u64 + self.instr_stall + self.data_stall.total()
    }

    /// Charges an instruction-fetch outcome.
    #[inline]
    pub fn ifetch(&mut self, outcome: &AccessOutcome) -> StallCharge {
        let stall = self.lat.cost_of(outcome);
        self.instr_stall += stall;
        StallCharge {
            cycles: stall,
            raw_cycles: 0,
        }
    }

    /// Charges a load outcome, including its periodic RAW hazard share.
    #[inline]
    pub fn load(&mut self, outcome: &AccessOutcome) -> StallCharge {
        self.loads += 1;
        let stall = self.lat.cost_of(outcome);
        match outcome.level {
            memsys::HitLevel::L1 => {}
            memsys::HitLevel::L2 => self.data_stall.l2_hit += stall,
            memsys::HitLevel::CacheToCache => self.data_stall.cache_to_cache += stall,
            memsys::HitLevel::Memory => self.data_stall.memory += stall,
            memsys::HitLevel::Upgrade => self.data_stall.memory += stall,
        }
        let raw = if self.loads.is_multiple_of(RAW_HAZARD_PERIOD) {
            self.data_stall.raw_hazard += RAW_HAZARD_CYCLES;
            RAW_HAZARD_CYCLES
        } else {
            0
        };
        StallCharge {
            // L1 hits stall nothing even though the table costs them 0
            // anyway; mirror the accumulation above exactly.
            cycles: if outcome.level == memsys::HitLevel::L1 {
                0
            } else {
                stall
            },
            raw_cycles: raw,
        }
    }

    /// Retires a store through the store buffer; only buffer-full time
    /// stalls the pipeline.
    #[inline]
    pub fn store(&mut self, outcome: &AccessOutcome) -> StallCharge {
        self.stores += 1;
        let latency = self.lat.cost_of(outcome);
        let now = self.cycles();
        let stall = self.storebuf.push(now, latency);
        self.data_stall.store_buffer += stall;
        if let Some(h) = &mut self.drain_hist {
            // Time to drain this store: any buffer-full stall it caused
            // plus its own write latency behind the buffer.
            h.record(stall + latency);
        }
        StallCharge {
            cycles: stall,
            raw_cycles: 0,
        }
    }

    /// Enables per-store drain-time histogramming. Costs one array
    /// increment per store.
    pub fn enable_drain_hist(&mut self) {
        if self.drain_hist.is_none() {
            self.drain_hist = Some(Histogram::new());
        }
    }

    /// The store drain-time histogram, if enabled.
    pub fn drain_hist(&self) -> Option<&Histogram> {
        self.drain_hist.as_ref()
    }

    /// Charges externally modeled stall cycles (e.g. software TLB-miss
    /// traps), accounted under the "Other" slice like the paper's
    /// non-memory stalls.
    #[inline]
    pub fn stall_extra(&mut self, cycles: u64) {
        self.base_cycles += cycles as f64;
    }

    /// The accumulated report.
    pub fn report(&self) -> CpiReport {
        CpiReport {
            instructions: self.instructions,
            loads: self.loads,
            stores: self.stores,
            base_cycles: self.base_cycles as u64,
            instr_stall: self.instr_stall,
            data_stall: self.data_stall,
        }
    }

    /// Resets counters (keeps parameters); used between warm-up and
    /// measurement windows.
    pub fn reset(&mut self) {
        self.instructions = 0;
        self.loads = 0;
        self.stores = 0;
        self.base_cycles = 0.0;
        self.instr_stall = 0;
        self.data_stall = DataStall::default();
        self.storebuf.flush();
        if let Some(h) = &mut self.drain_hist {
            *h = Histogram::new();
        }
    }
}

/// A finished CPI/stall breakdown (one processor, one window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpiReport {
    /// Instructions retired.
    pub instructions: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Cycles charged as base execution ("Other").
    pub base_cycles: u64,
    /// Instruction-stall cycles.
    pub instr_stall: u64,
    /// Data-stall cycles by cause.
    pub data_stall: DataStall,
}

impl CpiReport {
    /// Total busy cycles.
    pub fn cycles(&self) -> u64 {
        self.base_cycles + self.instr_stall + self.data_stall.total()
    }

    /// Overall cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles() as f64 / self.instructions as f64
        }
    }

    /// The instruction-stall CPI component.
    pub fn instr_stall_cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.instr_stall as f64 / self.instructions as f64
        }
    }

    /// The data-stall CPI component.
    pub fn data_stall_cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.data_stall.total() as f64 / self.instructions as f64
        }
    }

    /// The "Other" CPI component.
    pub fn other_cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.base_cycles as f64 / self.instructions as f64
        }
    }

    /// Fraction of total execution time spent stalled on data.
    pub fn data_stall_fraction(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.data_stall.total() as f64 / c as f64
        }
    }

    /// Merges two per-window or per-processor reports.
    pub fn merge(&self, other: &CpiReport) -> CpiReport {
        CpiReport {
            instructions: self.instructions + other.instructions,
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
            base_cycles: self.base_cycles + other.base_cycles,
            instr_stall: self.instr_stall + other.instr_stall,
            data_stall: DataStall {
                store_buffer: self.data_stall.store_buffer + other.data_stall.store_buffer,
                raw_hazard: self.data_stall.raw_hazard + other.data_stall.raw_hazard,
                l2_hit: self.data_stall.l2_hit + other.data_stall.l2_hit,
                cache_to_cache: self.data_stall.cache_to_cache + other.data_stall.cache_to_cache,
                memory: self.data_stall.memory + other.data_stall.memory,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{AccessOutcome, HitLevel};

    fn out(level: HitLevel) -> AccessOutcome {
        AccessOutcome {
            level,
            c2c: level == HitLevel::CacheToCache,
            writeback: false,
            mem_cycles: None,
        }
    }

    #[test]
    fn backend_supplied_cost_overrides_the_table() {
        let mut t = CpuTimer::e6000();
        t.retire(100);
        let mut o = out(HitLevel::Memory);
        o.mem_cycles = Some(240);
        t.load(&o);
        assert_eq!(t.report().data_stall.memory, 240);
        t.ifetch(&o);
        assert_eq!(t.report().instr_stall, 240);
    }

    #[test]
    fn pure_execution_gives_base_cpi() {
        let mut t = CpuTimer::e6000();
        t.retire(1000);
        let r = t.report();
        assert!((r.cpi() - 1.3).abs() < 0.01);
        assert_eq!(r.instr_stall, 0);
        assert_eq!(r.data_stall.total(), 0);
    }

    #[test]
    fn load_misses_accumulate_by_source() {
        let mut t = CpuTimer::e6000();
        t.retire(100);
        t.load(&out(HitLevel::L2));
        t.load(&out(HitLevel::Memory));
        t.load(&out(HitLevel::CacheToCache));
        let r = t.report();
        assert_eq!(r.data_stall.l2_hit, 10);
        assert_eq!(r.data_stall.memory, 75);
        assert_eq!(r.data_stall.cache_to_cache, 105);
    }

    #[test]
    fn c2c_loads_cost_more_than_memory_loads() {
        let mut a = CpuTimer::e6000();
        let mut b = CpuTimer::e6000();
        a.retire(100);
        b.retire(100);
        for _ in 0..10 {
            a.load(&out(HitLevel::Memory));
            b.load(&out(HitLevel::CacheToCache));
        }
        assert!(b.report().cycles() > a.report().cycles());
    }

    #[test]
    fn sparse_stores_do_not_stall() {
        let mut t = CpuTimer::e6000();
        for _ in 0..100 {
            t.retire(50); // plenty of time between stores
            t.store(&out(HitLevel::Memory));
        }
        assert_eq!(t.report().data_stall.store_buffer, 0);
    }

    #[test]
    fn store_bursts_fill_the_buffer_and_stall() {
        let mut t = CpuTimer::e6000();
        t.retire(1);
        for _ in 0..32 {
            t.store(&out(HitLevel::Memory)); // back-to-back, no retire
        }
        assert!(t.report().data_stall.store_buffer > 0);
    }

    #[test]
    fn drain_hist_tracks_stall_plus_latency() {
        let mut t = CpuTimer::e6000();
        t.enable_drain_hist();
        t.retire(1);
        for _ in 0..32 {
            t.store(&out(HitLevel::Memory)); // back-to-back burst
        }
        let h = t.drain_hist().unwrap();
        assert_eq!(h.count(), 32);
        // Every store carries at least its own write latency.
        let lat = LatencyTable::e6000().stall_for(HitLevel::Memory);
        assert!(h.sum() >= 32 * lat);
        // The burst filled the buffer, so the tail includes stall time.
        assert!(h.sum() > 32 * lat, "burst must add buffer-full stalls");
        t.reset();
        assert!(t.drain_hist().unwrap().is_empty(), "reset clears, stays on");
    }

    #[test]
    fn raw_hazards_are_a_small_fraction() {
        let mut t = CpuTimer::e6000();
        for _ in 0..10_000 {
            t.retire(4);
            t.load(&out(HitLevel::L1));
        }
        let r = t.report();
        let raw_frac = r.data_stall.raw_hazard as f64 / r.cycles() as f64;
        assert!(raw_frac > 0.0 && raw_frac < 0.03, "raw fraction {raw_frac}");
    }

    #[test]
    fn report_merge_adds_fields() {
        let mut a = CpuTimer::e6000();
        a.retire(10);
        a.load(&out(HitLevel::Memory));
        let mut b = CpuTimer::e6000();
        b.retire(20);
        b.load(&out(HitLevel::L2));
        let m = a.report().merge(&b.report());
        assert_eq!(m.instructions, 30);
        assert_eq!(m.loads, 2);
        assert_eq!(m.data_stall.memory, 75);
        assert_eq!(m.data_stall.l2_hit, 10);
    }

    #[test]
    fn access_charges_mirror_the_accumulators() {
        let mut t = CpuTimer::e6000();
        t.retire(100);
        assert_eq!(t.load(&out(HitLevel::L1)), StallCharge::default());
        assert_eq!(t.load(&out(HitLevel::Memory)).cycles, 75);
        assert_eq!(t.ifetch(&out(HitLevel::L2)).cycles, 10);
        // Exactly one of the next 40 loads reports the RAW hazard share,
        // and the shares sum to the timer's own slice.
        let raw: u64 = (0..40).map(|_| t.load(&out(HitLevel::L1)).raw_cycles).sum();
        assert_eq!(raw, t.report().data_stall.raw_hazard);
        assert!(raw > 0);
    }

    #[test]
    fn store_charges_sum_to_the_store_buffer_slice() {
        let mut t = CpuTimer::e6000();
        t.retire(1);
        let sum: u64 = (0..32)
            .map(|_| t.store(&out(HitLevel::Memory)).cycles)
            .sum();
        assert_eq!(sum, t.report().data_stall.store_buffer);
        assert!(sum > 0, "a back-to-back burst must stall");
    }

    #[test]
    fn reset_clears_counts() {
        let mut t = CpuTimer::e6000();
        t.retire(100);
        t.load(&out(HitLevel::Memory));
        t.reset();
        assert_eq!(t.report().cycles(), 0);
        assert_eq!(t.report().instructions, 0);
    }

    #[test]
    fn empty_report_has_zero_cpi() {
        let t = CpuTimer::e6000();
        assert_eq!(t.report().cpi(), 0.0);
        assert_eq!(t.report().data_stall_fraction(), 0.0);
    }
}
