//! The cycle-attribution profiler: phase × component × cause × region
//! CPI stacks.
//!
//! [`AttribProfiler`] stands on the [`SimObserver`] seam and folds every
//! stall cycle the CPU timers charge into a four-frame stack,
//! `phase;component;cause;region`:
//!
//! - **phase** — who was executing: `mutator` (workload steps), `gc`
//!   (collector steps), `kernel` (clock ticks). Stop-the-world
//!   collection makes the source tag and the GC driver's pause
//!   choreography agree by construction; the profiler still listens to
//!   [`SimObserver::on_gc_interval`] and keeps the driver's pause
//!   totals as counters, so the two accountings can be cross-checked.
//! - **component** — which CPI-stack slice the paper's Figure 7 draws:
//!   `instr_stall`, `data_stall`, or `other` (base execution).
//! - **cause** — why the pipeline stalled: `l2_hit`, `memory` (DRAM,
//!   including upgrades, which the timer folds into the same slice),
//!   `c2c` (dirty cache-to-cache transfer), `store_buffer`,
//!   `raw_hazard`, or `base`.
//! - **region** — where the reference landed in the JVM's address
//!   space, classified through the workload's [`RegionMap`] (`eden`,
//!   `survivor`, `old_gen`, `code`, `lock`, `stack`, `kernel`, or
//!   `other`).
//!
//! The profiler is an observer: it reads the [`StallCharge`](simcpu::StallCharge) the timer
//! already computed, so attaching it perturbs nothing — runs with and
//! without it stay bit-identical in every pre-existing counter and
//! record. Base ("other") cycles are reconstructed at fold time from
//! per-phase retired-instruction counts and the configured base CPI,
//! mirroring what [`CpuTimer::retire`](simcpu::CpuTimer) charges.
//!
//! [`AttribProfiler::to_records`] is called on the worker thread after
//! the job body, off the input-order merge, so attribution rides the
//! RunLog's bit-identity discipline at any worker count.

use std::collections::BTreeMap;

use memsys::{AccessKind, HitLevel, RegionMap};
use probes::registry::{CounterDesc, CounterKind, CounterSet};
use probes::runlog::AttribRecord;

use super::observer::{AccessEvent, AccessSource, SimObserver};

const fn count(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Count)
}

const fn cycles(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Cycles)
}

static ATTRIB_DESCS: [CounterDesc; 7] = [
    cycles("attrib.cycles"),
    count("attrib.stacks"),
    cycles("attrib.mutator_cycles"),
    cycles("attrib.gc_cycles"),
    cycles("attrib.kernel_cycles"),
    count("attrib.gc_pauses"),
    cycles("attrib.gc_pause_cycles"),
];

/// The phases attribution distinguishes, in fold order.
const PHASES: [&str; 3] = ["mutator", "gc", "kernel"];

/// Stack frame used for base-execution rows, which have no single
/// memory region.
const ALL_REGIONS: &str = "all";

fn phase_of(source: AccessSource) -> usize {
    match source {
        AccessSource::Workload => 0,
        AccessSource::Collector => 1,
        AccessSource::KernelTick => 2,
    }
}

/// Attributes every charged stall cycle to a
/// `phase;component;cause;region` stack. Attach with
/// `Machine::attach_observer`, redeem after the run, and convert with
/// [`AttribProfiler::to_records`].
#[derive(Debug, Clone)]
pub struct AttribProfiler {
    regions: RegionMap,
    base_cpi: f64,
    /// Charged stall cycles keyed by
    /// `(phase, component, cause, region)`; BTreeMap iteration keeps
    /// the fold deterministic.
    stalls: BTreeMap<(usize, &'static str, &'static str, &'static str), u64>,
    /// Retired instructions per phase, for the base ("other") slice.
    instructions: [u64; 3],
    gc_pauses: u64,
    gc_pause_cycles: u64,
}

impl AttribProfiler {
    /// Creates a profiler classifying through `regions` and charging
    /// base execution at `base_cpi` cycles per instruction (pass the
    /// machine's `MachineConfig::pipeline.base_cpi`).
    pub fn new(regions: RegionMap, base_cpi: f64) -> Self {
        AttribProfiler {
            regions,
            base_cpi,
            stalls: BTreeMap::new(),
            instructions: [0; 3],
            gc_pauses: 0,
            gc_pause_cycles: 0,
        }
    }

    /// The folded stacks with their cycle weights, phase-major, base
    /// rows included: the in-memory form of the folded-stack export.
    pub(crate) fn folded(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.stalls.len() + PHASES.len());
        for (&(phase, component, cause, region), &cyc) in &self.stalls {
            if cyc > 0 {
                out.push((
                    format!("{};{component};{cause};{region}", PHASES[phase]),
                    cyc,
                ));
            }
        }
        for (i, phase) in PHASES.iter().enumerate() {
            let base = (self.instructions[i] as f64 * self.base_cpi) as u64;
            if base > 0 {
                out.push((format!("{phase};other;base;{ALL_REGIONS}"), base));
            }
        }
        out
    }

    /// Converts the fold into RunLog `attrib` records for job
    /// `(run, id)`.
    pub fn to_records(&self, run: usize, id: usize) -> Vec<AttribRecord> {
        self.folded()
            .into_iter()
            .map(|(stack, cycles)| AttribRecord {
                run,
                id,
                stack,
                cycles,
            })
            .collect()
    }

    fn charge(&mut self, event: &AccessEvent<'_>) {
        let phase = phase_of(event.source);
        let region = self.regions.classify(event.addr);
        if event.charge.cycles > 0 {
            let (component, cause) = match event.kind {
                AccessKind::Ifetch => ("instr_stall", cause_of_level(event.outcome.level)),
                AccessKind::Load => ("data_stall", cause_of_level(event.outcome.level)),
                AccessKind::Store => ("data_stall", "store_buffer"),
            };
            *self
                .stalls
                .entry((phase, component, cause, region))
                .or_insert(0) += event.charge.cycles;
        }
        if event.charge.raw_cycles > 0 {
            *self
                .stalls
                .entry((phase, "data_stall", "raw_hazard", region))
                .or_insert(0) += event.charge.raw_cycles;
        }
    }
}

/// Maps a hit level to the paper's stall-cause vocabulary. The timer
/// folds upgrade latency into the memory slice, so the fold does too.
fn cause_of_level(level: HitLevel) -> &'static str {
    match level {
        HitLevel::L1 => "l1",
        HitLevel::L2 => "l2_hit",
        HitLevel::Upgrade | HitLevel::Memory => "memory",
        HitLevel::CacheToCache => "c2c",
    }
}

impl SimObserver for AttribProfiler {
    fn watches_refs(&self) -> bool {
        true
    }

    fn on_access(&mut self, event: &AccessEvent<'_>) {
        self.charge(event);
    }

    fn on_instructions(&mut self, _cpu: usize, n: u64, source: AccessSource) {
        self.instructions[phase_of(source)] += n;
    }

    fn on_gc_interval(&mut self, start: u64, end: u64) {
        self.gc_pauses += 1;
        self.gc_pause_cycles += end - start;
    }

    fn on_window_reset(&mut self, _now: u64) {
        self.stalls.clear();
        self.instructions = [0; 3];
        self.gc_pauses = 0;
        self.gc_pause_cycles = 0;
    }
}

impl CounterSet for AttribProfiler {
    fn descriptors(&self) -> &'static [CounterDesc] {
        &ATTRIB_DESCS
    }

    fn values(&self, out: &mut Vec<u64>) {
        let folded = self.folded();
        let phase_sum = |phase: &str| {
            let prefix = format!("{phase};");
            folded
                .iter()
                .filter(|(s, _)| s.starts_with(&prefix))
                .map(|&(_, c)| c)
                .sum::<u64>()
        };
        out.extend([
            folded.iter().map(|&(_, c)| c).sum(),
            folded.len() as u64,
            phase_sum("mutator"),
            phase_sum("gc"),
            phase_sum("kernel"),
            self.gc_pauses,
            self.gc_pause_cycles,
        ]);
    }
}

/// The attribution counter descriptors, for the drift-policy assembly
/// in [`super::probe::descriptor_tables`].
pub(crate) fn descriptor_table() -> &'static [CounterDesc] {
    &ATTRIB_DESCS
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{AccessOutcome, Addr, AddrRange};
    use probes::Snapshot;
    use simcpu::StallCharge;

    fn regions() -> RegionMap {
        let mut map = RegionMap::new();
        map.insert(AddrRange::new(Addr(0x1000), 0x1000), "eden");
        map.insert(AddrRange::new(Addr(0x2000), 0x1000), "old_gen");
        map
    }

    fn outcome(level: HitLevel) -> AccessOutcome {
        AccessOutcome {
            level,
            c2c: level == HitLevel::CacheToCache,
            writeback: false,
            mem_cycles: None,
        }
    }

    fn event<'a>(
        kind: AccessKind,
        addr: u64,
        outcome: &'a AccessOutcome,
        source: AccessSource,
        charge: StallCharge,
    ) -> AccessEvent<'a> {
        AccessEvent {
            cpu: 0,
            kind,
            addr: Addr(addr),
            outcome,
            now: 0,
            source,
            charge,
        }
    }

    #[test]
    fn charges_fold_into_four_frame_stacks() {
        let mut p = AttribProfiler::new(regions(), 1.5);
        let mem = outcome(HitLevel::Memory);
        let c2c = outcome(HitLevel::CacheToCache);
        let charge = |cycles| StallCharge {
            cycles,
            raw_cycles: 0,
        };
        p.on_access(&event(
            AccessKind::Load,
            0x1000,
            &mem,
            AccessSource::Workload,
            charge(75),
        ));
        p.on_access(&event(
            AccessKind::Load,
            0x2000,
            &c2c,
            AccessSource::Workload,
            charge(105),
        ));
        p.on_access(&event(
            AccessKind::Ifetch,
            0x5000,
            &mem,
            AccessSource::Collector,
            charge(75),
        ));
        p.on_access(&event(
            AccessKind::Store,
            0x1040,
            &mem,
            AccessSource::Workload,
            charge(12),
        ));
        // A RAW hazard rides on an otherwise free access.
        p.on_access(&event(
            AccessKind::Load,
            0x1080,
            &outcome(HitLevel::L1),
            AccessSource::Workload,
            StallCharge {
                cycles: 0,
                raw_cycles: 4,
            },
        ));
        let folded = p.folded();
        let get = |stack: &str| folded.iter().find(|(s, _)| s == stack).map(|&(_, c)| c);
        assert_eq!(get("mutator;data_stall;memory;eden"), Some(75));
        assert_eq!(get("mutator;data_stall;c2c;old_gen"), Some(105));
        assert_eq!(get("gc;instr_stall;memory;other"), Some(75));
        assert_eq!(get("mutator;data_stall;store_buffer;eden"), Some(12));
        assert_eq!(get("mutator;data_stall;raw_hazard;eden"), Some(4));
        assert_eq!(folded.len(), 5, "no other stack carries cycles");
    }

    #[test]
    fn base_rows_reconstruct_retirement_per_phase() {
        let mut p = AttribProfiler::new(RegionMap::new(), 1.3);
        p.on_instructions(0, 1000, AccessSource::Workload);
        p.on_instructions(1, 200, AccessSource::Collector);
        let folded = p.folded();
        assert_eq!(folded.len(), 2);
        assert!(folded.contains(&("mutator;other;base;all".into(), 1300)));
        assert!(folded.contains(&("gc;other;base;all".into(), 260)));
    }

    #[test]
    fn counters_match_the_fold_and_reset_with_the_window() {
        let mut p = AttribProfiler::new(regions(), 1.0);
        p.on_instructions(0, 100, AccessSource::Workload);
        let mem = outcome(HitLevel::Memory);
        p.on_access(&event(
            AccessKind::Load,
            0x1000,
            &mem,
            AccessSource::Workload,
            StallCharge {
                cycles: 75,
                raw_cycles: 0,
            },
        ));
        p.on_gc_interval(500, 900);
        let snap = Snapshot::of(&p);
        assert!(snap.names_unique());
        assert_eq!(snap.get("attrib.cycles"), Some(175));
        assert_eq!(snap.get("attrib.stacks"), Some(2));
        assert_eq!(snap.get("attrib.mutator_cycles"), Some(175));
        assert_eq!(snap.get("attrib.gc_cycles"), Some(0));
        assert_eq!(snap.get("attrib.gc_pauses"), Some(1));
        assert_eq!(snap.get("attrib.gc_pause_cycles"), Some(400));
        // The span counter equals the record sum by construction — the
        // invariant `simreport --check` cross-validates.
        let records = p.to_records(0, 0);
        assert_eq!(
            records.iter().map(|r| r.cycles).sum::<u64>(),
            snap.get("attrib.cycles").unwrap()
        );

        p.on_window_reset(1000);
        assert!(p.folded().is_empty());
        assert_eq!(Snapshot::of(&p).get("attrib.gc_pause_cycles"), Some(0));
    }

    #[test]
    fn zero_charge_l1_hits_attribute_nothing() {
        let mut p = AttribProfiler::new(regions(), 1.0);
        let l1 = outcome(HitLevel::L1);
        p.on_access(&event(
            AccessKind::Load,
            0x1000,
            &l1,
            AccessSource::Workload,
            StallCharge::default(),
        ));
        assert!(p.folded().is_empty());
    }
}
