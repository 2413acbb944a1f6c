//! Counter-registry descriptors for the processor timing model.
//!
//! - `cpustat.*` — [`CounterSample`], under the UltraSPARC II event
//!   names the paper reads through Solaris `cpustat` (Section 4.3);
//! - `cpu.*` — [`CpiReport`], the CPI/stall decomposition behind the
//!   paper's Figure 7 stacks.
//!
//! As everywhere in the registry, `values` destructures exhaustively so
//! a new field cannot go unregistered.

use probes::registry::{CounterDesc, CounterKind, CounterSet};

use crate::counters::CounterSample;
use crate::pipeline::{CpiReport, DataStall};

const fn count(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Count)
}

const fn cycles(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Cycles)
}

static COUNTER_SAMPLE_DESCS: [CounterDesc; 4] = [
    cycles("cpustat.cycle_cnt"),
    count("cpustat.instr_cnt"),
    count("cpustat.ec_snoop_cb"),
    count("cpustat.ec_misses"),
];

impl CounterSet for CounterSample {
    fn descriptors(&self) -> &'static [CounterDesc] {
        &COUNTER_SAMPLE_DESCS
    }

    fn values(&self, out: &mut Vec<u64>) {
        let CounterSample {
            cycle_cnt,
            instr_cnt,
            ec_snoop_cb,
            ec_misses,
        } = self;
        out.extend([*cycle_cnt, *instr_cnt, *ec_snoop_cb, *ec_misses]);
    }
}

static CPI_REPORT_DESCS: [CounterDesc; 10] = [
    count("cpu.instructions"),
    count("cpu.loads"),
    count("cpu.stores"),
    cycles("cpu.base_cycles"),
    cycles("cpu.instr_stall"),
    cycles("cpu.stall.store_buffer"),
    cycles("cpu.stall.raw_hazard"),
    cycles("cpu.stall.l2_hit"),
    cycles("cpu.stall.c2c"),
    cycles("cpu.stall.memory"),
];

impl CounterSet for CpiReport {
    fn descriptors(&self) -> &'static [CounterDesc] {
        &CPI_REPORT_DESCS
    }

    fn values(&self, out: &mut Vec<u64>) {
        let CpiReport {
            instructions,
            loads,
            stores,
            base_cycles,
            instr_stall,
            data_stall,
        } = self;
        let DataStall {
            store_buffer,
            raw_hazard,
            l2_hit,
            cache_to_cache,
            memory,
        } = data_stall;
        out.extend([
            *instructions,
            *loads,
            *stores,
            *base_cycles,
            *instr_stall,
            *store_buffer,
            *raw_hazard,
            *l2_hit,
            *cache_to_cache,
            *memory,
        ]);
    }
}

/// Every descriptor table this crate declares, for the `simdiff`
/// drift policy. The processor model is a deterministic state machine,
/// so every counter here is `Exact` (the `CounterDesc` default).
pub fn descriptor_tables() -> Vec<&'static [CounterDesc]> {
    vec![&COUNTER_SAMPLE_DESCS, &CPI_REPORT_DESCS]
}

#[cfg(test)]
mod tests {
    use super::*;
    use probes::registry::Snapshot;

    #[test]
    fn cpi_report_registers_every_stall_bucket() {
        let report = CpiReport {
            instructions: 100,
            loads: 30,
            stores: 10,
            base_cycles: 120,
            instr_stall: 8,
            data_stall: DataStall {
                store_buffer: 1,
                raw_hazard: 2,
                l2_hit: 3,
                cache_to_cache: 4,
                memory: 5,
            },
        };
        let snap = Snapshot::of(&report);
        assert!(snap.names_unique());
        assert_eq!(snap.iter().count(), 10);
        assert_eq!(snap.get("cpu.stall.c2c"), Some(4));
        // The snapshot's cycle counters reproduce the report's total.
        let total: u64 = ["cpu.base_cycles", "cpu.instr_stall"]
            .iter()
            .chain(
                [
                    "cpu.stall.store_buffer",
                    "cpu.stall.raw_hazard",
                    "cpu.stall.l2_hit",
                    "cpu.stall.c2c",
                    "cpu.stall.memory",
                ]
                .iter(),
            )
            .map(|n| snap.get(n).unwrap())
            .sum();
        assert_eq!(total, report.cycles());
    }

    #[test]
    fn counter_sample_uses_cpustat_names() {
        let s = CounterSample {
            cycle_cnt: 9,
            instr_cnt: 4,
            ec_snoop_cb: 2,
            ec_misses: 3,
        };
        let snap = Snapshot::of(&s);
        assert_eq!(snap.get("cpustat.cycle_cnt"), Some(9));
        assert_eq!(snap.get("cpustat.ec_snoop_cb"), Some(2));
    }
}
