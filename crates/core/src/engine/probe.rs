//! Counter-registry descriptors for the engine layer, and the
//! machine-wide snapshot.
//!
//! [`Accounting`] registers under `acct.*` (transactions plus the
//! `mpstat` mode cycle totals); [`Machine::counters`] assembles the
//! full instrument panel — memory system, merged pipeline report, a
//! `cpustat`-style [`CounterSample`], and the accounting — into one
//! flat snapshot. Everything here reads existing fields; the event loop
//! is untouched.

use probes::registry::{CounterDesc, CounterKind, CounterSet, Snapshot};
use simcpu::{CounterSample, CpiReport};
use sysos::modes::ExecMode;

use crate::engine::accounting::Accounting;
use crate::engine::kernel::Machine;
use workloads::model::Workload;

const fn count(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Count)
}

const fn cycles(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Cycles)
}

static ACCOUNTING_DESCS: [CounterDesc; 8] = [
    count("acct.transactions"),
    count("acct.window_tx"),
    cycles("acct.clock_sum"),
    // Mode totals in ALL_MODES order — the mpstat columns.
    cycles("acct.mode.user"),
    cycles("acct.mode.system"),
    cycles("acct.mode.io"),
    cycles("acct.mode.idle"),
    cycles("acct.mode.gc_idle"),
];

impl CounterSet for Accounting {
    fn descriptors(&self) -> &'static [CounterDesc] {
        &ACCOUNTING_DESCS
    }

    fn values(&self, out: &mut Vec<u64>) {
        out.extend([
            self.transactions(),
            self.window_transactions(),
            self.clocks().iter().sum(),
            self.mode_total(ExecMode::User),
            self.mode_total(ExecMode::System),
            self.mode_total(ExecMode::Io),
            self.mode_total(ExecMode::Idle),
            self.mode_total(ExecMode::GcIdle),
        ]);
    }
}

/// Every descriptor table the full machine samples through — memory
/// system, processor model, and the engine's own accounting — for
/// assembling the `simdiff` drift policy. Drift classes (Exact vs
/// Tolerance bands) ride on the descriptors, so the gate and the
/// sampler can never disagree about a counter's contract.
pub fn descriptor_tables() -> Vec<&'static [CounterDesc]> {
    let mut tables = memsys::probe::descriptor_tables();
    tables.extend(simcpu::probe::descriptor_tables());
    tables.push(&ACCOUNTING_DESCS);
    tables.push(crate::engine::attrib::descriptor_table());
    tables
}

impl<W: Workload> Machine<W> {
    /// A `cpustat`-style sample of the paper's four UltraSPARC II
    /// events, derived from the pipeline and bus counters.
    pub(crate) fn counter_sample(&self) -> CounterSample {
        let cpi = self.pset_cpi();
        CounterSample {
            cycle_cnt: cpi.cycles(),
            instr_cnt: cpi.instructions,
            ec_snoop_cb: self.memory().bus_stats().snoop_copybacks,
            ec_misses: self.memory().stats().total_l2_misses(),
        }
    }

    /// Every counter the machine maintains, as one flat snapshot:
    /// `mem.*`/`bus.*`(/`dram.*`), `cpu.*`, `cpustat.*`, `acct.*`.
    pub fn counters(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.memory().record_counters(&mut snap);
        snap.record(&self.pset_cpi());
        snap.record(&self.counter_sample());
        snap.record(self.accounting());
        snap
    }

    /// The merged [`CpiReport`] over the benchmark's processor set.
    pub(crate) fn pset_cpi(&self) -> CpiReport {
        let mut cpi = CpiReport::default();
        for &c in self.pset_cpus() {
            cpi = cpi.merge(&self.timer_report(c));
        }
        cpi
    }
}

#[cfg(test)]
mod tests {
    use crate::experiment::{jbb_machine, measure, Effort};

    #[test]
    fn machine_snapshot_is_unique_and_consistent() {
        let effort = Effort::Quick;
        let mut m = jbb_machine(4, 2, 1, effort);
        let _ = measure(&mut m, effort);

        let snap = m.counters();
        assert!(snap.names_unique());
        // Cross-crate consistency: the cpustat veneer, the bus stats and
        // the memory stats all describe the same run.
        assert_eq!(snap.get("cpustat.ec_snoop_cb"), snap.get("bus.snoop_cb"));
        assert_eq!(
            snap.get("cpustat.ec_misses"),
            snap.get("mem.l2_miss.percpu_total")
        );
        assert_eq!(snap.get("acct.transactions"), Some(m.transactions()));
        assert!(snap.get("mem.load.accesses").unwrap() > 0);
    }
}
