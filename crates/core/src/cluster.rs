//! Two-tier co-simulation: the application server plus the database
//! machine.
//!
//! The paper's ECperf deployment spans four machines (Figure 3); its
//! simulations ran four Simics instances and *filtered* the traffic so
//! that only the application server's processors reached the memory-
//! system simulator (Section 3.3). This module reproduces that workflow:
//! the application-server tier runs on its [`Machine`] as usual (remote
//! tiers modeled as reply latencies), every database query is logged, and
//! the log is then replayed into the database tier — its own machine with
//! its own address space, caches and timing — so both tiers' memory
//! behavior can be reported side by side, with the middle tier cleanly
//! isolated exactly as the paper isolates it.
//!
//! Both stages run on the [`ExperimentPlan`]: the app tier fans its
//! seeds across the worker pool, and each seed's query log flows into a
//! database-replay job as a plan dependency. Results merge in seed
//! order, so the report is bit-identical whatever the worker count.

use memsys::{MemorySystem, SystemSink};
use simcpu::CpuTimer;
use simstats::{fbytes, fnum, Table};
use workloads::ecperf::database::{Database, DatabaseConfig};
use workloads::ecperf::{DbQuery, Ecperf, EcperfConfig};

use crate::engine::{Machine, MachineConfig, WindowReport};
use crate::experiment::{
    ecperf_config, ecperf_machine_with, measure, ExperimentPlan, JobTelemetry,
};
use crate::Effort;

/// Address base of the database machine's memory (its own machine: the
/// space is independent of the app server's, the constant just keeps the
/// two visually distinct in traces).
const DB_MACHINE_BASE: u64 = 0x8000_0000;

/// Per-tier results of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The middle tier's window report for the first seed (the paper's
    /// monitored machine).
    pub app: WindowReport,
    /// App-server data misses per 1000 instructions (mean over seeds).
    pub app_miss_per_kilo: f64,
    /// Queries the database served, summed over seeds.
    pub db_queries: u64,
    /// Database-tier CPI (mean over seeds).
    pub db_cpi: f64,
    /// Database-tier data misses per 1000 instructions (mean over seeds).
    pub db_miss_per_kilo: f64,
    /// Database buffer-pool bytes resident (first seed).
    pub db_pool_bytes: u64,
    /// Seeds the run averaged over.
    pub seeds: u64,
}

impl ClusterReport {
    /// Renders the two tiers side by side.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Two-tier co-simulation: application server vs database",
            &["metric", "app server", "database"],
        );
        t.row(&[
            "throughput".into(),
            format!("{} BBops/s", fnum(self.app.throughput())),
            format!("{} queries", self.db_queries),
        ]);
        t.row(&["CPI".into(), fnum(self.app.cpi.cpi()), fnum(self.db_cpi)]);
        t.row(&[
            "data misses / 1000 instr".into(),
            fnum(self.app_miss_per_kilo),
            fnum(self.db_miss_per_kilo),
        ]);
        t.row(&[
            "memory footprint".into(),
            String::from("(heap; see Figure 11)"),
            fbytes(self.db_pool_bytes),
        ]);
        t
    }
}

/// One seed's app-tier measurement: the window report, the raw miss
/// numerator/denominator, and the query log the database stage consumes.
struct AppTierRun {
    report: WindowReport,
    miss_per_kilo: f64,
    queries: Vec<DbQuery>,
}

/// Runs the two-tier cluster at `pset` app-server processors over
/// `plan`'s worker pool.
///
/// Stage 1 fans the app-server seeds across the pool (each seed builds
/// its own machine with query logging on); stage 2 replays each seed's
/// query log into its own database machine. Logs flow between the
/// stages in seed order and every reduction happens after the merge, so
/// the report is bit-identical at any worker count.
pub fn run_cluster(plan: &ExperimentPlan, pset: usize) -> ClusterReport {
    let effort = plan.effort();
    // Stage 1: the application-server tier, one job per seed. All seeds
    // cost the same here; the hint matters when callers mix psets.
    let seeds: Vec<u64> = (1..=effort.seeds()).collect();
    let apps: Vec<AppTierRun> = plan.run_telemetry(
        &seeds,
        |_| effort.cost_hint(pset),
        |&seed| {
            let cfg = EcperfConfig {
                log_queries: true,
                ..ecperf_config(pset, effort.scale_divisor())
            };
            let mc = MachineConfig {
                seed,
                ..MachineConfig::e6000(pset)
            };
            let mut app: Machine<Ecperf> = ecperf_machine_with(mc, cfg);
            let report = measure(&mut app, effort);
            let miss_per_kilo = app.memory().stats().data().l2_misses as f64 * 1000.0
                / report.cpi.instructions.max(1) as f64;
            let queries = app.workload_mut().take_query_log();
            let run = AppTierRun {
                report,
                miss_per_kilo,
                queries,
            };
            (run, JobTelemetry::default())
        },
    );

    // Stage 2: each log replays into its own database tier. Log length
    // is the natural cost hint — busier app seeds make longer replays.
    let db: Vec<(f64, f64, u64)> = plan.run_telemetry(
        &apps,
        |a| a.queries.len() as u64 + 1,
        |a| {
            let out = replay_into_database(&a.queries, effort);
            (out, JobTelemetry::default())
        },
    );

    // Merge in seed order; all floating-point reductions happen here,
    // after both stages, never inside a worker.
    let n = apps.len().max(1) as f64;
    ClusterReport {
        app: apps[0].report.clone(),
        app_miss_per_kilo: apps.iter().map(|a| a.miss_per_kilo).sum::<f64>() / n,
        db_queries: apps.iter().map(|a| a.queries.len() as u64).sum(),
        db_cpi: db.iter().map(|d| d.0).sum::<f64>() / n,
        db_miss_per_kilo: db.iter().map(|d| d.1).sum::<f64>() / n,
        db_pool_bytes: db[0].2,
        seeds: apps.len() as u64,
    }
}

/// Replays a query log into a fresh database machine; returns
/// `(cpi, data misses per 1000 instructions, pool bytes)`.
pub(crate) fn replay_into_database(queries: &[DbQuery], effort: Effort) -> (f64, f64, u64) {
    let mut db = Database::new(
        DatabaseConfig {
            keyspace_divisor: effort.scale_divisor(),
            ..DatabaseConfig::default()
        },
        memsys::AddrRange::new(memsys::Addr(DB_MACHINE_BASE), 256 << 20),
    );
    let mut machine = MemorySystem::e6000(1).expect("db machine");
    let mut timer = CpuTimer::e6000();

    struct TierSink<'a> {
        sys: SystemSink<'a>,
        timer: &'a mut CpuTimer,
    }
    impl memsys::MemSink for TierSink<'_> {
        fn instructions(&mut self, n: u64) {
            self.timer.retire(n);
        }
        fn access(&mut self, kind: memsys::AccessKind, addr: memsys::Addr) {
            self.sys.access(kind, addr);
        }
    }
    // SystemSink discards instruction counts; wrap to keep them.
    {
        let mut sink = TierSink {
            sys: SystemSink::new(&mut machine, 0),
            timer: &mut timer,
        };
        for q in queries {
            if q.write {
                if !db.update(q.ty, q.key, &mut sink) {
                    let _ = db.insert(q.ty, &mut sink);
                }
            } else {
                let _ = db.select(q.ty, q.key, &mut sink);
            }
        }
    }
    // Charge the misses into the timer for a CPI figure.
    let stats = machine.stats();
    let report = timer.report();
    let instr = report.instructions.max(1);
    let data = stats.data();
    let miss_per_kilo = data.l2_misses as f64 * 1000.0 / instr as f64;
    // CPI from base + a memory-latency charge per L2 miss.
    let lat = simcpu::LatencyTable::e6000();
    let cycles = report.cycles() + data.l2_misses * lat.memory + data.l1_misses * lat.l2_hit;
    let cpi = cycles as f64 / instr as f64;
    (cpi, miss_per_kilo, db.pool_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_runs_both_tiers() {
        let r = run_cluster(&ExperimentPlan::new(Effort::Quick), 2);
        assert!(
            r.app.transactions > 50,
            "app tier ran: {}",
            r.app.transactions
        );
        assert!(r.db_queries > 50, "queries were logged: {}", r.db_queries);
        assert!(r.db_cpi > 1.0, "db CPI plausible: {}", r.db_cpi);
        assert!(r.db_pool_bytes > 0);
        assert_eq!(r.seeds, 1);
        assert!(r.table().to_string().contains("Two-tier"));
    }

    #[test]
    fn replay_is_deterministic() {
        let queries = vec![
            DbQuery {
                ty: workloads::ecperf::beans::BeanType::Customer,
                key: 5,
                write: false,
            };
            100
        ];
        let a = replay_into_database(&queries, Effort::Quick);
        let b = replay_into_database(&queries, Effort::Quick);
        assert_eq!(a, b);
    }
}
