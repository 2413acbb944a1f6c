//! `simdiff`: counter-by-counter drift gating between RunLogs.
//!
//! A refactor that silently shifts `dram.stalled_cycles` by 4% is a
//! correctness bug in a simulator even though every test still passes.
//! This module turns the RunLog into a regression oracle: aggregate a
//! log's counters into a [`Baseline`], persist it (`BASELINES.json`)
//! with provenance, and [`diff`] a fresh run against it. Each counter
//! carries a [`DriftClass`] declared on its `CounterDesc` — `Exact`
//! counters (the deterministic majority: instruction counts, miss
//! counts, transaction totals) must match bit-for-bit, while
//! `Tolerance(ppm)` counters (DRAM timing, occupancy ratios) may move
//! within a declared band. Out-of-band drift ranks to the top of the
//! report and fails the CI gate.
//!
//! Comparability guard: a sampled-mode log's counters are extrapolated
//! estimates and an effort preset changes the workload size, so
//! comparing across `sim_mode` or `effort` is a category error —
//! mirrored from `bench_smoke.sh`'s host-class guard. Worker count is
//! stamped but *not* gating: worker-count bit-identity is an invariant
//! the determinism suite proves, so cross-worker diffs are legitimate.

use crate::json::{self, Json};
use crate::provenance::Provenance;
use crate::registry::{CounterDesc, DriftClass};
use crate::report::{aggregate, ParsedLog};
use crate::runlog::{self, Counters, Field};

/// Resolves a counter name to its declared drift class by searching
/// the descriptor tables the caller registered.
pub struct DriftPolicy {
    tables: Vec<&'static [CounterDesc]>,
}

impl DriftPolicy {
    /// A policy over the given descriptor tables.
    pub fn new(tables: Vec<&'static [CounterDesc]>) -> Self {
        DriftPolicy { tables }
    }

    /// The drift class for `name`. Counters absent from every table
    /// (older logs, ad-hoc probes) fall back by convention: `_ppm`
    /// ratios get a 1% band, everything else is `Exact`.
    pub(crate) fn class_of(&self, name: &str) -> DriftClass {
        for table in &self.tables {
            if let Some(d) = table.iter().find(|d| d.name == name) {
                return d.drift;
            }
        }
        if name.ends_with("_ppm") {
            DriftClass::Tolerance(10_000)
        } else {
            DriftClass::Exact
        }
    }
}

/// A RunLog's counters aggregated across jobs, with the provenance
/// needed to refuse incomparable diffs.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Provenance of the log the baseline came from, when present.
    pub provenance: Option<Provenance>,
    /// `name → aggregated value`, sorted by name. Counts and cycles
    /// sum across jobs; `_ppm` ratios average.
    pub counters: Vec<(String, u64)>,
}

impl Baseline {
    /// Aggregates a parsed log's counters. Job-span end-of-run
    /// snapshots are preferred; logs whose spans carry no counters
    /// (e.g. interval-only captures) fall back to summing the interval
    /// series. Fails when a counter's sum overflows a u64.
    pub fn from_log(log: &ParsedLog) -> Result<Self, String> {
        let spans = log.jobs.iter().flat_map(|j| j.counters.iter().flatten());
        let mut counters: Vec<&(String, u64)> = spans.collect();
        if counters.is_empty() {
            counters = log.intervals.iter().flat_map(|iv| &iv.counters).collect();
        }
        let mut counters = (aggregate(counters).into_iter())
            .map(|(name, total)| {
                let overflow = || format!("counter {name:?} overflows a u64 summed across the log");
                Ok((name.to_string(), total.ok_or_else(overflow)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Baseline {
            provenance: log.provenance.clone(),
            counters,
        })
    }

    /// Serializes the baseline as a `BASELINES.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"provenance\": ");
        match &self.provenance {
            Some(p) => out.push_str(&p.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"counters\": {\n");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("    {}: {v}", json::quote(n)));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a `BASELINES.json` document.
    pub fn parse(src: &str) -> Result<Self, String> {
        let doc = json::parse(src).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let provenance = match doc.get("provenance") {
            None | Some(Json::Null) => None,
            Some(p) => Some(
                runlog::read_object(p, None).map_err(|e| format!("baseline provenance: {e}"))?,
            ),
        };
        let counters = (doc.get("counters")).ok_or("baseline has no \"counters\" object")?;
        let mut counters = Counters::read(counters)
            .ok_or("baseline \"counters\" is not an object of integer counters")?;
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Baseline {
            provenance,
            counters,
        })
    }
}

/// One counter's drift between baseline and current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftRow {
    /// Counter name.
    pub name: String,
    /// Baseline value.
    pub base: u64,
    /// Current value.
    pub current: u64,
    /// `|current - base| / max(base, 1)` in ppm.
    pub drift_ppm: u64,
    /// The class the policy resolved for this counter.
    pub class: DriftClass,
    /// Whether the drift exceeds the class's band.
    pub out_of_band: bool,
}

/// The full comparison: per-counter rows ranked worst-first, plus the
/// names each side had that the other lacked (both are failures — a
/// vanished counter is as suspicious as a drifted one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftReport {
    /// Per-counter drift, out-of-band rows first, then by drift.
    pub rows: Vec<DriftRow>,
    /// Counters in the baseline but not the current log.
    pub missing: Vec<String>,
    /// Counters in the current log but not the baseline.
    pub extra: Vec<String>,
}

impl DriftReport {
    /// Whether the comparison passes the gate.
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty() && !self.rows.iter().any(|r| r.out_of_band)
    }

    /// Renders the ranked drift table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>16} {:>16} {:>12}  {:<18} {}\n",
            "counter", "baseline", "current", "drift_ppm", "class", "verdict"
        ));
        for r in &self.rows {
            let class = match r.class {
                DriftClass::Exact => "exact".to_string(),
                DriftClass::Tolerance(ppm) => format!("tolerance({ppm})"),
            };
            out.push_str(&format!(
                "{:<28} {:>16} {:>16} {:>12}  {:<18} {}\n",
                r.name,
                r.base,
                r.current,
                r.drift_ppm,
                class,
                if r.out_of_band { "DRIFT" } else { "ok" }
            ));
        }
        for n in &self.missing {
            out.push_str(&format!("{n:<28} missing from current log: FAIL\n"));
        }
        for n in &self.extra {
            out.push_str(&format!("{n:<28} absent from baseline: FAIL\n"));
        }
        let bad = self.rows.iter().filter(|r| r.out_of_band).count();
        out.push_str(&format!(
            "{} counters compared, {} out of band, {} missing, {} extra: {}\n",
            self.rows.len(),
            bad,
            self.missing.len(),
            self.extra.len(),
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Renders the comparison as a machine-readable JSON document (the
    /// `simdiff --json` output): the gate verdict, one row per compared
    /// counter in the same worst-first rank as [`render`](Self::render),
    /// and the missing/extra name lists. Tolerance rows carry their
    /// band as `band_ppm`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"ok\": {},\n", self.ok()));
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let class = match r.class {
                DriftClass::Exact => "\"exact\"".to_string(),
                DriftClass::Tolerance(band) => format!("\"tolerance\",\"band_ppm\":{band}"),
            };
            out.push_str(&format!(
                "{{\"counter\":{},\"baseline\":{},\"observed\":{},\"drift_ppm\":{},\"class\":{class},\"out_of_band\":{}}}",
                json::quote(&r.name),
                r.base,
                r.current,
                r.drift_ppm,
                r.out_of_band
            ));
        }
        out.push_str("\n  ],\n");
        let name_list = |names: &[String]| {
            names
                .iter()
                .map(|n| json::quote(n))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!("  \"missing\": [{}],\n", name_list(&self.missing)));
        out.push_str(&format!("  \"extra\": [{}]\n", name_list(&self.extra)));
        out.push_str("}\n");
        out
    }
}

/// Refuses comparisons whose provenance marks them incomparable:
/// mismatched effort preset or simulation mode. Returns a description
/// of the mismatch, or `None` when the diff is legitimate.
pub fn comparability_error(base: &Option<Provenance>, cur: &Option<Provenance>) -> Option<String> {
    let (b, c) = match (base, cur) {
        (Some(b), Some(c)) => (b, c),
        _ => return None, // no provenance on one side: nothing to refuse on
    };
    if b.effort != c.effort {
        return Some(format!(
            "effort mismatch: baseline {:?} vs current {:?} — different workload sizes are not comparable",
            b.effort, c.effort
        ));
    }
    if b.sim_mode != c.sim_mode {
        return Some(format!(
            "sim_mode mismatch: baseline {:?} vs current {:?} — sampled counters are extrapolated estimates, not comparable with full-mode counts",
            b.sim_mode, c.sim_mode
        ));
    }
    None
}

/// Compares two baselines counter-by-counter under `policy`.
pub fn diff(base: &Baseline, current: &Baseline, policy: &DriftPolicy) -> DriftReport {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (name, bv) in &base.counters {
        match current.counters.iter().find(|(n, _)| n == name) {
            Some((_, cv)) => {
                let delta = bv.abs_diff(*cv);
                let drift_ppm = delta.saturating_mul(1_000_000) / (*bv).max(1);
                let class = policy.class_of(name);
                let out_of_band = match class {
                    DriftClass::Exact => delta != 0,
                    DriftClass::Tolerance(band) => drift_ppm > band,
                };
                rows.push(DriftRow {
                    name: name.clone(),
                    base: *bv,
                    current: *cv,
                    drift_ppm,
                    class,
                    out_of_band,
                });
            }
            None => missing.push(name.clone()),
        }
    }
    let extra: Vec<String> = current
        .counters
        .iter()
        .filter(|(n, _)| !base.counters.iter().any(|(bn, _)| bn == n))
        .map(|(n, _)| n.clone())
        .collect();
    rows.sort_by(|a, b| {
        b.out_of_band
            .cmp(&a.out_of_band)
            .then(b.drift_ppm.cmp(&a.drift_ppm))
            .then(a.name.cmp(&b.name))
    });
    DriftReport {
        rows,
        missing,
        extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CounterKind;

    static TEST_DESCS: [CounterDesc; 3] = [
        CounterDesc::new("t.instr", CounterKind::Count),
        CounterDesc::new("t.stall_cycles", CounterKind::Cycles)
            .with_drift(DriftClass::Tolerance(50_000)),
        CounterDesc::new("t.rate_ppm", CounterKind::Ratio)
            .with_drift(DriftClass::Tolerance(20_000)),
    ];

    fn policy() -> DriftPolicy {
        DriftPolicy::new(vec![&TEST_DESCS])
    }

    fn base_with(counters: &[(&str, u64)]) -> Baseline {
        Baseline {
            provenance: None,
            counters: counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn policy_resolves_declared_and_fallback_classes() {
        let p = policy();
        assert_eq!(p.class_of("t.instr"), DriftClass::Exact);
        assert_eq!(p.class_of("t.stall_cycles"), DriftClass::Tolerance(50_000));
        // Unknown names: ppm suffix gets the conventional band.
        assert_eq!(p.class_of("x.unknown"), DriftClass::Exact);
        assert_eq!(p.class_of("x.unknown_ppm"), DriftClass::Tolerance(10_000));
    }

    #[test]
    fn identical_baselines_pass() {
        let b = base_with(&[("t.instr", 1000), ("t.stall_cycles", 500)]);
        let report = diff(&b, &b.clone(), &policy());
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn exact_counter_rejects_any_drift_and_ranks_first() {
        let b = base_with(&[("t.instr", 1_000_000), ("t.stall_cycles", 1_000_000)]);
        let c = base_with(&[("t.instr", 1_000_001), ("t.stall_cycles", 1_010_000)]);
        let report = diff(&b, &c, &policy());
        assert!(!report.ok());
        // The exact 1-ppm drift is out of band; the 1% tolerant drift
        // is within its 5% band — and the failure ranks first.
        assert_eq!(report.rows[0].name, "t.instr");
        assert!(report.rows[0].out_of_band);
        assert!(!report.rows[1].out_of_band);
        assert!(report.render().contains("DRIFT"));
    }

    #[test]
    fn tolerance_counter_fails_outside_its_band() {
        let b = base_with(&[("t.stall_cycles", 1_000_000)]);
        let c = base_with(&[("t.stall_cycles", 1_060_000)]); // 6% > 5%
        let report = diff(&b, &c, &policy());
        assert!(!report.ok());
        assert_eq!(report.rows[0].drift_ppm, 60_000);
    }

    #[test]
    fn json_report_round_trips_and_ranks_like_the_table() {
        let b = base_with(&[
            ("t.instr", 1_000_000),
            ("t.stall_cycles", 1_000_000),
            ("t.gone", 5),
        ]);
        let c = base_with(&[
            ("t.instr", 1_000_001),
            ("t.stall_cycles", 1_010_000),
            ("t.new", 7),
        ]);
        let report = diff(&b, &c, &policy());
        let doc = json::parse(&report.render_json()).expect("render_json emits valid JSON");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let rows = doc.get("rows").and_then(Json::elements).unwrap();
        assert_eq!(rows.len(), 2);
        // Same worst-first rank as the text table: the exact failure
        // leads, with its full verdict fields.
        assert_eq!(
            rows[0].get("counter").and_then(Json::as_str),
            Some("t.instr")
        );
        assert_eq!(
            rows[0].get("baseline").and_then(Json::as_u64),
            Some(1_000_000)
        );
        assert_eq!(
            rows[0].get("observed").and_then(Json::as_u64),
            Some(1_000_001)
        );
        assert_eq!(rows[0].get("drift_ppm").and_then(Json::as_u64), Some(1));
        assert_eq!(rows[0].get("class").and_then(Json::as_str), Some("exact"));
        assert_eq!(
            rows[0].get("out_of_band").and_then(Json::as_bool),
            Some(true)
        );
        // Tolerance rows carry their band.
        assert_eq!(
            rows[1].get("class").and_then(Json::as_str),
            Some("tolerance")
        );
        assert_eq!(rows[1].get("band_ppm").and_then(Json::as_u64), Some(50_000));
        assert_eq!(
            rows[1].get("out_of_band").and_then(Json::as_bool),
            Some(false)
        );
        let missing = doc.get("missing").and_then(Json::elements).unwrap();
        assert_eq!(missing[0].as_str(), Some("t.gone"));
        let extra = doc.get("extra").and_then(Json::elements).unwrap();
        assert_eq!(extra[0].as_str(), Some("t.new"));

        // A clean diff renders ok=true with empty lists.
        let clean = diff(&b, &b.clone(), &policy());
        let doc = json::parse(&clean.render_json()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("missing").and_then(Json::elements).unwrap().len(),
            0
        );
    }

    #[test]
    fn missing_and_extra_counters_fail() {
        let b = base_with(&[("t.instr", 10), ("t.gone", 5)]);
        let c = base_with(&[("t.instr", 10), ("t.new", 7)]);
        let report = diff(&b, &c, &policy());
        assert!(!report.ok());
        assert_eq!(report.missing, vec!["t.gone".to_string()]);
        assert_eq!(report.extra, vec!["t.new".to_string()]);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let prov = Provenance {
            git_rev: "abc123".into(),
            hostname: "host".into(),
            cpu_count: 8,
            timestamp: 42,
            workers: Some(2),
            effort: Some("quick".into()),
            sim_mode: Some("full".into()),
        };
        let b = Baseline {
            provenance: Some(prov),
            counters: vec![("a.x".into(), 7), ("b.y_ppm".into(), 930_000)],
        };
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        // And without provenance.
        let bare = Baseline {
            provenance: None,
            counters: vec![("a".into(), 1)],
        };
        assert_eq!(Baseline::parse(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn comparability_guard_refuses_mode_and_effort_mismatch() {
        let mk = |effort: &str, mode: &str| {
            Some(Provenance {
                git_rev: "r".into(),
                hostname: "h".into(),
                cpu_count: 4,
                timestamp: 0,
                workers: Some(1),
                effort: Some(effort.into()),
                sim_mode: Some(mode.into()),
            })
        };
        assert!(comparability_error(&mk("quick", "full"), &mk("quick", "full")).is_none());
        let err = comparability_error(&mk("quick", "full"), &mk("paper", "full")).unwrap();
        assert!(err.contains("effort mismatch"));
        let err = comparability_error(&mk("quick", "full"), &mk("quick", "sampled")).unwrap();
        assert!(err.contains("sim_mode mismatch"));
        // Workers differ: NOT a refusal — bit-identity across worker
        // counts is the determinism suite's proven invariant.
        let mut w4 = mk("quick", "full");
        w4.as_mut().unwrap().workers = Some(4);
        assert!(comparability_error(&mk("quick", "full"), &w4).is_none());
        // Missing provenance on either side: comparison proceeds.
        assert!(comparability_error(&None, &mk("quick", "full")).is_none());
    }

    #[test]
    fn from_log_rejects_a_counter_sum_that_overflows() {
        use crate::report::JobEntry;
        let job = |id: u64| JobEntry {
            id,
            claim: id,
            counters: Some(vec![("x.count".into(), u64::MAX / 2 + 1)]),
            ..JobEntry::default()
        };
        let log = ParsedLog {
            jobs: vec![job(0), job(1)],
            ..ParsedLog::default()
        };
        let err = Baseline::from_log(&log).unwrap_err();
        assert!(err.contains("\"x.count\" overflows"), "{err}");
    }

    #[test]
    fn from_log_prefers_span_counters_and_averages_ppm() {
        use crate::provenance::Provenance;
        use crate::registry::{CounterSet, Snapshot};
        use crate::report::check;
        use crate::runlog::{JobSpan, RunLog, RunMeta};

        struct Two(u64, u64);
        impl CounterSet for Two {
            fn descriptors(&self) -> &'static [CounterDesc] {
                static D: [CounterDesc; 2] = [
                    CounterDesc::new("t.count", CounterKind::Count),
                    CounterDesc::new("t.rate_ppm", CounterKind::Ratio),
                ];
                &D
            }
            fn values(&self, out: &mut Vec<u64>) {
                let Two(a, b) = self;
                out.push(*a);
                out.push(*b);
            }
        }

        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "t".into(),
            effort: "quick".into(),
            threads: 1,
            jobs: 2,
        });
        for (id, set) in [Two(10, 400_000), Two(30, 600_000)].iter().enumerate() {
            log.record_span(JobSpan {
                run,
                id,
                label: None,
                worker: 0,
                claim: id,
                cost_hint: None,
                wall_secs: 0.1,
                counters: Some(Snapshot::of(set)),
            });
        }
        let prov = Provenance {
            git_rev: "r".into(),
            hostname: "h".into(),
            cpu_count: 1,
            timestamp: 0,
            workers: None,
            effort: None,
            sim_mode: None,
        };
        let parsed = check(&log.to_jsonl(&prov)).unwrap();
        let b = Baseline::from_log(&parsed).unwrap();
        // Counts sum across jobs; ppm ratios average.
        assert_eq!(
            b.counters,
            vec![("t.count".into(), 40), ("t.rate_ppm".into(), 500_000)]
        );
        assert!(b.provenance.is_some());
    }
}
