//! Pins the exact RunLog JSONL text for every record kind.
//!
//! The log is built in-process with fixed provenance and wall times,
//! records every kind out of order, and sets each optional field once
//! present and once absent, so any change to key order, number
//! formatting, string escaping or sort order shows up here.

use probes::registry::{CounterDesc, CounterKind, CounterSet, Snapshot};
use probes::runlog::SampleUnitRecord;
use probes::{
    AttribRecord, EventRecord, HistRecord, Histogram, IntervalRecord, JobSpan, Provenance, RunLog,
    RunMeta,
};

struct Pair(u64, u64);

impl CounterSet for Pair {
    fn descriptors(&self) -> &'static [CounterDesc] {
        static D: [CounterDesc; 2] = [
            CounterDesc::new("bus.gets", CounterKind::Count),
            CounterDesc::new("bus.snoop_filter_ppm", CounterKind::Ratio),
        ];
        &D
    }
    fn values(&self, out: &mut Vec<u64>) {
        let Pair(a, b) = self;
        out.extend([*a, *b]);
    }
}

fn bare_provenance() -> Provenance {
    Provenance {
        git_rev: "deadbeef".into(),
        hostname: "host \"one\"".into(),
        cpu_count: 4,
        timestamp: 1_700_000_000,
        workers: None,
        effort: None,
        sim_mode: None,
    }
}

fn every_kind() -> RunLog {
    let log = RunLog::new();
    let run = log.begin_run(RunMeta {
        tag: "golden".into(),
        effort: "quick".into(),
        threads: 2,
        jobs: 2,
    });
    let second = log.begin_run(RunMeta {
        tag: "tail\tcase".into(),
        effort: "standard".into(),
        threads: 1,
        jobs: 1,
    });
    log.record_span(JobSpan {
        run: second,
        id: 0,
        label: None,
        worker: 0,
        claim: 0,
        cost_hint: None,
        wall_secs: 1.0 / 3.0,
        counters: None,
    });
    log.record_span(JobSpan {
        run,
        id: 1,
        label: Some("seed-1 \"x\"".into()),
        worker: 1,
        claim: 0,
        cost_hint: Some(90),
        wall_secs: 0.25,
        counters: Some(Snapshot::of(&Pair(40, 930_000))),
    });
    log.record_span(JobSpan {
        run,
        id: 0,
        label: Some("seed-0".into()),
        worker: 0,
        claim: 1,
        cost_hint: None,
        wall_secs: 12.0,
        counters: Some(Snapshot::of(&Pair(7, 0))),
    });
    log.record_intervals((0..2).rev().map(|seq| IntervalRecord {
        run,
        id: 1,
        seq,
        start: seq as u64 * 500,
        end: (seq as u64 + 1) * 500,
        gc: seq == 1,
        counters: Snapshot::of(&Pair(seq as u64 + 3, 500_000)),
    }));
    log.record_intervals(std::iter::once(IntervalRecord {
        run,
        id: 0,
        seq: 0,
        start: 0,
        end: 1000,
        gc: false,
        counters: Snapshot::new(),
    }));
    let mut h = Histogram::new();
    h.record(3);
    h.record(3);
    h.record(700);
    log.record_hist(HistRecord {
        run,
        id: 1,
        name: "tx.response".into(),
        hist: h,
    });
    log.record_hist(HistRecord {
        run,
        id: 1,
        name: "mem.latency".into(),
        hist: Histogram::new(),
    });
    log.record_sample_units([
        SampleUnitRecord {
            run,
            id: 0,
            unit: 1,
            cluster: 1,
            start: 100,
            end: 200,
            detailed: false,
            weight_ppm: 500_000,
        },
        SampleUnitRecord {
            run,
            id: 0,
            unit: 0,
            cluster: 0,
            start: 0,
            end: 100,
            detailed: true,
            weight_ppm: 500_000,
        },
    ]);
    log.record_events([
        EventRecord {
            run,
            id: 1,
            name: "gc.pause".into(),
            start: 300,
            end: 700,
        },
        EventRecord {
            run,
            id: 1,
            name: "window.reset".into(),
            start: 300,
            end: 300,
        },
        EventRecord {
            run,
            id: 0,
            name: "dram.stall".into(),
            start: 900,
            end: 950,
        },
    ]);
    log.record_attribs([
        AttribRecord {
            run,
            id: 1,
            stack: "mutator;data_stall;memory;eden".into(),
            cycles: 75,
        },
        AttribRecord {
            run,
            id: 1,
            stack: "gc;data_stall;c2c;old_gen".into(),
            cycles: 105,
        },
    ]);
    log
}

const EMPTY_BUCKETS: &str =
    "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";

#[test]
fn every_record_kind_serializes_to_pinned_text() {
    let want = format!(
        r#"{{"ev":"provenance","git_rev":"deadbeef","hostname":"host \"one\"","cpu_count":4,"timestamp":1700000000}}
{{"ev":"run","run":0,"tag":"golden","effort":"quick","threads":2,"jobs":2}}
{{"ev":"run","run":1,"tag":"tail\tcase","effort":"standard","threads":1,"jobs":1}}
{{"ev":"job","run":0,"id":1,"worker":1,"claim":0,"label":"seed-1 \"x\"","cost_hint":90,"wall_secs":0.250000,"counters":{{"bus.gets":40,"bus.snoop_filter_ppm":930000}}}}
{{"ev":"job","run":0,"id":0,"worker":0,"claim":1,"label":"seed-0","wall_secs":12.000000,"counters":{{"bus.gets":7,"bus.snoop_filter_ppm":0}}}}
{{"ev":"job","run":1,"id":0,"worker":0,"claim":0,"wall_secs":0.333333}}
{{"ev":"interval","run":0,"id":0,"seq":0,"start":0,"end":1000,"gc":false,"counters":{{}}}}
{{"ev":"interval","run":0,"id":1,"seq":0,"start":0,"end":500,"gc":false,"counters":{{"bus.gets":3,"bus.snoop_filter_ppm":500000}}}}
{{"ev":"interval","run":0,"id":1,"seq":1,"start":500,"end":1000,"gc":true,"counters":{{"bus.gets":4,"bus.snoop_filter_ppm":500000}}}}
{{"ev":"hist","run":0,"id":1,"name":"mem.latency","count":0,"sum":0,"buckets":[{EMPTY_BUCKETS}]}}
{{"ev":"hist","run":0,"id":1,"name":"tx.response","count":3,"sum":706,"buckets":[0,0,2,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}
{{"ev":"sample_unit","run":0,"id":0,"unit":0,"cluster":0,"start":0,"end":100,"detailed":true,"weight_ppm":500000}}
{{"ev":"sample_unit","run":0,"id":0,"unit":1,"cluster":1,"start":100,"end":200,"detailed":false,"weight_ppm":500000}}
{{"ev":"event","run":0,"id":0,"name":"dram.stall","start":900,"end":950}}
{{"ev":"event","run":0,"id":1,"name":"window.reset","start":300,"end":300}}
{{"ev":"event","run":0,"id":1,"name":"gc.pause","start":300,"end":700}}
{{"ev":"attrib","run":0,"id":1,"stack":"gc;data_stall;c2c;old_gen","cycles":105}}
{{"ev":"attrib","run":0,"id":1,"stack":"mutator;data_stall;memory;eden","cycles":75}}
"#
    );
    assert_eq!(every_kind().to_jsonl(&bare_provenance()), want);
}

#[test]
fn provenance_optional_fields_serialize_when_set() {
    let prov = Provenance {
        workers: Some(2),
        effort: Some("quick".into()),
        sim_mode: Some("sampled".into()),
        ..bare_provenance()
    };
    let text = RunLog::new().to_jsonl(&prov);
    assert_eq!(
        text,
        "{\"ev\":\"provenance\",\"git_rev\":\"deadbeef\",\"hostname\":\"host \\\"one\\\"\",\
         \"cpu_count\":4,\"timestamp\":1700000000,\"workers\":2,\"effort\":\"quick\",\
         \"sim_mode\":\"sampled\"}\n"
    );
    assert_eq!(
        prov.to_json(),
        "{\"git_rev\":\"deadbeef\",\"hostname\":\"host \\\"one\\\"\",\"cpu_count\":4,\
         \"timestamp\":1700000000,\"workers\":2,\"effort\":\"quick\",\"sim_mode\":\"sampled\"}"
    );
    assert_eq!(
        bare_provenance().to_json(),
        "{\"git_rev\":\"deadbeef\",\"hostname\":\"host \\\"one\\\"\",\"cpu_count\":4,\
         \"timestamp\":1700000000}"
    );
}

#[test]
fn golden_log_passes_the_schema_check() {
    let parsed = probes::report::check(&every_kind().to_jsonl(&bare_provenance())).unwrap();
    assert_eq!(parsed.runs.len(), 2);
    assert_eq!(parsed.jobs.len(), 3);
    assert_eq!(parsed.intervals.len(), 3);
    assert_eq!(parsed.hists.len(), 2);
    assert_eq!(parsed.sample_units.len(), 2);
    assert_eq!(parsed.events.len(), 3);
    assert_eq!(parsed.attribs.len(), 2);
}
