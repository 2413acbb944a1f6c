//! Chrome trace-event export: the RunLog as a scrubbable timeline.
//!
//! The paper's methodology lives on *time-correlated* views — GC
//! pauses, miss phases and bus traffic lined up on one axis — so the
//! RunLog's sim-time [`EventRecord`]s, interval counter series
//! and wall-clock job spans render into the Chrome trace-event JSON
//! format that Perfetto and `chrome://tracing` load directly
//! (`simreport --trace TRACE.json`).
//!
//! Layout:
//! - one *process* per run (`pid = run + 1`) holds the sim-time
//!   tracks, cycles as the time axis: per job a lane for GC activity
//!   (`gc.pause` spans, `window.reset` instants), a lane for
//!   sampled-mode unit strata (`unit.detailed` / `unit.fast` /
//!   `unit.recovery`), and a lane for DRAM queue-stall episodes —
//!   spans emit as `X` complete events (stall episodes may overlap, so
//!   `B`/`E` nesting is not assumed), instants as `i`;
//! - interval counter snapshots emit as `C` counter tracks (the
//!   preferred `simstat` columns) on a per-job lane;
//! - `pid = 0` holds one wall-clock track per worker, each job an `X`
//!   span at its cumulative claim-order offset, microseconds axis.
//!
//! [`validate_chrome_trace`] is the in-tree checker wired into
//! `simreport --check`: the document must parse, every track's
//! timestamps must be monotone non-decreasing, and `B`/`E` pairs must
//! balance.

use std::collections::HashMap;

use crate::json::{self, Json};
use crate::report::{ParsedLog, SIMSTAT_COLS};
use crate::runlog::EventRecord;

/// Sim-time lanes per job inside a run's process. Lane indices are
/// stable so thread ids (`tid = job * LANES + lane`) stay comparable
/// across exports.
const LANES: u64 = 5;
const LANE_GC: u64 = 0;
const LANE_UNITS: u64 = 1;
const LANE_DRAM: u64 = 2;
const LANE_OTHER: u64 = 3;
const LANE_COUNTERS: u64 = 4;

fn lane_of(name: &str) -> u64 {
    match name.split('.').next().unwrap_or("") {
        "gc" | "window" => LANE_GC,
        "unit" => LANE_UNITS,
        "dram" => LANE_DRAM,
        _ => LANE_OTHER,
    }
}

fn lane_label(lane: u64) -> &'static str {
    match lane {
        LANE_GC => "gc",
        LANE_UNITS => "sample units",
        LANE_DRAM => "dram stalls",
        _ => "events",
    }
}

/// Renders a parsed RunLog as a Chrome trace-event JSON document.
pub fn render_chrome_trace(log: &ParsedLog) -> String {
    let mut events: Vec<String> = Vec::new();

    // Process metadata: pid 0 is the wall-clock worker view, pid run+1
    // each run's sim-time view.
    events.push(meta_process(0, "workers (wall time, us)"));
    for (run, meta) in log.runs.iter().enumerate() {
        events.push(meta_process(
            run as u64 + 1,
            &format!("run {run} [{}] sim time (cycles)", meta.tag),
        ));
    }

    // Sim-time event lanes, one thread per (job, lane) that has events.
    let mut named_lanes: Vec<(u64, u64)> = Vec::new();
    for e in &log.events {
        let pid = e.run as u64 + 1;
        let tid = e.id as u64 * LANES + lane_of(&e.name);
        if !named_lanes.contains(&(pid, tid)) {
            named_lanes.push((pid, tid));
            events.push(meta_thread(
                pid,
                tid,
                &format!("job {} {}", e.id, lane_label(lane_of(&e.name))),
            ));
        }
        events.push(sim_event(e, pid, tid));
    }

    // Interval counter tracks: the preferred simstat columns that
    // actually appear, one `C` event per interval on the job's counter
    // lane. Chrome keys counter tracks on (pid, name), so the job id
    // is also folded into the name.
    for iv in &log.intervals {
        let pid = iv.run as u64 + 1;
        let tid = iv.id as u64 * LANES + LANE_COUNTERS;
        if !named_lanes.contains(&(pid, tid)) {
            named_lanes.push((pid, tid));
            events.push(meta_thread(pid, tid, &format!("job {} counters", iv.id)));
        }
        for col in SIMSTAT_COLS {
            if let Some((_, v)) = iv.counters.iter().find(|(n, _)| n == col) {
                events.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":{},\"args\":{{\"value\":{v}}}}}",
                    iv.start,
                    json::quote(&format!("{col} (job {})", iv.id)),
                ));
            }
        }
    }

    // Wall-clock worker tracks: jobs land at their worker's cumulative
    // busy offset in claim order (the serializer already sorts spans by
    // (run, claim)), so each track reconstructs that worker's timeline.
    let mut seen_workers: Vec<u64> = Vec::new();
    let mut cursor_us: HashMap<u64, u64> = HashMap::new();
    for j in &log.jobs {
        if !seen_workers.contains(&j.worker) {
            seen_workers.push(j.worker);
            events.push(meta_thread(0, j.worker, &format!("worker {}", j.worker)));
        }
        let start = *cursor_us.get(&j.worker).unwrap_or(&0);
        let dur = (j.wall_secs * 1e6).round().max(0.0) as u64;
        let label = j
            .label
            .clone()
            .unwrap_or_else(|| format!("run {} job {}", j.run, j.id));
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{start},\"dur\":{dur},\"name\":{}}}",
            j.worker,
            json::quote(&label),
        ));
        cursor_us.insert(j.worker, start.saturating_add(dur));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

fn sim_event(e: &EventRecord, pid: u64, tid: u64) -> String {
    if e.end == e.start {
        // Instant, thread-scoped.
        format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"name\":{}}}",
            e.start,
            json::quote(&e.name),
        )
    } else {
        format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":{}}}",
            e.start,
            e.end - e.start,
            json::quote(&e.name),
        )
    }
}

fn meta_process(pid: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        json::quote(name),
    )
}

fn meta_thread(pid: u64, tid: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
        json::quote(name),
    )
}

/// What the validator counted in a well-formed trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total trace events, metadata included.
    pub events: usize,
    /// Duration events (`X` completes plus balanced `B`/`E` pairs).
    pub spans: usize,
    /// `C` counter samples.
    pub counters: usize,
    /// `i` instant events.
    pub instants: usize,
}

/// Validates a Chrome trace-event JSON document: it must parse, carry a
/// `traceEvents` array, keep every `(pid, tid)` track's timestamps
/// monotone non-decreasing, and balance every `B` with a matching `E`.
pub fn validate_chrome_trace(src: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(src).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        _ => return Err("trace has no \"traceEvents\" array".into()),
    };
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    // Per-track validation state: last timestamp and the open B stack.
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut open: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let pid = ev
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing \"pid\""))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing \"tid\""))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing \"ts\""))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative timestamp {ts}"));
        }
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "event {i}: track ({pid},{tid}) timestamp {ts} goes backwards (after {prev})"
                ));
            }
        }
        last_ts.insert(track, ts);
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: X event missing \"dur\""))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative duration {dur}"));
                }
                summary.spans += 1;
            }
            "B" => {
                open.entry(track).or_default().push(name.to_string());
            }
            "E" => {
                let stack = open.entry(track).or_default();
                match stack.pop() {
                    Some(opened) if name.is_empty() || opened == name => summary.spans += 1,
                    Some(opened) => {
                        return Err(format!(
                            "event {i}: E {name:?} closes B {opened:?} on track ({pid},{tid})"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E {name:?} with no open B on track ({pid},{tid})"
                        ));
                    }
                }
            }
            "C" => summary.counters += 1,
            "i" | "I" => summary.instants += 1,
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    for ((pid, tid), stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!(
                "track ({pid},{tid}): B {name:?} never closed ({} open)",
                stack.len()
            ));
        }
    }
    Ok(summary)
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trace events ({} spans, {} counter samples, {} instants)",
            self.events, self.spans, self.counters, self.instants
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Provenance;
    use crate::report::check;
    use crate::runlog::{EventRecord, IntervalRecord, JobSpan, RunLog, RunMeta};

    fn timeline_log() -> ParsedLog {
        use crate::registry::{CounterDesc, CounterKind, CounterSet, Snapshot};
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

        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "figures".into(),
            effort: "quick".into(),
            threads: 2,
            jobs: 1,
        });
        log.record_span(JobSpan {
            run,
            id: 0,
            label: Some("fig10".into()),
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: 0.25,
            counters: None,
        });
        log.record_intervals((0..2).map(|seq| IntervalRecord {
            run,
            id: 0,
            seq,
            start: seq as u64 * 1000,
            end: (seq as u64 + 1) * 1000,
            gc: false,
            counters: Snapshot::of(&Cb(seq as u64 + 5)),
        }));
        log.record_events([
            EventRecord {
                run,
                id: 0,
                name: "window.reset".into(),
                start: 0,
                end: 0,
            },
            EventRecord {
                run,
                id: 0,
                name: "gc.pause".into(),
                start: 300,
                end: 700,
            },
            EventRecord {
                run,
                id: 0,
                name: "unit.detailed".into(),
                start: 0,
                end: 1000,
            },
            EventRecord {
                run,
                id: 0,
                name: "unit.fast".into(),
                start: 1000,
                end: 2000,
            },
            EventRecord {
                run,
                id: 0,
                name: "dram.stall".into(),
                start: 450,
                end: 520,
            },
        ]);
        let jsonl = log.to_jsonl(&Provenance {
            git_rev: "abc".into(),
            hostname: "h".into(),
            cpu_count: 2,
            timestamp: 1,
            workers: None,
            effort: None,
            sim_mode: None,
        });
        check(&jsonl).unwrap()
    }

    #[test]
    fn trace_round_trips_through_the_validator() {
        let trace = render_chrome_trace(&timeline_log());
        let summary = validate_chrome_trace(&trace).unwrap();
        // 4 sim spans + 1 worker span; 2 counter samples; 1 instant.
        assert_eq!(summary.spans, 5);
        assert_eq!(summary.counters, 2);
        assert_eq!(summary.instants, 1);
        // The three sim-time lanes all materialized.
        assert!(trace.contains("\"job 0 gc\""));
        assert!(trace.contains("\"job 0 sample units\""));
        assert!(trace.contains("\"job 0 dram stalls\""));
        assert!(trace.contains("\"worker 0\""));
        assert!(trace.contains("bus.snoop_cb (job 0)"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}")
            .unwrap_err()
            .contains("traceEvents"));
        // Backwards timestamps on one track.
        let bad = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":0,"ts":100,"dur":5,"name":"a"},
            {"ph":"X","pid":1,"tid":0,"ts":50,"dur":5,"name":"b"}
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("goes backwards"));
        // Unbalanced B.
        let bad = r#"{"traceEvents":[{"ph":"B","pid":1,"tid":0,"ts":1,"name":"a"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("never closed"));
        // E without B.
        let bad = r#"{"traceEvents":[{"ph":"E","pid":1,"tid":0,"ts":1,"name":"a"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("no open B"));
        // Mismatched E name.
        let bad = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1,"name":"a"},
            {"ph":"E","pid":1,"tid":0,"ts":2,"name":"b"}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("closes"));
        // Balanced pairs pass and count as spans.
        let ok = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1,"name":"a"},
            {"ph":"E","pid":1,"tid":0,"ts":2,"name":"a"}
        ]}"#;
        assert_eq!(validate_chrome_trace(ok).unwrap().spans, 1);
    }

    #[test]
    fn distinct_tracks_may_interleave_timestamps() {
        // Monotonicity is per (pid, tid), not global.
        let ok = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":0,"ts":100,"dur":5,"name":"a"},
            {"ph":"X","pid":1,"tid":1,"ts":10,"dur":5,"name":"b"},
            {"ph":"X","pid":1,"tid":0,"ts":200,"dur":5,"name":"c"}
        ]}"#;
        assert_eq!(validate_chrome_trace(ok).unwrap().spans, 3);
    }
}
