//! RunLog rendering: the logic behind the `simreport` binary.
//!
//! Three consumers share this module: `simreport` (human text and CSV),
//! `simreport --check` (the JSONL schema validation CI runs over every
//! committed and regenerated RunLog), and tests. The binary stays a
//! thin argv shim.
//!
//! [`check`] reads each line through its kind's one declaration in
//! [`crate::runlog`] and applies the declared rules generically; only
//! the rules that span kinds (span accounting, sample-unit weights,
//! attribution sums, memory-counter identities) are written out here.
//!
//! The text renderer mirrors the paper's two instruments:
//! - an `mpstat`-style table — one row per *worker* instead of per CPU,
//!   with jobs executed, busy seconds, and occupancy share, plus a
//!   largest-first scheduling audit (were higher-cost jobs claimed
//!   earlier, and did the hints predict wall time?);
//! - a `cpustat`-style dump — the per-job counter snapshots summed over
//!   each run, one `name value unit` row per counter.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::provenance::Provenance;
use crate::runlog::{
    self, AttribRecord, Counters, EventRecord, HistRecord, Interval, Job, Record, RunLine, RunMeta,
    SampleUnitRecord, EV_KEY,
};

/// A job span as read back: `u64` ids and owned counter names.
pub type JobEntry = Job<u64, Option<Counters>>;

/// An interval record as read back, with owned counter names.
pub type IntervalEntry = Interval<Counters>;

/// A validated RunLog document. Every list is in file order, which the
/// writer sorts by each kind's declared [`Record::key`].
#[derive(Debug, Clone, Default)]
pub struct ParsedLog {
    /// The provenance event, if the log carried one.
    pub provenance: Option<Provenance>,
    /// Run metadata lines, indexed by run id.
    pub runs: Vec<RunMeta>,
    /// Job spans.
    pub jobs: Vec<JobEntry>,
    /// Interval samples.
    pub intervals: Vec<IntervalEntry>,
    /// Named latency histograms.
    pub hists: Vec<HistRecord>,
    /// Sampled-mode unit schedules.
    pub sample_units: Vec<SampleUnitRecord>,
    /// Sim-time events.
    pub events: Vec<EventRecord>,
    /// Cycle-attribution stacks.
    pub attribs: Vec<AttribRecord>,
}

/// Next expected sequence number per `(kind, run, job)`.
type Seqs = HashMap<(&'static str, u64, u64), u64>;

/// Parses and schema-checks a RunLog JSONL document.
///
/// Errors name the offending line (1-based) and what was wrong — this
/// is the whole of `simreport --check`. Malformed input of any shape
/// yields `Err`, never a panic.
pub fn check(src: &str) -> Result<ParsedLog, String> {
    let mut log = ParsedLog::default();
    let mut seqs = Seqs::new();
    for (idx, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        read_line(line, &mut log, &mut seqs).map_err(|e| format!("line {}: {e}", idx + 1))?;
    }
    check_spans(&log)?;
    unique(&log.jobs)?;
    unique(&log.intervals)?;
    unique(&log.hists)?;
    unique(&log.sample_units)?;
    unique(&log.events)?;
    unique(&log.attribs)?;
    check_sample_weights(&log)?;
    check_attrib_sums(&log)?;
    check_counter_identities(&log)?;
    if log.provenance.is_none() {
        return Err("log has no provenance event".into());
    }
    Ok(log)
}

/// Reads one line into its kind's list.
fn read_line(line: &str, log: &mut ParsedLog, seqs: &mut Seqs) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let ev = v
        .get(EV_KEY)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {EV_KEY:?}"))?;
    match ev {
        _ if ev == Provenance::EV => {
            if log.provenance.replace(accept(&v, log, seqs)?).is_some() {
                return Err("duplicate provenance event".into());
            }
        }
        _ if ev == RunLine::EV => log.runs.push(accept::<RunLine>(&v, log, seqs)?.meta),
        _ if ev == JobEntry::EV => log.jobs.push(accept(&v, log, seqs)?),
        _ if ev == IntervalEntry::EV => log.intervals.push(accept(&v, log, seqs)?),
        _ if ev == HistRecord::EV => log.hists.push(accept(&v, log, seqs)?),
        _ if ev == SampleUnitRecord::EV => log.sample_units.push(accept(&v, log, seqs)?),
        _ if ev == EventRecord::EV => log.events.push(accept(&v, log, seqs)?),
        _ if ev == AttribRecord::EV => log.attribs.push(accept(&v, log, seqs)?),
        other => return Err(format!("unknown event type {other:?}")),
    }
    Ok(())
}

/// Reads one record and applies its declared per-line rules: it
/// belongs to a job of an earlier run, its window runs forwards, and
/// its sequence number is the next one.
fn accept<R: Record>(v: &Json, log: &ParsedLog, seqs: &mut Seqs) -> Result<R, String> {
    let rec: R = runlog::read_object(v, Some(EV_KEY))?;
    if let Some((run, id)) = rec.job() {
        let meta = usize::try_from(run)
            .ok()
            .and_then(|r| log.runs.get(r))
            .ok_or_else(|| format!("{} references run {run} before its run event", R::EV))?;
        if id >= meta.jobs as u64 {
            return Err(format!(
                "{} job id out of range for a {}-job run",
                R::EV,
                meta.jobs
            ));
        }
    }
    if let Some((start, end)) = rec.window() {
        if end < start || (end == start && !R::INSTANTS) {
            let empty = if R::INSTANTS { "" } else { "empty or " };
            return Err(format!(
                "{} window [{start}, {end}) is {empty}backwards",
                R::EV
            ));
        }
    }
    if let Some(seq) = rec.seq() {
        let (run, id) = rec.job().unwrap_or_default();
        let want = seqs.entry((R::EV, run, id)).or_insert(0);
        if seq != *want {
            let of = rec
                .job()
                .map_or(String::new(), |_| format!(" of run {run} job {id}"));
            return Err(format!(
                "{} {seq}{of} out of order (expected {want})",
                R::EV
            ));
        }
        *want += 1;
    }
    Ok(rec)
}

/// Rejects two records sharing a key, for kinds that declare it unique.
fn unique<R: Record>(records: &[R]) -> Result<(), String> {
    if !R::UNIQUE {
        return Ok(());
    }
    let mut seen = HashSet::new();
    for rec in records {
        if !seen.insert(rec.key()) {
            return Err(format!("duplicate {} record {:?}", R::EV, rec.key()));
        }
    }
    Ok(())
}

/// Span accounting: a run's spans carry each job id and each claim
/// position in `0..jobs` exactly once, and each ran on one of the
/// run's `min(threads, jobs)` workers (the pool `ExperimentPlan`
/// spawns).
fn check_spans(log: &ParsedLog) -> Result<(), String> {
    let mut ids = HashSet::new();
    let mut claims = HashSet::new();
    for j in &log.jobs {
        // `accept` already checked that the run exists.
        let meta = &log.runs[j.run as usize];
        let jobs = meta.jobs;
        if j.claim >= jobs as u64 {
            return Err(format!(
                "run {} job {}: claim {} out of range for a {jobs}-job run",
                j.run, j.id, j.claim
            ));
        }
        let pool = workers(meta);
        if j.worker >= pool {
            return Err(format!(
                "run {} job {}: worker {} out of range for {pool} workers",
                j.run, j.id, j.worker
            ));
        }
        if !ids.insert((j.run, j.id)) {
            return Err(format!("duplicate span for run {} job {}", j.run, j.id));
        }
        if !claims.insert((j.run, j.claim)) {
            return Err(format!("duplicate claim {} in run {}", j.claim, j.run));
        }
    }
    for (run, meta) in log.runs.iter().enumerate() {
        let seen = log.jobs.iter().filter(|j| j.run == run as u64).count();
        if seen != meta.jobs {
            return Err(format!(
                "run {run} declares {} jobs but the log has {seen} spans for it",
                meta.jobs
            ));
        }
    }
    Ok(())
}

/// The population weights must account for the whole window. Every
/// unit carries its *cluster's* share (floor of pop * 1e6 / total), so
/// units of one cluster agree on the weight and the distinct-cluster
/// weights sum to 1_000_000 less at most one ppm of floor shortfall per
/// cluster. A sum outside that band means the schedule lost units (or
/// double-counted them) and every extrapolated number downstream is
/// silently misweighted.
fn check_sample_weights(log: &ParsedLog) -> Result<(), String> {
    let mut by_job: HashMap<(usize, usize), HashMap<usize, u64>> = HashMap::new();
    for su in &log.sample_units {
        let clusters = by_job.entry((su.run, su.id)).or_default();
        match clusters.insert(su.cluster, su.weight_ppm) {
            Some(prev) if prev != su.weight_ppm => {
                return Err(format!(
                    "run {} job {} cluster {}: units disagree on weight ({} vs {} ppm)",
                    su.run, su.id, su.cluster, prev, su.weight_ppm
                ));
            }
            _ => {}
        }
    }
    for ((run, id), clusters) in &by_job {
        // Each weight is at most 1e6 (a declared rule), so this cannot
        // overflow.
        let sum: u64 = clusters.values().sum();
        let n = clusters.len() as u64;
        if sum > 1_000_000 || 1_000_000 - sum >= n.max(1) {
            return Err(format!(
                "run {run} job {id}: sample unit weights sum to {sum} ppm across {n} \
                 clusters (expected 1000000 - rounding)",
            ));
        }
    }
    Ok(())
}

/// The log's attributed cycles must sum within a u64, which bounds
/// every per-job, per-run and per-stack sum the attribution views take.
/// When a job's span carries the profiler's own `attrib.cycles`
/// counter, the job's stack weights must add up to it exactly — the
/// counter is computed from the same accumulator, so any mismatch
/// means dropped records.
fn check_attrib_sums(log: &ParsedLog) -> Result<(), String> {
    if checked_sum(log.attribs.iter().map(|at| at.cycles)).is_none() {
        return Err("attrib stack cycles summed over the log overflow a u64".into());
    }
    let mut sums: HashMap<(u64, u64), u64> = HashMap::new();
    for at in &log.attribs {
        *sums.entry((at.run as u64, at.id as u64)).or_insert(0) += at.cycles;
    }
    for j in &log.jobs {
        let declared = j
            .counters
            .iter()
            .flatten()
            .find(|(n, _)| n == "attrib.cycles");
        let Some((_, declared)) = declared else {
            continue;
        };
        let recorded = sums.get(&(j.run, j.id)).copied().unwrap_or(0);
        if recorded != *declared {
            return Err(format!(
                "run {} job {}: attrib stacks sum to {recorded} cycles but the span \
                 declares attrib.cycles={declared}",
                j.run, j.id
            ));
        }
    }
    Ok(())
}

/// The memory-system counters on a job span must nest the way
/// `memsys` counts them. Per reference kind, a cache-to-cache transfer
/// is an L2 miss, an L2 miss or an upgrade is an L1 miss, and an L1
/// miss is an access: `c2c <= l2_misses` and `l2_misses + upgrades <=
/// l1_misses <= accesses`. The per-processor totals equal the sums over
/// the kinds. A span that carries none of a kind's counters is skipped;
/// one that carries some of them must carry all five. Counters are below
/// 2^53 (a declared rule), so the sums cannot overflow.
fn check_counter_identities(log: &ParsedLog) -> Result<(), String> {
    const FIELDS: [&str; 5] = ["accesses", "l1_misses", "l2_misses", "upgrades", "c2c"];
    for j in &log.jobs {
        let Some(counters) = &j.counters else {
            continue;
        };
        let get = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let fail = |what: String| Err(format!("run {} job {}: {what}", j.run, j.id));
        let (mut l2_sum, mut c2c_sum) = (0, 0);
        for kind in ["ifetch", "load", "store"] {
            let values = FIELDS.map(|f| get(&format!("mem.{kind}.{f}")));
            if values.iter().all(Option::is_none) {
                continue;
            }
            let [Some(accesses), Some(l1), Some(l2), Some(upgrades), Some(c2c)] = values else {
                return fail(format!("mem.{kind} carries only some of its counters"));
            };
            if c2c > l2 {
                return fail(format!("mem.{kind}.c2c={c2c} exceeds l2_misses={l2}"));
            }
            if l2 + upgrades > l1 || l1 > accesses {
                return fail(format!(
                    "mem.{kind} counters do not nest: l2_misses={l2} + upgrades={upgrades}                      <= l1_misses={l1} <= accesses={accesses} fails"
                ));
            }
            l2_sum += l2;
            c2c_sum += c2c;
        }
        for (total, sum) in [
            ("mem.l2_miss.percpu_total", l2_sum),
            ("mem.c2c.percpu_total", c2c_sum),
        ] {
            if let Some(declared) = get(total) {
                if declared != sum {
                    return fail(format!("{total}={declared} but the kinds sum to {sum}"));
                }
            }
        }
    }
    Ok(())
}

/// Sums `values` without wrapping; `None` on overflow.
fn checked_sum(values: impl IntoIterator<Item = u64>) -> Option<u64> {
    values.into_iter().try_fold(0u64, u64::checked_add)
}

/// A total for display: the number, or `overflow` when the sum does
/// not fit a u64.
fn show(total: Option<u64>) -> String {
    total.map_or_else(|| "overflow".into(), |t| t.to_string())
}

/// Renders the human-readable report: provenance header, then per run
/// an `mpstat`-style worker table and a `cpustat`-style counter dump.
pub fn render_text(log: &ParsedLog) -> String {
    let mut out = String::new();
    provenance_header(&mut out, "runlog", log);
    for (run, meta) in log.runs.iter().enumerate() {
        let jobs: Vec<&JobEntry> = log.jobs.iter().filter(|j| j.run == run as u64).collect();
        let _ = writeln!(
            out,
            "\nrun {run} [{}]  effort={} threads={} jobs={}",
            meta.tag, meta.effort, meta.threads, meta.jobs
        );
        render_worker_table(&mut out, meta, &jobs);
        render_hint_audit(&mut out, &jobs);
        render_counter_sum(&mut out, &jobs);
    }
    out
}

/// The workers a run could use: one per thread, at most one per job.
fn workers(meta: &RunMeta) -> u64 {
    meta.threads.min(meta.jobs) as u64
}

/// The `mpstat` analogue: one row per worker with occupancy.
fn render_worker_table(out: &mut String, meta: &RunMeta, jobs: &[&JobEntry]) {
    let total_busy: f64 = jobs.iter().map(|j| j.wall_secs).sum();
    let _ = writeln!(out, "  worker   jobs    busy_s   share%  avg_job_s");
    for w in 0..workers(meta) {
        let mine: Vec<&&JobEntry> = jobs.iter().filter(|j| j.worker == w).collect();
        let busy: f64 = mine.iter().map(|j| j.wall_secs).sum();
        let share = if total_busy > 0.0 {
            100.0 * busy / total_busy
        } else {
            0.0
        };
        let avg = if mine.is_empty() {
            0.0
        } else {
            busy / mine.len() as f64
        };
        let _ = writeln!(
            out,
            "  {w:>6}  {:>5}  {busy:>8.3}  {share:>6.1}  {avg:>9.3}",
            mine.len()
        );
    }
    let _ = writeln!(
        out,
        "  {:>6}  {:>5}  {total_busy:>8.3}",
        "total",
        jobs.len()
    );
}

/// The largest-first audit: were higher-hint jobs claimed earlier, and
/// did the hints track measured wall time?
fn render_hint_audit(out: &mut String, jobs: &[&JobEntry]) {
    let mut hinted: Vec<&&JobEntry> = jobs.iter().filter(|j| j.cost_hint.is_some()).collect();
    if hinted.len() < 2 {
        return;
    }
    hinted.sort_by_key(|j| j.claim);
    let pairs = hinted.len() - 1;
    let ordered = hinted
        .windows(2)
        .filter(|w| w[0].cost_hint >= w[1].cost_hint)
        .count();
    // Hint quality: agreement between hint order and wall-time order
    // over all pairs (a Kendall-style concordance count).
    let mut concordant = 0usize;
    let mut comparable = 0usize;
    for i in 0..hinted.len() {
        for j in (i + 1)..hinted.len() {
            let (a, b) = (hinted[i], hinted[j]);
            if a.cost_hint == b.cost_hint || a.wall_secs == b.wall_secs {
                continue;
            }
            comparable += 1;
            if (a.cost_hint > b.cost_hint) == (a.wall_secs > b.wall_secs) {
                concordant += 1;
            }
        }
    }
    let _ = writeln!(
        out,
        "  largest-first: {ordered}/{pairs} adjacent claims non-increasing; hint/wall concordance {concordant}/{comparable}"
    );
}

/// The `cpustat` analogue: counter snapshots aggregated over the run.
/// Monotonic counters sum; registry ratio counters (the `_ppm` naming
/// convention) average instead — a sum of per-job ratios means nothing.
fn render_counter_sum(out: &mut String, jobs: &[&JobEntry]) {
    let totals = aggregate(jobs.iter().flat_map(|j| j.counters.iter().flatten()));
    let width = totals.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    if totals.is_empty() {
        return;
    }
    let _ = writeln!(out, "  counters (aggregated over {} jobs):", jobs.len());
    for (name, total) in totals {
        let mean = if name.ends_with("_ppm") {
            " (mean)"
        } else {
            ""
        };
        let _ = writeln!(out, "    {name:<width$}  {:>16}{mean}", show(total));
    }
}

/// Aggregates counters by name, in first-seen order: counts and cycles
/// sum, `_ppm` ratios average over the values seen. `None` marks a sum
/// that overflows a u64.
pub(crate) fn aggregate<'a>(
    counters: impl IntoIterator<Item = &'a (String, u64)>,
) -> Vec<(&'a str, Option<u64>)> {
    let mut sums: Vec<(&str, Option<u64>, u64)> = Vec::new();
    for (name, v) in counters {
        match sums.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, sum, seen)) => {
                *sum = sum.and_then(|s| s.checked_add(*v));
                *seen += 1;
            }
            None => sums.push((name, Some(*v), 1)),
        }
    }
    let mean = |(name, sum, seen): (&'a str, Option<u64>, u64)| match name.ends_with("_ppm") {
        true => (name, sum.map(|s| s / seen)),
        false => (name, sum),
    };
    sums.into_iter().map(mean).collect()
}

/// Renders the log as job-level CSV. Fixed columns first, then one
/// column per counter name in first-seen order (blank when a job has
/// no snapshot).
pub fn render_csv(log: &ParsedLog) -> String {
    let rows = log.jobs.iter().map(|j| {
        let fixed = format!(
            "{},{},{},{},{},{},{},{:.6}",
            j.run,
            csv_field(run_tag(log, j.run)),
            j.id,
            csv_field(j.label.as_deref().unwrap_or("")),
            j.worker,
            j.claim,
            j.cost_hint.map(|h| h.to_string()).unwrap_or_default(),
            j.wall_secs
        );
        (fixed, j.counters.as_deref().unwrap_or(&[]))
    });
    counter_csv(
        "run,tag,id,label,worker,claim,cost_hint,wall_secs",
        rows.collect(),
    )
}

/// Renders the interval series as CSV: fixed columns, then one column
/// per counter name in first-seen order.
pub fn render_interval_csv(log: &ParsedLog) -> String {
    let rows = log.intervals.iter().map(|iv| {
        let fixed = format!(
            "{},{},{},{},{},{},{}",
            iv.run,
            csv_field(run_tag(log, iv.run as u64)),
            iv.id,
            iv.seq,
            iv.start,
            iv.end,
            iv.gc as u8
        );
        (fixed, iv.counters.as_slice())
    });
    counter_csv("run,tag,id,seq,start,end,gc", rows.collect())
}

/// A CSV table of fixed cells followed by one column per counter name,
/// in first-seen order, blank where a row lacks the counter.
fn counter_csv(header: &str, rows: Vec<(String, &[(String, u64)])>) -> String {
    let mut names: Vec<&str> = Vec::new();
    for &(_, counters) in &rows {
        for (name, _) in counters {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    let mut out = String::from(header);
    for name in &names {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for (fixed, counters) in &rows {
        out.push_str(fixed);
        for name in &names {
            out.push(',');
            if let Some((_, v)) = counters.iter().find(|(n, _)| n == name) {
                let _ = write!(out, "{v}");
            }
        }
        out.push('\n');
    }
    out
}

/// The tag of run `run`, or empty when the log has no such run.
fn run_tag(log: &ParsedLog, run: u64) -> &str {
    let meta = usize::try_from(run).ok().and_then(|r| log.runs.get(r));
    meta.map_or("", |m| m.tag.as_str())
}

/// The one-line provenance banner the text views open with.
fn provenance_header(out: &mut String, view: &str, log: &ParsedLog) {
    if let Some(p) = &log.provenance {
        let _ = writeln!(
            out,
            "{view}: rev {} on {} ({} cpus), t={}",
            p.git_rev, p.hostname, p.cpu_count, p.timestamp
        );
    }
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Interval-table columns shown first when present; the rest of the
/// table fills with the largest remaining counters. Shared with the
/// timeline exporter, which emits the same preferred columns as
/// Chrome-trace counter tracks.
pub(crate) const SIMSTAT_COLS: [&str; 8] = [
    "cpustat.instr_cnt",
    "cpustat.ec_misses",
    "bus.snoop_cb",
    "bus.gets",
    "mem.writebacks",
    "dram.queue_occupancy",
    "dram.queue_stalls",
    "acct.window_tx",
];

/// How many counter columns the interval table shows.
const SIMSTAT_TABLE_COLS: usize = 8;

/// ASCII sparkline levels, dimmest to brightest.
const SPARK_LEVELS: &[u8] = b" .:-=+*#@";

/// Renders the `simstat` view: per job an `mpstat`-style interval
/// table and ASCII sparklines over every active counter, then a
/// percentile table for the captured latency histograms.
///
/// `Ratio` (`_ppm`) counters aggregate as means — a sum of
/// per-interval ratios means nothing — everything else sums.
pub fn render_simstat(log: &ParsedLog) -> String {
    let mut out = String::new();
    provenance_header(&mut out, "simstat", log);
    for (run, id) in series_groups(log) {
        let series: Vec<&IntervalEntry> = log
            .intervals
            .iter()
            .filter(|i| i.run == run && i.id == id)
            .collect();
        let label = log
            .jobs
            .iter()
            .find(|j| j.run == run as u64 && j.id == id as u64)
            .and_then(|j| j.label.clone())
            .map(|l| format!(" [{l}]"))
            .unwrap_or_default();
        let width_cycles = series[0].end - series[0].start;
        let _ = writeln!(
            out,
            "\nrun {run} job {id}{label}: {} intervals x {width_cycles} cycles",
            series.len()
        );
        render_interval_table(&mut out, &series);
        render_sparklines(&mut out, &series);
    }
    render_hist_table(&mut out, log);
    out
}

/// Distinct `(run, id)` interval series, in file order.
fn series_groups(log: &ParsedLog) -> Vec<(usize, usize)> {
    let mut groups = Vec::new();
    for iv in &log.intervals {
        if !groups.contains(&(iv.run, iv.id)) {
            groups.push((iv.run, iv.id));
        }
    }
    groups
}

/// Sum (or mean, for `_ppm` ratio counters) of one counter over a
/// series; `None` when the sum overflows a u64.
fn series_total(series: &[&IntervalEntry], name: &str) -> Option<u64> {
    let values = series.iter().flat_map(|iv| &iv.counters);
    aggregate(values.filter(|(n, _)| n == name))
        .first()
        .map_or(Some(0), |&(_, total)| total)
}

/// Counter names of a series in first-interval order.
fn series_names(series: &[&IntervalEntry]) -> Vec<String> {
    series
        .first()
        .map(|iv| iv.counters.iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default()
}

/// Picks the interval-table columns: preferred names first, then the
/// largest remaining totals, capped at [`SIMSTAT_TABLE_COLS`].
fn table_columns(series: &[&IntervalEntry]) -> Vec<String> {
    let names = series_names(series);
    let mut cols: Vec<String> = SIMSTAT_COLS
        .iter()
        .filter(|c| names.iter().any(|n| n == *c))
        .map(|c| c.to_string())
        .collect();
    let mut rest: Vec<&String> = names.iter().filter(|n| !cols.contains(n)).collect();
    rest.sort_by(|a, b| {
        series_total(series, b)
            .cmp(&series_total(series, a))
            .then_with(|| a.cmp(b))
    });
    cols.extend(
        rest.into_iter()
            .take(SIMSTAT_TABLE_COLS.saturating_sub(cols.len()))
            .cloned(),
    );
    cols
}

/// The `mpstat` analogue over time: one row per interval.
fn render_interval_table(out: &mut String, series: &[&IntervalEntry]) {
    let cols = table_columns(series);
    let widths: Vec<usize> = cols.iter().map(|c| c.len().max(10)).collect();
    let _ = write!(out, "   seq  start_mcyc  gc");
    for (c, w) in cols.iter().zip(&widths) {
        let _ = write!(out, "  {c:>w$}");
    }
    out.push('\n');
    for iv in series {
        let _ = write!(
            out,
            "  {:>4}  {:>10.1}  {:>2}",
            iv.seq,
            iv.start as f64 / 1e6,
            if iv.gc { "*" } else { "" }
        );
        for (c, w) in cols.iter().zip(&widths) {
            let v = iv
                .counters
                .iter()
                .find(|(n, _)| n == c)
                .map(|&(_, v)| v)
                .unwrap_or(0);
            let _ = write!(out, "  {v:>w$}");
        }
        out.push('\n');
    }
    let _ = write!(out, "  {:>4}  {:>10}  {:>2}", "tot", "", "");
    for (c, w) in cols.iter().zip(&widths) {
        let _ = write!(out, "  {:>w$}", show(series_total(series, c)));
    }
    out.push('\n');
}

/// One ASCII sparkline per counter that moved during the series, plus a
/// GC-activity line, each scaled to its own peak interval.
fn render_sparklines(out: &mut String, series: &[&IntervalEntry]) {
    let names = series_names(series);
    let width = names.iter().map(|n| n.len()).max().unwrap_or(0);
    let gc_line: String = series
        .iter()
        .map(|iv| if iv.gc { '#' } else { '.' })
        .collect();
    let _ = writeln!(out, "  {:<width$}  |{gc_line}|", "gc");
    for name in &names {
        let vals: Vec<u64> = series
            .iter()
            .map(|iv| {
                iv.counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or(0)
            })
            .collect();
        let peak = vals.iter().copied().max().unwrap_or(0);
        if peak == 0 {
            continue;
        }
        let spark: String = vals
            .iter()
            .map(|&v| {
                let lvl = ((v as f64 / peak as f64) * (SPARK_LEVELS.len() - 1) as f64).round();
                SPARK_LEVELS[lvl as usize] as char
            })
            .collect();
        let total = show(series_total(series, name));
        let agg = if name.ends_with("_ppm") {
            "mean"
        } else {
            "sum"
        };
        let _ = writeln!(out, "  {name:<width$}  |{spark}|  {total} ({agg})");
    }
}

/// The latency-histogram percentile table.
fn render_hist_table(out: &mut String, log: &ParsedLog) {
    if log.hists.is_empty() {
        return;
    }
    let width = log
        .hists
        .iter()
        .map(|h| h.name.len())
        .max()
        .unwrap_or(0)
        .max(9);
    let _ = writeln!(
        out,
        "\n  run  job  {:<width$}  {:>10}  {:>10}  {:>8}  {:>8}  {:>8}",
        "histogram", "count", "mean", "p50", "p90", "p99"
    );
    for h in &log.hists {
        let _ = writeln!(
            out,
            "  {:>3}  {:>3}  {:<width$}  {:>10}  {:>10.1}  {:>8}  {:>8}  {:>8}",
            h.run,
            h.id,
            h.name,
            h.hist.count(),
            h.hist.mean(),
            h.hist.p50(),
            h.hist.p90(),
            h.hist.p99()
        );
    }
}

/// Renders the `attrib` view: per run, a CPI-stack table — one row per
/// `phase;component;cause;region` stack, cycle-weighted, largest first
/// — preceded by a per-phase roll-up (the paper's GC/mutator split).
/// Cycle shares divide by the run's total attributed cycles; the CPI
/// column divides by the phase's retired instructions when the job
/// spans carry `attrib.<phase>_instr` counters.
pub fn render_attrib(log: &ParsedLog) -> String {
    let mut out = String::new();
    provenance_header(&mut out, "attrib", log);
    for (run, meta) in log.runs.iter().enumerate() {
        let stacks = fold_stacks(log, Some(run));
        if stacks.is_empty() {
            continue;
        }
        let total: u64 = stacks.iter().map(|&(_, c)| c).sum();
        let _ = writeln!(
            out,
            "\nrun {run} [{}]  effort={}  {} stacks, {total} cycles attributed",
            meta.tag,
            meta.effort,
            stacks.len()
        );
        // Per-phase roll-up with CPI where the spans carry the
        // profiler's instruction counters.
        let mut phases: Vec<(&str, u64)> = Vec::new();
        for (stack, cycles) in &stacks {
            let phase = stack.split(';').next().unwrap_or("");
            match phases.iter_mut().find(|(p, _)| p == &phase) {
                Some((_, c)) => *c += cycles,
                None => phases.push((phase, *cycles)),
            }
        }
        phases.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        for (phase, cycles) in &phases {
            let name = format!("attrib.{phase}_instr");
            let instr = checked_sum(log.jobs.iter().filter(|j| j.run == run as u64).filter_map(
                |j| {
                    let mut counters = j.counters.iter().flatten();
                    counters.find(|(n, _)| n == &name).map(|&(_, v)| v)
                },
            ));
            let share = 100.0 * *cycles as f64 / total as f64;
            if let Some(instr) = instr.filter(|&i| i > 0) {
                let _ = writeln!(
                    out,
                    "  {phase:<8} {cycles:>16} cycles  {share:>5.1}%  cpi {:>6.3}",
                    *cycles as f64 / instr as f64
                );
            } else {
                let _ = writeln!(out, "  {phase:<8} {cycles:>16} cycles  {share:>5.1}%");
            }
        }
        // The CPI stack itself, largest contributor first.
        let mut rows = stacks;
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let width = rows.iter().map(|(s, _)| s.len()).max().unwrap_or(5).max(5);
        let _ = writeln!(
            out,
            "  {:<width$}  {:>16}  {:>6}",
            "stack", "cycles", "share%"
        );
        for (stack, cycles) in &rows {
            let share = 100.0 * *cycles as f64 / total as f64;
            let _ = writeln!(out, "  {stack:<width$}  {cycles:>16}  {share:>6.2}");
        }
    }
    if out.is_empty() || log.attribs.is_empty() {
        let _ = writeln!(out, "no attrib records in log");
    }
    out
}

/// Renders the attribution folds as CSV — one row per
/// `(run, phase, component, cause, region)` stack, largest first
/// within each run, with the cycle weight and its share of the run's
/// attributed cycles. The machine-readable companion of
/// [`render_attrib`], for CI artifacts and spreadsheets.
pub fn render_attrib_csv(log: &ParsedLog) -> String {
    let mut out = String::from("run,phase,component,cause,region,cycles,share_pct\n");
    for run in 0..log.runs.len() {
        let mut rows = fold_stacks(log, Some(run));
        let total: u64 = rows.iter().map(|&(_, c)| c).sum();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (stack, cycles) in rows {
            let mut f = stack.split(';');
            let phase = f.next().unwrap_or("");
            let component = f.next().unwrap_or("");
            let cause = f.next().unwrap_or("");
            let region = f.next().unwrap_or("");
            let share = 100.0 * cycles as f64 / total.max(1) as f64;
            let _ = writeln!(
                out,
                "{run},{phase},{component},{cause},{region},{cycles},{share:.3}"
            );
        }
    }
    out
}

/// Renders the attribution stacks in folded-stack format — one
/// `frame;frame;... weight` line per distinct stack, cycles summed
/// across runs and jobs — ready for inferno / flamegraph.pl /
/// speedscope.
pub fn render_folded(log: &ParsedLog) -> String {
    let mut out = String::new();
    for (stack, cycles) in fold_stacks(log, None) {
        let _ = writeln!(out, "{stack} {cycles}");
    }
    out
}

/// Sums attribution cycles per distinct stack, optionally restricted to
/// one run, sorted by stack name. [`check`] bounds the log's total
/// attributed cycles, so no sum here can overflow.
fn fold_stacks(log: &ParsedLog, run: Option<usize>) -> Vec<(String, u64)> {
    let mut folded: Vec<(String, u64)> = Vec::new();
    for at in &log.attribs {
        if run.is_some_and(|r| at.run != r) {
            continue;
        }
        match folded.iter_mut().find(|(s, _)| s == &at.stack) {
            Some((_, c)) => *c += at.cycles,
            None => folded.push((at.stack.clone(), at.cycles)),
        }
    }
    folded.sort_by(|a, b| a.0.cmp(&b.0));
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::provenance::Provenance;
    use crate::runlog::{JobSpan, RunLog, RunMeta};

    fn sample_log() -> String {
        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "parallel".into(),
            effort: "quick".into(),
            threads: 2,
            jobs: 3,
        });
        for (id, (worker, claim, hint, wall)) in
            [(0u64, 2u64, 30u64, 0.3), (1, 0, 50, 0.5), (0, 1, 40, 0.4)]
                .into_iter()
                .enumerate()
        {
            log.record_span(JobSpan {
                run,
                id,
                label: Some(format!("seed-{id}")),
                worker: worker as usize,
                claim: claim as usize,
                cost_hint: Some(hint),
                wall_secs: wall,
                counters: None,
            });
        }
        log.to_jsonl(&Provenance {
            git_rev: "abc123".into(),
            hostname: "h".into(),
            cpu_count: 2,
            timestamp: 1,
            workers: None,
            effort: None,
            sim_mode: None,
        })
    }

    #[test]
    fn check_accepts_runlog_output() {
        let parsed = check(&sample_log()).unwrap();
        assert_eq!(parsed.runs.len(), 1);
        assert_eq!(parsed.jobs.len(), 3);
        assert_eq!(parsed.provenance.as_ref().unwrap().git_rev, "abc123");
    }

    #[test]
    fn check_rejects_missing_fields_and_bad_refs() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        // Job before its run event.
        let bad = format!(
            "{prov}\n{{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1}}"
        );
        assert!(check(&bad).unwrap_err().contains("before its run event"));
        // Run declares more jobs than the log holds.
        let short = format!(
            "{prov}\n{{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":2}}"
        );
        assert!(check(&short).unwrap_err().contains("declares 2 jobs"));
        // Not JSON at all.
        assert!(check("not json").unwrap_err().contains("line 1"));
        // No provenance.
        assert!(check("").unwrap_err().contains("no provenance"));

        // The schema is strict: a present optional field must carry its
        // type, every key must be declared, and wall_secs must be a
        // finite non-negative number.
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let log = |prov_extra: &str, job_extra: &str, wall: &str| {
            format!(
                "{}{prov_extra}}}\n{run}\n{{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\
                 \"claim\":0,\"wall_secs\":{wall}{job_extra}}}",
                &prov[..prov.len() - 1]
            )
        };
        assert!(check(&log("", "", "0.1")).is_ok());
        for (prov_extra, job_extra, wall, want) in [
            ("", ",\"label\":7", "0.1", "field \"label\" is not"),
            (
                "",
                ",\"cost_hint\":\"big\"",
                "0.1",
                "field \"cost_hint\" is not",
            ),
            (
                ",\"workers\":\"two\"",
                "",
                "0.1",
                "field \"workers\" is not",
            ),
            (",\"sim_mode\":3", "", "0.1", "field \"sim_mode\" is not"),
            ("", ",\"cuonters\":{}", "0.1", "unknown key \"cuonters\""),
            ("", "", "-0.5", "field \"wall_secs\" is not"),
            ("", "", "1e999", "field \"wall_secs\" is not"),
        ] {
            let err = check(&log(prov_extra, job_extra, wall)).unwrap_err();
            assert!(err.contains(want), "{prov_extra}{job_extra} {wall}: {err}");
        }
    }

    #[test]
    fn check_rejects_duplicate_job_spans() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":2}";
        let span = |claim: u64| {
            format!(
                "{{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":{claim},\"wall_secs\":0.1}}"
            )
        };
        // Two spans for job 0 and none for job 1: the span count matches
        // the declared job count, but the run is still missing a job.
        let dup = format!("{prov}\n{run}\n{}\n{}", span(0), span(1));
        assert!(check(&dup)
            .unwrap_err()
            .contains("duplicate span for run 0 job 0"));
        // Two jobs claimed at the same position.
        let second = span(0).replace("\"id\":0", "\"id\":1");
        let dup = format!("{prov}\n{run}\n{}\n{second}", span(0));
        assert!(check(&dup)
            .unwrap_err()
            .contains("duplicate claim 0 in run 0"));
        // A worker outside the run's min(threads, jobs) pool.
        let job1 = |worker: u64| {
            format!(
                "{{\"ev\":\"job\",\"run\":0,\"id\":1,\"worker\":{worker},\"claim\":1,\"wall_secs\":0.1}}"
            )
        };
        for worker in [1, 1 << 52] {
            let bad = format!("{prov}\n{run}\n{}\n{}", span(0), job1(worker));
            assert!(check(&bad)
                .unwrap_err()
                .contains("out of range for 1 workers"));
        }
        // A huge thread count is legal; the worker table stops at the
        // job count instead of looping over every thread.
        let wide = run.replace("\"threads\":1", "\"threads\":4503599627370496");
        let text =
            render_text(&check(&format!("{prov}\n{wide}\n{}\n{}", span(0), job1(0))).unwrap());
        assert!(text.contains("\n       1      0  ") && !text.contains("\n       2  "));
    }

    #[test]
    fn check_rejects_out_of_range_hist_ids() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let job = "{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1}";
        let hist = |id: u64| {
            format!(
                "{{\"ev\":\"hist\",\"run\":0,\"id\":{id},\"name\":\"mem.latency\",\"count\":0,\"sum\":0,\"buckets\":[{}]}}",
                vec!["0"; Histogram::BUCKETS].join(",")
            )
        };
        assert!(check(&format!("{prov}\n{run}\n{job}\n{}", hist(0))).is_ok());
        let bad = format!("{prov}\n{run}\n{job}\n{}", hist(99));
        assert!(check(&bad)
            .unwrap_err()
            .contains("hist job id out of range for a 1-job run"));
        // The same (run, id, name) twice.
        let bad = format!("{prov}\n{run}\n{job}\n{}\n{}", hist(0), hist(0));
        assert!(check(&bad).unwrap_err().contains("duplicate hist record"));
    }

    /// The largest integer a RunLog number can carry exactly.
    const BIG: u64 = (1 << 53) - 1;

    #[test]
    fn check_rejects_attrib_cycles_that_overflow() {
        // 2049 stacks of 2^53 - 1 cycles each sum past u64::MAX.
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let job = "{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1}";
        let stacks: Vec<String> = (0..2049)
            .map(|i| {
                format!("{{\"ev\":\"attrib\",\"run\":0,\"id\":0,\"stack\":\"a;b;c;d{i}\",\"cycles\":{BIG}}}")
            })
            .collect();
        let text = format!("{prov}\n{run}\n{job}\n{}", stacks.join("\n"));
        let err = check(&text).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        // One stack fewer fits.
        let text = format!("{prov}\n{run}\n{job}\n{}", stacks[1..].join("\n"));
        assert_eq!(check(&text).unwrap().attribs.len(), 2048);
    }

    #[test]
    fn counter_sum_marks_overflow_instead_of_wrapping() {
        let job = |id: u64| JobEntry {
            run: 0,
            id,
            claim: id,
            counters: Some(vec![
                ("x.count".into(), u64::MAX / 2 + 1),
                ("x.ok".into(), 1),
            ]),
            ..JobEntry::default()
        };
        let log = ParsedLog {
            runs: vec![RunMeta {
                tag: "t".into(),
                effort: "quick".into(),
                threads: 1,
                jobs: 2,
            }],
            jobs: vec![job(0), job(1)],
            ..ParsedLog::default()
        };
        let text = render_text(&log);
        let row = |name: &str| {
            text.lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap()
        };
        assert!(row("x.count").ends_with(" overflow"), "{text}");
        assert!(row("x.ok").ends_with(" 2"), "{text}");
    }

    #[test]
    fn text_report_has_worker_table_and_audit() {
        let parsed = check(&sample_log()).unwrap();
        let text = render_text(&parsed);
        assert!(text.contains("rev abc123 on h"));
        assert!(text.contains("run 0 [parallel]"));
        assert!(text.contains("worker   jobs"));
        // Claims 0,1,2 carry hints 50,40,30: perfectly largest-first,
        // and wall times track hints exactly.
        assert!(text.contains("largest-first: 2/2 adjacent claims non-increasing"));
        assert!(text.contains("concordance 3/3"));
    }

    #[test]
    fn csv_has_one_row_per_job() {
        let parsed = check(&sample_log()).unwrap();
        let csv = render_csv(&parsed);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "run,tag,id,label,worker,claim,cost_hint,wall_secs"
        );
        // The serializer orders spans by claim; claim 0 was job id 1.
        assert!(lines[1].starts_with("0,parallel,1,seed-1,"));
    }

    fn interval_log() -> String {
        use crate::registry::{CounterDesc, CounterKind, CounterSet, Snapshot};
        use crate::runlog::{HistRecord, IntervalRecord};
        use crate::Histogram;

        struct Pair {
            cb: u64,
            rate: u64,
        }
        impl CounterSet for Pair {
            fn descriptors(&self) -> &'static [CounterDesc] {
                const D: [CounterDesc; 2] = [
                    CounterDesc::new("bus.snoop_cb", CounterKind::Count),
                    CounterDesc::new("bus.snoop_filter_ppm", CounterKind::Ratio),
                ];
                &D
            }
            fn values(&self, out: &mut Vec<u64>) {
                let Pair { cb, rate } = self;
                out.extend([*cb, *rate]);
            }
        }

        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "simstat".into(),
            effort: "quick".into(),
            threads: 1,
            jobs: 1,
        });
        log.record_span(JobSpan {
            run,
            id: 0,
            label: Some("gc-trace".into()),
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: 0.1,
            counters: None,
        });
        // cb sums to 90; ppm must average to 500_000, not sum to 1.5M.
        for (seq, (cb, rate, gc)) in [
            (50u64, 400_000u64, false),
            (10, 600_000, true),
            (30, 500_000, false),
        ]
        .into_iter()
        .enumerate()
        {
            log.record_intervals(std::iter::once(IntervalRecord {
                run,
                id: 0,
                seq,
                start: seq as u64 * 1000,
                end: (seq as u64 + 1) * 1000,
                gc,
                counters: Snapshot::of(&Pair { cb, rate }),
            }));
        }
        let mut h = Histogram::new();
        for _ in 0..98 {
            h.record(12);
        }
        h.record(4000);
        log.record_hist(HistRecord {
            run,
            id: 0,
            name: "mem.latency".into(),
            hist: h,
        });
        log.to_jsonl(&Provenance {
            git_rev: "abc123".into(),
            hostname: "h".into(),
            cpu_count: 2,
            timestamp: 1,
            workers: None,
            effort: None,
            sim_mode: None,
        })
    }

    #[test]
    fn check_accepts_interval_and_hist_records() {
        let parsed = check(&interval_log()).unwrap();
        assert_eq!(parsed.intervals.len(), 3);
        assert_eq!(parsed.hists.len(), 1);
        assert!(parsed.intervals[1].gc);
        assert_eq!(parsed.hists[0].hist.count(), 99);
        assert_eq!(parsed.hists[0].hist.p99(), 4095);
    }

    #[test]
    fn check_rejects_malformed_interval_records() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let job = "{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1}";
        // Backwards window.
        let bad = format!(
            "{prov}\n{run}\n{job}\n{{\"ev\":\"interval\",\"run\":0,\"id\":0,\"seq\":0,\"start\":200,\"end\":100,\"gc\":false,\"counters\":{{}}}}"
        );
        assert!(check(&bad).unwrap_err().contains("empty or backwards"));
        // Missing gc flag.
        let bad = format!(
            "{prov}\n{run}\n{job}\n{{\"ev\":\"interval\",\"run\":0,\"id\":0,\"seq\":0,\"start\":0,\"end\":100,\"counters\":{{}}}}"
        );
        assert!(check(&bad).unwrap_err().contains("\"gc\""));
        // Interval before its run event.
        let bad = format!(
            "{prov}\n{{\"ev\":\"interval\",\"run\":1,\"id\":0,\"seq\":0,\"start\":0,\"end\":100,\"gc\":false,\"counters\":{{}}}}"
        );
        assert!(check(&bad).unwrap_err().contains("before its run event"));
        // Gapped sequence numbers.
        let bad = format!(
            "{prov}\n{run}\n{job}\n{{\"ev\":\"interval\",\"run\":0,\"id\":0,\"seq\":1,\"start\":0,\"end\":100,\"gc\":false,\"counters\":{{}}}}"
        );
        assert!(check(&bad).unwrap_err().contains("out of order"));
        // Histogram with the wrong bucket count.
        let bad = format!(
            "{prov}\n{run}\n{job}\n{{\"ev\":\"hist\",\"run\":0,\"id\":0,\"name\":\"x\",\"count\":0,\"sum\":0,\"buckets\":[0,0]}}"
        );
        assert!(check(&bad).unwrap_err().contains("buckets"));
    }

    #[test]
    fn check_accepts_sample_unit_records() {
        use crate::runlog::SampleUnitRecord;
        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "sampled".into(),
            effort: "quick".into(),
            threads: 1,
            jobs: 1,
        });
        log.record_span(JobSpan {
            run,
            id: 0,
            label: Some("sampled-job".into()),
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: 0.1,
            counters: None,
        });
        // Recorded out of order; the serializer must sort by unit.
        log.record_sample_units([
            SampleUnitRecord {
                run,
                id: 0,
                unit: 1,
                cluster: 1,
                start: 1000,
                end: 2000,
                detailed: false,
                weight_ppm: 500_000,
            },
            SampleUnitRecord {
                run,
                id: 0,
                unit: 0,
                cluster: 0,
                start: 0,
                end: 1000,
                detailed: true,
                weight_ppm: 500_000,
            },
        ]);
        let jsonl = log.to_jsonl(&Provenance {
            git_rev: "abc123".into(),
            hostname: "h".into(),
            cpu_count: 2,
            timestamp: 1,
            workers: None,
            effort: None,
            sim_mode: None,
        });
        let parsed = check(&jsonl).unwrap();
        assert_eq!(parsed.sample_units.len(), 2);
        assert_eq!(parsed.sample_units[0].unit, 0);
        assert!(parsed.sample_units[0].detailed);
        assert_eq!(parsed.sample_units[1].cluster, 1);
    }

    #[test]
    fn check_rejects_malformed_sample_unit_records() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let job = "{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1}";
        let unit = |body: &str| format!("{prov}\n{run}\n{job}\n{{\"ev\":\"sample_unit\",{body}}}");
        // Backwards window.
        let bad = unit(
            "\"run\":0,\"id\":0,\"unit\":0,\"cluster\":0,\"start\":200,\"end\":100,\"detailed\":true,\"weight_ppm\":1",
        );
        assert!(check(&bad).unwrap_err().contains("empty or backwards"));
        // Weight above 1e6 ppm.
        let bad = unit(
            "\"run\":0,\"id\":0,\"unit\":0,\"cluster\":0,\"start\":0,\"end\":100,\"detailed\":true,\"weight_ppm\":1000001",
        );
        assert!(check(&bad).unwrap_err().contains("exceeds 1e6"));
        // Job id out of range.
        let bad = unit(
            "\"run\":0,\"id\":7,\"unit\":0,\"cluster\":0,\"start\":0,\"end\":100,\"detailed\":true,\"weight_ppm\":1",
        );
        assert!(check(&bad).unwrap_err().contains("out of range"));
        // Missing detailed flag.
        let bad = unit(
            "\"run\":0,\"id\":0,\"unit\":0,\"cluster\":0,\"start\":0,\"end\":100,\"weight_ppm\":1",
        );
        assert!(check(&bad).unwrap_err().contains("\"detailed\""));
        // Gapped unit numbering.
        let bad = unit(
            "\"run\":0,\"id\":0,\"unit\":1,\"cluster\":0,\"start\":0,\"end\":100,\"detailed\":true,\"weight_ppm\":1",
        );
        assert!(check(&bad).unwrap_err().contains("out of order"));
        // Before its run event.
        let bad = format!(
            "{prov}\n{{\"ev\":\"sample_unit\",\"run\":0,\"id\":0,\"unit\":0,\"cluster\":0,\"start\":0,\"end\":100,\"detailed\":true,\"weight_ppm\":1}}"
        );
        assert!(check(&bad).unwrap_err().contains("before its run event"));
    }

    #[test]
    fn check_accepts_event_records_and_provenance_extras() {
        use crate::runlog::EventRecord;
        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "timeline".into(),
            effort: "quick".into(),
            threads: 1,
            jobs: 1,
        });
        log.record_span(JobSpan {
            run,
            id: 0,
            label: None,
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: 0.1,
            counters: None,
        });
        log.record_events([
            EventRecord {
                run,
                id: 0,
                name: "gc.pause".into(),
                start: 100,
                end: 400,
            },
            EventRecord {
                run,
                id: 0,
                name: "window.reset".into(),
                start: 0,
                end: 0,
            },
        ]);
        let jsonl = log.to_jsonl(&Provenance {
            git_rev: "abc123".into(),
            hostname: "h".into(),
            cpu_count: 2,
            timestamp: 1,
            workers: Some(2),
            effort: Some("quick".into()),
            sim_mode: Some("full".into()),
        });
        let parsed = check(&jsonl).unwrap();
        assert_eq!(parsed.events.len(), 2);
        // Serializer sorts by start: the instant comes first.
        assert_eq!(parsed.events[0].name, "window.reset");
        assert_eq!(parsed.events[0].start, parsed.events[0].end);
        assert_eq!(parsed.events[1].name, "gc.pause");
        let prov = parsed.provenance.unwrap();
        assert_eq!(prov.workers, Some(2));
        assert_eq!(prov.effort.as_deref(), Some("quick"));
        assert_eq!(prov.sim_mode.as_deref(), Some("full"));
    }

    #[test]
    fn check_rejects_malformed_event_records() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let job = "{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1}";
        let event = |body: &str| format!("{prov}\n{run}\n{job}\n{{\"ev\":\"event\",{body}}}");
        // Backwards span.
        let bad = event("\"run\":0,\"id\":0,\"name\":\"gc.pause\",\"start\":200,\"end\":100");
        assert!(check(&bad).unwrap_err().contains("backwards"));
        // Job id out of range.
        let bad = event("\"run\":0,\"id\":7,\"name\":\"gc.pause\",\"start\":0,\"end\":100");
        assert!(check(&bad).unwrap_err().contains("out of range"));
        // Empty name.
        let bad = event("\"run\":0,\"id\":0,\"name\":\"\",\"start\":0,\"end\":100");
        assert!(check(&bad).unwrap_err().contains("name is empty"));
        // Before its run event.
        let bad = format!(
            "{prov}\n{{\"ev\":\"event\",\"run\":0,\"id\":0,\"name\":\"gc.pause\",\"start\":0,\"end\":100}}"
        );
        assert!(check(&bad).unwrap_err().contains("before its run event"));
    }

    #[test]
    fn check_rejects_misweighted_sample_unit_schedules() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let job = "{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1}";
        let unit = |n: u64, cluster: u64, w: u64| {
            format!(
                "{{\"ev\":\"sample_unit\",\"run\":0,\"id\":0,\"unit\":{n},\"cluster\":{cluster},\
                 \"start\":{},\"end\":{},\"detailed\":true,\"weight_ppm\":{w}}}",
                n * 100,
                (n + 1) * 100,
            )
        };
        let log = |units: &[String]| format!("{prov}\n{run}\n{job}\n{}", units.join("\n"));

        // A lost cluster: weights stop short of the whole window.
        let bad = log(&[unit(0, 0, 500_000)]);
        assert!(check(&bad).unwrap_err().contains("sum to 500000 ppm"));
        // Units of one cluster must agree on its weight.
        let bad = log(&[unit(0, 0, 600_000), unit(1, 0, 400_000)]);
        assert!(check(&bad).unwrap_err().contains("disagree on weight"));
        // Floor shortfall within one ppm per cluster is fine: three
        // clusters at 333_333 ppm leave 1 ppm unaccounted.
        let ok = log(&[
            unit(0, 0, 333_333),
            unit(1, 1, 333_333),
            unit(2, 2, 333_333),
        ]);
        assert_eq!(check(&ok).unwrap().sample_units.len(), 3);
        // Repeated units of one cluster don't double-count its share.
        let ok = log(&[
            unit(0, 0, 500_000),
            unit(1, 1, 500_000),
            unit(2, 1, 500_000),
        ]);
        assert_eq!(check(&ok).unwrap().sample_units.len(), 3);
    }

    #[test]
    fn simstat_renders_tables_sparklines_and_percentiles() {
        let parsed = check(&interval_log()).unwrap();
        let text = render_simstat(&parsed);
        assert!(text.contains("run 0 job 0 [gc-trace]: 3 intervals x 1000 cycles"));
        assert!(text.contains("seq  start_mcyc  gc"));
        assert!(text.contains("bus.snoop_cb"));
        // GC line marks interval 1 only.
        assert!(text.contains("|.#.|"));
        // Monotonic counter sums; ratio counter averages.
        assert!(text.contains("90 (sum)"));
        assert!(text.contains("500000 (mean)"));
        assert!(!text.contains("1500000"));
        // Histogram percentile table.
        assert!(text.contains("mem.latency"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn interval_csv_has_one_row_per_interval() {
        let parsed = check(&interval_log()).unwrap();
        let csv = render_interval_csv(&parsed);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "run,tag,id,seq,start,end,gc,bus.snoop_cb,bus.snoop_filter_ppm"
        );
        assert_eq!(lines[1], "0,simstat,0,0,0,1000,0,50,400000");
        assert_eq!(lines[2], "0,simstat,0,1,1000,2000,1,10,600000");
    }

    fn attrib_log() -> String {
        use crate::runlog::AttribRecord;
        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "attrib".into(),
            effort: "quick".into(),
            threads: 1,
            jobs: 1,
        });
        log.record_span(JobSpan {
            run,
            id: 0,
            label: Some("specjbb".into()),
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: 0.1,
            counters: None,
        });
        log.record_attribs([
            AttribRecord {
                run,
                id: 0,
                stack: "mutator;data_stall;memory;eden".into(),
                cycles: 700,
            },
            AttribRecord {
                run,
                id: 0,
                stack: "mutator;data_stall;c2c;old_gen".into(),
                cycles: 200,
            },
            AttribRecord {
                run,
                id: 0,
                stack: "gc;other;base;all".into(),
                cycles: 100,
            },
        ]);
        log.to_jsonl(&Provenance {
            git_rev: "abc123".into(),
            hostname: "h".into(),
            cpu_count: 2,
            timestamp: 1,
            workers: None,
            effort: None,
            sim_mode: None,
        })
    }

    #[test]
    fn check_accepts_attrib_records() {
        let parsed = check(&attrib_log()).unwrap();
        assert_eq!(parsed.attribs.len(), 3);
        // Serializer sorts by (run, id, stack).
        assert_eq!(parsed.attribs[0].stack, "gc;other;base;all");
        assert_eq!(parsed.attribs[2].cycles, 700);
    }

    #[test]
    fn check_rejects_malformed_attrib_records() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let job = "{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1}";
        let attrib = |body: &str| format!("{prov}\n{run}\n{job}\n{{\"ev\":\"attrib\",{body}}}");
        // Wrong frame count.
        let bad = attrib("\"run\":0,\"id\":0,\"stack\":\"mutator;data_stall\",\"cycles\":10");
        assert!(check(&bad).unwrap_err().contains("non-empty"));
        // Empty frame.
        let bad = attrib("\"run\":0,\"id\":0,\"stack\":\"mutator;;c2c;eden\",\"cycles\":10");
        assert!(check(&bad).unwrap_err().contains("non-empty"));
        // Zero weight.
        let bad = attrib("\"run\":0,\"id\":0,\"stack\":\"a;b;c;d\",\"cycles\":0");
        assert!(check(&bad).unwrap_err().contains("zero cycles"));
        // Job id out of range.
        let bad = attrib("\"run\":0,\"id\":7,\"stack\":\"a;b;c;d\",\"cycles\":1");
        assert!(check(&bad).unwrap_err().contains("out of range"));
        // Before its run event.
        let bad = format!(
            "{prov}\n{{\"ev\":\"attrib\",\"run\":0,\"id\":0,\"stack\":\"a;b;c;d\",\"cycles\":1}}"
        );
        assert!(check(&bad).unwrap_err().contains("before its run event"));
        // Duplicate stack within one job.
        let stack = "{\"ev\":\"attrib\",\"run\":0,\"id\":0,\"stack\":\"a;b;c;d\",\"cycles\":1}";
        let bad = format!("{prov}\n{run}\n{job}\n{stack}\n{stack}");
        assert!(check(&bad).unwrap_err().contains("duplicate attrib record"));
    }

    #[test]
    fn check_cross_validates_attrib_sum_against_span_counter() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let job = |declared: u64| {
            format!(
                "{{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\"wall_secs\":0.1,\
                 \"counters\":{{\"attrib.cycles\":{declared}}}}}"
            )
        };
        let stack = "{\"ev\":\"attrib\",\"run\":0,\"id\":0,\"stack\":\"a;b;c;d\",\"cycles\":40}";
        let ok = format!("{prov}\n{run}\n{}\n{stack}", job(40));
        assert!(check(&ok).is_ok());
        let bad = format!("{prov}\n{run}\n{}\n{stack}", job(41));
        let err = check(&bad).unwrap_err();
        assert!(err.contains("sum to 40"), "{err}");
        assert!(err.contains("attrib.cycles=41"), "{err}");
    }

    #[test]
    fn check_holds_memory_counters_to_their_identities() {
        let prov = "{\"ev\":\"provenance\",\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":1,\"timestamp\":0}";
        let run = "{\"ev\":\"run\",\"run\":0,\"tag\":\"t\",\"effort\":\"quick\",\"threads\":1,\"jobs\":1}";
        let mut good = Vec::new();
        for kind in ["ifetch", "load", "store"] {
            for (field, v) in [
                ("accesses", 100),
                ("l1_misses", 40),
                ("l2_misses", 10),
                ("upgrades", 5),
                ("c2c", 3),
            ] {
                good.push((format!("mem.{kind}.{field}"), v));
            }
        }
        good.push(("mem.l2_miss.percpu_total".into(), 30));
        good.push(("mem.c2c.percpu_total".into(), 9));
        let log = |counters: &[(String, u64)]| {
            let fields: Vec<String> = counters
                .iter()
                .map(|(n, v)| format!("\"{n}\":{v}"))
                .collect();
            format!(
                "{prov}\n{run}\n{{\"ev\":\"job\",\"run\":0,\"id\":0,\"worker\":0,\"claim\":0,\
                 \"wall_secs\":0.1,\"counters\":{{{}}}}}",
                fields.join(",")
            )
        };
        assert!(check(&log(&good)).is_ok());
        for (name, value, want) in [
            ("mem.load.c2c", 11, "mem.load.c2c=11 exceeds l2_misses=10"),
            ("mem.store.l1_misses", 14, "mem.store counters do not nest"),
            ("mem.ifetch.accesses", 39, "mem.ifetch counters do not nest"),
            ("mem.load.upgrades", 31, "mem.load counters do not nest"),
            (
                "mem.l2_miss.percpu_total",
                31,
                "=31 but the kinds sum to 30",
            ),
            ("mem.c2c.percpu_total", 8, "=8 but the kinds sum to 9"),
        ] {
            let mut bad = good.clone();
            bad.iter_mut().find(|(n, _)| n == name).expect("counter").1 = value;
            let err = check(&log(&bad)).unwrap_err();
            assert!(err.contains(want), "{name}={value}: {err}");
            assert!(err.contains("run 0 job 0"), "{err}");
        }
        let partial: Vec<_> = good
            .iter()
            .filter(|(n, _)| n != "mem.store.upgrades")
            .cloned()
            .collect();
        let err = check(&log(&partial)).unwrap_err();
        assert!(err.contains("mem.store carries only some"), "{err}");
    }

    #[test]
    fn attrib_report_rolls_up_phases_and_ranks_stacks() {
        let parsed = check(&attrib_log()).unwrap();
        let text = render_attrib(&parsed);
        assert!(text.contains("3 stacks, 1000 cycles attributed"));
        // Phase roll-up: mutator 90%, gc 10%.
        assert!(text.contains("mutator"));
        assert!(text.contains("90.0%"));
        assert!(text.contains("10.0%"));
        // Largest stack ranks first in the table body (after the
        // column-header line).
        let table = &text[text.find("\n  stack").unwrap()..];
        let memory = table.find("mutator;data_stall;memory;eden").unwrap();
        let c2c = table.find("mutator;data_stall;c2c;old_gen").unwrap();
        assert!(memory < c2c);
    }

    #[test]
    fn folded_output_is_flamegraph_ready() {
        let parsed = check(&attrib_log()).unwrap();
        let folded = render_folded(&parsed);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.contains(&"mutator;data_stall;memory;eden 700"));
        // Every line is `frames <weight>` with exactly one space.
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 4);
            weight.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn attrib_csv_splits_frames_and_ranks_largest_first() {
        let parsed = check(&attrib_log()).unwrap();
        let csv = render_attrib_csv(&parsed);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "run,phase,component,cause,region,cycles,share_pct"
        );
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1], "0,mutator,data_stall,memory,eden,700,70.000");
        assert_eq!(lines[2], "0,mutator,data_stall,c2c,old_gen,200,20.000");
        assert_eq!(lines[3], "0,gc,other,base,all,100,10.000");
    }

    #[test]
    fn counters_sum_and_widen_csv() {
        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "t".into(),
            effort: "quick".into(),
            threads: 1,
            jobs: 2,
        });
        for id in 0..2usize {
            log.record_span(JobSpan {
                run,
                id,
                label: None,
                worker: 0,
                claim: id,
                cost_hint: None,
                wall_secs: 0.1,
                counters: {
                    use crate::registry::{CounterDesc, CounterKind, CounterSet, Snapshot};
                    struct One(u64);
                    impl CounterSet for One {
                        fn descriptors(&self) -> &'static [CounterDesc] {
                            const D: [CounterDesc; 1] =
                                [CounterDesc::new("bus.gets", CounterKind::Count)];
                            &D
                        }
                        fn values(&self, out: &mut Vec<u64>) {
                            let One(v) = self;
                            out.push(*v);
                        }
                    }
                    Some(Snapshot::of(&One(10 + id as u64)))
                },
            });
        }
        let text = log.to_jsonl(&Provenance {
            git_rev: "r".into(),
            hostname: "h".into(),
            cpu_count: 1,
            timestamp: 0,
            workers: None,
            effort: None,
            sim_mode: None,
        });
        let parsed = check(&text).unwrap();
        let report = render_text(&parsed);
        assert!(report.contains("counters (aggregated over 2 jobs):"));
        assert!(report.contains("bus.gets"));
        assert!(report.contains("21"));
        let csv = render_csv(&parsed);
        assert!(csv.lines().next().unwrap().ends_with(",bus.gets"));
        assert!(csv.contains(",10\n") || csv.contains(",10\r\n"));
    }
}
