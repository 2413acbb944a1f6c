//! The run event log and its one JSONL schema.
//!
//! The plan runner (core's `ExperimentPlan`) is the machine that
//! produces every figure. A [`RunLog`] is the shared sink it reports
//! into — one [`RunMeta`] per batch run, one [`JobSpan`] per job, plus
//! the telemetry records jobs carry home (intervals, histograms, sample
//! units, sim-time events, attribution stacks) — serialized as JSONL
//! for `simreport`, `simdiff` and CI artifacts.
//!
//! **One declaration per record kind.** Each `ev` kind is one struct
//! whose [`Fields`] impl names its JSON keys, in line order, exactly
//! once; the key's value type ([`Field`]) fixes its encoding, its
//! reader and whether it is optional. The kind's [`Record`] impl
//! declares the rest of its schema: the `ev` tag, the sort key of the
//! serialized stream (and whether it is unique), the job it belongs to,
//! its dense sequence number and its simulated-cycle window. The writer
//! here and `report::check` are both generic over those declarations,
//! so a new field or kind is one edit.
//!
//! Determinism contract: workers record spans *as jobs finish*, through
//! a mutex that is never held while a job computes, and nothing in this
//! module touches the output slots the runner merges in input order.
//! Attaching a log must leave experiment outputs bit-identical
//! (`tests/determinism.rs` enforces this).

use std::fmt::{Debug, Write as _};
use std::hash::Hash;
use std::io::{self, Write};
use std::sync::Mutex;

use crate::hist::Histogram;
use crate::json::{self, Json};
use crate::provenance::Provenance;
use crate::registry::Snapshot;

/// One JSON value type of the schema: how it is written, read back and
/// whether its key may be absent.
pub trait Field: Sized {
    /// What a reader expects to find, for error messages.
    const EXPECTS: &'static str;
    /// Appends the JSON value.
    fn write(&self, out: &mut String);
    /// Reads a present value; `None` when it has the wrong type or
    /// range. Write-only types keep the default.
    fn read(_: &Json) -> Option<Self> {
        None
    }
    /// Whether the key is written at all (`false` for an unset
    /// `Option`).
    fn is_set(&self) -> bool {
        true
    }
    /// The value an absent key reads as; `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

/// A visitor over a declaration's fields: [`Fields::fields`] calls
/// [`field`](Codec::field) once per JSON key, in line order.
pub trait Codec {
    /// Visits one key and the struct field that holds its value.
    fn field<F: Field>(&mut self, key: &'static str, value: &mut F);
}

/// A set of JSON object members declared once for both directions.
///
/// `fields` takes `&mut self` so one method serves the reader (which
/// fills the fields) and the writer (which only reads them).
pub trait Fields: Default {
    /// Visits every member, in the order they are written.
    fn fields<C: Codec>(&mut self, c: &mut C);
    /// Rules that involve only this value, checked after reading.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A RunLog line kind: its members plus its schema properties.
pub trait Record: Fields {
    /// The `ev` tag of the kind's lines.
    const EV: &'static str;
    /// The sort key of the serialized stream.
    type Key<'a>: Ord + Hash + Debug
    where
        Self: 'a;
    /// This record's sort key.
    fn key(&self) -> Self::Key<'_>;
    /// Whether no two records of a log may share a key.
    const UNIQUE: bool = false;
    /// The `(run, id)` job the record belongs to: the run's line must
    /// come first and `id` must be below its `jobs`.
    fn job(&self) -> Option<(u64, u64)> {
        None
    }
    /// A sequence number that must run 0, 1, 2, ... in file order
    /// within the record's job (within the log when it has none).
    fn seq(&self) -> Option<u64> {
        None
    }
    /// The simulated-cycle window `[start, end)`, which must not be
    /// empty or backwards — or only not backwards when `INSTANTS`.
    fn window(&self) -> Option<(u64, u64)> {
        None
    }
    /// Whether a zero-width window (an instant) is legal.
    const INSTANTS: bool = false;
}

/// The key every RunLog line carries its kind under.
pub const EV_KEY: &str = "ev";

/// A parsed counter snapshot: `name → value` in snapshot order. The
/// reader-side twin of [`Snapshot`], whose names are `&'static str`.
pub type Counters = Vec<(String, u64)>;

/// The integer types the schema carries: `u64` values and `usize`
/// ids.
pub trait Int: Copy + Ord + Hash + Debug + Default + std::fmt::Display + TryFrom<u64> {
    /// The value widened to `u64`.
    fn get(self) -> u64;
}

impl Int for u64 {
    fn get(self) -> u64 {
        self
    }
}

impl Int for usize {
    fn get(self) -> u64 {
        self as u64
    }
}

impl<T: Int> Field for T {
    const EXPECTS: &'static str = "integer";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Json) -> Option<Self> {
        v.as_u64().and_then(|n| T::try_from(n).ok())
    }
}

impl Field for bool {
    const EXPECTS: &'static str = "boolean";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Json) -> Option<Self> {
        v.as_bool()
    }
}

impl Field for String {
    const EXPECTS: &'static str = "string";
    fn write(&self, out: &mut String) {
        out.push_str(&json::quote(self));
    }
    fn read(v: &Json) -> Option<Self> {
        v.as_str().map(String::from)
    }
}

/// Wall-clock seconds: written at microsecond precision, read back
/// only when finite and non-negative.
impl Field for f64 {
    const EXPECTS: &'static str = "non-negative number";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self:.6}");
    }
    fn read(v: &Json) -> Option<Self> {
        v.as_num().filter(|s| s.is_finite() && *s >= 0.0)
    }
}

/// An optional key: omitted when `None`, but mistyped when present is
/// still an error.
impl<T: Field> Field for Option<T> {
    const EXPECTS: &'static str = T::EXPECTS;
    fn write(&self, out: &mut String) {
        if let Some(v) = self {
            v.write(out);
        }
    }
    fn read(v: &Json) -> Option<Self> {
        T::read(v).map(Some)
    }
    fn is_set(&self) -> bool {
        self.is_some()
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<const N: usize> Field for [u64; N] {
    const EXPECTS: &'static str = "integer array of the declared length";
    fn write(&self, out: &mut String) {
        let items: Vec<String> = self.iter().map(u64::to_string).collect();
        let _ = write!(out, "[{}]", items.join(","));
    }
    fn read(v: &Json) -> Option<Self> {
        let items: Vec<u64> = v
            .elements()?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<_>>()?;
        items.try_into().ok()
    }
}

impl Field for Snapshot {
    const EXPECTS: &'static str = "counter object";
    fn write(&self, out: &mut String) {
        out.push_str(&self.to_json());
    }
}

impl Field for Counters {
    const EXPECTS: &'static str = "object of integer counters";
    fn write(&self, out: &mut String) {
        let items: Vec<String> = self
            .iter()
            .map(|(n, v)| format!("{}:{v}", json::quote(n)))
            .collect();
        let _ = write!(out, "{{{}}}", items.join(","));
    }
    fn read(v: &Json) -> Option<Self> {
        v.members()?
            .iter()
            .map(|(name, v)| Some((name.clone(), v.as_u64()?)))
            .collect()
    }
}

struct Writer<'a> {
    out: &'a mut String,
    first: bool,
}

impl Codec for Writer<'_> {
    fn field<F: Field>(&mut self, key: &'static str, value: &mut F) {
        if !value.is_set() {
            return;
        }
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        let _ = write!(self.out, "\"{key}\":");
        value.write(self.out);
    }
}

struct Reader<'a> {
    members: &'a [(String, Json)],
    seen: Vec<&'static str>,
    err: Option<String>,
}

impl Codec for Reader<'_> {
    fn field<F: Field>(&mut self, key: &'static str, value: &mut F) {
        self.seen.push(key);
        if self.err.is_some() {
            return;
        }
        let read = match self.members.iter().find(|(k, _)| k == key) {
            None => F::absent().ok_or_else(|| format!("missing {} field {key:?}", F::EXPECTS)),
            Some((_, v)) => {
                F::read(v).ok_or_else(|| format!("field {key:?} is not a valid {}", F::EXPECTS))
            }
        };
        match read {
            Ok(v) => *value = v,
            Err(e) => self.err = Some(e),
        }
    }
}

/// Writes `value` as a JSON object (`{"k":v,...}`), led by
/// `"ev":"<ev>"` when writing a RunLog line.
pub fn write_object<F: Fields>(value: &mut F, ev: Option<&str>) -> String {
    let mut out = String::from("{");
    if let Some(ev) = ev {
        let _ = write!(out, "\"{EV_KEY}\":\"{ev}\"");
    }
    let first = ev.is_none();
    value.fields(&mut Writer {
        out: &mut out,
        first,
    });
    out.push('}');
    out
}

/// Reads a JSON object into a declaration: every required key present,
/// every present key declared (bar `extra`) and well-typed, no key
/// twice, then the value's own [`Fields::validate`] rules.
pub fn read_object<F: Fields>(v: &Json, extra: Option<&str>) -> Result<F, String> {
    let members = v.members().ok_or("not a JSON object")?;
    let mut value = F::default();
    let mut reader = Reader {
        members,
        seen: Vec::new(),
        err: None,
    };
    value.fields(&mut reader);
    if let Some(e) = reader.err {
        return Err(e);
    }
    for (i, (key, _)) in members.iter().enumerate() {
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        if Some(key.as_str()) != extra && !reader.seen.contains(&key.as_str()) {
            return Err(format!("unknown key {key:?}"));
        }
    }
    value.validate()?;
    Ok(value)
}

/// Metadata for one `run_*` invocation on a plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Caller-chosen label, e.g. `"serial"` / `"parallel"`.
    pub tag: String,
    /// The plan's effort preset name.
    pub effort: String,
    /// Worker threads the plan was configured with.
    pub threads: usize,
    /// Number of jobs in the batch.
    pub jobs: usize,
}

impl Fields for RunMeta {
    fn fields<C: Codec>(&mut self, c: &mut C) {
        c.field("tag", &mut self.tag);
        c.field("effort", &mut self.effort);
        c.field("threads", &mut self.threads);
        c.field("jobs", &mut self.jobs);
    }
}

/// A `run` line: the run's metadata under its dense id.
#[derive(Debug, Default)]
pub(crate) struct RunLine {
    pub run: usize,
    pub meta: RunMeta,
}

impl Fields for RunLine {
    fn fields<C: Codec>(&mut self, c: &mut C) {
        c.field("run", &mut self.run);
        self.meta.fields(c);
    }
}

impl Record for RunLine {
    const EV: &'static str = "run";
    type Key<'a> = usize;
    fn key(&self) -> usize {
        self.run
    }
    fn seq(&self) -> Option<u64> {
        Some(self.run as u64)
    }
}

impl Record for Provenance {
    const EV: &'static str = "provenance";
    type Key<'a> = ();
    fn key(&self) {}
}

/// One job execution inside a run. Written as [`JobSpan`], read back
/// by `report::check` as `report::JobEntry`; both share this one
/// declaration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Job<N, C> {
    /// Which run (as returned by [`RunLog::begin_run`]) this span
    /// belongs to.
    pub run: N,
    /// Input-order index of the job.
    pub id: N,
    /// Human label for the job, when the caller supplied one.
    pub label: Option<String>,
    /// Worker thread that executed the job (0 for the serial path),
    /// below `min(threads, jobs)` of its run.
    pub worker: N,
    /// Position in the claim order: 0 was claimed first.
    pub claim: N,
    /// The scheduling cost hint, if the run was hinted.
    pub cost_hint: Option<u64>,
    /// Measured wall time of the job body, in seconds.
    pub wall_secs: f64,
    /// End-of-job counter snapshot, when the job captured one.
    pub counters: C,
}

/// The writer's job span: `usize` ids and a live counter [`Snapshot`].
pub type JobSpan = Job<usize, Option<Snapshot>>;

impl<N: Int, C: Field + Default> Fields for Job<N, C> {
    fn fields<K: Codec>(&mut self, c: &mut K) {
        c.field("run", &mut self.run);
        c.field("id", &mut self.id);
        c.field("worker", &mut self.worker);
        c.field("claim", &mut self.claim);
        c.field("label", &mut self.label);
        c.field("cost_hint", &mut self.cost_hint);
        c.field("wall_secs", &mut self.wall_secs);
        c.field("counters", &mut self.counters);
    }
}

impl<N: Int, C: Field + Default> Record for Job<N, C> {
    const EV: &'static str = "job";
    type Key<'a>
        = (N, N, N)
    where
        Self: 'a;
    fn key(&self) -> (N, N, N) {
        (self.run, self.claim, self.id)
    }
    fn job(&self) -> Option<(u64, u64)> {
        Some((self.run.get(), self.id.get()))
    }
}

/// One interval sample from a job's `IntervalSampler`: the counter
/// deltas over `[start, end)` simulated cycles, with a GC-activity
/// flag. The `simstat` time-series record. Written as
/// [`IntervalRecord`], read back as `report::IntervalEntry`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Interval<C> {
    /// Which run this interval belongs to.
    pub run: usize,
    /// Input-order index of the job that sampled it.
    pub id: usize,
    /// Interval sequence number within the job (0 first).
    pub seq: usize,
    /// Simulated cycle the interval starts at.
    pub start: u64,
    /// Simulated cycle the interval ends at (exclusive).
    pub end: u64,
    /// Whether a GC pause overlapped the interval.
    pub gc: bool,
    /// Counter deltas over the interval (`Ratio` counters carry the
    /// end-of-interval value; see `Snapshot::delta`).
    pub counters: C,
}

/// The writer's interval record, over a live counter [`Snapshot`].
pub type IntervalRecord = Interval<Snapshot>;

impl<C: Field + Default> Fields for Interval<C> {
    fn fields<K: Codec>(&mut self, c: &mut K) {
        c.field("run", &mut self.run);
        c.field("id", &mut self.id);
        c.field("seq", &mut self.seq);
        c.field("start", &mut self.start);
        c.field("end", &mut self.end);
        c.field("gc", &mut self.gc);
        c.field("counters", &mut self.counters);
    }
}

impl<C: Field + Default> Record for Interval<C> {
    const EV: &'static str = "interval";
    type Key<'a>
        = (usize, usize, usize)
    where
        Self: 'a;
    fn key(&self) -> (usize, usize, usize) {
        (self.run, self.id, self.seq)
    }
    fn job(&self) -> Option<(u64, u64)> {
        Some((self.run as u64, self.id as u64))
    }
    fn seq(&self) -> Option<u64> {
        Some(self.seq as u64)
    }
    fn window(&self) -> Option<(u64, u64)> {
        Some((self.start, self.end))
    }
}

/// One named latency histogram captured by a job (memory-access
/// latency, store-buffer drain, transaction response time, ...).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistRecord {
    /// Which run this histogram belongs to.
    pub run: usize,
    /// Input-order index of the job that captured it.
    pub id: usize,
    /// Dot-separated histogram name, e.g. `mem.latency`.
    pub name: String,
    /// The bucket data, written inline as `count`, `sum`, `buckets`.
    pub hist: Histogram,
}

impl Fields for HistRecord {
    fn fields<C: Codec>(&mut self, c: &mut C) {
        c.field("run", &mut self.run);
        c.field("id", &mut self.id);
        c.field("name", &mut self.name);
        self.hist.fields(c);
    }
    fn validate(&self) -> Result<(), String> {
        self.hist.validate()
    }
}

impl Record for HistRecord {
    const EV: &'static str = "hist";
    type Key<'a> = (usize, usize, &'a str);
    fn key(&self) -> (usize, usize, &str) {
        (self.run, self.id, &self.name)
    }
    const UNIQUE: bool = true;
    fn job(&self) -> Option<(u64, u64)> {
        Some((self.run as u64, self.id as u64))
    }
}

/// One sample unit of a sampled-mode job: a fixed-cycle segment of the
/// measurement window, tagged with the signature cluster it was
/// assigned to, whether it was simulated in detail, and the
/// extrapolation weight of its cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleUnitRecord {
    /// Which run this unit belongs to.
    pub run: usize,
    /// Input-order index of the job that ran it.
    pub id: usize,
    /// Unit sequence number within the job's window (0 first).
    pub unit: usize,
    /// Signature cluster the unit was assigned to.
    pub cluster: usize,
    /// Simulated cycle the unit starts at.
    pub start: u64,
    /// Simulated cycle the unit ends at (exclusive).
    pub end: u64,
    /// Whether the unit was simulated in detail (vs fast-forwarded).
    pub detailed: bool,
    /// The unit's cluster population share of the window, in ppm.
    pub weight_ppm: u64,
}

impl Fields for SampleUnitRecord {
    fn fields<C: Codec>(&mut self, c: &mut C) {
        c.field("run", &mut self.run);
        c.field("id", &mut self.id);
        c.field("unit", &mut self.unit);
        c.field("cluster", &mut self.cluster);
        c.field("start", &mut self.start);
        c.field("end", &mut self.end);
        c.field("detailed", &mut self.detailed);
        c.field("weight_ppm", &mut self.weight_ppm);
    }
    fn validate(&self) -> Result<(), String> {
        if self.weight_ppm > 1_000_000 {
            return Err(format!(
                "sample unit weight {} ppm exceeds 1e6",
                self.weight_ppm
            ));
        }
        Ok(())
    }
}

impl Record for SampleUnitRecord {
    const EV: &'static str = "sample_unit";
    type Key<'a> = (usize, usize, usize);
    fn key(&self) -> (usize, usize, usize) {
        (self.run, self.id, self.unit)
    }
    fn job(&self) -> Option<(u64, u64)> {
        Some((self.run as u64, self.id as u64))
    }
    fn seq(&self) -> Option<u64> {
        Some(self.unit as u64)
    }
    fn window(&self) -> Option<(u64, u64)> {
        Some((self.start, self.end))
    }
}

/// One sim-time event on a job's timeline: a named span (or instant,
/// when `end == start`) stamped in simulated cycles. GC pauses, window
/// resets, sampled-mode unit strata and DRAM queue-stall episodes all
/// land here; `probes::timeline` turns them into Chrome trace tracks.
///
/// Like every other record kind, events are collected on worker threads
/// *after* a job finishes and never touch the runner's merge path, so
/// recording them preserves worker-count bit-identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventRecord {
    /// Which run this event belongs to.
    pub run: usize,
    /// Input-order index of the job whose timeline it is.
    pub id: usize,
    /// Dot-separated event name, e.g. `gc.pause` / `unit.detailed`.
    pub name: String,
    /// Simulated cycle the event begins at.
    pub start: u64,
    /// Simulated cycle the event ends at (inclusive of zero width:
    /// `end == start` marks an instant event).
    pub end: u64,
}

impl Fields for EventRecord {
    fn fields<C: Codec>(&mut self, c: &mut C) {
        c.field("run", &mut self.run);
        c.field("id", &mut self.id);
        c.field("name", &mut self.name);
        c.field("start", &mut self.start);
        c.field("end", &mut self.end);
    }
    fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("event name is empty".into());
        }
        Ok(())
    }
}

impl Record for EventRecord {
    const EV: &'static str = "event";
    type Key<'a> = (usize, usize, u64, u64, &'a str);
    fn key(&self) -> (usize, usize, u64, u64, &str) {
        (self.run, self.id, self.start, self.end, &self.name)
    }
    fn job(&self) -> Option<(u64, u64)> {
        Some((self.run as u64, self.id as u64))
    }
    fn window(&self) -> Option<(u64, u64)> {
        Some((self.start, self.end))
    }
    const INSTANTS: bool = true;
}

/// Frames an attribution stack must carry: phase, component, cause,
/// region.
const ATTRIB_FRAMES: usize = 4;

/// One weighted folded stack from a job's cycle-attribution profiler:
/// a semicolon-separated frame path (`phase;component;cause;region`)
/// with the stall cycles attributed to it. The flamegraph record —
/// `simreport --folded` renders these in the format inferno and
/// speedscope consume.
///
/// Like every other record kind, attribution stacks are collected on
/// worker threads after a job finishes and never touch the runner's
/// merge path, so recording them preserves worker-count bit-identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttribRecord {
    /// Which run this stack belongs to.
    pub run: usize,
    /// Input-order index of the job that profiled it.
    pub id: usize,
    /// Semicolon-separated frames, e.g. `mutator;data_stall;c2c;old_gen`.
    pub stack: String,
    /// Cycles attributed to this stack.
    pub cycles: u64,
}

impl Fields for AttribRecord {
    fn fields<C: Codec>(&mut self, c: &mut C) {
        c.field("run", &mut self.run);
        c.field("id", &mut self.id);
        c.field("stack", &mut self.stack);
        c.field("cycles", &mut self.cycles);
    }
    fn validate(&self) -> Result<(), String> {
        let frames: Vec<&str> = self.stack.split(';').collect();
        if frames.len() != ATTRIB_FRAMES || frames.iter().any(|f| f.is_empty()) {
            return Err(format!(
                "attrib stack {:?} is not {ATTRIB_FRAMES} non-empty semicolon-separated \
                 frames (phase;component;cause;region)",
                self.stack
            ));
        }
        if self.cycles == 0 {
            return Err(format!("attrib stack {:?} carries zero cycles", self.stack));
        }
        Ok(())
    }
}

impl Record for AttribRecord {
    const EV: &'static str = "attrib";
    type Key<'a> = (usize, usize, &'a str);
    fn key(&self) -> (usize, usize, &str) {
        (self.run, self.id, &self.stack)
    }
    const UNIQUE: bool = true;
    fn job(&self) -> Option<(u64, u64)> {
        Some((self.run as u64, self.id as u64))
    }
}

/// A thread-safe sink for run metadata and job spans.
///
/// One log may span several plan runs (bench_plan logs its serial and
/// parallel passes into the same file). Interior mutability keeps the
/// runner's signature simple: workers share `&RunLog`.
#[derive(Debug, Default)]
pub struct RunLog {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    runs: Vec<RunMeta>,
    spans: Vec<JobSpan>,
    intervals: Vec<IntervalRecord>,
    hists: Vec<HistRecord>,
    sample_units: Vec<SampleUnitRecord>,
    events: Vec<EventRecord>,
    attribs: Vec<AttribRecord>,
}

impl RunLog {
    /// An empty log.
    pub fn new() -> Self {
        RunLog::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("run log poisoned")
    }

    /// Registers a new run and returns its id for subsequent spans.
    pub fn begin_run(&self, meta: RunMeta) -> usize {
        let mut inner = self.lock();
        inner.runs.push(meta);
        inner.runs.len() - 1
    }

    /// Records one finished job. Called from worker threads; the lock
    /// is held only for the push, never while a job computes.
    pub fn record_span(&self, span: JobSpan) {
        self.lock().spans.push(span);
    }

    /// Records one job's interval series. Like spans, this happens on
    /// worker threads as jobs finish, never inside the merge.
    pub fn record_intervals(&self, intervals: impl IntoIterator<Item = IntervalRecord>) {
        self.lock().intervals.extend(intervals);
    }

    /// Records one named histogram for a job.
    pub fn record_hist(&self, rec: HistRecord) {
        self.lock().hists.push(rec);
    }

    /// Records a sampled job's unit schedule (one record per sample
    /// unit). Worker-thread path, same locking discipline as spans.
    pub fn record_sample_units(&self, units: impl IntoIterator<Item = SampleUnitRecord>) {
        self.lock().sample_units.extend(units);
    }

    /// Records a job's sim-time events (GC pauses, window resets, unit
    /// strata, DRAM stalls). Worker-thread path, same locking
    /// discipline as spans.
    pub fn record_events(&self, events: impl IntoIterator<Item = EventRecord>) {
        self.lock().events.extend(events);
    }

    /// Records a job's attribution stacks. Worker-thread path, same
    /// locking discipline as spans.
    pub fn record_attribs(&self, attribs: impl IntoIterator<Item = AttribRecord>) {
        self.lock().attribs.extend(attribs);
    }

    /// Number of runs begun so far.
    pub fn run_count(&self) -> usize {
        self.lock().runs.len()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// Number of interval records captured so far.
    pub fn interval_count(&self) -> usize {
        self.lock().intervals.len()
    }

    /// Number of histogram records captured so far.
    pub fn hist_count(&self) -> usize {
        self.lock().hists.len()
    }

    /// Number of sample-unit records captured so far.
    pub fn sample_unit_count(&self) -> usize {
        self.lock().sample_units.len()
    }

    /// Number of event records captured so far.
    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// Number of attribution records captured so far.
    pub fn attrib_count(&self) -> usize {
        self.lock().attribs.len()
    }

    /// Serializes the log as JSONL: one `provenance` line, then the
    /// `run`, `job`, `interval`, `hist`, `sample_unit`, `event` and
    /// `attrib` lines, each kind sorted by its declared [`Record::key`]
    /// — spans by `(run, claim, id)`, events by
    /// `(run, id, start, end, name)`, the rest by `(run, id, ...)` — so
    /// the file is stable across thread timing: parallel runs race only
    /// in *completion* order, which is the one order we deliberately do
    /// not record.
    pub fn write_to<W: Write>(&self, mut w: W, prov: &Provenance) -> io::Result<()> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut runs: Vec<RunLine> = (inner.runs.iter().cloned().enumerate())
            .map(|(run, meta)| RunLine { run, meta })
            .collect();
        write_sorted(&mut w, &mut [prov.clone()])?;
        write_sorted(&mut w, &mut runs)?;
        write_sorted(&mut w, &mut inner.spans)?;
        write_sorted(&mut w, &mut inner.intervals)?;
        write_sorted(&mut w, &mut inner.hists)?;
        write_sorted(&mut w, &mut inner.sample_units)?;
        write_sorted(&mut w, &mut inner.events)?;
        write_sorted(&mut w, &mut inner.attribs)
    }

    /// The serialized JSONL as a string (testing / small logs).
    pub fn to_jsonl(&self, prov: &Provenance) -> String {
        let mut buf = Vec::new();
        self.write_to(&mut buf, prov)
            .expect("write to Vec cannot fail");
        String::from_utf8(buf).expect("JSONL is UTF-8")
    }
}

/// Sorts `records` by their declared key (stably) and writes one line
/// each.
fn write_sorted<R: Record, W: Write>(w: &mut W, records: &mut [R]) -> io::Result<()> {
    records.sort_by(|a, b| a.key().cmp(&b.key()));
    for rec in records {
        writeln!(w, "{}", write_object(rec, Some(R::EV)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::registry::{CounterDesc, CounterKind, CounterSet};

    struct One(u64);
    impl CounterSet for One {
        fn descriptors(&self) -> &'static [CounterDesc] {
            const D: [CounterDesc; 1] = [CounterDesc::new("one.v", CounterKind::Count)];
            &D
        }
        fn values(&self, out: &mut Vec<u64>) {
            let One(v) = self;
            out.push(*v);
        }
    }

    fn test_prov() -> Provenance {
        Provenance {
            git_rev: "deadbeef".into(),
            hostname: "testhost".into(),
            cpu_count: 4,
            timestamp: 1_700_000_000,
            workers: None,
            effort: None,
            sim_mode: None,
        }
    }

    #[test]
    fn serializes_runs_and_spans_as_jsonl() {
        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "parallel".into(),
            effort: "quick".into(),
            threads: 2,
            jobs: 2,
        });
        log.record_span(JobSpan {
            run,
            id: 1,
            label: Some("seed-1".into()),
            worker: 1,
            claim: 1,
            cost_hint: Some(10),
            wall_secs: 0.25,
            counters: Some(Snapshot::of(&One(7))),
        });
        log.record_span(JobSpan {
            run,
            id: 0,
            label: None,
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: 0.5,
            counters: None,
        });

        let text = log.to_jsonl(&test_prov());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);

        let prov = parse(lines[0]).unwrap();
        assert_eq!(prov.get("ev").and_then(Json::as_str), Some("provenance"));
        assert_eq!(prov.get("git_rev").and_then(Json::as_str), Some("deadbeef"));

        let meta = parse(lines[1]).unwrap();
        assert_eq!(meta.get("ev").and_then(Json::as_str), Some("run"));
        assert_eq!(meta.get("tag").and_then(Json::as_str), Some("parallel"));
        assert_eq!(meta.get("jobs").and_then(Json::as_u64), Some(2));

        // Spans come out claim-ordered regardless of recording order.
        let first = parse(lines[2]).unwrap();
        assert_eq!(first.get("claim").and_then(Json::as_u64), Some(0));
        assert_eq!(first.get("id").and_then(Json::as_u64), Some(0));
        assert_eq!(first.get("label"), None);
        assert_eq!(first.get("counters"), None);

        let second = parse(lines[3]).unwrap();
        assert_eq!(second.get("label").and_then(Json::as_str), Some("seed-1"));
        assert_eq!(second.get("cost_hint").and_then(Json::as_u64), Some(10));
        assert_eq!(
            second
                .get("counters")
                .and_then(|c| c.get("one.v"))
                .and_then(Json::as_u64),
            Some(7)
        );
    }

    use crate::json::Json;

    #[test]
    fn intervals_and_hists_serialize_sorted_after_spans() {
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
                wall_secs: 0.0,
                counters: None,
            });
        }
        // Record job 1's series before job 0's: the file must still
        // come out (run, id, seq)-ordered.
        log.record_intervals((0..2).map(|seq| IntervalRecord {
            run,
            id: 1,
            seq,
            start: seq as u64 * 100,
            end: (seq as u64 + 1) * 100,
            gc: seq == 1,
            counters: Snapshot::of(&One(seq as u64)),
        }));
        log.record_intervals(std::iter::once(IntervalRecord {
            run,
            id: 0,
            seq: 0,
            start: 0,
            end: 100,
            gc: false,
            counters: Snapshot::of(&One(9)),
        }));
        let mut h = Histogram::new();
        h.record(7);
        log.record_hist(HistRecord {
            run,
            id: 0,
            name: "mem.latency".into(),
            hist: h,
        });
        assert_eq!(log.interval_count(), 3);
        assert_eq!(log.hist_count(), 1);

        let text = log.to_jsonl(&test_prov());
        let lines: Vec<&str> = text.lines().collect();
        // prov + run + 2 spans + 3 intervals + 1 hist.
        assert_eq!(lines.len(), 8);
        let iv = parse(lines[4]).unwrap();
        assert_eq!(iv.get("ev").and_then(Json::as_str), Some("interval"));
        assert_eq!(iv.get("id").and_then(Json::as_u64), Some(0));
        assert_eq!(iv.get("gc"), Some(&Json::Bool(false)));
        let iv2 = parse(lines[6]).unwrap();
        assert_eq!(iv2.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(iv2.get("seq").and_then(Json::as_u64), Some(1));
        assert_eq!(iv2.get("gc"), Some(&Json::Bool(true)));
        assert_eq!(
            iv2.get("counters")
                .and_then(|c| c.get("one.v"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let hist = parse(lines[7]).unwrap();
        assert_eq!(hist.get("ev").and_then(Json::as_str), Some("hist"));
        assert_eq!(hist.get("name").and_then(Json::as_str), Some("mem.latency"));
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        match hist.get("buckets").unwrap() {
            Json::Arr(items) => assert_eq!(items.len(), Histogram::BUCKETS),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn events_serialize_sorted_last() {
        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "t".into(),
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
            wall_secs: 0.0,
            counters: None,
        });
        // Recorded out of order; the file must come out
        // (run, id, start, end, name)-ordered.
        log.record_events([
            EventRecord {
                run,
                id: 0,
                name: "gc.pause".into(),
                start: 500,
                end: 900,
            },
            EventRecord {
                run,
                id: 0,
                name: "window.reset".into(),
                start: 100,
                end: 100,
            },
        ]);
        assert_eq!(log.event_count(), 2);

        let text = log.to_jsonl(&test_prov());
        let lines: Vec<&str> = text.lines().collect();
        // prov + run + span + 2 events.
        assert_eq!(lines.len(), 5);
        let instant = parse(lines[3]).unwrap();
        assert_eq!(instant.get("ev").and_then(Json::as_str), Some("event"));
        assert_eq!(
            instant.get("name").and_then(Json::as_str),
            Some("window.reset")
        );
        assert_eq!(instant.get("start").and_then(Json::as_u64), Some(100));
        assert_eq!(instant.get("end").and_then(Json::as_u64), Some(100));
        let span = parse(lines[4]).unwrap();
        assert_eq!(span.get("name").and_then(Json::as_str), Some("gc.pause"));
        assert_eq!(span.get("end").and_then(Json::as_u64), Some(900));
    }

    #[test]
    fn attribs_serialize_sorted_after_events() {
        let log = RunLog::new();
        let run = log.begin_run(RunMeta {
            tag: "t".into(),
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
            wall_secs: 0.0,
            counters: None,
        });
        // Recorded out of order; the file must come out
        // (run, id, stack)-ordered.
        log.record_attribs([
            AttribRecord {
                run,
                id: 0,
                stack: "mutator;data_stall;memory;eden".into(),
                cycles: 75,
            },
            AttribRecord {
                run,
                id: 0,
                stack: "gc;data_stall;c2c;old_gen".into(),
                cycles: 105,
            },
        ]);
        assert_eq!(log.attrib_count(), 2);

        let text = log.to_jsonl(&test_prov());
        let lines: Vec<&str> = text.lines().collect();
        // prov + run + span + 2 attribs.
        assert_eq!(lines.len(), 5);
        let first = parse(lines[3]).unwrap();
        assert_eq!(first.get("ev").and_then(Json::as_str), Some("attrib"));
        assert_eq!(
            first.get("stack").and_then(Json::as_str),
            Some("gc;data_stall;c2c;old_gen")
        );
        assert_eq!(first.get("cycles").and_then(Json::as_u64), Some(105));
        let second = parse(lines[4]).unwrap();
        assert_eq!(
            second.get("stack").and_then(Json::as_str),
            Some("mutator;data_stall;memory;eden")
        );
    }

    #[test]
    fn log_is_shareable_across_threads() {
        let log = std::sync::Arc::new(RunLog::new());
        let run = log.begin_run(RunMeta {
            tag: "t".into(),
            effort: "quick".into(),
            threads: 4,
            jobs: 8,
        });
        std::thread::scope(|scope| {
            for w in 0..4 {
                let log = std::sync::Arc::clone(&log);
                scope.spawn(move || {
                    for j in 0..2 {
                        log.record_span(JobSpan {
                            run,
                            id: w * 2 + j,
                            label: None,
                            worker: w,
                            claim: w * 2 + j,
                            cost_hint: None,
                            wall_secs: 0.0,
                            counters: None,
                        });
                    }
                });
            }
        });
        assert_eq!(log.span_count(), 8);
    }
}
