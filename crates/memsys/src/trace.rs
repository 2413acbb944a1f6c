//! Reference-trace capture and replay.
//!
//! The paper's simulation methodology is trace-driven: Simics produced
//! per-processor memory reference streams that were fed to the Sumo
//! memory-system simulator, optionally *filtered* (their multiprocessor
//! ECperf runs kept only the application-server processors' references —
//! Section 3.3). This module reproduces that workflow at two levels:
//!
//! - [`Trace`] / [`TraceSink`] — a single logical processor's stream,
//!   recorded from any [`MemSink`] and replayed into any other;
//! - [`SystemTrace`] — a whole machine's interleaved stream, every
//!   reference tagged with its processor and [`AccessSource`], with
//!   window boundaries recorded in-stream so a replay from a cold system
//!   reproduces the live run's measurement-window statistics exactly.
//!
//! Filtering is a predicate over the tags — keeping one tier's
//! processors is exactly the paper's filter step — and replay order is
//! capture order, which is what makes the coherence outcomes (and
//! therefore miss/upgrade/cache-to-cache counts) bit-identical.

use std::io::{self, Read, Write};

use crate::addr::Addr;
use crate::sink::MemSink;
use crate::stats::AccessKind;
use crate::system::MemorySystem;

/// Where a memory reference came from.
///
/// The simulation engine tags every reference it issues; traces carry
/// the tag so filtering by source (the paper keeps only the benchmark
/// tier's traffic for its cache sweeps) is a replay-time predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSource {
    /// A workload thread's step.
    Workload,
    /// The single-threaded stop-the-world collector.
    Collector,
    /// The background OS clock tick (kernel lines, every processor).
    KernelTick,
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `n` instructions retired with no memory reference.
    Instructions(u64),
    /// A memory reference.
    Ref {
        /// Reference kind.
        kind: AccessKind,
        /// Byte address.
        addr: Addr,
    },
}

/// A captured reference stream for one logical processor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of events (instruction batches + references).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total memory references recorded.
    pub fn refs(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Ref { .. }))
            .count() as u64
    }

    /// Total instructions recorded.
    pub fn instructions(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Instructions(n) => *n,
                TraceEvent::Ref { .. } => 0,
            })
            .sum()
    }

    /// Keeps only references matching `keep` (instruction batches are
    /// preserved) — the paper's filter-to-one-tier step.
    pub fn filtered(&self, mut keep: impl FnMut(AccessKind, Addr) -> bool) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .filter(|e| match e {
                    TraceEvent::Instructions(_) => true,
                    TraceEvent::Ref { kind, addr } => keep(*kind, *addr),
                })
                .copied()
                .collect(),
        }
    }

    /// Appends another trace.
    pub fn extend_from(&mut self, other: &Trace) {
        self.events.extend_from_slice(&other.events);
    }

    /// Replays the trace into any sink (a cache sweep, a recording sink,
    /// a full memory system via [`SystemSink`]).
    pub fn replay(&self, sink: &mut (impl MemSink + ?Sized)) {
        for e in &self.events {
            match e {
                TraceEvent::Instructions(n) => sink.instructions(*n),
                TraceEvent::Ref { kind, addr } => sink.access(*kind, *addr),
            }
        }
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

/// One event of a whole-machine capture. Field widths are chosen so the
/// enum packs into 16 bytes — multiprocessor windows run to tens of
/// millions of events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemTraceEvent {
    /// `n` instructions retired on `cpu` with no memory reference.
    Instructions {
        /// Issuing processor.
        cpu: u16,
        /// Instructions retired.
        n: u64,
    },
    /// A memory reference, in global (bus) order.
    Ref {
        /// Issuing processor.
        cpu: u16,
        /// Which part of the simulated system issued it.
        source: AccessSource,
        /// Reference kind.
        kind: AccessKind,
        /// Byte address.
        addr: Addr,
    },
    /// The live run's `begin_measurement`: statistics were reset here.
    /// Replays reset theirs at the same point, so a replay from a cold
    /// system reproduces the live measurement window exactly (the warm-up
    /// prefix re-warms the replay caches the same way it warmed the
    /// originals).
    WindowReset,
}

/// A whole machine's interleaved, tagged reference stream.
///
/// Events are recorded in the exact order the memory system consumed
/// them, which on a snooping bus *is* the coherence order: replaying
/// into a fresh [`MemorySystem`] of the same configuration reproduces
/// every hit level, upgrade and cache-to-cache transfer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemTrace {
    events: Vec<SystemTraceEvent>,
    cpus: usize,
}

impl SystemTrace {
    /// Creates an empty capture.
    pub fn new() -> Self {
        SystemTrace::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether anything was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events.
    pub fn events(&self) -> &[SystemTraceEvent] {
        &self.events
    }

    /// One more than the highest processor index seen.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Records an instruction batch, coalescing with an immediately
    /// preceding batch from the same processor.
    pub fn record_instructions(&mut self, cpu: usize, n: u64) {
        self.cpus = self.cpus.max(cpu + 1);
        if let Some(SystemTraceEvent::Instructions { cpu: last, n: m }) = self.events.last_mut() {
            if *last as usize == cpu {
                *m += n;
                return;
            }
        }
        self.events
            .push(SystemTraceEvent::Instructions { cpu: cpu as u16, n });
    }

    /// Records one memory reference.
    pub fn record_ref(&mut self, cpu: usize, source: AccessSource, kind: AccessKind, addr: Addr) {
        self.cpus = self.cpus.max(cpu + 1);
        self.events.push(SystemTraceEvent::Ref {
            cpu: cpu as u16,
            source,
            kind,
            addr,
        });
    }

    /// Records a measurement-window boundary.
    pub fn record_window_reset(&mut self) {
        self.events.push(SystemTraceEvent::WindowReset);
    }

    /// Total references recorded.
    pub fn refs(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, SystemTraceEvent::Ref { .. }))
            .count() as u64
    }

    /// Total instructions recorded.
    pub fn instructions(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                SystemTraceEvent::Instructions { n, .. } => *n,
                _ => 0,
            })
            .sum()
    }

    /// Instructions after the last window boundary (the whole trace when
    /// no boundary was recorded) — the denominator for per-1000-
    /// instruction replay metrics.
    pub fn window_instructions(&self) -> u64 {
        let start = self
            .events
            .iter()
            .rposition(|e| matches!(e, SystemTraceEvent::WindowReset))
            .map(|i| i + 1)
            .unwrap_or(0);
        self.events[start..]
            .iter()
            .map(|e| match e {
                SystemTraceEvent::Instructions { n, .. } => *n,
                _ => 0,
            })
            .sum()
    }

    /// Keeps only references matching `keep`; instruction batches and
    /// window boundaries are preserved. This is the paper's Section 3.3
    /// step — filtering a multi-machine trace down to the tier under
    /// study is a predicate over `(cpu, source)`.
    pub fn filtered(&self, mut keep: impl FnMut(usize, AccessSource) -> bool) -> SystemTrace {
        let mut out = SystemTrace::new();
        out.cpus = self.cpus;
        out.events = self
            .events
            .iter()
            .filter(|e| match e {
                SystemTraceEvent::Ref { cpu, source, .. } => keep(*cpu as usize, *source),
                _ => true,
            })
            .copied()
            .collect();
        out
    }

    /// Drops *everything* (references and instructions) from processors
    /// `keep` rejects — projecting the capture onto one tier's processor
    /// set as a self-contained trace.
    pub fn filtered_cpus(&self, mut keep: impl FnMut(usize) -> bool) -> SystemTrace {
        let mut out = SystemTrace::new();
        for e in &self.events {
            match *e {
                SystemTraceEvent::Instructions { cpu, n } => {
                    if keep(cpu as usize) {
                        out.record_instructions(cpu as usize, n);
                    }
                }
                SystemTraceEvent::Ref {
                    cpu,
                    source,
                    kind,
                    addr,
                } => {
                    if keep(cpu as usize) {
                        out.record_ref(cpu as usize, source, kind, addr);
                    }
                }
                SystemTraceEvent::WindowReset => out.record_window_reset(),
            }
        }
        out.cpus = self.cpus;
        out
    }

    /// Projects one processor's stream as a plain [`Trace`] (for cache
    /// sweeps and other single-stream consumers). Window boundaries are
    /// dropped; the stream is the whole capture.
    pub fn cpu_stream(&self, cpu: usize) -> Trace {
        let mut sink = TraceSink::new();
        for e in &self.events {
            match *e {
                SystemTraceEvent::Instructions { cpu: c, n } if c as usize == cpu => {
                    sink.instructions(n);
                }
                SystemTraceEvent::Ref {
                    cpu: c, kind, addr, ..
                } if c as usize == cpu => {
                    sink.access(kind, addr);
                }
                _ => {}
            }
        }
        sink.into_trace()
    }

    /// Replays the capture into a memory system in recorded order,
    /// resetting the system's statistics at each recorded window
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if the trace references a processor the system lacks.
    pub fn replay_into(&self, sys: &mut MemorySystem) {
        for e in &self.events {
            match *e {
                SystemTraceEvent::Instructions { .. } => {}
                SystemTraceEvent::Ref {
                    cpu, kind, addr, ..
                } => {
                    sys.access(cpu as usize, kind, addr);
                }
                SystemTraceEvent::WindowReset => sys.reset_stats(),
            }
        }
    }

    /// Writes the capture in the compact on-disk format: a
    /// magic+version header, then one varint-packed record per event.
    ///
    /// Multiprocessor windows run to tens of millions of events at 16
    /// in-memory bytes each; on disk a typical reference takes 5–7
    /// bytes (one tag byte folding source and kind, then LEB128 cpu
    /// and address). The writer buffers internally, so handing it an
    /// unbuffered `File` is fine.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut buf = Vec::with_capacity(DISK_BUF);
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.push(TRACE_VERSION);
        put_varint(&mut buf, self.cpus as u64);
        put_varint(&mut buf, self.events.len() as u64);
        for e in &self.events {
            match *e {
                SystemTraceEvent::WindowReset => buf.push(TAG_WINDOW_RESET),
                SystemTraceEvent::Instructions { cpu, n } => {
                    buf.push(TAG_INSTRUCTIONS);
                    put_varint(&mut buf, cpu as u64);
                    put_varint(&mut buf, n);
                }
                SystemTraceEvent::Ref {
                    cpu,
                    source,
                    kind,
                    addr,
                } => {
                    buf.push(TAG_REF_BASE + 3 * source_code(source) + kind_code(kind));
                    put_varint(&mut buf, cpu as u64);
                    put_varint(&mut buf, addr.0);
                }
            }
            if buf.len() >= DISK_BUF - 16 {
                w.write_all(&buf)?;
                buf.clear();
            }
        }
        w.write_all(&buf)?;
        w.flush()
    }

    /// Reads a capture written by [`SystemTrace::write_to`].
    ///
    /// Rejects (with `InvalidData`) anything that is not a well-formed
    /// trace: wrong magic, unknown version, unknown record tag, a
    /// truncated stream, or trailing bytes after the declared events.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<SystemTrace> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut c = Cursor {
            bytes: &bytes,
            pos: 0,
        };
        let magic = c.take(TRACE_MAGIC.len())?;
        if magic != TRACE_MAGIC {
            return Err(bad_data("not a trace file (bad magic)"));
        }
        let version = c.byte()?;
        if version != TRACE_VERSION {
            return Err(bad_data("unsupported trace version"));
        }
        let cpus = c.varint()? as usize;
        let count = c.varint()?;
        let mut out = SystemTrace::new();
        out.events = Vec::with_capacity(count.min(1 << 24) as usize);
        for _ in 0..count {
            let tag = c.byte()?;
            let event = match tag {
                TAG_WINDOW_RESET => SystemTraceEvent::WindowReset,
                TAG_INSTRUCTIONS => {
                    let cpu = cursor_cpu(&mut c)?;
                    let n = c.varint()?;
                    SystemTraceEvent::Instructions { cpu, n }
                }
                TAG_REF_BASE..=TAG_REF_LAST => {
                    let code = tag - TAG_REF_BASE;
                    let cpu = cursor_cpu(&mut c)?;
                    let addr = Addr(c.varint()?);
                    SystemTraceEvent::Ref {
                        cpu,
                        source: source_from(code / 3),
                        kind: kind_from(code % 3),
                        addr,
                    }
                }
                _ => return Err(bad_data("unknown trace record tag")),
            };
            if let SystemTraceEvent::Instructions { cpu, .. } | SystemTraceEvent::Ref { cpu, .. } =
                event
            {
                out.cpus = out.cpus.max(cpu as usize + 1);
            }
            out.events.push(event);
        }
        if c.pos != bytes.len() {
            return Err(bad_data("trailing bytes after the declared events"));
        }
        if out.cpus > cpus {
            return Err(bad_data("trace references a cpu beyond its header"));
        }
        out.cpus = cpus;
        Ok(out)
    }
}

/// On-disk format constants: `b"MTRC"` magic, a version byte, then the
/// varint-packed header and records [`SystemTrace::write_to`] describes.
const TRACE_MAGIC: [u8; 4] = *b"MTRC";
const TRACE_VERSION: u8 = 1;
const TAG_WINDOW_RESET: u8 = 0;
const TAG_INSTRUCTIONS: u8 = 1;
/// Ref tags fold `(source, kind)` into `TAG_REF_BASE + 3*source + kind`.
const TAG_REF_BASE: u8 = 2;
const TAG_REF_LAST: u8 = TAG_REF_BASE + 8;
/// Internal writer buffer: one syscall per ~64 KiB, not per event.
const DISK_BUF: usize = 64 << 10;

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("SystemTrace: {msg}"))
}

fn source_code(s: AccessSource) -> u8 {
    match s {
        AccessSource::Workload => 0,
        AccessSource::Collector => 1,
        AccessSource::KernelTick => 2,
    }
}

fn source_from(code: u8) -> AccessSource {
    match code {
        0 => AccessSource::Workload,
        1 => AccessSource::Collector,
        _ => AccessSource::KernelTick,
    }
}

fn kind_code(k: AccessKind) -> u8 {
    match k {
        AccessKind::Ifetch => 0,
        AccessKind::Load => 1,
        AccessKind::Store => 2,
    }
}

fn kind_from(code: u8) -> AccessKind {
    match code {
        0 => AccessKind::Ifetch,
        1 => AccessKind::Load,
        _ => AccessKind::Store,
    }
}

/// LEB128: seven payload bits per byte, high bit = continuation.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> io::Result<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| bad_data("truncated stream"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad_data("truncated stream"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(bad_data("varint overruns 64 bits"))
    }
}

fn cursor_cpu(c: &mut Cursor<'_>) -> io::Result<u16> {
    u16::try_from(c.varint()?).map_err(|_| bad_data("cpu index exceeds u16"))
}

/// A sink that records everything it sees into a [`Trace`], optionally
/// forwarding to an inner sink (tee).
#[derive(Debug, Default)]
pub struct TraceSink {
    trace: Trace,
}

impl TraceSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Consumes the sink, returning the captured trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The trace captured so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl MemSink for TraceSink {
    fn instructions(&mut self, n: u64) {
        // Coalesce adjacent instruction batches.
        if let Some(TraceEvent::Instructions(last)) = self.trace.events.last_mut() {
            *last += n;
        } else {
            self.trace.events.push(TraceEvent::Instructions(n));
        }
    }

    fn access(&mut self, kind: AccessKind, addr: Addr) {
        self.trace.events.push(TraceEvent::Ref { kind, addr });
    }
}

/// Adapts a [`MemorySystem`] processor into a [`MemSink`], so traces can
/// be replayed straight into the coherent model.
#[derive(Debug)]
pub struct SystemSink<'a> {
    system: &'a mut MemorySystem,
    cpu: usize,
}

impl<'a> SystemSink<'a> {
    /// A sink feeding processor `cpu` of `system`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `cpu` at first access.
    pub fn new(system: &'a mut MemorySystem, cpu: usize) -> Self {
        SystemSink { system, cpu }
    }
}

impl MemSink for SystemSink<'_> {
    fn instructions(&mut self, _n: u64) {}

    fn access(&mut self, kind: AccessKind, addr: Addr) {
        self.system.access(self.cpu, kind, addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountingSink;

    fn sample() -> Trace {
        let mut t = TraceSink::new();
        t.instructions(10);
        t.load(Addr(0x100));
        t.instructions(5);
        t.instructions(5);
        t.store(Addr(0x200));
        t.ifetch(Addr(0x300));
        t.into_trace()
    }

    #[test]
    fn capture_and_counts() {
        let t = sample();
        assert_eq!(t.refs(), 3);
        assert_eq!(t.instructions(), 20);
        // Adjacent instruction batches coalesce.
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn replay_reproduces_the_stream() {
        let t = sample();
        let mut c = CountingSink::new();
        t.replay(&mut c);
        assert_eq!(c.instructions, 20);
        assert_eq!(c.loads, 1);
        assert_eq!(c.stores, 1);
        assert_eq!(c.ifetches, 1);
    }

    #[test]
    fn filter_keeps_instruction_batches() {
        let t = sample();
        let f = t.filtered(|kind, _| kind == AccessKind::Load);
        assert_eq!(f.refs(), 1);
        assert_eq!(f.instructions(), 20);
    }

    #[test]
    fn replay_into_a_memory_system() {
        let t = sample();
        let mut sys = MemorySystem::e6000(2).unwrap();
        {
            let mut sink = SystemSink::new(&mut sys, 1);
            t.replay(&mut sink);
        }
        assert_eq!(sys.stats().total_accesses(), 3);
    }

    #[test]
    fn record_replay_roundtrip_is_identity() {
        let t = sample();
        let mut re = TraceSink::new();
        t.replay(&mut re);
        assert_eq!(re.into_trace(), t);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = sample();
        let b = sample();
        let before = a.len();
        a.extend_from(&b);
        assert_eq!(a.len(), before + b.len());
    }

    fn system_sample() -> SystemTrace {
        let mut t = SystemTrace::new();
        t.record_instructions(0, 10);
        t.record_instructions(0, 5); // coalesces
        t.record_ref(0, AccessSource::Workload, AccessKind::Store, Addr(0x1000));
        t.record_instructions(1, 8);
        t.record_ref(1, AccessSource::KernelTick, AccessKind::Load, Addr(0x1000));
        t.record_window_reset();
        t.record_ref(1, AccessSource::Workload, AccessKind::Load, Addr(0x1000));
        t.record_instructions(1, 4);
        t
    }

    #[test]
    fn system_trace_events_pack_small() {
        assert!(std::mem::size_of::<SystemTraceEvent>() <= 16);
    }

    #[test]
    fn system_trace_counts_and_coalesces() {
        let t = system_sample();
        assert_eq!(t.cpus(), 2);
        assert_eq!(t.refs(), 3);
        assert_eq!(t.instructions(), 27);
        assert_eq!(t.window_instructions(), 4);
        // 3 instruction batches (one coalesced) + 3 refs + 1 reset.
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn system_trace_filter_by_source_keeps_instructions() {
        let t = system_sample();
        let f = t.filtered(|_, source| source != AccessSource::KernelTick);
        assert_eq!(f.refs(), 2);
        assert_eq!(f.instructions(), t.instructions());
        assert_eq!(f.cpus(), t.cpus());
    }

    #[test]
    fn system_trace_cpu_projection_drops_other_cpus() {
        let t = system_sample();
        let p0 = t.filtered_cpus(|cpu| cpu == 0);
        assert_eq!(p0.refs(), 1);
        assert_eq!(p0.instructions(), 15);
        let s1 = t.cpu_stream(1);
        assert_eq!(s1.refs(), 2);
        assert_eq!(s1.instructions(), 12);
    }

    #[test]
    fn system_replay_resets_stats_at_the_window_boundary() {
        let t = system_sample();
        let mut sys = MemorySystem::e6000(2).unwrap();
        t.replay_into(&mut sys);
        // Only the one post-reset reference is counted...
        assert_eq!(sys.stats().total_accesses(), 1);
        // ...but the pre-reset stores still warmed the caches: cpu 1's
        // load finds cpu 0's dirty line and takes a cache-to-cache
        // transfer, exactly as in the live run.
        assert_eq!(sys.stats().total_c2c(), 0);
        assert_eq!(sys.stats().load.accesses, 1);
    }

    #[test]
    fn disk_roundtrip_is_identity() {
        let t = system_sample();
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        // Header (4+1+1+1) plus ~2-4 bytes per event: far below the
        // 16-byte in-memory representation.
        assert!(bytes.len() < t.len() * 16);
        let back = SystemTrace::read_from(&bytes[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn disk_roundtrip_preserves_empty_and_wide_values() {
        let mut t = SystemTrace::new();
        t.record_instructions(999, u64::MAX);
        t.record_ref(
            0,
            AccessSource::Collector,
            AccessKind::Store,
            Addr(u64::MAX),
        );
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        assert_eq!(SystemTrace::read_from(&bytes[..]).unwrap(), t);

        let empty = SystemTrace::new();
        let mut bytes = Vec::new();
        empty.write_to(&mut bytes).unwrap();
        assert_eq!(SystemTrace::read_from(&bytes[..]).unwrap(), empty);
    }

    #[test]
    fn disk_reader_rejects_corruption() {
        let t = system_sample();
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();

        let err = |b: &[u8]| SystemTrace::read_from(b).unwrap_err().to_string();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(err(&bad).contains("bad magic"));
        // Unknown version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(err(&bad).contains("version"));
        // Truncation.
        assert!(err(&bytes[..bytes.len() - 1]).contains("truncated"));
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(err(&bad).contains("trailing"));
        // Unknown tag (first record starts right after the header).
        let mut bad = bytes.clone();
        bad[7] = 0xff;
        assert!(err(&bad).contains("tag"));
    }

    #[test]
    fn system_replay_matches_direct_driving() {
        let t = system_sample();
        let mut replayed = MemorySystem::e6000(2).unwrap();
        t.replay_into(&mut replayed);
        let mut direct = MemorySystem::e6000(2).unwrap();
        direct.access(0, AccessKind::Store, Addr(0x1000));
        direct.access(1, AccessKind::Load, Addr(0x1000));
        direct.reset_stats();
        direct.access(1, AccessKind::Load, Addr(0x1000));
        assert_eq!(replayed.stats(), direct.stats());
    }
}
