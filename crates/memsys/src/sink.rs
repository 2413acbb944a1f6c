//! The [`MemSink`] trait: where generated reference streams go.
//!
//! Workload models and the JVM substrate *produce* instruction counts and
//! memory references; the simulation harness *consumes* them (driving a
//! [`crate::MemorySystem`] and a processor timer), while unit tests consume
//! them with simple recording sinks. This trait is the seam between the
//! two halves.

use crate::addr::{Addr, AddrRange, LineAddr};
use crate::stats::AccessKind;

/// A consumer of one thread's execution stream.
///
/// Implementations decide what "executing" means: the full simulator feeds
/// caches and charges cycles; test sinks record or count.
pub trait MemSink {
    /// Retires `n` instructions that make no (further) memory references.
    fn instructions(&mut self, n: u64);

    /// Performs one memory reference.
    fn access(&mut self, kind: AccessKind, addr: Addr);

    /// Convenience: a load. A sink may override `load`, `store` and
    /// `ifetch` with a path whose kind is fixed, but each must do what
    /// [`MemSink::access`] does with its kind.
    fn load(&mut self, addr: Addr) {
        self.access(AccessKind::Load, addr);
    }

    /// Convenience: a store.
    fn store(&mut self, addr: Addr) {
        self.access(AccessKind::Store, addr);
    }

    /// Convenience: an instruction fetch.
    fn ifetch(&mut self, addr: Addr) {
        self.access(AccessKind::Ifetch, addr);
    }

    /// Touches every line of `range` with `kind`, in ascending order
    /// (bulk copy/scan helper). The kind is matched once per range, so
    /// each line takes the sink's `load`, `store` or `ifetch`.
    fn sweep(&mut self, kind: AccessKind, range: AddrRange) {
        let lines = range.lines().map(LineAddr::base);
        match kind {
            AccessKind::Load => lines.for_each(|a| self.load(a)),
            AccessKind::Store => lines.for_each(|a| self.store(a)),
            AccessKind::Ifetch => lines.for_each(|a| self.ifetch(a)),
        }
    }

    /// Executes a run of `lines` consecutive code lines from `first`:
    /// per line, its instruction fetch, then `per_line` instructions
    /// retired. The retires stay per line: a CPU timer sums them in
    /// floating point, so one sum of all the lines is not the same
    /// number.
    ///
    /// `sweep` and `fetch_code` are one call through a `&mut dyn
    /// MemSink` per range or run. Their bodies are compiled for each
    /// sink type, so a sink whose `load`, `store`, `ifetch` and
    /// `instructions` are `#[inline(always)]` runs every line without a
    /// further call.
    fn fetch_code(&mut self, first: LineAddr, lines: u64, per_line: u64) {
        for i in 0..lines {
            self.ifetch(first.step(i).base());
            self.instructions(per_line);
        }
    }
}

/// A sink that only counts, for tests and dry runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Instructions retired.
    pub instructions: u64,
    /// Loads seen.
    pub loads: u64,
    /// Stores seen.
    pub stores: u64,
    /// Instruction fetches seen.
    pub ifetches: u64,
}

impl CountingSink {
    /// Creates a zeroed counting sink.
    pub fn new() -> Self {
        CountingSink::default()
    }
}

impl MemSink for CountingSink {
    fn instructions(&mut self, n: u64) {
        self.instructions += n;
    }

    fn access(&mut self, kind: AccessKind, _addr: Addr) {
        match kind {
            AccessKind::Load => self.loads += 1,
            AccessKind::Store => self.stores += 1,
            AccessKind::Ifetch => self.ifetches += 1,
        }
    }
}

/// A sink that records every event, for fine-grained assertions.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// Recorded `(kind, addr)` pairs in order.
    pub refs: Vec<(AccessKind, Addr)>,
    /// Instructions retired.
    pub instructions: u64,
}

impl RecordingSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }
}

impl MemSink for RecordingSink {
    fn instructions(&mut self, n: u64) {
        self.instructions += n;
    }

    fn access(&mut self, kind: AccessKind, addr: Addr) {
        self.refs.push((kind, addr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts_by_kind() {
        let mut s = CountingSink::new();
        s.instructions(10);
        s.load(Addr(0));
        s.store(Addr(64));
        s.ifetch(Addr(128));
        s.ifetch(Addr(128));
        assert_eq!(s.instructions, 10);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.ifetches, 2);
        assert_eq!(s.loads + s.stores + s.ifetches, 4);
    }

    #[test]
    fn sweep_touches_every_line_once() {
        let mut s = CountingSink::new();
        s.sweep(AccessKind::Store, AddrRange::new(Addr(10), 130));
        // Bytes 10..140 span lines 0,1,2.
        assert_eq!(s.stores, 3);
    }

    #[test]
    fn sweep_of_empty_range_is_noop() {
        let mut s = CountingSink::new();
        s.sweep(AccessKind::Load, AddrRange::new(Addr(0), 0));
        assert_eq!(s.loads + s.stores + s.ifetches, 0);
    }

    #[test]
    fn fetch_code_fetches_then_retires_each_line() {
        let mut s = RecordingSink::new();
        s.fetch_code(LineAddr(3), 2, 16);
        assert_eq!(
            s.refs,
            vec![
                (AccessKind::Ifetch, Addr(3 * 64)),
                (AccessKind::Ifetch, Addr(4 * 64))
            ]
        );
        assert_eq!(s.instructions, 32);
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut s = RecordingSink::new();
        s.load(Addr(1));
        s.store(Addr(2));
        assert_eq!(
            s.refs,
            vec![(AccessKind::Load, Addr(1)), (AccessKind::Store, Addr(2))]
        );
    }
}
