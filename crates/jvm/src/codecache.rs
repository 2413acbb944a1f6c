//! The JIT code cache: compiled-method layout and instruction fetch.
//!
//! The paper's key instruction-side finding (Figure 12) is that ECperf —
//! running inside a commercial application server and EJB container — has a
//! much larger instruction working set than SPECjbb, producing markedly
//! higher miss rates for intermediate (e.g. 256 KB) instruction caches.
//! That difference is purely a matter of how much hot compiled code each
//! workload executes, so the model is direct: workloads install their
//! methods into a [`CodeCache`] region and *execute* them, emitting one
//! instruction fetch per 64-byte line (16 SPARC instructions).

use memsys::{Addr, AddrRange, MemSink, LINE_BYTES};

/// Identifies an installed compiled method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// SPARC V9 instructions per 64-byte line.
pub const INSTRUCTIONS_PER_LINE: u64 = LINE_BYTES / 4;

/// A region of compiled code.
#[derive(Debug, Clone)]
pub struct CodeCache {
    region: AddrRange,
    used: u64,
    methods: Vec<AddrRange>,
}

impl CodeCache {
    /// Creates a code cache allocating from `region`.
    pub fn new(region: AddrRange) -> Self {
        CodeCache {
            region,
            used: 0,
            methods: Vec::new(),
        }
    }

    /// Installs (JIT-compiles) a method of `bytes` code bytes, rounded up
    /// to whole lines.
    ///
    /// # Panics
    ///
    /// Panics if the code region is exhausted.
    pub fn install(&mut self, bytes: u64) -> MethodId {
        let len = bytes.max(LINE_BYTES).div_ceil(LINE_BYTES) * LINE_BYTES;
        assert!(
            self.used + len <= self.region.len(),
            "code cache exhausted installing {bytes}-byte method"
        );
        let range = AddrRange::new(Addr(self.region.start().0 + self.used), len);
        self.used += len;
        let id = MethodId(u32::try_from(self.methods.len()).expect("method count fits u32"));
        self.methods.push(range);
        id
    }

    /// The whole code region (region classification).
    pub fn region(&self) -> AddrRange {
        self.region
    }

    /// The method's code range.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn range(&self, id: MethodId) -> AddrRange {
        self.methods[id.0 as usize]
    }

    /// Executes the whole method body: one ifetch per line, sixteen
    /// instructions retired per line.
    pub fn execute(&self, id: MethodId, sink: &mut (impl MemSink + ?Sized)) {
        self.execute_lines(id, u32::MAX, sink);
    }

    /// Executes up to `lines` lines of the method (short calls / early
    /// returns execute a prefix of the body).
    pub(crate) fn execute_lines(
        &self,
        id: MethodId,
        lines: u32,
        sink: &mut (impl MemSink + ?Sized),
    ) {
        let range = self.range(id);
        let total = range.line_count().min(lines as u64);
        sink.fetch_code(range.start().line(), total, INSTRUCTIONS_PER_LINE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{AccessKind, CountingSink, RecordingSink};

    fn cache() -> CodeCache {
        CodeCache::new(AddrRange::new(Addr(0x10_0000), 1 << 20))
    }

    #[test]
    fn methods_are_laid_out_contiguously_without_overlap() {
        let mut c = cache();
        let a = c.install(100);
        let b = c.install(1000);
        assert!(!c.range(a).overlaps(&c.range(b)));
        assert_eq!(c.range(a).len(), 128, "rounded to lines");
        assert_eq!(c.range(b).start(), Addr(0x10_0000 + 128));
        let next = c.install(1);
        assert_eq!(c.range(next).start(), Addr(0x10_0000 + 128 + 1024));
    }

    #[test]
    fn execute_fetches_every_line_and_retires_instructions() {
        let mut c = cache();
        let m = c.install(640); // 10 lines
        let mut sink = CountingSink::new();
        c.execute(m, &mut sink);
        assert_eq!(sink.ifetches, 10);
        assert_eq!(sink.instructions, 10 * INSTRUCTIONS_PER_LINE);
    }

    #[test]
    fn execute_lines_truncates() {
        let mut c = cache();
        let m = c.install(640);
        let mut sink = CountingSink::new();
        c.execute_lines(m, 3, &mut sink);
        assert_eq!(sink.ifetches, 3);
    }

    #[test]
    fn fetches_are_sequential_ifetches() {
        let mut c = cache();
        let m = c.install(192); // 3 lines
        let mut sink = RecordingSink::new();
        c.execute(m, &mut sink);
        assert_eq!(sink.refs.len(), 3);
        for (i, (kind, addr)) in sink.refs.iter().enumerate() {
            assert_eq!(*kind, AccessKind::Ifetch);
            assert_eq!(addr.0, c.range(m).start().0 + i as u64 * LINE_BYTES);
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overflowing_region_panics() {
        let mut c = CodeCache::new(AddrRange::new(Addr(0), 128));
        let _ = c.install(256);
    }
}
