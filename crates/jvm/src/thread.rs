//! Java thread contexts: stacks and their reference behavior.
//!
//! Each thread owns a stack region and a [`Tlab`]. Per-transaction scratch
//! work (operand stacks, call frames, local temporaries) is modeled as
//! load/store traffic over a window of the stack that is *reused* across
//! transactions — so it hits in the L1 once warm, exactly like real frame
//! reuse, and its footprint is what pressures small L1 data caches.

use memsys::{Addr, AddrRange, MemSink, LINE_BYTES};

use crate::alloc::Tlab;

/// A simulated Java thread's memory context.
#[derive(Debug, Clone)]
pub struct JavaThread {
    /// Thread index within its machine.
    pub id: usize,
    /// The thread's stack region.
    pub stack: AddrRange,
    /// The thread's allocation buffer.
    pub tlab: Tlab,
    /// Rotation cursor so successive frame walks overlap realistically.
    depth: u64,
}

impl JavaThread {
    /// Creates a thread with the given stack region.
    pub(crate) fn new(id: usize, stack: AddrRange) -> Self {
        JavaThread {
            id,
            stack,
            tlab: Tlab::new(),
            depth: 0,
        }
    }

    /// Emits one call frame's worth of stack traffic: `frame_bytes` of
    /// pushes (stores) followed by reads of the same lines, at the current
    /// stack depth. Frames beyond the stack size wrap (deep recursion is
    /// not modeled).
    pub fn push_frame(&mut self, frame_bytes: u64, sink: &mut (impl MemSink + ?Sized)) {
        let lines = frame_bytes.div_ceil(LINE_BYTES).max(1);
        let stack_lines = self.stack.line_count();
        sink.instructions(8 + frame_bytes / 8);
        for i in 0..lines {
            let line_idx = (self.depth + i) % stack_lines;
            let addr = Addr(self.stack.start().line().step(line_idx).base().0);
            sink.store(addr);
            sink.load(addr);
        }
        self.depth = (self.depth + lines) % stack_lines;
    }

    /// Pops a frame: reads the frame's lines back (restores), retreating
    /// the depth cursor.
    pub fn pop_frame(&mut self, frame_bytes: u64, sink: &mut (impl MemSink + ?Sized)) {
        let lines = frame_bytes.div_ceil(LINE_BYTES).max(1);
        let stack_lines = self.stack.line_count();
        sink.instructions(8);
        self.depth = (self.depth + stack_lines - (lines % stack_lines)) % stack_lines;
        for i in 0..lines {
            let line_idx = (self.depth + i) % stack_lines;
            let addr = Addr(self.stack.start().line().step(line_idx).base().0);
            sink.load(addr);
        }
    }

    /// Resets the stack cursor to the base (end of a transaction: frames
    /// unwound, the next transaction reuses the same lines).
    pub fn unwind(&mut self) {
        self.depth = 0;
    }
}

/// Carves per-thread stack regions out of a stacks area.
///
/// # Panics
///
/// Panics if the region cannot hold `threads` stacks of `stack_bytes`.
pub fn carve_stacks(mut region: AddrRange, threads: usize, stack_bytes: u64) -> Vec<JavaThread> {
    (0..threads)
        .map(|id| {
            let stack = region
                .take(stack_bytes)
                .expect("stack region exhausted; size the stacks area to threads * stack_bytes");
            JavaThread::new(id, stack)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{CountingSink, RecordingSink};

    fn thread() -> JavaThread {
        JavaThread::new(0, AddrRange::new(Addr(0x8000_0000), 32 << 10))
    }

    #[test]
    fn frame_push_stores_then_loads_same_lines() {
        let mut t = thread();
        let mut sink = RecordingSink::new();
        t.push_frame(128, &mut sink);
        assert_eq!(sink.refs.len(), 4, "2 lines x (store+load)");
        assert_eq!(sink.refs[0].1, sink.refs[1].1);
    }

    #[test]
    fn pop_returns_cursor_to_prior_depth() {
        let mut t = thread();
        let mut sink = CountingSink::new();
        t.push_frame(256, &mut sink);
        let d = t.depth;
        t.push_frame(256, &mut sink);
        t.pop_frame(256, &mut sink);
        assert_eq!(t.depth, d);
    }

    #[test]
    fn unwound_transactions_reuse_the_same_lines() {
        let mut t = thread();
        let mut first = RecordingSink::new();
        t.push_frame(512, &mut first);
        t.unwind();
        let mut second = RecordingSink::new();
        t.push_frame(512, &mut second);
        assert_eq!(first.refs, second.refs, "stack reuse is exact");
    }

    #[test]
    fn deep_frames_wrap_within_stack() {
        let mut t = JavaThread::new(0, AddrRange::new(Addr(0), 1024)); // 16 lines
        let mut sink = RecordingSink::new();
        for _ in 0..10 {
            t.push_frame(256, &mut sink); // 4 lines each
        }
        for (_, addr) in &sink.refs {
            assert!(addr.0 < 1024, "stays inside the stack region");
        }
    }

    #[test]
    fn carve_stacks_produces_disjoint_regions() {
        let ts = carve_stacks(AddrRange::new(Addr(0), 1 << 20), 8, 64 << 10);
        assert_eq!(ts.len(), 8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert!(!ts[i].stack.overlaps(&ts[j].stack));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn oversubscribed_stack_region_panics() {
        let _ = carve_stacks(AddrRange::new(Addr(0), 1 << 10), 4, 1 << 10);
    }
}
