//! The kernel network path.
//!
//! ECperf's tiers run on separate machines and communicate through
//! operating-system networking code; SPECjbb keeps everything in one
//! process and does essentially no I/O. That difference is the paper's
//! Figure 5 headline: ECperf's *system* time grows from under 5% on one
//! processor to nearly 30% on fifteen, which the authors attribute to
//! contention in the networking code.
//!
//! [`NetStack`] models the mechanism: every message walks a kernel text
//! path (instruction footprint), updates shared protocol state guarded by
//! a handful of global lock lines (the contended part — callers should
//! serialize [`emit_protocol`](NetStack::emit_protocol) through their
//! scheduler's lock facility), and copies the payload through a
//! per-connection socket buffer ring (the parallel part).

use memsys::{Addr, AddrRange, MemSink, LINE_BYTES};

/// Hot kernel text bytes walked per message.
const TEXT_WALK_BYTES: u64 = 1024;
/// Total hot kernel network text (the instruction footprint).
const HOT_TEXT_BYTES: u64 = 128 << 10;
/// Socket buffer ring size per connection.
const SOCKBUF_BYTES: u64 = 2 << 10;
/// Number of global protocol lock lines.
const GLOBAL_LOCKS: u32 = 4;
/// Extra instructions per message beyond text execution (copies,
/// checksums).
const OVERHEAD_INSTRUCTIONS: u64 = 150;

/// One machine's kernel network stack.
#[derive(Debug, Clone)]
pub struct NetStack {
    text: AddrRange,
    locks: AddrRange,
    sockbufs: Vec<AddrRange>,
    cursors: Vec<u64>,
    text_cursor: u64,
}

impl NetStack {
    /// Lays a stack with `connections` connections out inside `region`.
    ///
    /// # Panics
    ///
    /// Panics if the region is too small for the text, locks and socket
    /// buffers.
    pub fn new(mut region: AddrRange, connections: usize) -> Self {
        let text = region
            .take(HOT_TEXT_BYTES)
            .expect("kernel region too small for network text");
        let locks = region
            .take(GLOBAL_LOCKS as u64 * LINE_BYTES)
            .expect("kernel region too small for lock lines");
        let sockbufs: Vec<AddrRange> = (0..connections)
            .map(|_| {
                region
                    .take(SOCKBUF_BYTES)
                    .expect("kernel region too small for socket buffers")
            })
            .collect();
        NetStack {
            text,
            locks,
            cursors: vec![0; connections],
            sockbufs,
            text_cursor: 0,
        }
    }

    /// Address of global protocol lock line `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn lock_addr(&self, i: u32) -> Addr {
        assert!(i < GLOBAL_LOCKS, "lock index {i} out of range");
        Addr(self.locks.start().0 + i as u64 * LINE_BYTES)
    }

    /// The serialized part of message processing on connection `conn`:
    /// acquire-style RMW on the connection's global protocol lock line
    /// (spread over the lock lines by connection, so no single kernel
    /// line carries all of the communication) and updates of shared
    /// protocol state. Callers hold a scheduler lock around this to
    /// model kernel serialization.
    pub fn emit_protocol(&mut self, conn: usize, sink: &mut (impl MemSink + ?Sized)) {
        let lock = (conn as u32) % GLOBAL_LOCKS;
        let lock_line = self.lock_addr(lock);
        sink.instructions(80);
        sink.load(lock_line);
        sink.store(lock_line);
        // Shared protocol state next to the lock (connection hash chains,
        // timers): a couple of shared lines.
        for i in 0..2 {
            let a = Addr(self.locks.start().0 + ((lock + i) % GLOBAL_LOCKS) as u64 * LINE_BYTES);
            sink.load(a);
        }
        sink.store(lock_line);
    }

    /// The parallel part: walk the kernel text path and copy `bytes`
    /// through the connection's socket buffer ring.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn emit_transfer(&mut self, conn: usize, bytes: u64, sink: &mut (impl MemSink + ?Sized)) {
        sink.instructions(OVERHEAD_INSTRUCTIONS);

        // Kernel text walk: a rotating window over the hot text, so the
        // whole footprint is exercised across messages. One code run per
        // stretch before the window wraps to the text's start.
        let text_lines = self.text.line_count();
        let walk_lines = TEXT_WALK_BYTES / LINE_BYTES;
        let (mut idx, mut left) = (self.text_cursor, walk_lines);
        while left > 0 {
            let run = left.min(text_lines - idx);
            sink.fetch_code(self.text.start().line().step(idx), run, LINE_BYTES / 4);
            left -= run;
            idx = (idx + run) % text_lines;
        }
        self.text_cursor = (self.text_cursor + (walk_lines * 2 / 3).max(1)) % text_lines;

        // Payload copy through the ring: a store per line written plus a
        // load per line read out.
        let buf = self.sockbufs[conn];
        let buf_lines = buf.line_count();
        let copy_lines = bytes.div_ceil(LINE_BYTES).max(1);
        let cursor = &mut self.cursors[conn];
        for i in 0..copy_lines {
            let idx = (*cursor + i) % buf_lines;
            let a = buf.start().line().step(idx).base();
            sink.store(a);
            sink.load(a);
        }
        *cursor = (*cursor + copy_lines) % buf_lines;
        sink.instructions(bytes / 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{CountingSink, RecordingSink};

    fn stack(conns: usize) -> NetStack {
        NetStack::new(AddrRange::new(Addr(0x0100_0000), 8 << 20), conns)
    }

    #[test]
    fn message_emits_code_locks_and_copies() {
        let mut s = stack(2);
        let mut sink = CountingSink::new();
        s.emit_protocol(0, &mut sink);
        s.emit_transfer(0, 1024, &mut sink);
        assert!(sink.ifetches >= TEXT_WALK_BYTES / 64);
        assert!(sink.stores >= 1024 / 64);
        assert!(sink.instructions > 500);
    }

    #[test]
    fn protocol_part_hammers_the_lock_line() {
        let mut s = stack(1);
        let mut sink = RecordingSink::new();
        s.emit_protocol(0, &mut sink);
        let lock_line = s.lock_addr(0).line();
        let on_lock = sink
            .refs
            .iter()
            .filter(|(_, a)| a.line() == lock_line)
            .count();
        assert!(on_lock >= 3, "RMW + release on the lock line");
    }

    #[test]
    fn connections_use_disjoint_buffers() {
        let mut s = stack(2);
        let mut a = RecordingSink::new();
        s.emit_transfer(0, 4096, &mut a);
        let mut b = RecordingSink::new();
        s.emit_transfer(1, 4096, &mut b);
        let a_stores: Vec<_> = a
            .refs
            .iter()
            .filter(|(k, _)| *k == memsys::AccessKind::Store)
            .map(|(_, addr)| addr.line())
            .collect();
        for (k, addr) in &b.refs {
            if *k == memsys::AccessKind::Store {
                assert!(
                    !a_stores.contains(&addr.line()),
                    "buffer sharing between connections"
                );
            }
        }
    }

    #[test]
    fn text_walk_rotates_across_whole_footprint() {
        let mut s = stack(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let mut sink = RecordingSink::new();
            s.emit_transfer(0, 64, &mut sink);
            for (k, a) in sink.refs {
                if k == memsys::AccessKind::Ifetch {
                    seen.insert(a.line());
                }
            }
        }
        let total = HOT_TEXT_BYTES / 64;
        assert!(
            seen.len() as u64 > total / 2,
            "rotation must cover most of the hot text: {} of {}",
            seen.len(),
            total
        );
    }

    /// The text walk, in code runs split at the wrap-around, fetches
    /// exactly the lines `(cursor + i) mod text lines` in order, each
    /// followed by its instructions.
    #[test]
    fn text_walk_wraps_in_line_order() {
        let mut s = stack(1);
        let text_lines = s.text.line_count();
        let walk_lines = TEXT_WALK_BYTES / LINE_BYTES;
        let mut wrapped = false;
        for _ in 0..300 {
            let cursor = s.text_cursor;
            wrapped |= cursor + walk_lines > text_lines;
            let want: Vec<Addr> = (0..walk_lines)
                .map(|i| s.text.start().line().step((cursor + i) % text_lines).base())
                .collect();
            let mut sink = RecordingSink::new();
            s.emit_transfer(0, 64, &mut sink);
            let got: Vec<Addr> = sink
                .refs
                .iter()
                .filter(|(k, _)| *k == memsys::AccessKind::Ifetch)
                .map(|&(_, a)| a)
                .collect();
            assert_eq!(got, want, "walk from line {cursor}");
        }
        assert!(wrapped, "300 walks must cross the wrap-around");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_lock_index_panics() {
        let s = stack(1);
        let _ = s.lock_addr(99);
    }
}
