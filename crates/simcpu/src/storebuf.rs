//! Store-buffer occupancy model.
//!
//! The UltraSPARC II retires stores into a small store buffer that drains
//! to the (write-through) L1/L2 in the background; the pipeline only stalls
//! when the buffer is full. The paper (Section 4.2) measures store-buffer
//! stalls at just 1–2% of execution time, and the breakdown in Figure 7
//! carries them as a thin slice of data-stall time. This model reproduces
//! that mechanism: each store occupies a slot until its memory-system
//! latency has elapsed; enqueueing into a full buffer stalls the processor
//! until the oldest entry drains.

/// UltraSPARC II store-buffer depth.
const DEPTH: usize = 8;

/// The UltraSPARC II's store buffer, tracked in processor cycles.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    /// Completion times of in-flight stores (a ring of [`DEPTH`] slots;
    /// oldest first).
    slots: Vec<u64>,
    head: usize,
    len: usize,
}

impl Default for StoreBuffer {
    fn default() -> Self {
        StoreBuffer {
            slots: vec![0; DEPTH],
            head: 0,
            len: 0,
        }
    }
}

impl StoreBuffer {
    fn drain(&mut self, now: u64) {
        while self.len > 0 && self.slots[self.head] <= now {
            self.head = (self.head + 1) % DEPTH;
            self.len -= 1;
        }
    }

    /// Enqueues a store issued at cycle `now` whose memory operation takes
    /// `latency` cycles. Returns the stall cycles suffered by the pipeline
    /// (non-zero only when the buffer was full).
    pub(crate) fn push(&mut self, now: u64, latency: u64) -> u64 {
        self.drain(now);
        let (start, stall) = if self.len == DEPTH {
            // Stall until the oldest entry completes.
            let free_at = self.slots[self.head];
            self.head = (self.head + 1) % DEPTH;
            self.len -= 1;
            (free_at, free_at - now)
        } else {
            (now, 0)
        };
        let tail = (self.head + self.len) % DEPTH;
        self.slots[tail] = start + latency;
        self.len += 1;
        stall
    }

    /// Empties the buffer (context switch / barrier).
    pub(crate) fn flush(&mut self) {
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: u64 = DEPTH as u64;

    #[test]
    fn stores_below_depth_never_stall() {
        let mut sb = StoreBuffer::default();
        for i in 0..D {
            assert_eq!(sb.push(i, 100), 0);
        }
        // All are still in flight: one more waits for the oldest.
        assert_eq!(sb.push(D - 1, 100), 100 - (D - 1));
    }

    #[test]
    fn full_buffer_stalls_until_oldest_drains() {
        let mut sb = StoreBuffer::default();
        for _ in 0..D {
            assert_eq!(sb.push(0, 10), 0); // completes at 10
        }
        let stall = sb.push(0, 10);
        assert_eq!(stall, 10, "must wait for the first store");
    }

    #[test]
    fn buffer_drains_with_time() {
        let mut sb = StoreBuffer::default();
        for _ in 0..D {
            sb.push(0, 10);
        }
        for _ in 0..D {
            assert_eq!(sb.push(10, 10), 0, "every slot drained by time 10");
        }
    }

    #[test]
    fn serialized_full_pushes_accumulate_completion_times() {
        let mut sb = StoreBuffer::default();
        for _ in 0..D {
            assert_eq!(sb.push(0, 100), 0); // completes at 100
        }
        for _ in 0..D {
            assert_eq!(sb.push(0, 100), 100); // waits to 100, completes at 200
        }
        assert_eq!(sb.push(0, 100), 200); // waits to 200
    }

    #[test]
    fn flush_empties() {
        let mut sb = StoreBuffer::default();
        for _ in 0..D {
            sb.push(0, 1000);
        }
        sb.flush();
        for _ in 0..D {
            assert_eq!(sb.push(0, 1000), 0);
        }
    }
}
