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

/// A fixed-capacity store buffer tracked in processor cycles.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    /// Completion times of in-flight stores (a ring; oldest first).
    slots: Vec<u64>,
    head: usize,
    len: usize,
}

/// UltraSPARC II store-buffer depth.
pub const DEFAULT_DEPTH: usize = 8;

impl StoreBuffer {
    /// Creates an empty buffer with `depth` entries.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub(crate) fn new(depth: usize) -> Self {
        assert!(depth > 0, "store buffer depth must be positive");
        StoreBuffer {
            slots: vec![0; depth],
            head: 0,
            len: 0,
        }
    }

    fn drain(&mut self, now: u64) {
        while self.len > 0 && self.slots[self.head] <= now {
            self.head = (self.head + 1) % self.slots.len();
            self.len -= 1;
        }
    }

    /// Enqueues a store issued at cycle `now` whose memory operation takes
    /// `latency` cycles. Returns the stall cycles suffered by the pipeline
    /// (non-zero only when the buffer was full).
    pub(crate) fn push(&mut self, now: u64, latency: u64) -> u64 {
        self.drain(now);
        let cap = self.slots.len();
        let (start, stall) = if self.len == cap {
            // Stall until the oldest entry completes.
            let free_at = self.slots[self.head];
            self.head = (self.head + 1) % cap;
            self.len -= 1;
            (free_at, free_at - now)
        } else {
            (now, 0)
        };
        let tail = (self.head + self.len) % cap;
        self.slots[tail] = start + latency;
        self.len += 1;
        stall
    }

    /// Empties the buffer (context switch / barrier).
    pub(crate) fn flush(&mut self) {
        self.len = 0;
    }
}

impl Default for StoreBuffer {
    fn default() -> Self {
        StoreBuffer::new(DEFAULT_DEPTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_below_depth_never_stall() {
        let mut sb = StoreBuffer::new(4);
        for i in 0..4 {
            assert_eq!(sb.push(i, 100), 0);
        }
        // All four are still in flight: a fifth waits for the oldest.
        assert_eq!(sb.push(3, 100), 97);
    }

    #[test]
    fn full_buffer_stalls_until_oldest_drains() {
        let mut sb = StoreBuffer::new(2);
        assert_eq!(sb.push(0, 10), 0); // completes at 10
        assert_eq!(sb.push(0, 10), 0); // completes at 10
        let stall = sb.push(0, 10);
        assert_eq!(stall, 10, "must wait for the first store");
    }

    #[test]
    fn buffer_drains_with_time() {
        let mut sb = StoreBuffer::new(2);
        sb.push(0, 10);
        sb.push(0, 10);
        assert_eq!(sb.push(10, 10), 0);
        assert_eq!(sb.push(10, 10), 0, "both slots drained by time 10");
    }

    #[test]
    fn serialized_full_pushes_accumulate_completion_times() {
        let mut sb = StoreBuffer::new(1);
        assert_eq!(sb.push(0, 100), 0);
        assert_eq!(sb.push(0, 100), 100); // waits to 100, completes at 200
        assert_eq!(sb.push(0, 100), 200); // waits to 200
    }

    #[test]
    fn flush_empties() {
        let mut sb = StoreBuffer::new(2);
        sb.push(0, 1000);
        sb.push(0, 1000);
        sb.flush();
        assert_eq!(sb.push(0, 1000), 0);
        assert_eq!(sb.push(0, 1000), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_panics() {
        let _ = StoreBuffer::new(0);
    }
}
