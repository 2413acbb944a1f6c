//! The banked-DRAM timing model: load-dependent memory latency.
//!
//! Structure follows real DDR controllers at the granularity the Mess
//! methodology needs: `channels` independent data buses, each owning
//! `banks` banks and a bounded FIFO request queue. Latency decomposes
//! into three waits, each a `max` against state left by earlier
//! requests:
//!
//! 1. **Admission** — a full channel queue backpressures the requester
//!    until the oldest in-flight request completes;
//! 2. **Bank** — an open-row hit pays `t_row_hit`, any other row pays
//!    `t_row_conflict` (precharge + activate + CAS), and the bank is
//!    busy for the duration;
//! 3. **Data bus** — one line transfer per `channel_cycles` per channel,
//!    the bandwidth cap that bends the latency curve upward as applied
//!    load approaches it.
//!
//! The model is a pure state machine over `(address, arrival time)`
//! pairs: no randomness, no wall clock, so identical access streams cost
//! identically — the property `tests/determinism.rs` holds the whole
//! stack to. Arrival times may jump backwards between processors; the
//! internal clock only advances.

use std::collections::VecDeque;

use probes::Histogram;

use crate::addr::{Addr, LINE_BITS};
use crate::config::DramConfig;

use super::MemoryBackend;

/// Row tag meaning "no row open" (after power-up; never a real row).
const CLOSED: u64 = u64::MAX;

/// Cap on buffered stall episodes between drains. Stalls are rare by
/// construction (the queue must be full), but a pathological stream
/// must not turn the timeline buffer into a memory leak; beyond the
/// cap the *counters* keep counting and only the episode log saturates
/// — deterministically, since admission order is deterministic.
const MAX_STALL_EPISODES: usize = 1 << 16;

/// Event counters of one [`BankedDram`] — the `dram.*` panel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Demand fills serviced.
    pub reads: u64,
    /// Dirty-victim writebacks serviced.
    pub writebacks: u64,
    /// Requests hitting a bank's open row.
    pub row_hits: u64,
    /// Requests paying a row conflict (precharge + activate).
    pub row_conflicts: u64,
    /// Requests that found their channel queue full.
    pub queue_stalls: u64,
    /// Total cycles requesters waited for a queue slot.
    pub stalled_cycles: u64,
    /// Sum over requests of the queue occupancy found on arrival
    /// (divide by requests for the mean).
    pub occupancy_sum: u64,
}

impl DramStats {
    /// Total requests serviced.
    pub fn requests(&self) -> u64 {
        self.reads + self.writebacks
    }

    /// Fraction of requests hitting an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean channel-queue occupancy seen by arriving requests.
    pub(crate) fn mean_occupancy(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / n as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Bank {
    open_row: u64,
    busy_until: u64,
}

#[derive(Debug, Clone)]
struct Channel {
    /// When the data bus finishes its last accepted transfer.
    bus_free: u64,
    /// Completion times of in-flight requests, FIFO (the bus serializes
    /// completions, so this stays sorted).
    queue: VecDeque<u64>,
    banks: Vec<Bank>,
}

/// The banked-DRAM backend. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct BankedDram {
    cfg: DramConfig,
    chan_mask: u64,
    chan_bits: u32,
    col_bits: u32,
    bank_mask: u64,
    bank_bits: u32,
    /// Internal monotonic clock: the latest arrival time seen.
    clock: u64,
    channels: Vec<Channel>,
    stats: DramStats,
    hist: Histogram,
    /// Queue-stall episodes `(start, end)` in sim cycles, buffered for
    /// the run-observatory timeline and drained per job.
    stall_episodes: Vec<(u64, u64)>,
}

impl BankedDram {
    /// Builds an idle DRAM from a validated configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                bus_free: 0,
                queue: VecDeque::with_capacity(cfg.queue_depth as usize + 1),
                banks: (0..cfg.banks)
                    .map(|_| Bank {
                        open_row: CLOSED,
                        busy_until: 0,
                    })
                    .collect(),
            })
            .collect();
        BankedDram {
            chan_mask: (cfg.channels - 1) as u64,
            chan_bits: cfg.channels.trailing_zeros(),
            col_bits: cfg.row_lines.trailing_zeros(),
            bank_mask: (cfg.banks - 1) as u64,
            bank_bits: cfg.banks.trailing_zeros(),
            clock: 0,
            channels,
            stats: DramStats::default(),
            hist: Histogram::new(),
            stall_episodes: Vec::new(),
            cfg,
        }
    }

    /// Event counters so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Per-fill total latency (queue wait + bank + bus) histogram.
    pub fn hist(&self) -> &Histogram {
        &self.hist
    }

    /// Address mapping `row : bank : column : channel` over line
    /// addresses: consecutive lines interleave across channels, and
    /// within a channel walk the columns of one bank row — the layout
    /// that gives streams their open-row locality.
    #[inline]
    fn map(&self, addr: Addr) -> (usize, usize, u64) {
        let line = addr.0 >> LINE_BITS;
        let chan = (line & self.chan_mask) as usize;
        let in_chan = (line >> self.chan_bits) >> self.col_bits;
        let bank = (in_chan & self.bank_mask) as usize;
        let row = in_chan >> self.bank_bits;
        (chan, bank, row)
    }

    /// Services one request arriving at `now`; returns its total latency.
    fn request(&mut self, addr: Addr, now: u64, is_read: bool) -> u64 {
        self.clock = self.clock.max(now);
        let t = self.clock;
        let (c, b, row) = self.map(addr);
        let ch = &mut self.channels[c];

        // Retire completed requests, then admit (or stall on a full
        // queue until the oldest in-flight request completes).
        while ch.queue.front().is_some_and(|&done| done <= t) {
            ch.queue.pop_front();
        }
        self.stats.occupancy_sum += ch.queue.len() as u64;
        let admit = if ch.queue.len() >= self.cfg.queue_depth as usize {
            let slot_free = ch.queue.pop_front().expect("nonempty full queue");
            self.stats.queue_stalls += 1;
            self.stats.stalled_cycles += slot_free - t;
            if self.stall_episodes.len() < MAX_STALL_EPISODES {
                self.stall_episodes.push((t, slot_free));
            }
            slot_free
        } else {
            t
        };

        // Bank access under the open-row policy.
        let bank = &mut ch.banks[b];
        let service = if bank.open_row == row {
            self.stats.row_hits += 1;
            self.cfg.t_row_hit
        } else {
            self.stats.row_conflicts += 1;
            bank.open_row = row;
            self.cfg.t_row_conflict
        };
        let bank_done = admit.max(bank.busy_until) + service;
        bank.busy_until = bank_done;

        // Data-bus transfer: one line per `channel_cycles`, serialized.
        let done = bank_done.max(ch.bus_free) + self.cfg.channel_cycles;
        ch.bus_free = done;
        ch.queue.push_back(done);

        let latency = done - t;
        if is_read {
            self.stats.reads += 1;
            self.hist.record(latency);
        } else {
            self.stats.writebacks += 1;
        }
        latency
    }
}

impl MemoryBackend for BankedDram {
    #[inline]
    fn fetch(&mut self, addr: Addr, now: u64) -> Option<u64> {
        Some(self.request(addr, now, true))
    }

    #[inline]
    fn writeback(&mut self, addr: Addr, now: u64) {
        self.request(addr, now, false);
    }

    fn needs_clock(&self) -> bool {
        true
    }

    fn dram_stats(&self) -> Option<&DramStats> {
        Some(&self.stats)
    }

    fn queue_hist(&self) -> Option<&Histogram> {
        Some(&self.hist)
    }

    fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        self.hist = Histogram::new();
        self.stall_episodes.clear();
    }

    fn take_stall_episodes(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.stall_episodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> BankedDram {
        BankedDram::new(DramConfig::default())
    }

    /// Line `i` of a pure stream: walks channels, columns, then banks.
    fn line(i: u64) -> Addr {
        Addr(i << LINE_BITS)
    }

    #[test]
    fn idle_requests_pay_conflict_then_hits_within_a_row() {
        let mut d = dram();
        let cfg = DramConfig::default();
        // First touch of a bank: closed row, conflict timing.
        let first = d.fetch(line(0), 0).unwrap();
        assert_eq!(first, cfg.t_row_conflict + cfg.channel_cycles);
        // Same row, much later (bank idle again): open-row hit.
        let hit = d.fetch(line(0), 100_000).unwrap();
        assert_eq!(hit, cfg.t_row_hit + cfg.channel_cycles);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn far_apart_rows_conflict_every_time() {
        let mut d = dram();
        let cfg = DramConfig::default();
        // Same bank, alternating rows: every access precharges.
        let row_stride = (cfg.channels * cfg.row_lines * cfg.banks) as u64;
        let mut t = 0;
        for i in 0..10 {
            d.fetch(line((i % 2) * row_stride), t).unwrap();
            t += 10_000;
        }
        assert_eq!(d.stats().row_conflicts, 10);
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn back_to_back_bursts_queue_behind_the_bus() {
        let mut d = dram();
        let cfg = DramConfig::default();
        // A burst of same-cycle requests to one channel: each waits for
        // every predecessor's transfer, so latency grows linearly.
        let lat: Vec<u64> = (0..6)
            .map(|i| {
                d.fetch(line(i * (cfg.channels as u64) * cfg.row_lines as u64), 0)
                    .unwrap()
            })
            .collect();
        for w in lat.windows(2) {
            assert!(w[1] > w[0], "queued requests must wait longer: {lat:?}");
        }
    }

    #[test]
    fn full_queue_backpressures_and_counts_stall_cycles() {
        let mut d = BankedDram::new(DramConfig {
            queue_depth: 2,
            ..DramConfig::default()
        });
        for i in 0..8 {
            d.fetch(line(i * 64), 0);
        }
        let s = *d.stats();
        assert!(s.queue_stalls > 0, "a 2-deep queue must refuse a burst");
        assert!(s.stalled_cycles > 0);
        assert!(s.mean_occupancy() > 0.0);
    }

    #[test]
    fn stall_episodes_record_the_backpressure_intervals() {
        let mut d = BankedDram::new(DramConfig {
            queue_depth: 2,
            ..DramConfig::default()
        });
        for i in 0..8 {
            d.fetch(line(i * 64), 0);
        }
        let stalls = d.stats().queue_stalls;
        let episodes = d.take_stall_episodes();
        assert_eq!(episodes.len() as u64, stalls);
        // Each episode spans the counted wait and drains exactly once.
        let total: u64 = episodes.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, d.stats().stalled_cycles);
        assert!(episodes.iter().all(|(s, e)| e > s));
        assert!(d.take_stall_episodes().is_empty());
    }

    #[test]
    fn writebacks_consume_bandwidth_but_record_no_latency() {
        let mut d = dram();
        d.writeback(line(0), 0);
        let read = d.fetch(line(0), 0).unwrap();
        assert_eq!(d.stats().writebacks, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.hist().count(), 1, "only reads enter the histogram");
        // The writeback occupied the bus first, delaying the read past
        // its unloaded hit time.
        let cfg = DramConfig::default();
        assert!(read > cfg.t_row_hit + cfg.channel_cycles);
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut d = dram();
        d.fetch(line(0), 1_000_000);
        // An older processor clock arrives late: serviced at the DRAM's
        // present, exactly as if it had arrived at the current clock.
        let mut at_present = d.clone();
        let late = d.fetch(line(0), 10).unwrap();
        let now = at_present.fetch(line(0), 1_000_000).unwrap();
        assert_eq!(late, now);
    }

    #[test]
    fn identical_streams_cost_identically() {
        let mut a = dram();
        let mut b = dram();
        let mut t = 0;
        for i in 0..1_000u64 {
            let addr = line((i * 37) % 4096);
            assert_eq!(a.fetch(addr, t), b.fetch(addr, t));
            t += 17;
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.hist().sum(), b.hist().sum());
    }

    #[test]
    fn reset_keeps_timing_state_but_clears_counters() {
        let mut d = dram();
        d.fetch(line(0), 0);
        d.reset_stats();
        assert_eq!(d.stats().requests(), 0);
        assert!(d.hist().is_empty());
        // The open row survived the reset: the next touch is a hit.
        d.fetch(line(0), 100_000);
        assert_eq!(d.stats().row_hits, 1);
    }
}
