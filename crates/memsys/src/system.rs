//! The coherent multiprocessor memory system.
//!
//! Models the paper's hardware: per-processor split L1 I/D caches backed by
//! unified L2 caches kept coherent with a MOESI write-invalidate snooping
//! protocol over a shared bus. L1 data caches are write-through and
//! no-write-allocate (as on the UltraSPARC II), so coherence state lives
//! entirely in the L2s; L1s hold clean copies and are kept inclusive by
//! invalidation on L2 eviction and remote ownership requests.
//!
//! The same type models the Figure 16 chip-multiprocessor topologies by
//! letting several processors share each L2 ([`HierarchyConfig::cpus_per_l2`]).
//!
//! ## Hot path
//!
//! [`MemorySystem::access`] is the simulator's throughput ceiling, so it is
//! built around three structural optimizations that change no statistic:
//!
//! - **Single-lookup accesses.** Each address is decomposed into its
//!   `(set, tag)` key once per cache level ([`Cache::locate`]) and the key
//!   is threaded through every protocol step, so multi-step actions (touch
//!   then upgrade, miss then fill) never walk a set twice. Because every
//!   L2 shares one geometry, the *same* key drives all snoop probes.
//! - **Snoops answered from the tags.** Every L2 group's tags live in one
//!   set-major [`Cache`] (one partition per group), so a line's set across
//!   all groups is one contiguous row. A bus transaction scans that row
//!   once for the slots holding the line valid outside the requester's
//!   group, and downgrades or invalidates those slots directly, as a
//!   duplicate-tag snoop filter would; no holder's set is walked again
//!   ([`Cache::holders`] folds the same scan into a group bitset). Broadcast
//!   probes of non-holders are no-ops, so filtering is bit-identical to
//!   broadcast MOESI; [`BusStats::snoops_sent`] and
//!   [`BusStats::snoops_filtered`] record its effectiveness, and
//!   [`MemorySystem::new_broadcast`] builds the unfiltered reference
//!   implementation the differential oracle checks against. Per-line L1
//!   presence masks play the same role one level up: inclusion
//!   invalidations skip processors that never held the line.
//! - **One path per access kind.** `access` is inlined into its callers,
//!   so one that passes a constant kind (the kernel's sinks implement
//!   `load`, `store` and `ifetch` separately) resolves every
//!   kind branch here and in [`SystemStats`] at compile time. A per-CPU
//!   table maps each processor to its L2 group and presence bit, so no
//!   reference divides by `cpus_per_l2`.

use probes::Histogram;

use crate::addr::Addr;
use crate::backend::{Backend, DramStats, MemoryBackend};
use crate::bus::BusStats;
use crate::cache::Cache;
use crate::config::{ConfigError, HierarchyConfig};
use crate::latency::LatencyTable;
use crate::protocol::{BusOp, LineState};
use crate::stats::{AccessKind, AccessOutcome, HitLevel, SystemStats};

/// A full multiprocessor cache hierarchy with snooping coherence.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: HierarchyConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    /// Every L2 group's tags, one partition per group.
    l2: Cache,
    /// Each processor's L2 group and its bit in that group's presence
    /// masks, so the hot path never divides by `cpus_per_l2`.
    cpu_groups: Box<[(usize, u64)]>,
    /// Whether bus transactions probe only the holders one row scan
    /// finds (`Cache::holder_slots`); off on broadcast systems, trivial
    /// topologies (a single L2 group has nobody to snoop) and past
    /// [`Cache::MAX_HOLDER_PARTS`] groups.
    filtered: bool,
    stats: SystemStats,
    bus: BusStats,
    /// Access-latency histogram (costs supplied by the caller); `None`
    /// until [`MemorySystem::enable_latency_hist`].
    lat_hist: Option<(LatencyTable, Histogram)>,
    /// The main-memory timing model consulted on every memory fill.
    backend: Backend,
    /// The requesting side's current cycle, fed by [`Self::set_now`] when
    /// the backend's timing depends on it ([`Self::needs_clock`]).
    now: u64,
}

impl MemorySystem {
    /// Builds an empty memory system from a validated configuration, with
    /// the snoop filter and L1 presence tracking enabled where the
    /// topology permits.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemorySystem::build(cfg, /* filtered: */ true)
    }

    /// Builds the broadcast reference implementation: every bus
    /// transaction probes every remote L2, and inclusion invalidations
    /// visit every processor of a group — the pre-filter behavior, kept as
    /// the differential oracle for the snoop filter's exactness claim.
    pub fn new_broadcast(cfg: HierarchyConfig) -> Self {
        MemorySystem::build(cfg, false)
    }

    /// The same system as [`MemorySystem::new`]. Kept only because the
    /// host-time benchmark (`hostbench/src/layers.rs`) still calls it.
    pub fn new_unfiltered(cfg: HierarchyConfig) -> Self {
        MemorySystem::new(cfg)
    }

    fn build(cfg: HierarchyConfig, filtered: bool) -> Self {
        let l2_count = cfg.l2_count();
        // Presence masks index CPUs within a group by bit; holder masks
        // index groups by bit. Either falls back to exhaustive loops
        // (broadcast) where it cannot help — presence for private L2s
        // (the loop is one cpu) or more sharers than a u64 tracks —
        // without affecting results.
        let track_presence = filtered && cfg.cpus_per_l2 > 1 && cfg.cpus_per_l2 <= 64;
        let l2 = Cache::partitioned(cfg.l2, l2_count);
        MemorySystem {
            cfg,
            l1i: (0..cfg.cpus).map(|_| Cache::new(cfg.l1i)).collect(),
            l1d: (0..cfg.cpus).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: if track_presence {
                l2.with_presence()
            } else {
                l2
            },
            cpu_groups: (0..cfg.cpus)
                .map(|cpu| {
                    // Presence is tracked for groups of 64 at most;
                    // wider groups get no bit.
                    let group = cfg.l2_group(cpu);
                    let lane = (cpu - group * cfg.cpus_per_l2) as u32;
                    (group, 1u64.checked_shl(lane).unwrap_or(0))
                })
                .collect(),
            filtered: filtered && l2_count > 1 && l2_count <= Cache::MAX_HOLDER_PARTS,
            stats: SystemStats::new(cfg.cpus),
            bus: BusStats::new(),
            lat_hist: None,
            backend: Backend::from_config(&cfg.memory),
            now: 0,
        }
    }

    /// Convenience constructor: an E6000-like system with `cpus` processors.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cpus` is zero.
    pub fn e6000(cpus: usize) -> Result<Self, ConfigError> {
        Ok(MemorySystem::new(HierarchyConfig::e6000(cpus)?))
    }

    /// The system's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Whether the snoop filter is active.
    pub fn snoop_filter_enabled(&self) -> bool {
        self.filtered
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Bus transaction statistics.
    pub fn bus_stats(&self) -> &BusStats {
        &self.bus
    }

    /// Enables access-latency histogramming: every reference records its
    /// [`LatencyTable::cost_of`] into a log2-bucketed histogram. Costs one
    /// array increment per reference.
    pub fn enable_latency_hist(&mut self, costs: LatencyTable) {
        self.lat_hist = Some((costs, Histogram::new()));
    }

    /// The access-latency histogram, if enabled.
    pub fn latency_hist(&self) -> Option<&Histogram> {
        self.lat_hist.as_ref().map(|(_, h)| h)
    }

    /// Whether the memory backend's timing depends on request arrival
    /// times. When `true`, drive [`Self::set_now`] with the requesting
    /// processor's cycle before each [`Self::access`]; when `false`
    /// (flat backends) the clock plumbing can be skipped entirely.
    pub fn needs_clock(&self) -> bool {
        self.backend.needs_clock()
    }

    /// Advances the memory backend's notion of the requester-side clock.
    /// Non-monotonic values are fine (interleaved processor clocks):
    /// backends only ever move forward.
    #[inline]
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// The DRAM backend's event counters, if that backend is configured.
    pub fn dram_stats(&self) -> Option<&DramStats> {
        self.backend.dram_stats()
    }

    /// The DRAM backend's per-fill latency histogram, if kept.
    pub fn dram_queue_hist(&self) -> Option<&Histogram> {
        self.backend.queue_hist()
    }

    /// Drains the memory backend's buffered queue-stall episodes
    /// `(start, end)` for the run-observatory timeline. Empty for
    /// backends without a request queue.
    pub fn take_dram_stall_episodes(&mut self) -> Vec<(u64, u64)> {
        self.backend.take_stall_episodes()
    }

    /// Resets all statistics (caches keep their contents — use this to end
    /// a warm-up phase and start a measurement window).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.bus = BusStats::new();
        if let Some((_, h)) = &mut self.lat_hist {
            *h = Histogram::new();
        }
        self.backend.reset_stats();
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.cfg.cpus
    }

    /// Performs one memory reference by processor `cpu` and returns its
    /// outcome. This is the simulator's hot path: it is inlined into
    /// each caller, so a caller that passes a constant `kind` gets a
    /// path for that kind alone.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range or `addr` is not below 2^32 (the
    /// simulated address space, whose tags fit a cache way word).
    #[inline(always)]
    pub fn access(&mut self, cpu: usize, kind: AccessKind, addr: Addr) -> AccessOutcome {
        let Some(&(group, bit)) = self.cpu_groups.get(cpu) else {
            panic!("cpu {cpu} out of range");
        };
        assert!(addr.0 >> 32 == 0, "address {:#x} out of range", addr.0);
        let outcome = match kind {
            AccessKind::Ifetch => self.access_through(cpu, group, bit, addr, false, true),
            AccessKind::Load => self.access_through(cpu, group, bit, addr, false, false),
            AccessKind::Store => self.access_through(cpu, group, bit, addr, true, false),
        };
        self.stats.record(cpu, kind, &outcome);
        if let Some((costs, h)) = &mut self.lat_hist {
            h.record(costs.cost_of(&outcome));
        }
        outcome
    }

    /// One reference by `cpu` of L2 `group`, whose presence bit is
    /// `bit`.
    #[inline(always)]
    fn access_through(
        &mut self,
        cpu: usize,
        group: usize,
        bit: u64,
        addr: Addr,
        store: bool,
        ifetch: bool,
    ) -> AccessOutcome {
        let (set, tag) = self.l2.locate(addr);
        let row = self.l2.row(set, group);

        if !store {
            let l1 = if ifetch {
                &mut self.l1i[cpu]
            } else {
                &mut self.l1d[cpu]
            };
            let (l1_set, l1_tag) = l1.locate(addr);
            if l1.touch_at(l1_set, l1_tag).is_some() {
                return AccessOutcome::hit(HitLevel::L1);
            }
            let outcome = self.read_l2(group, addr, set, tag);
            // The line is now MRU in the group's L2 (hit-promoted or just
            // filled). Fill the L1 — the touch above proved it absent, so
            // insert directly, no probe — and mark this cpu present.
            let l1 = if ifetch {
                &mut self.l1i[cpu]
            } else {
                &mut self.l1d[cpu]
            };
            let _ = l1.insert_at(l1_set, l1_tag, LineState::Shared);
            self.l2.or_presence_mru(row, tag, bit);
            return outcome;
        }

        // Stores: write-through L1 (update only if present, no allocate),
        // then act on the L2 line's coherence state. A touch hit leaves
        // the line MRU, so the E→M and S/O→M rewrites are O(1).
        let l1_hit = self.l1d[cpu].touch(addr).is_some();
        match self.l2.touch_at(row, tag) {
            Some(LineState::Modified) => {
                if l1_hit {
                    AccessOutcome::hit(HitLevel::L1)
                } else {
                    AccessOutcome::hit(HitLevel::L2)
                }
            }
            Some(LineState::Exclusive) => {
                // Silent E -> M upgrade, no bus traffic.
                self.l2.set_state_mru(row, tag, LineState::Modified);
                if l1_hit {
                    AccessOutcome::hit(HitLevel::L1)
                } else {
                    AccessOutcome::hit(HitLevel::L2)
                }
            }
            Some(LineState::Shared) | Some(LineState::Owned) => {
                // Bus upgrade: invalidate all other copies. Any data a
                // remote owner offers is already in the requester's copy.
                let _ = self.snoop_write(group, addr, set, tag);
                self.l2.set_state_mru(row, tag, LineState::Modified);
                self.bus.record(BusOp::Upgrade, false);
                AccessOutcome::hit(HitLevel::Upgrade)
            }
            Some(LineState::Invalid) | None => self.write_miss(group, addr, set, tag),
        }
    }

    fn read_l2(&mut self, group: usize, addr: Addr, set: usize, tag: u64) -> AccessOutcome {
        if self.l2.touch_at(self.l2.row(set, group), tag).is_some() {
            return AccessOutcome::hit(HitLevel::L2);
        }
        // L2 read miss: GetS on the bus.
        let (supplied, any_remote) = self.snoop_read(group, set, tag);
        self.bus.record(BusOp::GetS, supplied);
        let fill_state = if any_remote {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        let writeback = self.fill_l2(group, set, tag, fill_state);
        AccessOutcome {
            level: if supplied {
                HitLevel::CacheToCache
            } else {
                HitLevel::Memory
            },
            c2c: supplied,
            writeback,
            mem_cycles: if supplied {
                None
            } else {
                self.backend.fetch(addr, self.now)
            },
        }
    }

    fn write_miss(&mut self, group: usize, addr: Addr, set: usize, tag: u64) -> AccessOutcome {
        // GetX: take ownership, invalidating every other copy. A dirty
        // remote owner supplies the data (snoop copyback). No-write-allocate
        // L1: the store completes in the L2 (a stale L1 copy was already
        // updated via the write-through touch).
        let supplied = self.snoop_write(group, addr, set, tag);
        self.bus.record(BusOp::GetX, supplied);
        let writeback = self.fill_l2(group, set, tag, LineState::Modified);
        AccessOutcome {
            level: if supplied {
                HitLevel::CacheToCache
            } else {
                HitLevel::Memory
            },
            c2c: supplied,
            writeback,
            mem_cycles: if supplied {
                None
            } else {
                self.backend.fetch(addr, self.now)
            },
        }
    }

    /// Calls `act(self, group, slot)` for each remote L2 group holding
    /// `(set, tag)` valid, in ascending group order, and records the
    /// probes sent and filtered. Filtered systems act on the slots one
    /// row scan found; broadcast ones walk every remote group's set.
    #[inline(always)]
    fn for_each_remote_copy(
        &mut self,
        requester: usize,
        set: usize,
        tag: u64,
        mut act: impl FnMut(&mut Self, usize, usize),
    ) {
        let groups = self.l2.parts();
        let remote = (groups - 1) as u64;
        if !self.filtered {
            self.bus.record_snoops(remote, 0);
            for g in (0..groups).filter(|&g| g != requester) {
                if let Some(slot) = self.l2.find(self.l2.row(set, g), tag) {
                    act(self, g, slot);
                }
            }
            return;
        }
        let mut scan = self.l2.holder_slots(set, tag, Some(requester));
        let mut sent = 0;
        while let Some((g, slot)) = scan.next(&self.l2) {
            sent += 1;
            act(self, g, slot);
        }
        self.bus.record_snoops(sent, remote - sent);
    }

    /// Snoops a read: downgrade remote holders, report whether a dirty
    /// remote cache supplied the data and whether any remote copy exists.
    fn snoop_read(&mut self, requester: usize, set: usize, tag: u64) -> (bool, bool) {
        let (mut supplied, mut any) = (false, false);
        self.for_each_remote_copy(requester, set, tag, |sys, _, slot| {
            let state = sys.l2.update_slot(slot, LineState::after_remote_read);
            any = true;
            supplied |= state.supplies_data();
        });
        (supplied, any)
    }

    /// Snoops a write (miss or upgrade): invalidate all remote copies (L2
    /// and the inclusive L1s above them); returns whether a dirty remote
    /// owner supplied data.
    fn snoop_write(&mut self, requester: usize, addr: Addr, set: usize, tag: u64) -> bool {
        let mut supplied = false;
        self.for_each_remote_copy(requester, set, tag, |sys, g, slot| {
            let (state, presence) = sys.l2.invalidate_slot(slot);
            supplied |= state.supplies_data();
            sys.invalidate_l1s_of_group(g, addr, presence);
        });
        supplied
    }

    /// Invalidates `addr` in the L1s of one group's processors, guided by
    /// the L2 line's presence mask: only CPUs whose bit is set are
    /// visited (`u64::MAX` — tracking disabled — visits all of them, the
    /// broadcast behavior). The mask may over-approximate (bits survive
    /// silent L1 evictions); it never under-approximates, which is what
    /// inclusion needs.
    fn invalidate_l1s_of_group(&mut self, group: usize, addr: Addr, mask: u64) {
        if mask == 0 {
            return;
        }
        let per = self.cfg.cpus_per_l2;
        let first = group * per;
        let (si, ti) = self.l1i[first].locate(addr);
        let (sd, td) = self.l1d[first].locate(addr);
        if mask == u64::MAX {
            for cpu in first..first + per {
                let _ = self.l1i[cpu].invalidate_at(si, ti);
                let _ = self.l1d[cpu].invalidate_at(sd, td);
            }
        } else {
            debug_assert_eq!(mask >> (per - 1) >> 1, 0, "presence bit beyond the group");
            let mut rest = mask;
            while rest != 0 {
                let cpu = first + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let _ = self.l1i[cpu].invalidate_at(si, ti);
                let _ = self.l1d[cpu].invalidate_at(sd, td);
            }
        }
    }

    /// Fills the group's L2, handling the victim: dirty victims write back
    /// to memory; all victims are invalidated in the group's L1s to keep
    /// inclusion. Returns whether a writeback occurred.
    fn fill_l2(&mut self, group: usize, set: usize, tag: u64, state: LineState) -> bool {
        let row = self.l2.row(set, group);
        let Some(victim) = self.l2.insert_at(row, tag, state) else {
            return false;
        };
        self.invalidate_l1s_of_group(group, victim.line.base(), victim.presence);
        if !victim.state.is_dirty() {
            return false;
        }
        self.bus.record_writeback();
        self.backend.writeback(victim.line.base(), self.now);
        true
    }

    /// The coherence state of `addr` in every L2, by group — diagnostics
    /// and invariant checking (e.g. the single-writer property).
    pub fn l2_states(&self, addr: Addr) -> Vec<LineState> {
        let (set, tag) = self.l2.locate(addr);
        (0..self.l2.parts())
            .map(|g| {
                self.l2
                    .probe_at(self.l2.row(set, g), tag)
                    .unwrap_or(LineState::Invalid)
            })
            .collect()
    }

    /// Whether `addr` is valid in the given processor's L1s (I or D).
    pub fn l1_holds(&self, cpu: usize, addr: Addr) -> bool {
        self.l1i[cpu].probe(addr).is_some() || self.l1d[cpu].probe(addr).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn sys(cpus: usize) -> MemorySystem {
        MemorySystem::e6000(cpus).unwrap()
    }

    #[test]
    fn cold_read_misses_to_memory_then_hits_l1() {
        let mut m = sys(2);
        let o = m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::Memory);
        assert!(!o.c2c);
        let o = m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::L1);
    }

    #[test]
    fn second_cpu_read_of_clean_line_comes_from_memory() {
        // First reader holds E (clean): no snoop copyback, memory supplies.
        let mut m = sys(2);
        m.access(0, AccessKind::Load, Addr(0x1000));
        let o = m.access(1, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::Memory);
        assert!(!o.c2c);
    }

    #[test]
    fn read_of_remotely_dirty_line_is_cache_to_cache() {
        let mut m = sys(2);
        m.access(0, AccessKind::Store, Addr(0x1000)); // cpu0: M
        let o = m.access(1, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::CacheToCache);
        assert!(o.c2c);
        assert_eq!(m.bus_stats().snoop_copybacks, 1);
        // The remote read downgraded the owner M -> O, so its next store
        // needs a bus upgrade even though its L1 still holds the line.
        let o = m.access(0, AccessKind::Store, Addr(0x1000));
        assert_eq!(o.level, HitLevel::Upgrade);
    }

    #[test]
    fn write_to_shared_line_is_upgrade_and_invalidates_reader() {
        let mut m = sys(2);
        m.access(0, AccessKind::Load, Addr(0x40)); // cpu0: E
        m.access(1, AccessKind::Load, Addr(0x40)); // both S
        let o = m.access(0, AccessKind::Store, Addr(0x40));
        assert_eq!(o.level, HitLevel::Upgrade);
        assert_eq!(m.bus_stats().upgrades, 1);
        // cpu1 must now miss (its copy was invalidated) and receive the
        // dirty data cache-to-cache.
        let o = m.access(1, AccessKind::Load, Addr(0x40));
        assert!(o.c2c, "invalidated reader re-fetches from dirty owner");
    }

    #[test]
    fn silent_e_to_m_upgrade_costs_no_bus_transaction() {
        let mut m = sys(2);
        m.access(0, AccessKind::Load, Addr(0x40)); // E
        let before = *m.bus_stats();
        let o = m.access(0, AccessKind::Store, Addr(0x40));
        assert_ne!(o.level, HitLevel::Upgrade);
        assert_eq!(*m.bus_stats(), before);
    }

    #[test]
    fn write_miss_of_remote_dirty_line_transfers_and_invalidates() {
        let mut m = sys(2);
        m.access(0, AccessKind::Store, Addr(0x80)); // cpu0: M
        let o = m.access(1, AccessKind::Store, Addr(0x80)); // GetX
        assert_eq!(o.level, HitLevel::CacheToCache);
        // cpu0's copy is gone: reading it back must go c2c from cpu1.
        let o = m.access(0, AccessKind::Load, Addr(0x80));
        assert!(o.c2c);
    }

    #[test]
    fn ping_pong_write_sharing_counts_c2c_per_bounce() {
        let mut m = sys(2);
        m.access(0, AccessKind::Store, Addr(0xc0));
        for i in 0..10 {
            let cpu = 1 - (i % 2);
            let o = m.access(cpu, AccessKind::Store, Addr(0xc0));
            assert!(o.c2c, "bounce {i} should be a cache-to-cache transfer");
        }
        assert_eq!(m.stats().total_c2c(), 10);
    }

    #[test]
    fn shared_l2_eliminates_coherence_traffic_within_group() {
        let mut b = HierarchyConfig::builder(2);
        let cfg = b.cpus_per_l2(2).build().unwrap();
        let mut m = MemorySystem::new(cfg);
        m.access(0, AccessKind::Store, Addr(0x100));
        let o = m.access(1, AccessKind::Load, Addr(0x100));
        assert_eq!(o.level, HitLevel::L2, "same-L2 neighbor hits shared cache");
        assert_eq!(m.stats().total_c2c(), 0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        // Tiny L2 to force evictions quickly.
        let mut b = HierarchyConfig::builder(1);
        b.l2(CacheConfig::new(512, 2, 64).unwrap());
        b.l1i(CacheConfig::new(256, 2, 64).unwrap());
        b.l1d(CacheConfig::new(256, 2, 64).unwrap());
        let mut m = MemorySystem::new(b.build().unwrap());
        // Dirty a line, then stream conflicting lines through its set.
        m.access(0, AccessKind::Store, Addr(0));
        let sets = 512 / (2 * 64);
        let stride = (sets * 64) as u64;
        for i in 1..=3u64 {
            m.access(0, AccessKind::Load, Addr(i * stride));
        }
        assert!(
            m.bus_stats().writebacks >= 1,
            "dirty victim must write back"
        );
    }

    #[test]
    fn l1_inclusion_after_l2_eviction() {
        let mut b = HierarchyConfig::builder(1);
        b.l2(CacheConfig::new(512, 2, 64).unwrap());
        b.l1i(CacheConfig::new(256, 2, 64).unwrap());
        b.l1d(CacheConfig::new(256, 2, 64).unwrap());
        let mut m = MemorySystem::new(b.build().unwrap());
        m.access(0, AccessKind::Load, Addr(0));
        let sets = 512 / (2 * 64);
        let stride = (sets * 64) as u64;
        // Evict line 0 from L2 via conflicting fills.
        for i in 1..=2u64 {
            m.access(0, AccessKind::Load, Addr(i * stride));
        }
        // The L1 copy must have been invalidated with it: this access
        // cannot be an L1 hit.
        let o = m.access(0, AccessKind::Load, Addr(0));
        assert_ne!(o.level, HitLevel::L1, "inclusion violated");
    }

    #[test]
    fn latency_hist_records_caller_supplied_costs() {
        let costs = LatencyTable {
            l1_hit: 1,
            l2_hit: 10,
            upgrade: 20,
            memory: 75,
            cache_to_cache: 105,
        };
        let mut m = sys(2);
        m.enable_latency_hist(costs);
        m.access(0, AccessKind::Store, Addr(0x1000)); // memory (GetX miss)
        m.access(1, AccessKind::Load, Addr(0x1000)); // c2c
        m.access(1, AccessKind::Load, Addr(0x1000)); // L1 hit
        let h = m.latency_hist().unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 75 + 105 + 1);
        assert!(h.p99() >= 105, "slowest access dominates the tail");
        // A stats reset clears the histogram but keeps it enabled.
        m.reset_stats();
        let h = m.latency_hist().unwrap();
        assert!(h.is_empty());
        m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(m.latency_hist().unwrap().count(), 1);
    }

    #[test]
    fn reset_stats_keeps_cache_contents() {
        let mut m = sys(1);
        m.access(0, AccessKind::Load, Addr(0x40));
        m.reset_stats();
        assert_eq!(m.stats().total_accesses(), 0);
        let o = m.access(0, AccessKind::Load, Addr(0x40));
        assert_eq!(o.level, HitLevel::L1, "warm cache survives stats reset");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cpu_panics() {
        let mut m = sys(1);
        m.access(1, AccessKind::Load, Addr(0));
    }

    #[test]
    #[should_panic(expected = "address 0x100000000 out of range")]
    fn address_past_32_bits_panics() {
        let mut m = sys(1);
        m.access(0, AccessKind::Load, Addr(1 << 32));
    }

    #[test]
    fn filter_skips_uncontended_misses() {
        let mut m = sys(16);
        assert!(m.snoop_filter_enabled());
        // Nobody holds this line: the GetS probes zero remote L2s and the
        // filter absorbs all 15 would-be snoops.
        m.access(0, AccessKind::Load, Addr(0x4000));
        assert_eq!(m.bus_stats().snoops_sent, 0);
        assert_eq!(m.bus_stats().snoops_filtered, 15);
        // One actual sharer: exactly one probe goes out.
        m.access(1, AccessKind::Load, Addr(0x4000));
        assert_eq!(m.bus_stats().snoops_sent, 1);
        assert_eq!(m.bus_stats().snoops_filtered, 29);
        assert!(m.bus_stats().snoop_filter_rate() > 0.9);
    }

    #[test]
    fn broadcast_system_filters_nothing() {
        let mut m = MemorySystem::new_broadcast(HierarchyConfig::e6000(4).unwrap());
        assert!(!m.snoop_filter_enabled());
        m.access(0, AccessKind::Load, Addr(0x4000));
        m.access(1, AccessKind::Store, Addr(0x4000));
        assert_eq!(m.bus_stats().snoops_filtered, 0);
        assert_eq!(m.bus_stats().snoops_sent, 6);
    }

    #[test]
    fn snoops_reach_exactly_the_holders_through_upgrades_and_evictions() {
        let mut b = HierarchyConfig::builder(4);
        b.l2(CacheConfig::new(512, 2, 64).unwrap());
        b.l1i(CacheConfig::new(256, 2, 64).unwrap());
        b.l1d(CacheConfig::new(256, 2, 64).unwrap());
        let mut m = MemorySystem::new(b.build().unwrap());
        // The k-th reader of a line probes the k earlier holders.
        for cpu in 0..4 {
            m.access(cpu, AccessKind::Load, Addr(0x40));
        }
        assert_eq!(m.bus_stats().snoops_sent, 1 + 2 + 3);
        // The upgrade probes the three other holders and leaves cpu 2 alone.
        m.access(2, AccessKind::Store, Addr(0x40));
        assert_eq!(m.bus_stats().snoops_sent, 6 + 3);
        // Churning cpu 0's set touches lines nobody else holds.
        for i in 1..=6u64 {
            m.access(0, AccessKind::Load, Addr(0x40 + i * 256));
        }
        assert_eq!(m.bus_stats().snoops_sent, 9);
        // Only the dirty owner answers cpu 1's re-read, and supplies it.
        let o = m.access(1, AccessKind::Load, Addr(0x40));
        assert!(o.c2c);
        assert_eq!(m.bus_stats().snoops_sent, 10);
    }

    #[test]
    fn flat_backend_defers_memory_cost() {
        let mut m = sys(1);
        assert!(!m.needs_clock());
        let o = m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::Memory);
        assert_eq!(o.mem_cycles, None, "default backend defers to the table");
        assert!(m.dram_stats().is_none());
    }

    #[test]
    fn fixed_backend_stamps_memory_fills_only() {
        use crate::config::MemoryConfig;
        let mut b = HierarchyConfig::builder(2);
        b.memory(MemoryConfig::FlatFixed(75));
        let mut m = MemorySystem::new(b.build().unwrap());
        let o = m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.mem_cycles, Some(75));
        let o = m.access(0, AccessKind::Load, Addr(0x1000)); // L1 hit
        assert_eq!(o.mem_cycles, None);
        m.access(0, AccessKind::Store, Addr(0x2000)); // dirty it
        let o = m.access(1, AccessKind::Load, Addr(0x2000)); // c2c
        assert_eq!(o.level, HitLevel::CacheToCache);
        assert_eq!(o.mem_cycles, None, "cache-supplied data skips memory");
    }

    #[test]
    fn dram_backend_stamps_load_dependent_costs_and_counts() {
        use crate::config::{DramConfig, MemoryConfig};
        let mut b = HierarchyConfig::builder(1);
        b.memory(MemoryConfig::BankedDram(DramConfig));
        let mut m = MemorySystem::new(b.build().unwrap());
        assert!(m.needs_clock());
        let mut now = 0;
        for i in 0..64u64 {
            m.set_now(now);
            let o = m.access(0, AccessKind::Load, Addr(0x10_0000 + i * 64));
            assert_eq!(o.level, HitLevel::Memory);
            assert!(o.mem_cycles.is_some(), "DRAM stamps every memory fill");
            now += 200;
        }
        let d = m.dram_stats().unwrap();
        assert_eq!(d.reads, 64);
        assert!(d.row_hits > 0, "sequential lines share rows");
        assert_eq!(m.dram_queue_hist().unwrap().count(), 64);
        // reset_stats clears the DRAM panel with everything else.
        m.reset_stats();
        assert_eq!(m.dram_stats().unwrap().reads, 0);
        assert!(m.dram_queue_hist().unwrap().is_empty());
    }

    #[test]
    fn presence_mask_limits_inclusion_invalidations() {
        // Shared L2 among 4 cpus: only cpu 3 reads the line, so only its
        // L1 may hold it; a remote write must still invalidate it.
        let mut b = HierarchyConfig::builder(8);
        b.cpus_per_l2(4);
        let mut m = MemorySystem::new(b.build().unwrap());
        m.access(3, AccessKind::Load, Addr(0x2000));
        assert!(m.l1_holds(3, Addr(0x2000)));
        m.access(4, AccessKind::Store, Addr(0x2000)); // remote group GetX
        assert!(!m.l1_holds(3, Addr(0x2000)), "inclusion invalidation lost");
    }
}
