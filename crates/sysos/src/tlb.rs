//! TLB and page-size model (Intimate Shared Memory).
//!
//! Section 3.2 / Section 6: the authors enable Solaris's Intimate Shared
//! Memory, raising the page size from 8 KB to 4 MB so the TLB can cover
//! the application server's large heap; they report that ISM improved
//! ECperf performance by more than 10%. This module models the UltraSPARC
//! II's software-filled, fully associative data TLB so that the ISM
//! ablation can be reproduced: the same reference stream run with 8 KB
//! pages thrashes the TLB, with 4 MB pages it does not.

use memsys::Addr;

/// Entries in the UltraSPARC II dTLB.
const ENTRIES: usize = 64;
/// Cycles per software TLB-miss trap. A dTLB miss traps to the software
/// handler; on a TSB miss the handler walks the hash chain, and those PTE
/// loads themselves miss the caches — several hundred cycles on an
/// UltraSPARC II under a heap far larger than the caches.
const MISS_PENALTY: u64 = 700;

/// TLB parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Log2 of the page size: 13 for Solaris's 8 KB base pages, 22 for
    /// 4 MB ISM pages.
    pub page_bits: u32,
}

impl TlbConfig {
    /// 8 KB base pages (ISM off).
    pub fn base_pages() -> Self {
        TlbConfig { page_bits: 13 }
    }

    /// 4 MB ISM pages (the paper's tuned configuration).
    pub fn ism_pages() -> Self {
        TlbConfig { page_bits: 22 }
    }
}

/// A fully associative, LRU translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Resident page numbers, MRU first.
    pages: Vec<u64>,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            cfg,
            pages: Vec::with_capacity(ENTRIES),
        }
    }

    /// Translates `addr`; returns the stall cycles (0 on a hit,
    /// `MISS_PENALTY` on a miss).
    pub fn access(&mut self, addr: Addr) -> u64 {
        let page = addr.0 >> self.cfg.page_bits;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            // Move to front (true LRU).
            self.pages[..=pos].rotate_right(1);
            0
        } else {
            if self.pages.len() == ENTRIES {
                self.pages.pop();
            }
            self.pages.insert(0, page);
            MISS_PENALTY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stall cycles of a second cyclic lap over `pages` pages of
    /// `1 << page_bits` bytes (the first lap fills the TLB).
    fn second_lap_stall(cfg: TlbConfig, pages: u64) -> u64 {
        let mut t = Tlb::new(cfg);
        let lap = |t: &mut Tlb| (0..pages).map(|i| t.access(Addr(i << cfg.page_bits))).sum();
        let _: u64 = lap(&mut t);
        lap(&mut t)
    }

    #[test]
    fn ism_reach_covers_the_heap() {
        // 64 entries reach 512 KB with 8 KB pages and 256 MB with 4 MB
        // pages: a lap over exactly that many pages hits throughout, one
        // page more thrashes the LRU.
        for cfg in [TlbConfig::base_pages(), TlbConfig::ism_pages()] {
            assert_eq!(second_lap_stall(cfg, 64), 0);
            assert_eq!(second_lap_stall(cfg, 65), 65 * MISS_PENALTY);
        }
        assert_eq!(64u64 << TlbConfig::ism_pages().page_bits, 256 << 20);
    }

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(TlbConfig::base_pages());
        assert_eq!(t.access(Addr(0x1000)), MISS_PENALTY);
        assert_eq!(t.access(Addr(0x1fff)), 0, "same page");
    }

    #[test]
    fn lru_eviction_on_overflow() {
        let mut t = Tlb::new(TlbConfig::base_pages());
        let page = |i: u64| Addr(i << 13);
        for i in 0..ENTRIES as u64 {
            t.access(page(i));
        }
        t.access(page(0)); // page 0 now MRU, page 1 the LRU
        t.access(page(ENTRIES as u64)); // evicts page 1
        assert_eq!(t.access(page(0)), 0);
        assert_eq!(t.access(page(1)), MISS_PENALTY, "page 1 was the LRU victim");
    }

    #[test]
    fn big_pages_eliminate_thrashing_on_wide_strides() {
        // Touch 128 pages' worth of 8 KB-page addresses cyclically:
        // thrashes a 64-entry TLB with base pages, fits easily with ISM.
        // Misses are counted after a warm-up lap.
        let mut small = Tlb::new(TlbConfig::base_pages());
        let mut big = Tlb::new(TlbConfig::ism_pages());
        let (mut small_misses, mut big_misses) = (0, 0);
        for lap in 0..4 {
            for i in 0..128u64 {
                let a = Addr(i * (8 << 10));
                let (s, b) = (small.access(a), big.access(a));
                if lap > 0 {
                    small_misses += u64::from(s > 0);
                    big_misses += u64::from(b > 0);
                }
            }
        }
        assert!(
            small_misses > 3 * 128 * 9 / 10,
            "8 KB pages thrash: {small_misses} misses"
        );
        assert_eq!(big_misses, 0, "4 MB pages cover the whole range");
    }
}
