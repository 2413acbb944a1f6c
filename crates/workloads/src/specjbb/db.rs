//! SPECjbb's emulated database: per-warehouse object trees.
//!
//! SPECjbb models a TPC-C-like wholesale company whose data lives entirely
//! in memory as trees of Java objects (paper Section 2.1, Figure 2). Each
//! warehouse owns stock, customer, district, order and history structures;
//! the item catalog is global and read-only. Because the emulated
//! database *is* the Java heap, SPECjbb's data footprint grows linearly
//! with the warehouse count — the root cause of the Figure 11/13/16
//! differences against ECperf.

use std::collections::VecDeque;

use jvm::heap::Heap;
use jvm::object::ObjectId;
use memsys::MemSink;

use crate::objtree::{build_table, ObjTree};
use crate::zipf::ZipfSampler;

/// Sizing parameters for the emulated database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JbbDbConfig {
    /// Items in the global catalog.
    pub items: u64,
    /// Bytes per item record.
    pub item_bytes: u32,
    /// Stock records per warehouse (one per item in real SPECjbb).
    pub stock_per_wh: u64,
    /// Bytes per stock record.
    pub stock_bytes: u32,
    /// Customers per warehouse.
    pub customers_per_wh: u64,
    /// Bytes per customer record.
    pub customer_bytes: u32,
    /// Districts per warehouse.
    pub districts_per_wh: u64,
    /// Bytes per district record.
    pub district_bytes: u32,
    /// Bytes per order object (order + order lines).
    pub order_bytes: u32,
    /// History ring capacity per warehouse.
    pub history_capacity: usize,
    /// Bytes per history record.
    pub history_bytes: u32,
    /// Zipf exponent for item/stock popularity (low: TPC-C-style NURand
    /// spreads order lines over most of the catalog).
    pub item_skew: f64,
    /// Zipf exponent for customer popularity (higher: repeat customers).
    pub customer_skew: f64,
}

impl Default for JbbDbConfig {
    /// Full-size database: ~14 MB of live data per warehouse, matching the
    /// paper's Figure 11 slope of roughly 15 MB per warehouse.
    fn default() -> Self {
        JbbDbConfig {
            items: 20_000,
            item_bytes: 128,
            stock_per_wh: 20_000,
            stock_bytes: 448,
            customers_per_wh: 3_000,
            customer_bytes: 1536,
            districts_per_wh: 10,
            district_bytes: 256,
            order_bytes: 1024,
            history_capacity: 1_000,
            history_bytes: 128,
            item_skew: 0.3,
            customer_skew: 0.9,
        }
    }
}

impl JbbDbConfig {
    /// A down-scaled database for scaled-heap runs and tests; record
    /// *sizes* stay realistic, record *counts* shrink by `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub(crate) fn scaled(divisor: u64) -> Self {
        assert!(divisor > 0, "scale divisor must be positive");
        let d = JbbDbConfig::default();
        JbbDbConfig {
            items: (d.items / divisor).max(64),
            stock_per_wh: (d.stock_per_wh / divisor).max(64),
            customers_per_wh: (d.customers_per_wh / divisor).max(16),
            history_capacity: ((d.history_capacity as u64 / divisor).max(16)) as usize,
            ..d
        }
    }
}

/// One warehouse's data.
#[derive(Debug, Clone)]
pub struct Warehouse {
    /// Stock records keyed by item id.
    pub stock: ObjTree,
    /// Customer records keyed by customer id.
    pub customers: ObjTree,
    /// District records (10 in TPC-C nomenclature).
    pub districts: Vec<ObjectId>,
    /// In-flight orders keyed by order id.
    pub orders: ObjTree,
    /// Next order id to assign.
    pub next_order: u64,
    /// Oldest order id not yet delivered.
    pub oldest_undelivered: u64,
    /// History ring (oldest first).
    pub history: VecDeque<ObjectId>,
}

/// The whole emulated database.
#[derive(Debug, Clone)]
pub struct JbbDb {
    /// The global, read-only item catalog.
    pub items: ObjTree,
    /// Per-warehouse data.
    pub warehouses: Vec<Warehouse>,
    /// Popularity sampler over items.
    pub item_keys: ZipfSampler,
    /// Popularity sampler over customers.
    pub customer_keys: ZipfSampler,
    /// The shared company-wide statistics object (every transaction
    /// updates it — the hottest line in SPECjbb).
    pub company: ObjectId,
    /// JVM-internal shared structures (allocation-region metadata, class
    /// counters, monitor lists): a small pool of lines written by every
    /// thread — the paper suspects exactly this kind of contention
    /// "within the JVM" (Section 4.1).
    pub jvm_shared: ObjectId,
}

impl JbbDb {
    /// Builds the database for `warehouse_count` warehouses directly in
    /// the old generation. Construction emits no references (setup happens
    /// before the measurement window); `sink` only receives the tree
    /// bookkeeping writes, which callers typically discard.
    pub(crate) fn build(
        cfg: JbbDbConfig,
        warehouse_count: usize,
        heap: &mut Heap,
        sink: &mut (impl MemSink + ?Sized),
    ) -> Self {
        let items = build_table(heap, cfg.items, cfg.item_bytes, sink);
        let warehouses = (0..warehouse_count)
            .map(|_| Warehouse {
                stock: build_table(heap, cfg.stock_per_wh, cfg.stock_bytes, sink),
                customers: build_table(heap, cfg.customers_per_wh, cfg.customer_bytes, sink),
                districts: (0..cfg.districts_per_wh)
                    .map(|_| heap.alloc_permanent_old(cfg.district_bytes))
                    .collect(),
                orders: ObjTree::new(heap),
                next_order: 0,
                oldest_undelivered: 0,
                history: VecDeque::with_capacity(cfg.history_capacity),
            })
            .collect();
        let company = heap.alloc_permanent_old(256);
        let jvm_shared = heap.alloc_permanent_old(32 * 64);
        JbbDb {
            item_keys: ZipfSampler::new(cfg.items as usize, cfg.item_skew),
            customer_keys: ZipfSampler::new(cfg.customers_per_wh as usize, cfg.customer_skew),
            items,
            warehouses,
            company,
            jvm_shared,
        }
    }

    /// Number of warehouses.
    pub(crate) fn warehouse_count(&self) -> usize {
        self.warehouses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm::heap::{HeapConfig, HeapGeometry};
    use memsys::{Addr, AddrRange, CountingSink};

    fn heap() -> Heap {
        Heap::new(
            HeapConfig {
                geometry: HeapGeometry {
                    eden: 1 << 20,
                    survivor: 256 << 10,
                    old: 128 << 20,
                },
                tlab_bytes: 8 << 10,
            },
            AddrRange::new(Addr(0x4000_0000), 256 << 20),
        )
    }

    #[test]
    fn build_populates_all_tables() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let cfg = JbbDbConfig::scaled(20);
        let db = JbbDb::build(cfg, 3, &mut h, &mut sink);
        assert_eq!(db.warehouse_count(), 3);
        assert_eq!(db.items.len() as u64, cfg.items);
        for w in &db.warehouses {
            assert_eq!(w.stock.len() as u64, cfg.stock_per_wh);
            assert_eq!(w.customers.len() as u64, cfg.customers_per_wh);
            assert_eq!(w.districts.len() as u64, cfg.districts_per_wh);
            assert_eq!(w.orders.len(), 0);
        }
    }

    #[test]
    fn live_bytes_grow_linearly_with_warehouses() {
        let mut sink = CountingSink::new();
        let cfg = JbbDbConfig::scaled(40);
        let mut h1 = heap();
        JbbDb::build(cfg, 1, &mut h1, &mut sink);
        let mut h4 = heap();
        JbbDb::build(cfg, 4, &mut h4, &mut sink);
        let b1 = h1.live_bytes();
        let b4 = h4.live_bytes();
        // Subtract the shared item catalog to isolate per-warehouse growth.
        let items = cfg.items * cfg.item_bytes as u64;
        let per1 = b1 - items;
        let per4 = b4 - items;
        let ratio = per4 as f64 / per1 as f64;
        assert!(
            (3.3..=4.7).contains(&ratio),
            "warehouse data should scale ~4x (trees add overhead): {ratio}"
        );
    }

    #[test]
    fn full_size_database_is_about_14_mb_per_warehouse() {
        let c = JbbDbConfig::default();
        let per = c.stock_per_wh * c.stock_bytes as u64
            + c.customers_per_wh * c.customer_bytes as u64
            + c.districts_per_wh * c.district_bytes as u64
            + c.history_capacity as u64 * c.history_bytes as u64;
        assert!(
            (12 << 20..=17 << 20).contains(&per),
            "paper Figure 11 slope ~15 MB/warehouse, got {} MB",
            per >> 20
        );
    }
}
