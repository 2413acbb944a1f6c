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

// Record sizes and popularity skews. A full-size database (divisor 1)
// holds ~14 MB of live data per warehouse, matching the paper's
// Figure 11 slope of roughly 15 MB per warehouse.

/// Bytes per item record.
const ITEM_BYTES: u32 = 128;
/// Bytes per stock record.
const STOCK_BYTES: u32 = 448;
/// Bytes per customer record.
const CUSTOMER_BYTES: u32 = 1536;
/// Districts per warehouse.
pub(crate) const DISTRICTS_PER_WH: u64 = 10;
/// Bytes per district record.
const DISTRICT_BYTES: u32 = 256;
/// Bytes per order object (order + order lines).
pub(crate) const ORDER_BYTES: u32 = 1024;
/// Bytes per history record.
pub(crate) const HISTORY_BYTES: u32 = 128;
/// Zipf exponent for item/stock popularity (low: TPC-C-style NURand
/// spreads order lines over most of the catalog).
const ITEM_SKEW: f64 = 0.3;
/// Zipf exponent for customer popularity (higher: repeat customers).
const CUSTOMER_SKEW: f64 = 0.9;

// Record counts of a database scaled down by `divisor`: record *sizes*
// stay realistic, record *counts* shrink (divisor 1 is full size).

/// Items in the global catalog.
fn items(divisor: u64) -> u64 {
    (20_000 / divisor).max(64)
}

/// Stock records per warehouse (one per item in real SPECjbb).
pub(crate) fn stock_per_wh(divisor: u64) -> u64 {
    (20_000 / divisor).max(64)
}

/// Customers per warehouse.
fn customers_per_wh(divisor: u64) -> u64 {
    (3_000 / divisor).max(16)
}

/// History ring capacity per warehouse.
pub(crate) fn history_capacity(divisor: u64) -> usize {
    (1_000 / divisor).max(16) as usize
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
    /// Builds the database for `warehouse_count` warehouses, its record
    /// counts divided by `divisor`, directly in the old generation.
    /// Construction emits no references (setup happens before the
    /// measurement window); `sink` only receives the tree bookkeeping
    /// writes, which callers typically discard.
    pub(crate) fn build(
        divisor: u64,
        warehouse_count: usize,
        heap: &mut Heap,
        sink: &mut (impl MemSink + ?Sized),
    ) -> Self {
        let item_count = items(divisor);
        let customers = customers_per_wh(divisor);
        let items = build_table(heap, item_count, ITEM_BYTES, sink);
        let warehouses = (0..warehouse_count)
            .map(|_| Warehouse {
                stock: build_table(heap, stock_per_wh(divisor), STOCK_BYTES, sink),
                customers: build_table(heap, customers, CUSTOMER_BYTES, sink),
                districts: (0..DISTRICTS_PER_WH)
                    .map(|_| heap.alloc_permanent_old(DISTRICT_BYTES))
                    .collect(),
                orders: ObjTree::new(heap),
                next_order: 0,
                oldest_undelivered: 0,
                history: VecDeque::with_capacity(history_capacity(divisor)),
            })
            .collect();
        let company = heap.alloc_permanent_old(256);
        let jvm_shared = heap.alloc_permanent_old(32 * 64);
        JbbDb {
            item_keys: ZipfSampler::new(item_count as usize, ITEM_SKEW),
            customer_keys: ZipfSampler::new(customers as usize, CUSTOMER_SKEW),
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
        let db = JbbDb::build(20, 3, &mut h, &mut sink);
        assert_eq!(db.warehouse_count(), 3);
        assert_eq!(db.items.len() as u64, items(20));
        for w in &db.warehouses {
            assert_eq!(w.stock.len() as u64, stock_per_wh(20));
            assert_eq!(w.customers.len() as u64, customers_per_wh(20));
            assert_eq!(w.districts.len() as u64, DISTRICTS_PER_WH);
            assert_eq!(w.orders.len(), 0);
        }
    }

    #[test]
    fn live_bytes_grow_linearly_with_warehouses() {
        let mut sink = CountingSink::new();
        let mut h1 = heap();
        JbbDb::build(40, 1, &mut h1, &mut sink);
        let mut h4 = heap();
        JbbDb::build(40, 4, &mut h4, &mut sink);
        let b1 = h1.live_bytes();
        let b4 = h4.live_bytes();
        // Subtract the shared item catalog to isolate per-warehouse growth.
        let catalog = items(40) * ITEM_BYTES as u64;
        let per1 = b1 - catalog;
        let per4 = b4 - catalog;
        let ratio = per4 as f64 / per1 as f64;
        assert!(
            (3.3..=4.7).contains(&ratio),
            "warehouse data should scale ~4x (trees add overhead): {ratio}"
        );
    }

    #[test]
    fn full_size_database_is_about_14_mb_per_warehouse() {
        let per = stock_per_wh(1) * STOCK_BYTES as u64
            + customers_per_wh(1) * CUSTOMER_BYTES as u64
            + DISTRICTS_PER_WH * DISTRICT_BYTES as u64
            + history_capacity(1) as u64 * HISTORY_BYTES as u64;
        assert!(
            (12 << 20..=17 << 20).contains(&per),
            "paper Figure 11 slope ~15 MB/warehouse, got {} MB",
            per >> 20
        );
    }
}
