//! ECperf's entity beans and business domains.
//!
//! The ECperf application divides its data and rules into four domains
//! (paper Section 2.2): the Customer domain (OLTP-like order
//! interactions), the Manufacturing domain (just-in-time work orders),
//! the Supplier domain (purchase orders against external suppliers) and
//! the Corporate domain (customers, suppliers and parts master data).
//! The EJB components operate on *entity beans* — persistent objects with
//! container-managed state — which this module enumerates together with
//! their keyspace, size and cacheability.

/// Entity bean types used by the BBop mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeanType {
    /// A customer (Corporate domain master data).
    Customer,
    /// An order (Customer domain).
    Order,
    /// A catalog item (Customer domain).
    Item,
    /// A part / assembly (Corporate + Manufacturing).
    Part,
    /// A manufacturing work order (Manufacturing domain).
    WorkOrder,
    /// A purchase order sent to a supplier. Purchase orders are exchanged
    /// as XML documents with the supplier emulator and are not cached.
    PurchaseOrder,
}

/// All bean types.
pub const ALL_BEAN_TYPES: [BeanType; 6] = [
    BeanType::Customer,
    BeanType::Order,
    BeanType::Item,
    BeanType::Part,
    BeanType::WorkOrder,
    BeanType::PurchaseOrder,
];

impl BeanType {
    /// Stable tag for cache-key packing.
    pub(crate) fn tag(self) -> u8 {
        match self {
            BeanType::Customer => 0,
            BeanType::Order => 1,
            BeanType::Item => 2,
            BeanType::Part => 3,
            BeanType::WorkOrder => 4,
            BeanType::PurchaseOrder => 5,
        }
    }

    /// Keyspace size (distinct primary keys) at scale 1. ECperf's data is
    /// sized by the Orders Injection Rate *on the database side*; the
    /// middle tier only ever materializes the beans it touches, which is
    /// why its footprint stays roughly constant (Figure 11).
    pub(crate) fn keyspace(self) -> u64 {
        match self {
            BeanType::Customer => 15_000,
            BeanType::Order => 20_000,
            BeanType::Item => 5_000,
            BeanType::Part => 10_000,
            BeanType::WorkOrder => 5_000,
            BeanType::PurchaseOrder => 1 << 30, // effectively unique
        }
    }

    /// Bean instance size in bytes (state + container bookkeeping).
    pub(crate) fn bytes(self) -> u32 {
        match self {
            BeanType::Customer => 1536,
            BeanType::Order => 1536,
            BeanType::Item => 768,
            BeanType::Part => 1024,
            BeanType::WorkOrder => 1536,
            BeanType::PurchaseOrder => 4096,
        }
    }

    /// Whether the container caches instances of this bean.
    pub(crate) fn cacheable(self) -> bool {
        !matches!(self, BeanType::PurchaseOrder)
    }

    /// Whether loading this entity talks to the supplier emulator instead
    /// of the database (XML document exchange).
    pub(crate) fn uses_supplier_emulator(self) -> bool {
        matches!(self, BeanType::PurchaseOrder)
    }
}

/// One entity access required by a BBop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeanNeed {
    /// Entity type.
    pub ty: BeanType,
    /// Primary key.
    pub key: u64,
    /// Whether the BBop updates the entity (dirty shared lines).
    pub write: bool,
    /// Whether a loaded instance is installed in the object cache.
    /// Entity *creates* (new orders) write through to the database
    /// without caching — caching a never-to-be-reread instance would only
    /// churn the heap.
    pub cache_install: bool,
}

/// The Benchmark Business Operations (high-level actions; performance is
/// reported in BBops/minute, Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BBop {
    /// A customer places a new order (Customer domain).
    NewOrder,
    /// A customer changes or inquires about an order.
    OrderStatus,
    /// A manufacturing step of a scheduled work order (Mfg domain).
    ManufactureStep,
    /// A supplier purchase-order cycle (Supplier domain, XML exchange).
    SupplierCycle,
}

impl BBop {
    /// Samples the BBop mix: the customer and manufacturing domains
    /// dominate, as in ECperf's workload definition.
    pub(crate) fn sample(rng: &mut prng::SimRng) -> BBop {
        match rng.gen_range(0..100u32) {
            0..=39 => BBop::NewOrder,
            40..=49 => BBop::OrderStatus,
            50..=89 => BBop::ManufactureStep,
            _ => BBop::SupplierCycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for t in ALL_BEAN_TYPES {
            assert!(seen.insert(t.tag()), "duplicate tag for {t:?}");
        }
    }

    #[test]
    fn purchase_orders_are_uncacheable_supplier_documents() {
        assert!(!BeanType::PurchaseOrder.cacheable());
        assert!(BeanType::PurchaseOrder.uses_supplier_emulator());
        for t in ALL_BEAN_TYPES {
            if t != BeanType::PurchaseOrder {
                assert!(t.cacheable(), "{t:?} should be cacheable");
                assert!(!t.uses_supplier_emulator());
            }
        }
    }

    #[test]
    fn bbop_mix_covers_all_kinds() {
        let mut rng = prng::SimRng::seed_from_u64(5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts
                .entry(format!("{:?}", BBop::sample(&mut rng)))
                .or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4, "all BBops appear: {counts:?}");
        assert!(counts["NewOrder"] > 3_000);
        assert!(counts["ManufactureStep"] > 3_000);
        assert!(counts["SupplierCycle"] < 1_500);
    }

    #[test]
    fn bean_sizes_are_realistic() {
        for t in ALL_BEAN_TYPES {
            assert!((512..=4096).contains(&t.bytes()), "{t:?}: {}", t.bytes());
        }
    }
}
