//! The SPECjbb2000 workload model.
//!
//! SPECjbb combines all three tiers of a TPC-C-like wholesale business in
//! one Java process (paper Figure 2): driver threads, business logic, and
//! an emulated database of in-memory object trees. One thread serves one
//! warehouse; the benchmark scales by adding warehouses, which grows both
//! the thread count and the data set linearly (Section 4.6) — the paper's
//! central contrast with ECperf, whose data set stays roughly constant.
//!
//! Transactions follow the TPC-C-inspired mix (NewOrder / Payment /
//! OrderStatus / Delivery / StockLevel). Every transaction also updates
//! shared company-wide statistics under a global monitor, making that lock
//! word and counter line the hottest communication lines — the paper
//! measures 20% of all SPECjbb cache-to-cache transfers on a single line
//! (Section 5.2).

pub mod db;

use jvm::alloc::Tlab;
use jvm::codecache::CodeCache;
use jvm::heap::{Heap, HeapConfig, HeapGeometry};
use jvm::lock::{LockId, LockSet};
use jvm::object::Lifetime;
use jvm::thread::{carve_stacks, JavaThread};
use memsys::{AddrRange, CountingSink, MemSink};
use probes::Histogram;

use crate::methodset::MethodSet;
use crate::model::{Control, LockDesc, StepCtx, StepResult, Workload};
use crate::specjbb::db::JbbDb;

/// SPECjbb configuration: the values experiments vary. Every other
/// parameter of the model is a constant at its point of use.
#[derive(Debug, Clone)]
pub struct SpecJbbConfig {
    /// Warehouses (and therefore driver threads).
    pub warehouses: usize,
    /// Heap configuration.
    pub heap: HeapConfig,
    /// Divisor of the database's record counts (1 = full size).
    pub db_divisor: u64,
}

impl SpecJbbConfig {
    /// Full-size configuration: paper heap geometry and full database.
    pub fn full(warehouses: usize) -> Self {
        SpecJbbConfig {
            warehouses,
            heap: HeapConfig::default(),
            db_divisor: 1,
        }
    }

    /// Scaled configuration: heap geometry and database record counts
    /// divided by `divisor` (reference-driven multiprocessor runs).
    pub fn scaled(warehouses: usize, divisor: u64) -> Self {
        SpecJbbConfig {
            warehouses,
            heap: HeapConfig {
                geometry: HeapGeometry::paper_scaled(divisor),
                // Smaller TLABs match the scaled eden.
                tlab_bytes: 16 << 10,
            },
            db_divisor: divisor,
        }
    }

    /// Bytes of address space the workload needs
    /// (heap + code + stacks + lock words).
    pub fn required_bytes(&self) -> u64 {
        self.heap.geometry.total()
            + CODE_REGION_BYTES
            + self.warehouses as u64 * STACK_BYTES
            + LOCK_REGION_BYTES
            + (1 << 20) // slack for rounding
    }
}

const CODE_REGION_BYTES: u64 = 32 << 20;
const LOCK_REGION_BYTES: u64 = 64 << 10;

/// Hot compiled methods.
const METHOD_COUNT: usize = 80;
/// Average method size in bytes.
const METHOD_AVG_BYTES: u64 = 2048;
/// Method-popularity skew.
const METHOD_ZIPF: f64 = 1.05;
/// Method calls per transaction.
const CALLS_PER_TX: usize = 10;
/// Bytes per stack frame.
const FRAME_BYTES: u64 = 768;
/// Frames pushed per transaction.
const FRAMES_PER_TX: usize = 4;
/// Ephemeral scratch allocation per transaction (bytes).
const SCRATCH_PER_TX: u32 = 512;
/// Extra pure-compute instructions per transaction.
const PAD_INSTRUCTIONS: u64 = 5000;
/// Instructions executed while holding the global company monitor
/// (JVM-internal shared-resource work; the constant behind SPECjbb's
/// contention-driven leveling in Figure 4).
const GLOBAL_WORK_INSTRUCTIONS: u64 = 2600;
/// Per-thread stack region size.
const STACK_BYTES: u64 = 64 << 10;
/// Order lines (items) per NewOrder.
const ORDER_LINES: usize = 8;
// A NewOrder's items live in the 16 slots of `CurTx::items`.
const _: () = assert!(ORDER_LINES <= 16);

/// TPC-C-like transaction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// Place a new order (~44%).
    NewOrder,
    /// Record a payment (~44%).
    Payment,
    /// Query an order's status (~4%).
    OrderStatus,
    /// Deliver (retire) the oldest orders (~4%).
    Delivery,
    /// Check stock levels (~4%).
    StockLevel,
}

impl TxKind {
    fn sample(rng: &mut prng::SimRng) -> TxKind {
        match rng.gen_range(0..100u32) {
            0..=43 => TxKind::NewOrder,
            44..=87 => TxKind::Payment,
            88..=91 => TxKind::OrderStatus,
            92..=95 => TxKind::Delivery,
            _ => TxKind::StockLevel,
        }
    }
}

/// Per-thread transaction in flight.
#[derive(Debug, Clone, Copy)]
struct CurTx {
    kind: TxKind,
    wh: usize,
    items: [u64; 16],
    customer: u64,
    district: usize,
}

impl Default for CurTx {
    fn default() -> Self {
        CurTx {
            kind: TxKind::NewOrder,
            wh: 0,
            items: [0; 16],
            customer: 0,
            district: 0,
        }
    }
}

/// The per-thread phase machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// Sampling, frames, catalog reads; ends requesting the warehouse lock.
    #[default]
    Begin,
    /// Database work under the warehouse lock; ends releasing it.
    Warehouse,
    /// CAS on the global monitor; ends requesting it.
    GlobalAcq,
    /// Company-statistics update; ends releasing the global monitor.
    GlobalWork,
    /// Unwind and finish; ends with `TxDone`.
    Finish,
}

/// The SPECjbb workload.
pub struct SpecJbb {
    cfg: SpecJbbConfig,
    heap: Heap,
    code: CodeCache,
    methods: MethodSet,
    lockset: LockSet,
    threads: Vec<JavaThread>,
    phases: Vec<Phase>,
    cur: Vec<CurTx>,
    db: JbbDb,
    /// Per-thread start time of the transaction in flight (set at
    /// `Phase::Begin`, consumed at `TxDone`).
    tx_begin: Vec<Option<u64>>,
    /// Per-transaction response times in cycles (includes lock waits and
    /// any GC pause the transaction absorbed).
    resp_hist: Histogram,
    gc_count: u64,
}

/// Scheduler-lock index of the global company monitor.
pub const GLOBAL_LOCK: u32 = 0;

impl SpecJbb {
    /// Builds the workload inside `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is smaller than
    /// [`SpecJbbConfig::required_bytes`].
    pub fn new(cfg: SpecJbbConfig, mut region: AddrRange) -> Self {
        assert!(
            region.len() >= cfg.required_bytes(),
            "region {} B < required {} B",
            region.len(),
            cfg.required_bytes()
        );
        let code_region = region.take(CODE_REGION_BYTES).expect("sized above");
        let lock_region = region.take(LOCK_REGION_BYTES).expect("sized above");
        let stacks_region = region
            .take(cfg.warehouses as u64 * STACK_BYTES)
            .expect("sized above");
        let mut heap = Heap::new(cfg.heap, region);

        let mut code = CodeCache::new(code_region);
        let methods = MethodSet::install(&mut code, METHOD_COUNT, METHOD_AVG_BYTES, METHOD_ZIPF);
        let mut lockset = LockSet::new(lock_region);
        // Lock 0: the global company monitor; locks 1..=W: warehouse locks.
        for _ in 0..=cfg.warehouses {
            lockset.create();
        }
        let threads = carve_stacks(stacks_region, cfg.warehouses, STACK_BYTES);
        let mut build_sink = CountingSink::new();
        let db = JbbDb::build(cfg.db_divisor, cfg.warehouses, &mut heap, &mut build_sink);
        SpecJbb {
            phases: vec![Phase::Begin; cfg.warehouses],
            cur: vec![CurTx::default(); cfg.warehouses],
            tx_begin: vec![None; cfg.warehouses],
            resp_hist: Histogram::new(),
            gc_count: 0,
            cfg,
            heap,
            code,
            methods,
            lockset,
            threads,
            db,
        }
    }

    /// Per-transaction response-time histogram (cycles from `Begin` to
    /// `TxDone`, including lock waits and absorbed GC pauses).
    pub(crate) fn response_hist(&self) -> &Histogram {
        &self.resp_hist
    }

    /// Discards accumulated response times (e.g. at the end of warm-up).
    pub(crate) fn reset_response_hist(&mut self) {
        self.resp_hist = Histogram::new();
    }

    /// Hot compiled-code footprint in bytes.
    pub fn code_footprint(&self) -> u64 {
        self.methods.footprint(&self.code)
    }

    fn wh_lock(wh: usize) -> crate::model::SchedLock {
        crate::model::SchedLock(1 + wh as u32)
    }

    fn wh_lock_word(&self, wh: usize) -> LockId {
        LockId(1 + wh as u32)
    }

    /// TLAB bytes a transaction may need before its next safe GC point.
    fn tx_alloc_budget(&self) -> u64 {
        SCRATCH_PER_TX as u64 + db::ORDER_BYTES as u64 + db::HISTORY_BYTES as u64 + 512
    }

    /// Allocates, or reports that a collection is needed (another
    /// thread's collection may have retired this thread's TLAB
    /// mid-transaction; the phase is re-run after the GC).
    fn try_alloc(
        heap: &mut Heap,
        tlab: &mut Tlab,
        size: u32,
        lifetime: Lifetime,
        sink: &mut (impl MemSink + ?Sized),
    ) -> Option<jvm::object::ObjectId> {
        tlab.alloc(heap, size, lifetime, sink).ok()
    }
}

impl Workload for SpecJbb {
    fn thread_count(&self) -> usize {
        self.cfg.warehouses
    }

    fn lock_table(&self) -> Vec<LockDesc> {
        // Global monitor + one monitor per warehouse, all blocking mutexes.
        vec![LockDesc::mutex(); 1 + self.cfg.warehouses]
    }

    fn region_map(&self) -> memsys::RegionMap {
        crate::regions::jvm_region_map(&self.heap, &self.code, &self.lockset, &self.threads)
    }

    fn step(&mut self, thread: usize, ctx: &mut StepCtx<'_>) -> StepResult {
        let phase = self.phases[thread];
        match phase {
            Phase::Begin => {
                let budget = self.tx_alloc_budget();
                if !self.threads[thread].tlab.ensure(&mut self.heap, budget) {
                    return StepResult::user(Control::NeedsGc);
                }
                // Response time starts here; a NeedsGc re-run of this
                // phase keeps the original start (the pause counts).
                self.tx_begin[thread].get_or_insert(ctx.now);
                let cur = &mut self.cur[thread];
                cur.kind = TxKind::sample(ctx.rng);
                cur.wh = thread % self.db.warehouse_count();
                if cur.kind == TxKind::Payment && ctx.rng.gen_range(0..100u32) < 3 {
                    // Remote payment: touch another warehouse's customer.
                    cur.wh = ctx.rng.gen_range(0..self.db.warehouse_count());
                }
                for slot in cur.items.iter_mut().take(ORDER_LINES) {
                    *slot = self.db.item_keys.sample(ctx.rng) as u64;
                }
                cur.customer = self.db.customer_keys.sample(ctx.rng) as u64;
                cur.district = ctx.rng.gen_range(0..db::DISTRICTS_PER_WH as usize);
                let cur = self.cur[thread];

                let sink = &mut *ctx.sink;
                sink.instructions(PAD_INSTRUCTIONS / 2);
                for _ in 0..FRAMES_PER_TX {
                    self.threads[thread].push_frame(FRAME_BYTES, sink);
                }
                self.methods
                    .exec_path(&self.code, CALLS_PER_TX / 2, ctx.rng, sink);
                if cur.kind == TxKind::NewOrder {
                    // Item catalog reads happen outside the warehouse lock
                    // (the catalog is immutable).
                    for &key in cur.items.iter().take(ORDER_LINES) {
                        self.db.items.lookup(key, &self.heap, sink);
                    }
                }
                self.lockset.emit_acquire(self.wh_lock_word(cur.wh), sink);
                self.phases[thread] = Phase::Warehouse;
                StepResult::user(Control::Acquire(Self::wh_lock(cur.wh)))
            }
            Phase::Warehouse => {
                let cur = self.cur[thread];
                let sink = &mut *ctx.sink;
                let heap = &mut self.heap;
                let tlab = &mut self.threads[thread].tlab;
                let wh = &mut self.db.warehouses[cur.wh];
                match cur.kind {
                    TxKind::NewOrder => {
                        // District: read + bump next-order id.
                        let d = wh.districts[cur.district];
                        heap.read_object(d, sink);
                        sink.store(heap.addr_of(d));
                        // Stock: read + decrement per order line.
                        for &key in cur.items.iter().take(ORDER_LINES) {
                            if let Some(rec) = wh.stock.lookup(key, heap, sink) {
                                sink.store(heap.addr_of(rec));
                            }
                        }
                        // Customer credit check.
                        wh.customers.lookup(cur.customer, heap, sink);
                        // The order object itself, inserted into the tree.
                        // (A mid-transaction allocation failure re-runs
                        // this phase after a collection.)
                        let Some(order) =
                            Self::try_alloc(heap, tlab, db::ORDER_BYTES, Lifetime::Permanent, sink)
                        else {
                            return StepResult::user(Control::NeedsGc);
                        };
                        let key = wh.next_order;
                        wh.next_order += 1;
                        wh.orders.insert(key, order, heap, sink);
                    }
                    TxKind::Payment => {
                        let d = wh.districts[cur.district];
                        heap.read_object(d, sink);
                        sink.store(heap.addr_of(d));
                        if let Some(c) = wh.customers.lookup(cur.customer, heap, sink) {
                            sink.store(heap.addr_of(c));
                        }
                        let Some(hist) = Self::try_alloc(
                            heap,
                            tlab,
                            db::HISTORY_BYTES,
                            Lifetime::Permanent,
                            sink,
                        ) else {
                            return StepResult::user(Control::NeedsGc);
                        };
                        wh.history.push_back(hist);
                        if wh.history.len() > db::history_capacity(self.cfg.db_divisor) {
                            if let Some(old) = wh.history.pop_front() {
                                heap.free(old);
                            }
                        }
                    }
                    TxKind::OrderStatus => {
                        wh.customers.lookup(cur.customer, heap, sink);
                        if wh.next_order > wh.oldest_undelivered {
                            let span = wh.next_order - wh.oldest_undelivered;
                            let key = wh.oldest_undelivered + cur.items[0] % span;
                            wh.orders.lookup(key, heap, sink);
                        }
                    }
                    TxKind::Delivery => {
                        for _ in 0..10 {
                            if wh.oldest_undelivered >= wh.next_order {
                                break;
                            }
                            let key = wh.oldest_undelivered;
                            wh.oldest_undelivered += 1;
                            if let Some(order) = wh.orders.remove(key, heap, sink) {
                                heap.free(order);
                            }
                        }
                        if let Some(c) = wh.customers.lookup(cur.customer, heap, sink) {
                            sink.store(heap.addr_of(c));
                        }
                    }
                    TxKind::StockLevel => {
                        let d = wh.districts[cur.district];
                        heap.read_object(d, sink);
                        for i in 0..20u64 {
                            let key =
                                (cur.items[0] + i * 37) % db::stock_per_wh(self.cfg.db_divisor);
                            wh.stock.lookup(key, heap, sink);
                        }
                    }
                }
                self.lockset.emit_release(self.wh_lock_word(cur.wh), sink);
                self.phases[thread] = Phase::GlobalAcq;
                StepResult::user(Control::Release(Self::wh_lock(cur.wh)))
            }
            Phase::GlobalAcq => {
                self.lockset
                    .emit_acquire(LockId(GLOBAL_LOCK), &mut *ctx.sink);
                self.phases[thread] = Phase::GlobalWork;
                StepResult::user(Control::Acquire(crate::model::SchedLock(GLOBAL_LOCK)))
            }
            Phase::GlobalWork => {
                let sink = &mut *ctx.sink;
                // Company-wide counters and JVM-internal shared-resource
                // bookkeeping: the hottest data line in SPECjbb.
                sink.instructions(GLOBAL_WORK_INSTRUCTIONS);
                let company = self.heap.addr_of(self.db.company);
                sink.load(company);
                sink.store(company);
                sink.store(company.offset(64));
                sink.store(company.offset(128));
                self.lockset.emit_release(LockId(GLOBAL_LOCK), sink);
                self.phases[thread] = Phase::Finish;
                StepResult::user(Control::Release(crate::model::SchedLock(GLOBAL_LOCK)))
            }
            Phase::Finish => {
                let sink = &mut *ctx.sink;
                // Company-wide statistics are updated with atomic
                // increments on every transaction (no monitor): the
                // hottest data line in SPECjbb.
                let company = self.heap.addr_of(self.db.company);
                sink.instructions(20);
                sink.store(company);
                sink.store(company.offset(64));
                // JVM-internal shared structures (allocation metadata,
                // monitor bookkeeping) are updated on every transaction.
                let jvm = self.heap.addr_of(self.db.jvm_shared);
                for _ in 0..2 {
                    let line = ctx.rng.gen_range(0..32u64);
                    sink.load(jvm.offset(line * 64));
                    sink.store(jvm.offset(line * 64));
                }
                let half = CALLS_PER_TX - CALLS_PER_TX / 2;
                self.methods.exec_path(&self.code, half, ctx.rng, sink);
                // Ephemeral scratch (marshalling buffers, iterators, strings).
                if Self::try_alloc(
                    &mut self.heap,
                    &mut self.threads[thread].tlab,
                    SCRATCH_PER_TX,
                    Lifetime::Ephemeral,
                    sink,
                )
                .is_none()
                {
                    return StepResult::user(Control::NeedsGc);
                }
                for _ in 0..FRAMES_PER_TX {
                    self.threads[thread].pop_frame(FRAME_BYTES, sink);
                }
                self.threads[thread].unwind();
                sink.instructions(PAD_INSTRUCTIONS / 2);
                self.heap.advance_epoch(1);
                if let Some(begin) = self.tx_begin[thread].take() {
                    self.resp_hist.record(ctx.now.saturating_sub(begin));
                }
                self.phases[thread] = Phase::Begin;
                StepResult::user(Control::TxDone)
            }
        }
    }

    fn collect(&mut self, sink: &mut dyn MemSink) {
        for t in &mut self.threads {
            t.tlab.retire();
        }
        self.heap.minor_gc(&mut *sink);
        if self.heap.needs_major_gc() {
            self.heap.major_gc(&mut *sink);
        }
        self.gc_count += 1;
    }

    fn heap_after_last_gc(&self) -> Option<u64> {
        if self.gc_count == 0 {
            None
        } else {
            Some(self.heap.stats().live_after_last_gc)
        }
    }

    fn gc_pressure(&self) -> f64 {
        self.heap.eden_occupancy()
    }

    fn response_hist(&self) -> Option<&Histogram> {
        Some(SpecJbb::response_hist(self))
    }

    fn reset_response_hist(&mut self) {
        SpecJbb::reset_response_hist(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::Addr;
    use prng::SimRng;

    fn small() -> SpecJbb {
        let cfg = SpecJbbConfig::scaled(4, 64);
        let region = AddrRange::new(Addr(0x1000_0000), cfg.required_bytes());
        SpecJbb::new(cfg, region)
    }

    /// Drives one thread through phases with a permissive engine that
    /// grants every lock immediately and collects on demand.
    fn drive(jbb: &mut SpecJbb, thread: usize, steps: usize) -> (u64, u64) {
        let mut rng = SimRng::seed_from_u64(42);
        let mut sink = CountingSink::new();
        let mut txs = 0;
        let mut gcs = 0;
        for _ in 0..steps {
            let mut ctx = StepCtx {
                sink: &mut sink,
                rng: &mut rng,
                now: 0,
            };
            match jbb.step(thread, &mut ctx).control {
                Control::TxDone => txs += 1,
                Control::NeedsGc => {
                    jbb.collect(&mut sink);
                    gcs += 1;
                }
                _ => {}
            }
        }
        (txs, gcs)
    }

    #[test]
    fn transactions_complete_and_gcs_happen() {
        let mut jbb = small();
        let (txs, gcs) = drive(&mut jbb, 0, 30_000);
        assert!(txs > 1000, "transactions must flow: {txs}");
        assert!(gcs > 0, "the scaled eden must fill: {gcs}");
    }

    #[test]
    fn phase_machine_cycles_through_lock_protocol() {
        let mut jbb = small();
        let mut rng = SimRng::seed_from_u64(1);
        let mut sink = CountingSink::new();
        let mut seen_acquire = 0;
        let mut seen_release = 0;
        for _ in 0..100 {
            let mut ctx = StepCtx {
                sink: &mut sink,
                rng: &mut rng,
                now: 0,
            };
            match jbb.step(0, &mut ctx).control {
                Control::Acquire(_) => seen_acquire += 1,
                Control::Release(_) => seen_release += 1,
                Control::NeedsGc => jbb.collect(&mut sink),
                _ => {}
            }
        }
        assert!(seen_acquire >= 2 && seen_release >= 2);
        assert_eq!(seen_acquire, seen_release, "acquires pair with releases");
    }

    #[test]
    fn lock_table_has_global_plus_warehouses() {
        let jbb = small();
        assert_eq!(jbb.lock_table().len(), 5);
    }

    #[test]
    fn heap_after_gc_reported_once_collected() {
        let mut jbb = small();
        assert_eq!(jbb.heap_after_last_gc(), None);
        drive(&mut jbb, 0, 30_000);
        let after = jbb.heap_after_last_gc().expect("a GC ran");
        assert!(after > 0, "database keeps the heap non-empty");
    }

    #[test]
    fn orders_are_retired_by_delivery() {
        let mut jbb = small();
        drive(&mut jbb, 0, 60_000);
        let wh = &jbb.db.warehouses[0];
        // In steady state deliveries keep in-flight orders bounded.
        let in_flight = wh.next_order - wh.oldest_undelivered;
        assert!(
            in_flight < 2_000,
            "delivery must keep up with new orders: {in_flight} in flight"
        );
    }

    #[test]
    fn code_footprint_is_moderate() {
        let jbb = small();
        let f = jbb.code_footprint();
        assert!(
            (100 << 10..400 << 10).contains(&f),
            "SPECjbb hot code should be a few hundred KB: {} KB",
            f >> 10
        );
    }
}
