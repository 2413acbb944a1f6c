//! The ECperf (SPECjAppServer2001) middle-tier workload model.
//!
//! ECperf deploys EJB components on a commercial application server, with
//! the database, supplier emulator and driver on separate machines
//! (paper Figure 3). This model reproduces the *application-server tier*
//! — the machine the paper monitors — mechanistically:
//!
//! - worker threads from a **thread pool** serve Benchmark Business
//!   Operations (BBops) arriving over the kernel network path;
//! - entity beans are looked up in the container's **object-level cache**
//!   (capacity LRU + TTL revalidation); misses check a connection out of
//!   the **database connection pool**, send a query through the kernel,
//!   and wait for the database tier's reply;
//! - supplier purchase orders are exchanged as XML documents with the
//!   supplier emulator (bigger payloads, parse cost, no caching);
//! - business logic executes a large compiled-code path (the Figure 12
//!   instruction footprint) and updates shared bean objects (the wide
//!   communication footprint of Figures 14/15).
//!
//! The database and emulator tiers are modeled as reply latencies: the
//! paper itself filters the memory traffic of the other tiers out of its
//! measurements (Section 3.3), so only the messages' kernel-side work and
//! the waiting matter on the monitored machine.

pub mod beans;
pub mod cache;
pub mod database;

use jvm::alloc::AllocOutcome;
use jvm::codecache::CodeCache;
use jvm::heap::{Heap, HeapConfig, HeapGeometry};
use jvm::lock::{LockId, LockSet};
use jvm::object::{Lifetime, ObjectId};
use jvm::thread::{carve_stacks, JavaThread};
use memsys::{AddrRange, MemSink};
use probes::Histogram;
use sysos::net::NetStack;

use crate::ecperf::beans::{BBop, BeanNeed, BeanType};
use crate::ecperf::cache::{BeanKey, CacheLookup, ObjectCache};
use crate::methodset::MethodSet;
use crate::model::{Control, LockDesc, SchedLock, StepCtx, StepResult, Workload};
use crate::zipf::ZipfSampler;

/// First scheduler-lock index of the bean-cache stripes. Commercial
/// containers stripe their cache locks; without striping a single lock
/// word would carry far more of the communication than the paper
/// measures for ECperf's hottest line (14%, Section 5.2).
pub const CACHE_LOCK_BASE: u32 = 0;
/// Number of cache-lock stripes.
pub const CACHE_STRIPES: u32 = 4;
/// Scheduler-lock index of the DB connection-pool semaphore.
pub const CONN_POOL: u32 = CACHE_LOCK_BASE + CACHE_STRIPES;
/// Scheduler-lock index of the kernel network stream (spin) lock
/// ([`KNET_LOCKS`] is 1).
pub const KNET_BASE: u32 = CONN_POOL + 1;
/// Number of kernel network locks. Solaris-8-era TCP processing is
/// heavily serialized; a single stream lock reproduces the paper's
/// system-time growth and the post-12-processor throughput decline.
pub const KNET_LOCKS: u32 = 1;

const CODE_REGION_BYTES: u64 = 32 << 20;
const LOCK_REGION_BYTES: u64 = 64 << 10;
const KERNEL_REGION_BYTES: u64 = 32 << 20;

/// Hot compiled methods (app server + container + beans).
const METHOD_COUNT: usize = 600;
/// Average method size in bytes.
const METHOD_AVG_BYTES: u64 = 2048;
/// Method-popularity skew.
const METHOD_ZIPF: f64 = 1.05;
/// Method calls per BBop.
const CALLS_PER_BBOP: usize = 36;
/// Bytes per stack frame.
const FRAME_BYTES: u64 = 768;
/// Frames pushed per BBop.
const FRAMES_PER_BBOP: usize = 5;
/// Ephemeral scratch allocation per BBop.
const SCRATCH_PER_BBOP: u32 = 1024;
/// Extra pure-compute instructions per BBop.
const PAD_INSTRUCTIONS: u64 = 9000;
/// Database reply latency in cycles.
const DB_LATENCY: u64 = 60_000;
/// Supplier-emulator reply latency in cycles.
const SUPPLIER_LATENCY: u64 = 150_000;
// A database reply (`DB_LATENCY` plus under 25% jitter) always returns
// before a supplier reply, which waits at least `SUPPLIER_LATENCY`.
const _: () = assert!(DB_LATENCY * 5 / 4 < SUPPLIER_LATENCY);
/// XML parse instructions per purchase order.
const XML_PARSE_INSTRUCTIONS: u64 = 3000;
/// Per-thread stack region size.
const STACK_BYTES: u64 = 64 << 10;
/// Entity-key popularity skew.
const KEY_SKEW: f64 = 1.1;
/// Window of recent orders OrderStatus queries.
const RECENT_ORDERS: u64 = 512;

/// ECperf configuration: the values experiments vary. Every other
/// parameter of the model is a constant at its point of use.
#[derive(Debug, Clone)]
pub struct EcperfConfig {
    /// Orders Injection Rate — ECperf's scale factor.
    pub ir: u32,
    /// Worker threads in the application server's thread pool. The
    /// default derivation caps at the tuned pool size, which is why the
    /// middle tier's memory stops growing around IR 6 (Figure 11).
    pub threads: usize,
    /// Database connections in the pool.
    pub db_connections: u32,
    /// Heap configuration.
    pub heap: HeapConfig,
    /// Bean-cache TTL in cycles (container revalidation interval).
    pub cache_ttl: u64,
    /// Whether to log every database query (for two-tier co-simulation:
    /// the cluster harness replays the log into the database machine).
    pub log_queries: bool,
    /// Divisor applied to entity keyspaces, the bean cache and the
    /// per-thread workspaces (scaled runs shrink the hot entity
    /// population together with the cache so hit rates are preserved).
    pub keyspace_divisor: u64,
}

impl EcperfConfig {
    /// Full-size configuration at injection rate `ir`.
    pub fn full(ir: u32) -> Self {
        let threads = (8 * ir as usize).clamp(12, 48);
        EcperfConfig {
            ir,
            threads,
            db_connections: (threads as u32 / 2).max(2),
            heap: HeapConfig::default(),
            cache_ttl: 900_000,
            log_queries: false,
            keyspace_divisor: 1,
        }
    }

    /// Scaled configuration: heap, cache and workspaces divided by
    /// `divisor` for reference-driven multiprocessor runs.
    pub fn scaled(ir: u32, divisor: u64) -> Self {
        EcperfConfig {
            heap: HeapConfig {
                geometry: HeapGeometry::paper_scaled(divisor),
                // Smaller TLAB chunks keep many-threaded runs from
                // draining a scaled eden with half-empty buffers.
                tlab_bytes: 32 << 10,
            },
            keyspace_divisor: divisor,
            ..EcperfConfig::full(ir)
        }
    }

    /// Bytes of address space the workload needs.
    pub fn required_bytes(&self) -> u64 {
        self.heap.geometry.total()
            + CODE_REGION_BYTES
            + LOCK_REGION_BYTES
            + KERNEL_REGION_BYTES
            + self.threads as u64 * STACK_BYTES
            + (1 << 20)
    }

    /// Bean-cache capacity in beans.
    fn cache_capacity(&self) -> usize {
        (12_000 / self.keyspace_divisor).max(4000) as usize
    }

    /// Per-thread permanent workspace (connection buffers, session state).
    fn workspace_bytes(&self) -> u32 {
        ((512 << 10) / self.keyspace_divisor).max(4096) as u32
    }
}

/// The per-worker phase machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// Sample the BBop, reserve allocation, build the entity list.
    #[default]
    Begin,
    /// Request the kernel lock for the incoming client message.
    RecvAcq,
    /// Kernel: receive the request.
    RecvMsg,
    /// Presentation logic (servlets).
    Servlet,
    /// Dispatch the next entity need (or move to business logic).
    BeanNext,
    /// Probe the bean cache (holding the cache lock).
    BeanProbe,
    /// Check a database connection out of the pool.
    ConnAcq,
    /// Request the kernel lock for the outgoing query.
    SendAcq,
    /// Kernel: send the query / purchase order.
    SendMsg,
    /// Wait for the remote tier's reply.
    RemoteWait,
    /// Request the kernel lock for the reply.
    RespAcq,
    /// Kernel: receive the reply.
    RespMsg,
    /// Parse the supplier's XML response (no caching).
    ParsePo,
    /// Complete a write-through entity create (no cache installation).
    Transient,
    /// Re-enter the cache to install the loaded bean.
    InstallAcq,
    /// Holding the cache lock: allocate + insert + evict.
    Install,
    /// Return the database connection.
    ConnRel,
    /// Business rules over the gathered entities.
    Business,
    /// Request the kernel lock for the client reply.
    ReplyAcq,
    /// Kernel: send the reply.
    ReplyMsg,
    /// Unwind and complete the BBop.
    Finish,
}

#[derive(Debug, Clone, Default)]
struct Worker {
    phase: Phase,
    needs: Vec<BeanNeed>,
    need_idx: usize,
    pending: Option<BeanNeed>,
}

/// The ECperf application-server workload.
pub struct Ecperf {
    cfg: EcperfConfig,
    heap: Heap,
    code: CodeCache,
    methods: MethodSet,
    lockset: LockSet,
    net: NetStack,
    cache: ObjectCache,
    threads: Vec<JavaThread>,
    workers: Vec<Worker>,
    samplers: Vec<(BeanType, ZipfSampler)>,
    next_order: u64,
    next_po: u64,
    tx_done: Vec<u64>,
    /// Per-thread start time of the BBop in flight (set at `Phase::Begin`,
    /// consumed at `TxDone`).
    tx_begin: Vec<Option<u64>>,
    /// Per-BBop response times in cycles (includes lock/pool waits,
    /// emulator round trips, and absorbed GC pauses).
    resp_hist: Histogram,
    gc_count: u64,
    db_roundtrips: u64,
    /// Per-thread permanent workspace objects (kept live).
    _workspaces: Vec<ObjectId>,
    /// JVM-internal shared structures (see the SPECjbb equivalent).
    jvm_shared: ObjectId,
    /// The kernel network region (attribution classifies its traffic
    /// as `kernel`).
    kernel_region: AddrRange,
    /// Logged database queries (when `log_queries` is on).
    query_log: Vec<DbQuery>,
}

/// One logged database interaction (for tier co-simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbQuery {
    /// Entity type queried.
    pub ty: BeanType,
    /// Primary key.
    pub key: u64,
    /// Whether the statement writes (update/insert).
    pub write: bool,
}

impl Ecperf {
    /// Builds the application-server tier inside `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is smaller than
    /// [`EcperfConfig::required_bytes`].
    pub fn new(cfg: EcperfConfig, mut region: AddrRange) -> Self {
        assert!(
            region.len() >= cfg.required_bytes(),
            "region {} B < required {} B",
            region.len(),
            cfg.required_bytes()
        );
        let code_region = region.take(CODE_REGION_BYTES).expect("sized above");
        let lock_region = region.take(LOCK_REGION_BYTES).expect("sized above");
        let kernel_region = region.take(KERNEL_REGION_BYTES).expect("sized above");
        let stacks_region = region
            .take(cfg.threads as u64 * STACK_BYTES)
            .expect("sized above");
        let mut heap = Heap::new(cfg.heap, region);

        let mut code = CodeCache::new(code_region);
        let methods = MethodSet::install(&mut code, METHOD_COUNT, METHOD_AVG_BYTES, METHOD_ZIPF);
        let mut lockset = LockSet::new(lock_region);
        for _ in 0..(KNET_BASE + KNET_LOCKS) {
            lockset.create();
        }
        // Client connections [0, threads), database connections
        // [threads, 2*threads), supplier connections share the DB range.
        let net = NetStack::new(kernel_region, cfg.threads * 2 + 4);
        let threads = carve_stacks(stacks_region, cfg.threads, STACK_BYTES);
        let workspaces = (0..cfg.threads)
            .map(|_| heap.alloc_permanent_old(cfg.workspace_bytes()))
            .collect();
        let jvm_shared = heap.alloc_permanent_old(32 * 64);
        let samplers = beans::ALL_BEAN_TYPES
            .iter()
            .filter(|t| t.cacheable())
            .map(|&t| {
                (
                    t,
                    ZipfSampler::new(
                        (t.keyspace() / cfg.keyspace_divisor).clamp(64, 1 << 20) as usize,
                        KEY_SKEW,
                    ),
                )
            })
            .collect();
        Ecperf {
            cache: ObjectCache::new(cfg.cache_capacity(), cfg.cache_ttl),
            workers: vec![Worker::default(); cfg.threads],
            tx_done: vec![0; cfg.threads],
            tx_begin: vec![None; cfg.threads],
            resp_hist: Histogram::new(),
            gc_count: 0,
            db_roundtrips: 0,
            next_order: 0,
            next_po: 0,
            samplers,
            cfg,
            heap,
            code,
            methods,
            lockset,
            net,
            threads,
            _workspaces: workspaces,
            jvm_shared,
            kernel_region,
            query_log: Vec::new(),
        }
    }

    /// The bean cache (hit-rate inspection).
    pub fn cache(&self) -> &ObjectCache {
        &self.cache
    }

    /// Total completed BBops.
    pub fn total_tx(&self) -> u64 {
        self.tx_done.iter().sum()
    }

    /// Per-BBop response-time histogram (cycles from `Begin` to
    /// `TxDone`, including waits and absorbed GC pauses).
    pub(crate) fn response_hist(&self) -> &Histogram {
        &self.resp_hist
    }

    /// Discards accumulated response times (e.g. at the end of warm-up).
    pub(crate) fn reset_response_hist(&mut self) {
        self.resp_hist = Histogram::new();
    }

    /// Database round trips performed (path-length diagnostics).
    pub fn db_roundtrips(&self) -> u64 {
        self.db_roundtrips
    }

    /// Drains the logged database queries (empty unless
    /// [`EcperfConfig::log_queries`] is set).
    pub fn take_query_log(&mut self) -> Vec<DbQuery> {
        std::mem::take(&mut self.query_log)
    }

    /// Hot compiled-code footprint in bytes.
    pub fn code_footprint(&self) -> u64 {
        self.methods.footprint(&self.code)
    }

    /// The cache stripe guarding a bean key.
    fn stripe(need: &BeanNeed) -> u32 {
        CACHE_LOCK_BASE + ((need.key as u32).wrapping_mul(0x9e37) >> 4) % CACHE_STRIPES
    }

    /// The kernel path: scheduling serializes every connection on the
    /// one stream lock, while the lock-word *traffic* lives in the
    /// network stack's protocol lines (touched by
    /// [`NetStack::emit_protocol`], which spreads them per connection).
    fn knet() -> SchedLock {
        SchedLock(KNET_BASE)
    }

    fn sample_key(&self, ty: BeanType, rng: &mut prng::SimRng) -> u64 {
        self.samplers
            .iter()
            .find(|(t, _)| *t == ty)
            .map(|(_, s)| s.sample(rng) as u64)
            .unwrap_or(0)
    }

    fn build_needs(&mut self, worker: usize, rng: &mut prng::SimRng) {
        let bbop = BBop::sample(rng);
        let mut needs: Vec<BeanNeed> = Vec::with_capacity(8);
        match bbop {
            BBop::NewOrder => {
                needs.push(BeanNeed {
                    ty: BeanType::Customer,
                    key: self.sample_key(BeanType::Customer, rng),
                    write: true,
                    cache_install: true,
                });
                for _ in 0..3 {
                    needs.push(BeanNeed {
                        ty: BeanType::Item,
                        key: self.sample_key(BeanType::Item, rng),
                        write: false,
                        cache_install: true,
                    });
                }
                let key = self.next_order;
                self.next_order += 1;
                needs.push(BeanNeed {
                    ty: BeanType::Order,
                    key,
                    write: true,
                    cache_install: false,
                });
            }
            BBop::OrderStatus => {
                needs.push(BeanNeed {
                    ty: BeanType::Customer,
                    key: self.sample_key(BeanType::Customer, rng),
                    write: false,
                    cache_install: true,
                });
                if self.next_order > 0 {
                    let back = rng.gen_range(0..RECENT_ORDERS);
                    needs.push(BeanNeed {
                        ty: BeanType::Order,
                        key: self.next_order.saturating_sub(1 + back),
                        write: false,
                        cache_install: true,
                    });
                }
            }
            BBop::ManufactureStep => {
                needs.push(BeanNeed {
                    ty: BeanType::WorkOrder,
                    key: self.sample_key(BeanType::WorkOrder, rng),
                    write: true,
                    cache_install: true,
                });
                for _ in 0..4 {
                    needs.push(BeanNeed {
                        ty: BeanType::Part,
                        key: self.sample_key(BeanType::Part, rng),
                        write: false,
                        cache_install: true,
                    });
                }
                needs.push(BeanNeed {
                    ty: BeanType::Item,
                    key: self.sample_key(BeanType::Item, rng),
                    write: false,
                    cache_install: true,
                });
            }
            BBop::SupplierCycle => {
                let key = self.next_po;
                self.next_po += 1;
                needs.push(BeanNeed {
                    ty: BeanType::PurchaseOrder,
                    key,
                    write: true,
                    cache_install: true,
                });
                for _ in 0..2 {
                    needs.push(BeanNeed {
                        ty: BeanType::Part,
                        key: self.sample_key(BeanType::Part, rng),
                        write: true,
                        cache_install: true,
                    });
                }
            }
        }
        let w = &mut self.workers[worker];
        w.needs = needs;
        w.need_idx = 0;
        w.pending = None;
    }

    /// TLAB bytes a BBop may need before its next safe GC point: the
    /// worst-case BBop misses on every entity it touches and installs a
    /// fresh bean for each, plus servlet scratch, XML documents and the
    /// reply session object.
    fn bbop_alloc_budget(&self) -> u64 {
        let worst_beans = 6 * 2048;
        SCRATCH_PER_BBOP as u64 + worst_beans + 4096 + 1024 + 1024
    }

    /// Allocates, or reports that a collection is needed. A failure
    /// mid-BBop is legal: another thread's collection retires every TLAB,
    /// and under allocation pressure eden can be dry again by the time
    /// this thread resumes. The caller re-runs its phase after the GC.
    fn try_alloc(
        heap: &mut Heap,
        tlab: &mut jvm::alloc::Tlab,
        size: u32,
        lifetime: Lifetime,
        sink: &mut (impl MemSink + ?Sized),
    ) -> Option<ObjectId> {
        match tlab.alloc(heap, size, lifetime, sink) {
            AllocOutcome::Ok(id) => Some(id),
            AllocOutcome::NeedsGc => None,
        }
    }

    fn db_latency_and_count(&mut self) -> u64 {
        self.db_roundtrips += 1;
        DB_LATENCY
    }
}

impl Workload for Ecperf {
    fn thread_count(&self) -> usize {
        self.cfg.threads
    }

    fn lock_table(&self) -> Vec<LockDesc> {
        let mut locks = vec![LockDesc::mutex(); CACHE_STRIPES as usize];
        locks.push(LockDesc::semaphore(self.cfg.db_connections)); // CONN_POOL
        for _ in 0..KNET_LOCKS {
            locks.push(LockDesc::spin_mutex());
        }
        locks
    }

    fn region_map(&self) -> memsys::RegionMap {
        let mut map =
            crate::regions::jvm_region_map(&self.heap, &self.code, &self.lockset, &self.threads);
        map.insert(self.kernel_region, "kernel");
        map
    }

    fn step(&mut self, thread: usize, ctx: &mut StepCtx<'_>) -> StepResult {
        let phase = self.workers[thread].phase;
        match phase {
            Phase::Begin => {
                let budget = self.bbop_alloc_budget();
                if !self.threads[thread].tlab.ensure(&mut self.heap, budget) {
                    return StepResult::user(Control::NeedsGc);
                }
                // Response time starts here; a NeedsGc re-run of this
                // phase keeps the original start (the pause counts).
                self.tx_begin[thread].get_or_insert(ctx.now);
                self.build_needs(thread, ctx.rng);
                ctx.sink.instructions(PAD_INSTRUCTIONS / 3);
                self.workers[thread].phase = Phase::RecvAcq;
                StepResult::user(Control::Continue)
            }
            Phase::RecvAcq => {
                let lock = Self::knet();
                ctx.sink.instructions(40); // mutex_enter path
                self.workers[thread].phase = Phase::RecvMsg;
                StepResult::system(Control::Acquire(lock))
            }
            Phase::RecvMsg => {
                let lock = Self::knet();
                let sink = &mut *ctx.sink;
                self.net.emit_protocol(thread, sink);
                self.net.emit_transfer(thread, 512, sink);
                self.workers[thread].phase = Phase::Servlet;
                StepResult::system(Control::Release(lock))
            }
            Phase::Servlet => {
                let sink = &mut *ctx.sink;
                for _ in 0..FRAMES_PER_BBOP {
                    self.threads[thread].push_frame(FRAME_BYTES, sink);
                }
                self.methods
                    .exec_path(&self.code, CALLS_PER_BBOP / 3, ctx.rng, sink);
                if Self::try_alloc(
                    &mut self.heap,
                    &mut self.threads[thread].tlab,
                    SCRATCH_PER_BBOP,
                    Lifetime::Ephemeral,
                    sink,
                )
                .is_none()
                {
                    return StepResult::user(Control::NeedsGc);
                }
                self.workers[thread].phase = Phase::BeanNext;
                StepResult::user(Control::Continue)
            }
            Phase::BeanNext => {
                let w = &self.workers[thread];
                if w.need_idx >= w.needs.len() {
                    self.workers[thread].phase = Phase::Business;
                    return StepResult::user(Control::Continue);
                }
                let need = w.needs[w.need_idx];
                if !need.ty.cacheable() {
                    // Supplier documents bypass the cache and the pool.
                    self.workers[thread].pending = Some(need);
                    self.workers[thread].phase = Phase::SendAcq;
                    return StepResult::user(Control::Continue);
                }
                if !need.cache_install {
                    // Write-through create: database round trip, no
                    // cache installation.
                    self.workers[thread].pending = Some(need);
                    self.workers[thread].phase = Phase::ConnAcq;
                    return StepResult::user(Control::Continue);
                }
                let stripe = Self::stripe(&need);
                self.lockset.emit_acquire(LockId(stripe), &mut *ctx.sink);
                self.workers[thread].phase = Phase::BeanProbe;
                StepResult::user(Control::Acquire(SchedLock(stripe)))
            }
            Phase::BeanProbe => {
                let need = self.workers[thread].needs[self.workers[thread].need_idx];
                let sink = &mut *ctx.sink;
                sink.instructions(60); // hash + probe
                match self
                    .cache
                    .lookup(BeanKey::new(need.ty.tag(), need.key), ctx.now)
                {
                    CacheLookup::Hit(obj) => {
                        // Field access, not a full scan: the container
                        // hands out the bean and the BBop reads the
                        // fields it needs. The container also *writes*
                        // the bean header on every activation (pin count,
                        // access time) — the mechanism that spreads
                        // ECperf's communication across its whole entity
                        // working set (Figures 14/15).
                        self.heap.read_object_prefix(obj, 2, sink);
                        sink.store(self.heap.addr_of(obj));
                        if need.write {
                            sink.store(self.heap.addr_of(obj).offset(64));
                        }
                        self.workers[thread].need_idx += 1;
                        self.workers[thread].phase = Phase::BeanNext;
                    }
                    CacheLookup::Stale(obj) => {
                        // Revalidation: read what we have, then reload.
                        self.heap.read_object_prefix(obj, 2, sink);
                        self.workers[thread].pending = Some(need);
                        self.workers[thread].phase = Phase::ConnAcq;
                    }
                    CacheLookup::Miss => {
                        self.workers[thread].pending = Some(need);
                        self.workers[thread].phase = Phase::ConnAcq;
                    }
                }
                let stripe = Self::stripe(&need);
                self.lockset.emit_release(LockId(stripe), sink);
                StepResult::user(Control::Release(SchedLock(stripe)))
            }
            Phase::ConnAcq => {
                // Pool checkout: RMW on the pool's free-list head line.
                self.lockset.emit_acquire(LockId(CONN_POOL), &mut *ctx.sink);
                self.workers[thread].phase = Phase::SendAcq;
                StepResult::user(Control::Acquire(SchedLock(CONN_POOL)))
            }
            Phase::SendAcq => {
                let lock = Self::knet();
                ctx.sink.instructions(40);
                self.workers[thread].phase = Phase::SendMsg;
                StepResult::system(Control::Acquire(lock))
            }
            Phase::SendMsg => {
                let conn = self.cfg.threads + thread;
                let lock = Self::knet();
                let supplier = self.workers[thread]
                    .pending
                    .is_some_and(|n| n.ty.uses_supplier_emulator());
                let bytes = if supplier { 4096 } else { 256 };
                let sink = &mut *ctx.sink;
                self.net.emit_protocol(conn, sink);
                self.net.emit_transfer(conn, bytes, sink);
                self.workers[thread].phase = Phase::RemoteWait;
                StepResult::system(Control::Release(lock))
            }
            Phase::RemoteWait => {
                if self.cfg.log_queries {
                    if let Some(n) = self.workers[thread].pending {
                        if !n.ty.uses_supplier_emulator() {
                            self.query_log.push(DbQuery {
                                ty: n.ty,
                                key: n.key,
                                write: n.write,
                            });
                        }
                    }
                }
                let supplier = self.workers[thread]
                    .pending
                    .is_some_and(|n| n.ty.uses_supplier_emulator());
                let base = if supplier {
                    SUPPLIER_LATENCY
                } else {
                    self.db_latency_and_count()
                };
                let jitter = ctx.rng.gen_range(0..base / 4 + 1);
                self.workers[thread].phase = Phase::RespAcq;
                StepResult::user(Control::IoWait(base + jitter))
            }
            Phase::RespAcq => {
                let lock = Self::knet();
                ctx.sink.instructions(40);
                self.workers[thread].phase = Phase::RespMsg;
                StepResult::system(Control::Acquire(lock))
            }
            Phase::RespMsg => {
                let conn = self.cfg.threads + thread;
                let lock = Self::knet();
                let supplier = self.workers[thread]
                    .pending
                    .is_some_and(|n| n.ty.uses_supplier_emulator());
                let bytes = if supplier { 4096 } else { 2048 };
                let sink = &mut *ctx.sink;
                self.net.emit_protocol(conn, sink);
                self.net.emit_transfer(conn, bytes, sink);
                let transient = self.workers[thread]
                    .pending
                    .is_some_and(|n| !n.cache_install && !n.ty.uses_supplier_emulator());
                self.workers[thread].phase = if supplier {
                    Phase::ParsePo
                } else if transient {
                    Phase::Transient
                } else {
                    Phase::InstallAcq
                };
                StepResult::system(Control::Release(lock))
            }
            Phase::ParsePo => {
                let sink = &mut *ctx.sink;
                sink.instructions(XML_PARSE_INSTRUCTIONS);
                let need = self.workers[thread].pending.expect("pending PO");
                if Self::try_alloc(
                    &mut self.heap,
                    &mut self.threads[thread].tlab,
                    need.ty.bytes(),
                    Lifetime::Ephemeral,
                    sink,
                )
                .is_none()
                {
                    return StepResult::user(Control::NeedsGc);
                }
                self.workers[thread].pending = None;
                self.workers[thread].need_idx += 1;
                self.workers[thread].phase = Phase::BeanNext;
                StepResult::user(Control::Continue)
            }
            Phase::Transient => {
                let need = self.workers[thread].pending.expect("pending create");
                let sink = &mut *ctx.sink;
                sink.instructions(500); // result-set marshalling
                if Self::try_alloc(
                    &mut self.heap,
                    &mut self.threads[thread].tlab,
                    need.ty.bytes(),
                    Lifetime::Ephemeral,
                    sink,
                )
                .is_none()
                {
                    return StepResult::user(Control::NeedsGc);
                }
                self.workers[thread].pending = None;
                self.workers[thread].phase = Phase::ConnRel;
                StepResult::user(Control::Continue)
            }
            Phase::InstallAcq => {
                let need = self.workers[thread].pending.expect("pending bean");
                let stripe = Self::stripe(&need);
                self.lockset.emit_acquire(LockId(stripe), &mut *ctx.sink);
                self.workers[thread].phase = Phase::Install;
                StepResult::user(Control::Acquire(SchedLock(stripe)))
            }
            Phase::Install => {
                let need = self.workers[thread].pending.expect("pending bean");
                let sink = &mut *ctx.sink;
                // Materialize the bean: allocate and populate it. On
                // allocation failure the thread keeps the cache lock and
                // retries this phase after the collection.
                let Some(obj) = Self::try_alloc(
                    &mut self.heap,
                    &mut self.threads[thread].tlab,
                    need.ty.bytes(),
                    Lifetime::Permanent,
                    sink,
                ) else {
                    return StepResult::user(Control::NeedsGc);
                };
                self.workers[thread].pending = None;
                // The allocation's initializing stores already populated
                // the bean; no second full-object write.
                if let Some(evicted) =
                    self.cache
                        .insert(BeanKey::new(need.ty.tag(), need.key), obj, ctx.now)
                {
                    self.heap.free(evicted);
                }
                let stripe = Self::stripe(&need);
                self.lockset.emit_release(LockId(stripe), sink);
                self.workers[thread].phase = Phase::ConnRel;
                StepResult::user(Control::Release(SchedLock(stripe)))
            }
            Phase::ConnRel => {
                self.lockset.emit_release(LockId(CONN_POOL), &mut *ctx.sink);
                self.workers[thread].need_idx += 1;
                self.workers[thread].phase = Phase::BeanNext;
                StepResult::user(Control::Release(SchedLock(CONN_POOL)))
            }
            Phase::Business => {
                let sink = &mut *ctx.sink;
                self.methods.exec_path(
                    &self.code,
                    CALLS_PER_BBOP - CALLS_PER_BBOP / 3,
                    ctx.rng,
                    sink,
                );
                sink.instructions(PAD_INSTRUCTIONS / 3);
                // Apply updates to the written entities (dirty shared
                // bean lines: ECperf's wide communication footprint).
                for i in 0..self.workers[thread].needs.len() {
                    let need = self.workers[thread].needs[i];
                    if !need.write || !need.ty.cacheable() {
                        continue;
                    }
                    if let CacheLookup::Hit(obj) | CacheLookup::Stale(obj) = self
                        .cache
                        .lookup(BeanKey::new(need.ty.tag(), need.key), ctx.now)
                    {
                        sink.store(self.heap.addr_of(obj));
                        sink.store(self.heap.addr_of(obj).offset(64));
                    }
                }
                // Session state for the reply (short-lived).
                let epoch = self.heap.epoch();
                if Self::try_alloc(
                    &mut self.heap,
                    &mut self.threads[thread].tlab,
                    1024,
                    Lifetime::Session {
                        expires_epoch: epoch + 24,
                    },
                    sink,
                )
                .is_none()
                {
                    return StepResult::user(Control::NeedsGc);
                }
                self.workers[thread].phase = Phase::ReplyAcq;
                StepResult::user(Control::Continue)
            }
            Phase::ReplyAcq => {
                let lock = Self::knet();
                ctx.sink.instructions(40);
                self.workers[thread].phase = Phase::ReplyMsg;
                StepResult::system(Control::Acquire(lock))
            }
            Phase::ReplyMsg => {
                let lock = Self::knet();
                let sink = &mut *ctx.sink;
                self.net.emit_protocol(thread, sink);
                self.net.emit_transfer(thread, 1024, sink);
                self.workers[thread].phase = Phase::Finish;
                StepResult::system(Control::Release(lock))
            }
            Phase::Finish => {
                let sink = &mut *ctx.sink;
                // JVM-internal shared-structure updates (as in SPECjbb).
                let jvm = self.heap.addr_of(self.jvm_shared);
                for _ in 0..2 {
                    let line = ctx.rng.gen_range(0..32u64);
                    sink.load(jvm.offset(line * 64));
                    sink.store(jvm.offset(line * 64));
                }
                for _ in 0..FRAMES_PER_BBOP {
                    self.threads[thread].pop_frame(FRAME_BYTES, sink);
                }
                self.threads[thread].unwind();
                sink.instructions(PAD_INSTRUCTIONS / 3);
                self.heap.advance_epoch(1);
                self.tx_done[thread] += 1;
                if let Some(begin) = self.tx_begin[thread].take() {
                    self.resp_hist.record(ctx.now.saturating_sub(begin));
                }
                self.workers[thread].phase = Phase::Begin;
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
        Some(Ecperf::response_hist(self))
    }

    fn reset_response_hist(&mut self) {
        Ecperf::reset_response_hist(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{Addr, CountingSink};
    use prng::SimRng;

    fn small() -> Ecperf {
        let mut cfg = EcperfConfig::scaled(2, 64);
        cfg.threads = 4;
        cfg.db_connections = 2;
        let region = AddrRange::new(Addr(0x1000_0000), cfg.required_bytes());
        Ecperf::new(cfg, region)
    }

    /// A permissive driver: grants all locks, sleeps through IoWaits,
    /// collects on demand, and advances a fake clock. Returns the
    /// completed BBops, the collections and the longest IoWait.
    fn drive(ec: &mut Ecperf, thread: usize, steps: usize) -> (u64, u64, u64) {
        let mut rng = SimRng::seed_from_u64(9);
        let mut sink = CountingSink::new();
        let mut now = 0u64;
        let mut txs = 0;
        let mut gcs = 0;
        let mut longest_wait = 0;
        for _ in 0..steps {
            let mut ctx = StepCtx {
                sink: &mut sink,
                rng: &mut rng,
                now,
            };
            match ec.step(thread, &mut ctx).control {
                Control::TxDone => txs += 1,
                Control::NeedsGc => {
                    ec.collect(&mut sink);
                    gcs += 1;
                }
                Control::IoWait(c) => {
                    longest_wait = longest_wait.max(c);
                    now += c;
                }
                _ => now += 1_000,
            }
        }
        (txs, gcs, longest_wait)
    }

    #[test]
    fn bbops_complete_and_collections_run() {
        let mut ec = small();
        let (txs, gcs, _) = drive(&mut ec, 0, 60_000);
        assert!(txs > 500, "BBops must flow: {txs}");
        assert!(gcs > 0, "the scaled eden must fill: {gcs}");
        assert_eq!(ec.total_tx(), txs);
    }

    #[test]
    fn cache_warms_up_and_cuts_db_roundtrips() {
        let mut ec = small();
        drive(&mut ec, 0, 20_000);
        let early_rt = ec.db_roundtrips();
        let early_tx = ec.total_tx();
        drive(&mut ec, 0, 40_000);
        let late_rt = ec.db_roundtrips() - early_rt;
        let late_tx = ec.total_tx() - early_tx;
        let early_per_tx = early_rt as f64 / early_tx.max(1) as f64;
        let late_per_tx = late_rt as f64 / late_tx.max(1) as f64;
        assert!(
            late_per_tx < early_per_tx,
            "warm cache must reduce round trips per BBop: early {early_per_tx:.2}, late {late_per_tx:.2}"
        );
        assert!(ec.cache().stats().hits > 0);
    }

    #[test]
    fn supplier_cycles_reach_the_emulator() {
        // Only a supplier reply waits `SUPPLIER_LATENCY` or longer (see
        // the const assertion beside `DB_LATENCY`).
        let mut ec = small();
        let (_, _, longest_wait) = drive(&mut ec, 0, 80_000);
        assert!(
            longest_wait >= SUPPLIER_LATENCY,
            "the BBop mix includes supplier cycles: longest wait {longest_wait}"
        );
    }

    #[test]
    fn lock_table_matches_indices() {
        let ec = small();
        let locks = ec.lock_table();
        assert_eq!(locks.len() as u32, KNET_BASE + KNET_LOCKS);
        assert_eq!(locks[CACHE_LOCK_BASE as usize].capacity, 1);
        assert_eq!(locks[CONN_POOL as usize].capacity, 2);
        assert_eq!(locks[KNET_BASE as usize].wait, crate::model::WaitKind::Spin);
    }

    #[test]
    fn acquires_and_releases_balance() {
        let mut ec = small();
        let mut rng = SimRng::seed_from_u64(3);
        let mut sink = CountingSink::new();
        let mut now = 0u64;
        let mut held: std::collections::HashMap<u32, i64> = std::collections::HashMap::new();
        for _ in 0..5_000 {
            let mut ctx = StepCtx {
                sink: &mut sink,
                rng: &mut rng,
                now,
            };
            match ec.step(0, &mut ctx).control {
                Control::Acquire(SchedLock(l)) => *held.entry(l).or_insert(0) += 1,
                Control::Release(SchedLock(l)) => *held.entry(l).or_insert(0) -= 1,
                Control::NeedsGc => ec.collect(&mut sink),
                Control::IoWait(c) => now += c,
                _ => now += 500,
            }
        }
        for (l, v) in held {
            assert!(
                (0..=1).contains(&v),
                "lock {l} acquire/release imbalance: {v}"
            );
        }
    }

    #[test]
    fn code_footprint_is_much_larger_than_specjbb() {
        let ec = small();
        let jbb_cfg = crate::specjbb::SpecJbbConfig::scaled(2, 64);
        let jbb_region = AddrRange::new(Addr(0x1000_0000), jbb_cfg.required_bytes());
        let jbb = crate::specjbb::SpecJbb::new(jbb_cfg, jbb_region);
        assert!(
            ec.code_footprint() > 3 * jbb.code_footprint(),
            "paper Figure 12: ECperf's instruction footprint is much larger ({} vs {})",
            ec.code_footprint(),
            jbb.code_footprint()
        );
    }

    #[test]
    fn ecperf_heap_stays_bounded_as_it_runs() {
        let mut ec = small();
        drive(&mut ec, 0, 40_000);
        let a = ec.heap_after_last_gc().expect("collections ran");
        drive(&mut ec, 0, 80_000);
        let b = ec.heap_after_last_gc().unwrap();
        // The middle tier's data set must not grow without bound
        // (Figure 11: ECperf's memory use is roughly constant).
        assert!(
            b < 2 * a + (1 << 20),
            "ECperf live data must stay bounded: {a} -> {b}"
        );
    }
}
