//! The database tier: a small relational-ish engine on its own machine.
//!
//! ECperf's database runs on a second E6000 (paper Section 3.1). The
//! paper filters the database machine's memory traffic out of its
//! middle-tier measurements, so the main experiments model the database
//! as a reply latency — but the tier itself is a real system, and the
//! cluster example simulates it: B-tree tables per entity type, a buffer
//! pool in its own address space, and a query executor that emits the
//! tier's memory references through a [`MemSink`].
//!
//! The paper notes that "ECperf does not overly stress the database" and
//! that the whole database fit in the buffer pool (Section 3.2) — which
//! is exactly the regime this engine models: all pages resident, queries
//! bounded by index descent plus row access.

use jvm::heap::{Heap, HeapConfig, HeapGeometry};
use jvm::object::ObjectId;
use memsys::{AddrRange, MemSink};

use crate::ecperf::beans::BeanType;
use crate::objtree::{build_table, ObjTree};

/// Database sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseConfig {
    /// Rows per entity table, scaled from the bean keyspaces.
    pub keyspace_divisor: u64,
    /// Bytes per row (on top of the entity payload: slot headers, index
    /// entries).
    pub row_overhead: u32,
    /// Instructions per SQL statement beyond the index/row work
    /// (parse/plan cache hit, latching, logging).
    pub statement_instructions: u64,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            keyspace_divisor: 1,
            row_overhead: 64,
            statement_instructions: 2_500,
        }
    }
}

/// One table: a clustered B-tree of row objects.
#[derive(Debug, Clone)]
struct Table {
    ty: BeanType,
    index: ObjTree,
    next_row: u64,
}

/// The database engine and its buffer pool (a dedicated heap).
pub struct Database {
    pool: Heap,
    tables: Vec<Table>,
    cfg: DatabaseConfig,
    /// The transaction log tail (sequential writes, one hot line each).
    log_cursor: u64,
    log: AddrRange,
}

impl Database {
    /// Builds the database inside `region` (its own machine's memory).
    ///
    /// # Panics
    ///
    /// Panics if the region cannot hold the buffer pool.
    pub fn new(cfg: DatabaseConfig, mut region: AddrRange) -> Self {
        let log = region.take(1 << 20).expect("log region");
        let geometry = HeapGeometry {
            eden: 8 << 20,
            survivor: 1 << 20,
            old: region.len() - (12 << 20),
        };
        let mut pool = Heap::new(
            HeapConfig {
                geometry,
                tlab_bytes: 64 << 10,
            },
            region,
        );
        let tables = crate::ecperf::beans::ALL_BEAN_TYPES
            .iter()
            .filter(|t| !t.uses_supplier_emulator())
            .map(|&ty| {
                let rows = (ty.keyspace() / cfg.keyspace_divisor).clamp(64, 1 << 20);
                let row_bytes = ty.bytes() + cfg.row_overhead;
                let mut sink = memsys::CountingSink::new();
                Table {
                    ty,
                    index: build_table(&mut pool, rows, row_bytes, &mut sink),
                    next_row: rows,
                }
            })
            .collect();
        Database {
            pool,
            tables,
            cfg,
            log_cursor: 0,
            log,
        }
    }

    /// Buffer-pool bytes in use.
    pub fn pool_bytes(&self) -> u64 {
        self.pool.occupied_bytes()
    }

    fn table_mut(&mut self, ty: BeanType) -> Option<usize> {
        self.tables.iter().position(|t| t.ty == ty)
    }

    /// Serves a SELECT by primary key: index descent + row read.
    /// Returns the row object when found.
    pub fn select(
        &mut self,
        ty: BeanType,
        key: u64,
        sink: &mut (impl MemSink + ?Sized),
    ) -> Option<ObjectId> {
        sink.instructions(self.cfg.statement_instructions);
        let idx = self.table_mut(ty)?;
        let rows = self.tables[idx].next_row.max(1);
        self.tables[idx].index.lookup(key % rows, &self.pool, sink)
    }

    /// Serves an UPDATE by primary key: index descent, row write, and a
    /// sequential log append.
    pub fn update(&mut self, ty: BeanType, key: u64, sink: &mut (impl MemSink + ?Sized)) -> bool {
        sink.instructions(self.cfg.statement_instructions);
        let Some(idx) = self.table_mut(ty) else {
            return false;
        };
        let rows = self.tables[idx].next_row.max(1);
        let row = self.tables[idx].index.lookup(key % rows, &self.pool, sink);
        if let Some(row) = row {
            sink.store(self.pool.addr_of(row));
            self.append_log(sink);
            true
        } else {
            false
        }
    }

    /// Serves an INSERT: allocate a row in the pool, insert into the
    /// index, log.
    pub fn insert(&mut self, ty: BeanType, sink: &mut (impl MemSink + ?Sized)) -> Option<u64> {
        sink.instructions(self.cfg.statement_instructions);
        let row_bytes = ty.bytes() + self.cfg.row_overhead;
        let idx = self.table_mut(ty)?;
        let key = self.tables[idx].next_row;
        self.tables[idx].next_row += 1;
        let row = self.pool.alloc_permanent_old(row_bytes);
        // Split borrows: the tree insert needs the pool mutably.
        let Table { index, .. } = &mut self.tables[idx];
        index.insert(key, row, &mut self.pool, sink);
        self.append_log(sink);
        Some(key)
    }

    fn append_log(&mut self, sink: &mut (impl MemSink + ?Sized)) {
        let lines = self.log.line_count();
        let line = self.log.start().line().step(self.log_cursor % lines);
        sink.store(line.base());
        self.log_cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{Addr, CountingSink};

    fn db() -> Database {
        Database::new(
            DatabaseConfig {
                keyspace_divisor: 50,
                ..DatabaseConfig::default()
            },
            AddrRange::new(Addr(0x8000_0000), 128 << 20),
        )
    }

    /// Resident rows across all tables.
    fn rows(d: &Database) -> usize {
        d.tables.iter().map(|t| t.index.len()).sum()
    }

    #[test]
    fn tables_are_populated_for_every_persistent_entity() {
        let d = db();
        assert_eq!(d.tables.len(), 5, "every cacheable entity has a table");
        assert!(rows(&d) > 500);
        assert!(d.pool_bytes() > 0);
    }

    #[test]
    fn select_reads_index_and_row() {
        let mut d = db();
        let mut sink = CountingSink::new();
        let row = d.select(BeanType::Customer, 42, &mut sink);
        assert!(row.is_some());
        assert!(sink.loads >= 4, "descent + row read: {}", sink.loads);
        assert!(sink.instructions >= 2_500);
    }

    #[test]
    fn update_writes_row_and_log() {
        let mut d = db();
        let mut sink = CountingSink::new();
        assert!(d.update(BeanType::Part, 7, &mut sink));
        assert!(sink.stores >= 2, "row write + log append");
    }

    #[test]
    fn insert_grows_the_table_and_is_selectable() {
        let mut d = db();
        let mut sink = CountingSink::new();
        let before = rows(&d);
        let key = d.insert(BeanType::Order, &mut sink).expect("insert");
        assert_eq!(rows(&d), before + 1);
        assert!(d.select(BeanType::Order, key, &mut sink).is_some());
    }

    #[test]
    fn log_appends_are_sequential_lines() {
        let mut d = db();
        let mut a = memsys::RecordingSink::new();
        d.update(BeanType::Customer, 1, &mut a);
        let mut b = memsys::RecordingSink::new();
        d.update(BeanType::Customer, 2, &mut b);
        let last_a = a.refs.last().unwrap().1;
        let last_b = b.refs.last().unwrap().1;
        assert_eq!(last_b.0, last_a.0 + 64, "log walks forward line by line");
    }
}
