//! B-trees of simulated heap objects — SPECjbb's in-memory database.
//!
//! SPECjbb "stores its data in memory as trees of Java objects" instead of
//! using a database engine (Section 2.1). [`ObjTree`] is a real B-tree
//! whose nodes and records are objects in the simulated [`Heap`]: lookups
//! walk interior-node objects and read the record object, inserts may
//! split nodes (allocating new node objects), and every traversal emits
//! its references through a [`MemSink`]. The paper's observation that the
//! object trees "are updated sparsely enough that they rarely result in
//! cache-to-cache transfers" (Section 5.2) then falls out of the access
//! pattern rather than being assumed.

use jvm::heap::Heap;
use jvm::object::ObjectId;
use memsys::MemSink;

/// B-tree fanout (keys per interior node).
const FANOUT: usize = 16;

/// Bytes per interior-node object (keys + child pointers + header).
const NODE_BYTES: u32 = 256;

/// Instructions per node visited during descent (compares + branch).
const DESCENT_INSTRUCTIONS: u64 = 30;

/// One B-tree node: either interior (children) or leaf (records).
#[derive(Debug, Clone)]
enum Node {
    Interior {
        keys: Vec<u64>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<u64>,
        records: Vec<ObjectId>,
    },
}

/// A B-tree keyed by `u64` mapping to record objects in the heap.
///
/// The tree's *structure* (keys, child indices) lives in the simulator for
/// speed, but every node also owns a heap object whose lines are read
/// during descent, so the memory system sees the traversal.
#[derive(Debug, Clone)]
pub struct ObjTree {
    nodes: Vec<Node>,
    /// Heap object backing each node.
    node_objs: Vec<ObjectId>,
    root: usize,
    len: usize,
}

impl ObjTree {
    /// Creates an empty tree with its root node allocated in the old
    /// generation of `heap` (trees are long-lived database structure).
    pub fn new(heap: &mut Heap) -> Self {
        let root_obj = heap.alloc_permanent_old(NODE_BYTES);
        ObjTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                records: Vec::new(),
            }],
            node_objs: vec![root_obj],
            root: 0,
            len: 0,
        }
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Walks from the root to the leaf responsible for `key`, emitting a
    /// read of the first line of every node object visited. Returns the
    /// leaf index.
    fn descend(&self, key: u64, heap: &Heap, sink: &mut (impl MemSink + ?Sized)) -> usize {
        let mut idx = self.root;
        loop {
            sink.instructions(DESCENT_INSTRUCTIONS);
            sink.load(heap.addr_of(self.node_objs[idx]));
            match &self.nodes[idx] {
                Node::Leaf { .. } => return idx,
                Node::Interior { keys, children } => {
                    let pos = keys.partition_point(|&k| k <= key);
                    idx = children[pos];
                }
            }
        }
    }

    /// Looks up `key`, reading the record object on a hit.
    pub fn lookup(
        &self,
        key: u64,
        heap: &Heap,
        sink: &mut (impl MemSink + ?Sized),
    ) -> Option<ObjectId> {
        let leaf = self.descend(key, heap, sink);
        let Node::Leaf { keys, records } = &self.nodes[leaf] else {
            unreachable!("descend returns a leaf");
        };
        let pos = keys.binary_search(&key).ok()?;
        let rec = records[pos];
        heap.read_object(rec, sink);
        Some(rec)
    }

    /// Inserts `key -> record`, splitting nodes as needed. New nodes
    /// allocate node objects in the old generation (tree structure is
    /// permanent) and emit their initialization writes.
    ///
    /// Returns the previous record for the key, if any.
    pub fn insert(
        &mut self,
        key: u64,
        record: ObjectId,
        heap: &mut Heap,
        sink: &mut (impl MemSink + ?Sized),
    ) -> Option<ObjectId> {
        let leaf = self.descend(key, heap, sink);
        // Write the leaf node object (the update itself).
        sink.store(heap.addr_of(self.node_objs[leaf]));
        let Node::Leaf { keys, records } = &mut self.nodes[leaf] else {
            unreachable!("descend returns a leaf");
        };
        match keys.binary_search(&key) {
            Ok(pos) => {
                let old = records[pos];
                records[pos] = record;
                return Some(old);
            }
            Err(pos) => {
                keys.insert(pos, key);
                records.insert(pos, record);
                self.len += 1;
            }
        }
        if let Node::Leaf { keys, .. } = &self.nodes[leaf] {
            if keys.len() > 2 * FANOUT {
                self.split_leaf(leaf, heap, sink);
            }
        }
        None
    }

    fn split_leaf(&mut self, leaf: usize, heap: &mut Heap, sink: &mut (impl MemSink + ?Sized)) {
        let (up_key, right) = {
            let Node::Leaf { keys, records } = &mut self.nodes[leaf] else {
                unreachable!("split target is a leaf");
            };
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid);
            let right_records = records.split_off(mid);
            (
                right_keys[0],
                Node::Leaf {
                    keys: right_keys,
                    records: right_records,
                },
            )
        };
        let right_idx = self.nodes.len();
        self.nodes.push(right);
        let node_obj = heap.alloc_permanent_old(NODE_BYTES);
        heap.write_object(node_obj, sink);
        self.node_objs.push(node_obj);
        self.insert_into_parent(leaf, up_key, right_idx, heap, sink);
    }

    fn insert_into_parent(
        &mut self,
        left: usize,
        key: u64,
        right: usize,
        heap: &mut Heap,
        sink: &mut (impl MemSink + ?Sized),
    ) {
        if left == self.root {
            // Grow a new root.
            let new_root = self.nodes.len();
            self.nodes.push(Node::Interior {
                keys: vec![key],
                children: vec![left, right],
            });
            let obj = heap.alloc_permanent_old(NODE_BYTES);
            heap.write_object(obj, sink);
            self.node_objs.push(obj);
            self.root = new_root;
            return;
        }
        let parent = self
            .parent_of(self.root, left)
            .expect("non-root node has a parent");
        sink.store(heap.addr_of(self.node_objs[parent]));
        let Node::Interior { keys, children } = &mut self.nodes[parent] else {
            unreachable!("parent is interior");
        };
        let pos = keys.partition_point(|&k| k <= key);
        keys.insert(pos, key);
        children.insert(pos + 1, right);
        if keys.len() > 2 * FANOUT {
            self.split_interior(parent, heap, sink);
        }
    }

    fn split_interior(&mut self, node: usize, heap: &mut Heap, sink: &mut (impl MemSink + ?Sized)) {
        let (up_key, right) = {
            let Node::Interior { keys, children } = &mut self.nodes[node] else {
                unreachable!("split target is interior");
            };
            let mid = keys.len() / 2;
            let up = keys[mid];
            let right_keys = keys.split_off(mid + 1);
            keys.pop();
            let right_children = children.split_off(mid + 1);
            (
                up,
                Node::Interior {
                    keys: right_keys,
                    children: right_children,
                },
            )
        };
        let right_idx = self.nodes.len();
        self.nodes.push(right);
        let obj = heap.alloc_permanent_old(NODE_BYTES);
        heap.write_object(obj, sink);
        self.node_objs.push(obj);
        self.insert_into_parent(node, up_key, right_idx, heap, sink);
    }

    /// Finds the parent of `target` under `node` (O(n) — used only on the
    /// rare split path).
    fn parent_of(&self, node: usize, target: usize) -> Option<usize> {
        match &self.nodes[node] {
            Node::Leaf { .. } => None,
            Node::Interior { children, .. } => {
                if children.contains(&target) {
                    return Some(node);
                }
                children.iter().find_map(|&c| self.parent_of(c, target))
            }
        }
    }

    /// Removes `key`, returning its record. Leaves are allowed to
    /// underflow (no rebalancing — deletions in these workloads are rare
    /// retirements, matching SPECjbb's order-delivery pattern).
    pub fn remove(
        &mut self,
        key: u64,
        heap: &Heap,
        sink: &mut (impl MemSink + ?Sized),
    ) -> Option<ObjectId> {
        let leaf = self.descend(key, heap, sink);
        sink.store(heap.addr_of(self.node_objs[leaf]));
        let Node::Leaf { keys, records } = &mut self.nodes[leaf] else {
            unreachable!("descend returns a leaf");
        };
        let pos = keys.binary_search(&key).ok()?;
        keys.remove(pos);
        self.len -= 1;
        Some(records.remove(pos))
    }

    /// Visits every record (table scan), reading each record object.
    pub fn scan(
        &self,
        heap: &Heap,
        sink: &mut (impl MemSink + ?Sized),
        mut f: impl FnMut(u64, ObjectId),
    ) {
        for node in &self.nodes {
            if let Node::Leaf { keys, records } = node {
                for (k, r) in keys.iter().zip(records) {
                    heap.read_object(*r, sink);
                    f(*k, *r);
                }
            }
        }
    }
}

/// Builds a tree pre-populated with `count` records of `record_bytes`
/// each, keyed 0..count (bulk database construction).
pub(crate) fn build_table(
    heap: &mut Heap,
    count: u64,
    record_bytes: u32,
    sink: &mut (impl MemSink + ?Sized),
) -> ObjTree {
    let mut tree = ObjTree::new(heap);
    for key in 0..count {
        let rec = heap.alloc_permanent_old(record_bytes);
        tree.insert(key, rec, heap, sink);
    }
    tree
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
                    old: 64 << 20,
                },
                tlab_bytes: 8 << 10,
            },
            AddrRange::new(Addr(0x4000_0000), 128 << 20),
        )
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut t = ObjTree::new(&mut h);
        let rec = h.alloc_permanent_old(128);
        assert_eq!(t.insert(42, rec, &mut h, &mut sink), None);
        assert_eq!(t.lookup(42, &h, &mut sink), Some(rec));
        assert_eq!(t.lookup(43, &h, &mut sink), None);
    }

    #[test]
    fn bulk_build_is_consistent() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let t = build_table(&mut h, 5000, 128, &mut sink);
        assert_eq!(t.len(), 5000);
        for key in [0u64, 1, 999, 2500, 4999] {
            assert!(t.lookup(key, &h, &mut sink).is_some(), "missing {key}");
        }
        assert!(t.lookup(5000, &h, &mut sink).is_none());
        assert!(t.nodes.len() > 100, "tree must actually branch");
    }

    #[test]
    fn duplicate_insert_replaces_and_returns_old() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut t = ObjTree::new(&mut h);
        let a = h.alloc_permanent_old(64);
        let b = h.alloc_permanent_old(64);
        t.insert(7, a, &mut h, &mut sink);
        assert_eq!(t.insert(7, b, &mut h, &mut sink), Some(a));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(7, &h, &mut sink), Some(b));
    }

    #[test]
    fn remove_deletes_records() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut t = build_table(&mut h, 100, 64, &mut sink);
        assert!(t.remove(50, &h, &mut sink).is_some());
        assert_eq!(t.lookup(50, &h, &mut sink), None);
        assert_eq!(t.len(), 99);
        assert!(t.remove(50, &h, &mut sink).is_none());
    }

    #[test]
    fn lookup_emits_descent_reads() {
        let mut h = heap();
        let mut build_sink = CountingSink::new();
        let t = build_table(&mut h, 10_000, 64, &mut build_sink);
        let mut sink = CountingSink::new();
        t.lookup(1234, &h, &mut sink);
        // Root + at least one interior level + leaf + record lines.
        assert!(sink.loads >= 4, "descent reads: {}", sink.loads);
        assert!(sink.instructions >= 3 * 30);
    }

    #[test]
    fn scan_visits_everything() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let t = build_table(&mut h, 500, 64, &mut sink);
        let mut seen = 0;
        t.scan(&h, &mut sink, |_, _| seen += 1);
        assert_eq!(seen, 500);
    }

    #[test]
    fn ascending_and_random_order_inserts_agree() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut t = ObjTree::new(&mut h);
        let mut keys: Vec<u64> = (0..2000).collect();
        prng::SimRng::seed_from_u64(7).shuffle(&mut keys);
        for &k in &keys {
            let rec = h.alloc_permanent_old(64);
            t.insert(k, rec, &mut h, &mut sink);
        }
        assert_eq!(t.len(), 2000);
        for k in 0..2000 {
            assert!(t.lookup(k, &h, &mut sink).is_some(), "missing {k}");
        }
    }
}
