//! The simulated Java object model.
//!
//! The simulator never stores object *contents* — only identity, placement
//! and lifetime, which is all the memory-system characterization needs.
//! Liveness is modeled by declared lifetime class instead of reachability
//! tracing: transaction scratch is [`Lifetime::Ephemeral`] (dead by the
//! next collection), session state is [`Lifetime::Session`] (dies when its
//! epoch passes), and database/cache structure is [`Lifetime::Permanent`]
//! (lives until explicitly freed). This reproduces the generational
//! behavior the paper measures (Figures 9–11) without the cost of a full
//! heap trace.

use memsys::Addr;

/// Identifies a simulated heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Declared lifetime of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifetime {
    /// Garbage by the next minor collection (transaction temporaries).
    Ephemeral,
    /// Live until the heap's epoch counter passes `expires_epoch`.
    Session {
        /// Epoch at which the object becomes garbage.
        expires_epoch: u64,
    },
    /// Live until [`freed`](crate::heap::Heap::free) (database records,
    /// caches, code-level singletons).
    Permanent,
}

/// Which space an object currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Eden (newly allocated).
    Eden,
    /// A survivor semi-space, with its copy-survival count.
    Survivor,
    /// The old (tenured) generation.
    Old,
}

/// One object's record.
#[derive(Debug, Clone, Copy)]
pub struct ObjectRecord {
    /// Current placement (moves under copying collection).
    pub addr: Addr,
    /// Size in bytes (header included).
    pub size: u32,
    /// Lifetime class.
    pub lifetime: Lifetime,
    /// Current space.
    pub space: Space,
    /// Minor collections survived.
    pub age: u8,
    /// Whether the object has been explicitly freed (Permanent only).
    pub freed: bool,
}

impl ObjectRecord {
    /// Whether the object is live at `epoch`.
    pub(crate) fn is_live(&self, epoch: u64) -> bool {
        if self.freed {
            return false;
        }
        match self.lifetime {
            Lifetime::Ephemeral => false,
            Lifetime::Session { expires_epoch } => expires_epoch > epoch,
            Lifetime::Permanent => true,
        }
    }
}

/// The table of all live (and recyclable) object records.
#[derive(Debug, Clone, Default)]
pub struct ObjectTable {
    records: Vec<ObjectRecord>,
    free: Vec<u32>,
}

impl ObjectTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        ObjectTable::default()
    }

    /// Inserts a record, recycling a free slot when available.
    pub(crate) fn insert(&mut self, rec: ObjectRecord) -> ObjectId {
        if let Some(slot) = self.free.pop() {
            self.records[slot as usize] = rec;
            ObjectId(slot)
        } else {
            let slot = u32::try_from(self.records.len()).expect("object table overflow");
            self.records.push(rec);
            ObjectId(slot)
        }
    }

    /// Immutable access to a record.
    ///
    /// # Panics
    ///
    /// Panics if `id` was removed (its slot recycled state is not checked;
    /// callers own id validity).
    pub(crate) fn get(&self, id: ObjectId) -> &ObjectRecord {
        &self.records[id.0 as usize]
    }

    /// Mutable access to a record.
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> &mut ObjectRecord {
        &mut self.records[id.0 as usize]
    }

    /// Removes a record, making its slot recyclable.
    pub(crate) fn remove(&mut self, id: ObjectId) {
        self.free.push(id.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(lifetime: Lifetime) -> ObjectRecord {
        ObjectRecord {
            addr: Addr(0),
            size: 64,
            lifetime,
            space: Space::Eden,
            age: 0,
            freed: false,
        }
    }

    #[test]
    fn ephemeral_is_never_live() {
        assert!(!rec(Lifetime::Ephemeral).is_live(0));
    }

    #[test]
    fn session_lives_until_epoch() {
        let r = rec(Lifetime::Session { expires_epoch: 5 });
        assert!(r.is_live(0));
        assert!(r.is_live(4));
        assert!(!r.is_live(5));
        assert!(!r.is_live(100));
    }

    #[test]
    fn permanent_lives_until_freed() {
        let mut r = rec(Lifetime::Permanent);
        assert!(r.is_live(u64::MAX));
        r.freed = true;
        assert!(!r.is_live(0));
    }

    #[test]
    fn table_recycles_slots() {
        let mut t = ObjectTable::new();
        let a = t.insert(rec(Lifetime::Permanent));
        let b = t.insert(rec(Lifetime::Permanent));
        assert_ne!(a, b);
        t.remove(a);
        let c = t.insert(rec(Lifetime::Ephemeral));
        assert_eq!(c, a, "freed slot is recycled");
        let d = t.insert(rec(Lifetime::Permanent));
        assert!(d != a && d != b, "no free slot left to recycle");
    }
}
