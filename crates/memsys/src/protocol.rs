//! MOESI snooping-coherence line states and transition helpers.
//!
//! The Sun E6000 of the paper keeps its UltraSPARC II L2 caches coherent
//! with a MOESI write-invalidate snooping protocol over a shared bus.
//! "Snoop copyback" events — a processor copying a line back onto the bus in
//! response to another processor's request — occur when the responding cache
//! holds the line in a dirty state (Modified or Owned). Those events are the
//! paper's cache-to-cache transfers (Section 4.3).

use std::fmt;

/// Coherence state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LineState {
    /// Not present (or invalidated).
    #[default]
    Invalid,
    /// Clean, possibly present in other caches.
    Shared,
    /// Clean, guaranteed the only cached copy; silently upgradable to M.
    Exclusive,
    /// Dirty and shared: this cache owns the only up-to-date copy and must
    /// supply it on snoops and write it back on eviction.
    Owned,
    /// Dirty, the only cached copy.
    Modified,
}

impl LineState {
    /// Whether the line holds usable data.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether this cache must write the line back when evicting it.
    #[inline]
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }

    /// State after a snooped read (`GetS`) from another cache.
    ///
    /// Dirty owners retain ownership as [`LineState::Owned`] and supply the
    /// data (a snoop copyback); clean holders fall to [`LineState::Shared`].
    #[inline]
    pub(crate) fn after_remote_read(self) -> LineState {
        match self {
            LineState::Invalid => LineState::Invalid,
            LineState::Shared => LineState::Shared,
            LineState::Exclusive => LineState::Shared,
            LineState::Owned | LineState::Modified => LineState::Owned,
        }
    }

    /// Whether responding to a remote read from this state puts the data on
    /// the bus from this cache (a snoop copyback / cache-to-cache transfer).
    #[inline]
    pub(crate) fn supplies_data(self) -> bool {
        self.is_dirty()
    }

    /// Inverse of `self as u32` over the enum's discriminants — the decode
    /// half of the packed tag+state words the cache stores (see `cache.rs`).
    /// Unknown codes decode to [`LineState::Invalid`].
    #[inline]
    pub(crate) fn from_code(code: u32) -> LineState {
        match code {
            1 => LineState::Shared,
            2 => LineState::Exclusive,
            3 => LineState::Owned,
            4 => LineState::Modified,
            _ => LineState::Invalid,
        }
    }
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            LineState::Invalid => 'I',
            LineState::Shared => 'S',
            LineState::Exclusive => 'E',
            LineState::Owned => 'O',
            LineState::Modified => 'M',
        };
        write!(f, "{c}")
    }
}

/// Bus transaction kinds issued by an L2 miss or upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// Read for sharing (load or instruction-fetch miss).
    GetS,
    /// Read for ownership (store miss).
    GetX,
    /// Ownership upgrade of an already-cached shared line (no data needed).
    Upgrade,
}

impl fmt::Display for BusOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BusOp::GetS => "GetS",
            BusOp::GetX => "GetX",
            BusOp::Upgrade => "Upg",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_states_supply_data() {
        assert!(LineState::Modified.supplies_data());
        assert!(LineState::Owned.supplies_data());
        assert!(!LineState::Exclusive.supplies_data());
        assert!(!LineState::Shared.supplies_data());
        assert!(!LineState::Invalid.supplies_data());
    }

    #[test]
    fn remote_read_transitions() {
        assert_eq!(
            LineState::Modified.after_remote_read(),
            LineState::Owned,
            "dirty owner retains ownership as O"
        );
        assert_eq!(LineState::Owned.after_remote_read(), LineState::Owned);
        assert_eq!(LineState::Exclusive.after_remote_read(), LineState::Shared);
        assert_eq!(LineState::Shared.after_remote_read(), LineState::Shared);
        assert_eq!(LineState::Invalid.after_remote_read(), LineState::Invalid);
    }

    #[test]
    fn display_single_letters() {
        assert_eq!(LineState::Modified.to_string(), "M");
        assert_eq!(BusOp::Upgrade.to_string(), "Upg");
    }
}
