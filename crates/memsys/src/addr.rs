//! Byte addresses, cache-line addresses and physical-memory regions.
//!
//! The simulator models a 32-bit-style physical address space (the Sun E6000
//! in the paper carried 2 GB of main memory). Addresses are plain byte
//! addresses wrapped in newtypes so that byte addresses and line addresses
//! can never be confused.

use std::fmt;

/// Log2 of the coherence-unit (cache-line) size. The paper uses 64-byte
/// lines throughout ("64-Byte Cache Lines", Figures 14-15), matching the
/// UltraSPARC II L2 line size.
pub const LINE_BITS: u32 = 6;

/// The coherence-unit size in bytes (64).
pub const LINE_BYTES: u64 = 1 << LINE_BITS;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the cache line containing this address.
    ///
    /// # Examples
    ///
    /// ```
    /// use memsys::addr::{Addr, LineAddr};
    /// assert_eq!(Addr(0x40).line(), LineAddr(1));
    /// assert_eq!(Addr(0x7f).line(), LineAddr(1));
    /// ```
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_BITS)
    }

    /// The address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A cache-line address (byte address shifted right by [`LINE_BITS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// First byte address of the line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << LINE_BITS)
    }

    /// The line `n` lines after this one.
    #[inline]
    pub fn step(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A half-open byte-address range `[start, start + len)`.
///
/// Used to describe physical-memory regions (kernel text, JIT code cache,
/// heap generations, thread stacks, database buffer pool, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    start: Addr,
    len: u64,
}

impl AddrRange {
    /// Creates a range starting at `start` spanning `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range would overflow the address space.
    pub fn new(start: Addr, len: u64) -> Self {
        assert!(
            start.0.checked_add(len).is_some(),
            "address range overflows the physical address space"
        );
        AddrRange { start, len }
    }

    /// First address in the range.
    pub fn start(&self) -> Addr {
        self.start
    }

    /// One past the last address in the range.
    pub fn end(&self) -> Addr {
        Addr(self.start.0 + self.len)
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside the range.
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Whether two ranges overlap.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Splits off the first `len` bytes as a new range, shrinking `self`.
    ///
    /// Returns `None` (leaving `self` untouched) if fewer than `len` bytes
    /// remain.
    pub fn take(&mut self, len: u64) -> Option<AddrRange> {
        if len > self.len {
            return None;
        }
        let taken = AddrRange::new(self.start, len);
        self.start = Addr(self.start.0 + len);
        self.len -= len;
        Some(taken)
    }

    /// Number of distinct cache lines the range touches.
    pub fn line_count(&self) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let first = self.start.line().0;
        let last = Addr(self.start.0 + self.len - 1).line().0;
        last - first + 1
    }

    /// The lines the range touches, in ascending order.
    #[inline]
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> {
        let first = self.start.line().0;
        (first..first + self.line_count()).map(LineAddr)
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_address() {
        assert_eq!(Addr(0).line(), LineAddr(0));
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(Addr(0x1000).line(), LineAddr(0x40));
    }

    #[test]
    fn line_base_round_trips() {
        let l = LineAddr(0x123);
        assert_eq!(l.base().line(), l);
    }

    #[test]
    fn range_contains_endpoints() {
        let r = AddrRange::new(Addr(100), 50);
        assert!(r.contains(Addr(100)));
        assert!(r.contains(Addr(149)));
        assert!(!r.contains(Addr(150)));
        assert!(!r.contains(Addr(99)));
    }

    #[test]
    fn range_overlap() {
        let a = AddrRange::new(Addr(0), 100);
        let b = AddrRange::new(Addr(50), 100);
        let c = AddrRange::new(Addr(100), 10);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn range_take_consumes_prefix() {
        let mut r = AddrRange::new(Addr(0x1000), 0x100);
        let first = r.take(0x40).unwrap();
        assert_eq!(first.start(), Addr(0x1000));
        assert_eq!(first.len(), 0x40);
        assert_eq!(r.start(), Addr(0x1040));
        assert_eq!(r.len(), 0xc0);
        assert!(r.take(0x1000).is_none());
        assert_eq!(r.len(), 0xc0);
    }

    #[test]
    fn range_line_count() {
        assert_eq!(AddrRange::new(Addr(0), 64).line_count(), 1);
        assert_eq!(AddrRange::new(Addr(0), 65).line_count(), 2);
        assert_eq!(AddrRange::new(Addr(63), 2).line_count(), 2);
        assert_eq!(AddrRange::new(Addr(0), 0).line_count(), 0);
    }

    #[test]
    fn range_lines_are_the_lines_it_touches() {
        let lines: Vec<LineAddr> = AddrRange::new(Addr(63), 66).lines().collect();
        assert_eq!(lines, [LineAddr(0), LineAddr(1), LineAddr(2)]);
        assert_eq!(AddrRange::new(Addr(64), 0).lines().count(), 0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn range_overflow_panics() {
        let _ = AddrRange::new(Addr(u64::MAX - 1), 10);
    }
}
