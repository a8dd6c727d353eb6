//! Core record types: references, addresses and thread identifiers.

use std::fmt;

/// The kind of a memory reference.
///
/// The paper's traces (generated with MPtrace on a Sequent Symmetry)
/// contain both instruction and data references; thread *length* is
/// measured in instructions, while the sharing metrics are computed over
/// data references only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RefKind {
    /// An instruction fetch.
    Instr,
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// A global barrier: the thread waits until every thread of the
    /// program has reached its matching barrier (the paper's coarse
    /// programs "use barriers to separate different phases of work").
    /// The address field carries the barrier ordinal.
    Barrier,
}

impl RefKind {
    /// Returns `true` for [`RefKind::Read`] and [`RefKind::Write`].
    #[inline]
    pub fn is_data(self) -> bool {
        matches!(self, RefKind::Read | RefKind::Write)
    }

    /// Returns `true` for [`RefKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, RefKind::Write)
    }

    /// Encodes the kind into the 2-bit tag used by the packed trace format.
    #[inline]
    pub(crate) fn to_tag(self) -> u64 {
        match self {
            RefKind::Instr => 0,
            RefKind::Read => 1,
            RefKind::Write => 2,
            RefKind::Barrier => 3,
        }
    }

    /// The kind of a packed reference word ([`MemRef::pack`]). Every
    /// word has one: the tag is the word's top two bits.
    #[inline]
    pub fn of_packed(packed: u64) -> Self {
        match packed >> Address::MAX_BITS {
            0 => RefKind::Instr,
            1 => RefKind::Read,
            2 => RefKind::Write,
            _ => RefKind::Barrier,
        }
    }

    /// Decodes a 2-bit tag produced by [`RefKind::to_tag`].
    ///
    /// Returns `None` for tags outside the 2-bit range.
    #[inline]
    pub(crate) fn from_tag(tag: u64) -> Option<Self> {
        match tag {
            0 => Some(RefKind::Instr),
            1 => Some(RefKind::Read),
            2 => Some(RefKind::Write),
            3 => Some(RefKind::Barrier),
            _ => None,
        }
    }
}

impl fmt::Display for RefKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RefKind::Instr => "I",
            RefKind::Read => "R",
            RefKind::Write => "W",
            RefKind::Barrier => "B",
        };
        f.write_str(s)
    }
}

/// A byte address in the simulated flat address space.
///
/// Addresses are at most [`Address::MAX_BITS`] (62) bits wide so that a
/// reference packs together with its 2-bit kind tag into a single `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Number of usable address bits.
    pub const MAX_BITS: u32 = 62;
    /// Largest representable address.
    pub const MAX: Address = Address((1 << Self::MAX_BITS) - 1);

    /// Creates an address.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in [`Address::MAX_BITS`] bits.
    #[inline]
    pub fn new(raw: u64) -> Self {
        assert!(
            raw <= Self::MAX.0,
            "address {raw:#x} exceeds {} bits",
            Self::MAX_BITS
        );
        Address(raw)
    }

    /// The address of a packed reference word ([`MemRef::pack`]): its
    /// low [`Address::MAX_BITS`] bits.
    #[inline]
    pub fn of_packed(packed: u64) -> Self {
        Address(packed & Self::MAX.0)
    }

    /// Returns the raw address value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache-line address for a power-of-two `line_size`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `line_size` is not a power of two.
    #[inline]
    pub fn line(self, line_size: u64) -> LineAddr {
        debug_assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(self.0 >> line_size.trailing_zeros())
    }

    /// Returns the address offset by `delta` bytes.
    #[inline]
    pub fn offset(self, delta: u64) -> Address {
        Address::new(self.0 + delta)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Address> for u64 {
    fn from(a: Address) -> u64 {
        a.0
    }
}

/// A cache-line address: an [`Address`] shifted right by the line-size bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its raw (already shifted) value.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the first byte address covered by this line.
    #[inline]
    pub fn base(self, line_size: u64) -> Address {
        Address::new(self.0 << line_size.trailing_zeros())
    }

    /// The direct-mapped cache set index for a cache of `num_sets` lines.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `num_sets` is not a power of two.
    #[inline]
    pub fn set_index(self, num_sets: u64) -> usize {
        debug_assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        (self.0 & (num_sets - 1)) as usize
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Identifier of a thread within one application ("program trace").
///
/// Thread ids are dense indices `0..t`; the placement algorithms map them
/// onto processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(u16);

impl ThreadId {
    /// Creates a thread id from a dense index.
    #[inline]
    pub fn new(index: u16) -> Self {
        ThreadId(index)
    }

    /// Creates a thread id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u16`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ThreadId(u16::try_from(index).expect("thread index exceeds u16::MAX"))
    }

    /// Returns the dense index of this thread.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u16` value.
    #[inline]
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A single memory reference: a kind plus an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// What kind of access this is.
    pub kind: RefKind,
    /// The byte address accessed.
    pub addr: Address,
}

impl MemRef {
    /// Creates a reference of an arbitrary kind.
    #[inline]
    pub fn new(kind: RefKind, addr: Address) -> Self {
        MemRef { kind, addr }
    }

    /// Creates an instruction fetch.
    #[inline]
    pub fn instr(addr: Address) -> Self {
        MemRef::new(RefKind::Instr, addr)
    }

    /// Creates a data load.
    #[inline]
    pub fn read(addr: Address) -> Self {
        MemRef::new(RefKind::Read, addr)
    }

    /// Creates a data store.
    #[inline]
    pub fn write(addr: Address) -> Self {
        MemRef::new(RefKind::Write, addr)
    }

    /// Creates a barrier record for barrier number `ordinal`.
    #[inline]
    pub fn barrier(ordinal: u64) -> Self {
        MemRef::new(RefKind::Barrier, Address::new(ordinal))
    }

    /// Packs the reference into a single `u64` (2-bit tag | 62-bit address).
    #[inline]
    pub fn pack(self) -> u64 {
        (self.kind.to_tag() << Address::MAX_BITS) | self.addr.raw()
    }

    /// Unpacks a value produced by [`MemRef::pack`].
    ///
    /// Returns `None` if the kind tag is invalid.
    #[inline]
    pub fn unpack(packed: u64) -> Option<Self> {
        let kind = RefKind::from_tag(packed >> Address::MAX_BITS)?;
        let addr = Address::new(packed & Address::MAX.raw());
        Some(MemRef { kind, addr })
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(!RefKind::Instr.is_data());
        assert!(RefKind::Read.is_data());
        assert!(RefKind::Write.is_data());
        assert!(!RefKind::Barrier.is_data());
        assert!(!RefKind::Instr.is_write());
        assert!(!RefKind::Read.is_write());
        assert!(RefKind::Write.is_write());
        assert!(!RefKind::Barrier.is_write());
    }

    #[test]
    fn kind_tag_roundtrip() {
        for kind in [
            RefKind::Instr,
            RefKind::Read,
            RefKind::Write,
            RefKind::Barrier,
        ] {
            assert_eq!(RefKind::from_tag(kind.to_tag()), Some(kind));
            let word = MemRef::new(kind, Address::MAX).pack();
            assert_eq!(RefKind::of_packed(word), kind);
            assert_eq!(Address::of_packed(word), Address::MAX);
        }
        assert_eq!(RefKind::from_tag(4), None);
    }

    #[test]
    fn address_line_mapping() {
        let a = Address::new(0x1234);
        assert_eq!(a.line(32).raw(), 0x1234 >> 5);
        assert_eq!(a.line(32).base(32).raw(), 0x1220);
        // Two addresses in the same 32-byte line map to the same LineAddr.
        assert_eq!(Address::new(0x1000).line(32), Address::new(0x101f).line(32));
        assert_ne!(Address::new(0x1000).line(32), Address::new(0x1020).line(32));
    }

    #[test]
    fn address_offset() {
        assert_eq!(Address::new(10).offset(22), Address::new(32));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn address_overflow_panics() {
        let _ = Address::new(1 << 62);
    }

    #[test]
    fn set_index_wraps() {
        let line = LineAddr::from_raw(0x1_0007);
        assert_eq!(line.set_index(16), 7);
        assert_eq!(line.set_index(1 << 16), 0x7);
        assert_eq!(line.set_index(1 << 20), 0x1_0007);
    }

    #[test]
    fn memref_pack_roundtrip() {
        let cases = [
            MemRef::instr(Address::new(0)),
            MemRef::read(Address::new(0xdead_beef)),
            MemRef::write(Address::MAX),
        ];
        for r in cases {
            assert_eq!(MemRef::unpack(r.pack()), Some(r));
        }
    }

    #[test]
    fn memref_barrier_packs() {
        let b = MemRef::barrier(7);
        assert_eq!(MemRef::unpack(b.pack()), Some(b));
        assert_eq!(b.to_string(), "B 0x7");
    }

    #[test]
    fn thread_id_index() {
        let id = ThreadId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id, ThreadId::new(42));
    }

    #[test]
    fn display_formats() {
        assert_eq!(MemRef::read(Address::new(0x10)).to_string(), "R 0x10");
        assert_eq!(ThreadId::new(3).to_string(), "T3");
        assert_eq!(LineAddr::from_raw(2).to_string(), "L0x2");
    }
}
