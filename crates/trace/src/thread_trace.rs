//! The packed, append-only reference trace of a single thread.

use crate::record::{Address, MemRef, RefKind};

/// The complete memory-reference trace of one thread.
///
/// References are stored packed (one `u64` each, see [`MemRef::pack`]) so
/// that paper-scale traces (hundreds of thousands to millions of references
/// per thread) stay compact. Counts of each reference kind are maintained
/// incrementally so the common statistics are O(1).
///
/// # Example
///
/// ```
/// use placesim_trace::{Address, MemRef, ThreadTrace};
///
/// let mut trace = ThreadTrace::new();
/// trace.push(MemRef::instr(Address::new(0x400)));
/// trace.push(MemRef::write(Address::new(0x8000)));
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.instr_len(), 1);
/// assert_eq!(trace.write_len(), 1);
/// let kinds: Vec<_> = trace.iter().map(|r| r.kind).collect();
/// assert_eq!(kinds.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    packed: Vec<u64>,
    instr: u64,
    reads: u64,
    writes: u64,
    barriers: u64,
}

impl ThreadTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with capacity for `n` references.
    pub fn with_capacity(n: usize) -> Self {
        ThreadTrace {
            packed: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Appends a reference to the trace.
    #[inline]
    pub fn push(&mut self, r: MemRef) {
        match r.kind {
            RefKind::Instr => self.instr += 1,
            RefKind::Read => self.reads += 1,
            RefKind::Write => self.writes += 1,
            RefKind::Barrier => self.barriers += 1,
        }
        self.packed.push(r.pack());
    }

    /// Appends an instruction fetch. Equivalent to
    /// `push(MemRef::instr(addr))` but monomorphic: no kind dispatch on
    /// the trace-emission hot path.
    #[inline]
    pub fn push_instr(&mut self, addr: Address) {
        self.instr += 1;
        // The instruction tag is 0, so the packed word is the address.
        debug_assert_eq!(RefKind::Instr.to_tag(), 0);
        self.packed.push(addr.raw());
    }

    /// Appends a data reference: a store when `write`, else a load.
    /// Equivalent to pushing `MemRef::write(addr)` / `MemRef::read(addr)`.
    #[inline]
    pub fn push_data(&mut self, addr: Address, write: bool) {
        let kind = if write {
            self.writes += 1;
            RefKind::Write
        } else {
            self.reads += 1;
            RefKind::Read
        };
        self.packed
            .push((kind.to_tag() << Address::MAX_BITS) | addr.raw());
    }

    /// Appends `count` instruction fetches whose addresses cycle through
    /// `period`, starting at phase `start % period.len()` — exactly what
    /// pushing `MemRef::instr(period[(start + k) % len])` for each
    /// `k < count` would produce, but in bulk.
    ///
    /// # Panics
    ///
    /// Panics if `period` is empty or its length is not a power of two
    /// (the cyclic index must be a mask for this to stay on the fast
    /// path).
    pub fn extend_instr_cycle(&mut self, period: &[Address], start: u64, count: u64) {
        assert!(
            !period.is_empty() && period.len().is_power_of_two(),
            "instruction period must be a non-empty power-of-two cycle"
        );
        let mask = (period.len() - 1) as u64;
        self.instr += count;
        // Range + map is a TrustedLen iterator: one reservation, no
        // per-element capacity checks.
        self.packed
            .extend((start..start + count).map(|i| period[(i & mask) as usize].raw()));
    }

    /// Builds a trace from pre-packed words and caller-maintained kind
    /// counts — the bulk-assembly path for emitters that construct the
    /// packed stream with slice copies instead of per-reference pushes.
    ///
    /// Release builds verify only that the counts sum to the word count;
    /// debug builds recount every word. The workload generator's
    /// differential tests pin full equality against the push-based path.
    ///
    /// # Panics
    ///
    /// Panics if the counts do not sum to `packed.len()`, or (debug
    /// builds) if any word is invalid or a per-kind count is wrong.
    pub fn from_packed_counts(
        packed: Vec<u64>,
        instr: u64,
        reads: u64,
        writes: u64,
        barriers: u64,
    ) -> Self {
        assert_eq!(
            packed.len() as u64,
            instr + reads + writes + barriers,
            "kind counts must sum to the packed word count"
        );
        #[cfg(debug_assertions)]
        {
            let check: ThreadTrace = packed
                .iter()
                .map(|&w| MemRef::unpack(w).expect("valid packed reference"))
                .collect();
            assert_eq!(
                (check.instr, check.reads, check.writes, check.barriers),
                (instr, reads, writes, barriers),
                "per-kind counts disagree with the packed words"
            );
        }
        ThreadTrace {
            packed,
            instr,
            reads,
            writes,
            barriers,
        }
    }

    /// Total number of references (instruction + data).
    #[inline]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Returns `true` if the trace has no references.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Number of instruction fetches.
    ///
    /// The paper measures *thread length* in instructions; this is that
    /// length.
    #[inline]
    pub fn instr_len(&self) -> u64 {
        self.instr
    }

    /// Number of data loads.
    #[inline]
    pub fn read_len(&self) -> u64 {
        self.reads
    }

    /// Number of data stores.
    #[inline]
    pub fn write_len(&self) -> u64 {
        self.writes
    }

    /// Number of data references (loads + stores).
    #[inline]
    pub fn data_len(&self) -> u64 {
        self.reads + self.writes
    }

    /// Number of barrier records.
    #[inline]
    pub fn barrier_len(&self) -> u64 {
        self.barriers
    }

    /// Iterates over the references in program order.
    pub fn iter(&self) -> ThreadTraceIter<'_> {
        ThreadTraceIter {
            inner: self.packed.iter(),
        }
    }

    /// Returns the reference at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<MemRef> {
        self.packed
            .get(index)
            .map(|&p| MemRef::unpack(p).expect("trace contains only packed MemRefs"))
    }
}

impl FromIterator<MemRef> for ThreadTrace {
    fn from_iter<I: IntoIterator<Item = MemRef>>(iter: I) -> Self {
        let mut t = ThreadTrace::new();
        for r in iter {
            t.push(r);
        }
        t
    }
}

impl Extend<MemRef> for ThreadTrace {
    fn extend<I: IntoIterator<Item = MemRef>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

impl<'a> IntoIterator for &'a ThreadTrace {
    type Item = MemRef;
    type IntoIter = ThreadTraceIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the references of a [`ThreadTrace`], in program order.
#[derive(Debug, Clone)]
pub struct ThreadTraceIter<'a> {
    inner: std::slice::Iter<'a, u64>,
}

impl Iterator for ThreadTraceIter<'_> {
    type Item = MemRef;

    #[inline]
    fn next(&mut self) -> Option<MemRef> {
        self.inner
            .next()
            .map(|&p| MemRef::unpack(p).expect("trace contains only packed MemRefs"))
    }

    /// Skips `n` references in O(1) and unpacks only the one it
    /// returns: the simulation engine commits a run of scanned cache
    /// hits this way.
    #[inline]
    fn nth(&mut self, n: usize) -> Option<MemRef> {
        self.inner
            .nth(n)
            .map(|&p| MemRef::unpack(p).expect("trace contains only packed MemRefs"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for ThreadTraceIter<'_> {}

impl<'a> ThreadTraceIter<'a> {
    /// The references not yet returned, as packed words ([`MemRef::pack`];
    /// decode one with [`RefKind::of_packed`] and [`Address::of_packed`]).
    /// The simulation engine's hit kernel reads them without building a
    /// [`MemRef`] per reference.
    #[inline]
    pub fn as_packed(&self) -> &'a [u64] {
        self.inner.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Address;

    fn sample() -> ThreadTrace {
        let mut t = ThreadTrace::new();
        t.push(MemRef::instr(Address::new(0x100)));
        t.push(MemRef::read(Address::new(0x8000)));
        t.push(MemRef::instr(Address::new(0x104)));
        t.push(MemRef::write(Address::new(0x8000)));
        t.push(MemRef::read(Address::new(0x8040)));
        t
    }

    #[test]
    fn counts_by_kind() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(t.instr_len(), 2);
        assert_eq!(t.read_len(), 2);
        assert_eq!(t.write_len(), 1);
        assert_eq!(t.data_len(), 3);
        assert!(!t.is_empty());
        assert!(ThreadTrace::new().is_empty());
    }

    #[test]
    fn iteration_preserves_order() {
        let t = sample();
        let refs: Vec<MemRef> = t.iter().collect();
        assert_eq!(refs[0], MemRef::instr(Address::new(0x100)));
        assert_eq!(refs[3], MemRef::write(Address::new(0x8000)));
        assert_eq!(t.iter().len(), 5);
    }

    #[test]
    fn nth_matches_repeated_next() {
        let t = sample();
        for k in 0..t.len() {
            let mut stepped = t.iter();
            let mut want = None;
            for _ in 0..=k {
                want = stepped.next();
            }
            let mut skipped = t.iter();
            assert_eq!(skipped.nth(k), want, "nth({k})");
            assert_eq!(skipped.len(), stepped.len(), "len after nth({k})");
        }
        let mut past = t.iter();
        assert_eq!(past.nth(t.len()), None);
        assert_eq!(past.len(), 0);
        assert_eq!(t.iter().nth(t.len() + 3), None);
    }

    #[test]
    fn packed_words_follow_the_iterator() {
        let t = sample();
        let mut it = t.iter();
        it.nth(1);
        let rest: Vec<MemRef> = it
            .as_packed()
            .iter()
            .map(|&w| MemRef::new(RefKind::of_packed(w), Address::of_packed(w)))
            .collect();
        assert_eq!(rest, it.collect::<Vec<_>>());
    }

    #[test]
    fn get_in_and_out_of_bounds() {
        let t = sample();
        assert_eq!(t.get(1), Some(MemRef::read(Address::new(0x8000))));
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn from_iterator_and_extend() {
        let refs = [
            MemRef::instr(Address::new(1)),
            MemRef::read(Address::new(2)),
        ];
        let mut t: ThreadTrace = refs.iter().copied().collect();
        assert_eq!(t.len(), 2);
        t.extend([MemRef::write(Address::new(3))]);
        assert_eq!(t.write_len(), 1);
    }

    /// The raw packed words of a trace.
    fn packed(t: &ThreadTrace) -> Vec<u64> {
        t.iter().map(MemRef::pack).collect()
    }

    #[test]
    fn from_packed_counts_accepts_all_kinds() {
        // Tag 3 is a barrier record.
        let barriers = ThreadTrace::from_packed_counts(vec![3u64 << 62], 0, 0, 0, 1);
        assert_eq!(barriers.barrier_len(), 1);
    }

    #[test]
    fn fast_paths_match_push() {
        let mut fast = ThreadTrace::new();
        fast.push_instr(Address::new(0x100));
        fast.push_data(Address::new(0x8000), false);
        fast.push_data(Address::new(0x8000), true);
        let mut slow = ThreadTrace::new();
        slow.push(MemRef::instr(Address::new(0x100)));
        slow.push(MemRef::read(Address::new(0x8000)));
        slow.push(MemRef::write(Address::new(0x8000)));
        assert_eq!(fast, slow);
    }

    #[test]
    fn instr_cycle_matches_pushes() {
        let period: Vec<Address> = (0..4u64).map(|i| Address::new(i * 4)).collect();
        let mut bulk = ThreadTrace::new();
        bulk.extend_instr_cycle(&period, 3, 10);
        let mut slow = ThreadTrace::new();
        for k in 0..10u64 {
            slow.push(MemRef::instr(period[((3 + k) % 4) as usize]));
        }
        assert_eq!(bulk, slow);
        assert_eq!(bulk.instr_len(), 10);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn instr_cycle_rejects_non_power_of_two() {
        let period: Vec<Address> = (0..3u64).map(Address::new).collect();
        ThreadTrace::new().extend_instr_cycle(&period, 0, 1);
    }

    #[test]
    fn from_packed_counts_matches_pushes() {
        let reference = sample();
        let rebuilt = ThreadTrace::from_packed_counts(packed(&reference), 2, 2, 1, 0);
        assert_eq!(rebuilt, reference);
    }

    #[test]
    #[should_panic(expected = "sum to the packed word count")]
    fn from_packed_counts_rejects_bad_totals() {
        ThreadTrace::from_packed_counts(packed(&sample()), 2, 2, 0, 0);
    }

    #[test]
    fn barrier_counting() {
        let mut t = ThreadTrace::new();
        t.push(MemRef::instr(Address::new(0)));
        t.push(MemRef::barrier(0));
        t.push(MemRef::barrier(1));
        assert_eq!(t.barrier_len(), 2);
        assert_eq!(t.instr_len(), 1);
        assert_eq!(t.data_len(), 0);
        assert_eq!(t.len(), 3);
    }
}
