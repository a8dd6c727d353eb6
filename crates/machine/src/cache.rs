//! Per-processor set-associative cache with miss-provenance tracking.
//!
//! The paper simulates direct-mapped caches; the cache here generalizes
//! to LRU set-associativity because the paper itself points at it
//! ("Set associative caching would address this [thrashing] problem",
//! §4.1) — associativity > 1 is exercised by the ablation harness.
//!
//! Beyond the tag arrays, the cache remembers *why* every
//! previously-resident line is gone — evicted by which thread, or
//! invalidated by which processor — so the engine can classify each miss
//! into the paper's four components ([`crate::MissKind`]).
//!
//! # Layout
//!
//! Ways live in one flat slab: set `s` occupies
//! `slots[s * assoc .. (s + 1) * assoc]`, most recently used first. The
//! resident ways come first; every way past the set's occupancy holds the
//! line [`EMPTY`], which no resident line can have. A lookup therefore
//! compares all `assoc` ways of its set and needs no occupancy count.
//! One slab keeps every lookup inside a single allocation (the hot path
//! of the simulation engine), where the earlier `Vec<Vec<Slot>>` layout
//! paid a pointer chase into a separately-allocated set on every
//! reference.
//!
//! # Provenance without a `seen` set
//!
//! Compulsory classification needs "was this line ever resident here?".
//! Tracking that with a dedicated set is redundant: every departure path
//! (eviction, invalidation) records a [`GoneReason`], and every fill
//! clears it, so a non-resident line was previously resident *iff* it
//! has a departure record — none means compulsory.
//!
//! # Records by line id
//!
//! The departure records are a vector indexed by the line's dense id,
//! which the directory hands out at the line's first miss anywhere
//! ([`crate::Directory::intern`]). Every way records its line's id, so an
//! eviction or an invalidation writes its record without a lookup, and a
//! miss, whose id the engine already holds, reads it by index. The
//! vector grows only as far as the largest id of a line that left this
//! cache; ids past its end have no record and read as compulsory.

use crate::protocol::{Protocol, WriteHit};
use crate::stats::MissKind;
use placesim_placement::ProcessorId;
use placesim_trace::{Address, RefKind, ThreadId};

/// The line of a way past its set's occupancy. No resident line has it:
/// addresses are at most [`Address::MAX_BITS`] bits wide, so every line
/// is below `2^62`.
const EMPTY: u64 = u64::MAX;
const _: () = assert!(Address::MAX_BITS < 64);

/// Local coherence state of a resident line (Invalid is "not
/// resident"). Which states are reachable depends on the protocol
/// lattice ([`crate::CoherenceProtocol::lattice`]): the paper's
/// write-invalidate machine uses only Shared/Modified; MESI adds
/// Exclusive; Dragon adds SharedDirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean copy, possibly shared with other caches.
    Shared,
    /// Exclusive dirty copy.
    Modified,
    /// Exclusive *clean* copy (MESI's E, Dragon's E): no other cache
    /// holds the line, so a write upgrades to Modified silently.
    Exclusive,
    /// Dragon's Sm: shared with other caches but this copy is the dirty
    /// owner responsible for propagating updates.
    SharedDirty,
}

impl LineState {
    /// This state's bit in a mask of states.
    #[inline]
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// Why a previously-resident line is no longer in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoneReason {
    /// Displaced by a conflicting fill issued by `by`.
    EvictedBy(ThreadId),
    /// Invalidated by a write from processor `by`, on behalf of the
    /// writing thread.
    InvalidatedBy(ProcessorId, ThreadId),
}

/// `line`'s bit in a 64-bit line filter. Lines that share a bit collide,
/// so a filter is a superset of the lines it was built from.
#[inline]
pub(crate) fn line_bit(line: u64) -> u64 {
    1 << (line & 63)
}

/// A run of plain local hits at the head of a context's references, as
/// [`ProcessorCache::scan_hits`] finds it, with two 64-bit filters of its
/// lines: bit `line % 64` of `lines` for every line the run references,
/// and of `writes` for every line it writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lookahead {
    /// Plain local hits from the head of the references on.
    pub hits: u64,
    /// Filter of the lines the hits reference.
    pub lines: u64,
    /// Filter of the lines the hits write.
    pub writes: u64,
}

impl Lookahead {
    /// The first of `words`, packed references of a scanned run, that a
    /// remote change to `line` turns globally visible: any reference to
    /// the line when the change `removes` the copy (an invalidation),
    /// else the first write to it (a downgrade or an update leaves a
    /// copy that reads still hit). `None` if no word does. Lines are
    /// `address >> line_shift`, as in [`ProcessorCache::scan_hits`].
    pub fn cut(words: &[u64], line_shift: u32, line: u64, removes: bool) -> Option<usize> {
        words.iter().position(|&word| {
            Address::of_packed(word).raw() >> line_shift == line
                && (removes || RefKind::of_packed(word) == RefKind::Write)
        })
    }
}

/// One cache way.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Resident line address.
    line: u64,
    /// The line's dense id ([`crate::Directory::intern`]).
    id: u32,
    state: LineState,
    /// Last local thread to reference the line (set at fill, refreshed
    /// on every hit of a run that records attribution). Coherence
    /// attribution reads this as the victim thread when a remote write
    /// invalidates or updates the slot; nothing else reads it, so a run
    /// without attribution may leave it stale.
    owner: ThreadId,
}

impl Slot {
    /// A way past its set's occupancy.
    fn empty() -> Self {
        Slot {
            line: EMPTY,
            id: 0,
            state: LineState::Shared,
            owner: ThreadId::new(0),
        }
    }
}

/// Outcome of [`ProcessorCache::access`]: one set walk. A hit that needs
/// the directory carries the line's id, which the directory's
/// transaction takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Resident with sufficient permission; LRU order updated.
    Hit,
    /// Resident Shared but written: the directory must invalidate remote
    /// sharers. LRU order updated.
    UpgradeHit {
        /// The line's id.
        id: u32,
    },
    /// Dragon: resident shared and written; the directory must send
    /// updates to remote sharers. LRU order updated.
    UpdateHit {
        /// The line's id.
        id: u32,
    },
    /// Not resident. [`ProcessorCache::miss_provenance`] classifies it
    /// by the line's id.
    Miss,
}

/// The way a fill displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced line.
    pub line: u64,
    /// Its id, for the directory's replacement hint.
    pub id: u32,
    /// Its state when it left.
    pub state: LineState,
}

/// A set-associative processor cache with LRU replacement
/// (associativity 1 = the paper's direct-mapped configuration).
#[derive(Debug)]
pub struct ProcessorCache {
    /// Flat way slab: set `s` is `slots[s * assoc ..][..assoc]`, resident
    /// ways MRU first, then [`EMPTY`] ways.
    slots: Vec<Slot>,
    assoc: usize,
    /// Departure reason of every previously-resident, non-resident line,
    /// by line id, up to the largest id that left. Doubles as the "ever
    /// seen" record: see the module docs.
    gone: Vec<Option<GoneReason>>,
    set_mask: u64,
    /// Lifetime fill count. Every miss fills exactly once, so this must
    /// equal the engine's miss-taxonomy total (the auditor checks it).
    fills: u64,
    /// Protocol whose hit table classifies write hits. Only the local
    /// (cache-side) half of the protocol lives here; the directory-side
    /// half lives in the engine's miss path.
    protocol: Protocol,
    /// Bit `4 * state + kind` is set when a reference of `kind` is a
    /// plain local hit on a way in `state` (both as their `u8` values).
    /// Fetches and reads hit in any state. A write hits in the states the
    /// protocol's write-hit table lets it write without the directory:
    /// Modified, and Exclusive where the protocol upgrades it silently. A
    /// barrier hits in none.
    local_hits: u32,
}

impl ProcessorCache {
    /// Creates a direct-mapped write-invalidate cache with `num_sets`
    /// line slots.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two.
    pub fn new(num_sets: u64) -> Self {
        Self::with_associativity(num_sets, 1)
    }

    /// Creates a write-invalidate cache with `num_sets` sets of `assoc`
    /// ways each.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `assoc` is zero.
    pub fn with_associativity(num_sets: u64, assoc: usize) -> Self {
        Self::with_protocol(num_sets, assoc, Protocol::Wi)
    }

    /// Creates a cache whose write-hit classification follows
    /// `protocol`.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `assoc` is zero.
    pub fn with_protocol(num_sets: u64, assoc: usize, protocol: Protocol) -> Self {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(assoc > 0, "associativity must be positive");
        let writable = protocol
            .semantics()
            .lattice()
            .iter()
            .filter(|&&s| matches!(protocol.write_hit(s), WriteHit::Hit | WriteHit::Silent(_)))
            .fold(0, |mask, s| mask | s.bit());
        let local_hits = (0..4).fold(0, |table, state| {
            let write = u32::from(writable & (1 << state) != 0) << RefKind::Write as u32;
            let kinds = 1 << RefKind::Instr as u32 | 1 << RefKind::Read as u32 | write;
            table | kinds << (4 * state)
        });
        ProcessorCache {
            slots: vec![Slot::empty(); num_sets as usize * assoc],
            assoc,
            gone: Vec::new(),
            set_mask: num_sets - 1,
            fills: 0,
            protocol,
            local_hits,
        }
    }

    /// The protocol this cache classifies write hits under.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The cache's associativity.
    pub fn associativity(&self) -> usize {
        self.assoc
    }

    /// Start of `line`'s set in the way slab.
    #[inline]
    fn set_base(&self, line: u64) -> usize {
        (line & self.set_mask) as usize * self.assoc
    }

    /// All ways of `line`'s set, resident ones first.
    #[inline]
    fn set(&self, line: u64) -> &[Slot] {
        let base = self.set_base(line);
        &self.slots[base..base + self.assoc]
    }

    /// The resident way holding `line`, if any.
    #[inline]
    fn slot_mut(&mut self, line: u64) -> Option<&mut Slot> {
        let base = self.set_base(line);
        self.slots[base..base + self.assoc]
            .iter_mut()
            .find(|s| s.line == line)
    }

    /// Occupied ways of the set starting at `base`.
    #[inline]
    fn occupancy(&self, base: usize) -> usize {
        self.slots[base..base + self.assoc]
            .iter()
            .position(|s| s.line == EMPTY)
            .unwrap_or(self.assoc)
    }

    /// One-pass access: classifies a reference to `line` and updates LRU
    /// order on hits. A miss is classified by
    /// [`ProcessorCache::miss_provenance`] once the engine holds the
    /// line's id. This is the simulation engine's slow path. Always
    /// inlined: off the paper's machine a lone run calls it per hit.
    #[inline(always)]
    pub fn access(&mut self, line: u64, is_write: bool, thread: ThreadId) -> Access {
        let base = self.set_base(line);
        let set = &mut self.slots[base..base + self.assoc];
        if let Some(pos) = set.iter().position(|s| s.line == line) {
            let mut slot = set[pos];
            if pos > 0 {
                // MRU to front. Skipped for the MRU way itself, which is
                // every hit in a direct-mapped cache.
                set.copy_within(..pos, 1);
            }
            let outcome = if is_write {
                match self.protocol.write_hit(slot.state) {
                    WriteHit::Hit => Access::Hit,
                    WriteHit::Silent(next) => {
                        slot.state = next; // MESI/Dragon E→M, no bus traffic
                        Access::Hit
                    }
                    WriteHit::Upgrade => Access::UpgradeHit { id: slot.id },
                    WriteHit::Update => Access::UpdateHit { id: slot.id },
                }
            } else {
                Access::Hit
            };
            slot.owner = thread;
            set[0] = slot;
            return outcome;
        }
        Access::Miss
    }

    /// The hit kernel: the run of plain local hits at the head of
    /// `words`, a context's remaining references as packed words
    /// ([`ThreadTraceIter::as_packed`](placesim_trace::ThreadTraceIter::as_packed)),
    /// with the [`Lookahead`] filters of its lines. Lines are
    /// `address >> line_shift`.
    ///
    /// A plain local hit needs no directory: the line is resident, and a
    /// write finds it Modified or, where the protocol upgrades silently,
    /// Exclusive. Upgrade and update hits are not plain, nor are misses.
    /// A state outside the protocol's lattice is not writable, so the
    /// run stops there and the engine's [`ProcessorCache::access`] meets
    /// it in [`Protocol::write_hit`]. The run also stops before a
    /// barrier and before the last word, whose completion ends the
    /// context.
    ///
    /// Read-only: nothing changes, not even LRU order. A run of plain
    /// hits never evicts, so its outcome does not depend on LRU order,
    /// and a write hit on Exclusive leaves the line Modified, which hits
    /// again.
    ///
    /// Each word is decoded with two shifts and a mask, its set is
    /// indexed directly, and one bit of a 16-bit table, picked by the
    /// way's state and the word's kind, says whether it hits; the table
    /// also stops the run at a barrier. No
    /// [`MemRef`](placesim_trace::MemRef) is built and no branch depends
    /// on the kind. The body is written once for every associativity; a
    /// direct-mapped cache gets a copy whose one-way set needs no loop.
    pub fn scan_hits(&self, words: &[u64], line_shift: u32) -> Lookahead {
        if self.assoc == 1 {
            self.scan::<true>(words, line_shift)
        } else {
            self.scan::<false>(words, line_shift)
        }
    }

    /// [`ProcessorCache::scan_hits`]'s body; `DIRECT` fixes one way.
    #[inline(always)]
    fn scan<const DIRECT: bool>(&self, words: &[u64], line_shift: u32) -> Lookahead {
        let ways = if DIRECT { 1 } else { self.assoc };
        let mut look = Lookahead::default();
        let Some((_, body)) = words.split_last() else {
            return look;
        };
        for &word in body {
            let kind = RefKind::of_packed(word);
            let line = Address::of_packed(word).raw() >> line_shift;
            let base = (line & self.set_mask) as usize * ways;
            let hit = (base..base + ways).any(|i| {
                let slot = &self.slots[i];
                slot.line == line
                    && self.local_hits >> (4 * slot.state as u32 + kind as u32) & 1 != 0
            });
            if !hit {
                break;
            }
            look.hits += 1;
            look.lines |= line_bit(line);
            look.writes |= u64::from(kind == RefKind::Write) << (line & 63);
        }
        look
    }

    /// The departure record of the line with id `id`.
    #[inline]
    fn gone(&self, id: u32) -> Option<GoneReason> {
        self.gone.get(id as usize).copied().flatten()
    }

    /// Records why the line with id `id` left, growing the records to
    /// reach `id`.
    #[inline]
    fn record_departure(&mut self, id: u32, reason: GoneReason) {
        let id = id as usize;
        if self.gone.len() <= id {
            self.gone.resize(id + 1, None);
        }
        self.gone[id] = Some(reason);
    }

    /// Classifies a miss on the line with id `id` into the paper's four
    /// components using the provenance recorded at departure time, and
    /// returns the processor that caused an invalidation miss (for the
    /// coherence probe's attribution).
    pub fn miss_provenance(
        &self,
        id: u32,
        missing_thread: ThreadId,
    ) -> (MissKind, Option<ProcessorId>) {
        match self.gone(id) {
            None => (MissKind::Compulsory, None),
            Some(GoneReason::InvalidatedBy(p, _)) => (MissKind::Invalidation, Some(p)),
            Some(GoneReason::EvictedBy(t)) => {
                if t == missing_thread {
                    (MissKind::IntraThreadConflict, None)
                } else {
                    (MissKind::InterThreadConflict, None)
                }
            }
        }
    }

    /// Fills `line`, whose id is `id`, after a miss by `thread`,
    /// displacing the LRU way if the set is full.
    ///
    /// Returns the victim; its departure is recorded as an eviction by
    /// `thread`.
    pub fn fill(
        &mut self,
        line: u64,
        id: u32,
        state: LineState,
        thread: ThreadId,
    ) -> Option<Evicted> {
        debug_assert!(line != EMPTY, "line {line:#x} is the empty-way marker");
        debug_assert!(
            self.set(line).iter().all(|s| s.line != line),
            "fill of resident line"
        );
        let base = self.set_base(line);
        let len = self.occupancy(base);
        self.fills += 1;
        let victim = if len == self.assoc {
            let lru = self.slots[base + len - 1];
            self.record_departure(lru.id, GoneReason::EvictedBy(thread));
            Some(Evicted {
                line: lru.line,
                id: lru.id,
                state: lru.state,
            })
        } else {
            None
        };
        let occupied = if victim.is_some() { len - 1 } else { len };
        self.slots.copy_within(base..base + occupied, base + 1);
        self.slots[base] = Slot {
            line,
            id,
            state,
            owner: thread,
        };
        if let Some(record) = self.gone.get_mut(id as usize) {
            *record = None;
        }
        victim
    }

    /// Invalidates a resident line (remote write). Records the writing
    /// processor and thread for invalidation-miss attribution.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the line is not resident — the directory's
    /// sharer sets are exact, so spurious invalidations indicate a bug.
    pub fn invalidate(&mut self, line: u64, by: ProcessorId, writer: ThreadId) {
        let base = self.set_base(line);
        let end = base + self.assoc;
        match self.set(line).iter().position(|s| s.line == line) {
            Some(pos) => {
                // Close the gap and mark the vacated last way empty.
                let id = self.slots[base + pos].id;
                self.slots.copy_within(base + pos + 1..end, base + pos);
                self.slots[end - 1] = Slot::empty();
                self.record_departure(id, GoneReason::InvalidatedBy(by, writer));
            }
            None => debug_assert!(false, "invalidation for non-resident line {line:#x}"),
        }
    }

    /// Downgrades a resident exclusively-held line after a remote read.
    /// Under the paper's protocol and MESI the line becomes Shared;
    /// under Dragon a Modified owner keeps dirty ownership as
    /// SharedDirty (see [`Protocol::downgrade_target`]).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the line is not resident in an exclusive
    /// state (Modified, or Exclusive under MESI/Dragon).
    pub fn downgrade(&mut self, line: u64) {
        let protocol = self.protocol;
        match self.slot_mut(line) {
            Some(slot) => {
                debug_assert!(
                    matches!(slot.state, LineState::Modified | LineState::Exclusive),
                    "downgrade of non-exclusive line {line:#x} in state {:?}",
                    slot.state
                );
                slot.state = protocol.downgrade_target(slot.state);
            }
            None => debug_assert!(false, "downgrade for non-resident line {line:#x}"),
        }
    }

    /// Applies a remote write-update (Dragon): the line stays resident
    /// and becomes a clean Shared copy. LRU order is *not* touched —
    /// the local processor did not reference the line.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the line is not resident.
    pub fn receive_update(&mut self, line: u64) {
        match self.slot_mut(line) {
            Some(slot) => slot.state = LineState::Shared,
            None => debug_assert!(false, "update for non-resident line {line:#x}"),
        }
    }

    /// Marks a resident line SharedDirty (Dragon: after an update the
    /// writer keeps dirty ownership of a still-shared line).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the line is not resident.
    pub fn set_shared_dirty(&mut self, line: u64) {
        match self.slot_mut(line) {
            Some(slot) => slot.state = LineState::SharedDirty,
            None => debug_assert!(false, "shared-dirty mark for non-resident line {line:#x}"),
        }
    }

    /// Marks a resident line Modified (after an upgrade's directory
    /// transaction).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the line is not resident.
    pub fn set_modified(&mut self, line: u64) {
        match self.slot_mut(line) {
            Some(slot) => slot.state = LineState::Modified,
            None => debug_assert!(false, "upgrade for non-resident line {line:#x}"),
        }
    }

    /// Last local thread to reference a resident line (the victim
    /// thread from an attribution standpoint), if the line is resident.
    pub fn owner_of(&self, line: u64) -> Option<ThreadId> {
        self.set(line)
            .iter()
            .find(|s| s.line == line)
            .map(|s| s.owner)
    }

    /// The thread whose remote write invalidated the now-missing line
    /// with id `id`, if that is why the line left. Read *before* the
    /// refill — the fill clears the departure record.
    pub fn invalidation_writer(&self, id: u32) -> Option<ThreadId> {
        match self.gone(id) {
            Some(GoneReason::InvalidatedBy(_, w)) => Some(w),
            _ => None,
        }
    }

    /// State of a resident line, if present (for tests).
    pub fn state_of(&self, line: u64) -> Option<LineState> {
        self.set(line)
            .iter()
            .find(|s| s.line == line)
            .map(|s| s.state)
    }

    /// Number of resident lines (for tests).
    pub fn resident_lines(&self) -> usize {
        self.iter_resident().count()
    }

    /// Lifetime number of line fills (= misses served by this cache).
    pub fn fill_count(&self) -> u64 {
        self.fills
    }

    /// Iterates over every resident `(line, state)` pair, set by set.
    pub fn iter_resident(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.line != EMPTY)
            .map(|s| (s.line, s.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_trace::MemRef;

    fn t(i: u16) -> ThreadId {
        ThreadId::new(i)
    }

    fn p(i: usize) -> ProcessorId {
        ProcessorId::from_index(i)
    }

    /// Whether the kernel finds a reference to `line` (address `line`,
    /// lines of one byte) a plain local hit.
    fn hits_locally(c: &ProcessorCache, line: u64, is_write: bool) -> bool {
        let r = if is_write {
            MemRef::write(Address::new(line))
        } else {
            MemRef::read(Address::new(line))
        };
        // The kernel never counts the last word.
        c.scan_hits(&[r.pack(), 0], 0).hits == 1
    }

    /// Fills `line` under the id `line` (the tests use small lines), and
    /// returns the victim's line and state.
    fn fill(
        c: &mut ProcessorCache,
        line: u64,
        state: LineState,
        thread: ThreadId,
    ) -> Option<(u64, LineState)> {
        let victim = c.fill(line, line as u32, state, thread)?;
        assert_eq!(
            u64::from(victim.id),
            victim.line,
            "a way keeps its line's id"
        );
        Some((victim.line, victim.state))
    }

    #[test]
    fn first_access_is_compulsory() {
        let mut c = ProcessorCache::new(8);
        assert_eq!(c.access(100, false, t(0)), Access::Miss);
        assert_eq!(c.miss_provenance(100, t(0)), (MissKind::Compulsory, None));
        assert_eq!(fill(&mut c, 100, LineState::Shared, t(0)), None);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = ProcessorCache::new(8);
        fill(&mut c, 100, LineState::Shared, t(0));
        assert_eq!(c.access(100, false, t(0)), Access::Hit);
        assert_eq!(c.state_of(100), Some(LineState::Shared));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn write_to_shared_is_upgrade() {
        let mut c = ProcessorCache::new(8);
        fill(&mut c, 100, LineState::Shared, t(0));
        assert_eq!(c.access(100, true, t(0)), Access::UpgradeHit { id: 100 });
        c.set_modified(100);
        assert_eq!(c.access(100, true, t(0)), Access::Hit);
    }

    #[test]
    fn conflict_eviction_classifies_by_thread() {
        let mut c = ProcessorCache::new(8);
        // Lines 0 and 8 map to the same set.
        fill(&mut c, 0, LineState::Shared, t(0));
        let victim = fill(&mut c, 8, LineState::Shared, t(1));
        assert_eq!(victim, Some((0, LineState::Shared)));

        // Line 0 is gone, evicted by thread 1.
        assert_eq!(
            c.miss_provenance(0, t(1)),
            (MissKind::IntraThreadConflict, None)
        );
        assert_eq!(
            c.miss_provenance(0, t(0)),
            (MissKind::InterThreadConflict, None)
        );
        assert_eq!(c.access(0, false, t(0)), Access::Miss);
        assert_eq!(
            fill(&mut c, 0, LineState::Shared, t(0)),
            Some((8, LineState::Shared))
        );
    }

    #[test]
    fn invalidation_miss_attributed_to_writer() {
        let mut c = ProcessorCache::new(8);
        fill(&mut c, 5, LineState::Shared, t(0));
        assert_eq!(c.owner_of(5), Some(t(0)));
        c.invalidate(5, p(3), t(9));
        let (kind, src) = c.miss_provenance(5, t(0));
        assert_eq!(kind, MissKind::Invalidation);
        assert_eq!(src, Some(p(3)));
        assert_eq!(c.invalidation_writer(5), Some(t(9)));
        assert_eq!(c.owner_of(5), None);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn refill_clears_gone_reason() {
        let mut c = ProcessorCache::new(8);
        fill(&mut c, 5, LineState::Shared, t(0));
        c.invalidate(5, p(1), t(4));
        fill(&mut c, 5, LineState::Shared, t(0));
        assert_eq!(c.invalidation_writer(5), None, "fill clears provenance");
        assert_eq!(c.access(5, false, t(0)), Access::Hit);
        // Evict it by conflict now; classification must be conflict, not
        // the stale invalidation.
        fill(&mut c, 13, LineState::Shared, t(2));
        assert_eq!(
            c.miss_provenance(5, t(2)),
            (MissKind::IntraThreadConflict, None)
        );
    }

    #[test]
    fn downgrade_preserves_residency() {
        let mut c = ProcessorCache::new(8);
        fill(&mut c, 7, LineState::Modified, t(0));
        c.downgrade(7);
        assert_eq!(c.state_of(7), Some(LineState::Shared));
        assert_eq!(c.access(7, false, t(0)), Access::Hit);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = ProcessorCache::new(6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_associativity_panics() {
        let _ = ProcessorCache::with_associativity(8, 0);
    }

    #[test]
    fn two_way_set_holds_conflicting_pair() {
        // Lines 0 and 8 conflict in a direct-mapped cache of 8 sets; a
        // 2-way cache holds both.
        let mut c = ProcessorCache::with_associativity(8, 2);
        assert_eq!(c.associativity(), 2);
        fill(&mut c, 0, LineState::Shared, t(0));
        assert_eq!(c.access(8, false, t(0)), Access::Miss);
        assert_eq!(fill(&mut c, 8, LineState::Shared, t(0)), None);
        assert_eq!(c.access(0, false, t(0)), Access::Hit);
        assert_eq!(c.access(8, false, t(0)), Access::Hit);
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ProcessorCache::with_associativity(8, 2);
        fill(&mut c, 0, LineState::Shared, t(0));
        fill(&mut c, 8, LineState::Shared, t(0));
        // Touch 0 so 8 becomes LRU.
        assert_eq!(c.access(0, false, t(0)), Access::Hit);
        assert_eq!(c.access(16, false, t(1)), Access::Miss);
        let v = fill(&mut c, 16, LineState::Shared, t(1));
        assert_eq!(v, Some((8, LineState::Shared)));
        assert_eq!(c.access(0, false, t(0)), Access::Hit, "MRU line survives");
    }

    #[test]
    fn invalidate_one_way_keeps_others() {
        let mut c = ProcessorCache::with_associativity(8, 2);
        fill(&mut c, 0, LineState::Shared, t(0));
        fill(&mut c, 8, LineState::Modified, t(0));
        c.invalidate(0, p(1), t(2));
        assert_eq!(c.state_of(0), None);
        assert_eq!(c.state_of(8), Some(LineState::Modified));
        // The vacated way is free again: the next fill evicts nothing.
        assert_eq!(c.access(16, false, t(0)), Access::Miss);
        assert_eq!(fill(&mut c, 16, LineState::Shared, t(0)), None);
        assert_eq!(c.resident_lines(), 2);
        assert_eq!(
            fill(&mut c, 24, LineState::Shared, t(0)),
            Some((8, LineState::Modified))
        );
    }

    #[test]
    fn writable_mask_follows_the_write_hit_table() {
        for protocol in Protocol::ALL {
            for &state in protocol.semantics().lattice() {
                let mut c = ProcessorCache::with_protocol(8, 2, protocol);
                fill(&mut c, 3, state, t(0));
                let plain = matches!(
                    protocol.write_hit(state),
                    WriteHit::Hit | WriteHit::Silent(_)
                );
                assert_eq!(hits_locally(&c, 3, true), plain, "{protocol} {state:?}");
                assert!(hits_locally(&c, 3, false), "{protocol} {state:?}");
                assert!(!hits_locally(&c, 11, false), "{protocol}: empty way");
            }
        }
    }

    /// A state outside the protocol's lattice is not locally writable,
    /// so the engine's scan stops before it and `access` meets it.
    #[test]
    #[should_panic(expected = "outside the wi lattice")]
    fn out_of_lattice_write_reaches_the_write_hit_table() {
        let mut c = ProcessorCache::new(8);
        fill(&mut c, 3, LineState::Exclusive, t(0));
        assert!(!hits_locally(&c, 3, true));
        c.access(3, true, t(0));
    }

    #[test]
    fn mesi_silent_exclusive_to_modified() {
        let mut c = ProcessorCache::with_protocol(8, 1, Protocol::Mesi);
        fill(&mut c, 4, LineState::Exclusive, t(0));
        // Write hit on E upgrades silently — no UpgradeHit, no directory.
        assert_eq!(c.access(4, true, t(0)), Access::Hit);
        assert_eq!(c.state_of(4), Some(LineState::Modified));
        // A write hit on Shared still needs the upgrade transaction.
        fill(&mut c, 5, LineState::Shared, t(0));
        assert_eq!(c.access(5, true, t(0)), Access::UpgradeHit { id: 5 });
    }

    #[test]
    fn dragon_update_hit_and_receive_update() {
        let mut writer = ProcessorCache::with_protocol(8, 1, Protocol::Dragon);
        let mut sharer = ProcessorCache::with_protocol(8, 1, Protocol::Dragon);
        fill(&mut writer, 4, LineState::Shared, t(0));
        fill(&mut sharer, 4, LineState::Shared, t(1));
        // Writing a shared line sends updates instead of invalidations.
        assert_eq!(writer.access(4, true, t(0)), Access::UpdateHit { id: 4 });
        writer.set_shared_dirty(4);
        sharer.receive_update(4);
        assert_eq!(writer.state_of(4), Some(LineState::SharedDirty));
        assert_eq!(sharer.state_of(4), Some(LineState::Shared));
        // The sharer's copy never left: the next read hits.
        assert_eq!(sharer.access(4, false, t(1)), Access::Hit);
        // Writing the SharedDirty copy again is another update.
        assert_eq!(writer.access(4, true, t(0)), Access::UpdateHit { id: 4 });
    }

    #[test]
    fn dragon_downgrade_keeps_dirty_ownership() {
        let mut c = ProcessorCache::with_protocol(8, 1, Protocol::Dragon);
        fill(&mut c, 7, LineState::Modified, t(0));
        c.downgrade(7);
        assert_eq!(c.state_of(7), Some(LineState::SharedDirty));
        // An Exclusive (clean) copy downgrades to plain Shared.
        fill(&mut c, 9, LineState::Exclusive, t(0));
        c.downgrade(9);
        assert_eq!(c.state_of(9), Some(LineState::Shared));
    }

    #[test]
    fn hits_locally_classifies_without_mutating() {
        let mut c = ProcessorCache::with_protocol(8, 2, Protocol::Mesi);
        fill(&mut c, 0, LineState::Shared, t(0));
        fill(&mut c, 8, LineState::Exclusive, t(0));
        fill(&mut c, 1, LineState::Modified, t(0));
        assert!(hits_locally(&c, 0, false), "read of Shared");
        assert!(
            !hits_locally(&c, 0, true),
            "write of Shared needs an upgrade"
        );
        assert!(
            hits_locally(&c, 8, true),
            "write of Exclusive upgrades silently"
        );
        assert!(hits_locally(&c, 1, true), "write of Modified");
        assert!(!hits_locally(&c, 16, false), "miss");
        // Read-only: no state change, and LRU order untouched (0 is still
        // the LRU way of its set, so the next fill there evicts it).
        assert_eq!(c.state_of(8), Some(LineState::Exclusive));
        assert_eq!(
            fill(&mut c, 16, LineState::Shared, t(0)),
            Some((0, LineState::Shared))
        );

        let mut d = ProcessorCache::with_protocol(8, 1, Protocol::Dragon);
        fill(&mut d, 2, LineState::SharedDirty, t(0));
        assert!(hits_locally(&d, 2, false));
        assert!(
            !hits_locally(&d, 2, true),
            "Dragon write of a shared line updates"
        );
    }

    #[test]
    fn hit_refreshes_slot_owner() {
        let mut c = ProcessorCache::new(8);
        fill(&mut c, 4, LineState::Shared, t(0));
        assert_eq!(c.owner_of(4), Some(t(0)));
        assert_eq!(c.access(4, false, t(3)), Access::Hit);
        assert_eq!(c.owner_of(4), Some(t(3)), "hit hands the slot over");
        assert_eq!(c.owner_of(5), None, "non-resident line has no owner");
    }

    #[test]
    fn wi_protocol_is_the_default() {
        let c = ProcessorCache::new(8);
        assert_eq!(c.protocol(), Protocol::Wi);
        let c = ProcessorCache::with_associativity(8, 2);
        assert_eq!(c.protocol(), Protocol::Wi);
    }

    #[test]
    fn invalidation_then_conflict_uses_latest_reason() {
        // A line invalidated remotely, then the *set* reused by another
        // fill: the first miss after the invalidation classifies as
        // invalidation, and once refilled+evicted, as a conflict.
        let mut c = ProcessorCache::new(8);
        fill(&mut c, 3, LineState::Shared, t(0));
        c.invalidate(3, p(2), t(5));
        assert_eq!(c.access(3, false, t(0)), Access::Miss);
        assert_eq!(
            c.miss_provenance(3, t(0)),
            (MissKind::Invalidation, Some(p(2)))
        );
        fill(&mut c, 3, LineState::Shared, t(0));
        fill(&mut c, 11, LineState::Shared, t(1)); // evicts 3
        assert_eq!(c.access(3, false, t(0)), Access::Miss);
        assert_eq!(
            c.miss_provenance(3, t(0)),
            (MissKind::InterThreadConflict, None)
        );
    }
}
