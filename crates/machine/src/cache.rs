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
//! line id [`EMPTY`], which no resident line can have. A lookup therefore
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
//! removes it, so a non-resident line was previously resident *iff* it
//! has a `gone` entry. A miss therefore classifies with a single map
//! lookup — `None` means compulsory.

use crate::protocol::{Protocol, WriteHit};
use crate::stats::MissKind;
use placesim_placement::ProcessorId;
use placesim_trace::hash::FastMap;
use placesim_trace::{Address, ThreadId};

/// Line id of a way past its set's occupancy. No resident line has it:
/// addresses are at most [`Address::MAX_BITS`] bits wide, so every line id
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

/// One cache way.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Resident line address (the full line id).
    line: u64,
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
            state: LineState::Shared,
            owner: ThreadId::new(0),
        }
    }
}

/// Outcome of a cache access, before any fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line is resident with sufficient permission.
    Hit,
    /// The line is resident Shared but the access is a write: the
    /// directory must invalidate remote sharers (a coherence *upgrade*).
    UpgradeHit,
    /// Dragon: the line is resident shared and written, so the directory
    /// must propagate a write-update to the remote sharers (the line
    /// stays resident everywhere).
    UpdateHit,
    /// The line is not resident. Classification comes from
    /// [`ProcessorCache::miss_provenance`], which needs the missing
    /// thread's identity.
    Miss {
        /// The LRU line (and its state) this fill will displace, if the
        /// set is full. The engine must send the directory a replacement
        /// hint for it.
        victim: Option<(u64, LineState)>,
    },
}

/// Outcome of a fused [`ProcessorCache::access`]: one set walk, and — on
/// a miss — the provenance classification in the same call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Resident with sufficient permission; LRU order updated.
    Hit,
    /// Resident Shared but written: the directory must invalidate remote
    /// sharers. LRU order updated.
    UpgradeHit,
    /// Dragon: resident shared and written; the directory must send
    /// updates to remote sharers. LRU order updated.
    UpdateHit,
    /// Not resident; classified at lookup time.
    Miss {
        /// The paper's four-way miss classification.
        kind: MissKind,
        /// The invalidating processor, for invalidation misses.
        source: Option<ProcessorId>,
    },
}

/// A set-associative processor cache with LRU replacement
/// (associativity 1 = the paper's direct-mapped configuration).
#[derive(Debug)]
pub struct ProcessorCache {
    /// Flat way slab: set `s` is `slots[s * assoc ..][..assoc]`, resident
    /// ways MRU first, then [`EMPTY`] ways.
    slots: Vec<Slot>,
    assoc: usize,
    /// Departure reason of every previously-resident, non-resident line.
    /// Doubles as the "ever seen" record: see the module docs.
    gone: FastMap<u64, GoneReason>,
    set_mask: u64,
    /// Lifetime fill count. Every miss fills exactly once, so this must
    /// equal the engine's miss-taxonomy total (the auditor checks it).
    fills: u64,
    /// Protocol whose hit table classifies write hits. Only the local
    /// (cache-side) half of the protocol lives here; the directory-side
    /// half lives in the engine's miss path.
    protocol: Protocol,
    /// [`LineState::bit`]s of the states a write hits in without the
    /// directory: Modified, and Exclusive where the protocol upgrades it
    /// silently. Built once from the protocol's write-hit table.
    writable: u8,
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
        ProcessorCache {
            slots: vec![Slot::empty(); num_sets as usize * assoc],
            assoc,
            gone: FastMap::default(),
            set_mask: num_sets - 1,
            fills: 0,
            protocol,
            writable,
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

    /// One-pass access: classifies a reference to `line`, updates LRU
    /// order on hits, and classifies misses from the departure record in
    /// the same call. This is the simulation engine's hot path; see
    /// [`ProcessorCache::probe`] / [`ProcessorCache::miss_provenance`]
    /// for the split variant the reference engine and unit tests use.
    /// Always inlined: the engine's hit loop must not pay a call per
    /// reference.
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
                    WriteHit::Upgrade => Access::UpgradeHit,
                    WriteHit::Update => Access::UpdateHit,
                }
            } else {
                Access::Hit
            };
            slot.owner = thread;
            set[0] = slot;
            return outcome;
        }
        let (kind, source) = self.classify_gone(line, thread);
        Access::Miss { kind, source }
    }

    /// Read-only: whether a reference to `line` would be a plain local
    /// hit — resident, and for a write, Modified or silently upgradable
    /// from Exclusive. Upgrade and update hits, which need the
    /// directory, are `false`, as are misses.
    ///
    /// Nothing changes, not even LRU order: a run of plain hits never
    /// evicts, so its outcome does not depend on LRU order, and a write
    /// hit on Exclusive leaves the line Modified, which hits again.
    /// The engine's lookahead scan relies on both. On a direct-mapped
    /// write-invalidate cache without attribution, this scan is the only
    /// lookup a scanned hit gets: the engine commits the run without
    /// calling [`ProcessorCache::access`] again.
    ///
    /// A write checks the way's state against the protocol's mask of
    /// locally writable states. A state outside the protocol's lattice is
    /// not in the mask, so the scan stops there and the engine's
    /// [`ProcessorCache::access`] meets it in [`Protocol::write_hit`].
    #[inline]
    pub fn hits_locally(&self, line: u64, is_write: bool) -> bool {
        let writable = if is_write { self.writable } else { u8::MAX };
        self.set(line)
            .iter()
            .any(|s| s.line == line && writable & s.state.bit() != 0)
    }

    /// Classifies an access to `line` and updates LRU order on hits.
    ///
    /// The engine calls this, performs the directory transaction, then
    /// calls [`ProcessorCache::fill`] (for misses) or relies on
    /// [`ProcessorCache::set_modified`] (for upgrades).
    pub fn probe(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        let base = self.set_base(line);
        let set = &mut self.slots[base..base + self.assoc];
        if let Some(pos) = set.iter().position(|s| s.line == line) {
            let mut slot = set[pos];
            set.copy_within(..pos, 1); // MRU to front
            let outcome = if is_write {
                match self.protocol.write_hit(slot.state) {
                    WriteHit::Hit => AccessOutcome::Hit,
                    WriteHit::Silent(next) => {
                        slot.state = next; // MESI/Dragon E→M, no bus traffic
                        AccessOutcome::Hit
                    }
                    WriteHit::Upgrade => AccessOutcome::UpgradeHit,
                    WriteHit::Update => AccessOutcome::UpdateHit,
                }
            } else {
                AccessOutcome::Hit
            };
            set[0] = slot;
            return outcome;
        }
        let victim = set
            .last()
            .filter(|s| s.line != EMPTY)
            .map(|s| (s.line, s.state));
        AccessOutcome::Miss { victim }
    }

    #[inline]
    fn classify_gone(
        &self,
        line: u64,
        missing_thread: ThreadId,
    ) -> (MissKind, Option<ProcessorId>) {
        match self.gone.get(&line) {
            None => (MissKind::Compulsory, None),
            Some(GoneReason::InvalidatedBy(p, _)) => (MissKind::Invalidation, Some(*p)),
            Some(GoneReason::EvictedBy(t)) => {
                if *t == missing_thread {
                    (MissKind::IntraThreadConflict, None)
                } else {
                    (MissKind::InterThreadConflict, None)
                }
            }
        }
    }

    /// Refines a miss classification into the paper's four components
    /// using the provenance recorded at departure time, and returns the
    /// processor that caused an invalidation miss (for the coherence
    /// probe's attribution).
    pub fn miss_provenance(
        &self,
        line: u64,
        missing_thread: ThreadId,
    ) -> (MissKind, Option<ProcessorId>) {
        self.classify_gone(line, missing_thread)
    }

    /// Fills `line` after a miss by `thread`, displacing the LRU way if
    /// the set is full.
    ///
    /// Returns the victim line (already reported by
    /// [`ProcessorCache::probe`]); the victim's departure is recorded as
    /// an eviction by `thread`.
    pub fn fill(
        &mut self,
        line: u64,
        state: LineState,
        thread: ThreadId,
    ) -> Option<(u64, LineState)> {
        debug_assert!(line != EMPTY, "line id {line:#x} is the empty-way marker");
        debug_assert!(
            self.set(line).iter().all(|s| s.line != line),
            "fill of resident line"
        );
        let base = self.set_base(line);
        let len = self.occupancy(base);
        self.fills += 1;
        let victim = if len == self.assoc {
            let lru = self.slots[base + len - 1];
            self.gone.insert(lru.line, GoneReason::EvictedBy(thread));
            Some((lru.line, lru.state))
        } else {
            None
        };
        let occupied = if victim.is_some() { len - 1 } else { len };
        self.slots.copy_within(base..base + occupied, base + 1);
        self.slots[base] = Slot {
            line,
            state,
            owner: thread,
        };
        self.gone.remove(&line);
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
                self.slots.copy_within(base + pos + 1..end, base + pos);
                self.slots[end - 1] = Slot::empty();
                self.gone
                    .insert(line, GoneReason::InvalidatedBy(by, writer));
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

    /// The thread whose remote write invalidated a now-missing line, if
    /// that is why the line left. Read *before* the refill — the fill
    /// clears the departure record.
    pub fn invalidation_writer(&self, line: u64) -> Option<ThreadId> {
        match self.gone.get(&line) {
            Some(GoneReason::InvalidatedBy(_, w)) => Some(*w),
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

    fn t(i: u16) -> ThreadId {
        ThreadId::new(i)
    }

    fn p(i: usize) -> ProcessorId {
        ProcessorId::from_index(i)
    }

    #[test]
    fn first_access_is_compulsory() {
        let mut c = ProcessorCache::new(8);
        match c.probe(100, false) {
            AccessOutcome::Miss { victim } => assert!(victim.is_none()),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(c.miss_provenance(100, t(0)), (MissKind::Compulsory, None));
    }

    #[test]
    fn fill_then_hit() {
        let mut c = ProcessorCache::new(8);
        c.fill(100, LineState::Shared, t(0));
        assert_eq!(c.probe(100, false), AccessOutcome::Hit);
        assert_eq!(c.state_of(100), Some(LineState::Shared));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn write_to_shared_is_upgrade() {
        let mut c = ProcessorCache::new(8);
        c.fill(100, LineState::Shared, t(0));
        assert_eq!(c.probe(100, true), AccessOutcome::UpgradeHit);
        c.set_modified(100);
        assert_eq!(c.probe(100, true), AccessOutcome::Hit);
    }

    #[test]
    fn conflict_eviction_classifies_by_thread() {
        let mut c = ProcessorCache::new(8);
        // Lines 0 and 8 map to the same set.
        c.fill(0, LineState::Shared, t(0));
        let victim = c.fill(8, LineState::Shared, t(1));
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
        match c.probe(0, false) {
            AccessOutcome::Miss { victim } => {
                assert_eq!(victim, Some((8, LineState::Shared)));
            }
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn invalidation_miss_attributed_to_writer() {
        let mut c = ProcessorCache::new(8);
        c.fill(5, LineState::Shared, t(0));
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
        c.fill(5, LineState::Shared, t(0));
        c.invalidate(5, p(1), t(4));
        c.fill(5, LineState::Shared, t(0));
        assert_eq!(c.invalidation_writer(5), None, "fill clears provenance");
        assert_eq!(c.probe(5, false), AccessOutcome::Hit);
        // Evict it by conflict now; classification must be conflict, not
        // the stale invalidation.
        c.fill(13, LineState::Shared, t(2));
        assert_eq!(
            c.miss_provenance(5, t(2)),
            (MissKind::IntraThreadConflict, None)
        );
    }

    #[test]
    fn downgrade_preserves_residency() {
        let mut c = ProcessorCache::new(8);
        c.fill(7, LineState::Modified, t(0));
        c.downgrade(7);
        assert_eq!(c.state_of(7), Some(LineState::Shared));
        assert_eq!(c.probe(7, false), AccessOutcome::Hit);
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
        c.fill(0, LineState::Shared, t(0));
        assert_eq!(c.probe(8, false), AccessOutcome::Miss { victim: None });
        c.fill(8, LineState::Shared, t(0));
        assert_eq!(c.probe(0, false), AccessOutcome::Hit);
        assert_eq!(c.probe(8, false), AccessOutcome::Hit);
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ProcessorCache::with_associativity(8, 2);
        c.fill(0, LineState::Shared, t(0));
        c.fill(8, LineState::Shared, t(0));
        // Touch 0 so 8 becomes LRU.
        assert_eq!(c.probe(0, false), AccessOutcome::Hit);
        match c.probe(16, false) {
            AccessOutcome::Miss { victim } => {
                assert_eq!(victim, Some((8, LineState::Shared)));
            }
            other => panic!("expected miss, got {other:?}"),
        }
        let v = c.fill(16, LineState::Shared, t(1));
        assert_eq!(v, Some((8, LineState::Shared)));
        assert_eq!(c.probe(0, false), AccessOutcome::Hit, "MRU line survives");
    }

    #[test]
    fn invalidate_one_way_keeps_others() {
        let mut c = ProcessorCache::with_associativity(8, 2);
        c.fill(0, LineState::Shared, t(0));
        c.fill(8, LineState::Modified, t(0));
        c.invalidate(0, p(1), t(2));
        assert_eq!(c.state_of(0), None);
        assert_eq!(c.state_of(8), Some(LineState::Modified));
        // The vacated way is free again: the next fill evicts nothing.
        assert_eq!(c.probe(16, false), AccessOutcome::Miss { victim: None });
        assert_eq!(c.fill(16, LineState::Shared, t(0)), None);
        assert_eq!(c.resident_lines(), 2);
        assert_eq!(
            c.fill(24, LineState::Shared, t(0)),
            Some((8, LineState::Modified))
        );
    }

    #[test]
    fn writable_mask_follows_the_write_hit_table() {
        for protocol in Protocol::ALL {
            for &state in protocol.semantics().lattice() {
                let mut c = ProcessorCache::with_protocol(8, 2, protocol);
                c.fill(3, state, t(0));
                let plain = matches!(
                    protocol.write_hit(state),
                    WriteHit::Hit | WriteHit::Silent(_)
                );
                assert_eq!(c.hits_locally(3, true), plain, "{protocol} {state:?}");
                assert!(c.hits_locally(3, false), "{protocol} {state:?}");
                assert!(!c.hits_locally(11, false), "{protocol}: empty way");
            }
        }
    }

    /// A state outside the protocol's lattice is not locally writable,
    /// so the engine's scan stops before it and `access` meets it.
    #[test]
    #[should_panic(expected = "outside the wi lattice")]
    fn out_of_lattice_write_reaches_the_write_hit_table() {
        let mut c = ProcessorCache::new(8);
        c.fill(3, LineState::Exclusive, t(0));
        assert!(!c.hits_locally(3, true));
        c.access(3, true, t(0));
    }

    #[test]
    fn fused_access_matches_split_path() {
        // Drive both a fused cache and a probe/provenance cache through
        // the same mixed sequence; classifications and LRU behavior must
        // agree exactly.
        let seq: Vec<(u64, bool, u16)> = vec![
            (0, false, 0),
            (8, false, 1),
            (0, true, 0),
            (16, false, 0),
            (8, false, 1),
            (0, false, 1),
            (24, true, 2),
            (16, false, 2),
        ];
        let mut fused = ProcessorCache::with_associativity(8, 2);
        let mut split = ProcessorCache::with_associativity(8, 2);
        for &(line, is_write, tid) in &seq {
            let a = fused.access(line, is_write, t(tid));
            let b = match split.probe(line, is_write) {
                AccessOutcome::Hit => Access::Hit,
                AccessOutcome::UpgradeHit => Access::UpgradeHit,
                AccessOutcome::UpdateHit => Access::UpdateHit,
                AccessOutcome::Miss { .. } => {
                    let (kind, source) = split.miss_provenance(line, t(tid));
                    Access::Miss { kind, source }
                }
            };
            assert_eq!(a, b, "diverged at line {line:#x}");
            let state = if is_write {
                LineState::Modified
            } else {
                LineState::Shared
            };
            if let Access::Miss { .. } = a {
                fused.fill(line, state, t(tid));
                split.fill(line, state, t(tid));
            } else if a == Access::UpgradeHit {
                fused.set_modified(line);
                split.set_modified(line);
            }
        }
        assert_eq!(fused.resident_lines(), split.resident_lines());
    }

    #[test]
    fn mesi_silent_exclusive_to_modified() {
        let mut c = ProcessorCache::with_protocol(8, 1, Protocol::Mesi);
        c.fill(4, LineState::Exclusive, t(0));
        // Write hit on E upgrades silently — no UpgradeHit, no directory.
        assert_eq!(c.access(4, true, t(0)), Access::Hit);
        assert_eq!(c.state_of(4), Some(LineState::Modified));
        // A write hit on Shared still needs the upgrade transaction.
        c.fill(5, LineState::Shared, t(0));
        assert_eq!(c.access(5, true, t(0)), Access::UpgradeHit);
    }

    #[test]
    fn dragon_update_hit_and_receive_update() {
        let mut writer = ProcessorCache::with_protocol(8, 1, Protocol::Dragon);
        let mut sharer = ProcessorCache::with_protocol(8, 1, Protocol::Dragon);
        writer.fill(4, LineState::Shared, t(0));
        sharer.fill(4, LineState::Shared, t(1));
        // Writing a shared line sends updates instead of invalidations.
        assert_eq!(writer.access(4, true, t(0)), Access::UpdateHit);
        writer.set_shared_dirty(4);
        sharer.receive_update(4);
        assert_eq!(writer.state_of(4), Some(LineState::SharedDirty));
        assert_eq!(sharer.state_of(4), Some(LineState::Shared));
        // The sharer's copy never left: the next read hits.
        assert_eq!(sharer.access(4, false, t(1)), Access::Hit);
        // Writing the SharedDirty copy again is another update.
        assert_eq!(writer.access(4, true, t(0)), Access::UpdateHit);
    }

    #[test]
    fn dragon_downgrade_keeps_dirty_ownership() {
        let mut c = ProcessorCache::with_protocol(8, 1, Protocol::Dragon);
        c.fill(7, LineState::Modified, t(0));
        c.downgrade(7);
        assert_eq!(c.state_of(7), Some(LineState::SharedDirty));
        // An Exclusive (clean) copy downgrades to plain Shared.
        c.fill(9, LineState::Exclusive, t(0));
        c.downgrade(9);
        assert_eq!(c.state_of(9), Some(LineState::Shared));
    }

    #[test]
    fn hits_locally_classifies_without_mutating() {
        let mut c = ProcessorCache::with_protocol(8, 2, Protocol::Mesi);
        c.fill(0, LineState::Shared, t(0));
        c.fill(8, LineState::Exclusive, t(0));
        c.fill(1, LineState::Modified, t(0));
        assert!(c.hits_locally(0, false), "read of Shared");
        assert!(!c.hits_locally(0, true), "write of Shared needs an upgrade");
        assert!(
            c.hits_locally(8, true),
            "write of Exclusive upgrades silently"
        );
        assert!(c.hits_locally(1, true), "write of Modified");
        assert!(!c.hits_locally(16, false), "miss");
        // Read-only: no state change, and LRU order untouched (0 is still
        // the LRU way of its set, so the next fill there evicts it).
        assert_eq!(c.state_of(8), Some(LineState::Exclusive));
        assert_eq!(
            c.fill(16, LineState::Shared, t(0)),
            Some((0, LineState::Shared))
        );

        let mut d = ProcessorCache::with_protocol(8, 1, Protocol::Dragon);
        d.fill(2, LineState::SharedDirty, t(0));
        assert!(d.hits_locally(2, false));
        assert!(
            !d.hits_locally(2, true),
            "Dragon write of a shared line updates"
        );
    }

    #[test]
    fn hit_refreshes_slot_owner() {
        let mut c = ProcessorCache::new(8);
        c.fill(4, LineState::Shared, t(0));
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
        c.fill(3, LineState::Shared, t(0));
        c.invalidate(3, p(2), t(5));
        assert_eq!(
            c.access(3, false, t(0)),
            Access::Miss {
                kind: MissKind::Invalidation,
                source: Some(p(2))
            }
        );
        c.fill(3, LineState::Shared, t(0));
        c.fill(11, LineState::Shared, t(1)); // evicts 3
        assert_eq!(
            c.access(3, false, t(0)),
            Access::Miss {
                kind: MissKind::InterThreadConflict,
                source: None
            }
        );
    }
}
