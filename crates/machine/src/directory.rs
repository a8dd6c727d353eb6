//! Full-map directory shared by all three coherence protocols.
//!
//! The directory tracks, per cache line, which processors hold a copy and
//! whether one holds it exclusively. Caches send replacement hints on
//! eviction, so sharer sets are exact — invalidations and updates only
//! ever target caches that actually hold the line.
//!
//! The base [`Directory::read_fill`]/[`Directory::write_fill`] pair is
//! the paper's write-invalidate machine and serves MESI unchanged (the
//! directory's `Modified` state means "sole holder", which covers both
//! MESI's E and M — the silent E→M upgrade is invisible to the
//! directory). MESI additionally uses [`Directory::grant_exclusive`] for
//! exclusive-clean read fills, and Dragon replaces the invalidating
//! write path with [`Directory::update_fill`].
//!
//! Lines are named by the dense ids [`Directory::intern`] hands out, so
//! a line's state is a vector slot rather than a hash-map entry.

use placesim_placement::ProcessorId;
use placesim_trace::hash::FastMap;

/// Maximum number of processors the directory supports (the sharer set
/// is a `u128` bitmask). The paper's largest configuration is 127
/// processors (Gauss, one thread per processor).
pub const MAX_PROCESSORS: usize = 128;

/// A set of processors holding a line, as a bitmask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharerSet(u128);

impl SharerSet {
    /// The empty set.
    pub fn empty() -> Self {
        SharerSet(0)
    }

    /// Set containing exactly `p`.
    pub fn single(p: ProcessorId) -> Self {
        SharerSet(1u128 << p.index())
    }

    /// Inserts `p`.
    pub fn insert(&mut self, p: ProcessorId) {
        self.0 |= 1u128 << p.index();
    }

    /// Removes `p`.
    pub fn remove(&mut self, p: ProcessorId) {
        self.0 &= !(1u128 << p.index());
    }

    /// Membership test.
    pub fn contains(&self, p: ProcessorId) -> bool {
        self.0 & (1u128 << p.index()) != 0
    }

    /// Number of sharers.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// `true` if no processor holds the line.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over members in ascending processor order.
    pub fn iter(&self) -> SharerIter {
        SharerIter(self.0)
    }
}

impl IntoIterator for SharerSet {
    type Item = ProcessorId;
    type IntoIter = SharerIter;

    fn into_iter(self) -> SharerIter {
        SharerIter(self.0)
    }
}

/// Iterator over a [`SharerSet`]'s members in ascending processor order:
/// one `trailing_zeros` per member, however sparse the set.
#[derive(Debug, Clone)]
pub struct SharerIter(u128);

impl Iterator for SharerIter {
    type Item = ProcessorId;

    #[inline]
    fn next(&mut self) -> Option<ProcessorId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(ProcessorId::from_index(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SharerIter {}

/// Directory state of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirState {
    /// One or more caches hold the line clean.
    Shared(SharerSet),
    /// Exactly one cache holds the line dirty.
    Modified(ProcessorId),
}

/// What a cache must do after a directory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Remote caches that must invalidate the line.
    pub invalidate: SharerSet,
    /// Remote cache that must downgrade the line Modified → Shared.
    pub downgrade: Option<ProcessorId>,
}

impl Transaction {
    /// The empty transaction (no remote action required).
    pub(crate) fn none() -> Self {
        Transaction {
            invalidate: SharerSet::empty(),
            downgrade: None,
        }
    }
}

/// The full-map directory.
///
/// It also names the lines. [`Directory::intern`] gives each line a
/// dense id at its first miss anywhere, with one hash probe, and every
/// other operation takes that id: a line's state is a vector slot, and
/// the caches keep their per-line records by the same ids (see
/// `cache.rs`). A miss thus costs one probe however many records it
/// reads or writes.
#[derive(Debug, Default)]
pub struct Directory {
    /// The id of every line interned so far.
    ids: FastMap<u64, u32>,
    /// `lines[id]`: the line with id `id`.
    lines: Vec<u64>,
    /// `states[id]`: the state of line `id`; `Shared` with no sharers
    /// while no cache holds it.
    states: Vec<DirState>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `line`, given out in first-call order from 0. The engine
    /// calls this once per miss.
    ///
    /// # Panics
    ///
    /// If more than `u32::MAX` lines are interned.
    #[inline]
    pub fn intern(&mut self, line: u64) -> u32 {
        let next = u32::try_from(self.lines.len()).expect("fewer than 2^32 lines");
        let id = *self.ids.entry(line).or_insert(next);
        if id == next {
            self.lines.push(line);
            self.states.push(DirState::Shared(SharerSet::empty()));
        }
        id
    }

    /// The id of `line`, if it was interned. For assertions/tests.
    pub fn id(&self, line: u64) -> Option<u32> {
        self.ids.get(&line).copied()
    }

    /// The state of line `id`.
    #[inline]
    fn state(&mut self, id: u32) -> &mut DirState {
        &mut self.states[id as usize]
    }

    /// Number of lines with at least one cached copy.
    pub fn tracked_lines(&self) -> usize {
        self.iter_lines().count()
    }

    /// Processor `p` reads line `id` (on a read miss fill).
    ///
    /// Returns the remote actions: a Modified owner, if any, must
    /// downgrade to Shared.
    pub fn read_fill(&mut self, p: ProcessorId, id: u32) -> Transaction {
        let mut tx = Transaction::none();
        let state = self.state(id);
        match state {
            DirState::Shared(sharers) => {
                sharers.insert(p);
            }
            DirState::Modified(owner) => {
                let owner = *owner;
                debug_assert!(owner != p, "owner re-reading must hit in its own cache");
                tx.downgrade = Some(owner);
                let mut sharers = SharerSet::single(owner);
                sharers.insert(p);
                *state = DirState::Shared(sharers);
            }
        }
        tx
    }

    /// Processor `p` writes line `id` (write-miss fill *or* upgrade of a
    /// Shared copy).
    ///
    /// Returns the remote caches to invalidate; the directory then
    /// records `p` as the exclusive Modified owner.
    pub fn write_fill(&mut self, p: ProcessorId, id: u32) -> Transaction {
        let mut tx = Transaction::none();
        let state = self.state(id);
        match state {
            DirState::Shared(sharers) => {
                tx.invalidate = *sharers;
                tx.invalidate.remove(p);
                *state = DirState::Modified(p);
            }
            DirState::Modified(owner) => {
                if *owner != p {
                    tx.invalidate = SharerSet::single(*owner);
                    *state = DirState::Modified(p);
                }
            }
        }
        tx
    }

    /// Records `p` as the sole (exclusive) holder of an untracked line.
    ///
    /// MESI/Dragon read-miss path: when a read fill finds no other
    /// holder, the line fills Exclusive and the directory tracks the
    /// filler as owner, reusing the `Modified` representation — for the
    /// directory both mean "exactly one cache holds the line and must be
    /// consulted on remote access". A later remote read downgrades it
    /// via the ordinary [`Directory::read_fill`] path.
    pub fn grant_exclusive(&mut self, p: ProcessorId, id: u32) {
        let state = self.state(id);
        debug_assert!(
            *state == DirState::Shared(SharerSet::empty()),
            "exclusive grant for a line with existing holders"
        );
        *state = DirState::Modified(p);
    }

    /// Processor `p` writes line `id` under a write-update protocol
    /// (Dragon): remote copies are refreshed in place, never removed.
    ///
    /// Returns the remote sharers that must apply the update. The
    /// directory keeps every copy resident; if `p` ends up the sole
    /// holder the line is recorded as Modified, otherwise the sharer set
    /// (including `p`, who holds it SharedDirty) stays Shared.
    pub fn update_fill(&mut self, p: ProcessorId, id: u32) -> SharerSet {
        let mut others = SharerSet::empty();
        let state = self.state(id);
        match state {
            DirState::Shared(sharers) => {
                others = *sharers;
                others.remove(p);
                if others.is_empty() {
                    *state = DirState::Modified(p);
                } else {
                    sharers.insert(p);
                }
            }
            DirState::Modified(owner) => {
                // A write hit on an exclusively-held line is silent in the
                // cache (E/M → M), so Dragon never sends the owner back here.
                debug_assert!(
                    *owner != p,
                    "owner re-updating must upgrade silently in its own cache"
                );
                if *owner != p {
                    others = SharerSet::single(*owner);
                    let mut sharers = SharerSet::single(*owner);
                    sharers.insert(p);
                    *state = DirState::Shared(sharers);
                }
            }
        }
        others
    }

    /// Replacement hint: processor `p` evicted its copy of line `id`.
    pub fn evict(&mut self, p: ProcessorId, id: u32) {
        let state = self.state(id);
        match state {
            DirState::Shared(sharers) => sharers.remove(p),
            DirState::Modified(owner) => {
                debug_assert!(*owner == p, "only the owner can evict a Modified line");
                *state = DirState::Shared(SharerSet::empty());
            }
        }
    }

    /// The sharers of line `id` (empty if untracked). For assertions/tests.
    pub fn sharers(&self, id: u32) -> SharerSet {
        match self.states[id as usize] {
            DirState::Shared(s) => s,
            DirState::Modified(o) => SharerSet::single(o),
        }
    }

    /// Whether `p` holds line `id` according to the directory.
    pub fn holds(&self, p: ProcessorId, id: u32) -> bool {
        self.sharers(id).contains(p)
    }

    /// The exclusive Modified owner of line `id`, if it has one.
    pub fn owner(&self, id: u32) -> Option<ProcessorId> {
        match self.states[id as usize] {
            DirState::Modified(o) => Some(o),
            DirState::Shared(_) => None,
        }
    }

    /// Iterates over every tracked line as
    /// `(line, sharers, modified_owner)`, in id order.
    pub fn iter_lines(&self) -> impl Iterator<Item = (u64, SharerSet, Option<ProcessorId>)> + '_ {
        self.lines
            .iter()
            .zip(&self.states)
            .filter_map(|(&line, state)| match *state {
                DirState::Shared(s) if s.is_empty() => None,
                DirState::Shared(s) => Some((line, s, None)),
                DirState::Modified(o) => Some((line, SharerSet::single(o), Some(o))),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::from_index(i)
    }

    /// A transaction's processor set as the ascending list it iterates.
    fn members(s: SharerSet) -> Vec<ProcessorId> {
        s.iter().collect()
    }

    #[test]
    fn sharer_set_ops() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(p(3));
        s.insert(p(127));
        assert!(s.contains(p(3)));
        assert!(!s.contains(p(4)));
        assert_eq!(s.len(), 2);
        let members: Vec<usize> = s.iter().map(|x| x.index()).collect();
        assert_eq!(members, vec![3, 127]);
        s.remove(p(3));
        assert!(!s.contains(p(3)));
        assert_eq!(SharerSet::single(p(0)).len(), 1);
    }

    #[test]
    fn read_read_shares() {
        let mut d = Directory::new();
        let l10 = d.intern(10);
        assert_eq!(d.read_fill(p(0), l10), Transaction::none());
        assert_eq!(d.read_fill(p(1), l10), Transaction::none());
        assert_eq!(d.sharers(l10).len(), 2);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
        let l10 = d.intern(10);
        d.read_fill(p(0), l10);
        d.read_fill(p(1), l10);
        d.read_fill(p(2), l10);
        let tx = d.write_fill(p(1), l10);
        assert_eq!(members(tx.invalidate), vec![p(0), p(2)]);
        assert!(tx.downgrade.is_none());
        assert!(d.holds(p(1), l10));
        assert!(!d.holds(p(0), l10));
    }

    #[test]
    fn read_downgrades_owner() {
        let mut d = Directory::new();
        let l20 = d.intern(20);
        d.write_fill(p(0), l20);
        let tx = d.read_fill(p(1), l20);
        assert_eq!(tx.downgrade, Some(p(0)));
        assert!(tx.invalidate.is_empty());
        assert_eq!(d.sharers(l20).len(), 2);
    }

    #[test]
    fn write_steals_modified() {
        let mut d = Directory::new();
        let l30 = d.intern(30);
        d.write_fill(p(0), l30);
        let tx = d.write_fill(p(1), l30);
        assert_eq!(members(tx.invalidate), vec![p(0)]);
        assert!(d.holds(p(1), l30));
        assert!(!d.holds(p(0), l30));
    }

    #[test]
    fn rewrite_by_owner_is_silent() {
        let mut d = Directory::new();
        let l30 = d.intern(30);
        d.write_fill(p(0), l30);
        let tx = d.write_fill(p(0), l30);
        assert_eq!(tx, Transaction::none());
    }

    #[test]
    fn eviction_hints_clean_up() {
        let mut d = Directory::new();
        let l40 = d.intern(40);
        let l50 = d.intern(50);
        d.read_fill(p(0), l40);
        d.read_fill(p(1), l40);
        d.evict(p(0), l40);
        assert!(!d.holds(p(0), l40));
        assert!(d.holds(p(1), l40));
        d.evict(p(1), l40);
        assert_eq!(d.tracked_lines(), 0);

        d.write_fill(p(2), l50);
        d.evict(p(2), l50);
        assert_eq!(d.tracked_lines(), 0);
        // Evicting an untracked line is a no-op.
        d.evict(p(2), l50);
    }

    #[test]
    fn upgrade_from_shared_excludes_writer() {
        let mut d = Directory::new();
        let l60 = d.intern(60);
        d.read_fill(p(0), l60);
        d.read_fill(p(1), l60);
        // p0 upgrades its own Shared copy.
        let tx = d.write_fill(p(0), l60);
        assert_eq!(members(tx.invalidate), vec![p(1)]);
    }

    #[test]
    fn exclusive_grant_then_remote_read_downgrades() {
        let mut d = Directory::new();
        let l70 = d.intern(70);
        d.grant_exclusive(p(0), l70);
        assert_eq!(d.owner(l70), Some(p(0)));
        // MESI: remote read of an E/M line goes through read_fill and
        // downgrades the sole holder.
        let tx = d.read_fill(p(1), l70);
        assert_eq!(tx.downgrade, Some(p(0)));
        assert_eq!(d.sharers(l70).len(), 2);
    }

    #[test]
    fn update_fill_refreshes_sharers_in_place() {
        let mut d = Directory::new();
        let l80 = d.intern(80);
        d.read_fill(p(0), l80);
        d.read_fill(p(1), l80);
        d.read_fill(p(2), l80);
        // p1 writes: p0 and p2 get updates and *stay* sharers.
        let others = d.update_fill(p(1), l80);
        assert_eq!(members(others), vec![p(0), p(2)]);
        assert_eq!(d.sharers(l80).len(), 3);
        assert_eq!(d.owner(l80), None);
    }

    #[test]
    fn update_fill_sole_holder_becomes_owner() {
        let mut d = Directory::new();
        let l90 = d.intern(90);
        // Write miss on an untracked line: no updates, exclusive owner.
        assert!(d.update_fill(p(0), l90).is_empty());
        assert_eq!(d.owner(l90), Some(p(0)));
        // A remote write update steals nothing: both stay resident.
        let others = d.update_fill(p(1), l90);
        assert_eq!(members(others), vec![p(0)]);
        assert_eq!(d.sharers(l90).len(), 2);
        assert_eq!(d.owner(l90), None);
    }

    #[test]
    fn update_fill_sole_sharer_collapses_to_owner() {
        let mut d = Directory::new();
        let l95 = d.intern(95);
        d.read_fill(p(0), l95);
        d.read_fill(p(1), l95);
        d.evict(p(1), l95);
        // p0 is the only sharer left; its update promotes to ownership.
        assert!(d.update_fill(p(0), l95).is_empty());
        assert_eq!(d.owner(l95), Some(p(0)));
    }
}
