//! Cycle accounting and the four-way cache-miss taxonomy.

use std::fmt;
use std::ops::AddAssign;

/// The paper's cache-miss classification (§3.2: "separate statistics on
/// the individual cache miss components of compulsory, intra-thread
/// conflict, inter-thread conflict and invalidation misses").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// First reference to the line by this processor's cache, ever.
    Compulsory,
    /// The line was previously evicted by a reference of the *same*
    /// thread.
    IntraThreadConflict,
    /// The line was previously evicted by a reference of a *different*
    /// co-resident thread.
    InterThreadConflict,
    /// The line was invalidated by another processor's write.
    Invalidation,
}

impl MissKind {
    /// All kinds, in the paper's presentation order.
    pub const ALL: [MissKind; 4] = [
        MissKind::Compulsory,
        MissKind::IntraThreadConflict,
        MissKind::InterThreadConflict,
        MissKind::Invalidation,
    ];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            MissKind::Compulsory => "compulsory",
            MissKind::IntraThreadConflict => "intra-thread conflict",
            MissKind::InterThreadConflict => "inter-thread conflict",
            MissKind::Invalidation => "invalidation",
        }
    }
}

impl fmt::Display for MissKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Miss counts by [`MissKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    /// Compulsory misses.
    pub compulsory: u64,
    /// Intra-thread conflict misses.
    pub intra_thread_conflict: u64,
    /// Inter-thread conflict misses.
    pub inter_thread_conflict: u64,
    /// Invalidation misses.
    pub invalidation: u64,
}

impl MissBreakdown {
    /// Records one miss of `kind`.
    pub fn record(&mut self, kind: MissKind) {
        match kind {
            MissKind::Compulsory => self.compulsory += 1,
            MissKind::IntraThreadConflict => self.intra_thread_conflict += 1,
            MissKind::InterThreadConflict => self.inter_thread_conflict += 1,
            MissKind::Invalidation => self.invalidation += 1,
        }
    }

    /// Count for one kind.
    pub fn get(&self, kind: MissKind) -> u64 {
        match kind {
            MissKind::Compulsory => self.compulsory,
            MissKind::IntraThreadConflict => self.intra_thread_conflict,
            MissKind::InterThreadConflict => self.inter_thread_conflict,
            MissKind::Invalidation => self.invalidation,
        }
    }

    /// All misses.
    pub fn total(&self) -> u64 {
        self.compulsory
            + self.intra_thread_conflict
            + self.inter_thread_conflict
            + self.invalidation
    }

    /// Conflict misses (intra + inter).
    pub fn conflicts(&self) -> u64 {
        self.intra_thread_conflict + self.inter_thread_conflict
    }

    /// Compulsory + invalidation misses — the component the sharing
    /// hypothesis predicts placement should reduce.
    pub fn compulsory_plus_invalidation(&self) -> u64 {
        self.compulsory + self.invalidation
    }

    /// Iterates over `(kind, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MissKind, u64)> + '_ {
        MissKind::ALL.into_iter().map(|k| (k, self.get(k)))
    }
}

impl AddAssign for MissBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.compulsory += rhs.compulsory;
        self.intra_thread_conflict += rhs.intra_thread_conflict;
        self.inter_thread_conflict += rhs.inter_thread_conflict;
        self.invalidation += rhs.invalidation;
    }
}

/// Per-processor cycle and event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Cycles spent executing references (one per completed reference).
    pub busy: u64,
    /// Cycles spent draining the pipeline on context switches.
    pub switching: u64,
    /// Cycles spent with no ready context.
    pub idle: u64,
    /// Cycle at which this processor's last reference completed.
    pub finish_time: u64,
    /// References that hit in the cache.
    pub hits: u64,
    /// Miss counts by kind.
    pub misses: MissBreakdown,
    /// Invalidations this processor's writes sent to remote caches.
    pub invalidations_sent: u64,
    /// Invalidations received (lines removed from this cache).
    pub invalidations_received: u64,
    /// Write hits on Shared lines (coherence upgrades). Always zero
    /// under Dragon, whose shared writes send updates instead.
    pub upgrades: u64,
    /// Write-update messages this processor's writes sent to remote
    /// sharers (Dragon only; structurally zero under write-invalidate
    /// protocols, never double-counted as invalidations).
    pub updates_sent: u64,
    /// Write-update messages received (lines refreshed in place).
    pub updates_received: u64,
    /// Barrier operations executed (arrivals at global barriers).
    pub barrier_ops: u64,
}

impl ProcStats {
    /// Total references executed (including barrier records).
    pub fn refs(&self) -> u64 {
        self.hits + self.misses.total() + self.barrier_ops
    }

    /// `busy + switching + idle` — must equal `finish_time` (conservation
    /// law, enforced by tests).
    pub fn accounted_cycles(&self) -> u64 {
        self.busy + self.switching + self.idle
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    per_proc: Vec<ProcStats>,
}

impl SimStats {
    pub(crate) fn new(per_proc: Vec<ProcStats>) -> Self {
        SimStats { per_proc }
    }

    /// Per-processor statistics, indexed by processor id.
    pub fn per_proc(&self) -> &[ProcStats] {
        &self.per_proc
    }

    /// Execution time: the maximum finish time over all processors (the
    /// quantity the paper's Figures 2–4 plot).
    pub fn execution_time(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|p| p.finish_time)
            .max()
            .unwrap_or(0)
    }

    /// Aggregated miss breakdown over all processors.
    pub fn total_misses(&self) -> MissBreakdown {
        let mut sum = MissBreakdown::default();
        for p in &self.per_proc {
            sum += p.misses;
        }
        sum
    }

    /// Total cache hits.
    pub fn total_hits(&self) -> u64 {
        self.per_proc.iter().map(|p| p.hits).sum()
    }

    /// Total references executed.
    pub fn total_refs(&self) -> u64 {
        self.per_proc.iter().map(|p| p.refs()).sum()
    }

    /// Total invalidations sent.
    pub fn total_invalidations(&self) -> u64 {
        self.per_proc.iter().map(|p| p.invalidations_sent).sum()
    }

    /// Total write-update messages sent (Dragon's `UpdateTraffic`
    /// column; zero under write-invalidate protocols).
    pub fn total_updates(&self) -> u64 {
        self.per_proc.iter().map(|p| p.updates_sent).sum()
    }

    /// The paper's "coherence traffic" generalized across protocols:
    /// invalidations plus invalidation misses (write-invalidate family)
    /// plus update messages (write-update family). Each transaction
    /// lands in exactly one bucket, so the buckets sum without double
    /// counting; under the paper's protocol updates are structurally
    /// zero and this reduces to the original definition.
    pub fn coherence_traffic(&self) -> u64 {
        self.total_invalidations() + self.total_misses().invalidation + self.total_updates()
    }

    /// Miss rate over all references (0–1).
    pub fn miss_rate(&self) -> f64 {
        let refs = self.total_refs();
        if refs == 0 {
            0.0
        } else {
            self.total_misses().total() as f64 / refs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_records_and_totals() {
        let mut b = MissBreakdown::default();
        b.record(MissKind::Compulsory);
        b.record(MissKind::Compulsory);
        b.record(MissKind::IntraThreadConflict);
        b.record(MissKind::InterThreadConflict);
        b.record(MissKind::Invalidation);
        assert_eq!(b.total(), 5);
        assert_eq!(b.conflicts(), 2);
        assert_eq!(b.compulsory_plus_invalidation(), 3);
        assert_eq!(b.get(MissKind::Compulsory), 2);
        let counts: Vec<u64> = b.iter().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![2, 1, 1, 1]);
    }

    #[test]
    fn breakdown_add_assign() {
        let mut a = MissBreakdown {
            compulsory: 1,
            intra_thread_conflict: 2,
            inter_thread_conflict: 3,
            invalidation: 4,
        };
        a += a;
        assert_eq!(a.total(), 20);
    }

    #[test]
    fn sim_stats_aggregates() {
        let p0 = ProcStats {
            busy: 10,
            switching: 6,
            idle: 4,
            finish_time: 20,
            hits: 8,
            misses: MissBreakdown {
                compulsory: 2,
                ..Default::default()
            },
            invalidations_sent: 1,
            invalidations_received: 0,
            upgrades: 1,
            updates_sent: 0,
            updates_received: 0,
            barrier_ops: 0,
        };
        let p1 = ProcStats {
            finish_time: 30,
            hits: 5,
            misses: MissBreakdown {
                invalidation: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = SimStats::new(vec![p0, p1]);
        assert_eq!(s.execution_time(), 30);
        assert_eq!(s.total_hits(), 13);
        assert_eq!(s.total_refs(), 16);
        assert_eq!(s.total_misses().total(), 3);
        assert_eq!(s.total_invalidations(), 1);
        assert_eq!(s.coherence_traffic(), 2);
        assert!((s.miss_rate() - 3.0 / 16.0).abs() < 1e-12);
        assert_eq!(p0.refs(), 10);
        assert_eq!(p0.accounted_cycles(), 20);
    }

    #[test]
    fn empty_stats() {
        let s = SimStats::new(vec![]);
        assert_eq!(s.execution_time(), 0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.total_updates(), 0);
    }

    /// Updates are their own coherence-traffic bucket: they add to
    /// `coherence_traffic` without inflating the invalidation counters
    /// or the miss taxonomy (the satellite no-double-counting law).
    #[test]
    fn updates_count_once_in_coherence_traffic() {
        let writer = ProcStats {
            hits: 4,
            updates_sent: 3,
            ..Default::default()
        };
        let sharer = ProcStats {
            hits: 2,
            updates_received: 3,
            ..Default::default()
        };
        let s = SimStats::new(vec![writer, sharer]);
        assert_eq!(s.total_updates(), 3);
        assert_eq!(s.total_invalidations(), 0);
        assert_eq!(s.total_misses().invalidation, 0);
        assert_eq!(s.coherence_traffic(), 3);
    }

    #[test]
    fn kind_labels() {
        for k in MissKind::ALL {
            assert!(!k.label().is_empty());
            assert_eq!(k.to_string(), k.label());
        }
    }
}
