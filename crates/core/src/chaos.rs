//! Deterministic chaos injection for the sweep supervisor
//! (`chaos` feature only).
//!
//! A [`ChaosPlan`] is a pure function from `(seed, cell, fault class)`
//! to "does a fault fire here": the same plan injects the same faults
//! on every run, so chaos tests are reproducible and the supervisor's
//! recovery behaviour can be asserted exactly. Rate-based faults fire
//! only on a cell's **first** attempt — a retried cell deterministically
//! succeeds, which lets tests distinguish "retried to success" from
//! "exhausted into a hole". Cells listed as persistent failures panic on
//! *every* attempt, exercising the hole path.

use crate::attempt::splitmix64;
use std::time::Duration;

/// A fault injected into a sweep worker attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker panics mid-cell.
    Panic,
    /// The worker stalls for the given duration before completing
    /// (trips the watchdog when the stall exceeds it).
    Stall(Duration),
}

/// A fault injected into a journal append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalFault {
    /// Half the line reaches the file, then the write "fails" — the
    /// torn state is made real on disk first.
    ShortWrite,
    /// The append fails outright without touching the file.
    Error,
}

/// Distinguishes fault classes when hashing, so e.g. panic and stall
/// rolls for the same cell are independent.
#[derive(Clone, Copy)]
enum FaultClass {
    Panic = 1,
    Stall = 2,
    Journal = 3,
}

/// A seeded, deterministic fault plan. Build one with [`ChaosPlan::new`]
/// plus the `with_*` builders; all rates are per-mille (out of 1000).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    seed: u64,
    panic_per_mille: u32,
    stall_per_mille: u32,
    stall_ms: u64,
    journal_per_mille: u32,
    persistent: Vec<usize>,
}

impl ChaosPlan {
    /// A plan with the given seed and no faults armed.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Arms first-attempt worker panics at `per_mille` / 1000 cells.
    pub fn with_panics(mut self, per_mille: u32) -> Self {
        self.panic_per_mille = per_mille;
        self
    }

    /// Arms first-attempt worker stalls of `ms` milliseconds at
    /// `per_mille` / 1000 cells.
    pub fn with_stalls(mut self, per_mille: u32, ms: u64) -> Self {
        self.stall_per_mille = per_mille;
        self.stall_ms = ms;
        self
    }

    /// Arms first-attempt journal-append faults at `per_mille` / 1000
    /// cells (alternating short writes and outright errors).
    pub fn with_journal_faults(mut self, per_mille: u32) -> Self {
        self.journal_per_mille = per_mille;
        self
    }

    /// Marks `cell` as persistently failing: it panics on **every**
    /// attempt, so the supervisor must exhaust retries and report a
    /// hole.
    pub fn with_persistent_failure(mut self, cell: usize) -> Self {
        self.persistent.push(cell);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `cell` is marked as persistently failing.
    pub fn is_persistent_failure(&self, cell: usize) -> bool {
        self.persistent.contains(&cell)
    }

    /// The worker fault (if any) for `cell` on `attempt` (0-based).
    /// Persistent cells always panic; rate faults fire on attempt 0
    /// only, with panic taking precedence over stall when both roll.
    pub fn worker_fault(&self, cell: usize, attempt: u32) -> Option<WorkerFault> {
        if self.is_persistent_failure(cell) {
            return Some(WorkerFault::Panic);
        }
        if attempt != 0 {
            return None;
        }
        if self.roll(cell, FaultClass::Panic) < self.panic_per_mille {
            return Some(WorkerFault::Panic);
        }
        if self.roll(cell, FaultClass::Stall) < self.stall_per_mille {
            return Some(WorkerFault::Stall(Duration::from_millis(self.stall_ms)));
        }
        None
    }

    /// The journal fault (if any) for the first append of `cell`'s
    /// line. Callers apply this to attempt 0 only; the journal writer's
    /// internal retry then deterministically succeeds.
    pub fn journal_fault(&self, cell: usize) -> Option<JournalFault> {
        let roll = self.roll(cell, FaultClass::Journal);
        if roll < self.journal_per_mille {
            Some(if roll.is_multiple_of(2) {
                JournalFault::ShortWrite
            } else {
                JournalFault::Error
            })
        } else {
            None
        }
    }

    /// A uniform roll in `0..1000`, a pure function of
    /// `(seed, cell, class)`.
    fn roll(&self, cell: usize, class: FaultClass) -> u32 {
        let key = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((cell as u64) << 8)
            .wrapping_add(class as u64);
        (splitmix64(key) % 1000) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let a = ChaosPlan::new(7).with_panics(500).with_journal_faults(500);
        let b = ChaosPlan::new(7).with_panics(500).with_journal_faults(500);
        for cell in 0..64 {
            assert_eq!(a.worker_fault(cell, 0), b.worker_fault(cell, 0));
            assert_eq!(a.journal_fault(cell), b.journal_fault(cell));
        }
    }

    #[test]
    fn rolls_are_pinned() {
        // The exact fault sets of two half-rate plans: a change to the
        // roll hash would silently re-deal every chaos test's faults.
        let plan = ChaosPlan::new(7)
            .with_panics(500)
            .with_stalls(500, 1)
            .with_journal_faults(500);
        let worker: String = (0..24)
            .map(|c| match plan.worker_fault(c, 0) {
                Some(WorkerFault::Panic) => 'P',
                Some(WorkerFault::Stall(_)) => 'S',
                None => '.',
            })
            .collect();
        let journal: String = (0..24)
            .map(|c| match plan.journal_fault(c) {
                Some(JournalFault::ShortWrite) => 'W',
                Some(JournalFault::Error) => 'E',
                None => '.',
            })
            .collect();
        assert_eq!(
            (worker.as_str(), journal.as_str()),
            ("P.PP..PPPPPSP.PSSPPSP..P", "W..EE.W..EEEWEW.W..E.EEE")
        );
    }

    #[test]
    fn rate_faults_fire_on_first_attempt_only() {
        let plan = ChaosPlan::new(1).with_panics(1000).with_stalls(1000, 5);
        for cell in 0..16 {
            assert!(plan.worker_fault(cell, 0).is_some());
            assert_eq!(plan.worker_fault(cell, 1), None);
            assert_eq!(plan.worker_fault(cell, 2), None);
        }
    }

    #[test]
    fn persistent_cells_panic_every_attempt() {
        let plan = ChaosPlan::new(1).with_persistent_failure(3);
        for attempt in 0..5 {
            assert_eq!(plan.worker_fault(3, attempt), Some(WorkerFault::Panic));
        }
        assert!(plan.is_persistent_failure(3));
        assert!(!plan.is_persistent_failure(4));
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = ChaosPlan::new(42);
        for cell in 0..64 {
            assert_eq!(plan.worker_fault(cell, 0), None);
            assert_eq!(plan.journal_fault(cell), None);
        }
    }

    #[test]
    fn full_rate_hits_every_cell_and_varies_by_seed() {
        let plan = ChaosPlan::new(9).with_journal_faults(1000);
        let mut kinds = std::collections::BTreeSet::new();
        for cell in 0..64 {
            kinds.insert(format!("{:?}", plan.journal_fault(cell).unwrap()));
        }
        // Both fault kinds appear across 64 cells at full rate.
        assert_eq!(kinds.len(), 2);
        // Different seeds give different half-rate fault sets.
        let a = ChaosPlan::new(1).with_panics(500);
        let b = ChaosPlan::new(2).with_panics(500);
        let fire = |p: &ChaosPlan| {
            (0..64)
                .filter(|&c| p.worker_fault(c, 0).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(fire(&a), fire(&b));
    }
}
