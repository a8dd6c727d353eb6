//! Reuse-distance (LRU stack) and working-set analysis.
//!
//! The paper scales data-set size and cache size together (§3.2) to keep
//! a "realistic ratio between the two"; this module provides the tooling
//! to check that ratio on any trace: per-thread working sets and an LRU
//! reuse-distance histogram, from which the hit rate of any
//! fully-associative LRU cache can be estimated (the classic stack
//! algorithm of Mattson et al.).
//!
//! Distances are tracked exactly up to [`STACK_CAP`] and lumped into a
//! "far" bucket beyond it, bounding the cost to `O(refs · STACK_CAP)` in
//! the worst case (in practice reuse is near the stack top).

use placesim_trace::{ProgramTrace, ThreadTrace};

/// Maximum exactly-tracked stack distance.
pub const STACK_CAP: usize = 4096;

/// Reuse-distance histogram of one reference stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalityProfile {
    /// References analyzed (data + instruction, as line accesses).
    pub refs: u64,
    /// First touches (infinite reuse distance).
    pub cold: u64,
    /// `histogram[k]` counts reuses at stack distance in
    /// `[2^k, 2^(k+1))`; distance 0 (immediate re-reference) is bucket 0.
    pub histogram: Vec<u64>,
    /// Reuses beyond [`STACK_CAP`].
    pub far: u64,
    /// Distinct lines touched (the working set, in lines).
    pub working_set: u64,
}

impl LocalityProfile {
    /// Measures one thread's line-granular reuse behavior.
    pub fn measure_thread(trace: &ThreadTrace, line_size: u64) -> Self {
        Self::measure(trace.iter().map(|r| r.addr.line(line_size).raw()))
    }

    /// Measures an arbitrary stream of line addresses.
    pub fn measure<I: IntoIterator<Item = u64>>(lines: I) -> Self {
        let mut stack: Vec<u64> = Vec::new(); // MRU first, capped
        let mut overflow: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut profile = LocalityProfile {
            refs: 0,
            cold: 0,
            histogram: vec![0; (usize::BITS - (STACK_CAP - 1).leading_zeros()) as usize + 1],
            far: 0,
            working_set: 0,
        };
        for line in lines {
            profile.refs += 1;
            if let Some(pos) = stack.iter().position(|&l| l == line) {
                // Bucket 0 holds distance 0; bucket b ≥ 1 holds
                // [2^(b−1), 2^b), i.e. b = ⌊log₂ pos⌋ + 1.
                let b = if pos == 0 {
                    0
                } else {
                    (usize::BITS - pos.leading_zeros()) as usize
                };
                let last = profile.histogram.len() - 1;
                profile.histogram[b.min(last)] += 1;
                stack.remove(pos);
                stack.insert(0, line);
            } else if overflow.contains(&line) {
                // Reuse beyond the tracked stack window.
                profile.far += 1;
                stack.insert(0, line);
                if stack.len() > STACK_CAP {
                    let spilled = stack.pop().expect("stack non-empty");
                    overflow.insert(spilled);
                }
            } else {
                profile.cold += 1;
                profile.working_set += 1;
                stack.insert(0, line);
                if stack.len() > STACK_CAP {
                    let spilled = stack.pop().expect("stack non-empty");
                    overflow.insert(spilled);
                }
            }
        }
        profile
    }

    /// Estimated hit rate of a fully-associative LRU cache with
    /// `capacity_lines` lines: every reuse at stack distance <
    /// capacity hits (Mattson's inclusion property).
    pub fn lru_hit_rate(&self, capacity_lines: u64) -> f64 {
        if self.refs == 0 {
            return 0.0;
        }
        let mut hits = 0u64;
        for (b, &count) in self.histogram.iter().enumerate() {
            // Bucket b covers distances [2^(b-1), 2^b) for b ≥ 1, {0} for 0.
            let max_distance = if b == 0 { 0 } else { (1u64 << b) - 1 };
            if max_distance < capacity_lines {
                hits += count;
            }
        }
        hits as f64 / self.refs as f64
    }

    /// Fraction of references that are first touches.
    pub fn cold_fraction(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.cold as f64 / self.refs as f64
        }
    }
}

/// Working-set summary of a whole program, per thread and combined.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkingSetSummary {
    /// Per-thread distinct lines.
    pub per_thread: Vec<u64>,
    /// Distinct lines over all threads combined.
    pub combined: u64,
    /// The combined working set in bytes.
    pub combined_bytes: u64,
}

impl WorkingSetSummary {
    /// Measures line-granular working sets for every thread of `prog`.
    pub fn measure(prog: &ProgramTrace, line_size: u64) -> Self {
        let mut combined: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let per_thread = prog
            .threads()
            .iter()
            .map(|t| {
                let mut own: std::collections::HashSet<u64> = std::collections::HashSet::new();
                for r in t.iter() {
                    let line = r.addr.line(line_size).raw();
                    own.insert(line);
                    combined.insert(line);
                }
                own.len() as u64
            })
            .collect();
        WorkingSetSummary {
            per_thread,
            combined: combined.len() as u64,
            combined_bytes: combined.len() as u64 * line_size,
        }
    }

    /// Ratio of the combined working set to a cache of `cache_bytes` —
    /// the paper's "realistic ratio between the two".
    pub fn cache_pressure(&self, cache_bytes: u64) -> f64 {
        self.combined_bytes as f64 / cache_bytes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_trace::{Address, MemRef};

    #[test]
    fn immediate_reuse_is_bucket_zero() {
        let p = LocalityProfile::measure([1u64, 1, 1]);
        assert_eq!(p.refs, 3);
        assert_eq!(p.cold, 1);
        assert_eq!(p.histogram[0], 2);
        assert_eq!(p.working_set, 1);
    }

    #[test]
    fn distances_bucketized() {
        // Stream 1 2 3 1: the reuse of 1 is at stack distance 2 → bucket 2
        // ([2,4)).
        let p = LocalityProfile::measure([1u64, 2, 3, 1]);
        assert_eq!(p.cold, 3);
        assert_eq!(p.histogram[2], 1);
    }

    #[test]
    fn lru_hit_rate_monotone_in_capacity() {
        let stream: Vec<u64> = (0..200u64).flat_map(|i| [i % 40, i % 7]).collect();
        let p = LocalityProfile::measure(stream);
        let mut last = 0.0;
        for cap in [1u64, 2, 8, 16, 64, 256] {
            let h = p.lru_hit_rate(cap);
            assert!(h >= last, "hit rate must grow with capacity");
            last = h;
        }
        assert!(last <= 1.0);
    }

    #[test]
    fn cyclic_sweep_defeats_small_lru() {
        // Cyclic sweep over 64 lines: distance is always 63 — hits only
        // when capacity > 63.
        let stream: Vec<u64> = (0..640u64).map(|i| i % 64).collect();
        let p = LocalityProfile::measure(stream);
        assert_eq!(p.cold, 64);
        assert_eq!(p.lru_hit_rate(32), 0.0);
        assert!(p.lru_hit_rate(64) > 0.85);
    }

    #[test]
    fn far_reuse_tracked_beyond_cap() {
        // Touch CAP+10 distinct lines, then re-touch the first.
        let n = (STACK_CAP + 10) as u64;
        let mut stream: Vec<u64> = (0..n).collect();
        stream.push(0);
        let p = LocalityProfile::measure(stream);
        assert_eq!(p.cold, n);
        assert_eq!(p.far, 1);
        assert_eq!(p.working_set, n);
    }

    #[test]
    fn measure_thread_uses_lines() {
        let t: ThreadTrace = [
            MemRef::read(Address::new(0x100)),
            MemRef::read(Address::new(0x104)), // same 32-byte line
            MemRef::read(Address::new(0x200)),
        ]
        .into_iter()
        .collect();
        let p = LocalityProfile::measure_thread(&t, 32);
        assert_eq!(p.working_set, 2);
        assert_eq!(p.histogram[0], 1);
    }

    #[test]
    fn working_set_summary() {
        let t0: ThreadTrace = [
            MemRef::read(Address::new(0x000)),
            MemRef::read(Address::new(0x100)),
        ]
        .into_iter()
        .collect();
        let t1: ThreadTrace = [
            MemRef::read(Address::new(0x100)),
            MemRef::read(Address::new(0x200)),
        ]
        .into_iter()
        .collect();
        let prog = ProgramTrace::new("ws", vec![t0, t1]);
        let ws = WorkingSetSummary::measure(&prog, 32);
        assert_eq!(ws.per_thread, vec![2, 2]);
        assert_eq!(ws.combined, 3);
        assert_eq!(ws.combined_bytes, 96);
        assert!((ws.cache_pressure(96) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream() {
        let p = LocalityProfile::measure(std::iter::empty());
        assert_eq!(p.refs, 0);
        assert_eq!(p.lru_hit_rate(1024), 0.0);
        assert_eq!(p.cold_fraction(), 0.0);
    }
}
