//! The output of a placement algorithm: the thread → processor map.

use crate::error::PlacementError;
use placesim_trace::ThreadId;
use std::fmt;

/// Identifier of a processor in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessorId(u16);

impl ProcessorId {
    /// Creates a processor id from a dense index.
    #[inline]
    pub fn new(index: u16) -> Self {
        ProcessorId(index)
    }

    /// Creates a processor id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u16`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ProcessorId(u16::try_from(index).expect("processor index exceeds u16::MAX"))
    }

    /// Returns the dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A complete static assignment of threads to processors.
///
/// This is the "placement map" the paper's simulator consumes: thread
/// clusters never migrate during execution.
///
/// # Example
///
/// ```
/// use placesim_placement::{PlacementMap, ProcessorId};
/// use placesim_trace::ThreadId;
///
/// let map = PlacementMap::from_clusters(vec![vec![0, 2], vec![1]])?;
/// assert_eq!(map.processor_of(ThreadId::new(2)), ProcessorId::new(0));
/// assert_eq!(map.threads_on(ProcessorId::new(1)), &[ThreadId::new(1)]);
/// assert_eq!(map.max_cluster_size(), 2);
/// # Ok::<(), placesim_placement::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    /// `assignment[thread] == processor`.
    assignment: Vec<ProcessorId>,
    /// `clusters[processor]` = thread ids, ascending.
    clusters: Vec<Vec<ThreadId>>,
}

impl PlacementMap {
    /// Builds a map from per-processor clusters of thread indices.
    ///
    /// Cluster `i` is assigned to processor `i`. Thread indices must form
    /// a permutation of `0..t` (every thread placed exactly once).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::DimensionMismatch`] if a thread index is
    /// repeated, missing or out of range.
    pub fn from_clusters(clusters: Vec<Vec<usize>>) -> Result<Self, PlacementError> {
        let t: usize = clusters.iter().map(Vec::len).sum();
        let mut assignment = vec![None; t];
        for (pi, cluster) in clusters.iter().enumerate() {
            for &thread in cluster {
                let slot = assignment
                    .get_mut(thread)
                    .ok_or(PlacementError::DimensionMismatch {
                        what: "cluster thread index",
                        expected: t,
                        found: thread,
                    })?;
                if slot.is_some() {
                    return Err(PlacementError::DimensionMismatch {
                        what: "duplicate thread in clusters",
                        expected: 1,
                        found: 2,
                    });
                }
                *slot = Some(ProcessorId::from_index(pi));
            }
        }
        let assignment: Vec<ProcessorId> = assignment
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect();
        let mut sorted_clusters: Vec<Vec<ThreadId>> = clusters
            .into_iter()
            .map(|c| c.into_iter().map(ThreadId::from_index).collect())
            .collect();
        for c in &mut sorted_clusters {
            c.sort_unstable();
        }
        Ok(PlacementMap {
            assignment,
            clusters: sorted_clusters,
        })
    }

    /// Number of threads placed.
    pub fn thread_count(&self) -> usize {
        self.assignment.len()
    }

    /// Number of processors (clusters), including any empty ones.
    pub fn processor_count(&self) -> usize {
        self.clusters.len()
    }

    /// The processor a thread is placed on.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn processor_of(&self, thread: ThreadId) -> ProcessorId {
        self.assignment[thread.index()]
    }

    /// The threads placed on one processor, ascending by id.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn threads_on(&self, proc: ProcessorId) -> &[ThreadId] {
        &self.clusters[proc.index()]
    }

    /// Iterates over `(processor, cluster)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ProcessorId, &[ThreadId])> + '_ {
        self.clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (ProcessorId::from_index(i), c.as_slice()))
    }

    /// The largest cluster size — the number of hardware contexts the
    /// simulated machine needs per processor.
    pub fn max_cluster_size(&self) -> usize {
        self.clusters.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// `true` if cluster sizes are all ⌊t/p⌋ or ⌈t/p⌉ with exactly
    /// `t mod p` clusters of the larger size (the paper's thread-balance
    /// criterion).
    pub fn is_thread_balanced(&self) -> bool {
        let t = self.thread_count();
        let p = self.processor_count();
        if p == 0 {
            return t == 0;
        }
        let floor = t / p;
        let ceil = t.div_ceil(p);
        let want_big = t % p;
        let mut big = 0;
        for c in &self.clusters {
            if c.len() == ceil && floor != ceil {
                big += 1;
            } else if c.len() != floor {
                return false;
            }
        }
        floor == ceil || big == want_big
    }

    /// Total `lengths` load per processor.
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is shorter than the thread count.
    pub fn loads(&self, lengths: &[u64]) -> Vec<u64> {
        self.clusters
            .iter()
            .map(|c| c.iter().map(|t| lengths[t.index()]).sum())
            .collect()
    }

    /// Load imbalance: max processor load divided by the ideal
    /// (`total / p`). 1.0 is perfect; returns 0.0 for an empty machine.
    pub fn load_imbalance(&self, lengths: &[u64]) -> f64 {
        let loads = self.loads(lengths);
        let total: u64 = loads.iter().sum();
        let p = loads.len();
        if p == 0 || total == 0 {
            return 0.0;
        }
        let ideal = total as f64 / p as f64;
        loads.iter().copied().max().unwrap_or(0) as f64 / ideal
    }
}

impl fmt::Display for PlacementMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (p, cluster) in self.iter() {
            write!(f, "{p}: ")?;
            for (i, t) in cluster.iter().enumerate() {
                if i > 0 {
                    f.write_str(" ")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_clusters() {
        let map = PlacementMap::from_clusters(vec![vec![3, 0], vec![1, 2]]).unwrap();
        assert_eq!(map.thread_count(), 4);
        assert_eq!(map.processor_count(), 2);
        assert_eq!(map.processor_of(ThreadId::new(3)), ProcessorId::new(0));
        assert_eq!(
            map.threads_on(ProcessorId::new(0)),
            &[ThreadId::new(0), ThreadId::new(3)]
        );
        assert_eq!(map.max_cluster_size(), 2);
    }

    #[test]
    fn rejects_duplicates_and_gaps() {
        assert!(PlacementMap::from_clusters(vec![vec![0, 0]]).is_err());
        // Index 2 with only 2 threads total: out of range.
        assert!(PlacementMap::from_clusters(vec![vec![0], vec![2]]).is_err());
    }

    #[test]
    fn thread_balance_detection() {
        let ok = PlacementMap::from_clusters(vec![vec![0, 1, 2], vec![3, 4]]).unwrap();
        assert!(ok.is_thread_balanced()); // 5 over 2: sizes 3,2

        let skew = PlacementMap::from_clusters(vec![vec![0, 1, 2, 3], vec![4]]).unwrap();
        assert!(!skew.is_thread_balanced());

        let even = PlacementMap::from_clusters(vec![vec![0, 1], vec![2, 3]]).unwrap();
        assert!(even.is_thread_balanced());

        // 7 over 3 → sizes must be 3,2,2. (3,3,1) is not balanced.
        let bad = PlacementMap::from_clusters(vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]).unwrap();
        assert!(!bad.is_thread_balanced());
    }

    #[test]
    fn loads_and_imbalance() {
        let map = PlacementMap::from_clusters(vec![vec![0, 1], vec![2]]).unwrap();
        let lengths = [10, 20, 30];
        assert_eq!(map.loads(&lengths), vec![30, 30]);
        assert!((map.load_imbalance(&lengths) - 1.0).abs() < 1e-12);

        let map2 = PlacementMap::from_clusters(vec![vec![0], vec![1, 2]]).unwrap();
        assert_eq!(map2.loads(&lengths), vec![10, 50]);
        assert!((map2.load_imbalance(&lengths) - 50.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn display_lists_clusters() {
        let map = PlacementMap::from_clusters(vec![vec![1], vec![0]]).unwrap();
        let s = map.to_string();
        assert!(s.contains("P0: T1"));
        assert!(s.contains("P1: T0"));
    }

    #[test]
    fn empty_map() {
        let map = PlacementMap::from_clusters(vec![]).unwrap();
        assert_eq!(map.thread_count(), 0);
        assert!(map.is_thread_balanced());
        assert_eq!(map.max_cluster_size(), 0);
        assert_eq!(map.load_imbalance(&[]), 0.0);
    }
}
