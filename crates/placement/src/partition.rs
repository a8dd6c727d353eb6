//! Cluster partitions, the thread-balance constraint, and incrementally
//! maintained cluster aggregates.

use placesim_analysis::SymMatrix;
use serde::{Deserialize, Serialize};

/// The thread-balance shape for `t` threads on `p` processors: final
/// cluster sizes must be ⌊t/p⌋ or ⌈t/p⌉, with exactly `t mod p` clusters
/// of the larger size (paper §2: "each cluster must have t/p threads if p
/// divides evenly into t; otherwise some processors will have ⌊t/p⌋
/// threads and others ⌈t/p⌉").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BalanceSpec {
    threads: usize,
    processors: usize,
}

impl BalanceSpec {
    /// Creates the spec. `processors` may not exceed `threads` (callers
    /// validate; this type only describes the shape).
    pub fn new(threads: usize, processors: usize) -> Self {
        BalanceSpec {
            threads,
            processors,
        }
    }

    /// ⌊t/p⌋.
    pub fn floor_size(&self) -> usize {
        self.threads / self.processors.max(1)
    }

    /// ⌈t/p⌉ — also the maximum legal cluster size.
    pub fn ceil_size(&self) -> usize {
        self.threads.div_ceil(self.processors.max(1))
    }

    /// Number of clusters that must have the ⌈t/p⌉ size (0 when `p | t`).
    pub fn big_clusters(&self) -> usize {
        if self.floor_size() == self.ceil_size() {
            0
        } else {
            self.threads % self.processors
        }
    }

    /// Target processor count.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Whether a combine producing `new_size`, in a partition currently
    /// holding `big_count` clusters of the ceiling size, keeps a balanced
    /// completion possible.
    ///
    /// Necessary conditions: the new cluster fits under the ceiling, and
    /// — when sizes are uneven — the count of ceiling-sized clusters never
    /// exceeds `t mod p`. They are not sufficient: the engine also checks
    /// that a best-fit-decreasing packing of the remaining sizes exists.
    pub fn combine_allowed(&self, new_size: usize, big_count_after: usize) -> bool {
        let ceil = self.ceil_size();
        if new_size > ceil {
            return false;
        }
        if self.floor_size() != ceil && new_size == ceil && big_count_after > self.big_clusters() {
            return false;
        }
        true
    }
}

/// Handle to a cluster-pair cross-sum cache registered on a
/// [`Partition`] via [`Partition::register_cross`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossId(usize);

/// Handle to a per-cluster sum cache registered on a [`Partition`] via
/// [`Partition::register_sum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SumId(usize);

/// Per-cluster-pair cross-sums of one thread matrix, stored as a strict
/// lower triangle (`tri[i][j]` with `j < i`) so row/column deletion on
/// combine is a pair of `Vec::remove`s.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CrossCache {
    tri: Vec<Vec<u64>>,
}

/// Per-cluster sums of one per-thread weight vector.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SumCache {
    vals: Vec<u64>,
}

fn tri_get(tri: &[Vec<u64>], a: usize, b: usize) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    tri[hi][lo]
}

fn tri_get_mut(tri: &mut [Vec<u64>], a: usize, b: usize) -> &mut u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    &mut tri[hi][lo]
}

/// A working partition of threads into clusters during cluster combining.
///
/// Clusters are lists of thread indices. Combining removes the
/// higher-indexed cluster and appends its members to the lower-indexed
/// one.
///
/// # Cached aggregates
///
/// Callers may register *aggregate caches* — cluster-pair cross-sums of
/// a thread matrix ([`register_cross`](Self::register_cross)) or
/// per-cluster sums of a weight vector
/// ([`register_sum`](Self::register_sum)). The caches are maintained
/// exactly through [`combine`](Self::combine) by row folding: `cross(a ∪ b, c) = cross(a, c) + cross(b, c)`, an exact
/// `u64` identity, so a cached lookup always equals the freshly computed
/// sum. This turns the engine's per-pair metric evaluation from
/// O(|A|·|B|) matrix walks into O(1) lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    clusters: Vec<Vec<usize>>,
    cross: Vec<CrossCache>,
    sums: Vec<SumCache>,
}

impl Partition {
    /// The initial partition: each of `t` threads in its own cluster.
    pub fn singletons(t: usize) -> Self {
        Partition {
            clusters: (0..t).map(|i| vec![i]).collect(),
            cross: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Builds a partition from explicit clusters (used in tests).
    pub fn from_clusters(clusters: Vec<Vec<usize>>) -> Self {
        Partition {
            clusters,
            cross: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Registers a cross-sum cache over the per-thread matrix `m`:
    /// `cross(id, a, b)` then returns `m.cross_sum(cluster a, cluster b)`
    /// in O(1), kept exact through combines.
    ///
    /// # Panics
    ///
    /// Panics if a thread index in the partition is out of range for `m`.
    pub fn register_cross(&mut self, m: &SymMatrix<u64>) -> CrossId {
        let tri = (0..self.clusters.len())
            .map(|i| {
                (0..i)
                    .map(|j| m.cross_sum(&self.clusters[i], &self.clusters[j]))
                    .collect()
            })
            .collect();
        self.cross.push(CrossCache { tri });
        CrossId(self.cross.len() - 1)
    }

    /// Registers a per-cluster sum cache over `per_thread` weights:
    /// `sum(id, c)` then returns the weight total of cluster `c` in O(1).
    ///
    /// # Panics
    ///
    /// Panics if a thread index in the partition is out of range for
    /// `per_thread`.
    pub fn register_sum(&mut self, per_thread: &[u64]) -> SumId {
        let vals = self
            .clusters
            .iter()
            .map(|c| c.iter().map(|&t| per_thread[t]).sum())
            .collect();
        self.sums.push(SumCache { vals });
        SumId(self.sums.len() - 1)
    }

    /// Cached cross-sum between clusters `a` and `b` (0 when `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cross(&self, id: CrossId, a: usize, b: usize) -> u64 {
        if a == b {
            return 0;
        }
        tri_get(&self.cross[id.0].tri, a, b)
    }

    /// Cached weight sum of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn sum(&self, id: SumId, c: usize) -> u64 {
        self.sums[id.0].vals[c]
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` if there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Members of cluster `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cluster(&self, i: usize) -> &[usize] {
        &self.clusters[i]
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Number of clusters whose size equals `size`.
    pub fn count_of_size(&self, size: usize) -> usize {
        self.clusters.iter().filter(|c| c.len() == size).count()
    }

    /// Combines clusters `a` and `b` (`a != b`), keeping the smaller
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn combine(&mut self, a: usize, b: usize) {
        assert!(a != b, "cannot combine a cluster with itself");
        let (keep, remove) = if a < b { (a, b) } else { (b, a) };
        let len = self.clusters.len();

        // Fold the removed cluster's aggregates into the kept one.
        for cache in &mut self.cross {
            for c in 0..len {
                if c != keep && c != remove {
                    let v = tri_get(&cache.tri, remove, c);
                    *tri_get_mut(&mut cache.tri, keep, c) += v;
                }
            }
            cache.tri.remove(remove);
            for r in cache.tri.iter_mut().skip(remove) {
                r.remove(remove);
            }
        }
        for cache in &mut self.sums {
            let removed = cache.vals.remove(remove);
            cache.vals[keep] += removed;
        }

        let moved = self.clusters.remove(remove);
        self.clusters[keep].extend(moved);
    }

    /// Consumes the partition, returning its clusters.
    pub fn into_clusters(self) -> Vec<Vec<usize>> {
        self.clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_spec_even() {
        let s = BalanceSpec::new(8, 4);
        assert_eq!(s.floor_size(), 2);
        assert_eq!(s.ceil_size(), 2);
        assert_eq!(s.big_clusters(), 0);
        assert!(s.combine_allowed(2, 99)); // big count irrelevant when even
        assert!(!s.combine_allowed(3, 0));
    }

    #[test]
    fn balance_spec_uneven() {
        let s = BalanceSpec::new(5, 2);
        assert_eq!(s.floor_size(), 2);
        assert_eq!(s.ceil_size(), 3);
        assert_eq!(s.big_clusters(), 1);
        assert!(s.combine_allowed(3, 1));
        assert!(!s.combine_allowed(3, 2)); // a second ceil-sized cluster
        assert!(!s.combine_allowed(4, 1));
    }

    #[test]
    fn combine_keeps_lower_index() {
        let mut p = Partition::singletons(3);
        p.combine(2, 0);
        assert_eq!(p.cluster(0), &[0, 2]);
        assert_eq!(p.cluster(1), &[1]);
    }

    #[test]
    fn count_of_size() {
        let p = Partition::from_clusters(vec![vec![0, 1], vec![2], vec![3, 4]]);
        assert_eq!(p.count_of_size(2), 2);
        assert_eq!(p.count_of_size(1), 1);
        assert_eq!(p.count_of_size(3), 0);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_combine_panics() {
        let mut p = Partition::singletons(2);
        p.combine(1, 1);
    }

    fn demo_matrix(n: usize) -> SymMatrix<u64> {
        let mut m = SymMatrix::new(n, 0u64);
        let mut v = 1;
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, v);
                v += 3;
            }
        }
        m
    }

    /// Every cached cross/sum equals the freshly computed value.
    fn assert_caches_fresh(p: &Partition, cid: CrossId, sid: SumId, m: &SymMatrix<u64>, w: &[u64]) {
        for a in 0..p.len() {
            assert_eq!(
                p.sum(sid, a),
                p.cluster(a).iter().map(|&t| w[t]).sum::<u64>(),
                "sum({a})"
            );
            for b in 0..p.len() {
                if a == b {
                    continue; // the cache defines the diagonal as 0
                }
                assert_eq!(
                    p.cross(cid, a, b),
                    m.cross_sum(p.cluster(a), p.cluster(b)),
                    "cross({a},{b})"
                );
            }
        }
    }

    #[test]
    fn caches_track_combines() {
        let m = demo_matrix(6);
        let w = [3u64, 1, 4, 1, 5, 9];
        let mut p = Partition::singletons(6);
        let cid = p.register_cross(&m);
        let sid = p.register_sum(&w);
        assert_caches_fresh(&p, cid, sid, &m, &w);

        p.combine(1, 4);
        assert_caches_fresh(&p, cid, sid, &m, &w);
        p.combine(0, 1); // merges {0} with {1,4}
        assert_caches_fresh(&p, cid, sid, &m, &w);
        p.combine(2, 3);
        assert_caches_fresh(&p, cid, sid, &m, &w);
        // Down to one cluster, folding rows from both sides of the kept
        // index.
        while p.len() > 1 {
            p.combine(p.len() - 1, (p.len() - 1) / 2);
            assert_caches_fresh(&p, cid, sid, &m, &w);
        }
        assert_eq!(p.sum(sid, 0), w.iter().sum::<u64>());
    }

    #[test]
    fn cross_diagonal_is_zero() {
        let m = demo_matrix(3);
        let mut p = Partition::singletons(3);
        let cid = p.register_cross(&m);
        assert_eq!(p.cross(cid, 1, 1), 0);
    }
}
