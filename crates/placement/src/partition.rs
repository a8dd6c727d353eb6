//! Cluster partitions, the thread-balance constraint, and incrementally
//! maintained cluster aggregates.

use placesim_analysis::SymMatrix;

/// The thread-balance shape for `t` threads on `p` processors: final
/// cluster sizes must be ⌊t/p⌋ or ⌈t/p⌉, with exactly `t mod p` clusters
/// of the larger size (paper §2: "each cluster must have t/p threads if p
/// divides evenly into t; otherwise some processors will have ⌊t/p⌋
/// threads and others ⌈t/p⌉").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Per-cluster-pair cross-sums of one thread matrix over cluster ids,
/// stored as a flat strict upper triangle: the entries `(a, b)` with
/// `b > a` are contiguous in `b`, so one cluster's scan against every
/// later cluster reads memory in order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CrossCache {
    upper: Vec<u64>,
}

/// Per-cluster sums of one per-thread weight vector, by cluster id.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SumCache {
    vals: Vec<u64>,
}

/// Index of `(a, b)`, `a < b < ids`, in a flat strict upper triangle:
/// row `a` starts after the `a·ids − a(a+1)/2` entries of the rows
/// before it.
#[inline]
fn upper_index(ids: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < ids, "({a},{b}) of {ids}");
    a * (2 * ids - a - 3) / 2 + b - 1
}

/// A working partition of threads into clusters during cluster combining.
///
/// Clusters are lists of thread indices, named by *cluster ids*: the
/// clusters a partition starts with get ids `0..n`. Combining two
/// clusters keeps the smaller id and retires the larger one for good, so
/// an id never changes meaning and the live ids, in increasing order
/// ([`ids`](Self::ids)), list the clusters in the order they were built
/// from. Nothing is shifted on a combine.
///
/// # Cached aggregates
///
/// Callers may register *aggregate caches* — cluster-pair cross-sums of
/// a thread matrix ([`register_cross`](Self::register_cross)) or
/// per-cluster sums of a weight vector
/// ([`register_sum`](Self::register_sum)). The caches are maintained
/// exactly through [`combine`](Self::combine) by row folding:
/// `cross(a ∪ b, c) = cross(a, c) + cross(b, c)`, an exact `u64`
/// identity, so a cached lookup always equals the freshly computed sum.
/// This turns the engine's per-pair metric evaluation from O(|A|·|B|)
/// matrix walks into O(1) lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Members by cluster id; a retired id's list is empty.
    clusters: Vec<Vec<usize>>,
    /// Live cluster ids, increasing.
    live: Vec<usize>,
    cross: Vec<CrossCache>,
    sums: Vec<SumCache>,
}

impl Partition {
    /// The initial partition: each of `t` threads in its own cluster,
    /// thread `i` in cluster `i`.
    pub fn singletons(t: usize) -> Self {
        Self::from_clusters((0..t).map(|i| vec![i]).collect())
    }

    /// Builds a partition from explicit clusters; cluster `i` gets id `i`.
    pub fn from_clusters(clusters: Vec<Vec<usize>>) -> Self {
        Partition {
            live: (0..clusters.len()).collect(),
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
        let ids = self.clusters.len();
        let mut upper = vec![0; ids * ids.saturating_sub(1) / 2];
        for &a in &self.live {
            for &b in self.ids_after(a) {
                upper[upper_index(ids, a, b)] = m.cross_sum(&self.clusters[a], &self.clusters[b]);
            }
        }
        self.cross.push(CrossCache { upper });
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

    /// Cached cross-sum between live clusters `a` and `b` (0 when
    /// `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn cross(&self, id: CrossId, a: usize, b: usize) -> u64 {
        let (lo, hi) = match a.cmp(&b) {
            std::cmp::Ordering::Less => (a, b),
            std::cmp::Ordering::Greater => (b, a),
            std::cmp::Ordering::Equal => return 0,
        };
        self.cross[id.0].upper[upper_index(self.clusters.len(), lo, hi)]
    }

    /// Cached weight sum of live cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    pub fn sum(&self, id: SumId, c: usize) -> u64 {
        self.sums[id.0].vals[c]
    }

    /// Number of live clusters.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` if there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Live cluster ids, increasing.
    pub fn ids(&self) -> &[usize] {
        &self.live
    }

    /// Live cluster ids greater than `a`, increasing.
    #[inline]
    pub fn ids_after(&self, a: usize) -> &[usize] {
        &self.live[self.live.partition_point(|&c| c <= a)..]
    }

    /// Members of cluster `i` (empty once `i` has been combined away).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn cluster(&self, i: usize) -> &[usize] {
        &self.clusters[i]
    }

    /// Number of live clusters whose size equals `size`.
    pub fn count_of_size(&self, size: usize) -> usize {
        self.live
            .iter()
            .filter(|&&c| self.clusters[c].len() == size)
            .count()
    }

    /// Combines live clusters `a` and `b` (`a != b`) under the smaller
    /// id, retiring the larger.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is out of range or retired.
    pub fn combine(&mut self, a: usize, b: usize) {
        assert!(a != b, "cannot combine a cluster with itself");
        let (keep, remove) = if a < b { (a, b) } else { (b, a) };
        let slot = self
            .live
            .binary_search(&remove)
            .expect("combined cluster is live");
        assert!(
            self.live.binary_search(&keep).is_ok(),
            "kept cluster is live"
        );
        self.live.remove(slot);

        // Fold the retired cluster's aggregates into the kept one.
        let ids = self.clusters.len();
        for cache in &mut self.cross {
            for &c in &self.live {
                if c != keep {
                    let from = cache.upper[upper_index(ids, c.min(remove), c.max(remove))];
                    cache.upper[upper_index(ids, c.min(keep), c.max(keep))] += from;
                }
            }
        }
        for cache in &mut self.sums {
            cache.vals[keep] += std::mem::take(&mut cache.vals[remove]);
        }

        let moved = std::mem::take(&mut self.clusters[remove]);
        self.clusters[keep].extend(moved);
    }

    /// Consumes the partition, returning its live clusters in id order.
    pub fn into_clusters(mut self) -> Vec<Vec<usize>> {
        self.live
            .iter()
            .map(|&c| std::mem::take(&mut self.clusters[c]))
            .collect()
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
        assert_eq!(p.ids(), &[0, 1]);
        assert_eq!(p.into_clusters(), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn ids_after_skips_retired_ids() {
        let mut p = Partition::singletons(5);
        p.combine(1, 3);
        assert_eq!(p.ids(), &[0, 1, 2, 4]);
        assert_eq!(p.ids_after(0), &[1, 2, 4]);
        assert_eq!(p.ids_after(2), &[4]);
        assert_eq!(p.ids_after(4), &[] as &[usize]);
        assert!(p.cluster(3).is_empty());
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
        for &a in p.ids() {
            assert_eq!(
                p.sum(sid, a),
                p.cluster(a).iter().map(|&t| w[t]).sum::<u64>(),
                "sum({a})"
            );
            for &b in p.ids() {
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
        // id.
        while p.len() > 1 {
            let ids = p.ids();
            let (last, mid) = (ids[ids.len() - 1], ids[(ids.len() - 1) / 2]);
            p.combine(last, mid);
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
