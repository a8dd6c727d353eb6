//! Pairwise cluster-combining metrics — one per sharing-based algorithm.
//!
//! Each metric scores a candidate combination of two clusters; the
//! engine combines the highest-scoring feasible pair. All sharing-based
//! algorithms differ *only* in this metric (paper §2: "The other
//! sharing-based placement algorithms differ from SHARE-REFS only in the
//! specific sharing metric they compute, i.e., step 2 of the algorithm").

use crate::partition::{CrossId, Partition, SumId};
use crate::score::Score;
use placesim_analysis::SymMatrix;

/// Aggregate-cache handles a metric registered on a [`Partition`] via
/// [`PairMetric::prepare`]; consumed by [`PairMetric::score_cached`].
#[derive(Debug, Clone, Default)]
pub struct MetricCache {
    /// Cross-sum caches, in the order the metric registered them.
    pub cross: Vec<CrossId>,
    /// Per-cluster sum caches, in the order the metric registered them.
    pub sums: Vec<SumId>,
}

/// A pairwise cluster-combining metric.
///
/// Implementations receive the current partition and the ids of the two
/// candidate clusters; higher scores are combined first.
///
/// [`prepare`](Self::prepare) / [`score_cached`](Self::score_cached) are
/// the O(1) fast path: the metric registers its cross-sum and weight-sum
/// aggregates on the partition once, and each pair score becomes cache
/// lookups plus the same arithmetic as [`score`](Self::score). Cached
/// sums are exact `u64` values equal to the fresh ones, so both paths
/// produce bit-identical [`Score`]s — the engine's tie-breaking, and
/// therefore the final placement, cannot differ between them.
pub trait PairMetric {
    /// Scores combining clusters `a` and `b` of `part`.
    fn score(&self, part: &Partition, a: usize, b: usize) -> Score;

    /// Registers this metric's aggregates on `part` for
    /// [`score_cached`](Self::score_cached). The default registers
    /// nothing (cached scoring then falls back to the fresh path).
    fn prepare(&self, _part: &mut Partition) -> MetricCache {
        MetricCache::default()
    }

    /// Scores `a`/`b` using aggregates registered by
    /// [`prepare`](Self::prepare). Must equal [`score`](Self::score)
    /// bit-for-bit.
    fn score_cached(&self, part: &Partition, _cache: &MetricCache, a: usize, b: usize) -> Score {
        self.score(part, a, b)
    }
}

/// Averaged cross-cluster sum of a pairwise thread matrix: the paper's
/// sharing metric
/// `Σ shared-references(tₐ, t_b) / (|cₐ| · |c_b|)` (§2.1 step 2b).
fn averaged_cross(m: &SymMatrix<u64>, part: &Partition, a: usize, b: usize) -> f64 {
    let ca = part.cluster(a);
    let cb = part.cluster(b);
    let sum = m.cross_sum(ca, cb) as f64;
    sum / (ca.len() * cb.len()) as f64
}

/// [`averaged_cross`] over a registered cache: same sum, same division,
/// same bits.
fn averaged_cached(part: &Partition, id: CrossId, a: usize, b: usize) -> f64 {
    let sum = part.cross(id, a, b) as f64;
    sum / (part.cluster(a).len() * part.cluster(b).len()) as f64
}

/// SHARE-REFS: maximize shared references among co-located threads.
#[derive(Debug, Clone, Copy)]
pub struct ShareRefsMetric<'a> {
    /// Pairwise shared-references matrix.
    pub refs: &'a SymMatrix<u64>,
}

impl PairMetric for ShareRefsMetric<'_> {
    fn score(&self, part: &Partition, a: usize, b: usize) -> Score {
        Score::primary(averaged_cross(self.refs, part, a, b))
    }

    fn prepare(&self, part: &mut Partition) -> MetricCache {
        MetricCache {
            cross: vec![part.register_cross(self.refs)],
            sums: Vec::new(),
        }
    }

    fn score_cached(&self, part: &Partition, cache: &MetricCache, a: usize, b: usize) -> Score {
        Score::primary(averaged_cached(part, cache.cross[0], a, b))
    }
}

/// SHARE-ADDR: like SHARE-REFS, but among pairs with equal shared
/// references prefers the smaller shared working set (more references
/// per shared address).
#[derive(Debug, Clone, Copy)]
pub struct ShareAddrMetric<'a> {
    /// Pairwise shared-references matrix.
    pub refs: &'a SymMatrix<u64>,
    /// Pairwise common-address-count matrix.
    pub addrs: &'a SymMatrix<u64>,
}

impl PairMetric for ShareAddrMetric<'_> {
    fn score(&self, part: &Partition, a: usize, b: usize) -> Score {
        let refs = averaged_cross(self.refs, part, a, b);
        let addrs = self.addrs.cross_sum(part.cluster(a), part.cluster(b)) as f64;
        // Density: shared refs per shared address across the cut. With no
        // common addresses the density is 0 (nothing to make better use of).
        let density = if addrs == 0.0 {
            0.0
        } else {
            self.refs.cross_sum(part.cluster(a), part.cluster(b)) as f64 / addrs
        };
        Score::new(refs, density)
    }

    fn prepare(&self, part: &mut Partition) -> MetricCache {
        MetricCache {
            cross: vec![
                part.register_cross(self.refs),
                part.register_cross(self.addrs),
            ],
            sums: Vec::new(),
        }
    }

    fn score_cached(&self, part: &Partition, cache: &MetricCache, a: usize, b: usize) -> Score {
        let refs = averaged_cached(part, cache.cross[0], a, b);
        let addrs = part.cross(cache.cross[1], a, b) as f64;
        let density = if addrs == 0.0 {
            0.0
        } else {
            part.cross(cache.cross[0], a, b) as f64 / addrs
        };
        Score::new(refs, density)
    }
}

/// MIN-PRIV: maximize shared references and, secondarily, minimize the
/// combined cluster's private-address footprint.
#[derive(Debug, Clone)]
pub struct MinPrivMetric<'a> {
    /// Pairwise shared-references matrix.
    pub refs: &'a SymMatrix<u64>,
    /// Per-thread count of private (single-sharer) addresses.
    pub private_addrs: &'a [u64],
}

impl PairMetric for MinPrivMetric<'_> {
    fn score(&self, part: &Partition, a: usize, b: usize) -> Score {
        let refs = averaged_cross(self.refs, part, a, b);
        // Private addresses are touched by exactly one thread, so cluster
        // footprints add without overlap.
        let private: u64 = part
            .cluster(a)
            .iter()
            .chain(part.cluster(b))
            .map(|&t| self.private_addrs[t])
            .sum();
        Score::new(refs, -(private as f64))
    }

    fn prepare(&self, part: &mut Partition) -> MetricCache {
        MetricCache {
            cross: vec![part.register_cross(self.refs)],
            sums: vec![part.register_sum(self.private_addrs)],
        }
    }

    fn score_cached(&self, part: &Partition, cache: &MetricCache, a: usize, b: usize) -> Score {
        let refs = averaged_cached(part, cache.cross[0], a, b);
        let private = part.sum(cache.sums[0], a) + part.sum(cache.sums[0], b);
        Score::new(refs, -(private as f64))
    }
}

/// MIN-INVS: minimize cross-processor invalidation-capable references by
/// combining the pair whose *separation cost* — un-averaged cross-cluster
/// references to write-shared common addresses — is largest.
#[derive(Debug, Clone, Copy)]
pub struct MinInvsMetric<'a> {
    /// Pairwise write-shared-references matrix.
    pub write_refs: &'a SymMatrix<u64>,
}

impl PairMetric for MinInvsMetric<'_> {
    fn score(&self, part: &Partition, a: usize, b: usize) -> Score {
        // The cost of keeping a and b apart. No averaging: the paper
        // frames this as a total cost comparison, not a normalized
        // savings (§2 item 4).
        let cost = self.write_refs.cross_sum(part.cluster(a), part.cluster(b));
        Score::primary(cost as f64)
    }

    fn prepare(&self, part: &mut Partition) -> MetricCache {
        MetricCache {
            cross: vec![part.register_cross(self.write_refs)],
            sums: Vec::new(),
        }
    }

    fn score_cached(&self, part: &Partition, cache: &MetricCache, a: usize, b: usize) -> Score {
        Score::primary(part.cross(cache.cross[0], a, b) as f64)
    }
}

/// MAX-WRITES: SHARE-REFS restricted to write-shared data, the data
/// actually responsible for invalidations.
#[derive(Debug, Clone, Copy)]
pub struct MaxWritesMetric<'a> {
    /// Pairwise write-shared-references matrix.
    pub write_refs: &'a SymMatrix<u64>,
}

impl PairMetric for MaxWritesMetric<'_> {
    fn score(&self, part: &Partition, a: usize, b: usize) -> Score {
        Score::primary(averaged_cross(self.write_refs, part, a, b))
    }

    fn prepare(&self, part: &mut Partition) -> MetricCache {
        MetricCache {
            cross: vec![part.register_cross(self.write_refs)],
            sums: Vec::new(),
        }
    }

    fn score_cached(&self, part: &Partition, cache: &MetricCache, a: usize, b: usize) -> Score {
        Score::primary(averaged_cached(part, cache.cross[0], a, b))
    }
}

/// MIN-SHARE: the "worst case" sharing schedule — co-locate the threads
/// with the *least* shared references to bound the performance range.
#[derive(Debug, Clone, Copy)]
pub struct MinShareMetric<'a> {
    /// Pairwise shared-references matrix.
    pub refs: &'a SymMatrix<u64>,
}

impl PairMetric for MinShareMetric<'_> {
    fn score(&self, part: &Partition, a: usize, b: usize) -> Score {
        Score::primary(-averaged_cross(self.refs, part, a, b))
    }

    fn prepare(&self, part: &mut Partition) -> MetricCache {
        MetricCache {
            cross: vec![part.register_cross(self.refs)],
            sums: Vec::new(),
        }
    }

    fn score_cached(&self, part: &Partition, cache: &MetricCache, a: usize, b: usize) -> Score {
        Score::primary(-averaged_cached(part, cache.cross[0], a, b))
    }
}

/// Coherence-traffic placement (paper §4.2): SHARE-REFS clustering over
/// the *dynamically measured* pairwise coherence-traffic matrix instead
/// of static shared-reference counts.
#[derive(Debug, Clone, Copy)]
pub struct CoherenceMetric<'a> {
    /// Measured pairwise coherence traffic (invalidations + invalidation
    /// misses) between threads, from a one-thread-per-processor run.
    pub traffic: &'a SymMatrix<u64>,
}

impl PairMetric for CoherenceMetric<'_> {
    fn score(&self, part: &Partition, a: usize, b: usize) -> Score {
        Score::primary(averaged_cross(self.traffic, part, a, b))
    }

    fn prepare(&self, part: &mut Partition) -> MetricCache {
        MetricCache {
            cross: vec![part.register_cross(self.traffic)],
            sums: Vec::new(),
        }
    }

    fn score_cached(&self, part: &Partition, cache: &MetricCache, a: usize, b: usize) -> Score {
        Score::primary(averaged_cached(part, cache.cross[0], a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs_matrix() -> SymMatrix<u64> {
        let mut m = SymMatrix::new(4, 0u64);
        m.set(0, 1, 10);
        m.set(0, 2, 2);
        m.set(1, 2, 4);
        m.set(2, 3, 6);
        m
    }

    #[test]
    fn share_refs_averages() {
        let m = refs_matrix();
        let metric = ShareRefsMetric { refs: &m };
        let part = Partition::from_clusters(vec![vec![0, 1], vec![2], vec![3]]);
        // ({0,1},{2}) = (2 + 4) / (2*1) = 3.
        assert_eq!(metric.score(&part, 0, 1), Score::primary(3.0));
        // ({2},{3}) = 6.
        assert_eq!(metric.score(&part, 1, 2), Score::primary(6.0));
    }

    #[test]
    fn share_addr_breaks_ties_by_density() {
        let mut refs = SymMatrix::new(3, 0u64);
        refs.set(0, 1, 8);
        refs.set(0, 2, 8);
        let mut addrs = SymMatrix::new(3, 0u64);
        addrs.set(0, 1, 4); // 8 refs over 4 addresses: density 2
        addrs.set(0, 2, 2); // 8 refs over 2 addresses: density 4
        let metric = ShareAddrMetric {
            refs: &refs,
            addrs: &addrs,
        };
        let part = Partition::singletons(3);
        assert!(metric.score(&part, 0, 2) > metric.score(&part, 0, 1));
    }

    #[test]
    fn share_addr_zero_addresses() {
        let refs = SymMatrix::new(2, 0u64);
        let addrs = SymMatrix::new(2, 0u64);
        let metric = ShareAddrMetric {
            refs: &refs,
            addrs: &addrs,
        };
        let part = Partition::singletons(2);
        assert_eq!(metric.score(&part, 0, 1), Score::new(0.0, 0.0));
    }

    #[test]
    fn min_priv_prefers_small_private_footprint() {
        let mut refs = SymMatrix::new(3, 0u64);
        refs.set(0, 1, 8);
        refs.set(0, 2, 8);
        let private = vec![5u64, 100, 1];
        let metric = MinPrivMetric {
            refs: &refs,
            private_addrs: &private,
        };
        let part = Partition::singletons(3);
        // Equal sharing; thread 2's private footprint is smaller than 1's.
        assert!(metric.score(&part, 0, 2) > metric.score(&part, 0, 1));
    }

    #[test]
    fn min_invs_uses_unaveraged_cost() {
        let mut w = SymMatrix::new(3, 0u64);
        w.set(0, 1, 3);
        w.set(0, 2, 3);
        w.set(1, 2, 1);
        let metric = MinInvsMetric { write_refs: &w };
        let part = Partition::from_clusters(vec![vec![0, 1], vec![2]]);
        // Separation cost of splitting {0,1} from {2}: 3 + 1 = 4, no averaging.
        assert_eq!(metric.score(&part, 0, 1), Score::primary(4.0));
    }

    #[test]
    fn min_share_negates() {
        let m = refs_matrix();
        let metric = MinShareMetric { refs: &m };
        let part = Partition::singletons(4);
        // Pair (0,3) has no sharing: best for MIN-SHARE.
        assert!(metric.score(&part, 0, 3) > metric.score(&part, 0, 1));
    }

    /// Exhaustively checks `score_cached == score` for one metric over a
    /// few combines.
    fn assert_cached_matches_fresh<M: PairMetric>(metric: &M, threads: usize) {
        let mut part = Partition::singletons(threads);
        let cache = metric.prepare(&mut part);
        let check = |part: &Partition| {
            for &a in part.ids() {
                for &b in part.ids_after(a) {
                    assert_eq!(
                        metric.score_cached(part, &cache, a, b),
                        metric.score(part, a, b),
                        "clusters ({a},{b})"
                    );
                }
            }
        };
        check(&part);
        part.combine(0, 2);
        check(&part);
        part.combine(0, 1);
        check(&part);
    }

    #[test]
    fn cached_scores_match_fresh_for_every_metric() {
        let refs = refs_matrix();
        let mut addrs = SymMatrix::new(4, 0u64);
        addrs.set(0, 1, 3);
        addrs.set(2, 3, 2);
        let private = vec![5u64, 100, 1, 7];

        assert_cached_matches_fresh(&ShareRefsMetric { refs: &refs }, 4);
        assert_cached_matches_fresh(
            &ShareAddrMetric {
                refs: &refs,
                addrs: &addrs,
            },
            4,
        );
        assert_cached_matches_fresh(
            &MinPrivMetric {
                refs: &refs,
                private_addrs: &private,
            },
            4,
        );
        assert_cached_matches_fresh(&MinInvsMetric { write_refs: &refs }, 4);
        assert_cached_matches_fresh(&MaxWritesMetric { write_refs: &refs }, 4);
        assert_cached_matches_fresh(&MinShareMetric { refs: &refs }, 4);
        assert_cached_matches_fresh(&CoherenceMetric { traffic: &refs }, 4);
    }

    #[test]
    fn max_writes_and_coherence_average() {
        let mut m = SymMatrix::new(3, 0u64);
        m.set(0, 1, 4);
        m.set(1, 2, 2);
        let part = Partition::from_clusters(vec![vec![0, 1], vec![2]]);
        let mw = MaxWritesMetric { write_refs: &m };
        assert_eq!(mw.score(&part, 0, 1), Score::primary(1.0)); // (0+2)/2

        let co = CoherenceMetric { traffic: &m };
        assert_eq!(co.score(&part, 0, 1), Score::primary(1.0));
    }
}
