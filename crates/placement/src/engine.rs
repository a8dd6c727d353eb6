//! The generic cluster-combining engine (paper §2.1).
//!
//! Starting from singleton clusters, the engine repeatedly combines the
//! pair of clusters with the highest metric score, subject to the
//! thread-balance constraint, until exactly `p` clusters remain. A pair
//! whose combine would leave no thread-balanced completion is skipped
//! for the next-highest-scoring one before it is combined; should a
//! level run out of pairs (step 4 of the paper's algorithm),
//! backtracking undoes the most recent combine and tries the next pair
//! there.
//!
//! With cached scores (the default) a level keeps no candidate list: it
//! finds its pair by one scan of O(1) pair scores for the largest
//! candidate key, and after a skip or an undo scans again for the
//! largest key strictly below the one it last tried.
//!
//! For the `+LB` algorithm variants, a load constraint acts as a *filter
//! applied after the sharing criteria*: among candidate pairs in
//! descending score order, load-satisfying pairs are preferred; if none
//! satisfies the load bound the best-scoring pair is taken anyway (the
//! paper observes exactly this compromise: "they compromised on the load
//! balancing requirement and were unable to generate a well balanced
//! load").

use crate::error::PlacementError;
use crate::metrics::{MetricCache, PairMetric};
use crate::partition::{BalanceSpec, Partition, SumId};
use crate::score::Score;
use std::cmp::Reverse;

/// Load-balance filter for the `+LB` variants.
#[derive(Debug, Clone, Copy)]
pub struct LoadConstraint<'a> {
    /// Per-thread dynamic lengths (instructions).
    pub lengths: &'a [u64],
    /// Allowed excess over the ideal per-processor load; the paper uses
    /// "typically 10%", i.e. `0.10`.
    pub tolerance: f64,
}

/// How the engine evaluates candidate-pair scores.
///
/// Both modes produce identical placements: cached aggregates are exact
/// `u64` sums equal to the fresh ones, so scores — and every
/// deterministic tie-break downstream of them — are bit-identical. The
/// differential tests in `tests/differential.rs` assert this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreMode {
    /// O(1) per-pair scores from cluster aggregates maintained
    /// incrementally through combines and undos (the default).
    #[default]
    Cached,
    /// Recompute every pair score from the thread matrices. The
    /// reference path: O(|A|·|B|) per pair.
    Fresh,
}

/// Tuning knobs for the engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions<'a> {
    /// Optional `+LB` load filter.
    pub load: Option<LoadConstraint<'a>>,
    /// Maximum combine operations explored before giving up. The paper's
    /// configurations need at most a few times `t`; the budget only
    /// guards adversarial inputs.
    pub node_budget: usize,
    /// Score evaluation strategy (cached by default).
    pub score_mode: ScoreMode,
}

impl Default for EngineOptions<'_> {
    fn default() -> Self {
        EngineOptions {
            load: None,
            node_budget: 500_000,
            score_mode: ScoreMode::Cached,
        }
    }
}

/// Runs the cluster-combining algorithm: `t` threads into exactly `p`
/// thread-balanced clusters, maximizing `metric` greedily with
/// backtracking.
///
/// # Errors
///
/// * [`PlacementError::ZeroProcessors`] if `p == 0`,
/// * [`PlacementError::TooManyProcessors`] if `p > t`,
/// * [`PlacementError::SearchExhausted`] if the node budget runs out
///   (not reachable for realistic inputs).
pub fn cluster<M: PairMetric>(
    metric: &M,
    threads: usize,
    processors: usize,
    options: EngineOptions<'_>,
) -> Result<Vec<Vec<usize>>, PlacementError> {
    if processors == 0 {
        return Err(PlacementError::ZeroProcessors);
    }
    if processors > threads {
        return Err(PlacementError::TooManyProcessors {
            threads,
            processors,
        });
    }
    let spec = BalanceSpec::new(threads, processors);
    let mut part = Partition::singletons(threads);
    let mut budget = options.node_budget;
    let ctx = SearchCtx::new(metric, spec, &mut part, &options);
    if search(&ctx, &mut part, &mut budget) {
        Ok(part.into_clusters())
    } else if budget == 0 {
        Err(PlacementError::SearchExhausted)
    } else {
        // The BFD completability pruner is heuristic; in the (practically
        // unobserved) case it prunes every path, fall back to a
        // deterministic thread-balanced fill in index order.
        Ok(balanced_fill(threads, processors))
    }
}

/// Deterministic thread-balanced partition in index order: the first
/// `t mod p` clusters get ⌈t/p⌉ threads, the rest ⌊t/p⌋.
fn balanced_fill(threads: usize, processors: usize) -> Vec<Vec<usize>> {
    let spec = BalanceSpec::new(threads, processors);
    let mut clusters = Vec::with_capacity(processors);
    let mut next = 0;
    for i in 0..processors {
        let size = if i < spec.big_clusters() || spec.floor_size() == spec.ceil_size() {
            spec.ceil_size()
        } else {
            spec.floor_size()
        };
        clusters.push((next..next + size).collect());
        next += size;
    }
    clusters
}

/// Per-run search context: the metric, the target shape, the `+LB`
/// filter with its ideal per-processor load, and the cached-mode handles.
struct SearchCtx<'a, M> {
    metric: &'a M,
    spec: BalanceSpec,
    load: Option<(LoadConstraint<'a>, f64)>,
    cache: Option<MetricCache>,
    load_sum: Option<SumId>,
}

impl<'a, M: PairMetric> SearchCtx<'a, M> {
    fn new(
        metric: &'a M,
        spec: BalanceSpec,
        part: &mut Partition,
        options: &EngineOptions<'a>,
    ) -> Self {
        let load = options.load.map(|lc| {
            let total: u64 = lc.lengths.iter().sum();
            let ideal = total as f64 / spec.processors() as f64 * (1.0 + lc.tolerance);
            (lc, ideal)
        });
        // In cached mode the metric registers its aggregates once on the
        // fresh singleton partition; the load filter's per-cluster length
        // sums ride the same machinery.
        let (cache, load_sum) = match options.score_mode {
            ScoreMode::Cached => (
                Some(metric.prepare(part)),
                options.load.map(|lc| part.register_sum(lc.lengths)),
            ),
            ScoreMode::Fresh => (None, None),
        };
        SearchCtx {
            metric,
            spec,
            load,
            cache,
            load_sum,
        }
    }
}

/// Depth-first search over combine decisions. Returns `true` when `part`
/// has been reduced to the target cluster count.
fn search<M: PairMetric>(ctx: &SearchCtx<'_, M>, part: &mut Partition, budget: &mut usize) -> bool {
    if part.len() == ctx.spec.processors() {
        return true;
    }
    if *budget == 0 {
        return false;
    }

    let mut candidates = Candidates::new(ctx, part);
    while let Some((a, b)) = candidates.next_best(ctx, part) {
        if *budget == 0 {
            return false;
        }
        // Skip merges from which no thread-balanced completion exists
        // (checked lazily here so the common case pays for one packing
        // check per level, not one per candidate).
        if !bfd_completable(part, (a, b), &ctx.spec) {
            continue;
        }
        *budget -= 1;
        let token = part.combine(a, b);
        if search(ctx, part, budget) {
            return true;
        }
        part.undo(token);
    }
    false
}

/// Whether a multiset of cluster sizes can still be packed into the
/// final thread-balanced shape (`t mod p` bins of ⌈t/p⌉, the rest of
/// ⌊t/p⌋), checked with best-fit-decreasing.
///
/// BFD is a heuristic, so a `false` may over-prune a feasible state;
/// the search's backtracking then simply tries another branch. In
/// practice BFD is exact for these equal-capacity shapes.
fn bfd_completable(part: &Partition, merged: (usize, usize), spec: &BalanceSpec) -> bool {
    let mut sizes: Vec<usize> = Vec::with_capacity(part.len() - 1);
    let merged_size = part.cluster(merged.0).len() + part.cluster(merged.1).len();
    sizes.push(merged_size);
    for i in 0..part.len() {
        if i != merged.0 && i != merged.1 {
            sizes.push(part.cluster(i).len());
        }
    }
    let p = spec.processors();
    if sizes.len() < p {
        return false;
    }
    let (floor, ceil) = (spec.floor_size(), spec.ceil_size());
    let big = if floor == ceil {
        0
    } else {
        spec.big_clusters()
    };
    let mut bins: Vec<usize> = std::iter::repeat_n(ceil, big)
        .chain(std::iter::repeat_n(floor, p - big))
        .collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    for s in sizes {
        // Best fit: the tightest bin that still holds s.
        let mut best: Option<usize> = None;
        for (i, &room) in bins.iter().enumerate() {
            if room >= s && best.is_none_or(|bi| bins[bi] > room) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => bins[i] -= s,
            None => return false,
        }
    }
    true
}

/// Candidate ordering key: load-ok before not, higher score first, then
/// low cluster indices. `Reverse` on the indices makes the natural `Ord`
/// max order coincide with the sort order below. The key is a strict
/// total order (`(a, b)` is unique), so repeatedly taking the largest key
/// strictly below the last one taken visits candidates in exactly the
/// sorted sequence.
type CandKey = (bool, Score, Reverse<usize>, Reverse<usize>);

/// Feasible candidate pairs, consumed best first.
///
/// Scoring every pair is unavoidable (the maximum must be found), but
/// *keeping* the scored pairs is not: the greedy search usually takes the
/// first candidate and never looks back. In cached mode a level therefore
/// holds only the last key it tried, and each step is one argmax scan of
/// O(1) cached scores for the best key strictly below it — no allocation,
/// and after a BFD rejection or an undo the next scan resumes exactly
/// where the sorted order would. Fresh mode keeps the original full sort;
/// it is the retained reference path that the differential tests (and
/// the pipeline benchmark's old arm) hold fixed.
enum Candidates {
    Sorted(std::vec::IntoIter<(usize, usize)>),
    Below(Option<CandKey>),
}

impl Candidates {
    fn new<M: PairMetric>(ctx: &SearchCtx<'_, M>, part: &Partition) -> Self {
        if ctx.cache.is_some() {
            return Candidates::Below(None);
        }
        let mut scored: Vec<CandKey> = Vec::new();
        for_each_candidate(ctx, part, |key| scored.push(key));
        // Sort best-first: load-ok before not, then higher score, then low
        // indices. `sort_by` with reversed comparisons keeps this stable.
        scored.sort_by(|x, y| {
            y.0.cmp(&x.0)
                .then_with(|| y.1.cmp(&x.1))
                .then_with(|| x.2 .0.cmp(&y.2 .0))
                .then_with(|| x.3 .0.cmp(&y.3 .0))
        });
        Candidates::Sorted(
            scored
                .into_iter()
                .map(|(_, _, a, b)| (a.0, b.0))
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    fn next_best<M: PairMetric>(
        &mut self,
        ctx: &SearchCtx<'_, M>,
        part: &Partition,
    ) -> Option<(usize, usize)> {
        match self {
            Candidates::Sorted(iter) => iter.next(),
            Candidates::Below(last) => {
                let mut best: Option<CandKey> = None;
                for_each_candidate(ctx, part, |key| {
                    if last.is_none_or(|l| key < l) && best.is_none_or(|b| key > b) {
                        best = Some(key);
                    }
                });
                *last = best;
                best.map(|(_, _, a, b)| (a.0, b.0))
            }
        }
    }
}

/// Calls `f` with the key of every feasible candidate pair, in index
/// order.
fn for_each_candidate<M: PairMetric>(
    ctx: &SearchCtx<'_, M>,
    part: &Partition,
    mut f: impl FnMut(CandKey),
) {
    let spec = &ctx.spec;
    let ceil = spec.ceil_size();
    let floor = spec.floor_size();
    let big_now = if floor == ceil {
        0
    } else {
        part.count_of_size(ceil)
    };

    for a in 0..part.len() {
        for b in (a + 1)..part.len() {
            let new_size = part.cluster(a).len() + part.cluster(b).len();
            // A combine can only create one more ceiling-sized cluster; it
            // may also consume ceiling-sized inputs, but inputs of size
            // ceil can never legally grow, so both inputs are < ceil here
            // whenever new_size == ceil.
            let big_after = if floor != ceil && new_size == ceil {
                big_now + 1
            } else {
                big_now
            };
            if !spec.combine_allowed(new_size, big_after) {
                continue;
            }
            let load_ok = match ctx.load {
                Some((lc, ideal)) => {
                    // Cached and fresh sums are the same u64 value, so the
                    // filter decision cannot differ between modes.
                    let combined: u64 = match ctx.load_sum {
                        Some(id) => part.sum(id, a) + part.sum(id, b),
                        None => part
                            .cluster(a)
                            .iter()
                            .chain(part.cluster(b))
                            .map(|&t| lc.lengths[t])
                            .sum(),
                    };
                    (combined as f64) <= ideal
                }
                None => true,
            };
            let score = match &ctx.cache {
                Some(cache) => ctx.metric.score_cached(part, cache, a, b),
                None => ctx.metric.score(part, a, b),
            };
            f((load_ok, score, Reverse(a), Reverse(b)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ShareRefsMetric;
    use placesim_analysis::SymMatrix;

    fn share_refs(n: usize, entries: &[(usize, usize, u64)]) -> SymMatrix<u64> {
        let mut m = SymMatrix::new(n, 0);
        for &(i, j, v) in entries {
            m.set(i, j, v);
        }
        m
    }

    /// The paper's §2.1.1 worked example: t = 5, p = 2. The figure's
    /// exact values are not printed in the text, but the narrative pins
    /// them down: (2,3) is the iteration-1 maximum; iteration 2 combines
    /// {1,5}; iteration 3 combines {1,5} with {4}. This matrix satisfies
    /// all the constraints the example states (thread numbers are
    /// 1-based in the paper; indices here are 0-based).
    fn paper_example_matrix() -> SymMatrix<u64> {
        share_refs(
            5,
            &[
                (1, 2, 10), // threads 2,3: highest pairwise sharing
                (0, 4, 8),  // threads 1,5: second combine
                (0, 3, 6),  // threads 1,4
                (3, 4, 5),  // threads 4,5  → {1,5}+{4} = (6+5)/2 = 5.5
                (1, 3, 5),  // threads 2,4 (the example's value 5)
                (2, 3, 4),  // threads 3,4 (the example's value 4)
                (0, 1, 1),
                (0, 2, 1),
                (1, 4, 1),
                (2, 4, 1),
            ],
        )
    }

    #[test]
    fn reproduces_paper_worked_example() {
        let m = paper_example_matrix();
        let metric = ShareRefsMetric { refs: &m };
        let clusters = cluster(&metric, 5, 2, EngineOptions::default()).unwrap();
        let mut sorted: Vec<Vec<usize>> = clusters
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        sorted.sort();
        // Paper's final clusters: {2,3} and {1,4,5} → 0-based {1,2}, {0,3,4}.
        assert_eq!(sorted, vec![vec![0, 3, 4], vec![1, 2]]);
    }

    #[test]
    fn sharing_metric_example_value() {
        // The paper computes sharing-metric({2,3},{4}) = (5+4)/2 = 4.5.
        let m = paper_example_matrix();
        let metric = ShareRefsMetric { refs: &m };
        let mut part = Partition::singletons(5);
        part.combine(1, 2); // {2,3} in paper numbering
                            // Clusters now: {0},{1,2},{3},{4}; score({1,2},{3}):
        let s = metric.score(&part, 1, 2);
        assert_eq!(s, Score::primary(4.5));
    }

    #[test]
    fn exact_processor_count_is_reached() {
        let m = share_refs(7, &[]);
        let metric = ShareRefsMetric { refs: &m };
        for p in 1..=7 {
            let clusters = cluster(&metric, 7, p, EngineOptions::default()).unwrap();
            assert_eq!(clusters.len(), p, "p = {p}");
            let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
            let floor = 7 / p;
            let ceil = 7usize.div_ceil(p);
            assert!(
                sizes.iter().all(|&s| s == floor || s == ceil),
                "p={p} sizes={sizes:?}"
            );
            assert_eq!(
                sizes
                    .iter()
                    .filter(|&&s| s == ceil && floor != ceil)
                    .count(),
                7 % p
            );
        }
    }

    #[test]
    fn completability_check_routes_around_greedy_trap() {
        // t = 8, p = 2, cap = 4. The greedy path builds {0,1,2} and
        // {3,4,5} (sizes 3,3) with threads 6,7 left; its best next pair,
        // {6,7}, leaves sizes 3,3,2, which no completion can pack. The
        // BFD check rejects that pair before combining, so the search
        // takes 3+1 twice and never undoes: it finishes within exactly
        // t - p = 6 combines.
        let m = share_refs(
            8,
            &[(0, 1, 100), (1, 2, 90), (3, 4, 80), (4, 5, 70), (6, 7, 1)],
        );
        let metric = ShareRefsMetric { refs: &m };
        let opts = EngineOptions {
            node_budget: 6,
            ..EngineOptions::default()
        };
        let clusters = cluster(&metric, 8, 2, opts).unwrap();
        assert_eq!(clusters, vec![vec![0, 1, 2, 6], vec![3, 4, 5, 7]]);
    }

    /// The cached scan visits every feasible pair in exactly the fresh
    /// path's sorted order, also when the partition is combined and
    /// undone between steps as a backtracking search would.
    #[test]
    fn scan_follows_sorted_order_across_undo() {
        let m = share_refs(
            9,
            &[
                (0, 1, 7),
                (0, 2, 7),
                (1, 3, 7),
                (2, 5, 3),
                (4, 6, 9),
                (7, 8, 3),
            ],
        );
        let metric = ShareRefsMetric { refs: &m };
        let lengths = [40u64, 5, 30, 5, 25, 10, 20, 15, 50];
        let options = |score_mode| EngineOptions {
            load: Some(LoadConstraint {
                lengths: &lengths,
                tolerance: 0.10,
            }),
            score_mode,
            ..EngineOptions::default()
        };
        let spec = BalanceSpec::new(9, 4);
        let mut part = Partition::singletons(9);
        let cached = SearchCtx::new(&metric, spec, &mut part, &options(ScoreMode::Cached));
        let fresh = SearchCtx::new(&metric, spec, &mut part, &options(ScoreMode::Fresh));
        part.combine(4, 6);
        part.combine(0, 1);

        let mut sorted = Candidates::new(&fresh, &part);
        let mut scan = Candidates::new(&cached, &part);
        let mut steps = 0;
        while let Some(pair) = sorted.next_best(&fresh, &part) {
            assert_eq!(scan.next_best(&cached, &part), Some(pair), "step {steps}");
            let token = part.combine(pair.0, pair.1);
            part.undo(token);
            steps += 1;
        }
        assert_eq!(scan.next_best(&cached, &part), None);
        assert!(steps > 10, "only {steps} candidates");
    }

    #[test]
    fn p_equals_t_keeps_singletons() {
        let m = share_refs(4, &[(0, 1, 5)]);
        let metric = ShareRefsMetric { refs: &m };
        let clusters = cluster(&metric, 4, 4, EngineOptions::default()).unwrap();
        assert_eq!(clusters, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn error_cases() {
        let m = share_refs(3, &[]);
        let metric = ShareRefsMetric { refs: &m };
        assert_eq!(
            cluster(&metric, 3, 0, EngineOptions::default()).unwrap_err(),
            PlacementError::ZeroProcessors
        );
        assert_eq!(
            cluster(&metric, 3, 4, EngineOptions::default()).unwrap_err(),
            PlacementError::TooManyProcessors {
                threads: 3,
                processors: 4
            }
        );
    }

    #[test]
    fn budget_exhaustion_reports() {
        let m = share_refs(6, &[]);
        let metric = ShareRefsMetric { refs: &m };
        let opts = EngineOptions {
            load: None,
            node_budget: 0,
            score_mode: ScoreMode::Cached,
        };
        assert_eq!(
            cluster(&metric, 6, 2, opts).unwrap_err(),
            PlacementError::SearchExhausted
        );
    }

    #[test]
    fn load_filter_prefers_balanced_combines() {
        // Threads 0,1 share the most but are both long; with the load
        // filter the engine pairs long with short instead.
        let m = share_refs(4, &[(0, 1, 100), (0, 2, 50), (1, 3, 50), (2, 3, 10)]);
        let metric = ShareRefsMetric { refs: &m };
        let lengths = [100u64, 100, 5, 5];
        let opts = EngineOptions {
            load: Some(LoadConstraint {
                lengths: &lengths,
                tolerance: 0.10,
            }),
            node_budget: 100_000,
            score_mode: ScoreMode::Cached,
        };
        let clusters = cluster(&metric, 4, 2, opts).unwrap();
        // Ideal load 105/processor; {0,1} = 200 violates, so the best
        // load-satisfying pair by sharing is {0,2} (50).
        let mut sorted: Vec<Vec<usize>> = clusters
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        sorted.sort();
        assert_eq!(sorted, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn load_filter_compromises_when_unsatisfiable() {
        // Every combine violates the load bound; the engine must still
        // produce a placement (sharing first, load compromised).
        let m = share_refs(4, &[(0, 1, 9)]);
        let metric = ShareRefsMetric { refs: &m };
        let lengths = [100u64, 100, 100, 100];
        let opts = EngineOptions {
            load: Some(LoadConstraint {
                lengths: &lengths,
                tolerance: 0.0,
            }),
            node_budget: 100_000,
            score_mode: ScoreMode::Cached,
        };
        let clusters = cluster(&metric, 4, 2, opts).unwrap();
        assert_eq!(clusters.len(), 2);
    }
}
