//! The generic cluster-combining engine (paper §2.1).
//!
//! Starting from singleton clusters, the engine repeatedly combines the
//! pair of clusters with the highest metric score, subject to the
//! thread-balance constraint, until exactly `p` clusters remain: `t − p`
//! greedy combines, none ever undone. A pair whose combine would leave
//! no thread-balanced completion is skipped for the next-highest-scoring
//! one before it is combined. The paper's step 4 backtracks when a level
//! runs out of pairs; with that check no level does (an exhaustive test
//! covers every reachable state for t ≤ 40), so the engine has no
//! backtracking. Should a level ever run out, it returns a deterministic
//! thread-balanced fill instead.
//!
//! With cached scores (the default) the engine keeps, for each cluster
//! `a`, the largest candidate key of the pairs `(a, b)` with `b > a` (a
//! *row*, see `Rows`), plus a max-tree over the rows. A level takes the
//! tree's top, and after a skip the largest key strictly below the one
//! it last tried. A combine rescans the merged cluster's row and offers
//! every lower row its one new pair; a row whose maximum belonged to a
//! merged cluster keeps that key only as an upper bound, and is rescanned
//! when the bound reaches the top. So a level costs O(t) key evaluations
//! plus a few row scans, instead of a scan of all O(t²) pairs, and the
//! extra state is O(t) keys. Keys are a strict total order and ids keep
//! their order through combines, so every level picks exactly the pair a
//! full scan would.
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
    /// incrementally through combines (the default).
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
    /// Score evaluation strategy (cached by default).
    pub score_mode: ScoreMode,
}

impl Default for EngineOptions<'_> {
    fn default() -> Self {
        EngineOptions {
            load: None,
            score_mode: ScoreMode::Cached,
        }
    }
}

/// Runs the cluster-combining algorithm: `t` threads into exactly `p`
/// thread-balanced clusters, maximizing `metric` greedily.
///
/// # Errors
///
/// * [`PlacementError::ZeroProcessors`] if `p == 0`,
/// * [`PlacementError::TooManyProcessors`] if `p > t`.
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
    let ctx = SearchCtx::new(metric, spec, &mut part, &options);
    let mut rows = ctx.cache.is_some().then(|| Rows::new(&ctx, &part));
    while part.len() > processors {
        // Take the best pair from which a thread-balanced completion
        // still exists (checked lazily, so the common case pays for one
        // packing check per level, not one per candidate).
        let mut candidates = match &mut rows {
            Some(rows) => Candidates::Below { rows, last: None },
            None => Candidates::sorted(&ctx, &part),
        };
        let best = std::iter::from_fn(|| candidates.next_best(&ctx, &part))
            .find(|&pair| bfd_completable(&part, pair, &spec));
        match best {
            Some((a, b)) => {
                part.combine(a, b);
                if let Some(rows) = &mut rows {
                    rows.combined(&ctx, &part, a.min(b), a.max(b));
                }
            }
            // The BFD check is a heuristic; should it ever reject every
            // pair of a level (no reachable state for t ≤ 40 does), fall
            // back to a deterministic thread-balanced fill.
            None => return Ok(balanced_fill(&spec)),
        }
    }
    Ok(part.into_clusters())
}

/// Deterministic thread-balanced partition in index order: the first
/// `t mod p` clusters get ⌈t/p⌉ threads, the rest ⌊t/p⌋.
fn balanced_fill(spec: &BalanceSpec) -> Vec<Vec<usize>> {
    let mut clusters = Vec::with_capacity(spec.processors());
    let mut next = 0;
    for i in 0..spec.processors() {
        let size = if i < spec.big_clusters() {
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

    /// The merge rule for `part`'s current count of ceiling-sized
    /// clusters.
    fn merge_rule(&self, part: &Partition) -> MergeRule {
        MergeRule::new(&self.spec, part.count_of_size(self.spec.ceil_size()))
    }
}

/// Whether a multiset of cluster sizes can still be packed into the
/// final thread-balanced shape (`t mod p` bins of ⌈t/p⌉, the rest of
/// ⌊t/p⌋), checked with best-fit-decreasing.
///
/// BFD is a heuristic, so a `false` may over-prune a feasible state.
/// For these two-capacity shapes it never rejects every merge of a
/// reachable state: `no_reachable_state_dead_ends` checks all of them
/// for t ≤ 40.
fn bfd_completable(part: &Partition, merged: (usize, usize), spec: &BalanceSpec) -> bool {
    let p = spec.processors();
    let (floor, ceil) = (spec.floor_size(), spec.ceil_size());
    let merged_size = part.cluster(merged.0).len() + part.cluster(merged.1).len();
    if part.len() - 1 < p || merged_size > ceil {
        return false;
    }
    // Bins and clusters of equal size are interchangeable, so both are
    // kept as counts by size: `rooms[r]` bins with room `r`, `items[s]`
    // clusters of size `s`.
    let mut items = vec![0usize; ceil + 1];
    items[merged_size] += 1;
    for &i in part.ids() {
        if i != merged.0 && i != merged.1 {
            items[part.cluster(i).len()] += 1;
        }
    }
    let mut rooms = vec![0usize; ceil + 1];
    let big = if floor == ceil {
        0
    } else {
        spec.big_clusters()
    };
    rooms[ceil] += big;
    rooms[floor] += p - big;
    for s in (1..=ceil).rev() {
        let mut left = items[s];
        let mut r = s;
        while left > 0 {
            // Best fit: the tightest bin that still holds s. It keeps
            // taking clusters of size s while it holds them, since what
            // is left of it stays the tightest fit.
            while r <= ceil && rooms[r] == 0 {
                r += 1;
            }
            if r > ceil {
                return false;
            }
            let taken = left.min(r / s);
            rooms[r] -= 1;
            rooms[r - taken * s] += 1;
            left -= taken;
        }
    }
    true
}

/// Candidate ordering key: load-ok before not, higher score first, then
/// low cluster ids. `Reverse` on the ids makes the natural `Ord` max
/// order coincide with the sort order below. The key is a strict total
/// order (`(a, b)` is unique), so repeatedly taking the largest key
/// strictly below the last one taken visits candidates in exactly the
/// sorted sequence.
type CandKey = (bool, Score, Reverse<usize>, Reverse<usize>);

/// Feasible candidate pairs of one level, consumed best first.
///
/// Fresh mode sorts every scored pair; it is the retained reference path
/// that the differential tests hold fixed. Cached mode keeps no list: it
/// holds only the last key it tried and asks the candidate rows
/// ([`Rows`]) for the largest key strictly below it, so after a BFD
/// rejection the next candidate is exactly the one the sorted order
/// would give.
enum Candidates<'r> {
    Sorted(std::vec::IntoIter<(usize, usize)>),
    Below {
        rows: &'r mut Rows,
        last: Option<CandKey>,
    },
}

impl Candidates<'_> {
    fn sorted<M: PairMetric>(ctx: &SearchCtx<'_, M>, part: &Partition) -> Self {
        let mut scored: Vec<CandKey> = Vec::new();
        for_each_candidate(ctx, part, |key| scored.push(key));
        // Sort best-first: load-ok before not, then higher score, then low
        // ids. `sort_by` with reversed comparisons keeps this stable.
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
            Candidates::Below { rows, last } => {
                *last = rows.best_below(ctx, part, *last);
                last.map(|(_, _, a, b)| (a.0, b.0))
            }
        }
    }
}

/// What cached mode knows of one row: the row's largest key, or, once
/// that key's pair has changed, only an upper bound on the row's keys.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Row {
    /// The row's largest key; `None` when the row has no feasible pair.
    Max(Option<CandKey>),
    /// No key of the row is above this one.
    Bound(CandKey),
}

impl Row {
    /// The row's largest key or its bound: no key of the row is above it.
    fn priority(self) -> Option<CandKey> {
        match self {
            Row::Max(key) => key,
            Row::Bound(bound) => Some(bound),
        }
    }
}

/// Cached mode's candidate rows. Row `a` covers the feasible pairs
/// `(a, b)` with `b > a` and knows its largest key, or an upper bound on
/// its keys; a max-tree over the rows gives the level's best pair. O(t)
/// keys, kept exact through combines.
///
/// After `combine(keep, remove)` the only keys that change are those of
/// pairs holding `keep` or `remove`, and the only feasibility that
/// changes is allowed → disallowed: cluster sizes and the count of
/// ceiling-sized clusters only grow. So a row's maximum stays its maximum
/// unless its pair holds `keep` or `remove` or is no longer allowed; then
/// it is kept as a bound, as nothing left in the row is above it. Each
/// row `r < keep` also gains one pair, `(r, keep)`, and compares that
/// one key. Row `keep` is rescanned at once, a bounded row only when its
/// bound reaches the top of the tree. Ids keep their order through
/// combines, so the id tie-breaks — and the level's choice — are exactly
/// the full scan's.
///
/// On gauss's near-additive matrices most rows share one "hub" best
/// partner, which every combine absorbs. Rescanning each such row at once
/// evaluated 3.6 times as many pair keys (109k against 30k on a
/// 127-thread placement); most bounds never reach the top. A global
/// max-heap of every pair key was tried too: it scored fewer pairs but
/// ran slower, and holding ~t²/2 keys at once broke
/// `tests/engine_heap.rs`'s heap cap.
struct Rows {
    /// By cluster id; a retired id's row is `Max(None)`.
    rows: Vec<Row>,
    /// Each row's [`Row::priority`], by id.
    tops: MaxTree,
    /// The merge rule of the partition the rows describe.
    rule: MergeRule,
}

impl Rows {
    fn new<M: PairMetric>(ctx: &SearchCtx<'_, M>, part: &Partition) -> Self {
        let ids = part.ids().last().map_or(0, |&last| last + 1);
        let mut rows = Rows {
            rows: vec![Row::Max(None); ids],
            tops: MaxTree::new(ids),
            rule: ctx.merge_rule(part),
        };
        for &a in part.ids() {
            rows.rescan(ctx, part, a);
        }
        rows
    }

    /// Sets row `a` and its priority.
    fn set(&mut self, a: usize, row: Row) {
        self.rows[a] = row;
        self.tops.set(a, row.priority());
    }

    /// Rebuilds row `a` from its pairs.
    fn rescan<M: PairMetric>(&mut self, ctx: &SearchCtx<'_, M>, part: &Partition, a: usize) {
        self.set(a, Row::Max(row_max(ctx, part, self.rule, a, None)));
    }

    /// The largest key of any feasible pair strictly below `last` (the
    /// overall largest when `last` is `None`).
    fn best_below<M: PairMetric>(
        &mut self,
        ctx: &SearchCtx<'_, M>,
        part: &Partition,
        last: Option<CandKey>,
    ) -> Option<CandKey> {
        let Some(last) = last else {
            // The highest priority wins if it is a row maximum; a bound on
            // top is resolved by rescanning its row.
            loop {
                let top = self.tops.top()?;
                let a = top.2 .0;
                if let Row::Max(_) = self.rows[a] {
                    return Some(top);
                }
                self.rescan(ctx, part, a);
            }
        };
        // After a skip: a row maximum below `last` answers for its row;
        // a row whose maximum was tried already this level is rescanned
        // below `last`, and a bounded row too if its bound could beat the
        // best answer so far.
        let mut best: Option<CandKey> = None;
        let mut bounded: Vec<(CandKey, usize)> = Vec::new();
        for &a in part.ids() {
            match self.rows[a] {
                Row::Max(Some(max)) if max < last => best = best.max(Some(max)),
                Row::Max(None) => {}
                Row::Max(Some(_)) => best = best.max(row_max(ctx, part, self.rule, a, Some(last))),
                Row::Bound(bound) => bounded.push((bound, a)),
            }
        }
        bounded.sort_unstable_by(|x, y| y.cmp(x));
        for (bound, a) in bounded {
            if best.is_some_and(|b| bound < b) {
                break;
            }
            best = best.max(row_max(ctx, part, self.rule, a, Some(last)));
        }
        best
    }

    /// Brings the rows up to date after `part.combine(keep, remove)`,
    /// `keep < remove`.
    fn combined<M: PairMetric>(
        &mut self,
        ctx: &SearchCtx<'_, M>,
        part: &Partition,
        keep: usize,
        remove: usize,
    ) {
        let rule = ctx.merge_rule(part);
        self.rule = rule;
        self.set(remove, Row::Max(None));
        self.rescan(ctx, part, keep);
        for &r in part.ids() {
            if r == keep {
                continue;
            }
            let mut row = self.rows[r];
            if let Row::Max(Some(max)) = row {
                let b = max.3 .0;
                if b == keep
                    || b == remove
                    || !rule.allows(part.cluster(r).len() + part.cluster(b).len())
                {
                    row = Row::Bound(max);
                }
            }
            if r < keep {
                if let Some(key) = pair_key(ctx, part, rule, r, keep) {
                    row = match row {
                        Row::Max(max) => Row::Max(max.max(Some(key))),
                        Row::Bound(bound) => Row::Bound(bound.max(key)),
                    };
                }
            }
            if row != self.rows[r] {
                self.set(r, row);
            }
        }
    }
}

/// A max tournament over per-row priorities: the largest in O(1), an
/// update in O(log t).
struct MaxTree {
    leaves: usize,
    /// `nodes[1]` is the root; node `i` holds the larger of `2i`, `2i + 1`;
    /// leaf `a` is `nodes[leaves + a]`.
    nodes: Vec<Option<CandKey>>,
}

impl MaxTree {
    fn new(len: usize) -> Self {
        let leaves = len.next_power_of_two();
        MaxTree {
            leaves,
            nodes: vec![None; 2 * leaves],
        }
    }

    fn set(&mut self, a: usize, key: Option<CandKey>) {
        let mut at = self.leaves + a;
        self.nodes[at] = key;
        while at > 1 {
            at /= 2;
            self.nodes[at] = self.nodes[2 * at].max(self.nodes[2 * at + 1]);
        }
    }

    fn top(&self) -> Option<CandKey> {
        self.nodes.get(1).copied().flatten()
    }
}

/// The largest key of row `a` of `part` under `rule`, strictly below
/// `below` when given.
fn row_max<M: PairMetric>(
    ctx: &SearchCtx<'_, M>,
    part: &Partition,
    rule: MergeRule,
    a: usize,
    below: Option<CandKey>,
) -> Option<CandKey> {
    // A plain loop that replaces the maximum only when beaten: an
    // iterator `max()` here moves a key on every step and ran at half the
    // speed.
    let mut max: Option<CandKey> = None;
    for &b in part.ids_after(a) {
        if let Some(key) = pair_key(ctx, part, rule, a, b) {
            if below.is_none_or(|l| key < l) && max.is_none_or(|m| key > m) {
                max = Some(key);
            }
        }
    }
    max
}

/// Which merged sizes [`BalanceSpec::combine_allowed`] lets a combine
/// produce while the partition holds a given number of ceiling-sized
/// clusters. Built once per count, so testing a pair is two compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MergeRule {
    ceil: usize,
    /// Whether one more cluster may still reach the ceiling size.
    ceil_open: bool,
}

impl MergeRule {
    fn new(spec: &BalanceSpec, big_now: usize) -> Self {
        // A combine can only create one more ceiling-sized cluster; it may
        // also consume ceiling-sized inputs, but inputs of size ceil can
        // never legally grow, so both inputs are < ceil whenever the merged
        // size is ceil. Below the ceiling every size is allowed.
        let ceil = spec.ceil_size();
        MergeRule {
            ceil,
            ceil_open: spec.combine_allowed(ceil, big_now + 1),
        }
    }

    fn allows(self, new_size: usize) -> bool {
        new_size < self.ceil || (new_size == self.ceil && self.ceil_open)
    }
}

#[cfg(test)]
thread_local! {
    /// Pair keys evaluated on this thread, for tests that bound the
    /// engine's work.
    static KEY_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The candidate key of clusters `a < b`, or `None` when `rule` does not
/// allow merging them.
// Forced inline: left to the inliner, this call stayed out of line in the
// row scan and a scan ran at half the speed.
#[inline(always)]
fn pair_key<M: PairMetric>(
    ctx: &SearchCtx<'_, M>,
    part: &Partition,
    rule: MergeRule,
    a: usize,
    b: usize,
) -> Option<CandKey> {
    #[cfg(test)]
    KEY_EVALS.with(|n| n.set(n.get() + 1));
    if !rule.allows(part.cluster(a).len() + part.cluster(b).len()) {
        return None;
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
    Some((load_ok, score, Reverse(a), Reverse(b)))
}

/// Calls `f` with the key of every feasible candidate pair, in id order.
fn for_each_candidate<M: PairMetric>(
    ctx: &SearchCtx<'_, M>,
    part: &Partition,
    mut f: impl FnMut(CandKey),
) {
    let rule = ctx.merge_rule(part);
    for &a in part.ids() {
        for &b in part.ids_after(a) {
            if let Some(key) = pair_key(ctx, part, rule, a, b) {
                f(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ShareRefsMetric;
    use placesim_analysis::SymMatrix;
    use std::collections::HashSet;

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
                            // Clusters now: {0},{1,2},{3},{4} with ids 0, 1, 3, 4;
                            // score({1,2},{3}):
        let s = metric.score(&part, 1, 3);
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
        // BFD check rejects that pair before combining, so the engine
        // takes 3+1 twice instead.
        let m = share_refs(
            8,
            &[(0, 1, 100), (1, 2, 90), (3, 4, 80), (4, 5, 70), (6, 7, 1)],
        );
        let metric = ShareRefsMetric { refs: &m };
        let clusters = cluster(&metric, 8, 2, EngineOptions::default()).unwrap();
        assert_eq!(clusters, vec![vec![0, 1, 2, 6], vec![3, 4, 5, 7]]);
    }

    /// The cached scan visits every feasible pair in exactly the fresh
    /// path's sorted order, as a level does when the BFD check rejects
    /// pair after pair.
    #[test]
    fn scan_follows_sorted_order() {
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
        };
        let spec = BalanceSpec::new(9, 4);
        let mut part = Partition::singletons(9);
        let cached = SearchCtx::new(&metric, spec, &mut part, &options(ScoreMode::Cached));
        let fresh = SearchCtx::new(&metric, spec, &mut part, &options(ScoreMode::Fresh));
        part.combine(4, 6);
        part.combine(0, 1);

        let mut rows = Rows::new(&cached, &part);
        let mut sorted = Candidates::sorted(&fresh, &part);
        let mut scan = Candidates::Below {
            rows: &mut rows,
            last: None,
        };
        let mut steps = 0;
        while let Some(pair) = sorted.next_best(&fresh, &part) {
            assert_eq!(scan.next_best(&cached, &part), Some(pair), "step {steps}");
            steps += 1;
        }
        assert_eq!(scan.next_best(&cached, &part), None);
        assert!(steps > 10, "only {steps} candidates");
    }

    /// A deterministic pseudo-random matrix with entries in `0..max`.
    fn lcg_matrix(n: usize, seed: u64, max: u64) -> SymMatrix<u64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut m = SymMatrix::new(n, 0);
        for i in 0..n {
            for j in (i + 1)..n {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                m.set(i, j, (state >> 33) % max);
            }
        }
        m
    }

    /// `m(i, j) = g(i) + g(j)`: every row ranks its partners alike, the
    /// shape that sends most rows to one "hub".
    fn additive_matrix(n: usize, seed: u64) -> SymMatrix<u64> {
        let g = lcg_matrix(n + 1, seed, 1000);
        let mut m = SymMatrix::new(n, 0);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, g.get(i, n) + g.get(j, n));
            }
        }
        m
    }

    /// Checks `rows` against a fresh look at every pair of `part`: a row
    /// maximum is the largest key of its row, a bound is at or above all
    /// of them, and the tree holds every row's priority.
    fn assert_rows_consistent<M: PairMetric>(
        rows: &Rows,
        ctx: &SearchCtx<'_, M>,
        part: &Partition,
    ) {
        assert_eq!(rows.rule, ctx.merge_rule(part));
        let mut top = None;
        for &a in part.ids() {
            let max = part
                .ids_after(a)
                .iter()
                .filter_map(|&b| pair_key(ctx, part, rows.rule, a, b))
                .max();
            let row = rows.rows[a];
            match row {
                Row::Max(key) => assert_eq!(key, max, "row {a}"),
                Row::Bound(bound) => assert!(max.is_none_or(|k| k <= bound), "row {a}"),
            }
            assert_eq!(rows.tops.nodes[rows.tops.leaves + a], row.priority());
            top = top.max(row.priority());
        }
        assert_eq!(rows.tops.top(), top);
    }

    /// Runs the cached engine's loop by hand, checking the rows before
    /// every level and after every candidate search, and returns the
    /// clusters.
    fn cluster_checked<M: PairMetric>(
        metric: &M,
        t: usize,
        p: usize,
        options: EngineOptions<'_>,
    ) -> Vec<Vec<usize>> {
        let spec = BalanceSpec::new(t, p);
        let mut part = Partition::singletons(t);
        let ctx = SearchCtx::new(metric, spec, &mut part, &options);
        let mut rows = Rows::new(&ctx, &part);
        while part.len() > p {
            assert_rows_consistent(&rows, &ctx, &part);
            let mut candidates = Candidates::Below {
                rows: &mut rows,
                last: None,
            };
            let (a, b) = std::iter::from_fn(|| candidates.next_best(&ctx, &part))
                .find(|&pair| bfd_completable(&part, pair, &spec))
                .expect("no level runs out of pairs");
            assert_rows_consistent(&rows, &ctx, &part);
            part.combine(a, b);
            rows.combined(&ctx, &part, a.min(b), a.max(b));
        }
        assert_rows_consistent(&rows, &ctx, &part);
        part.into_clusters()
    }

    /// The row maxima, bounds and tree stay exact through every combine:
    /// hub-shaped and random matrices,
    /// uneven shapes (so the merge rule tightens once the ceiling-sized
    /// clusters are all made) and the load filter (so levels skip pairs).
    #[test]
    fn rows_stay_exact_through_combines() {
        use crate::metrics::{MinInvsMetric, MinShareMetric};
        for (t, p, seed) in [
            (10, 4, 5),
            (17, 6, 6),
            (20, 3, 1),
            (27, 4, 2),
            (33, 2, 3),
            (40, 7, 4),
        ] {
            let lengths: Vec<u64> = (0..t as u64).map(|i| 10 + (i * 37) % 23).collect();
            for m in [lcg_matrix(t, seed, 50), additive_matrix(t, seed)] {
                for load in [
                    None,
                    Some(LoadConstraint {
                        lengths: &lengths,
                        tolerance: 0.10,
                    }),
                ] {
                    let options = EngineOptions {
                        load,
                        score_mode: ScoreMode::Cached,
                    };
                    let check = |metric: &dyn Fn() -> (Vec<Vec<usize>>, Vec<Vec<usize>>)| {
                        let (checked, plain) = metric();
                        assert_eq!(checked, plain, "t={t} p={p} seed={seed}");
                    };
                    check(&|| {
                        let metric = ShareRefsMetric { refs: &m };
                        (
                            cluster_checked(&metric, t, p, options),
                            cluster(&metric, t, p, options).unwrap(),
                        )
                    });
                    check(&|| {
                        let metric = MinShareMetric { refs: &m };
                        (
                            cluster_checked(&metric, t, p, options),
                            cluster(&metric, t, p, options).unwrap(),
                        )
                    });
                    check(&|| {
                        let metric = MinInvsMetric { write_refs: &m };
                        (
                            cluster_checked(&metric, t, p, options),
                            cluster(&metric, t, p, options).unwrap(),
                        )
                    });
                }
            }
        }
    }

    /// After combines have left some rows bounded, the cached candidates
    /// still follow the fresh sorted order through every feasible pair of
    /// a level.
    #[test]
    fn scan_follows_sorted_order_with_bounded_rows() {
        let t = 24;
        let m = additive_matrix(t, 7);
        let metric = ShareRefsMetric { refs: &m };
        let spec = BalanceSpec::new(t, 5);
        let mut part = Partition::singletons(t);
        let cached = SearchCtx::new(&metric, spec, &mut part, &EngineOptions::default());
        let fresh = SearchCtx::new(
            &metric,
            spec,
            &mut part,
            &EngineOptions {
                score_mode: ScoreMode::Fresh,
                ..EngineOptions::default()
            },
        );
        let mut rows = Rows::new(&cached, &part);
        // Combine the best pair until some row is left bounded.
        while !part
            .ids()
            .iter()
            .any(|&a| matches!(rows.rows[a], Row::Bound(_)))
        {
            assert!(part.len() > 12, "no row was left bounded");
            let top = rows.best_below(&cached, &part, None).expect("a pair");
            let (a, b) = (top.2 .0, top.3 .0);
            part.combine(a, b);
            rows.combined(&cached, &part, a, b);
        }
        let mut sorted = Candidates::sorted(&fresh, &part);
        let mut scan = Candidates::Below {
            rows: &mut rows,
            last: None,
        };
        let mut steps = 0;
        while let Some(pair) = sorted.next_best(&fresh, &part) {
            assert_eq!(scan.next_best(&cached, &part), Some(pair), "step {steps}");
            steps += 1;
        }
        assert_eq!(scan.next_best(&cached, &part), None);
        assert!(steps > 50, "only {steps} candidates");
    }

    /// One 127-thread gauss placement at p = 2 evaluates 17–25k pair
    /// keys. Scanning every pair at every level evaluates about
    /// t³/6 ≈ 341k; this bound fails on a return to that, or to
    /// rescanning at once every row whose best partner a combine absorbs
    /// (3.6 times as many keys on placebench's gauss).
    #[test]
    fn paper_scale_placement_evaluates_few_keys() {
        use crate::{PlacementAlgorithm, PlacementInputs};
        use placesim_analysis::SharingAnalysis;
        use placesim_workloads::{generate, spec, GenOptions};

        let app = spec("gauss").expect("known app");
        let prog = generate(
            &app,
            &GenOptions {
                scale: 0.005,
                seed: 1994,
            },
        );
        assert_eq!(prog.thread_count(), 127);
        let sharing = SharingAnalysis::measure(&prog);
        let lengths = crate::thread_lengths(&prog);
        let inputs = PlacementInputs::new(&sharing, &lengths).with_seed(1994);
        for algo in [
            PlacementAlgorithm::ShareRefs,
            PlacementAlgorithm::ShareRefsLb,
            PlacementAlgorithm::MinShare,
        ] {
            KEY_EVALS.with(|n| n.set(0));
            algo.place(&inputs, 2).expect("placement");
            let evals = KEY_EVALS.with(std::cell::Cell::get);
            eprintln!("{algo}: {evals} key evaluations");
            assert!(evals <= 40_000, "{algo} evaluated {evals} pair keys");
        }
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
            score_mode: ScoreMode::Cached,
        };
        let clusters = cluster(&metric, 4, 2, opts).unwrap();
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn balanced_fill_has_the_balanced_shape() {
        for t in 1..=40 {
            for p in 1..=t {
                let clusters = balanced_fill(&BalanceSpec::new(t, p));
                assert_eq!(clusters.len(), p, "t={t} p={p}");
                let mut threads = clusters.concat();
                threads.sort_unstable();
                assert_eq!(threads, (0..t).collect::<Vec<_>>(), "t={t} p={p}");
                let (floor, ceil) = (t / p, t.div_ceil(p));
                assert!(
                    clusters.iter().all(|c| c.len() == floor || c.len() == ceil),
                    "t={t} p={p}: {clusters:?}"
                );
                let big = clusters.iter().filter(|c| c.len() > floor).count();
                assert_eq!(big, t % p, "t={t} p={p}: {clusters:?}");
            }
        }
    }

    /// Best-fit-decreasing written out bin by bin: each cluster, largest
    /// first, goes to the tightest bin that holds it. The reference for
    /// `bfd_completable`, which does the same on counts by size.
    fn bfd_bin_by_bin(sizes: &[usize], merged: (usize, usize), spec: &BalanceSpec) -> bool {
        let mut items: Vec<usize> = sizes
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != merged.0 && i != merged.1)
            .map(|(_, &s)| s)
            .chain([sizes[merged.0] + sizes[merged.1]])
            .collect();
        let p = spec.processors();
        if items.len() < p {
            return false;
        }
        let big = spec.big_clusters();
        let mut bins: Vec<usize> = std::iter::repeat_n(spec.ceil_size(), big)
            .chain(std::iter::repeat_n(spec.floor_size(), p - big))
            .collect();
        items.sort_unstable_by(|a, b| b.cmp(a));
        for s in items {
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

    /// Walks every cluster-size multiset reachable from `t` singletons
    /// under the engine's own rules — `MergeRule::allows` on the merged
    /// size, then `bfd_completable` — and asserts that every state with
    /// more than `p` clusters has an accepted merge (so the greedy loop
    /// never reaches `balanced_fill`) and that every state with `p`
    /// clusters is balanced. Returns the number of states visited.
    fn assert_no_dead_ends(t: usize, p: usize) -> usize {
        let spec = BalanceSpec::new(t, p);
        let (floor, ceil) = (spec.floor_size(), spec.ceil_size());
        // States are size multisets, sorted descending.
        let mut seen: HashSet<Vec<usize>> = HashSet::from([vec![1; t]]);
        let mut stack = vec![vec![1; t]];
        while let Some(sizes) = stack.pop() {
            if sizes.len() == p {
                let big = sizes.iter().filter(|&&s| s > floor).count();
                assert!(
                    sizes.iter().all(|&s| s == floor || s == ceil) && big == t % p,
                    "t={t} p={p}: unbalanced final state {sizes:?}"
                );
                continue;
            }
            // `bfd_completable` reads only the cluster sizes.
            let mut next = 0;
            let part = Partition::from_clusters(
                sizes
                    .iter()
                    .map(|&s| {
                        next += s;
                        (next - s..next).collect()
                    })
                    .collect(),
            );
            let rule = MergeRule::new(&spec, part.count_of_size(ceil));
            let mut accepted = 0;
            // Equal-sized clusters are interchangeable, so each distinct
            // pair of sizes is tried once: the first cluster of a size for
            // `a`, the first after `a` of a size for `b`.
            for a in 0..sizes.len() {
                if a > 0 && sizes[a] == sizes[a - 1] {
                    continue;
                }
                for b in (a + 1)..sizes.len() {
                    if b > a + 1 && sizes[b] == sizes[b - 1] {
                        continue;
                    }
                    let merged = sizes[a] + sizes[b];
                    if !rule.allows(merged) {
                        continue;
                    }
                    let completable = bfd_completable(&part, (a, b), &spec);
                    assert_eq!(
                        completable,
                        bfd_bin_by_bin(&sizes, (a, b), &spec),
                        "t={t} p={p}: sizes {sizes:?} merging {a} and {b}"
                    );
                    if !completable {
                        continue;
                    }
                    accepted += 1;
                    let mut child: Vec<usize> = sizes
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != a && i != b)
                        .map(|(_, &s)| s)
                        .chain([merged])
                        .collect();
                    child.sort_unstable_by(|x, y| y.cmp(x));
                    if seen.insert(child.clone()) {
                        stack.push(child);
                    }
                }
            }
            assert!(accepted > 0, "t={t} p={p}: dead end at sizes {sizes:?}");
        }
        seen.len()
    }

    /// Runs [`assert_no_dead_ends`] for every `2 ≤ t ≤ max_t` and
    /// `1 ≤ p ≤ t`, returning the total number of states visited.
    fn assert_no_dead_ends_up_to(max_t: usize) -> usize {
        (2..=max_t)
            .flat_map(|t| (1..=t).map(move |p| (t, p)))
            .map(|(t, p)| assert_no_dead_ends(t, p))
            .sum()
    }

    #[test]
    fn no_reachable_state_dead_ends() {
        assert_eq!(assert_no_dead_ends_up_to(24), 22_658);
    }

    #[test]
    #[ignore = "exhaustive to t = 40 (~5 s in release): run with --ignored"]
    fn no_reachable_state_dead_ends_up_to_t40() {
        assert_eq!(assert_no_dead_ends_up_to(40), 727_210);
    }
}
