//! Pairwise and per-thread sharing metrics (the paper's §2 inputs).

use crate::matrix::SymMatrix;
use crate::profile::AddressProfile;
use crate::scan::{sharded_scan, Source};
use placesim_trace::hash::FastMap;
use placesim_trace::{AddrCounts, ProgramTrace, ThreadId};

/// Per-thread sharing aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSharing {
    /// Data references to shared addresses (addresses touched by ≥ 2 threads).
    pub shared_refs: u64,
    /// Data references to private addresses.
    pub private_refs: u64,
    /// Distinct shared addresses this thread touched.
    pub shared_addrs: u64,
    /// Distinct private addresses this thread touched.
    pub private_addrs: u64,
    /// Stores to shared addresses (potential invalidation sources).
    pub writes_to_shared: u64,
}

impl ThreadSharing {
    /// All data references of the thread.
    pub fn data_refs(&self) -> u64 {
        self.shared_refs + self.private_refs
    }

    /// The paper's "% shared refs": shared refs over data refs, 0–100.
    pub fn shared_percent(&self) -> f64 {
        let total = self.data_refs();
        if total == 0 {
            0.0
        } else {
            100.0 * self.shared_refs as f64 / total as f64
        }
    }

    /// The paper's "references per shared address" for this thread.
    pub fn refs_per_shared_addr(&self) -> f64 {
        if self.shared_addrs == 0 {
            0.0
        } else {
            self.shared_refs as f64 / self.shared_addrs as f64
        }
    }
}

/// Statically measured inter-thread sharing of one program.
///
/// Derived from an [`AddressProfile`] in one pass over its addresses:
///
/// * `pair_shared_refs(a, b)` — the paper's `shared-references(tₐ, t_b)`:
///   references by both threads to their common data addresses
///   (SHARE-REFS, MIN-PRIV metrics),
/// * `pair_write_shared_refs(a, b)` — the same, restricted to
///   *write-shared* addresses (MAX-WRITES, MIN-INVS metrics),
/// * `pair_shared_addrs(a, b)` — the number of common addresses
///   (SHARE-ADDR's refs-per-shared-address denominator),
/// * per-thread aggregates ([`ThreadSharing`]) for MIN-PRIV's private
///   footprint and Table 2's "% shared refs".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingAnalysis {
    pair_refs: SymMatrix<u64>,
    pair_write_refs: SymMatrix<u64>,
    pair_addrs: SymMatrix<u64>,
    per_thread: Vec<ThreadSharing>,
    shared_addresses: u64,
    total_addresses: u64,
}

/// Streaming accumulator behind [`SharingAnalysis`].
///
/// [`record`](Self::record) folds one address's per-thread counts into
/// the matrices; both the serial [`SharingAnalysis::from_profile`] and
/// the sharded [`SharingAnalysis::measure`] drive this same code, so the
/// two paths cannot diverge in accumulation logic. Partial accumulators
/// over disjoint address shards [`merge`](Self::merge) exactly: every
/// field is a commutative `u64` sum.
#[derive(Debug, Clone)]
pub(crate) struct SharingAccum {
    pair_refs: SymMatrix<u64>,
    pair_write_refs: SymMatrix<u64>,
    pair_addrs: SymMatrix<u64>,
    per_thread: Vec<ThreadSharing>,
    shared_addresses: u64,
    total_addresses: u64,
}

impl SharingAccum {
    pub(crate) fn new(threads: usize) -> Self {
        SharingAccum {
            pair_refs: SymMatrix::new(threads, 0u64),
            pair_write_refs: SymMatrix::new(threads, 0u64),
            pair_addrs: SymMatrix::new(threads, 0u64),
            per_thread: vec![ThreadSharing::default(); threads],
            shared_addresses: 0,
            total_addresses: 0,
        }
    }

    /// Folds one address's per-thread counts (sorted by thread id) into
    /// the running totals.
    pub(crate) fn record(&mut self, counts: &[crate::PerThreadCount]) {
        if counts.is_empty() {
            return;
        }
        self.total_addresses += 1;
        if counts.len() >= 2 {
            self.shared_addresses += 1;
            let write_shared = counts.iter().any(|c| c.writes > 0);
            for (k, a) in counts.iter().enumerate() {
                let ts = &mut self.per_thread[a.thread.index()];
                ts.shared_refs += a.total();
                ts.shared_addrs += 1;
                ts.writes_to_shared += a.writes as u64;
                for b in &counts[k + 1..] {
                    let refs = a.total() + b.total();
                    self.pair_refs.add(a.thread.index(), b.thread.index(), refs);
                    self.pair_addrs.add(a.thread.index(), b.thread.index(), 1);
                    if write_shared {
                        self.pair_write_refs
                            .add(a.thread.index(), b.thread.index(), refs);
                    }
                }
            }
        } else {
            let only = &counts[0];
            let ts = &mut self.per_thread[only.thread.index()];
            ts.private_refs += only.total();
            ts.private_addrs += 1;
        }
    }

    /// Sums another shard's partial totals into this one.
    pub(crate) fn merge(&mut self, other: &SharingAccum) {
        self.pair_refs.add_assign(&other.pair_refs);
        self.pair_write_refs.add_assign(&other.pair_write_refs);
        self.pair_addrs.add_assign(&other.pair_addrs);
        for (dst, src) in self.per_thread.iter_mut().zip(&other.per_thread) {
            dst.shared_refs += src.shared_refs;
            dst.private_refs += src.private_refs;
            dst.shared_addrs += src.shared_addrs;
            dst.private_addrs += src.private_addrs;
            dst.writes_to_shared += src.writes_to_shared;
        }
        self.shared_addresses += other.shared_addresses;
        self.total_addresses += other.total_addresses;
    }

    pub(crate) fn finish(self) -> SharingAnalysis {
        SharingAnalysis {
            pair_refs: self.pair_refs,
            pair_write_refs: self.pair_write_refs,
            pair_addrs: self.pair_addrs,
            per_thread: self.per_thread,
            shared_addresses: self.shared_addresses,
            total_addresses: self.total_addresses,
        }
    }
}

/// Sharer-set-grouped accumulator: the fast paths' `record`.
///
/// The paper's workloads concentrate sharing: enormous numbers of
/// addresses have the *same* sharer set (in Gauss, every thread sweeps
/// the whole shared matrix, so thousands of addresses are shared by all
/// 127 threads). [`SharingAccum::record`] pays an O(k²) pairwise matrix
/// update per address; but every one of those updates is *linear* in the
/// per-thread totals (`refs = a.total() + b.total()`, `+1` per common
/// address, write-shared gated on a per-address flag), so addresses with
/// an identical `(sharer list, write-shared)` signature can be summed
/// per sharer first and the pairwise pass run once per *group*. All
/// sums are commutative `u64` additions, so the grouping is exact —
/// `fused_measure_matches_reference` and the differential proptests pin
/// the bit-identity against the ungrouped reference.
pub(crate) struct GroupedAccum {
    base: SharingAccum,
    /// Signature hash → indices into `groups` (collision chains; the
    /// chain is verified element-wise, so hash collisions only cost a
    /// compare, never correctness).
    buckets: FastMap<u64, Vec<u32>>,
    groups: Vec<Group>,
}

/// One sharer-set group: the threads, per-thread running sums, and the
/// number of addresses folded in.
struct Group {
    threads: Vec<u16>,
    write_shared: bool,
    addrs: u64,
    refs: Vec<u64>,
    writes: Vec<u64>,
}

impl GroupedAccum {
    pub(crate) fn new(threads: usize) -> Self {
        GroupedAccum {
            base: SharingAccum::new(threads),
            buckets: FastMap::default(),
            groups: Vec::new(),
        }
    }

    /// Folds one address's per-thread counts (sorted by thread id) into
    /// its sharer-set group; private addresses go straight to the base
    /// accumulator.
    pub(crate) fn record(&mut self, counts: &[crate::PerThreadCount]) {
        if counts.len() < 2 {
            self.base.record(counts);
            return;
        }
        let write_shared = counts.iter().any(|c| c.writes > 0);
        // FNV-1a over the (sorted) thread ids and the write flag.
        let mut sig = 0xcbf2_9ce4_8422_2325u64 ^ write_shared as u64;
        for c in counts {
            sig = (sig ^ c.thread.raw() as u64).wrapping_mul(0x100_0000_01b3);
        }
        let groups = &mut self.groups;
        let chain = self.buckets.entry(sig).or_default();
        let gi = chain
            .iter()
            .copied()
            .find(|&g| {
                let g = &groups[g as usize];
                g.write_shared == write_shared
                    && g.threads.len() == counts.len()
                    && g.threads
                        .iter()
                        .zip(counts)
                        .all(|(&t, c)| t == c.thread.raw())
            })
            .unwrap_or_else(|| {
                let gi = u32::try_from(groups.len()).expect("group count exceeds u32");
                groups.push(Group {
                    threads: counts.iter().map(|c| c.thread.raw()).collect(),
                    write_shared,
                    addrs: 0,
                    refs: vec![0; counts.len()],
                    writes: vec![0; counts.len()],
                });
                chain.push(gi);
                gi
            });
        let g = &mut groups[gi as usize];
        g.addrs += 1;
        for (k, c) in counts.iter().enumerate() {
            g.refs[k] += c.total();
            g.writes[k] += c.writes as u64;
        }
    }

    /// Flushes every group through the pairwise update — once per group
    /// instead of once per address — and returns the plain accumulator.
    pub(crate) fn into_accum(mut self) -> SharingAccum {
        let base = &mut self.base;
        for g in &self.groups {
            base.total_addresses += g.addrs;
            base.shared_addresses += g.addrs;
            for (k, &ti) in g.threads.iter().enumerate() {
                let i = ti as usize;
                let ts = &mut base.per_thread[i];
                ts.shared_refs += g.refs[k];
                ts.shared_addrs += g.addrs;
                ts.writes_to_shared += g.writes[k];
                for (l, &tj) in g.threads.iter().enumerate().skip(k + 1) {
                    let j = tj as usize;
                    let refs = g.refs[k] + g.refs[l];
                    base.pair_refs.add(i, j, refs);
                    base.pair_addrs.add(i, j, g.addrs);
                    if g.write_shared {
                        base.pair_write_refs.add(i, j, refs);
                    }
                }
            }
        }
        self.base
    }
}

impl SharingAnalysis {
    /// Profiles `prog` and computes all sharing metrics.
    ///
    /// This is the fused fast path: the sharded sort-merge scan
    /// (`crate::scan`) feeds each address's per-thread counts straight
    /// into per-shard `GroupedAccum`s — no intermediate
    /// [`AddressProfile`] map is materialized, and the O(k²) pairwise
    /// update runs once per sharer-set group instead of once per
    /// address. Results are bit-identical to
    /// [`Self::measure_reference`]: every accumulated quantity is an
    /// exact `u64` sum, so neither sharding, nor grouping, nor visit
    /// order can change them.
    pub fn measure(prog: &ProgramTrace) -> Self {
        Self::measure_source(Source::Trace(prog)).expect("an in-memory scan reads no file")
    }

    /// Computes all sharing metrics from a streaming (v4) trace file
    /// without materializing it: the out-of-core analogue of
    /// [`Self::measure`].
    ///
    /// Stage-1 memory is bounded by `budget` (sorted run segments spill
    /// to disk past the cap, see [`crate::SpillBudget`]); every
    /// accumulated quantity is a commutative sum over per-address
    /// per-thread totals, so the result is bit-identical to
    /// [`Self::measure`] on the decoded trace for *any* budget — the
    /// differential proptests force spill-heavy tiny budgets to pin
    /// this down.
    ///
    /// # Errors
    ///
    /// Propagates I/O and format errors from the trace file and the
    /// spill files.
    pub fn measure_streamed(
        reader: &placesim_trace::stream::FileReader,
        budget: &crate::SpillBudget,
    ) -> Result<Self, placesim_trace::TraceError> {
        Self::measure_source(Source::File(reader, budget))
    }

    /// Computes all sharing metrics straight from per-thread access
    /// lists — the fused front end's profile-during-generation path.
    ///
    /// `access[t]` holds thread `t`'s entries, unaggregated (the same
    /// address may recur, e.g. once per run); only per-thread sums
    /// matter, so any split of the same references yields bit-identical
    /// results to [`Self::measure`] on the corresponding trace. The
    /// trace itself is never touched — callers that already hold access
    /// lists (e.g. `generate_with_access` in `placesim-workloads`) skip
    /// the full trace scan entirely.
    pub fn measure_access(access: &[Vec<AddrCounts>]) -> Self {
        Self::measure_source(Source::Access(access)).expect("an in-memory scan reads no file")
    }

    /// Runs the sharded scan over `source` into per-shard grouped
    /// accumulators and reduces them to the final analysis.
    fn measure_source(source: Source<'_>) -> Result<Self, placesim_trace::TraceError> {
        let threads = source.thread_count();
        let shards = sharded_scan(
            source,
            || GroupedAccum::new(threads),
            |acc, _addr, counts| acc.record(counts),
        )?;
        let mut iter = shards.into_iter().map(GroupedAccum::into_accum);
        let mut total = iter.next().unwrap_or_else(|| SharingAccum::new(threads));
        for shard in iter {
            total.merge(&shard);
        }
        Ok(total.finish())
    }

    /// The original serial path: build the full [`AddressProfile`], then
    /// derive the metrics from it. Kept as the reference for the
    /// differential tests.
    pub fn measure_reference(prog: &ProgramTrace) -> Self {
        Self::from_profile(&AddressProfile::build(prog))
    }

    /// Computes all sharing metrics from a pre-built profile.
    pub fn from_profile(profile: &AddressProfile) -> Self {
        let mut acc = SharingAccum::new(profile.thread_count());
        for (_addr, pa) in profile.iter() {
            acc.record(pa.counts());
        }
        acc.finish()
    }

    /// Number of threads analyzed.
    pub fn thread_count(&self) -> usize {
        self.per_thread.len()
    }

    /// The paper's `shared-references(tₐ, t_b)`.
    pub fn pair_shared_refs(&self, a: ThreadId, b: ThreadId) -> u64 {
        self.pair_refs.get(a.index(), b.index())
    }

    /// Pairwise shared references restricted to write-shared addresses.
    pub fn pair_write_shared_refs(&self, a: ThreadId, b: ThreadId) -> u64 {
        self.pair_write_refs.get(a.index(), b.index())
    }

    /// Number of data addresses the two threads have in common.
    pub fn pair_shared_addrs(&self, a: ThreadId, b: ThreadId) -> u64 {
        self.pair_addrs.get(a.index(), b.index())
    }

    /// The full pairwise shared-references matrix.
    pub fn pair_refs_matrix(&self) -> &SymMatrix<u64> {
        &self.pair_refs
    }

    /// The full pairwise write-shared-references matrix.
    pub fn pair_write_refs_matrix(&self) -> &SymMatrix<u64> {
        &self.pair_write_refs
    }

    /// The full pairwise common-address-count matrix.
    pub fn pair_addrs_matrix(&self) -> &SymMatrix<u64> {
        &self.pair_addrs
    }

    /// Per-thread aggregates in thread-id order.
    pub fn per_thread(&self) -> &[ThreadSharing] {
        &self.per_thread
    }

    /// Per-thread aggregates for one thread.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn thread(&self, id: ThreadId) -> &ThreadSharing {
        &self.per_thread[id.index()]
    }

    /// Number of distinct shared data addresses in the program.
    pub fn shared_address_count(&self) -> u64 {
        self.shared_addresses
    }

    /// Number of distinct data addresses in the program.
    pub fn total_address_count(&self) -> u64 {
        self.total_addresses
    }

    /// Total statically counted pairwise shared references, summed over
    /// all thread pairs (Table 4's "static" column numerator).
    pub fn total_pairwise_shared_refs(&self) -> u64 {
        self.pair_refs.iter_pairs().map(|(_, _, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_trace::{Address, MemRef, ThreadTrace};

    /// T0 reads X(0x100) twice and writes private P(0x900).
    /// T1 writes X once and reads Y(0x200).
    /// T2 reads Y twice.
    fn prog() -> ProgramTrace {
        let t0: ThreadTrace = [
            MemRef::read(Address::new(0x100)),
            MemRef::read(Address::new(0x100)),
            MemRef::write(Address::new(0x900)),
        ]
        .into_iter()
        .collect();
        let t1: ThreadTrace = [
            MemRef::write(Address::new(0x100)),
            MemRef::read(Address::new(0x200)),
        ]
        .into_iter()
        .collect();
        let t2: ThreadTrace = [
            MemRef::read(Address::new(0x200)),
            MemRef::read(Address::new(0x200)),
        ]
        .into_iter()
        .collect();
        ProgramTrace::new("p", vec![t0, t1, t2])
    }

    #[test]
    fn pairwise_shared_refs() {
        let s = SharingAnalysis::measure(&prog());
        let (t0, t1, t2) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
        // X common to T0/T1: 2 + 1 = 3 refs.
        assert_eq!(s.pair_shared_refs(t0, t1), 3);
        // Y common to T1/T2: 1 + 2 = 3 refs.
        assert_eq!(s.pair_shared_refs(t1, t2), 3);
        // T0/T2 share nothing.
        assert_eq!(s.pair_shared_refs(t0, t2), 0);
    }

    #[test]
    fn write_shared_restriction() {
        let s = SharingAnalysis::measure(&prog());
        let (t0, t1, t2) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
        // X is write-shared (T1 writes it); Y is read-only shared.
        assert_eq!(s.pair_write_shared_refs(t0, t1), 3);
        assert_eq!(s.pair_write_shared_refs(t1, t2), 0);
        assert_eq!(s.pair_write_shared_refs(t0, t2), 0);
    }

    #[test]
    fn shared_address_counts() {
        let s = SharingAnalysis::measure(&prog());
        let (t0, t1, t2) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
        assert_eq!(s.pair_shared_addrs(t0, t1), 1);
        assert_eq!(s.pair_shared_addrs(t1, t2), 1);
        assert_eq!(s.pair_shared_addrs(t0, t2), 0);
        assert_eq!(s.shared_address_count(), 2);
        assert_eq!(s.total_address_count(), 3);
    }

    #[test]
    fn per_thread_aggregates() {
        let s = SharingAnalysis::measure(&prog());
        let t0 = s.thread(ThreadId::new(0));
        assert_eq!(t0.shared_refs, 2);
        assert_eq!(t0.private_refs, 1);
        assert_eq!(t0.shared_addrs, 1);
        assert_eq!(t0.private_addrs, 1);
        assert_eq!(t0.writes_to_shared, 0);
        assert!((t0.shared_percent() - 200.0 / 3.0).abs() < 1e-9);
        assert!((t0.refs_per_shared_addr() - 2.0).abs() < 1e-12);

        let t1 = s.thread(ThreadId::new(1));
        assert_eq!(t1.shared_refs, 2);
        assert_eq!(t1.writes_to_shared, 1);
        assert_eq!(t1.private_refs, 0);
    }

    #[test]
    fn totals() {
        let s = SharingAnalysis::measure(&prog());
        assert_eq!(s.total_pairwise_shared_refs(), 6);
        assert_eq!(s.thread_count(), 3);
    }

    #[test]
    fn fused_measure_matches_reference() {
        let p = prog();
        assert_eq!(
            SharingAnalysis::measure(&p),
            SharingAnalysis::measure_reference(&p)
        );
    }

    #[test]
    fn measure_access_matches_trace_measure() {
        // prog() expressed as unaggregated access lists; T0's reads of X
        // are deliberately split across two entries.
        let access = vec![
            vec![
                AddrCounts {
                    addr: 0x100,
                    reads: 1,
                    writes: 0,
                },
                AddrCounts {
                    addr: 0x100,
                    reads: 1,
                    writes: 0,
                },
                AddrCounts {
                    addr: 0x900,
                    reads: 0,
                    writes: 1,
                },
            ],
            vec![
                AddrCounts {
                    addr: 0x100,
                    reads: 0,
                    writes: 1,
                },
                AddrCounts {
                    addr: 0x200,
                    reads: 1,
                    writes: 0,
                },
            ],
            vec![AddrCounts {
                addr: 0x200,
                reads: 2,
                writes: 0,
            }],
        ];
        assert_eq!(
            SharingAnalysis::measure_access(&access),
            SharingAnalysis::measure(&prog())
        );
    }

    #[test]
    fn grouping_splits_on_write_shared_flag() {
        // Two addresses with the same sharer set {T0, T1} but different
        // write-shared flags must land in different groups: only the
        // written one contributes to pair_write_refs.
        let t0: ThreadTrace = [
            MemRef::read(Address::new(0x100)),
            MemRef::read(Address::new(0x200)),
        ]
        .into_iter()
        .collect();
        let t1: ThreadTrace = [
            MemRef::write(Address::new(0x100)),
            MemRef::read(Address::new(0x200)),
        ]
        .into_iter()
        .collect();
        let p = ProgramTrace::new("p", vec![t0, t1]);
        let s = SharingAnalysis::measure(&p);
        let (a, b) = (ThreadId::new(0), ThreadId::new(1));
        assert_eq!(s.pair_shared_refs(a, b), 4);
        assert_eq!(s.pair_write_shared_refs(a, b), 2);
        assert_eq!(s.pair_shared_addrs(a, b), 2);
        assert_eq!(s, SharingAnalysis::measure_reference(&p));
    }

    #[test]
    fn empty_thread_sharing_percentages() {
        let ts = ThreadSharing::default();
        assert_eq!(ts.shared_percent(), 0.0);
        assert_eq!(ts.refs_per_shared_addr(), 0.0);
    }
}
