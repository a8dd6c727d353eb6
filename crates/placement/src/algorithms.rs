//! The paper's placement algorithms as a single dispatchable enum.

use crate::engine::{cluster, EngineOptions, LoadConstraint, ScoreMode};
use crate::error::PlacementError;
use crate::map::PlacementMap;
use crate::metrics::{
    CoherenceMetric, MaxWritesMetric, MinInvsMetric, MinPrivMetric, MinShareMetric,
    ShareAddrMetric, ShareRefsMetric,
};
use placesim_analysis::{SharingAnalysis, SymMatrix};
use placesim_trace::ProgramTrace;
use std::fmt;

/// The `+LB` tolerance: combined cluster load may exceed the ideal
/// per-processor load by this fraction (the paper's "typically 10%").
pub const LB_TOLERANCE: f64 = 0.10;

/// Every thread-placement algorithm evaluated by the paper.
///
/// Names match the paper's §2 list; `*Lb` are the load-balancing variants
/// of item 8, and [`PlacementAlgorithm::CoherenceTraffic`] is the §4.2
/// "best possible" placement built from dynamically measured coherence
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is described by `description`
pub enum PlacementAlgorithm {
    ShareRefs,
    ShareAddr,
    MinPriv,
    MinInvs,
    MaxWrites,
    MinShare,
    ShareRefsLb,
    ShareAddrLb,
    MinPrivLb,
    MinInvsLb,
    MaxWritesLb,
    MinShareLb,
    LoadBal,
    Random,
    CoherenceTraffic,
}

impl PlacementAlgorithm {
    /// All algorithms, in the paper's presentation order.
    pub const ALL: [PlacementAlgorithm; 15] = [
        PlacementAlgorithm::ShareRefs,
        PlacementAlgorithm::ShareAddr,
        PlacementAlgorithm::MinPriv,
        PlacementAlgorithm::MinInvs,
        PlacementAlgorithm::MaxWrites,
        PlacementAlgorithm::MinShare,
        PlacementAlgorithm::ShareRefsLb,
        PlacementAlgorithm::ShareAddrLb,
        PlacementAlgorithm::MinPrivLb,
        PlacementAlgorithm::MinInvsLb,
        PlacementAlgorithm::MaxWritesLb,
        PlacementAlgorithm::MinShareLb,
        PlacementAlgorithm::LoadBal,
        PlacementAlgorithm::Random,
        PlacementAlgorithm::CoherenceTraffic,
    ];

    /// The statically driven algorithms compared in Figures 2–4 (i.e.
    /// everything except the coherence-traffic oracle).
    pub const STATIC: [PlacementAlgorithm; 14] = [
        PlacementAlgorithm::ShareRefs,
        PlacementAlgorithm::ShareAddr,
        PlacementAlgorithm::MinPriv,
        PlacementAlgorithm::MinInvs,
        PlacementAlgorithm::MaxWrites,
        PlacementAlgorithm::MinShare,
        PlacementAlgorithm::ShareRefsLb,
        PlacementAlgorithm::ShareAddrLb,
        PlacementAlgorithm::MinPrivLb,
        PlacementAlgorithm::MinInvsLb,
        PlacementAlgorithm::MaxWritesLb,
        PlacementAlgorithm::MinShareLb,
        PlacementAlgorithm::LoadBal,
        PlacementAlgorithm::Random,
    ];

    /// The six sharing-based base algorithms (paper §2 items 1–6).
    pub const SHARING_BASED: [PlacementAlgorithm; 6] = [
        PlacementAlgorithm::ShareRefs,
        PlacementAlgorithm::ShareAddr,
        PlacementAlgorithm::MinPriv,
        PlacementAlgorithm::MinInvs,
        PlacementAlgorithm::MaxWrites,
        PlacementAlgorithm::MinShare,
    ];

    /// The paper's name for the algorithm (e.g. `"SHARE-REFS+LB"`).
    pub fn paper_name(self) -> &'static str {
        match self {
            PlacementAlgorithm::ShareRefs => "SHARE-REFS",
            PlacementAlgorithm::ShareAddr => "SHARE-ADDR",
            PlacementAlgorithm::MinPriv => "MIN-PRIV",
            PlacementAlgorithm::MinInvs => "MIN-INVS",
            PlacementAlgorithm::MaxWrites => "MAX-WRITES",
            PlacementAlgorithm::MinShare => "MIN-SHARE",
            PlacementAlgorithm::ShareRefsLb => "SHARE-REFS+LB",
            PlacementAlgorithm::ShareAddrLb => "SHARE-ADDR+LB",
            PlacementAlgorithm::MinPrivLb => "MIN-PRIV+LB",
            PlacementAlgorithm::MinInvsLb => "MIN-INVS+LB",
            PlacementAlgorithm::MaxWritesLb => "MAX-WRITES+LB",
            PlacementAlgorithm::MinShareLb => "MIN-SHARE+LB",
            PlacementAlgorithm::LoadBal => "LOAD-BAL",
            PlacementAlgorithm::Random => "RANDOM",
            PlacementAlgorithm::CoherenceTraffic => "COHERENCE",
        }
    }

    /// The algorithm whose [`paper_name`](Self::paper_name) is `name`,
    /// ignoring ASCII case.
    pub fn from_paper_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|a| a.paper_name().eq_ignore_ascii_case(name))
    }

    /// One-line description of the clustering criterion.
    pub fn description(self) -> &'static str {
        match self {
            PlacementAlgorithm::ShareRefs => "maximize shared references among co-located threads",
            PlacementAlgorithm::ShareAddr => "maximize shared references per shared address",
            PlacementAlgorithm::MinPriv => {
                "maximize shared references, minimize private addresses per processor"
            }
            PlacementAlgorithm::MinInvs => {
                "minimize cross-processor references that can cause invalidations"
            }
            PlacementAlgorithm::MaxWrites => {
                "maximize write-shared references among co-located threads"
            }
            PlacementAlgorithm::MinShare => "worst case: minimize shared references per processor",
            PlacementAlgorithm::ShareRefsLb
            | PlacementAlgorithm::ShareAddrLb
            | PlacementAlgorithm::MinPrivLb
            | PlacementAlgorithm::MinInvsLb
            | PlacementAlgorithm::MaxWritesLb
            | PlacementAlgorithm::MinShareLb => {
                "base sharing criterion filtered by a 10% load-balance bound"
            }
            PlacementAlgorithm::LoadBal => "perfect load balance by dynamic thread length (LPT)",
            PlacementAlgorithm::Random => "thread-balanced random placement (baseline)",
            PlacementAlgorithm::CoherenceTraffic => {
                "cluster by dynamically measured coherence traffic (oracle)"
            }
        }
    }

    /// `true` for the sharing-based algorithms and their `+LB` variants.
    pub fn is_sharing_based(self) -> bool {
        !matches!(
            self,
            PlacementAlgorithm::LoadBal | PlacementAlgorithm::Random
        )
    }

    /// `true` for the `+LB` variants.
    pub fn is_lb_variant(self) -> bool {
        matches!(
            self,
            PlacementAlgorithm::ShareRefsLb
                | PlacementAlgorithm::ShareAddrLb
                | PlacementAlgorithm::MinPrivLb
                | PlacementAlgorithm::MinInvsLb
                | PlacementAlgorithm::MaxWritesLb
                | PlacementAlgorithm::MinShareLb
        )
    }

    /// The base algorithm of a `+LB` variant (identity otherwise).
    pub fn base(self) -> PlacementAlgorithm {
        match self {
            PlacementAlgorithm::ShareRefsLb => PlacementAlgorithm::ShareRefs,
            PlacementAlgorithm::ShareAddrLb => PlacementAlgorithm::ShareAddr,
            PlacementAlgorithm::MinPrivLb => PlacementAlgorithm::MinPriv,
            PlacementAlgorithm::MinInvsLb => PlacementAlgorithm::MinInvs,
            PlacementAlgorithm::MaxWritesLb => PlacementAlgorithm::MaxWrites,
            PlacementAlgorithm::MinShareLb => PlacementAlgorithm::MinShare,
            other => other,
        }
    }

    /// Runs the algorithm: places `inputs`' threads onto `processors`.
    ///
    /// # Errors
    ///
    /// * [`PlacementError::ZeroProcessors`] / [`PlacementError::TooManyProcessors`]
    ///   for impossible shapes,
    /// * [`PlacementError::MissingTraffic`] if
    ///   [`PlacementAlgorithm::CoherenceTraffic`] is run without a traffic
    ///   matrix,
    /// * [`PlacementError::DimensionMismatch`] if an input has the wrong
    ///   dimension.
    pub fn place(
        self,
        inputs: &PlacementInputs<'_>,
        processors: usize,
    ) -> Result<PlacementMap, PlacementError> {
        self.place_with_mode(inputs, processors, ScoreMode::Cached)
    }

    /// Like [`place`](Self::place) with an explicit engine
    /// [`ScoreMode`]. [`ScoreMode::Fresh`] recomputes every candidate
    /// score from the thread matrices — the reference the differential
    /// tests compare the cached default against.
    ///
    /// # Errors
    ///
    /// Same as [`place`](Self::place).
    pub fn place_with_mode(
        self,
        inputs: &PlacementInputs<'_>,
        processors: usize,
        score_mode: ScoreMode,
    ) -> Result<PlacementMap, PlacementError> {
        inputs.validate()?;
        let t = inputs.thread_count();
        if processors == 0 {
            return Err(PlacementError::ZeroProcessors);
        }
        if processors > t {
            return Err(PlacementError::TooManyProcessors {
                threads: t,
                processors,
            });
        }

        let load = self.is_lb_variant().then_some(LoadConstraint {
            lengths: inputs.lengths,
            tolerance: LB_TOLERANCE,
        });
        let options = EngineOptions { load, score_mode };
        let sharing = inputs.sharing;

        let clusters = match self.base() {
            PlacementAlgorithm::ShareRefs => cluster(
                &ShareRefsMetric {
                    refs: sharing.pair_refs_matrix(),
                },
                t,
                processors,
                options,
            )?,
            PlacementAlgorithm::ShareAddr => cluster(
                &ShareAddrMetric {
                    refs: sharing.pair_refs_matrix(),
                    addrs: sharing.pair_addrs_matrix(),
                },
                t,
                processors,
                options,
            )?,
            PlacementAlgorithm::MinPriv => {
                let private: Vec<u64> = sharing
                    .per_thread()
                    .iter()
                    .map(|s| s.private_addrs)
                    .collect();
                cluster(
                    &MinPrivMetric {
                        refs: sharing.pair_refs_matrix(),
                        private_addrs: &private,
                    },
                    t,
                    processors,
                    options,
                )?
            }
            PlacementAlgorithm::MinInvs => cluster(
                &MinInvsMetric {
                    write_refs: sharing.pair_write_refs_matrix(),
                },
                t,
                processors,
                options,
            )?,
            PlacementAlgorithm::MaxWrites => cluster(
                &MaxWritesMetric {
                    write_refs: sharing.pair_write_refs_matrix(),
                },
                t,
                processors,
                options,
            )?,
            PlacementAlgorithm::MinShare => cluster(
                &MinShareMetric {
                    refs: sharing.pair_refs_matrix(),
                },
                t,
                processors,
                options,
            )?,
            PlacementAlgorithm::LoadBal => lpt(inputs.lengths, processors),
            PlacementAlgorithm::Random => random_balanced(t, processors, inputs.seed),
            PlacementAlgorithm::CoherenceTraffic => {
                let traffic = inputs.traffic.ok_or(PlacementError::MissingTraffic)?;
                if traffic.dim() != t {
                    return Err(PlacementError::DimensionMismatch {
                        what: "traffic matrix",
                        expected: t,
                        found: traffic.dim(),
                    });
                }
                cluster(&CoherenceMetric { traffic }, t, processors, options)?
            }
            _ => unreachable!("base() never returns an Lb variant"),
        };
        PlacementMap::from_clusters(clusters)
    }
}

impl fmt::Display for PlacementAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// The program characteristics a placement algorithm consumes.
#[derive(Debug, Clone, Copy)]
pub struct PlacementInputs<'a> {
    /// Static sharing analysis of the program.
    pub sharing: &'a SharingAnalysis,
    /// Per-thread dynamic lengths in instructions (for LOAD-BAL and `+LB`).
    pub lengths: &'a [u64],
    /// Measured coherence-traffic matrix (only for
    /// [`PlacementAlgorithm::CoherenceTraffic`]).
    pub traffic: Option<&'a SymMatrix<u64>>,
    /// Seed for [`PlacementAlgorithm::Random`].
    pub seed: u64,
}

impl<'a> PlacementInputs<'a> {
    /// Creates inputs with no traffic matrix and the default seed.
    pub fn new(sharing: &'a SharingAnalysis, lengths: &'a [u64]) -> Self {
        PlacementInputs {
            sharing,
            lengths,
            traffic: None,
            seed: 0x5EED,
        }
    }

    /// Sets the coherence-traffic matrix.
    pub fn with_traffic(mut self, traffic: &'a SymMatrix<u64>) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Sets the seed used by RANDOM.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of threads described by these inputs.
    pub fn thread_count(&self) -> usize {
        self.sharing.thread_count()
    }

    fn validate(&self) -> Result<(), PlacementError> {
        if self.lengths.len() != self.sharing.thread_count() {
            return Err(PlacementError::DimensionMismatch {
                what: "thread lengths",
                expected: self.sharing.thread_count(),
                found: self.lengths.len(),
            });
        }
        Ok(())
    }
}

/// Extracts per-thread instruction lengths from a program trace, in the
/// form [`PlacementInputs`] expects.
pub fn thread_lengths(prog: &ProgramTrace) -> Vec<u64> {
    prog.threads().iter().map(|t| t.instr_len()).collect()
}

/// Longest-processing-time-first load balancing: threads sorted by
/// descending length, each assigned to the currently least-loaded
/// processor. This is the paper's LOAD-BAL — it balances *instructions*,
/// not thread counts.
fn lpt(lengths: &[u64], processors: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..lengths.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(lengths[i]), i));
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); processors];
    let mut loads = vec![0u64; processors];
    for i in order {
        let target = (0..processors)
            .min_by_key(|&p| (loads[p], p))
            .expect("processors > 0");
        clusters[target].push(i);
        loads[target] += lengths[i];
    }
    clusters
}

/// Thread-balanced random placement: shuffle thread ids with a
/// deterministic xorshift generator, deal them round-robin.
fn random_balanced(t: usize, processors: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut ids: Vec<usize> = (0..t).collect();
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for i in (1..ids.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); processors];
    for (k, id) in ids.into_iter().enumerate() {
        clusters[k % processors].push(id);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_trace::{Address, MemRef, ThreadId, ThreadTrace};

    /// Four threads: 0,1 share address A heavily; 2,3 share address B.
    /// Thread lengths are skewed: 0 and 2 are long.
    fn inputs_fixture() -> (SharingAnalysis, Vec<u64>) {
        let mk = |addr: u64, instrs: usize| -> ThreadTrace {
            let mut t = ThreadTrace::new();
            for i in 0..instrs {
                t.push(MemRef::instr(Address::new(4 * i as u64)));
            }
            for _ in 0..10 {
                t.push(MemRef::write(Address::new(addr)));
            }
            t
        };
        let prog = ProgramTrace::new(
            "fixture",
            vec![mk(0xA0, 100), mk(0xA0, 10), mk(0xB0, 100), mk(0xB0, 10)],
        );
        let lengths = thread_lengths(&prog);
        (SharingAnalysis::measure(&prog), lengths)
    }

    #[test]
    fn share_refs_colocates_sharers() {
        let (sharing, lengths) = inputs_fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths);
        let map = PlacementAlgorithm::ShareRefs.place(&inputs, 2).unwrap();
        assert_eq!(
            map.processor_of(ThreadId::new(0)),
            map.processor_of(ThreadId::new(1))
        );
        assert_eq!(
            map.processor_of(ThreadId::new(2)),
            map.processor_of(ThreadId::new(3))
        );
        assert!(map.is_thread_balanced());
    }

    #[test]
    fn min_share_separates_sharers() {
        let (sharing, lengths) = inputs_fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths);
        let map = PlacementAlgorithm::MinShare.place(&inputs, 2).unwrap();
        assert_ne!(
            map.processor_of(ThreadId::new(0)),
            map.processor_of(ThreadId::new(1))
        );
    }

    #[test]
    fn load_bal_balances_lengths() {
        let (sharing, lengths) = inputs_fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths);
        let map = PlacementAlgorithm::LoadBal.place(&inputs, 2).unwrap();
        // Lengths 100,10,100,10 → each processor gets one long + one short.
        let loads = map.loads(&lengths);
        assert_eq!(loads, vec![110, 110]);
    }

    #[test]
    fn lb_variant_sacrifices_sharing_for_load() {
        let (sharing, lengths) = inputs_fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths);
        let map = PlacementAlgorithm::ShareRefsLb.place(&inputs, 2).unwrap();
        // Pure SHARE-REFS would pair (0,1): load 110 vs 110?? No: lengths
        // 100+10=110 on each — actually (0,1) is load-balanced here. Use
        // imbalance check instead: the +LB result must be within the
        // tolerance of ideal whenever possible.
        assert!(map.load_imbalance(&lengths) <= 1.10 + 1e-9);
    }

    #[test]
    fn random_is_thread_balanced_and_seeded() {
        let (sharing, lengths) = inputs_fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths).with_seed(7);
        let a = PlacementAlgorithm::Random.place(&inputs, 2).unwrap();
        let b = PlacementAlgorithm::Random.place(&inputs, 2).unwrap();
        assert_eq!(a, b, "same seed, same placement");
        assert!(a.is_thread_balanced());

        let c = PlacementAlgorithm::Random
            .place(&PlacementInputs::new(&sharing, &lengths).with_seed(8), 2)
            .unwrap();
        // Different seeds *may* coincide on 4 threads, but thread-balance
        // must always hold.
        assert!(c.is_thread_balanced());
    }

    #[test]
    fn coherence_requires_traffic() {
        let (sharing, lengths) = inputs_fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths);
        assert_eq!(
            PlacementAlgorithm::CoherenceTraffic
                .place(&inputs, 2)
                .unwrap_err(),
            PlacementError::MissingTraffic
        );

        let mut traffic = SymMatrix::new(4, 0u64);
        traffic.set(0, 3, 100);
        traffic.set(1, 2, 100);
        let inputs = inputs.with_traffic(&traffic);
        let map = PlacementAlgorithm::CoherenceTraffic
            .place(&inputs, 2)
            .unwrap();
        assert_eq!(
            map.processor_of(ThreadId::new(0)),
            map.processor_of(ThreadId::new(3))
        );
    }

    #[test]
    fn traffic_dimension_checked() {
        let (sharing, lengths) = inputs_fixture();
        let bad = SymMatrix::new(3, 0u64);
        let inputs = PlacementInputs::new(&sharing, &lengths).with_traffic(&bad);
        assert!(matches!(
            PlacementAlgorithm::CoherenceTraffic.place(&inputs, 2),
            Err(PlacementError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn lengths_dimension_checked() {
        let (sharing, _) = inputs_fixture();
        let short = vec![1u64, 2];
        let inputs = PlacementInputs::new(&sharing, &short);
        assert!(matches!(
            PlacementAlgorithm::ShareRefs.place(&inputs, 2),
            Err(PlacementError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn all_algorithms_place_every_thread_once() {
        let (sharing, lengths) = inputs_fixture();
        let mut traffic = SymMatrix::new(4, 0u64);
        traffic.set(0, 1, 5);
        let inputs = PlacementInputs::new(&sharing, &lengths).with_traffic(&traffic);
        for algo in PlacementAlgorithm::ALL {
            for p in 1..=4 {
                let map = algo.place(&inputs, p).unwrap_or_else(|e| {
                    panic!("{algo} with p={p} failed: {e}");
                });
                assert_eq!(map.thread_count(), 4, "{algo} p={p}");
                assert_eq!(map.processor_count(), p, "{algo} p={p}");
            }
        }
    }

    #[test]
    fn names_and_metadata() {
        assert_eq!(PlacementAlgorithm::ShareRefs.paper_name(), "SHARE-REFS");
        assert_eq!(PlacementAlgorithm::ShareRefsLb.to_string(), "SHARE-REFS+LB");
        assert!(PlacementAlgorithm::ShareRefsLb.is_lb_variant());
        assert!(!PlacementAlgorithm::LoadBal.is_lb_variant());
        assert!(PlacementAlgorithm::MinShare.is_sharing_based());
        assert!(!PlacementAlgorithm::Random.is_sharing_based());
        assert_eq!(
            PlacementAlgorithm::MaxWritesLb.base(),
            PlacementAlgorithm::MaxWrites
        );
        assert_eq!(PlacementAlgorithm::ALL.len(), 15);
        assert_eq!(PlacementAlgorithm::STATIC.len(), 14);
        for a in PlacementAlgorithm::ALL {
            assert!(!a.description().is_empty());
        }
    }

    #[test]
    fn paper_names_round_trip_in_either_case() {
        for a in PlacementAlgorithm::ALL {
            let name = a.paper_name();
            assert_eq!(PlacementAlgorithm::from_paper_name(name), Some(a));
            assert_eq!(
                PlacementAlgorithm::from_paper_name(&name.to_ascii_lowercase()),
                Some(a)
            );
            assert_eq!(
                PlacementAlgorithm::from_paper_name(&name.to_ascii_uppercase()),
                Some(a)
            );
        }
        assert_eq!(PlacementAlgorithm::from_paper_name("SHARE-NOTHING"), None);
        assert_eq!(PlacementAlgorithm::from_paper_name(""), None);
    }

    #[test]
    fn lpt_ties_are_deterministic() {
        let clusters = lpt(&[5, 5, 5, 5], 2);
        assert_eq!(clusters, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn errors_on_bad_shapes() {
        let (sharing, lengths) = inputs_fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths);
        assert_eq!(
            PlacementAlgorithm::ShareRefs.place(&inputs, 0).unwrap_err(),
            PlacementError::ZeroProcessors
        );
        assert_eq!(
            PlacementAlgorithm::LoadBal.place(&inputs, 5).unwrap_err(),
            PlacementError::TooManyProcessors {
                threads: 4,
                processors: 5
            }
        );
    }
}
