//! Placement quality metrics: how much sharing a placement co-locates
//! and how balanced it is.
//!
//! These are diagnostics, not inputs to any algorithm — the paper's
//! result is precisely that the sharing-capture metric does not predict
//! execution time while the balance metric does.

use crate::map::PlacementMap;
use placesim_analysis::SharingAnalysis;

/// Quality summary of one placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementQuality {
    /// Fraction (0–1) of all pairwise shared references whose thread
    /// pair is co-located.
    pub sharing_captured: f64,
    /// Fraction (0–1) of write-shared pairwise references co-located
    /// (the invalidation-relevant subset).
    pub write_sharing_captured: f64,
    /// Max processor load over ideal load (≥ 1.0; 1.0 is perfect).
    pub load_imbalance: f64,
    /// Largest cluster size (hardware contexts needed).
    pub max_contexts: usize,
}

impl PlacementQuality {
    /// Measures `map` against the program's sharing analysis and thread
    /// lengths.
    ///
    /// # Panics
    ///
    /// Panics if the map, analysis and lengths disagree on thread count.
    pub fn measure(map: &PlacementMap, sharing: &SharingAnalysis, lengths: &[u64]) -> Self {
        assert_eq!(map.thread_count(), sharing.thread_count());
        assert_eq!(map.thread_count(), lengths.len());

        let total: u64 = sharing.total_pairwise_shared_refs();
        let total_writes: u64 = sharing
            .pair_write_refs_matrix()
            .iter_pairs()
            .map(|(_, _, v)| v)
            .sum();

        let mut captured = 0u64;
        let mut captured_writes = 0u64;
        for (_, cluster) in map.iter() {
            for (k, &a) in cluster.iter().enumerate() {
                for &b in &cluster[k + 1..] {
                    captured += sharing.pair_shared_refs(a, b);
                    captured_writes += sharing.pair_write_shared_refs(a, b);
                }
            }
        }

        PlacementQuality {
            sharing_captured: ratio(captured, total),
            write_sharing_captured: ratio(captured_writes, total_writes),
            load_imbalance: map.load_imbalance(lengths),
            max_contexts: map.max_cluster_size(),
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{thread_lengths, PlacementAlgorithm, PlacementInputs};
    use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};

    /// 0↔1 and 2↔3 share; lengths uniform.
    fn fixture() -> (ProgramTrace, SharingAnalysis, Vec<u64>) {
        let mk = |addr: u64| -> ThreadTrace {
            let mut t = ThreadTrace::new();
            t.push(MemRef::instr(Address::new(0)));
            for _ in 0..10 {
                t.push(MemRef::read(Address::new(addr)));
                t.push(MemRef::write(Address::new(addr)));
            }
            t
        };
        let prog = ProgramTrace::new("q", vec![mk(0x10), mk(0x10), mk(0x20), mk(0x20)]);
        let sharing = SharingAnalysis::measure(&prog);
        let lengths = thread_lengths(&prog);
        (prog, sharing, lengths)
    }

    #[test]
    fn share_refs_captures_everything() {
        let (_, sharing, lengths) = fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths);
        let map = PlacementAlgorithm::ShareRefs.place(&inputs, 2).unwrap();
        let q = PlacementQuality::measure(&map, &sharing, &lengths);
        assert!((q.sharing_captured - 1.0).abs() < 1e-12);
        assert!((q.write_sharing_captured - 1.0).abs() < 1e-12);
        assert!((q.load_imbalance - 1.0).abs() < 1e-12);
        assert_eq!(q.max_contexts, 2);
    }

    #[test]
    fn min_share_captures_nothing() {
        let (_, sharing, lengths) = fixture();
        let inputs = PlacementInputs::new(&sharing, &lengths);
        let map = PlacementAlgorithm::MinShare.place(&inputs, 2).unwrap();
        let q = PlacementQuality::measure(&map, &sharing, &lengths);
        assert_eq!(q.sharing_captured, 0.0);
    }

    #[test]
    fn no_sharing_is_zero_not_nan() {
        let mk =
            |addr: u64| -> ThreadTrace { [MemRef::read(Address::new(addr))].into_iter().collect() };
        let prog = ProgramTrace::new("p", vec![mk(1), mk(2)]);
        let sharing = SharingAnalysis::measure(&prog);
        let lengths = thread_lengths(&prog);
        let map = crate::map::PlacementMap::from_clusters(vec![vec![0, 1]]).unwrap();
        let q = PlacementQuality::measure(&map, &sharing, &lengths);
        assert_eq!(q.sharing_captured, 0.0);
        assert_eq!(q.write_sharing_captured, 0.0);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn dimension_mismatch_panics() {
        let (_, sharing, _) = fixture();
        let map = crate::map::PlacementMap::from_clusters(vec![vec![0]]).unwrap();
        let _ = PlacementQuality::measure(&map, &sharing, &[1]);
    }
}
