//! The coherence-traffic probe (paper §4.2).
//!
//! To measure the *actual* sharing traffic between threads — as opposed
//! to the statically counted shared references — the paper simulates
//! "a system with one thread per processor and as many processors as the
//! number of threads in the application" and collects the coherence
//! traffic (invalidations plus invalidation misses) between processor
//! pairs, which with this placement is exactly the traffic between
//! *thread* pairs. The resulting matrix both quantifies how little of
//! the static sharing turns into interconnect operations (Table 4) and
//! feeds the best-possible [`CoherenceTraffic`] placement.
//!
//! [`CoherenceTraffic`]: placesim_placement::PlacementAlgorithm::CoherenceTraffic

use crate::config::ArchConfig;
use crate::engine::{simulate_probed, SimError};
use crate::obs::EngineObs;
use crate::stats::SimStats;
use placesim_analysis::SymMatrix;
use placesim_placement::PlacementMap;
use placesim_trace::ProgramTrace;

/// Result of a one-thread-per-processor coherence probe.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// Pairwise thread-to-thread coherence traffic (invalidations +
    /// invalidation misses).
    pub traffic: SymMatrix<u64>,
    /// Full statistics of the probe run.
    pub stats: SimStats,
}

impl ProbeResult {
    /// Total measured coherence traffic (sum over all thread pairs of the
    /// matrix, which equals invalidations + invalidation misses).
    pub fn total_traffic(&self) -> u64 {
        self.traffic.iter_pairs().map(|(_, _, v)| v).sum()
    }

    /// Total compulsory misses of the probe run.
    pub fn compulsory_misses(&self) -> u64 {
        self.stats.total_misses().compulsory
    }

    /// Compulsory misses plus coherence traffic, as a fraction of total
    /// references — the paper's "extremely low, 0.01% to 3.3%" figure.
    pub fn traffic_fraction(&self) -> f64 {
        let refs = self.stats.total_refs();
        if refs == 0 {
            0.0
        } else {
            (self.compulsory_misses() + self.total_traffic()) as f64 / refs as f64
        }
    }
}

/// Runs the probe: `prog` with one thread per processor.
///
/// # Errors
///
/// Returns [`SimError::TooManyProcessors`] if the program has more
/// threads than the directory supports (128).
pub fn probe_coherence(prog: &ProgramTrace, config: &ArchConfig) -> Result<ProbeResult, SimError> {
    let t = prog.thread_count();
    let clusters: Vec<Vec<usize>> = (0..t).map(|i| vec![i]).collect();
    let map = PlacementMap::from_clusters(clusters)
        .expect("singleton clusters are always a valid placement");
    let mut obs = EngineObs {
        traffic: Some(SymMatrix::new(t, 0)),
        ..EngineObs::default()
    };
    let stats = simulate_probed(prog, &map, config, &mut obs)?;
    let traffic = obs.traffic.expect("the recorder keeps its traffic matrix");
    Ok(ProbeResult { traffic, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_trace::{Address, MemRef, ThreadTrace};

    #[test]
    fn probe_attributes_traffic_to_thread_pairs() {
        // T0 and T2 ping-pong a line; T1 is a bystander.
        let mut t0 = ThreadTrace::new();
        for i in 0..4 {
            t0.push(MemRef::write(Address::new(0x1000)));
            for k in 0..60 {
                t0.push(MemRef::instr(Address::new(4 * (i * 60 + k))));
            }
        }
        let t1: ThreadTrace = (0..50)
            .map(|i| MemRef::read(Address::new(0x9000 + 32 * i)))
            .collect();
        let mut t2 = ThreadTrace::new();
        for i in 0..4 {
            t2.push(MemRef::write(Address::new(0x1000)));
            for k in 0..60 {
                t2.push(MemRef::instr(Address::new(0x4000 + 4 * (i * 60 + k))));
            }
        }
        let prog = ProgramTrace::new("pingpong", vec![t0, t1, t2]);
        let res = probe_coherence(&prog, &ArchConfig::paper_default()).unwrap();
        assert!(res.traffic.get(0, 2) > 0, "traffic {:?}", res.traffic);
        assert_eq!(res.traffic.get(0, 1), 0);
        assert_eq!(res.traffic.get(1, 2), 0);
        assert_eq!(res.total_traffic(), res.stats.coherence_traffic());
        assert!(res.traffic_fraction() > 0.0 && res.traffic_fraction() < 1.0);
        assert!(res.compulsory_misses() > 0);
    }

    #[test]
    fn sequential_sharing_produces_little_traffic() {
        // Both threads touch the same region, but each references it many
        // times in a row (sequential sharing): traffic per shared address
        // is bounded by the few ownership transfers, not the reference
        // count — the paper's central observation.
        let burst = |base: u64, prologue: usize| -> ThreadTrace {
            let mut t = ThreadTrace::new();
            // A prologue staggers the threads in time so each works
            // through the shared region in its own phase.
            for k in 0..prologue {
                t.push(MemRef::instr(Address::new(base + 4 * k as u64)));
            }
            for a in 0..8u64 {
                for _ in 0..100 {
                    t.push(MemRef::write(Address::new(0x1000 + 32 * a)));
                }
            }
            t
        };
        let prog = ProgramTrace::new("seq", vec![burst(0, 10), burst(0x10_0000, 4000)]);
        let res = probe_coherence(&prog, &ArchConfig::paper_default()).unwrap();
        let static_refs = 2 * 8 * 100u64; // every data ref hits a shared address
        assert!(
            res.total_traffic() * 10 < static_refs,
            "traffic {} should be well under static shared refs {}",
            res.total_traffic(),
            static_refs
        );
    }
}
