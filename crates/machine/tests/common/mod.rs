//! Helpers shared by the engine test suites (each suite uses a subset):
//! the random placement generator and single-recording wrappers around
//! `simulate_probed`.

#![allow(dead_code)]

use placesim_analysis::SymMatrix;
use placesim_machine::{
    simulate_probed, ArchConfig, AttrCollector, AttributionConfig, EngineObs, EngineObsReport,
    EventTrace, SimError, SimStats,
};
use placesim_placement::PlacementMap;
use placesim_trace::ProgramTrace;

/// Runs `prog` recording the processor-to-processor traffic matrix.
pub fn simulate_with_traffic(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
) -> Result<(SimStats, SymMatrix<u64>), SimError> {
    let mut obs = EngineObs {
        traffic: Some(SymMatrix::new(map.processor_count(), 0)),
        ..EngineObs::default()
    };
    let stats = simulate_probed(prog, map, config, &mut obs)?;
    Ok((stats, obs.traffic.expect("traffic was recorded")))
}

/// Runs `prog` recording the engine counters.
pub fn simulate_observed(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
) -> Result<(SimStats, EngineObsReport), SimError> {
    let mut obs = EngineObs {
        counters: Some(EngineObsReport::default()),
        ..EngineObs::default()
    };
    let stats = simulate_probed(prog, map, config, &mut obs)?;
    Ok((stats, obs.counters.expect("counters were recorded")))
}

/// Runs `prog` recording the engine counters and an event timeline of
/// `capacity` events.
pub fn simulate_traced(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
    capacity: usize,
) -> Result<(SimStats, EngineObsReport, EventTrace), SimError> {
    let mut obs = EngineObs {
        counters: Some(EngineObsReport::default()),
        timeline: Some(EventTrace::new(capacity)),
        ..EngineObs::default()
    };
    let stats = simulate_probed(prog, map, config, &mut obs)?;
    Ok((
        stats,
        obs.counters.expect("counters were recorded"),
        obs.timeline.expect("the timeline was recorded"),
    ))
}

/// Runs `prog` recording coherence attribution sized per `acfg`.
pub fn simulate_attributed(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
    acfg: AttributionConfig,
) -> Result<(SimStats, AttrCollector), SimError> {
    let mut obs = EngineObs {
        attribution: Some(AttrCollector::new(acfg)),
        ..EngineObs::default()
    };
    let stats = simulate_probed(prog, map, config, &mut obs)?;
    Ok((stats, obs.attribution.expect("attribution was recorded")))
}

/// Deals `t` threads round-robin from a seeded offset onto 1..=t
/// processors, so every processor runs a thread and multi-processor
/// placements see coherence traffic.
pub fn arb_placement(t: usize, seed: u64) -> PlacementMap {
    let p = 1 + (seed as usize % t.max(1));
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); p];
    for i in 0..t {
        clusters[(i + seed as usize / 7) % p].push(i);
    }
    PlacementMap::from_clusters(clusters).expect("valid clusters")
}
