//! Helpers shared by the engine test suites (each suite uses a subset):
//! the random program and placement generators, single-recording
//! wrappers around `simulate_probed`, and the naive machine model the
//! engine is checked against ([`naive`]).

#![allow(dead_code)]

pub mod naive;

use placesim_analysis::SymMatrix;
use placesim_machine::{
    simulate_probed, ArchConfig, AttrCollector, AttributionConfig, EngineObs, EngineObsReport,
    EventTrace, SimError, SimStats,
};
use placesim_placement::PlacementMap;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use proptest::prelude::*;

/// Random program of 1 to 5 threads, each of fewer than `max_len`
/// references over 64 overlapping 16-byte slots, so threads share lines
/// and provoke conflicts, invalidations, upgrades and updates.
pub fn arb_program(max_len: usize) -> impl Strategy<Value = ProgramTrace> {
    let r#ref = (0u8..3, 0u64..64);
    let thread = proptest::collection::vec(r#ref, 0..max_len);
    proptest::collection::vec(thread, 1..6).prop_map(|threads| {
        let traces: Vec<ThreadTrace> = threads
            .into_iter()
            .map(|refs| {
                refs.into_iter()
                    .map(|(kind, slot)| {
                        let addr = Address::new(slot * 16);
                        match kind {
                            0 => MemRef::instr(addr),
                            1 => MemRef::read(addr),
                            _ => MemRef::write(addr),
                        }
                    })
                    .collect()
            })
            .collect();
        ProgramTrace::new("prop", traces)
    })
}

/// Random program of 1 to 4 threads in 1 to 3 phases separated by
/// global barriers (every thread crosses the same number), so parks,
/// releases and waiting contexts are exercised.
pub fn arb_barrier_program() -> impl Strategy<Value = ProgramTrace> {
    let segment = proptest::collection::vec((0u8..3, 0u64..48), 0..30);
    (
        1usize..4,
        proptest::collection::vec(proptest::collection::vec(segment, 3), 1..5),
    )
        .prop_map(|(phases, threads)| {
            let traces: Vec<ThreadTrace> = threads
                .into_iter()
                .map(|segments| {
                    let mut t = ThreadTrace::new();
                    for (pi, seg) in segments.into_iter().take(phases).enumerate() {
                        for (kind, slot) in seg {
                            let addr = Address::new(0x100 + slot * 16);
                            t.push(match kind {
                                0 => MemRef::instr(addr),
                                1 => MemRef::read(addr),
                                _ => MemRef::write(addr),
                            });
                        }
                        if pi + 1 < phases {
                            t.push(MemRef::barrier(pi as u64));
                        }
                    }
                    t
                })
                .collect();
            ProgramTrace::new("barrier-prop", traces)
        })
}

/// Asserts that the engine and the naive model agree bit for bit on one
/// scenario: every [`SimStats`] counter of every processor, and the
/// coherence traffic matrix. Returns the engine's statistics.
pub fn assert_matches_oracle(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
) -> SimStats {
    let (stats, traffic) = simulate_with_traffic(prog, map, config).expect("engine");
    let (want, want_traffic) = naive::simulate(prog, map, config);
    assert_eq!(
        stats,
        want,
        "engine and naive model diverge under {} (p={}, threads={})",
        config.protocol(),
        map.processor_count(),
        prog.thread_count()
    );
    assert_eq!(traffic, want_traffic, "traffic matrices diverge");
    stats
}

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
