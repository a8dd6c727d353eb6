//! Recorder composition: one `simulate_probed` run with every recording
//! on must agree with the plain engine and with each recording taken on
//! its own, for every protocol. Each recording reads engine state the
//! others do not touch, so turning them on together must change
//! nothing.

mod common;

use common::{
    arb_placement, arb_program, naive, simulate_attributed, simulate_observed, simulate_traced,
    simulate_with_traffic,
};
use placesim_analysis::SymMatrix;
use placesim_machine::{
    simulate, simulate_probed, ArchConfig, AttrCollector, AttributionConfig, EngineObs,
    EngineObsReport, EventKind, EventTrace, Protocol,
};
use placesim_placement::PlacementMap;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = ArchConfig> {
    (0u8..3, 0u8..3, 0u8..2).prop_map(|(protocol, geom, assoc)| {
        let (cache, line) = match geom {
            0 => (256, 32),
            1 => (512, 32),
            _ => (1024, 64),
        };
        let protocol = [Protocol::Wi, Protocol::Mesi, Protocol::Dragon][protocol as usize];
        let mut builder = ArchConfig::builder();
        builder
            .cache_size(cache)
            .line_size(line)
            .associativity(1 + u32::from(assoc))
            .protocol(protocol);
        builder.build().expect("valid random config")
    })
}

/// Small enough that long programs wrap the ring, so the comparison
/// covers overwrites too.
const CAPACITY: usize = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_recordings_compose(
        prog in arb_program(150),
        seed in 1u64..5000,
        config in arb_config(),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        let acfg = AttributionConfig::new(8, 4);
        let mut all = EngineObs {
            traffic: Some(SymMatrix::new(map.processor_count(), 0)),
            counters: Some(EngineObsReport::default()),
            timeline: Some(EventTrace::new(CAPACITY)),
            attribution: Some(AttrCollector::new(acfg)),
        };
        let stats = simulate_probed(&prog, &map, &config, &mut all).unwrap();
        prop_assert_eq!(&stats, &simulate(&prog, &map, &config).unwrap());

        let traffic = all.traffic.unwrap();
        let (_, traffic_only) = simulate_with_traffic(&prog, &map, &config).unwrap();
        prop_assert_eq!(&traffic, &traffic_only);
        let (_, oracle) = naive::simulate(&prog, &map, &config);
        prop_assert_eq!(&traffic, &oracle);

        let (_, counters_only) = simulate_observed(&prog, &map, &config).unwrap();
        prop_assert_eq!(all.counters.unwrap(), counters_only);

        let protocol = config.protocol().to_string();
        let threads = prog.thread_count();
        let (_, attr_only) = simulate_attributed(&prog, &map, &config, acfg).unwrap();
        prop_assert_eq!(
            all.attribution.unwrap().report_json(&protocol, threads, 10),
            attr_only.report_json(&protocol, threads, 10)
        );

        let timeline = all.timeline.unwrap();
        let (_, _, traced) = simulate_traced(&prog, &map, &config, CAPACITY).unwrap();
        for kind in EventKind::ALL {
            prop_assert_eq!(timeline.count(kind), traced.count(kind), "{:?}", kind);
        }
        prop_assert_eq!(timeline.total_recorded(), traced.total_recorded());
        prop_assert!(timeline == traced, "retained timeline windows differ");
    }
}

/// A recorder that asks for nothing runs the plain engine and stays
/// empty.
#[test]
fn idle_recorder_matches_plain_run() {
    let t0: ThreadTrace = (0..40)
        .map(|i| MemRef::write(Address::new(16 * (i % 5))))
        .collect();
    let t1: ThreadTrace = (0..40)
        .map(|i| MemRef::read(Address::new(16 * (i % 7))))
        .collect();
    let prog = ProgramTrace::new("idle", vec![t0, t1]);
    let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
    let config = ArchConfig::paper_default();
    let mut obs = EngineObs::default();
    let stats = simulate_probed(&prog, &map, &config, &mut obs).unwrap();
    assert_eq!(stats, simulate(&prog, &map, &config).unwrap());
    assert!(obs.traffic.is_none() && obs.counters.is_none());
    assert!(obs.timeline.is_none() && obs.attribution.is_none());
}
