//! Coherence-attribution conservation and differential suite.
//!
//! Three families of guarantees, over randomized programs, placements
//! and geometries:
//!
//! * **Observer transparency** — an attributed `simulate_probed` run
//!   returns [`SimStats`] bit-identical to [`simulate`] for every protocol:
//!   attribution never perturbs the machine.
//! * **Conservation** — the collector's totals reconcile exactly with
//!   the statistics: attributed invalidations ≡ `total_invalidations`,
//!   attributed updates ≡ `total_updates`, attributed coherence misses
//!   ≡ `total_misses().invalidation`; and the thread-pair matrix plus
//!   the unattributed remainder sums back to the event total.
//! * **Sketch fidelity** — the Misra-Gries fallback keeps every heavy
//!   hitter and honors its declared error bound against an exact run of
//!   the same workload.

mod common;

use common::{arb_placement, arb_program, simulate_attributed};
use placesim_machine::{simulate, ArchConfig, AttrKind, AttributionConfig, Protocol};
use placesim_placement::PlacementMap;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use proptest::prelude::*;

/// Randomized geometry at associativity 1 and 2, per protocol.
fn arb_config(protocol: Protocol) -> impl Strategy<Value = ArchConfig> {
    (0u8..3, 0u8..2, 0u64..3).prop_map(move |(geom, assoc, switch)| {
        let (cache, line) = match geom {
            0 => (256, 32),
            1 => (512, 32),
            _ => (1024, 64),
        };
        let mut builder = ArchConfig::builder();
        builder
            .cache_size(cache)
            .line_size(line)
            .associativity(1 + u32::from(assoc))
            .context_switch(1 + switch * 5)
            .protocol(protocol);
        builder.build().expect("valid random config")
    })
}

/// One scenario's full conservation check for a protocol: transparency,
/// totals reconciliation, pair-matrix closure and report validity.
fn assert_attribution_conserves(prog: &ProgramTrace, map: &PlacementMap, config: &ArchConfig) {
    let protocol = config.protocol();
    let plain = simulate(prog, map, config).expect("plain simulation");
    let (stats, attr) = simulate_attributed(prog, map, config, AttributionConfig::default())
        .expect("attributed simulation");
    assert_eq!(
        plain, stats,
        "{protocol}: attribution perturbed the simulation"
    );

    assert_eq!(
        attr.total(AttrKind::Invalidation),
        stats.total_invalidations(),
        "{protocol}: attributed invalidations diverge from SimStats"
    );
    assert_eq!(
        attr.total(AttrKind::Update),
        stats.total_updates(),
        "{protocol}: attributed updates diverge from SimStats"
    );
    assert_eq!(
        attr.total(AttrKind::CoherenceMiss),
        stats.total_misses().invalidation,
        "{protocol}: attributed coherence misses diverge from SimStats"
    );

    let pair_sum: u64 = attr.pair_counts().iter().map(|&(_, _, n)| n).sum();
    assert_eq!(
        pair_sum + attr.unattributed(),
        attr.total_events(),
        "{protocol}: thread-pair matrix does not close"
    );

    // Exact mode (the default limit dwarfs these programs): per-address
    // counts are complete, so they sum back to the event total too.
    assert!(!attr.is_sketch(), "{protocol}: tiny program forced sketch");
    assert_eq!(attr.error_bound(), 0, "{protocol}: exact mode has error");
    let addr_sum: u64 = attr
        .top_addresses(usize::MAX)
        .iter()
        .map(|&(_, n, _)| n)
        .sum();
    assert_eq!(
        addr_sum,
        attr.total_events(),
        "{protocol}: per-address counts do not close"
    );

    // The rendered report must satisfy the strict parser's invariants.
    let report = attr.report_json(&protocol.to_string(), prog.thread_count(), 32);
    let parsed = placesim_obs::attribution::parse(&report).expect("report parses");
    assert_eq!(parsed.events(), attr.total_events());
    assert_eq!(parsed.protocol, protocol.to_string());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn attribution_conserves_wi(
        prog in arb_program(150),
        seed in 1u64..5000,
        config in arb_config(Protocol::Wi),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        assert_attribution_conserves(&prog, &map, &config);
    }

    #[test]
    fn attribution_conserves_mesi(
        prog in arb_program(150),
        seed in 1u64..5000,
        config in arb_config(Protocol::Mesi),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        assert_attribution_conserves(&prog, &map, &config);
    }

    #[test]
    fn attribution_conserves_dragon(
        prog in arb_program(150),
        seed in 1u64..5000,
        config in arb_config(Protocol::Dragon),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        assert_attribution_conserves(&prog, &map, &config);
    }
}

/// A deliberately skewed workload: two threads ping-pong writes on a
/// handful of hot lines while a long tail of lines is each written once
/// after being read remotely — classic heavy-hitter shape.
fn skewed_program(tail: u64) -> (ProgramTrace, PlacementMap) {
    let hot = [0u64, 0x40, 0x80];
    let mut t0 = ThreadTrace::new();
    let mut t1 = ThreadTrace::new();
    for i in 0..400u64 {
        let line = hot[(i % 3) as usize];
        t0.push(MemRef::write(Address::new(line)));
        t1.push(MemRef::write(Address::new(line)));
    }
    for i in 0..tail {
        let addr = Address::new(0x10_000 + i * 0x40);
        t0.push(MemRef::read(addr));
        t1.push(MemRef::write(addr));
    }
    let prog = ProgramTrace::new("skewed", vec![t0, t1]);
    let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
    (prog, map)
}

/// The sketch keeps every heavy hitter, and its per-address undercount
/// stays within the declared Misra-Gries error bound.
#[test]
fn sketch_agrees_with_exact_on_heavy_hitters() {
    let (prog, map) = skewed_program(600);
    let config = ArchConfig::paper_default();

    let (_, exact) =
        simulate_attributed(&prog, &map, &config, AttributionConfig::default()).expect("exact run");
    assert!(!exact.is_sketch());

    let (_, sketch) =
        simulate_attributed(&prog, &map, &config, AttributionConfig::new(1, 16)).expect("sketch");
    assert!(sketch.is_sketch(), "tiny exact_limit must force the sketch");
    assert!(sketch.error_bound() > 0);
    assert_eq!(
        sketch.total_events(),
        exact.total_events(),
        "totals are exact regardless of mode"
    );

    let tracked = sketch.top_addresses(usize::MAX);
    let bound = sketch.error_bound();
    for &(line, true_count, _) in &exact.top_addresses(3) {
        let sketched = tracked.iter().find(|&&(l, _, _)| l == line);
        assert!(
            true_count <= bound || sketched.is_some(),
            "heavy hitter {line:#x} (count {true_count}) dropped by sketch (bound {bound})"
        );
        if let Some(&(_, approx, _)) = sketched {
            assert!(approx <= true_count, "sketch overcounts {line:#x}");
            assert!(
                true_count - approx <= bound,
                "sketch undercounts {line:#x} beyond its bound: {approx} vs {true_count}"
            );
        }
    }
    assert!(
        tracked.len() <= 16,
        "sketch exceeded its configured capacity"
    );
}

/// Attribution accounting survives a collector merge the way a sweep
/// aggregates per-cell collectors: totals add, reports stay valid.
#[test]
fn merged_collectors_report_validates() {
    let (prog, map) = skewed_program(50);
    let config = ArchConfig::paper_default();
    let acfg = AttributionConfig::default();
    let (_, mut a) = simulate_attributed(&prog, &map, &config, acfg).expect("run a");
    let (_, b) = simulate_attributed(&prog, &map, &config, acfg).expect("run b");
    let single_events = a.total_events();
    a.merge(b);
    assert_eq!(a.total_events(), 2 * single_events);
    let report = a.report_json("wi", prog.thread_count(), 16);
    placesim_obs::attribution::validate(&report).expect("merged report validates");
}

/// The attribution event order is pinned. A Misra-Gries sketch far
/// smaller than the key count makes the report depend on the order in
/// which coherence events arrive, not just on their totals. The real
/// 16-thread water trace on 4 processors, one run per protocol, must
/// render the same report bytes as the per-event engine it replaced,
/// whose FNV-1a digests are recorded here.
#[test]
fn sketched_report_bytes_are_pinned() {
    use placesim_trace::hash::fnv1a64;
    use placesim_workloads::{generate, spec, GenOptions};

    let prog = generate(
        &spec("water").expect("known app"),
        &GenOptions {
            scale: 0.002,
            seed: 1994,
        },
    );
    let t = prog.thread_count();
    let clusters = (0..4).map(|k| (k..t).step_by(4).collect()).collect();
    let map = PlacementMap::from_clusters(clusters).unwrap();
    for (protocol, want) in [
        (Protocol::Wi, 0x9717_1d91_17f3_bd89),
        (Protocol::Mesi, 0x2e3d_a5c9_ebfb_fb83),
        (Protocol::Dragon, 0x196a_8b8c_1d01_2a7f),
    ] {
        let config = ArchConfig::builder().protocol(protocol).build().unwrap();
        let (_, attr) = simulate_attributed(&prog, &map, &config, AttributionConfig::new(1, 8))
            .expect("attributed simulation");
        assert!(
            attr.is_sketch(),
            "{protocol}: capacity must force the sketch"
        );
        assert!(
            attr.top_addresses(usize::MAX).len() <= 8 && attr.error_bound() > 0,
            "{protocol}: sketch must have dropped keys"
        );
        let report = attr.report_json(&protocol.to_string(), t, 8);
        assert_eq!(
            fnv1a64(report.as_bytes()),
            want,
            "{protocol}: report bytes changed (digest {:#018x})",
            fnv1a64(report.as_bytes())
        );
    }
}
