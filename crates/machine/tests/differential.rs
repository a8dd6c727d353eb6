//! Differential tests: the batched hit-run engine must be bit-for-bit
//! equivalent to the naive machine model in `common/naive.rs` —
//! identical [`placesim_machine::SimStats`] (every counter, every
//! processor) and identical coherence-traffic matrices — over randomized
//! programs, placements and machine configurations.
//!
//! This is the safety net for the hot path's batching: the naive model
//! executes one reference per step and shares no cache, directory or
//! scheduling code with the engine, so a fault in either shows up here.

mod common;

use common::{arb_barrier_program, arb_placement, arb_program, assert_matches_oracle};
use placesim_machine::ArchConfig;
use placesim_placement::PlacementMap;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use proptest::prelude::*;

/// Randomized machine: cache geometry, latencies, channel occupancy and
/// the upgrade-stall policy all vary, so lookahead catch-ups are probed
/// under many event interleavings.
fn arb_config() -> impl Strategy<Value = ArchConfig> {
    (0u8..4, 0u8..2, 0u64..4, 0u64..3, 0u8..2).prop_map(|(geom, assoc, switch, occ, stalls)| {
        let (cache, line) = match geom {
            0 => (256, 32),
            1 => (512, 32),
            2 => (1024, 64),
            _ => (4096, 64),
        };
        ArchConfig::builder()
            .cache_size(cache)
            .line_size(line)
            .associativity(1 << (assoc * 2)) // 1- or 4-way
            .context_switch(1 + switch * 5) // 1, 6, 11, 16
            .memory_latency(20 + occ * 30)
            .memory_occupancy(occ * 7) // 0 = contention-free
            .upgrade_stalls(stalls == 1)
            .build()
            .expect("valid random config")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engines_agree_on_random_programs(
        prog in arb_program(150),
        seed in 1u64..5000,
        config in arb_config(),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        assert_matches_oracle(&prog, &map, &config);
    }

    #[test]
    fn engines_agree_on_barrier_programs(
        prog in arb_barrier_program(),
        seed in 1u64..5000,
        config in arb_config(),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        assert_matches_oracle(&prog, &map, &config);
    }

    #[test]
    fn engines_agree_on_single_processor(prog in arb_program(150), config in arb_config()) {
        // p = 1: the lone pending processor runs its hits in one
        // mutating pass without scanning, the case the fast path
        // optimizes most.
        let t = prog.thread_count();
        let map = PlacementMap::from_clusters(vec![(0..t).collect()]).unwrap();
        assert_matches_oracle(&prog, &map, &config);
    }

    #[test]
    fn engines_agree_on_all_distinct_processors(prog in arb_program(150), config in arb_config()) {
        // One thread per processor: lockstep events, every processor
        // holding a lookahead at once, catch-ups at every remote write.
        let t = prog.thread_count();
        let map = PlacementMap::from_clusters((0..t).map(|i| vec![i]).collect()).unwrap();
        assert_matches_oracle(&prog, &map, &config);
    }
}

/// The paper-default machine on a fixed hand-written scenario, so the
/// differential does not rest on random generation alone.
#[test]
fn engines_agree_on_paper_default_machine() {
    let t0: ThreadTrace = (0..400)
        .map(|i| MemRef::instr(Address::new(4 * i)))
        .collect();
    let t1: ThreadTrace = (0..300)
        .map(|i| {
            if i % 7 == 0 {
                MemRef::write(Address::new(64 * (i % 13)))
            } else {
                MemRef::read(Address::new(64 * (i % 29)))
            }
        })
        .collect();
    let t2: ThreadTrace = (0..200)
        .map(|i| MemRef::read(Address::new(64 * (i % 13))))
        .collect();
    let prog = ProgramTrace::new("fixed", vec![t0, t1, t2]);
    for clusters in [
        vec![vec![0, 1, 2]],
        vec![vec![0, 1], vec![2]],
        vec![vec![0], vec![1], vec![2]],
    ] {
        let map = PlacementMap::from_clusters(clusters).unwrap();
        assert_matches_oracle(&prog, &map, &ArchConfig::paper_default());
    }
}

/// Paper scale in machine size: the real 127-thread gauss and 16-thread
/// water traces (at a small reference scale, so a debug build stays
/// fast) on the paper's processor counts and on the coherence probe's
/// one-thread-per-processor map, under every protocol, direct-mapped
/// and 4-way.
///
/// The proptests above stop at 5 threads over 64 lines. Here up to 127
/// processors each hold long lookahead runs at once, and remote
/// invalidations, downgrades and updates land in the middle of them, so
/// the catch-up's partial commits run on real sharing patterns.
#[test]
fn engines_agree_on_paper_scale_suite_traces() {
    use placesim_machine::Protocol;
    use placesim_workloads::{generate, spec, GenOptions};

    for (app, scale) in [("gauss", 0.005), ("water", 0.01)] {
        let prog = generate(
            &spec(app).expect("known app"),
            &GenOptions { scale, seed: 1994 },
        );
        let t = prog.thread_count();
        let mut maps: Vec<PlacementMap> = [2, 4, 8, 16]
            .into_iter()
            .map(|p| {
                let clusters = (0..p).map(|k| (k..t).step_by(p).collect()).collect();
                PlacementMap::from_clusters(clusters).expect("round-robin placement")
            })
            .collect();
        maps.push(PlacementMap::from_clusters((0..t).map(|i| vec![i]).collect()).unwrap());
        for map in &maps {
            for protocol in Protocol::ALL {
                for assoc in [1, 4] {
                    let config = ArchConfig::builder()
                        .protocol(protocol)
                        .associativity(assoc)
                        .build()
                        .expect("valid config");
                    assert_matches_oracle(&prog, map, &config);
                }
            }
        }
    }
}
