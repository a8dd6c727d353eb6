//! Differential tests: the engine's cached score mode must produce the
//! *identical* placement as fresh scoring, for every algorithm.
//!
//! The cached mode replaces O(|A|·|B|) cross-sum walks with O(1) lookups
//! of incrementally maintained aggregates, and the fresh mode's sorted
//! candidate list with an argmax scan for the best key below the last
//! one tried. Because the cached sums are the same exact `u64` values,
//! every score — and therefore every deterministic tie-break — is
//! bit-identical, and so is the final `PlacementMap`. These tests pin
//! that contract on randomized programs, uneven balance shapes, a greedy
//! trap the completability check must route around, and the real
//! 127-thread gauss analysis.

use placesim_analysis::{SharingAnalysis, SymMatrix};
use placesim_machine::{probe_coherence, ArchConfig};
use placesim_placement::engine::{cluster, EngineOptions, LoadConstraint};
use placesim_placement::{PlacementAlgorithm, PlacementInputs, ScoreMode, ShareRefsMetric};
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use placesim_workloads::{generate, spec, GenOptions};
use proptest::prelude::*;

/// A random small program: up to 12 threads, each touching a random
/// subset of 16 shared addresses and some private ones.
fn arb_program() -> impl Strategy<Value = ProgramTrace> {
    let thread = proptest::collection::vec((0u64..16, 0u8..3, 1u32..6), 1..24);
    proptest::collection::vec(thread, 2..12).prop_map(|threads| {
        let traces: Vec<ThreadTrace> = threads
            .into_iter()
            .enumerate()
            .map(|(tid, accesses)| {
                let mut t = ThreadTrace::new();
                for i in 0..(tid + 1) * 3 {
                    t.push(MemRef::instr(Address::new(4 * i as u64)));
                }
                for (slot, kind, reps) in accesses {
                    let addr = Address::new(0x1000 + slot * 8);
                    for _ in 0..reps {
                        let r = match kind {
                            0 => MemRef::read(addr),
                            1 => MemRef::write(addr),
                            _ => MemRef::read(Address::new(
                                0x10_0000 + tid as u64 * 0x1000 + slot * 8,
                            )),
                        };
                        t.push(r);
                    }
                }
                t
            })
            .collect();
        ProgramTrace::new("prop", traces)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm, every processor-count shape: cached == fresh.
    #[test]
    fn cached_placement_identical_to_fresh(
        prog in arb_program(),
        p_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let t = prog.thread_count();
        let p = 1 + ((t - 1) as f64 * p_frac) as usize;
        let sharing = SharingAnalysis::measure(&prog);
        let lengths = placesim_placement::thread_lengths(&prog);
        let mut traffic = SymMatrix::new(t, 0u64);
        if t >= 2 {
            traffic.set(0, 1, seed % 17);
        }
        let inputs = PlacementInputs::new(&sharing, &lengths)
            .with_seed(seed)
            .with_traffic(&traffic);

        for algo in PlacementAlgorithm::ALL {
            let cached = algo.place_with_mode(&inputs, p, ScoreMode::Cached).unwrap();
            let fresh = algo.place_with_mode(&inputs, p, ScoreMode::Fresh).unwrap();
            prop_assert_eq!(cached, fresh, "{} with p={} diverged", algo, p);
        }
    }

    /// Uneven cluster shapes (t not divisible by p) exercise the
    /// big-cluster accounting; +LB variants exercise the cached load
    /// sums. Randomized matrices drive them directly through the engine.
    #[test]
    fn engine_modes_agree_on_random_matrices(
        entries in proptest::collection::vec((0usize..9, 0usize..9, 0u64..50), 0..30),
        lengths in proptest::collection::vec(1u64..100, 9),
        p in 2usize..8,
    ) {
        let t = 9;
        let mut m = SymMatrix::new(t, 0u64);
        for (i, j, v) in entries {
            if i != j {
                m.add(i, j, v);
            }
        }
        let metric = ShareRefsMetric { refs: &m };
        for load in [None, Some(LoadConstraint { lengths: &lengths, tolerance: 0.10 })] {
            let run = |mode| {
                cluster(&metric, t, p, EngineOptions {
                    load,
                    score_mode: mode,
                    ..EngineOptions::default()
                }).unwrap()
            };
            prop_assert_eq!(
                run(ScoreMode::Cached),
                run(ScoreMode::Fresh),
                "p={} load={} diverged", p, load.is_some()
            );
        }
    }
}

/// The greedy-trap fixture from the engine's unit tests: after four
/// combines the best pair leads to a dead end, so both modes must reject
/// it at the completability check and take the same next-best pair. The
/// check fires before the combine, so neither mode undoes anything: a
/// budget of exactly t − p combines suffices.
#[test]
fn modes_agree_on_greedy_trap() {
    let mut m = SymMatrix::new(8, 0u64);
    for &(i, j, v) in &[(0, 1, 100), (1, 2, 90), (3, 4, 80), (4, 5, 70), (6, 7, 1)] {
        m.set(i, j, v);
    }
    let metric = ShareRefsMetric { refs: &m };
    let run = |mode| {
        cluster(
            &metric,
            8,
            2,
            EngineOptions {
                score_mode: mode,
                node_budget: 8 - 2,
                ..EngineOptions::default()
            },
        )
        .unwrap()
    };
    let cached = run(ScoreMode::Cached);
    assert_eq!(cached, run(ScoreMode::Fresh));
    let sizes: Vec<usize> = cached.iter().map(Vec::len).collect();
    assert_eq!(sizes, vec![4, 4], "the search reached the balanced shape");
}

/// Paper scale in thread count: the real 127-thread gauss sharing
/// analysis (at a small reference scale, so a debug build stays fast)
/// through all 15 algorithms on the paper's processor counts. At this
/// size most placements (every `+LB` one from p = 4 up) skip pairs at
/// the completability check, up to 68 in one placement, so the cached
/// scan's "largest key strictly below the last one tried" step runs on
/// real inputs, not just on the proptests' 12-thread programs.
#[test]
fn modes_agree_on_gauss_at_paper_thread_count() {
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
    let lengths = placesim_placement::thread_lengths(&prog);
    let probe = probe_coherence(&prog, &ArchConfig::paper_default()).expect("probe");
    let inputs = PlacementInputs::new(&sharing, &lengths)
        .with_seed(1994)
        .with_traffic(&probe.traffic);

    // Fresh scoring is O(t³) per placement, so spread the processor
    // counts over threads to keep an unoptimized build quick.
    std::thread::scope(|s| {
        for p in [2, 4, 8, 16] {
            let inputs = &inputs;
            s.spawn(move || {
                for algo in PlacementAlgorithm::ALL {
                    let cached = algo.place_with_mode(inputs, p, ScoreMode::Cached).unwrap();
                    let fresh = algo.place_with_mode(inputs, p, ScoreMode::Fresh).unwrap();
                    assert_eq!(cached, fresh, "{algo} with p={p} diverged");
                }
            });
        }
    });
}
