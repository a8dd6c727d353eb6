//! Property-based tests for the synthetic workload generator.

use placesim_analysis::SharingAnalysis;
use placesim_workloads::{
    gen_internals, generate, generate_with_access, reference, AppSpec, GenOptions, Granularity,
    SharingPattern, TargetStat,
};
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = SharingPattern> {
    prop_oneof![
        (0.05f64..0.9).prop_map(|wf| SharingPattern::UniformAllShare { write_fraction: wf }),
        (0.05f64..0.5).prop_map(|wf| SharingPattern::PartitionedReadShare { write_fraction: wf }),
        ((0.1f64..0.9), (0.0f64..0.9)).prop_map(|(wf, uf)| SharingPattern::Migratory {
            write_fraction: wf,
            uniform_fraction: uf,
        }),
        ((0.05f64..0.5), (1usize..3), (0.0f64..0.9)).prop_map(|(wf, reach, uf)| {
            SharingPattern::NeighborExchange {
                write_fraction: wf,
                reach,
                uniform_fraction: uf,
            }
        }),
        ((0.05f64..0.7), (1usize..4), (0.0f64..0.9)).prop_map(|(wf, partners, uf)| {
            SharingPattern::RandomComm {
                write_fraction: wf,
                partners,
                uniform_fraction: uf,
            }
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = AppSpec> {
    (
        2usize..12,         // threads
        5_000f64..40_000.0, // mean length
        0f64..120.0,        // length dev %
        10f64..95.0,        // shared %
        2f64..200.0,        // refs per shared addr
        0.2f64..0.45,       // data ratio
        arb_pattern(),
    )
        .prop_map(
            |(threads, mean, dev, shared, rpa, ratio, pattern)| AppSpec {
                name: "prop-app",
                granularity: Granularity::Medium,
                threads,
                thread_length: TargetStat::new(mean, dev),
                shared_percent: shared,
                refs_per_shared_addr: rpa,
                data_ratio: ratio,
                pattern,
                cache_kb: 64,
                phases: 1,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any spec generates a structurally valid program: right thread
    /// count, addresses confined to the defined regions, deterministic.
    #[test]
    fn generator_is_valid_for_any_spec(spec in arb_spec(), seed in 0u64..1000) {
        let opts = GenOptions { scale: 0.02, seed };
        let prog = generate(&spec, &opts);
        prop_assert_eq!(prog.thread_count(), spec.threads);
        prop_assert!(prog.total_refs() > 0);

        // Region discipline: instructions in the code window, data in
        // shared or private space.
        for (_, thread) in prog.iter() {
            for r in thread.iter() {
                let a = r.addr.raw();
                if r.kind.is_data() {
                    prop_assert!(
                        a >= gen_internals::SHARED_BASE,
                        "data ref below shared base: {a:#x}"
                    );
                } else {
                    prop_assert!(a < gen_internals::SHARED_BASE, "instr above code: {a:#x}");
                }
            }
        }

        // Determinism.
        prop_assert_eq!(generate(&spec, &opts), prog);
    }

    /// The generated shared-reference fraction tracks the spec target.
    #[test]
    fn shared_fraction_tracks_spec(spec in arb_spec(), seed in 0u64..100) {
        let opts = GenOptions { scale: 0.02, seed };
        let prog = generate(&spec, &opts);
        let mut shared = 0u64;
        let mut data = 0u64;
        for (_, thread) in prog.iter() {
            for r in thread.iter() {
                if r.kind.is_data() {
                    data += 1;
                    if r.addr.raw() < gen_internals::PRIVATE_BASE {
                        shared += 1;
                    }
                }
            }
        }
        // Emission-side fraction (region membership): tight tolerance.
        let frac = 100.0 * shared as f64 / data.max(1) as f64;
        prop_assert!(
            (frac - spec.shared_percent).abs() < 6.0,
            "emitted shared {frac:.1}% vs target {:.1}%",
            spec.shared_percent
        );
    }

    /// The analyzer agrees the generated programs actually share. This
    /// is guaranteed for the all-share pattern (every thread sweeps one
    /// pool); sparse patterns may legitimately degenerate to zero
    /// sharing at tiny slot counts.
    #[test]
    fn sharing_exists_between_some_pair(mut spec in arb_spec(), seed in 0u64..100) {
        spec.pattern = SharingPattern::UniformAllShare { write_fraction: 0.3 };
        // Pin locality so even the smallest sampled spec visits more
        // slots than the pool holds (guaranteeing overlap).
        spec.refs_per_shared_addr = 2.0;
        spec.shared_percent = spec.shared_percent.max(40.0);
        let opts = GenOptions { scale: 0.02, seed };
        let prog = generate(&spec, &opts);
        let sharing = SharingAnalysis::measure(&prog);
        prop_assert!(
            sharing.total_pairwise_shared_refs() > 0,
            "no sharing generated for {:?}",
            spec.pattern
        );
    }

    /// The fused front end — generate-with-profile plus the access-list
    /// analyzer — must be bit-identical to the retained reference
    /// paths: the serial emitter followed by the full-profile analyzer.
    /// The retained paths are the references for this differential
    /// test; this is the front end's end-to-end equivalence guarantee.
    #[test]
    fn fused_front_end_matches_reference(
        mut spec in arb_spec(),
        seed in 0u64..1000,
        phases in 1usize..6,
    ) {
        spec.phases = phases;
        let opts = GenOptions { scale: 0.02, seed };
        let (prog, access) = generate_with_access(&spec, &opts);
        prop_assert_eq!(&prog, &reference::generate(&spec, &opts));
        let fused = SharingAnalysis::measure_access(&access);
        prop_assert_eq!(&fused, &SharingAnalysis::measure_reference(&prog));
        prop_assert_eq!(&fused, &SharingAnalysis::measure(&prog));
    }

    /// Scale changes length but not structure: the shared fraction is
    /// scale-invariant.
    #[test]
    fn shared_fraction_is_scale_invariant(spec in arb_spec()) {
        let small = generate(&spec, &GenOptions { scale: 0.01, seed: 3 });
        let large = generate(&spec, &GenOptions { scale: 0.03, seed: 3 });
        let frac = |prog: &placesim_trace::ProgramTrace| {
            let mut shared = 0u64;
            let mut data = 0u64;
            for (_, t) in prog.iter() {
                for r in t.iter() {
                    if r.kind.is_data() {
                        data += 1;
                        if r.addr.raw() < gen_internals::PRIVATE_BASE {
                            shared += 1;
                        }
                    }
                }
            }
            shared as f64 / data.max(1) as f64
        };
        prop_assert!((frac(&small) - frac(&large)).abs() < 0.05);
        prop_assert!(large.total_instrs() > small.total_instrs());
    }
}
