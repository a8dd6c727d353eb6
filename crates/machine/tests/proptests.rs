//! Property-based tests: simulator conservation laws over random
//! programs and placements.

mod common;

use common::{arb_placement, arb_program, simulate_with_traffic};
use placesim_machine::{simulate, ArchConfig};
use placesim_placement::PlacementMap;
use proptest::prelude::*;
use std::collections::HashSet;

fn tiny_config() -> ArchConfig {
    ArchConfig::builder()
        .cache_size(256)
        .line_size(32)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conservation_laws(prog in arb_program(120), seed in 1u64..5000) {
        let map = arb_placement(prog.thread_count(), seed);
        let stats = simulate(&prog, &map, &tiny_config()).unwrap();

        // Reference conservation: every trace reference executes once.
        prop_assert_eq!(stats.total_refs(), prog.total_refs());

        for (pi, p) in stats.per_proc().iter().enumerate() {
            // Cycle conservation.
            prop_assert_eq!(
                p.accounted_cycles(), p.finish_time,
                "proc {}: busy {} switch {} idle {} finish {}",
                pi, p.busy, p.switching, p.idle, p.finish_time
            );
            // Hits + misses = refs; busy = refs (one cycle per reference).
            prop_assert_eq!(p.hits + p.misses.total(), p.refs());
            prop_assert_eq!(p.busy, p.refs());
            // Invalidation misses need a prior received invalidation.
            prop_assert!(p.misses.invalidation <= p.invalidations_received);
        }

        // Invalidations sent = invalidations received, globally.
        let sent: u64 = stats.per_proc().iter().map(|p| p.invalidations_sent).sum();
        let recv: u64 = stats.per_proc().iter().map(|p| p.invalidations_received).sum();
        prop_assert_eq!(sent, recv);
    }

    #[test]
    fn compulsory_equals_distinct_lines_per_processor(
        prog in arb_program(120),
        seed in 1u64..5000,
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        let config = tiny_config();
        let stats = simulate(&prog, &map, &config).unwrap();

        for (proc, cluster) in map.iter() {
            let mut lines: HashSet<u64> = HashSet::new();
            for &tid in cluster {
                for r in prog.thread(tid).iter() {
                    lines.insert(r.addr.line(config.line_size()).raw());
                }
            }
            prop_assert_eq!(
                stats.per_proc()[proc.index()].misses.compulsory,
                lines.len() as u64,
                "processor {} compulsory misses must equal its distinct lines",
                proc
            );
        }
    }

    #[test]
    fn determinism(prog in arb_program(120), seed in 1u64..5000) {
        let map = arb_placement(prog.thread_count(), seed);
        let a = simulate_with_traffic(&prog, &map, &tiny_config()).unwrap();
        let b = simulate_with_traffic(&prog, &map, &tiny_config()).unwrap();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    #[test]
    fn infinite_cache_has_no_conflicts(prog in arb_program(120), seed in 1u64..5000) {
        let map = arb_placement(prog.thread_count(), seed);
        let stats = simulate(&prog, &map, &ArchConfig::infinite_cache()).unwrap();
        prop_assert_eq!(stats.total_misses().conflicts(), 0);
    }

    #[test]
    fn traffic_matrix_totals_match_stats(prog in arb_program(120), seed in 1u64..5000) {
        let map = arb_placement(prog.thread_count(), seed);
        let (stats, traffic) = simulate_with_traffic(&prog, &map, &tiny_config()).unwrap();
        let matrix_total: u64 = traffic.iter_pairs().map(|(_, _, v)| v).sum();
        prop_assert_eq!(matrix_total, stats.coherence_traffic());
    }

    #[test]
    fn single_context_never_switches(prog in arb_program(120)) {
        // All threads on distinct processors, one context each: switching
        // still occurs on misses (pipeline drain), but idle time must then
        // cover the full remaining latency.
        let t = prog.thread_count();
        let map = PlacementMap::from_clusters((0..t).map(|i| vec![i]).collect()).unwrap();
        let config = tiny_config();
        let stats = simulate(&prog, &map, &config).unwrap();
        for p in stats.per_proc() {
            let misses = p.misses.total();
            // Every miss drains the pipeline, except a miss on the
            // thread's final reference (the processor is then finished
            // and the drain is not charged).
            prop_assert!(p.switching <= misses * config.context_switch());
            prop_assert_eq!(p.switching % config.context_switch(), 0);
            // Each miss idles for latency - switch (the last miss of a
            // thread pays neither if the thread is done).
            prop_assert!(
                p.idle <= misses * (config.memory_latency() - config.context_switch())
            );
        }
    }
}

/// Programs with equal barrier counts per thread: all conservation laws
/// must hold through barrier waits and releases.
mod barrier_props {
    use super::*;
    use common::arb_barrier_program;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn conservation_with_barriers(prog in arb_barrier_program(), seed in 1u64..3000) {
            let map = arb_placement(prog.thread_count(), seed);
            let config = ArchConfig::builder()
                .cache_size(512)
                .line_size(32)
                .build()
                .unwrap();
            let stats = simulate(&prog, &map, &config).unwrap();
            prop_assert_eq!(stats.total_refs(), prog.total_refs());
            for (pi, p) in stats.per_proc().iter().enumerate() {
                prop_assert_eq!(
                    p.accounted_cycles(), p.finish_time,
                    "proc {}: busy {} switch {} idle {} finish {}",
                    pi, p.busy, p.switching, p.idle, p.finish_time
                );
                prop_assert_eq!(p.busy, p.refs());
            }
            // Barrier ops across processors = threads x (phases - 1).
            let barrier_ops: u64 = stats.per_proc().iter().map(|p| p.barrier_ops).sum();
            let expected: u64 = prog.threads().iter().map(|t| t.barrier_len()).sum();
            prop_assert_eq!(barrier_ops, expected);
        }

        #[test]
        fn barriers_are_deterministic(prog in arb_barrier_program(), seed in 1u64..3000) {
            let map = arb_placement(prog.thread_count(), seed);
            let config = tiny_config();
            let a = simulate(&prog, &map, &config).unwrap();
            let b = simulate(&prog, &map, &config).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}

/// Instrumented runs: the observation layer must never perturb the
/// simulation, and its recorded distributions must obey the same
/// conservation laws as the stats they describe. When the crate is
/// built with `--features audit`, every run here also executes the
/// internal post-drain auditor.
mod observed_props {
    use super::*;
    use common::simulate_observed;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn observation_never_perturbs(prog in arb_program(120), seed in 1u64..5000) {
            let map = arb_placement(prog.thread_count(), seed);
            let config = tiny_config();
            let plain = simulate(&prog, &map, &config).unwrap();
            let (stats, report) = simulate_observed(&prog, &map, &config).unwrap();
            prop_assert_eq!(&stats, &plain);

            // The report's own conservation laws. Hit runs count plain
            // hits; upgrades are accounted as stat hits outside the runs.
            let upgrades: u64 = stats.per_proc().iter().map(|p| p.upgrades).sum();
            prop_assert_eq!(report.hit_run_hits.sum() + upgrades, stats.total_hits());
            // Read fills never invalidate, so every sent invalidation
            // appears in the write-transaction fan-out.
            prop_assert_eq!(
                report.invalidation_fanout.sum(),
                stats.total_invalidations()
            );
            // Switch stalls recorded = drain cycles charged.
            let switching: u64 = stats.per_proc().iter().map(|p| p.switching).sum();
            prop_assert_eq!(report.switch_stall_cycles, switching);
            // Queue depth is bounded by the machine size and at least
            // 1 at every pop.
            if let Some(max) = report.queue_depth.max() {
                prop_assert!(max <= map.processor_count() as u64);
                prop_assert!(report.queue_depth.min() >= Some(1));
            }
        }
    }
}

/// The engine and the naive model, random traces and placements: the
/// conservation laws the auditor enforces internally, asserted
/// externally against each one's output (and, with `--features audit`,
/// re-checked by the auditor inside every engine run).
mod engine_law_props {
    use super::*;
    use common::naive;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn laws_hold_in_both_engines(prog in arb_program(120), seed in 1u64..5000) {
            let map = arb_placement(prog.thread_count(), seed);
            let config = tiny_config();
            for stats in [
                simulate(&prog, &map, &config).unwrap(),
                naive::simulate(&prog, &map, &config).0,
            ] {
                prop_assert_eq!(stats.total_refs(), prog.total_refs());
                let sent: u64 =
                    stats.per_proc().iter().map(|p| p.invalidations_sent).sum();
                let received: u64 =
                    stats.per_proc().iter().map(|p| p.invalidations_received).sum();
                prop_assert_eq!(sent, received);
                for p in stats.per_proc() {
                    prop_assert_eq!(p.accounted_cycles(), p.finish_time);
                    prop_assert_eq!(p.hits + p.misses.total() + p.barrier_ops, p.refs());
                }
            }
        }
    }
}
