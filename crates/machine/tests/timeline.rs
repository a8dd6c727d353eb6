//! Timeline tracing properties: traced runs are bit-identical to
//! untraced ones, and the event counts reconcile exactly with the aggregate statistics — the same
//! conservation discipline the invariant auditor enforces.

mod common;

use common::{arb_placement, simulate_traced};
use placesim_machine::{simulate, ArchConfig};
use placesim_placement::PlacementMap;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use proptest::prelude::*;

/// Random program over a small address universe to provoke sharing and
/// conflicts (mirrors `proptests.rs`).
fn arb_program() -> impl Strategy<Value = ProgramTrace> {
    let r#ref = (0u8..3, 0u64..64);
    let thread = proptest::collection::vec(r#ref, 0..120);
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

fn tiny_config() -> ArchConfig {
    ArchConfig::builder()
        .cache_size(256)
        .line_size(32)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tracing must never perturb the simulation, in any build.
    #[test]
    fn tracing_never_perturbs(prog in arb_program(), seed in 1u64..5000) {
        let map = arb_placement(prog.thread_count(), seed);
        let plain = simulate(&prog, &map, &tiny_config()).unwrap();
        let (traced, _, _) = simulate_traced(&prog, &map, &tiny_config(), 1 << 16).unwrap();
        prop_assert_eq!(plain, traced);
    }
}

mod traced_props {
    use super::*;
    use placesim_machine::EventKind;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every timeline count reconciles exactly with the aggregate
        /// statistics: misses, fills, invalidations, switches and
        /// directory transactions are each counted once per event.
        #[test]
        fn event_counts_reconcile_with_stats(prog in arb_program(), seed in 1u64..5000) {
            let map = arb_placement(prog.thread_count(), seed);
            let (stats, report, trace) =
                simulate_traced(&prog, &map, &tiny_config(), 1 << 16).unwrap();
            // Generous capacity: nothing may have been overwritten, so
            // the retained window equals the full event stream.
            prop_assert_eq!(trace.dropped(), 0);

            let misses = stats.total_misses().total();
            let upgrades: u64 = stats.per_proc().iter().map(|p| p.upgrades).sum();
            let inv_sent: u64 = stats.per_proc().iter().map(|p| p.invalidations_sent).sum();
            let inv_recv: u64 =
                stats.per_proc().iter().map(|p| p.invalidations_received).sum();

            prop_assert_eq!(trace.count(EventKind::MissIssue), misses);
            prop_assert_eq!(trace.count(EventKind::MissFill), misses);
            prop_assert_eq!(trace.count(EventKind::InvalidationSend), inv_sent);
            prop_assert_eq!(trace.count(EventKind::InvalidationReceive), inv_recv);
            prop_assert_eq!(
                trace.count(EventKind::ContextSwitch),
                report.context_switches
            );
            // One directory transaction per miss fill and per upgrade.
            prop_assert_eq!(
                trace.count(EventKind::DirectoryTransition),
                misses + upgrades
            );

            // Run-slice hit payloads sum to the hits the histogram saw
            // (zero-hit dispatches record no slice and contribute 0).
            let slice_hits: u64 = trace
                .iter()
                .filter(|e| e.kind == EventKind::RunSlice)
                .map(|e| e.detail)
                .sum();
            prop_assert_eq!(slice_hits, report.hit_run_hits.sum());

            // Miss-issue payloads carry the paper's taxonomy: per-kind
            // event counts match the classified breakdown.
            let m = stats.total_misses();
            for (idx, expect) in [
                (0u64, m.compulsory),
                (1, m.intra_thread_conflict),
                (2, m.inter_thread_conflict),
                (3, m.invalidation),
            ] {
                let got = trace
                    .iter()
                    .filter(|e| e.kind == EventKind::MissIssue && e.detail == idx)
                    .count() as u64;
                prop_assert_eq!(got, expect, "miss kind {}", idx);
            }
        }

        /// Dragon write-update runs emit one `UpdateSend` per update a
        /// writer pushes and one `UpdateReceive` per sharer refreshed,
        /// reconciling exactly with the update-traffic statistics (the
        /// timeline gap this suite previously left open).
        #[test]
        fn dragon_update_events_reconcile_with_stats(
            prog in arb_program(),
            seed in 1u64..5000,
        ) {
            let map = arb_placement(prog.thread_count(), seed);
            let config = ArchConfig::builder()
                .cache_size(256)
                .line_size(32)
                .protocol(placesim_machine::Protocol::Dragon)
                .build()
                .unwrap();
            let (stats, _, trace) = simulate_traced(&prog, &map, &config, 1 << 16).unwrap();
            prop_assert_eq!(trace.dropped(), 0);

            let upd_sent: u64 = stats.per_proc().iter().map(|p| p.updates_sent).sum();
            let upd_recv: u64 = stats.per_proc().iter().map(|p| p.updates_received).sum();
            prop_assert_eq!(trace.count(EventKind::UpdateSend), upd_sent);
            prop_assert_eq!(trace.count(EventKind::UpdateReceive), upd_recv);
            // Dragon never invalidates: the update kinds fully replace
            // the invalidation kinds on this protocol's timeline.
            prop_assert_eq!(trace.count(EventKind::InvalidationSend), 0);
            prop_assert_eq!(trace.count(EventKind::InvalidationReceive), 0);
        }

        /// A tiny ring drops events but the per-kind counters stay
        /// exact, so reconciliation still holds.
        #[test]
        fn ring_overflow_keeps_counts_exact(prog in arb_program(), seed in 1u64..2000) {
            let map = arb_placement(prog.thread_count(), seed);
            let (stats, _, trace) = simulate_traced(&prog, &map, &tiny_config(), 8).unwrap();
            prop_assert!(trace.len() <= 8);
            prop_assert_eq!(
                trace.count(EventKind::MissIssue),
                stats.total_misses().total()
            );
            prop_assert_eq!(
                trace.total_recorded(),
                trace.dropped() + trace.len() as u64
            );
        }
    }

    /// A concrete producer-consumer workload yields sharing runs whose
    /// tenants alternate, and the Chrome export is well-formed JSON.
    #[test]
    fn sharing_runs_and_chrome_export_from_real_run() {
        // T0 and T1 ping-pong writes on one line, with spacers so the
        // tenures are long; line 0x2000 stays private to T0.
        let mut t0 = ThreadTrace::new();
        let mut t1 = ThreadTrace::new();
        for round in 0..4u64 {
            t0.push(MemRef::write(Address::new(0x1000)));
            t0.push(MemRef::write(Address::new(0x2000)));
            for i in 0..40 {
                t0.push(MemRef::instr(Address::new(4 * (round * 40 + i))));
                t1.push(MemRef::instr(Address::new(0x4000 + 4 * (round * 40 + i))));
            }
            t1.push(MemRef::write(Address::new(0x1000)));
        }
        let prog = ProgramTrace::new("pingpong", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let big = ArchConfig::builder().cache_size(1 << 20).build().unwrap();
        let (stats, _, trace) = simulate_traced(&prog, &map, &big, 1 << 16).unwrap();
        assert!(stats.total_misses().invalidation > 0);

        let runs = trace.sharing_runs();
        assert!(!runs.is_empty());
        // Only the ping-ponged line is shared; the private line and the
        // disjoint instruction lines produce no runs.
        let shared_line = runs[0].line;
        assert!(runs.iter().all(|r| r.line == shared_line), "{runs:?}");
        // Tenants alternate between the two threads.
        for pair in runs.windows(2) {
            assert_ne!(pair[0].thread, pair[1].thread, "{runs:?}");
        }

        let json = trace.to_chrome_json();
        placesim_obs::json::parse(&json).expect("chrome export parses strictly");
    }
}
