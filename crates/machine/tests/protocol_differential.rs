//! Protocol differential and conservation suite.
//!
//! Three families of guarantees, over randomized programs, placements
//! and cache geometries (associativity 1 and 2):
//!
//! * **WI bit-identity** — `protocol=wi` is the pre-refactor machine.
//!   Under `reference-engine` the batched engine must agree bit-for-bit
//!   (every [`ProcStats`] counter and the traffic matrix) with the
//!   per-reference reference engine.
//! * **Message conservation** — for every protocol,
//!   `coherence_traffic = invalidations + invalidation misses +
//!   updates`, the buckets are disjoint (WI/MESI send no updates,
//!   Dragon sends no invalidations and takes no invalidation misses or
//!   upgrades), and sent message counts reconcile with received ones.
//! * **Protocol orderings** — MESI's exclusive-clean fill can only
//!   remove upgrade transactions relative to WI, never add them, and
//!   never changes which references miss.
//!
//! The per-run structural invariants (MESI E-state exclusivity,
//! Dragon's no-stale-sharer law) live in the `audit`-feature checker,
//! which the engines invoke on every drained run in audit builds — the
//! proptests here exercise all three protocols, so audit CI runs sweep
//! those laws across the same randomized scenarios.

mod common;

use common::{arb_placement, simulate_with_traffic};
use placesim_machine::{ArchConfig, Protocol, SimStats};
use placesim_placement::PlacementMap;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use proptest::prelude::*;

/// Random program over a small address universe to provoke sharing,
/// conflicts, invalidations, upgrades and updates.
fn arb_program() -> impl Strategy<Value = ProgramTrace> {
    let r#ref = (0u8..3, 0u64..64);
    let thread = proptest::collection::vec(r#ref, 0..150);
    proptest::collection::vec(thread, 1..6).prop_map(|threads| {
        let traces: Vec<ThreadTrace> = threads
            .into_iter()
            .map(|refs| {
                refs.into_iter()
                    .map(|(kind, slot)| {
                        let addr = Address::new(slot * 16); // overlapping lines
                        match kind {
                            0 => MemRef::instr(addr),
                            1 => MemRef::read(addr),
                            _ => MemRef::write(addr),
                        }
                    })
                    .collect()
            })
            .collect();
        ProgramTrace::new("protocol-prop", traces)
    })
}

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
            .associativity(1 + u32::from(assoc)) // 1- or 2-way
            .context_switch(1 + switch * 5)
            .protocol(protocol);
        builder.build().expect("valid random config")
    })
}

/// Per-protocol conservation: the traffic buckets are disjoint, sum to
/// `coherence_traffic`, and every sent message is received somewhere.
fn assert_conservation(protocol: Protocol, stats: &SimStats) {
    let inval_sent: u64 = stats.per_proc().iter().map(|p| p.invalidations_sent).sum();
    let inval_recv: u64 = stats
        .per_proc()
        .iter()
        .map(|p| p.invalidations_received)
        .sum();
    let upd_sent: u64 = stats.per_proc().iter().map(|p| p.updates_sent).sum();
    let upd_recv: u64 = stats.per_proc().iter().map(|p| p.updates_received).sum();
    let upgrades: u64 = stats.per_proc().iter().map(|p| p.upgrades).sum();
    let inval_misses = stats.total_misses().invalidation;

    assert_eq!(inval_sent, inval_recv, "{protocol}: invalidations lost");
    assert_eq!(upd_sent, upd_recv, "{protocol}: updates lost");
    assert_eq!(
        stats.coherence_traffic(),
        inval_sent + inval_misses + upd_sent,
        "{protocol}: taxonomy buckets do not reconcile"
    );
    match protocol {
        Protocol::Wi | Protocol::Mesi => {
            assert_eq!(upd_sent, 0, "{protocol}: write-invalidate sent updates");
        }
        Protocol::Dragon => {
            assert_eq!(inval_sent, 0, "dragon sent invalidations");
            assert_eq!(inval_misses, 0, "dragon took invalidation misses");
            assert_eq!(upgrades, 0, "dragon counted upgrades");
        }
    }
}

/// Runs one scenario under `protocol` on the batched engine and (when
/// built in) the reference engine, asserting bit-identical stats and
/// traffic matrices, and returns the batched engine's stats.
fn simulate_all_engines(prog: &ProgramTrace, map: &PlacementMap, config: &ArchConfig) -> SimStats {
    #[cfg_attr(not(feature = "reference-engine"), allow(unused_variables))]
    let (serial, serial_traffic) = simulate_with_traffic(prog, map, config).expect("serial engine");
    #[cfg(feature = "reference-engine")]
    {
        let (slow, slow_traffic) =
            placesim_machine::reference::simulate_with_traffic(prog, map, config)
                .expect("reference engine");
        assert_eq!(
            serial,
            slow,
            "batched engine diverges from reference under {}",
            config.protocol()
        );
        assert_eq!(serial_traffic, slow_traffic, "reference traffic diverges");
    }
    serial
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// WI bit-identity between the batched and (when built in) the
    /// reference engine, plus conservation.
    #[test]
    fn wi_is_bit_identical_across_engines(
        prog in arb_program(),
        seed in 1u64..5000,
        config in arb_config(Protocol::Wi),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        let stats = simulate_all_engines(&prog, &map, &config);
        assert_conservation(Protocol::Wi, &stats);
    }

    /// MESI agrees with itself across engines, conserves messages, and
    /// only ever *removes* upgrade traffic relative to WI — the
    /// exclusive-clean fill turns first-writes to private lines silent
    /// without changing which references miss.
    #[test]
    fn mesi_conserves_and_only_reduces_upgrades(
        prog in arb_program(),
        seed in 1u64..5000,
        config in arb_config(Protocol::Mesi),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        let stats = simulate_all_engines(&prog, &map, &config);
        assert_conservation(Protocol::Mesi, &stats);

        let wi_config = config.with_protocol(Protocol::Wi);
        let (wi, _) = simulate_with_traffic(&prog, &map, &wi_config).expect("wi engine");
        let upgrades = |s: &SimStats| s.per_proc().iter().map(|p| p.upgrades).sum::<u64>();
        assert!(
            upgrades(&stats) <= upgrades(&wi),
            "mesi added upgrade traffic: {} > {}",
            upgrades(&stats),
            upgrades(&wi)
        );
        assert_eq!(
            stats.total_misses(),
            wi.total_misses(),
            "mesi changed the miss taxonomy"
        );
        assert_eq!(stats.total_refs(), wi.total_refs());
    }

    /// Dragon agrees with itself across engines, conserves update
    /// messages, and is structurally invalidation-free.
    #[test]
    fn dragon_conserves_and_never_invalidates(
        prog in arb_program(),
        seed in 1u64..5000,
        config in arb_config(Protocol::Dragon),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        let stats = simulate_all_engines(&prog, &map, &config);
        assert_conservation(Protocol::Dragon, &stats);
    }
}

/// A fixed producer/consumer sharing scenario where the protocols
/// measurably differ, pinning the qualitative orderings: Dragon turns
/// the write-invalidate ping-pong into update traffic (no invalidation
/// misses), and MESI silences the private-line upgrades WI pays for.
#[test]
fn protocols_differ_in_the_documented_directions() {
    // T0 repeatedly writes a line T1 repeatedly reads (ping-pong), and
    // T2 write-walks a private region (upgrade fodder under WI).
    let t0: ThreadTrace = (0..120)
        .map(|i| {
            if i % 2 == 0 {
                MemRef::write(Address::new(0x40))
            } else {
                MemRef::instr(Address::new(4 * i))
            }
        })
        .collect();
    let t1: ThreadTrace = (0..120)
        .map(|i| {
            if i % 2 == 0 {
                MemRef::read(Address::new(0x40))
            } else {
                MemRef::instr(Address::new(0x8000 + 4 * i))
            }
        })
        .collect();
    let t2: ThreadTrace = (0..60)
        .flat_map(|i| {
            let addr = Address::new(0x10000 + 64 * i);
            [MemRef::read(addr), MemRef::write(addr)]
        })
        .collect();
    let prog = ProgramTrace::new("ping-pong", vec![t0, t1, t2]);
    let map = PlacementMap::from_clusters(vec![vec![0], vec![1], vec![2]]).unwrap();

    let run = |protocol: Protocol| {
        let config = ArchConfig::paper_default().with_protocol(protocol);
        let stats = simulate_all_engines(&prog, &map, &config);
        assert_conservation(protocol, &stats);
        stats
    };
    let wi = run(Protocol::Wi);
    let mesi = run(Protocol::Mesi);
    let dragon = run(Protocol::Dragon);

    let upgrades = |s: &SimStats| s.per_proc().iter().map(|p| p.upgrades).sum::<u64>();
    // WI pays upgrades for T2's read-then-write walk; MESI fills those
    // lines Exclusive and silences every one of them.
    assert!(upgrades(&wi) > 0, "scenario must provoke upgrades under WI");
    assert!(upgrades(&mesi) < upgrades(&wi));
    // The ping-pong line causes invalidation misses under WI but none
    // under Dragon, which refreshes T1's copy in place.
    assert!(wi.total_misses().invalidation > 0);
    assert_eq!(dragon.total_misses().invalidation, 0);
    assert!(dragon.total_updates() > 0, "dragon must send updates");
    assert_eq!(wi.total_updates(), 0);
    assert_eq!(mesi.total_updates(), 0);
    // Fewer misses means Dragon finishes the ping-pong no later.
    assert!(dragon.total_misses().total() < wi.total_misses().total());
}
