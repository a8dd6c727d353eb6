//! The naive machine model (`common/naive.rs`) on its own terms, and the
//! engine against it where the two are easiest to get wrong together.
//!
//! * **Hand-derived timelines.** The model reproduces cycle counts and
//!   coherence counts worked out by hand from the execution model, so
//!   it rests on the model's documentation, not only on agreeing with
//!   the engine.
//! * **The tie order at a shared cycle.** A remote write lands in the
//!   same cycle as the victim's reference to the line, with the victim
//!   below and above the writer in processor order.
//! * **Everything at once.** Every protocol with barriers, a
//!   bandwidth-limited memory channel and stalling upgrades, at
//!   associativity 1, 2 and 4.

mod common;

use common::{arb_barrier_program, arb_placement, arb_program, assert_matches_oracle};
use placesim_machine::{ArchConfig, ProcStats, Protocol};
use placesim_placement::PlacementMap;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use proptest::prelude::*;

/// 8 sets of 32 bytes, latency 50, switch 6, contention-free.
fn tiny() -> ArchConfig {
    ArchConfig::builder()
        .cache_size(256)
        .line_size(32)
        .build()
        .unwrap()
}

/// The per-processor statistics of `prog` on `map`, which the engine and
/// the naive model agree on.
fn both(prog: &ProgramTrace, map: &PlacementMap, config: &ArchConfig) -> Vec<ProcStats> {
    assert_matches_oracle(prog, map, config).per_proc().to_vec()
}

/// One thread reading one line ten times: a compulsory miss at cycle 0,
/// the drain to 7, idle until the fill at 50, then nine hits.
#[test]
fn hits_after_a_miss_take_one_cycle_each() {
    let t: ThreadTrace = (0..10).map(|_| MemRef::read(Address::new(0x100))).collect();
    let prog = ProgramTrace::new("hits", vec![t]);
    let map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
    let [p0] = both(&prog, &map, &tiny())[..] else {
        panic!("one processor")
    };
    assert_eq!(p0.misses.compulsory, 1);
    assert_eq!(p0.hits, 9);
    assert_eq!((p0.busy, p0.switching, p0.idle), (10, 6, 43));
    assert_eq!(p0.finish_time, 59);
}

/// Two contexts on one processor, five reads of a private line each.
/// t=0: thread 0 misses, drain to 7, thread 1 runs. t=7: thread 1
/// misses, drain to 14, idle until thread 0 is ready at 50. t=50..54:
/// thread 0's four hits; its trace ends, so the switch is free, and the
/// processor idles until thread 1 is ready at 57. t=57..61: thread 1's
/// four hits.
#[test]
fn round_robin_switches_on_misses_and_for_free_on_completion() {
    let t0: ThreadTrace = (0..5).map(|_| MemRef::read(Address::new(0x000))).collect();
    let t1: ThreadTrace = (0..5).map(|_| MemRef::read(Address::new(0x020))).collect();
    let prog = ProgramTrace::new("exhaust", vec![t0, t1]);
    let map = PlacementMap::from_clusters(vec![vec![0, 1]]).unwrap();
    let [p0] = both(&prog, &map, &tiny())[..] else {
        panic!("one processor")
    };
    assert_eq!(p0.misses.compulsory, 2);
    assert_eq!(p0.hits, 8);
    assert_eq!((p0.busy, p0.switching, p0.idle), (10, 12, 36 + 3));
    assert_eq!(p0.finish_time, 61);
}

/// With stalling upgrades, a read miss at 0 and an upgrade at 50 that
/// finds no other sharer do not stall: the run ends at 51.
#[test]
fn an_upgrade_without_sharers_never_stalls() {
    let addr = Address::new(0x8000);
    let t: ThreadTrace = [MemRef::read(addr), MemRef::write(addr)]
        .into_iter()
        .collect();
    let prog = ProgramTrace::new("solo", vec![t]);
    let map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
    let config = ArchConfig::builder()
        .cache_size(1 << 20)
        .upgrade_stalls(true)
        .build()
        .unwrap();
    let [p0] = both(&prog, &map, &config)[..] else {
        panic!("one processor")
    };
    assert_eq!(p0.finish_time, 51);
    assert_eq!(p0.upgrades, 1);
    assert_eq!(p0.invalidations_sent, 0);
}

/// Processor 0 writes X twice and processor 1 reads it twice, each
/// second reference at cycle 50. At cycle 0 processor 0's write miss
/// takes X Modified, then processor 1's read miss takes the owner's
/// exclusivity away. At cycle 50 processor 0 writes again before
/// processor 1 reads again.
#[test]
fn each_protocol_handles_a_write_after_a_remote_read_as_documented() {
    let x = Address::new(0x40);
    let t0: ThreadTrace = [MemRef::write(x), MemRef::write(x)].into_iter().collect();
    let t1: ThreadTrace = [MemRef::read(x), MemRef::read(x)].into_iter().collect();
    let prog = ProgramTrace::new("write-after-read", vec![t0, t1]);
    let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
    for protocol in Protocol::ALL {
        let config = ArchConfig::paper_default().with_protocol(protocol);
        let [writer, reader] = both(&prog, &map, &config)[..] else {
            panic!("two processors")
        };
        assert_eq!(writer.misses.compulsory, 1, "{protocol}");
        assert_eq!(reader.misses.compulsory, 1, "{protocol}");
        if protocol == Protocol::Dragon {
            // The owner was left SharedDirty, so its second write updates
            // the reader's copy, which the reader then hits.
            assert_eq!(writer.updates_sent, 1);
            assert_eq!(reader.updates_received, 1);
            assert_eq!((writer.upgrades, writer.invalidations_sent), (0, 0));
            assert_eq!(reader.hits, 1);
        } else {
            // The owner was left Shared, so its second write upgrades and
            // invalidates the reader's copy, whose next read misses.
            assert_eq!(writer.upgrades, 1, "{protocol}");
            assert_eq!(writer.invalidations_sent, 1, "{protocol}");
            assert_eq!(reader.misses.invalidation, 1, "{protocol}");
            assert_eq!(writer.updates_sent, 0, "{protocol}");
        }
        assert_eq!(writer.hits, 1, "{protocol}");
        assert_eq!(writer.finish_time, 51, "{protocol}");
    }
}

/// A writer's write miss at cycle 60 invalidates line X while the
/// victim reads X at every cycle from 50 to 61. The victim runs on
/// processor `victim`, the writer on the other of processors 0 and 1.
/// Returns the victim's statistics.
fn remote_write_at_tied_cycle(victim: usize) -> ProcStats {
    let x = Address::new(0x000);
    // Y is in another set, so it does not conflict with X.
    let y = Address::new(0x020);
    // Victim: compulsory miss on X at 0, ready at 50, then 12 reads of X
    // issued from cycle 50 on.
    let v: ThreadTrace = (0..13).map(|_| MemRef::read(x)).collect();
    // Writer: compulsory miss on Y at 0, hits on Y at 50..=59, then a
    // write miss on X at cycle 60 that invalidates the victim's copy.
    let mut w: ThreadTrace = (0..11).map(|_| MemRef::read(y)).collect();
    w.push(MemRef::write(x));
    let threads = if victim == 0 { vec![v, w] } else { vec![w, v] };
    let prog = ProgramTrace::new("tie", threads);
    let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
    let stats = both(&prog, &map, &tiny());
    let writer = stats[1 - victim];
    assert_eq!(writer.invalidations_sent, 1);
    assert_eq!(writer.finish_time, 61);
    stats[victim]
}

/// Victim below the writer: at the tied cycle 60 the victim's read goes
/// first and hits; its final read, at 61, is the invalidation miss.
#[test]
fn tied_remote_write_lands_after_a_lower_indexed_victim() {
    let p0 = remote_write_at_tied_cycle(0);
    assert_eq!(p0.hits, 11, "hits at cycles 50..=60");
    assert_eq!(p0.misses.compulsory, 1);
    assert_eq!(p0.misses.invalidation, 1);
    assert_eq!(p0.invalidations_received, 1);
    assert_eq!(p0.finish_time, 62);
    assert_eq!(p0.switching, 6);
}

/// Victim above the writer: the write goes first at the tied cycle 60,
/// so the victim's read there is the invalidation miss; the refill is
/// ready at 110, where the final read hits.
#[test]
fn tied_remote_write_lands_before_a_higher_indexed_victim() {
    let p1 = remote_write_at_tied_cycle(1);
    assert_eq!(p1.hits, 11, "hits at cycles 50..=59 and 110");
    assert_eq!(p1.misses.compulsory, 1);
    assert_eq!(p1.misses.invalidation, 1);
    assert_eq!(p1.invalidations_received, 1);
    assert_eq!(p1.finish_time, 111);
    assert_eq!(p1.switching, 12);
}

/// Every protocol, associativity 1, 2 or 4, a memory channel busy 0, 7
/// or 14 cycles per fill, and stalling upgrades on or off.
fn arb_config() -> impl Strategy<Value = ArchConfig> {
    (0usize..3, 0u32..3, 0u64..3, 0u8..2, 0u64..3).prop_map(
        |(protocol, assoc, occupancy, stalls, switch)| {
            ArchConfig::builder()
                .cache_size(512)
                .line_size(32)
                .associativity(1 << assoc)
                .protocol(Protocol::ALL[protocol])
                .memory_occupancy(occupancy * 7)
                .upgrade_stalls(stalls == 1)
                .context_switch(1 + switch * 5)
                .build()
                .expect("valid random config")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_oracle_under_every_machine_option(
        prog in prop_oneof![arb_program(150), arb_barrier_program()],
        seed in 1u64..5000,
        config in arb_config(),
    ) {
        let map = arb_placement(prog.thread_count(), seed);
        assert_matches_oracle(&prog, &map, &config);
    }
}
