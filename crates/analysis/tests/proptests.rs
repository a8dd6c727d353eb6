//! Property-based tests for the static sharing analysis.

use placesim_analysis::{nway, AddressProfile, CharacteristicsRow, SharingAnalysis, SpillBudget};
use placesim_trace::stream::{FileReader, StreamWriter};
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadId, ThreadTrace};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `prog` as a v4 stream with the given chunk size to a unique
/// temp file, returning its path. Caller removes the file.
fn write_v4_temp(prog: &ProgramTrace, chunk_bytes: usize) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "placesim-proptest-{}-{}.trace",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let file = std::fs::File::create(&path).expect("create temp trace");
    let mut w = StreamWriter::with_chunk_bytes(file, prog.name(), prog.thread_count(), chunk_bytes)
        .expect("stream header");
    for (tid, t) in prog.iter() {
        w.append_thread(tid, t.iter()).expect("stream chunk");
    }
    w.finish().expect("stream footer");
    path
}

fn arb_program() -> impl Strategy<Value = ProgramTrace> {
    let r#ref = (0u8..3, 0u64..32);
    let thread = proptest::collection::vec(r#ref, 0..60);
    proptest::collection::vec(thread, 1..8).prop_map(|threads| {
        let traces: Vec<ThreadTrace> = threads
            .into_iter()
            .map(|refs| {
                refs.into_iter()
                    .map(|(kind, slot)| {
                        let addr = Address::new(0x100 + slot * 8);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pairwise matrices are symmetric with zero diagonal by
    /// construction of SymMatrix; spot-check the accessors agree.
    #[test]
    fn pairwise_metrics_are_symmetric(prog in arb_program()) {
        let s = SharingAnalysis::measure(&prog);
        let t = prog.thread_count();
        for i in 0..t {
            for j in 0..t {
                let (a, b) = (ThreadId::from_index(i), ThreadId::from_index(j));
                prop_assert_eq!(s.pair_shared_refs(a, b), s.pair_shared_refs(b, a));
                prop_assert_eq!(s.pair_write_shared_refs(a, b), s.pair_write_shared_refs(b, a));
                prop_assert_eq!(s.pair_shared_addrs(a, b), s.pair_shared_addrs(b, a));
                // Write-shared references are a subset of shared references.
                prop_assert!(s.pair_write_shared_refs(a, b) <= s.pair_shared_refs(a, b));
            }
        }
    }

    /// Per-thread shared+private reference counts reconstruct each
    /// thread's data reference count exactly.
    #[test]
    fn per_thread_counts_conserve_data_refs(prog in arb_program()) {
        let s = SharingAnalysis::measure(&prog);
        for (id, trace) in prog.iter() {
            let ts = s.thread(id);
            prop_assert_eq!(
                ts.data_refs(),
                trace.data_len(),
                "thread {} data refs", id
            );
            prop_assert!(ts.shared_percent() <= 100.0 + 1e-9);
        }
    }

    /// The profile's address census matches a brute-force recount.
    #[test]
    fn profile_matches_brute_force(prog in arb_program()) {
        let profile = AddressProfile::build(&prog);
        let mut expect: std::collections::HashMap<u64, std::collections::HashMap<usize, (u32, u32)>> =
            std::collections::HashMap::new();
        for (id, trace) in prog.iter() {
            for r in trace.iter() {
                if r.kind.is_data() {
                    let entry = expect.entry(r.addr.raw()).or_default()
                        .entry(id.index()).or_insert((0, 0));
                    if r.kind.is_write() {
                        entry.1 += 1;
                    } else {
                        entry.0 += 1;
                    }
                }
            }
        }
        prop_assert_eq!(profile.address_count(), expect.len());
        for (addr, per_thread) in expect {
            let pa = profile.get(addr).expect("address present");
            prop_assert_eq!(pa.sharer_count(), per_thread.len());
            for c in pa.counts() {
                let &(reads, writes) = per_thread.get(&c.thread.index()).expect("thread present");
                prop_assert_eq!(c.reads, reads);
                prop_assert_eq!(c.writes, writes);
            }
        }
    }

    /// Differential: the fused sharded analysis is bit-identical to the
    /// two-pass reference — all three pairwise matrices, every
    /// ThreadSharing row, and the address censuses.
    #[test]
    fn fused_measure_matches_reference(prog in arb_program()) {
        let fused = SharingAnalysis::measure(&prog);
        let reference = SharingAnalysis::measure_reference(&prog);
        prop_assert_eq!(fused.pair_refs_matrix(), reference.pair_refs_matrix());
        prop_assert_eq!(fused.pair_write_refs_matrix(), reference.pair_write_refs_matrix());
        prop_assert_eq!(fused.pair_addrs_matrix(), reference.pair_addrs_matrix());
        prop_assert_eq!(fused.per_thread(), reference.per_thread());
        prop_assert_eq!(fused.shared_address_count(), reference.shared_address_count());
        prop_assert_eq!(fused.total_address_count(), reference.total_address_count());
        // Derived equality covers any future field.
        prop_assert_eq!(fused, reference);
    }

    /// Differential: the out-of-core streamed analysis of a v4 file is
    /// bit-identical to the in-memory one, across chunk sizes that force
    /// many chunks per thread and resident-address budgets tiny enough
    /// to force spill files and their k-way merge. (The scan module's
    /// own proptest compares each source's per-address visits with
    /// `AddressProfile::build`.)
    #[test]
    fn streamed_scan_matches_in_memory(
        prog in arb_program(),
        budget in 1usize..40,
        chunk in 16usize..256,
    ) {
        let path = write_v4_temp(&prog, chunk);
        let reader = FileReader::open(&path).expect("open v4");
        let budget = SpillBudget::new(budget);
        let streamed = SharingAnalysis::measure_streamed(&reader, &budget);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(streamed.expect("streamed measure"), SharingAnalysis::measure(&prog));
    }

    /// Cluster sharing sums: the group metric over the full thread set
    /// equals the sum of all pairwise entries.
    #[test]
    fn full_group_sum_equals_total(prog in arb_program()) {
        let s = SharingAnalysis::measure(&prog);
        let all: Vec<usize> = (0..prog.thread_count()).collect();
        prop_assert_eq!(
            nway::group_shared_refs(s.pair_refs_matrix(), &all),
            s.total_pairwise_shared_refs()
        );
    }

    /// Characteristics rows never produce NaNs and respect bounds.
    #[test]
    fn characteristics_are_finite(prog in arb_program(), seed in 0u64..50) {
        let row = CharacteristicsRow::measure(&prog, seed);
        for v in [
            row.pairwise_sharing.mean,
            row.pairwise_sharing.std_dev,
            row.nway_sharing.mean,
            row.refs_per_shared_addr.mean,
            row.shared_refs_percent.mean,
            row.thread_length.mean,
        ] {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
        prop_assert!(row.shared_refs_percent.mean <= 100.0 + 1e-9);
    }

    /// Write-run analysis conservation: runs cover all shared-address
    /// references; mean run length is consistent.
    #[test]
    fn write_run_bounds(prog in arb_program()) {
        use placesim_analysis::write_runs::analyze_round_robin;
        let stats = analyze_round_robin(&prog);
        prop_assert!(stats.migratory_addresses <= stats.shared_addresses);
        prop_assert!(stats.mean_run_length >= 0.0);
        if stats.shared_addresses > 0 {
            prop_assert!(stats.runs >= stats.shared_addresses);
            prop_assert!(stats.mean_run_length >= 1.0);
        }
        let frac = stats.migratory_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }
}
