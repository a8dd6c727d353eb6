//! The positive control: a workload whose sharing is fine-grained and
//! pairwise, the opposite of the paper's applications. Threads `2k` and
//! `2k + 1` ping-pong a dedicated block of cache lines, so co-locating
//! each pair removes their coherence traffic outright. A pipeline that
//! cannot see a sharing effect here could not see one anywhere.
//! `tests/paper_shapes.rs` asserts it; `examples/custom_workload.rs`
//! prints it.

use placesim::PreparedApp;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use placesim_workloads::{AppSpec, GenOptions, Granularity, SharingPattern, TargetStat};

/// One side (`role` 0 or 1) of pair `pair`: each round runs a little
/// private compute, then writes the pair's four mailbox lines on its
/// turn and reads them on the other's.
fn pingpong_thread(pair: usize, role: usize, rounds: usize) -> ThreadTrace {
    let base = 0x1_0000 + (pair as u64) * 0x1000;
    let mut t = ThreadTrace::new();
    for round in 0..rounds {
        for i in 0..8u64 {
            t.push(MemRef::instr(Address::new(4 * i)));
        }
        for line in 0..4u64 {
            let addr = Address::new(base + 32 * line);
            if (round + role).is_multiple_of(2) {
                t.push(MemRef::write(addr));
            } else {
                t.push(MemRef::read(addr));
            }
        }
    }
    t
}

/// `pairs` ping-pong thread pairs of `rounds` exchanges each, prepared
/// for placement and simulation on the paper's 64 KB machine.
pub fn pingpong_app(pairs: usize, rounds: usize) -> PreparedApp {
    let threads = (0..pairs * 2)
        .map(|tid| pingpong_thread(tid / 2, tid % 2, rounds))
        .collect();
    let prog = ProgramTrace::new("pingpong", threads);
    let spec = AppSpec {
        name: "pingpong",
        granularity: Granularity::Medium,
        threads: pairs * 2,
        thread_length: TargetStat::new((rounds * 8) as f64, 0.0),
        shared_percent: 100.0,
        refs_per_shared_addr: 4.0,
        data_ratio: 0.5,
        pattern: SharingPattern::UniformAllShare {
            write_fraction: 0.5,
        },
        cache_kb: 64,
        phases: 1,
    };
    let opts = GenOptions {
        scale: 1.0,
        seed: 1,
    };
    PreparedApp::from_trace(&spec, prog, &opts)
}
