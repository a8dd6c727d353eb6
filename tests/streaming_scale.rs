//! Acceptance tests for the bounded-memory out-of-core pipeline: a v4
//! streaming trace is generated, profiled and placed without ever
//! materializing the program in memory, under a peak-heap cap enforced
//! by a tracking allocator.
//!
//! The always-run test exercises the full path at a small scale with a
//! spill-forcing budget. The `#[ignore]` test is the release-mode
//! headline: a ≥100M-reference trace profiled and placed inside a fixed
//! 512 MiB peak-heap budget, plus paper-scale (1.0) bit-identity of the
//! sharing analysis and the resulting placement against the in-memory
//! path. CI runs it with `cargo test --release -- --ignored` at a
//! reduced `PLACESIM_SCALE`.

use placesim_analysis::{SharingAnalysis, SpillBudget};
use placesim_placement::{PlacementAlgorithm, PlacementInputs};
use placesim_trace::stream::FileReader;
use placesim_workloads::{generate, generate_streamed, spec, GenOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tracks live and peak heap bytes so the memory budget is a measured
/// number, not an estimate.
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Serializes peak measurements across tests in this binary (the test
/// harness runs them on parallel threads, and the watermark is global).
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` and returns the peak heap bytes live during the call.
fn measured_peak<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let _guard = MEASURE_LOCK.lock().unwrap();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed), out)
}

fn tmp_trace(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("placesim-scale-{}-{tag}.trace", std::process::id()))
}

/// Streams `gauss` at `scale` to `path` and returns the reference count.
fn gen_to_file(path: &std::path::Path, scale: f64, seed: u64) -> u64 {
    let app = spec("gauss").expect("known app");
    let opts = GenOptions { scale, seed };
    let file = std::fs::File::create(path).expect("create trace file");
    let summary = generate_streamed(&app, &opts, std::io::BufWriter::new(file)).expect("stream");
    summary.total_refs
}

/// Profiles and places the on-disk trace, returning the sharing
/// analysis and the ShareRefsLb placement.
fn profile_and_place(
    path: &std::path::Path,
    budget: &SpillBudget,
    seed: u64,
) -> (SharingAnalysis, placesim_placement::PlacementMap) {
    let reader = FileReader::open(path).expect("open trace");
    let sharing = SharingAnalysis::measure_streamed(&reader, budget).expect("streamed profile");
    let lengths = reader.instr_lengths();
    let inputs = PlacementInputs::new(&sharing, &lengths).with_seed(seed);
    let map = PlacementAlgorithm::ShareRefsLb
        .place(&inputs, 16)
        .expect("placement");
    (sharing, map)
}

/// Small-scale, always-run: the streamed pipeline is bit-identical to
/// the in-memory one even with a budget tiny enough to force every
/// thread through spill files, and its peak heap stays under a cap far
/// below what the workload could legitimately need if it leaked the
/// whole trace into memory at larger scales.
#[test]
fn streamed_pipeline_is_bit_identical_and_bounded() {
    let app = spec("gauss").expect("known app");
    let opts = GenOptions {
        scale: 0.02,
        seed: 1994,
    };
    let path = tmp_trace("small");
    let refs = gen_to_file(&path, opts.scale, opts.seed);
    assert!(refs > 100_000, "small trace still needs real volume");

    let budget = SpillBudget::new(512); // ~forces spills on every thread
    let (peak, (streamed_sharing, streamed_map)) =
        measured_peak(|| profile_and_place(&path, &budget, opts.seed));
    std::fs::remove_file(&path).ok();

    const CAP: usize = 64 << 20;
    assert!(
        peak < CAP,
        "peak {peak} bytes exceeds the {CAP}-byte small-scale cap"
    );

    let prog = generate(&app, &opts);
    let sharing = SharingAnalysis::measure(&prog);
    assert_eq!(streamed_sharing, sharing, "sharing analysis must match");
    let lengths = placesim_placement::thread_lengths(&prog);
    let inputs = PlacementInputs::new(&sharing, &lengths).with_seed(opts.seed);
    let map = PlacementAlgorithm::ShareRefsLb
        .place(&inputs, 16)
        .expect("placement");
    assert_eq!(streamed_map, map, "placement must match");
}

/// Release-mode headline: generate a ≥100M-reference trace straight to
/// disk, then profile and place it inside a fixed 512 MiB peak-heap
/// budget — the packed references alone would exceed that if the trace
/// were materialized. `PLACESIM_SCALE` scales the trace down so CI can
/// smoke the same path quickly (the reference floor scales with it).
#[test]
#[ignore = "release-scale: run with --release -- --ignored"]
fn hundred_million_refs_profile_within_fixed_budget() {
    let mult = placesim::scale_from_env(1.0);
    let scale = 4.0 * mult;
    let path = tmp_trace("large");
    let refs = gen_to_file(&path, scale, 1994);
    let floor = (100_000_000.0 * mult) as u64;
    assert!(
        refs >= floor,
        "expected at least {floor} references, generated {refs}"
    );

    let budget = SpillBudget::new(1 << 16); // out-of-core even at full scale
    const CAP: usize = 512 << 20;
    let (peak, (_, map)) = measured_peak(|| profile_and_place(&path, &budget, 1994));
    std::fs::remove_file(&path).ok();
    assert!(
        peak < CAP,
        "peak {peak} bytes exceeds the fixed {CAP}-byte budget"
    );
    assert_eq!(map.thread_count(), 127, "gauss places all 127 threads");
}

/// Paper-scale (1.0) bit-identity: the streamed analysis and placement
/// equal the in-memory path on the exact workload the paper's tables
/// use. `PLACESIM_SCALE` scales it down for CI smokes.
#[test]
#[ignore = "release-scale: run with --release -- --ignored"]
fn paper_scale_streamed_placement_matches_in_memory() {
    let mult = placesim::scale_from_env(1.0);
    let app = spec("gauss").expect("known app");
    let opts = GenOptions {
        scale: 1.0 * mult,
        seed: 1994,
    };
    let path = tmp_trace("paper");
    gen_to_file(&path, opts.scale, opts.seed);
    let (streamed_sharing, streamed_map) =
        profile_and_place(&path, &SpillBudget::new(1 << 16), opts.seed);
    std::fs::remove_file(&path).ok();

    let prog = generate(&app, &opts);
    let sharing = SharingAnalysis::measure(&prog);
    assert_eq!(streamed_sharing, sharing, "sharing analysis must match");
    let lengths = placesim_placement::thread_lengths(&prog);
    let inputs = PlacementInputs::new(&sharing, &lengths).with_seed(opts.seed);
    let map = PlacementAlgorithm::ShareRefsLb
        .place(&inputs, 16)
        .expect("placement");
    assert_eq!(streamed_map, map, "placement must match");
}
