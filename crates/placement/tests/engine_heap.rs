//! Peak-heap regression test for the cluster-combining engine.
//!
//! A 127-thread gauss placement merges 125 times down to two clusters.
//! The engine's candidate state is O(t): per cluster the best key (or a
//! bound on the keys) of its pairs with higher-id clusters, and a
//! max-tree over those; a level holds only the last key it tried. A
//! tracking allocator measures the heap growth of one such placement and
//! bounds it, so a return to materializing scored pairs fails here:
//! a level's sorted list, or a global heap of all ~t²/2 = 8k pair keys.

use placesim_analysis::SharingAnalysis;
use placesim_placement::{PlacementAlgorithm, PlacementInputs};
use placesim_workloads::{generate, spec, GenOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live and peak heap bytes so the bound is a measured number,
/// not an estimate.
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

/// SHARE-REFS+LB on all 127 gauss threads at p = 2 (the deepest search,
/// 125 levels) grows the heap by at most `CAP` bytes over what was live
/// before the call. The only test in this binary, so nothing else
/// allocates while it measures.
#[test]
fn paper_scale_placement_heap_growth_is_bounded() {
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
    let inputs = PlacementInputs::new(&sharing, &lengths).with_seed(1994);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let map = PlacementAlgorithm::ShareRefsLb
        .place(&inputs, 2)
        .expect("placement");
    let growth = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(map.thread_count(), 127);

    // Measured at 88 KB (partition, caches, candidate rows and the
    // result); the cap leaves 3x headroom. Keeping every level's scored
    // pairs alive grew the heap by 18.7 MB on this input.
    const CAP: usize = 256 << 10;
    assert!(
        growth <= CAP,
        "placement grew the heap by {growth} bytes, over the {CAP}-byte cap"
    );
}
