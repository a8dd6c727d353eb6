//! Hostile-input tests for the `placesim-attribution-v1` parser: no
//! malformed report may crash it or pre-allocate more than a small
//! multiple of its own size.
//!
//! Mirrors the trace crate's hostile suite: a tracking global allocator
//! measures peak heap growth, and every parse — byte soup, mutated
//! valid reports, and semantically lying documents — must return a
//! clean `Err` (or a correct parse) under a hard allocation cap. The
//! allocator needs `unsafe`; the library forbids it, this test binary
//! opts in locally.

use placesim_obs::attribution::{self, AttrCollector, AttrKind, AttributionConfig};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, tracking the live and peak bytes each
/// thread has allocated. The test harness runs `#[test]` fns on parallel
/// threads; per-thread counters keep one test's measurement blind to the
/// others' allocations. A `const` thread-local `Cell` needs neither lazy
/// initialization nor a destructor, so reaching it never allocates.
struct TrackingAlloc;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed. Signed: a
    /// thread may free memory another thread allocated.
    static CURRENT: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `CURRENT` since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: delegates allocation verbatim to `System`; the bookkeeping is
// plain arithmetic on thread-local cells on the side.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let _ = CURRENT.try_with(|current| {
                let live = current.get() + layout.size() as isize;
                current.set(live);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live)));
            });
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        let _ = CURRENT.try_with(|current| current.set(current.get() - layout.size() as isize));
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Runs `f` on the calling thread, returning its result and the peak
/// heap growth (bytes above the thread's live size at entry) during the
/// call. `f` must not hand work to other threads: their allocations are
/// not counted.
fn measured_peak<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = CURRENT.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let result = f();
    let peak = PEAK.with(Cell::get);
    ((peak - base) as usize, result)
}

/// Allocation bound for parsing `input_len` bytes of report: the JSON
/// tree and the parsed view legitimately outgrow the text by a small
/// factor, plus a fixed constant for parser temporaries.
fn alloc_bound(input_len: usize) -> usize {
    input_len * 32 + 64 * 1024
}

/// A genuine report with a few hot lines, both attributed and
/// unattributed events, and a pair matrix.
fn sample_report() -> String {
    let mut c = AttrCollector::new(AttributionConfig::new(1 << 10, 64));
    for i in 0..40u64 {
        c.record(AttrKind::Invalidation, 0x1000 + 64 * (i % 5), 0, 1);
        c.record(AttrKind::CoherenceMiss, 0x1000 + 64 * (i % 5), 1, 0);
        if i % 4 == 0 {
            c.record(AttrKind::Update, 0x8000, 2, 3);
        }
        if i % 7 == 0 {
            c.record(AttrKind::Invalidation, 0x9000, u32::MAX, 1);
        }
    }
    c.report_json("mesi", 4, 16)
}

/// The sample parses cleanly under the cap — the cap is not vacuous.
#[test]
fn valid_report_parses_under_the_cap() {
    let body = sample_report();
    let (peak, result) = measured_peak(|| attribution::parse(&body));
    let doc = result.expect("sample must parse");
    assert!(doc.enabled);
    assert!(doc.events() > 0);
    assert!(peak <= alloc_bound(body.len()), "peaked at {peak}");
}

/// Documents that are well-formed JSON but lie about themselves: each
/// must be rejected with the named reason, never accepted or panicked
/// on.
#[test]
fn semantic_lies_are_rejected() {
    let good = sample_report();
    let cases: Vec<(String, &str)> = vec![
        (
            good.replace("placesim-attribution-v1", "placesim-attribution-v9"),
            "schema",
        ),
        (
            good.replace("\"mode\": \"exact\"", "\"mode\": \"vibes\""),
            "mode",
        ),
        (
            // Exact mode must carry a zero error bound.
            good.replace("\"error_bound\": 0", "\"error_bound\": 7"),
            "error_bound",
        ),
        (
            // Break totals.events against the per-kind sum.
            good.replace("\"events\": 96", "\"events\": 97"),
            "per-kind sum",
        ),
        (
            // Orphan the pair matrix from the totals.
            good.replace("\"unattributed\": 6", "\"unattributed\": 5"),
            "reconcile",
        ),
    ];
    for (body, why) in cases {
        assert_ne!(body, good, "mutation for `{why}` did not apply");
        let (peak, result) = measured_peak(|| attribution::parse(&body));
        assert!(result.is_err(), "lie `{why}` was accepted");
        assert!(
            peak <= alloc_bound(body.len()),
            "lie `{why}` peaked at {peak}"
        );
    }
}

/// Pair rows must be ordered, unique, in-range and overflow-free.
#[test]
fn hostile_pair_rows_are_rejected() {
    let head = "{\"schema\": \"placesim-attribution-v1\", \"enabled\": true, \
                \"protocol\": \"wi\", \"threads\": 2, \"mode\": \"exact\", \
                \"exact_limit\": 4, \"sketch_k\": 4, \"tracked_addresses\": 0, \
                \"error_bound\": 0, \"totals\": {\"invalidations\": 4, \
                \"updates\": 0, \"coherence_misses\": 0, \"events\": 4, \
                \"unattributed\": 0}, \"top\": [], \"pairs\": ";
    for (pairs, why) in [
        ("[[1, 0, 4]]", "unordered pair"),
        ("[[0, 1, 2], [0, 1, 2]]", "duplicate pair"),
        ("[[0, 4294967296, 4]]", "thread id beyond u32"),
        (
            "[[0, 1, 2], [0, 2, 18446744073709551615]]",
            "count overflow",
        ),
        ("[[0, 1]]", "short row"),
        ("[[0, 1, 2, 3]]", "long row"),
        ("[{\"a\": 0}]", "object row"),
        ("[[0, 1, 3]]", "sum mismatch"),
    ] {
        let body = format!("{head}{pairs}}}");
        let (peak, result) = measured_peak(|| attribution::parse(&body));
        assert!(result.is_err(), "`{why}` was accepted");
        assert!(peak <= alloc_bound(body.len()), "`{why}` peaked at {peak}");
    }
}

/// The top array must be sorted and internally consistent.
#[test]
fn hostile_top_rows_are_rejected() {
    let mk = |top: &str, events: u64| {
        format!(
            "{{\"schema\": \"placesim-attribution-v1\", \"enabled\": true, \
             \"protocol\": \"wi\", \"threads\": 2, \"mode\": \"exact\", \
             \"exact_limit\": 4, \"sketch_k\": 4, \"tracked_addresses\": 2, \
             \"error_bound\": 0, \"totals\": {{\"invalidations\": {events}, \
             \"updates\": 0, \"coherence_misses\": 0, \"events\": {events}, \
             \"unattributed\": 0}}, \"top\": {top}, \
             \"pairs\": [[0, 1, {events}]]}}"
        )
    };
    let row = |line: u64, ev: u64| {
        format!(
            "{{\"line\": {line}, \"events\": {ev}, \"count\": {ev}, \
             \"invalidations\": {ev}, \"updates\": 0, \"coherence_misses\": 0, \
             \"runs\": {{\"count\": 1, \"mean\": 1.0, \"max\": 1}}}}"
        )
    };
    // Ascending events order violates the sorted-descending contract.
    let unsorted = mk(&format!("[{}, {}]", row(1, 2), row(2, 5)), 7);
    // A row whose per-kind split disagrees with its events.
    let bad_row = row(1, 3).replace("\"invalidations\": 3", "\"invalidations\": 2");
    let split = mk(&format!("[{bad_row}]"), 3);
    for (body, why) in [(unsorted, "unsorted top"), (split, "bad row split")] {
        let (peak, result) = measured_peak(|| attribution::parse(&body));
        assert!(result.is_err(), "`{why}` was accepted");
        assert!(peak <= alloc_bound(body.len()), "`{why}` peaked at {peak}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary byte soup: parsing must return Ok or Err — never
    /// panic — with bounded peak allocation.
    #[test]
    fn arbitrary_bytes_never_overallocate(raw in proptest::collection::vec(0u8..=255, 0..512)) {
        let body = String::from_utf8_lossy(&raw).into_owned();
        let (peak, result) = measured_peak(|| attribution::parse(&body));
        drop(result);
        prop_assert!(
            peak <= alloc_bound(body.len()),
            "{} input bytes peaked at {} allocated bytes",
            body.len(),
            peak
        );
    }

    /// Valid reports with mutated and/or truncated text: graceful error
    /// or valid parse, never a panic or an outsized allocation.
    #[test]
    fn mutated_reports_never_overallocate(
        pos in 0usize..8192,
        value in 0u8..=255,
        cut in 0usize..=8192,
    ) {
        let mut body = sample_report().into_bytes();
        let idx = pos % body.len();
        body[idx] = value;
        if cut < 8192 {
            body.truncate(cut % (body.len() + 1));
        }
        let text = String::from_utf8_lossy(&body).into_owned();
        let (peak, result) = measured_peak(|| attribution::parse(&text));
        drop(result);
        prop_assert!(
            peak <= alloc_bound(text.len()),
            "{} input bytes peaked at {} allocated bytes",
            text.len(),
            peak
        );
    }

    /// Deeply nested JSON aimed at the parser's recursion: the hardened
    /// parser must refuse or parse it iteratively — never blow the
    /// stack — and stay under the cap.
    #[test]
    fn deep_nesting_never_crashes(depth in 1usize..2000) {
        let mut body = String::with_capacity(2 * depth + 32);
        body.push_str("{\"schema\": ");
        for _ in 0..depth {
            body.push('[');
        }
        for _ in 0..depth {
            body.push(']');
        }
        body.push('}');
        let (peak, result) = measured_peak(|| attribution::parse(&body));
        prop_assert!(result.is_err());
        prop_assert!(
            peak <= alloc_bound(body.len()),
            "depth {} peaked at {} allocated bytes",
            depth,
            peak
        );
    }
}
