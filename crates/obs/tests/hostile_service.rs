//! Hostile-input tests for the `placesim-service-v1` request parser:
//! no frame a peer can write may crash the daemon's front door or
//! pre-allocate more than a small multiple of its own size.
//!
//! Mirrors the attribution hostile suite: a tracking global allocator
//! measures peak heap growth, and every parse — byte soup, mutated
//! valid requests, lying counts and lengths, floods without newlines —
//! must return a typed `ProtoError` (or a correct parse) under a hard
//! allocation cap. The allocator needs `unsafe`; the library forbids
//! it, this test binary opts in locally.

use placesim_obs::proto::{
    self, parse_request, read_frame, ProtoError, Request, MAX_FRAME_BYTES, MAX_LIST_ITEMS,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

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

/// Allocation bound for parsing `input_len` bytes of request: the JSON
/// tree and the parsed spec legitimately outgrow the text by a small
/// factor, plus a fixed constant for parser temporaries.
fn alloc_bound(input_len: usize) -> usize {
    input_len * 32 + 64 * 1024
}

fn submit_line(job: &str) -> String {
    format!("{{\"schema\": \"placesim-service-v1\", \"op\": \"submit\", \"job\": {job}}}")
}

const SIM_JOB: &str = "{\"op\": \"simulate\", \"app\": \"water\", \"scale\": 0.002, \
                       \"seed\": 3, \"algorithms\": [\"LOAD-BAL\"], \"processors\": [4]}";

/// A genuine submit parses cleanly under the cap — the cap is not
/// vacuous.
#[test]
fn valid_submit_parses_under_the_cap() {
    let line = submit_line(SIM_JOB);
    let (peak, result) = measured_peak(|| parse_request(&line));
    let Request::Submit(spec) = result.expect("sample must parse") else {
        panic!("not a submit");
    };
    assert_eq!(spec.app, "water");
    assert!(peak <= alloc_bound(line.len()), "peaked at {peak}");
}

/// Requests lying about sizes: giant strings, bloated lists, absurd
/// counts. Each draws a typed rejection with bounded allocation.
#[test]
fn lying_sizes_are_rejected_cheaply() {
    let long_name = "a".repeat(4096);
    let many_algos = format!(
        "[{}]",
        (0..(MAX_LIST_ITEMS + 1))
            .map(|_| "\"LOAD-BAL\"")
            .collect::<Vec<_>>()
            .join(", ")
    );
    let cases: Vec<(String, &str)> = vec![
        (
            submit_line(&SIM_JOB.replace("water", &long_name)),
            "oversized app name",
        ),
        (
            submit_line(&SIM_JOB.replace("[\"LOAD-BAL\"]", &many_algos)),
            "algorithm list beyond the cap",
        ),
        (
            submit_line(&SIM_JOB.replace("[4]", "[18446744073709551615]")),
            "processor count beyond u32",
        ),
        (
            submit_line(&SIM_JOB.replace("\"seed\": 3", "\"seed\": -3")),
            "negative seed",
        ),
        (
            "{\"schema\": \"placesim-service-v1\", \"op\": \"wait\", \"id\": 1, \
             \"timeout_ms\": 99999999999}"
                .to_string(),
            "wait timeout beyond the cap",
        ),
    ];
    for (line, why) in cases {
        let (peak, result) = measured_peak(|| parse_request(&line));
        assert!(result.is_err(), "`{why}` was accepted");
        assert!(peak <= alloc_bound(line.len()), "`{why}` peaked at {peak}");
    }
}

/// The strict JSON layer rejects duplicate keys, trailing garbage and
/// bare fragments before op dispatch ever runs.
#[test]
fn strict_json_defects_are_syntax_errors() {
    for (line, why) in [
        (
            "{\"schema\": \"placesim-service-v1\", \"op\": \"status\", \
             \"op\": \"shutdown\"}"
                .to_owned(),
            "duplicate op key",
        ),
        (
            "{\"schema\": \"placesim-service-v1\", \"op\": \"status\"} trailing".to_owned(),
            "trailing garbage",
        ),
        ("[1, 2, 3]".to_owned(), "array request"),
        ("\"status\"".to_owned(), "bare string request"),
        (String::new(), "empty frame"),
    ] {
        let (peak, result) = measured_peak(|| parse_request(&line));
        assert!(result.is_err(), "`{why}` was accepted");
        assert!(peak <= alloc_bound(line.len()), "`{why}` peaked at {peak}");
    }
}

/// An in-memory line beyond the frame cap is `Oversized` without ever
/// being parsed — peak allocation must not scale with a deep copy of
/// the flood.
#[test]
fn oversized_lines_shed_before_parsing() {
    let line = format!("{{\"pad\": \"{}\"}}", "x".repeat(MAX_FRAME_BYTES));
    let (peak, result) = measured_peak(|| parse_request(&line));
    assert_eq!(
        result,
        Err(ProtoError::Oversized {
            limit: MAX_FRAME_BYTES
        })
    );
    // The length check runs before the JSON parse: nothing beyond small
    // temporaries may be allocated.
    assert!(peak <= 64 * 1024, "oversized check allocated {peak}");
}

/// `read_frame` against hostile streams: newline-free floods cost at
/// most one frame buffer; truncation and junk UTF-8 are typed errors.
#[test]
fn hostile_streams_are_bounded() {
    // A 16 MiB flood with no newline: the limiter cuts the read at the
    // frame cap, so peak allocation is ~one frame, not the flood.
    let flood = vec![b'z'; 16 * 1024 * 1024];
    let (peak, result) = measured_peak(|| read_frame(Cursor::new(&flood)));
    assert_eq!(
        result,
        Err(ProtoError::Oversized {
            limit: MAX_FRAME_BYTES
        })
    );
    assert!(
        peak <= 4 * MAX_FRAME_BYTES,
        "flood read peaked at {peak} bytes"
    );

    let (_, result) = measured_peak(|| read_frame(Cursor::new(b"half a frame".as_slice())));
    assert_eq!(result, Err(ProtoError::Truncated));

    let (_, result) = measured_peak(|| read_frame(Cursor::new(b"\xff\xfe\xfd\n".as_slice())));
    assert!(matches!(result, Err(ProtoError::Syntax(_))));

    // Clean EOF before any bytes is a graceful `None`.
    let (_, result) = measured_peak(|| read_frame(Cursor::new(b"".as_slice())));
    assert_eq!(result, Ok(None));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary byte soup: parsing must return Ok or Err — never
    /// panic — with bounded peak allocation.
    #[test]
    fn arbitrary_bytes_never_overallocate(raw in proptest::collection::vec(0u8..=255, 0..512)) {
        let line = String::from_utf8_lossy(&raw).into_owned();
        let (peak, result) = measured_peak(|| parse_request(&line));
        drop(result);
        prop_assert!(
            peak <= alloc_bound(line.len()),
            "{} input bytes peaked at {} allocated bytes",
            line.len(),
            peak
        );
    }

    /// Valid submits with mutated and/or truncated text: graceful error
    /// or valid parse, never a panic or an outsized allocation.
    #[test]
    fn mutated_submits_never_overallocate(
        pos in 0usize..512,
        value in 0u8..=255,
        cut in 0usize..=512,
    ) {
        let mut line = submit_line(SIM_JOB).into_bytes();
        let idx = pos % line.len();
        line[idx] = value;
        if cut < 512 {
            line.truncate(cut % (line.len() + 1));
        }
        let text = String::from_utf8_lossy(&line).into_owned();
        let (peak, result) = measured_peak(|| parse_request(&text));
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
        let mut line = String::with_capacity(2 * depth + 64);
        line.push_str("{\"schema\": \"placesim-service-v1\", \"op\": \"submit\", \"job\": ");
        for _ in 0..depth {
            line.push('[');
        }
        for _ in 0..depth {
            line.push(']');
        }
        line.push('}');
        let (peak, result) = measured_peak(|| parse_request(&line));
        prop_assert!(result.is_err());
        prop_assert!(
            peak <= alloc_bound(line.len()),
            "depth {} peaked at {} allocated bytes",
            depth,
            peak
        );
    }

    /// Frames assembled from fragments of a valid request plus noise,
    /// pushed through the streaming reader: every outcome is typed and
    /// bounded.
    #[test]
    fn spliced_streams_never_overallocate(
        prefix_len in 0usize..96,
        noise in proptest::collection::vec(0u8..=255, 0..96),
        terminate in 0u8..=1,
    ) {
        let valid = submit_line(SIM_JOB);
        let mut stream = valid.as_bytes()[..prefix_len.min(valid.len())].to_vec();
        stream.extend_from_slice(&noise);
        if terminate == 1 {
            stream.push(b'\n');
        }
        let (peak, result) = measured_peak(|| {
            read_frame(Cursor::new(&stream)).and_then(|frame| match frame {
                Some(line) => parse_request(&line).map(Some),
                None => Ok(None),
            })
        });
        drop(result);
        prop_assert!(
            peak <= alloc_bound(stream.len()),
            "{} stream bytes peaked at {} allocated bytes",
            stream.len(),
            peak
        );
    }
}

/// The module's exported bounds stay wired to the constants the daemon
/// advertises — a drive-by rename would silently unbound the parser.
#[test]
fn exported_limits_are_sane() {
    // Checked at compile time: a violating constant fails the build.
    const {
        assert!(proto::MAX_FRAME_BYTES >= 1024);
        assert!(proto::MAX_LIST_ITEMS >= 2);
        assert!(proto::MAX_STRING_BYTES >= 16);
        assert!(proto::MAX_PROCESSORS >= 64);
        assert!(proto::MAX_WAIT_MS >= 1_000);
    }
}
