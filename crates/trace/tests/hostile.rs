//! Hostile-input tests: no malformed trace file may crash the decoders
//! or pre-allocate more than a small multiple of its own size.
//!
//! A custom global allocator tracks live and peak heap bytes, so every
//! test can assert a hard bound on the decoder's peak allocation: the
//! historical bug here was `Vec::with_capacity(thread_count)` on an
//! attacker-controlled count, which let a 16-byte file reserve ~100 GB.
//!
//! The allocator needs `unsafe` (the library itself forbids it; this
//! integration-test binary is a separate crate and opts in locally).

use placesim_trace::hash::{checksum64, fnv1a64};
use placesim_trace::{
    compress, stream, Address, MemRef, ProgramTrace, ThreadId, ThreadTrace, TraceError,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The allocation bound for a decode of `input_len` bytes: a small
/// multiple of the input (decoded references and per-thread bookkeeping
/// legitimately outgrow the compressed bytes) plus a fixed constant for
/// decoder temporaries.
fn alloc_bound(input_len: usize) -> usize {
    input_len * 16 + 64 * 1024
}

fn sample_program() -> ProgramTrace {
    let mk = |base: u64| -> ThreadTrace {
        (0..24)
            .map(|i| match i % 3 {
                0 => MemRef::instr(Address::new(base + 4 * i)),
                1 => MemRef::read(Address::new(base + 64 * i)),
                _ => MemRef::write(Address::new(base)),
            })
            .collect()
    };
    ProgramTrace::new("hostile-sample", vec![mk(0), mk(0x1000), mk(0x2000)])
}

/// Writes `bytes` to a fresh file in the temp directory.
fn temp_file(bytes: &[u8]) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "placesim-hostile-{}-{}.trace",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Opens `bytes` as a file the way `stream-profile` and
/// `analyze --stream` do, and drains every thread's chunks.
fn open_and_drain(bytes: &[u8]) -> Result<u64, TraceError> {
    let path = temp_file(bytes);
    let drained = stream::FileReader::open(&path).and_then(|reader| {
        let mut refs = 0;
        for t in 0..reader.thread_count() {
            let mut chunks = reader.chunks(ThreadId::from_index(t));
            while chunks.next_chunk(|_| refs += 1)? {}
        }
        Ok(refs)
    });
    std::fs::remove_file(&path).unwrap();
    drained
}

/// A v2 header claiming `thread_count` threads with no body at all.
fn v2_claiming_threads(thread_count: u64) -> Vec<u8> {
    let mut f = Vec::new();
    f.extend_from_slice(b"PSIM");
    f.extend_from_slice(&2u32.to_le_bytes());
    f.push(0); // empty name (varint 0)
    let mut v = thread_count;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            f.push(byte);
            break;
        }
        f.push(byte | 0x80);
    }
    f
}

/// Appends a LEB128 varint (the v2/v4 wire integer).
fn vp(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// A hand-built streaming file whose single chunk carries ONE real
/// record but whose headers and index claim `claimed_refs` references,
/// with the given version word, checksum function and trailer magic.
/// The chunk index is internally consistent (checksums verify, totals
/// match the index when `total_instr == claimed_refs`), so decoding
/// proceeds all the way into the chunk before the lie surfaces — the
/// worst case for count-driven preallocation.
fn streaming_file(
    version: u32,
    checksum: fn(&[u8]) -> u64,
    magic: &[u8; 4],
    claimed_refs: u64,
    total_instr: u64,
) -> Vec<u8> {
    let mut f = Vec::new();
    f.extend_from_slice(b"PSIM");
    f.extend_from_slice(&version.to_le_bytes());
    vp(&mut f, 0); // empty name
    vp(&mut f, 1); // one thread
    let data_start = f.len() as u64;
    let payload = [0u8]; // one record: instr at address 0
    vp(&mut f, 0); // thread
    vp(&mut f, claimed_refs);
    vp(&mut f, payload.len() as u64);
    f.extend_from_slice(&checksum(&payload).to_le_bytes());
    f.extend_from_slice(&payload);

    let mut footer = Vec::new();
    vp(&mut footer, 1); // chunk count
    vp(&mut footer, data_start); // first offset is absolute
    vp(&mut footer, claimed_refs);
    vp(&mut footer, payload.len() as u64);
    vp(&mut footer, total_instr); // instr
    vp(&mut footer, 0); // reads
    vp(&mut footer, 0); // writes
    vp(&mut footer, 0); // barriers
    f.extend_from_slice(&footer);
    f.extend_from_slice(&checksum(&footer).to_le_bytes());
    f.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    f.extend_from_slice(magic);
    f
}

/// [`streaming_file`] in the current (v4) format.
fn v4_lying_ref_count(claimed_refs: u64, total_instr: u64) -> Vec<u8> {
    streaming_file(
        stream::VERSION,
        checksum64,
        &stream::TRAILER_MAGIC,
        claimed_refs,
        total_instr,
    )
}

/// Lying chunk ref-count (2^40 claimed, 1 present): the decode must hit
/// "truncated chunk" territory, never abort, and never preallocate
/// anywhere near the claimed count.
#[test]
fn v4_lying_ref_count_is_rejected_with_clamped_prealloc() {
    let file = v4_lying_ref_count(1 << 40, 1 << 40);
    let (peak, result) = measured_peak(|| compress::read_any(&file));
    assert!(
        matches!(result, Err(TraceError::Format { .. })),
        "{result:?}"
    );
    assert!(
        peak <= alloc_bound(file.len()),
        "claimed 2^40 refs in {} bytes, peaked at {peak}",
        file.len()
    );
}

/// Footer totals disagreeing with the chunk index must be called out as
/// a footer/index mismatch before any chunk is decoded.
#[test]
fn v4_footer_index_mismatch_is_rejected() {
    let file = v4_lying_ref_count(7, 5);
    let (peak, result) = measured_peak(|| stream::from_bytes(&file));
    match result {
        Err(TraceError::Format { reason }) => {
            assert!(reason.contains("footer/index mismatch"), "{reason}")
        }
        other => panic!("expected footer/index mismatch, got {other:?}"),
    }
    assert!(peak <= alloc_bound(file.len()));
}

/// A footer whose per-chunk payload length reaches past the data region
/// is rejected at index-parse time.
#[test]
fn v4_lying_payload_length_is_rejected() {
    let mut file = v4_lying_ref_count(1, 1);
    // Rewrite the footer with a payload_len pointing far past the file.
    file.truncate(file.len() - 20 - 9); // drop trailer + 9-byte footer tail
    let data_start = 10u64;
    let mut footer = Vec::new();
    vp(&mut footer, 1);
    vp(&mut footer, data_start);
    vp(&mut footer, 1);
    vp(&mut footer, 1 << 40); // payload allegedly a terabyte
    for _ in 0..4 {
        vp(&mut footer, 0);
    }
    let footer_start = file.len();
    file.truncate(footer_start);
    file.extend_from_slice(&footer);
    file.extend_from_slice(&checksum64(&footer).to_le_bytes());
    file.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    file.extend_from_slice(&stream::TRAILER_MAGIC);
    let (peak, result) = measured_peak(|| stream::from_bytes(&file));
    assert!(
        matches!(result, Err(TraceError::Format { .. })),
        "{result:?}"
    );
    assert!(peak <= alloc_bound(file.len()));
}

/// A footer claiming 2^40 chunks for a thread, with no entries behind
/// it: the truncated varint errors out and the chunk-index vector's
/// preallocation is clamped by the remaining footer bytes.
#[test]
fn v4_hostile_chunk_count_stays_small() {
    let mut f = Vec::new();
    f.extend_from_slice(b"PSIM");
    f.extend_from_slice(&stream::VERSION.to_le_bytes());
    vp(&mut f, 0);
    vp(&mut f, 1);
    let mut footer = Vec::new();
    vp(&mut footer, 1 << 40); // chunk count, nothing follows
    f.extend_from_slice(&footer);
    f.extend_from_slice(&checksum64(&footer).to_le_bytes());
    f.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    f.extend_from_slice(&stream::TRAILER_MAGIC);
    let (peak, result) = measured_peak(|| stream::from_bytes(&f));
    assert!(matches!(result, Err(TraceError::Format { .. })));
    assert!(
        peak <= 64 * 1024,
        "hostile chunk count pre-allocated {peak} bytes"
    );
}

/// Flipping a chunk-payload byte in a valid v4 file trips the per-chunk
/// checksum, not an abort or a silent wrong decode.
#[test]
fn v4_corrupted_payload_is_detected_by_checksum() {
    let file = stream::to_bytes(&sample_program()).unwrap();
    // Header is 24 bytes (magic 4 + version 4 + name varint+14 + count
    // varint); the first chunk header is 11 more. Flip a byte safely
    // inside the first chunk's payload.
    let mut bad = file.clone();
    bad[40] ^= 0xff;
    let (peak, result) = measured_peak(|| stream::from_bytes(&bad));
    match result {
        Err(TraceError::Format { reason }) => assert!(reason.contains("checksum"), "{reason}"),
        other => panic!("expected checksum failure, got {other:?}"),
    }
    assert!(peak <= alloc_bound(bad.len()));
}

/// Truncating a v4 file anywhere must produce a clean error under the
/// allocation cap: the trailer, footer or chunk tiling breaks first.
#[test]
fn v4_truncations_never_overallocate() {
    let file = stream::to_bytes(&sample_program()).unwrap();
    for cut in [
        0,
        7,
        10,
        24,
        40,
        file.len() / 2,
        file.len() - 21,
        file.len() - 1,
    ] {
        let (peak, result) = measured_peak(|| compress::read_any(&file[..cut]));
        assert!(result.is_err(), "cut {cut} decoded");
        assert!(
            peak <= alloc_bound(cut),
            "cut {cut} peaked at {peak} allocated bytes"
        );
    }
}

/// A well-formed file of the retired version 3 (byte-serial FNV-1a
/// checksums, trailer magic `PSV3`) is refused by its version word on
/// every entry point, not reported as a checksum failure. The same
/// bytes in the current version decode, so the version word is the
/// only thing refused.
#[test]
fn v3_file_is_refused_by_its_version() {
    let old = streaming_file(3, fnv1a64, b"PSV3", 1, 1);
    let is_v3 = |e: &TraceError| {
        matches!(
            e,
            TraceError::Version {
                found: 3,
                supported: 4
            }
        )
    };
    let (peak, result) = measured_peak(|| compress::read_any(&old));
    assert!(result.as_ref().is_err_and(is_v3), "{result:?}");
    assert!(peak <= alloc_bound(old.len()));
    let parsed = stream::FileReader::parse(&old);
    assert!(parsed.as_ref().is_err_and(is_v3), "{parsed:?}");
    let opened = open_and_drain(&old);
    assert!(opened.as_ref().is_err_and(is_v3), "{opened:?}");

    let current = v4_lying_ref_count(1, 1);
    assert_eq!(current.len(), old.len());
    assert_eq!(compress::read_any(&current).unwrap().total_refs(), 1);
}

/// A 50-byte v4 file whose name-length varint is `u64::MAX`: opening it
/// as a file is a format error, like decoding the same bytes in memory,
/// not an overflowing header-size sum.
#[test]
fn v4_huge_name_length_is_rejected_when_opened() {
    let mut f = Vec::new();
    f.extend_from_slice(b"PSIM");
    f.extend_from_slice(&stream::VERSION.to_le_bytes());
    vp(&mut f, u64::MAX);
    f.resize(30, 0);
    f.extend_from_slice(&checksum64(&[]).to_le_bytes()); // empty footer
    f.extend_from_slice(&0u64.to_le_bytes());
    f.extend_from_slice(&stream::TRAILER_MAGIC);
    assert_eq!(f.len(), 50);
    let path = temp_file(&f);
    let (peak, opened) = measured_peak(|| stream::FileReader::open(&path));
    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(opened, Err(TraceError::Format { .. })),
        "{opened:?}"
    );
    assert!(peak <= alloc_bound(f.len()), "open peaked at {peak}");
    let decoded = stream::from_bytes(&f);
    assert!(
        matches!(decoded, Err(TraceError::Format { .. })),
        "{decoded:?}"
    );
}

/// A file of the retired version 1 (fixed 8-byte records) is refused
/// by its version word, even one whose header claims 4 billion threads.
#[test]
fn v1_file_is_refused_by_its_version() {
    let mut f = Vec::new();
    f.extend_from_slice(b"PSIM");
    f.extend_from_slice(&1u32.to_le_bytes());
    f.extend_from_slice(&0u32.to_le_bytes()); // empty name
    f.extend_from_slice(&u32::MAX.to_le_bytes()); // thread count
    let (peak, result) = measured_peak(|| compress::read_any(&f));
    assert!(
        matches!(
            result,
            Err(TraceError::Version {
                found: 1,
                supported: 4
            })
        ),
        "{result:?}"
    );
    assert!(peak <= alloc_bound(f.len()), "v1 header peaked at {peak}");
}

#[test]
fn v2_header_claiming_huge_thread_count_stays_small() {
    let file = v2_claiming_threads(1 << 40);
    let (peak, result) = measured_peak(|| compress::read_any(&file));
    assert!(matches!(result, Err(TraceError::Format { .. })));
    assert!(
        peak <= 64 * 1024,
        "hostile v2 header pre-allocated {peak} bytes"
    );
}

#[test]
fn huge_name_length_is_rejected_without_allocation() {
    let mut f = Vec::new();
    f.extend_from_slice(b"PSIM");
    f.extend_from_slice(&2u32.to_le_bytes());
    // Varint name length ~2^40.
    f.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
    let (peak, result) = measured_peak(|| compress::read_any(&f));
    assert!(matches!(result, Err(TraceError::Format { .. })));
    assert!(peak <= 64 * 1024, "pre-allocated {peak}");
}

#[test]
fn v2_huge_per_thread_length_stays_small() {
    let mut f = v2_claiming_threads(1);
    // One thread whose length varint claims ~2^40 references.
    f.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
    let (peak, result) = measured_peak(|| compress::read_any(&f));
    assert!(matches!(result, Err(TraceError::Format { .. })));
    assert!(
        peak <= 64 * 1024,
        "hostile thread length pre-allocated {peak}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary byte soup: decoding must return (Ok or Err, never
    /// panic) with bounded peak allocation.
    #[test]
    fn arbitrary_bytes_never_overallocate(raw in proptest::collection::vec(0u8..=255, 0..256)) {
        let (peak, result) = measured_peak(|| compress::read_any(&raw));
        drop(result);
        prop_assert!(
            peak <= alloc_bound(raw.len()),
            "{} input bytes peaked at {} allocated bytes",
            raw.len(),
            peak
        );
    }

    /// Valid v2 files with mutated bytes: graceful error or valid
    /// decode, never a panic or an outsized allocation.
    #[test]
    fn mutated_v2_files_never_overallocate(
        pos in 0usize..512,
        value in 0u8..=255,
        cut in 0usize..=512,
    ) {
        let mut file = compress::to_bytes(&sample_program()).unwrap();
        let idx = pos % file.len();
        file[idx] = value;
        if cut < 512 {
            file.truncate(cut % (file.len() + 1));
        }
        let (peak, result) = measured_peak(|| compress::read_any(&file));
        drop(result);
        prop_assert!(
            peak <= alloc_bound(file.len()),
            "{} input bytes peaked at {} allocated bytes",
            file.len(),
            peak
        );
    }

    /// Same for the streaming v4 format: mutate and/or truncate a valid
    /// file anywhere (header, chunks, footer, trailer) — graceful error
    /// or valid decode, never a panic or an outsized allocation. The
    /// same bytes opened as a file and drained thread by thread, the
    /// path the streamed profile runs, meet the same bound and end the
    /// same way.
    #[test]
    fn mutated_v4_files_never_overallocate(
        pos in 0usize..4096,
        value in 0u8..=255,
        cut in 0usize..=4096,
    ) {
        let mut file = stream::to_bytes(&sample_program()).unwrap();
        let idx = pos % file.len();
        file[idx] = value;
        if cut < 4096 {
            file.truncate(cut % (file.len() + 1));
        }
        let (peak, result) = measured_peak(|| compress::read_any(&file));
        drop(result);
        prop_assert!(
            peak <= alloc_bound(file.len()),
            "{} input bytes peaked at {} allocated bytes",
            file.len(),
            peak
        );
        let (peak, opened) = measured_peak(|| open_and_drain(&file));
        prop_assert!(
            peak <= alloc_bound(file.len()),
            "{} bytes opened as a file peaked at {} allocated bytes",
            file.len(),
            peak
        );
        let decoded = stream::from_bytes(&file);
        prop_assert_eq!(opened.is_ok(), decoded.is_ok(), "{:?} vs {:?}", opened, decoded);
    }

    /// Hostile thread counts over the whole u64 range, with a few real
    /// body bytes appended: always a graceful error or decode, always
    /// bounded.
    #[test]
    fn claimed_thread_counts_never_overallocate(
        count in 0u64..=u64::MAX,
        body in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut file = v2_claiming_threads(count);
        file.extend_from_slice(&body);
        let (peak, result) = measured_peak(|| compress::from_bytes(&file));
        drop(result);
        prop_assert!(
            peak <= alloc_bound(file.len()),
            "claimed {} threads, {} input bytes, peaked at {}",
            count,
            file.len(),
            peak
        );
    }
}
