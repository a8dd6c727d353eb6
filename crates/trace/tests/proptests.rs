//! Property-based tests for the trace data model and its serialization.

use placesim_trace::hash::checksum64;
use placesim_trace::stream::{FileReader, ReadAt};
use placesim_trace::{
    compress, stream, Address, MemRef, ProgramTrace, RefKind, ThreadId, ThreadTrace,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_ref() -> impl Strategy<Value = MemRef> {
    (0u64..(1u64 << 40), 0u8..4).prop_map(|(addr, kind)| {
        let kind = match kind {
            0 => RefKind::Instr,
            1 => RefKind::Read,
            2 => RefKind::Write,
            _ => RefKind::Barrier,
        };
        MemRef::new(kind, Address::new(addr))
    })
}

fn arb_thread() -> impl Strategy<Value = ThreadTrace> {
    proptest::collection::vec(arb_ref(), 0..200).prop_map(|refs| refs.into_iter().collect())
}

fn arb_program() -> impl Strategy<Value = ProgramTrace> {
    (
        "[a-z0-9-]{0,16}",
        proptest::collection::vec(arb_thread(), 0..8),
    )
        .prop_map(|(name, threads)| ProgramTrace::new(name, threads))
}

/// Writes `bytes` to a fresh file in the temp directory.
fn temp_trace(bytes: &[u8]) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "placesim-trace-prop-{}-{}.trace",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// One thread's references, drained chunk by chunk, and the number of
/// chunks read.
fn drain<S: ReadAt>(reader: &FileReader<S>, tid: ThreadId) -> (Vec<MemRef>, usize) {
    let mut chunks = reader.chunks(tid);
    let mut refs = Vec::new();
    let mut steps = 0;
    while chunks.next_chunk(|r| refs.push(r)).unwrap() {
        steps += 1;
    }
    (refs, steps)
}

proptest! {
    #[test]
    fn pack_unpack_roundtrip(r in arb_ref()) {
        prop_assert_eq!(MemRef::unpack(r.pack()), Some(r));
    }

    #[test]
    fn thread_counts_are_consistent(t in arb_thread()) {
        prop_assert_eq!(
            t.instr_len() + t.read_len() + t.write_len() + t.barrier_len(),
            t.len() as u64
        );
        prop_assert_eq!(t.data_len(), t.read_len() + t.write_len());
        // Recount via iteration.
        let instrs = t.iter().filter(|r| r.kind == RefKind::Instr).count() as u64;
        prop_assert_eq!(instrs, t.instr_len());
    }

    #[test]
    fn compressed_roundtrip(prog in arb_program()) {
        let bytes = compress::to_bytes(&prog).unwrap();
        prop_assert_eq!(compress::from_bytes(&bytes).unwrap(), prog.clone());
        // read_any dispatches on the version word.
        prop_assert_eq!(compress::read_any(&bytes).unwrap(), prog);
    }

    /// Differential: the streaming v4 format round-trips every program
    /// exactly, at any chunk size (forcing single- and many-chunk
    /// threads alike), and the writer's summary matches the totals.
    #[test]
    fn streaming_v4_roundtrip(prog in arb_program(), chunk in 16usize..512) {
        let mut buf = Vec::new();
        let mut w = stream::StreamWriter::with_chunk_bytes(
            &mut buf,
            prog.name(),
            prog.thread_count(),
            chunk,
        )
        .unwrap();
        for (tid, t) in prog.iter() {
            w.append_thread(tid, t.iter()).unwrap();
        }
        let summary = w.finish().unwrap();
        prop_assert_eq!(summary.total_refs, prog.total_refs());
        prop_assert_eq!(summary.bytes_written as usize, buf.len());
        prop_assert_eq!(stream::from_bytes(&buf).unwrap(), prog.clone());
        // read_any dispatches v4 like v2.
        prop_assert_eq!(compress::read_any(&buf).unwrap(), prog.clone());

        // The per-thread reader sees exactly each thread's reference
        // stream, independent of the other threads.
        let reader = FileReader::parse(&buf).unwrap();
        for (tid, t) in prog.iter() {
            let expect: Vec<MemRef> = t.iter().collect();
            prop_assert_eq!(drain(&reader, tid).0, expect, "thread {}", tid);
        }
    }

    /// Differential: the v4 reader over a file and over the same bytes
    /// in memory, and `from_bytes`, yield identical references; chunk
    /// sizes from 16 to 511 bytes split threads into one chunk or many.
    #[test]
    fn file_and_slice_readers_and_from_bytes_agree(
        prog in arb_program(),
        chunk in 16usize..512,
    ) {
        let mut buf = Vec::new();
        let mut w = stream::StreamWriter::with_chunk_bytes(
            &mut buf,
            prog.name(),
            prog.thread_count(),
            chunk,
        )
        .unwrap();
        for (tid, t) in prog.iter() {
            w.append_thread(tid, t.iter()).unwrap();
        }
        w.finish().unwrap();
        let path = temp_trace(&buf);
        let file = FileReader::open(&path).unwrap();
        let slice = FileReader::parse(&buf).unwrap();
        let whole = stream::from_bytes(&buf).unwrap();
        for t in 0..prog.thread_count() {
            let tid = ThreadId::from_index(t);
            let (from_file, steps) = drain(&file, tid);
            let materialized: Vec<MemRef> = whole.thread(tid).iter().collect();
            prop_assert_eq!(steps, file.chunk_count(tid));
            prop_assert_eq!(&from_file, &drain(&slice, tid).0, "thread {}", tid);
            prop_assert_eq!(&from_file, &materialized, "thread {}", tid);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Every single-byte change of a payload changes its checksum, at
    /// every position and to every other value, and so does dropping or
    /// appending one byte. Lengths 0 to 64 include every tail length of
    /// the zero-padded last word.
    #[test]
    fn checksum_catches_every_single_byte_change(
        payload in proptest::collection::vec(0u8..=255, 0..65),
        appended in 0u8..=255,
    ) {
        let sum = checksum64(&payload);
        let mut changed = payload.clone();
        for i in 0..payload.len() {
            for flip in 1..=255u8 {
                changed[i] = payload[i] ^ flip;
                prop_assert_ne!(checksum64(&changed), sum, "byte {} ^ {}", i, flip);
            }
            changed[i] = payload[i];
        }
        if let Some((_, dropped)) = payload.split_last() {
            prop_assert_ne!(checksum64(dropped), sum);
        }
        // A zero byte pads into the last word unchanged: only the
        // length term tells the two apart.
        for extra in [0, appended] {
            let mut longer = payload.clone();
            longer.push(extra);
            prop_assert_ne!(checksum64(&longer), sum, "appended {}", extra);
        }
    }

    #[test]
    fn compressed_truncations_never_panic(prog in arb_program(), cut in 0usize..64) {
        let bytes = compress::to_bytes(&prog).unwrap();
        if cut < bytes.len() {
            prop_assert!(compress::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
