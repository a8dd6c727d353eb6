//! Streaming chunked trace serialization (format version 4).
//!
//! Versions 1 and 2 are monolithic: a reader must materialize the whole
//! `ProgramTrace` before it can look at a single reference, so the
//! largest traces are capped by RAM long before they are capped by CPU.
//! Version 4 keeps the v2 varint record encoding but splits the stream
//! into independently decodable, checksummed chunks with a per-thread
//! index in a footer:
//!
//! ```text
//! header   magic "PSIM" · version u32 LE = 4 · name (varint len + UTF-8)
//!          · thread count (varint)
//! chunk*   thread (varint) · ref count (varint) · payload len (varint)
//!          · checksum64(payload) u64 LE
//!          · payload: v2 varint records, delta base reset to 0
//! footer   per thread: chunk count (varint), then per chunk
//!            (offset delta, ref count, payload len) varints,
//!            then totals (instr, reads, writes, barriers) varints
//! trailer  checksum64(footer) u64 LE · footer len u64 LE · magic "PSV4"
//!
//! checksum64(b)  h = SEED; for each little-endian 8-byte word w of b,
//!                the last zero-padded: h = rotl((h ^ w) · MUL, 29);
//!                then fmix64(h ^ len(b))
//! ```
//!
//! [`crate::hash::checksum64`] is the one definition. Each word step is
//! a bijection of the state (and of the word, for a fixed state), so
//! any change confined to one word, in particular any single-byte
//! change, always changes the checksum; the length term separates
//! payloads that differ only in trailing zero bytes. Working on whole
//! words takes one multiply per 8 bytes where a byte-serial checksum
//! (FNV-1a, which version 3 used) takes one per byte, and every chunk
//! is checksummed before it decodes. Version 3 files are refused with
//! [`TraceError::Version`]; regenerate them.
//!
//! Because every chunk resets its delta base, a chunk decodes from its
//! own bytes alone; because the footer indexes chunks by thread, a
//! reader iterates one thread's references without touching any other
//! thread's bytes. The trailer sits at a fixed position relative to the
//! file end, so a reader finds the footer with two seeks and never
//! scans the data region.
//!
//! Three access paths are provided:
//!
//! * [`TraceFile`] / [`ChunkReader`] — zero-copy decode from a borrowed
//!   `&[u8]` (e.g. an mmap). Allocation is proportional to the *chunk
//!   index*, never to the number of references.
//! * [`FileReader`] / [`FileChunks`] — out-of-core decode from a file,
//!   one chunk resident at a time per reader.
//! * [`from_bytes`] — full materialization into a [`ProgramTrace`],
//!   used by [`crate::compress::read_any`] for version dispatch.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), placesim_trace::TraceError> {
//! use placesim_trace::{stream, Address, MemRef, ProgramTrace, ThreadTrace, ThreadId};
//!
//! let t: ThreadTrace = (0..100).map(|i| MemRef::instr(Address::new(4 * i))).collect();
//! let prog = ProgramTrace::new("small", vec![t]);
//!
//! let v4 = stream::to_bytes(&prog)?;
//! assert_eq!(stream::from_bytes(&v4)?, prog);
//!
//! // Zero-copy per-thread iteration.
//! let file = stream::TraceFile::parse(&v4)?;
//! let refs: Result<Vec<_>, _> = file.chunk_reader(ThreadId::new(0)).collect();
//! assert_eq!(refs?.len(), 100);
//! # Ok(())
//! # }
//! ```

use crate::compress::{get_varint, put_varint, unzigzag, zigzag, MAGIC};
use crate::hash::checksum64;
use crate::record::{Address, MemRef, RefKind, ThreadId};
use crate::{ProgramTrace, ThreadTrace, TraceError};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Version tag of the streaming format.
pub const VERSION: u32 = 4;
/// Magic at the very end of the file, locating the footer.
pub const TRAILER_MAGIC: [u8; 4] = *b"PSV4";
/// Default target payload size of one chunk.
pub const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Fixed trailer: footer checksum (8) + footer length (8) + magic (4).
const TRAILER_LEN: usize = 20;
/// Smallest possible chunk: three 1-byte varints + 8-byte checksum.
const MIN_CHUNK_HEADER: u64 = 11;
/// Largest chunk header: three 10-byte varints + 8-byte checksum.
const MAX_CHUNK_HEADER: u64 = 38;

fn format_err<T>(reason: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError::Format {
        reason: reason.into(),
    })
}

/// Encoded size of a LEB128 varint.
fn varint_len(mut v: u64) -> u64 {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Per-thread reference counts by kind, recorded in the footer so
/// readers can size buffers and report lengths without decoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Instruction fetches.
    pub instr: u64,
    /// Data reads.
    pub reads: u64,
    /// Data writes.
    pub writes: u64,
    /// Barrier markers.
    pub barriers: u64,
}

impl KindTotals {
    /// Total references of all kinds.
    #[must_use]
    pub fn refs(&self) -> u64 {
        self.instr + self.reads + self.writes + self.barriers
    }

    fn count(&mut self, kind: RefKind) {
        match kind {
            RefKind::Instr => self.instr += 1,
            RefKind::Read => self.reads += 1,
            RefKind::Write => self.writes += 1,
            RefKind::Barrier => self.barriers += 1,
        }
    }
}

/// Location and claimed shape of one chunk, from the footer index.
#[derive(Clone, Copy, Debug)]
struct ChunkMeta {
    /// File offset of the chunk header.
    offset: u64,
    /// References encoded in the chunk payload.
    ref_count: u64,
    /// Payload bytes (excluding the chunk header).
    payload_len: u64,
}

/// Footer index entry for one thread.
#[derive(Clone, Debug, Default)]
struct ThreadIndex {
    chunks: Vec<ChunkMeta>,
    totals: KindTotals,
}

/// The references of one verified chunk payload: `left` v2 varint
/// records remain, delta-decoded against `prev` (0 at the chunk start).
/// This is the format's one record decoder: [`ChunkReader`] pulls from
/// it a record at a time and [`FileChunks`] drains it into a consumer.
#[derive(Debug, Default)]
struct Payload<'a> {
    bytes: &'a [u8],
    left: u64,
    prev: i64,
}

impl Payload<'_> {
    /// Decodes the next record; `None` once all `left` are out, which
    /// must also be the end of the bytes.
    #[inline]
    fn next_ref(&mut self) -> Result<Option<MemRef>, TraceError> {
        if self.left == 0 {
            if !self.bytes.is_empty() {
                return format_err(format!(
                    "chunk payload has {} trailing bytes",
                    self.bytes.len()
                ));
            }
            return Ok(None);
        }
        let word = get_varint(&mut self.bytes)?;
        let kind = RefKind::from_tag(word & 3).expect("2-bit tag");
        let delta = unzigzag(word >> 2);
        let addr = match self.prev.checked_add(delta) {
            Some(a) if (0..=Address::MAX.raw() as i64).contains(&a) => a,
            _ => return format_err("decoded address out of range"),
        };
        self.prev = addr;
        self.left -= 1;
        Ok(Some(MemRef::new(kind, Address::new(addr as u64))))
    }
}

/// Checks the chunk at the front of `chunk` against its footer index
/// entry and its checksum, and returns its payload ready to decode.
/// `chunk` may run past the chunk's end. No record is decoded before
/// the checksum has verified.
fn verified_payload<'a>(
    chunk: &'a [u8],
    meta: &ChunkMeta,
    thread: u64,
) -> Result<Payload<'a>, TraceError> {
    let mut cursor = chunk;
    let chunk_thread = get_varint(&mut cursor)?;
    let ref_count = get_varint(&mut cursor)?;
    let payload_len = get_varint(&mut cursor)?;
    if chunk_thread != thread || ref_count != meta.ref_count || payload_len != meta.payload_len {
        return format_err(format!(
            "footer/index mismatch: chunk at offset {} disagrees with its index entry",
            meta.offset
        ));
    }
    if cursor.len() < 8 + payload_len as usize {
        return format_err("truncated chunk");
    }
    let (sum, rest) = cursor.split_at(8);
    let checksum = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
    let bytes = &rest[..payload_len as usize];
    if checksum64(bytes) != checksum {
        return format_err(format!("chunk checksum mismatch at offset {}", meta.offset));
    }
    Ok(Payload {
        bytes,
        left: ref_count,
        prev: 0,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Totals returned by [`StreamWriter::finish`].
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// References written across all threads.
    pub total_refs: u64,
    /// Bytes written, including header, footer and trailer.
    pub bytes_written: u64,
    /// Per-thread reference counts by kind.
    pub totals: Vec<KindTotals>,
}

/// Incremental v4 writer over any byte sink.
///
/// References are appended one thread run at a time; a chunk is flushed
/// whenever its payload reaches the target size or the writer switches
/// threads, so peak memory is one chunk regardless of trace length. The
/// sink only needs [`Write`] — offsets are tracked by counting.
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    w: W,
    offset: u64,
    threads: Vec<ThreadIndex>,
    chunk_target: usize,
    cur_thread: Option<ThreadId>,
    payload: Vec<u8>,
    refs_in_chunk: u64,
    prev: i64,
}

impl<W: Write> StreamWriter<W> {
    /// Starts a v4 stream with the default chunk size and writes the
    /// header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the sink fails, and
    /// [`TraceError::Format`] if `thread_count` exceeds the
    /// [`ThreadId`] range.
    pub fn new(w: W, name: &str, thread_count: usize) -> Result<Self, TraceError> {
        Self::with_chunk_bytes(w, name, thread_count, DEFAULT_CHUNK_BYTES)
    }

    /// Starts a v4 stream with an explicit chunk payload target.
    ///
    /// # Errors
    ///
    /// See [`StreamWriter::new`].
    pub fn with_chunk_bytes(
        mut w: W,
        name: &str,
        thread_count: usize,
        chunk_bytes: usize,
    ) -> Result<Self, TraceError> {
        if thread_count > usize::from(u16::MAX) + 1 {
            return format_err(format!(
                "thread count {thread_count} exceeds ThreadId range"
            ));
        }
        let mut head = Vec::with_capacity(16 + name.len());
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        put_varint(&mut head, name.len() as u64);
        head.extend_from_slice(name.as_bytes());
        put_varint(&mut head, thread_count as u64);
        w.write_all(&head)?;
        Ok(Self {
            w,
            offset: head.len() as u64,
            threads: vec![ThreadIndex::default(); thread_count],
            chunk_target: chunk_bytes.max(16),
            cur_thread: None,
            payload: Vec::with_capacity(chunk_bytes.max(16) + 16),
            refs_in_chunk: 0,
            prev: 0,
        })
    }

    /// Appends one reference to `thread`'s stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if flushing a completed chunk fails.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is outside the count declared at creation.
    pub fn push(&mut self, thread: ThreadId, r: MemRef) -> Result<(), TraceError> {
        assert!(
            thread.index() < self.threads.len(),
            "thread {thread} outside declared count {}",
            self.threads.len()
        );
        if self.cur_thread != Some(thread) {
            self.flush_chunk()?;
            self.cur_thread = Some(thread);
        }
        let addr = r.addr.raw() as i64;
        put_varint(
            &mut self.payload,
            zigzag(addr - self.prev) << 2 | r.kind.to_tag(),
        );
        self.prev = addr;
        self.refs_in_chunk += 1;
        self.threads[thread.index()].totals.count(r.kind);
        if self.payload.len() >= self.chunk_target {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends a whole run of references for one thread.
    ///
    /// # Errors
    ///
    /// See [`StreamWriter::push`].
    pub fn append_thread(
        &mut self,
        thread: ThreadId,
        refs: impl IntoIterator<Item = MemRef>,
    ) -> Result<(), TraceError> {
        for r in refs {
            self.push(thread, r)?;
        }
        Ok(())
    }

    /// Writes out the buffered chunk, if any, and records its index
    /// entry.
    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        self.prev = 0;
        if self.refs_in_chunk == 0 {
            return Ok(());
        }
        let thread = self.cur_thread.expect("refs imply a current thread");
        let mut head = Vec::with_capacity(38);
        put_varint(&mut head, thread.index() as u64);
        put_varint(&mut head, self.refs_in_chunk);
        put_varint(&mut head, self.payload.len() as u64);
        head.extend_from_slice(&checksum64(&self.payload).to_le_bytes());
        self.w.write_all(&head)?;
        self.w.write_all(&self.payload)?;
        self.threads[thread.index()].chunks.push(ChunkMeta {
            offset: self.offset,
            ref_count: self.refs_in_chunk,
            payload_len: self.payload.len() as u64,
        });
        self.offset += head.len() as u64 + self.payload.len() as u64;
        self.payload.clear();
        self.refs_in_chunk = 0;
        Ok(())
    }

    /// Flushes the final chunk, writes the footer and trailer, and
    /// returns what was written.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the sink fails.
    pub fn finish(mut self) -> Result<StreamSummary, TraceError> {
        self.flush_chunk()?;
        let mut footer = Vec::new();
        for idx in &self.threads {
            put_varint(&mut footer, idx.chunks.len() as u64);
            let mut prev_off = 0u64;
            for c in &idx.chunks {
                put_varint(&mut footer, c.offset - prev_off);
                put_varint(&mut footer, c.ref_count);
                put_varint(&mut footer, c.payload_len);
                prev_off = c.offset;
            }
            put_varint(&mut footer, idx.totals.instr);
            put_varint(&mut footer, idx.totals.reads);
            put_varint(&mut footer, idx.totals.writes);
            put_varint(&mut footer, idx.totals.barriers);
        }
        self.w.write_all(&footer)?;
        self.w.write_all(&checksum64(&footer).to_le_bytes())?;
        self.w.write_all(&(footer.len() as u64).to_le_bytes())?;
        self.w.write_all(&TRAILER_MAGIC)?;
        self.w.flush()?;
        let totals: Vec<KindTotals> = self.threads.iter().map(|t| t.totals).collect();
        Ok(StreamSummary {
            total_refs: totals.iter().map(KindTotals::refs).sum(),
            bytes_written: self.offset + footer.len() as u64 + TRAILER_LEN as u64,
            totals,
        })
    }
}

/// Serializes a program trace in the streaming v4 format.
///
/// # Errors
///
/// Returns [`TraceError::Io`] if the sink fails.
pub fn write_program<W: Write>(prog: &ProgramTrace, w: W) -> Result<(), TraceError> {
    let mut sw = StreamWriter::new(w, prog.name(), prog.thread_count())?;
    for (tid, thread) in prog.iter() {
        sw.append_thread(tid, thread.iter())?;
    }
    sw.finish()?;
    Ok(())
}

/// Serializes into an owned buffer.
///
/// # Errors
///
/// See [`write_program`].
pub fn to_bytes(prog: &ProgramTrace) -> Result<Vec<u8>, TraceError> {
    let mut buf = Vec::new();
    write_program(prog, &mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Shared header/footer parsing
// ---------------------------------------------------------------------------

/// Parsed v4 header: trace name plus the cursor offset of the first
/// chunk.
struct Header {
    name: String,
    thread_count: u64,
    data_start: u64,
}

/// Parses the fixed prefix (`magic · version`) and returns the rest.
fn check_magic_version(raw: &[u8]) -> Result<&[u8], TraceError> {
    if raw.len() < 8 {
        return format_err("truncated header");
    }
    let (magic, rest) = raw.split_at(4);
    if magic != MAGIC {
        return format_err(format!("bad magic {magic:?}"));
    }
    let (ver, rest) = rest.split_at(4);
    let version = u32::from_le_bytes(ver.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(TraceError::Version {
            found: version,
            supported: VERSION,
        });
    }
    Ok(rest)
}

/// Parses the v4 header from the front of `raw`.
fn parse_header(raw: &[u8]) -> Result<Header, TraceError> {
    let rest = check_magic_version(raw)?;
    let mut cursor = rest;
    let name_len = get_varint(&mut cursor)? as usize;
    if cursor.len() < name_len {
        return format_err("truncated name");
    }
    let (name_bytes, rest) = cursor.split_at(name_len);
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| TraceError::Format {
            reason: "name is not UTF-8".into(),
        })?
        .to_owned();
    cursor = rest;
    let thread_count = get_varint(&mut cursor)?;
    if thread_count > u64::from(u16::MAX) + 1 {
        return format_err(format!(
            "thread count {thread_count} exceeds ThreadId range"
        ));
    }
    Ok(Header {
        name,
        thread_count,
        data_start: (raw.len() - cursor.len()) as u64,
    })
}

/// Locates and checksums the footer given the file length and the last
/// [`TRAILER_LEN`] bytes; returns the footer payload's file range.
fn locate_footer(file_len: u64, trailer: &[u8; TRAILER_LEN]) -> Result<(u64, u64), TraceError> {
    if trailer[16..] != TRAILER_MAGIC {
        return format_err("missing v4 trailer magic");
    }
    let checksum = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
    let footer_len = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    let trailer_start = file_len - TRAILER_LEN as u64;
    let footer_start = trailer_start
        .checked_sub(footer_len)
        .ok_or(TraceError::Format {
            reason: "footer length exceeds file".into(),
        })?;
    Ok((footer_start, checksum))
}

/// Parses the footer payload into per-thread chunk indexes, validating
/// that the indexed chunks exactly tile the data region
/// `[data_start, footer_start)` and that per-thread totals agree with
/// the per-chunk reference counts.
fn parse_footer(
    payload: &[u8],
    thread_count: u64,
    data_start: u64,
    footer_start: u64,
) -> Result<Vec<ThreadIndex>, TraceError> {
    let mut cursor = payload;
    // The counts come from the file; bound every pre-allocation by what
    // the remaining footer bytes could actually encode (a thread entry
    // is at least 5 varint bytes, a chunk entry at least 3).
    let mut threads = Vec::with_capacity((thread_count as usize).min(payload.len() / 5 + 1));
    for t in 0..thread_count {
        let chunk_count = get_varint(&mut cursor)?;
        let mut chunks = Vec::with_capacity((chunk_count as usize).min(cursor.len() / 3 + 1));
        let mut prev_off = 0u64;
        let mut indexed_refs = 0u64;
        for _ in 0..chunk_count {
            let delta = get_varint(&mut cursor)?;
            let ref_count = get_varint(&mut cursor)?;
            let payload_len = get_varint(&mut cursor)?;
            let offset = prev_off.checked_add(delta).ok_or(TraceError::Format {
                reason: "chunk offset overflows".into(),
            })?;
            prev_off = offset;
            if ref_count == 0 {
                return format_err(format!("empty chunk indexed for thread {t}"));
            }
            let end = offset
                .checked_add(MIN_CHUNK_HEADER)
                .and_then(|o| o.checked_add(payload_len));
            if offset < data_start || end.is_none_or(|end| end > footer_start) {
                return format_err(format!(
                    "chunk index for thread {t} points outside the data region"
                ));
            }
            indexed_refs = indexed_refs.wrapping_add(ref_count);
            chunks.push(ChunkMeta {
                offset,
                ref_count,
                payload_len,
            });
        }
        let totals = KindTotals {
            instr: get_varint(&mut cursor)?,
            reads: get_varint(&mut cursor)?,
            writes: get_varint(&mut cursor)?,
            barriers: get_varint(&mut cursor)?,
        };
        if totals.refs() != indexed_refs {
            return format_err(format!(
                "footer/index mismatch: thread {t} totals claim {} refs, chunks claim {indexed_refs}",
                totals.refs()
            ));
        }
        threads.push(ThreadIndex { chunks, totals });
    }
    if !cursor.is_empty() {
        return format_err(format!("{} trailing bytes in footer", cursor.len()));
    }

    // The indexed chunks must exactly tile the data region: no gaps for
    // unindexed bytes to hide in, no overlaps, no length lies.
    let mut spans: Vec<(u64, u64)> =
        Vec::with_capacity(threads.iter().map(|i| i.chunks.len()).sum::<usize>());
    for (t, idx) in threads.iter().enumerate() {
        for c in &idx.chunks {
            let head =
                varint_len(t as u64) + varint_len(c.ref_count) + varint_len(c.payload_len) + 8;
            spans.push((c.offset, head + c.payload_len));
        }
    }
    spans.sort_unstable();
    let mut cursor_off = data_start;
    for (off, len) in spans {
        if off != cursor_off {
            return format_err("chunk index does not tile the data region");
        }
        cursor_off += len;
    }
    if cursor_off != footer_start {
        return format_err("chunk index does not tile the data region");
    }
    Ok(threads)
}

// ---------------------------------------------------------------------------
// Zero-copy slice reader
// ---------------------------------------------------------------------------

/// A parsed v4 trace over a borrowed byte slice (mmap-friendly).
///
/// Parsing reads only the header and footer; chunk payloads are
/// checksummed and decoded lazily, per thread, by [`ChunkReader`].
/// Allocation is proportional to the chunk index, never to the number
/// of references.
#[derive(Debug)]
pub struct TraceFile<'a> {
    raw: &'a [u8],
    name: String,
    threads: Vec<ThreadIndex>,
}

impl<'a> TraceFile<'a> {
    /// Parses the header and footer of a v4 trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] on malformed input,
    /// [`TraceError::Version`] on a version mismatch.
    pub fn parse(raw: &'a [u8]) -> Result<Self, TraceError> {
        check_magic_version(raw)?;
        if raw.len() < 8 + TRAILER_LEN {
            return format_err("truncated trailer");
        }
        let trailer: &[u8; TRAILER_LEN] =
            raw[raw.len() - TRAILER_LEN..].try_into().expect("20 bytes");
        let (footer_start, checksum) = locate_footer(raw.len() as u64, trailer)?;
        let header = parse_header(raw)?;
        if footer_start < header.data_start {
            return format_err("footer overlaps header");
        }
        let footer = &raw[footer_start as usize..raw.len() - TRAILER_LEN];
        if checksum64(footer) != checksum {
            return format_err("footer checksum mismatch");
        }
        let threads = parse_footer(footer, header.thread_count, header.data_start, footer_start)?;
        Ok(Self {
            raw,
            name: header.name,
            threads,
        })
    }

    /// Trace name from the header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of threads declared in the header.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Footer totals for one thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[must_use]
    pub fn totals(&self, thread: ThreadId) -> KindTotals {
        self.threads[thread.index()].totals
    }

    /// Total references across all threads, from the footer.
    #[must_use]
    pub fn total_refs(&self) -> u64 {
        self.threads.iter().map(|t| t.totals.refs()).sum()
    }

    /// A zero-copy reader over one thread's references.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[must_use]
    pub fn chunk_reader(&self, thread: ThreadId) -> ChunkReader<'_> {
        ChunkReader {
            raw: self.raw,
            chunks: self.threads[thread.index()].chunks.iter(),
            thread: thread.index() as u64,
            cur: Payload::default(),
            failed: false,
        }
    }
}

/// Iterator over one thread's references, decoding chunk payloads in
/// place from the borrowed file bytes.
///
/// Each chunk's header is cross-checked against the footer index and
/// its payload checksummed before any record is yielded. After the
/// first error the iterator fuses and yields nothing further.
#[derive(Debug)]
pub struct ChunkReader<'a> {
    raw: &'a [u8],
    chunks: std::slice::Iter<'a, ChunkMeta>,
    thread: u64,
    cur: Payload<'a>,
    failed: bool,
}

impl ChunkReader<'_> {
    fn step(&mut self) -> Result<Option<MemRef>, TraceError> {
        loop {
            if let Some(r) = self.cur.next_ref()? {
                return Ok(Some(r));
            }
            let Some(meta) = self.chunks.next() else {
                return Ok(None);
            };
            self.cur = verified_payload(&self.raw[meta.offset as usize..], meta, self.thread)?;
        }
    }
}

impl Iterator for ChunkReader<'_> {
    type Item = Result<MemRef, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.step() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Out-of-core file reader
// ---------------------------------------------------------------------------

/// A v4 trace on disk, opened by reading only the header and footer.
///
/// Each call to [`FileReader::chunks`] opens an independent file
/// handle, so multiple threads' streams can be consumed concurrently
/// from one `FileReader`.
#[derive(Debug)]
pub struct FileReader {
    path: PathBuf,
    name: String,
    threads: Vec<ThreadIndex>,
    footer_start: u64,
    footer_len: u64,
}

impl FileReader {
    /// Opens a v4 trace file and parses its header and footer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures and the
    /// [`TraceFile::parse`] errors on malformed content.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < 8 + TRAILER_LEN as u64 {
            return format_err("truncated trailer");
        }

        // The header's size depends on the name length it carries, so
        // probe a small prefix first, then read exactly enough. The
        // probe also checks the version word before the trailer is
        // read, so a file of another version is refused as such. Every
        // read is bounded by the real file length.
        let probe_len = (file_len - TRAILER_LEN as u64).min(64) as usize;
        let mut probe = vec![0u8; probe_len];
        file.read_exact(&mut probe)?;
        check_magic_version(&probe)?;

        let mut trailer = [0u8; TRAILER_LEN];
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        file.read_exact(&mut trailer)?;
        let (footer_start, checksum) = locate_footer(file_len, &trailer)?;

        let mut cursor = &probe[8..];
        let name_len = get_varint(&mut cursor)?;
        let head_len = (8 + varint_len(name_len) + name_len + 10).min(footer_start) as usize;
        let mut head = vec![0u8; head_len];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head)?;
        let header = parse_header(&head)?;
        if footer_start < header.data_start {
            return format_err("footer overlaps header");
        }

        let footer_len = file_len - TRAILER_LEN as u64 - footer_start;
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(footer_start))?;
        file.read_exact(&mut footer)?;
        if checksum64(&footer) != checksum {
            return format_err("footer checksum mismatch");
        }
        let threads = parse_footer(
            &footer,
            header.thread_count,
            header.data_start,
            footer_start,
        )?;
        Ok(Self {
            path,
            name: header.name,
            threads,
            footer_start,
            footer_len,
        })
    }

    /// Trace name from the header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of threads declared in the header.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Footer totals for one thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[must_use]
    pub fn totals(&self, thread: ThreadId) -> KindTotals {
        self.threads[thread.index()].totals
    }

    /// Per-thread instruction counts, in thread order (the quantity
    /// placement algorithms use as thread length).
    #[must_use]
    pub fn instr_lengths(&self) -> Vec<u64> {
        self.threads.iter().map(|t| t.totals.instr).collect()
    }

    /// Total references across all threads, from the footer.
    #[must_use]
    pub fn total_refs(&self) -> u64 {
        self.threads.iter().map(|t| t.totals.refs()).sum()
    }

    /// Number of data chunks the footer indexes for one thread, i.e.
    /// how many bounded-memory read steps [`FileReader::chunks`] takes.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[must_use]
    pub fn chunk_count(&self, thread: ThreadId) -> usize {
        self.threads[thread.index()].chunks.len()
    }

    /// Checksummed payload bytes the footer indexes for one thread
    /// (chunk payloads only, excluding the per-chunk headers).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[must_use]
    pub fn payload_bytes(&self, thread: ThreadId) -> u64 {
        self.threads[thread.index()]
            .chunks
            .iter()
            .map(|c| c.payload_len)
            .sum()
    }

    /// Total chunks indexed across all threads.
    #[must_use]
    pub fn total_chunks(&self) -> usize {
        self.threads.iter().map(|t| t.chunks.len()).sum()
    }

    /// Total checksummed payload bytes across all threads.
    #[must_use]
    pub fn total_payload_bytes(&self) -> u64 {
        (0..self.threads.len())
            .map(|t| self.payload_bytes(ThreadId::from_index(t)))
            .sum()
    }

    /// File offset where the footer index begins — equivalently, the
    /// end of the chunk data region the index tiles exactly.
    #[must_use]
    pub fn footer_start(&self) -> u64 {
        self.footer_start
    }

    /// Length in bytes of the footer index (the region the trailer
    /// checksum covers).
    #[must_use]
    pub fn footer_bytes(&self) -> u64 {
        self.footer_len
    }

    /// Opens a chunk-at-a-time reader over one thread's references.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file cannot be reopened.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn chunks(&self, thread: ThreadId) -> Result<FileChunks<'_>, TraceError> {
        Ok(FileChunks {
            file: File::open(&self.path)?,
            chunks: &self.threads[thread.index()].chunks,
            thread: thread.index() as u64,
            footer_start: self.footer_start,
            next: 0,
            raw: Vec::new(),
        })
    }
}

/// Chunk-at-a-time reader over one thread of an on-disk trace.
///
/// The chunk buffer is reused across chunks and references are decoded
/// straight into the caller's consumer, so the resident set is one
/// chunk's bytes, independent of trace length.
#[derive(Debug)]
pub struct FileChunks<'r> {
    file: File,
    chunks: &'r [ChunkMeta],
    thread: u64,
    footer_start: u64,
    next: usize,
    raw: Vec<u8>,
}

impl FileChunks<'_> {
    /// Reads and verifies the next chunk, then hands its references to
    /// `f` in order. Returns `false`, calling `f` never, after the last
    /// chunk.
    ///
    /// The checksum is verified before the first reference is handed
    /// out. A record that fails to decode (an address out of range, a
    /// malformed varint) is only found while decoding, so `f` may have
    /// seen part of a chunk when this returns an error.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on read failures and
    /// [`TraceError::Format`] on checksum, index or record errors.
    pub fn next_chunk(&mut self, mut f: impl FnMut(MemRef)) -> Result<bool, TraceError> {
        let Some(meta) = self.chunks.get(self.next) else {
            return Ok(false);
        };
        self.next += 1;

        // One read covers the worst-case header plus the indexed
        // payload; `parse_footer` bounded `offset + payload_len` by the
        // footer offset, so this allocation is bounded by the file. The
        // read overwrites every byte, so only growth is zero-filled.
        let want =
            (MAX_CHUNK_HEADER + meta.payload_len).min(self.footer_start - meta.offset) as usize;
        self.raw.resize(want, 0);
        self.file.seek(SeekFrom::Start(meta.offset))?;
        self.file.read_exact(&mut self.raw)?;

        let mut payload = verified_payload(&self.raw, meta, self.thread)?;
        while let Some(r) = payload.next_ref()? {
            f(r);
        }
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Materialization
// ---------------------------------------------------------------------------

/// Fully materializes a v4 byte stream into a [`ProgramTrace`],
/// verifying every chunk checksum and the footer totals.
///
/// # Errors
///
/// Returns [`TraceError::Format`] on malformed input,
/// [`TraceError::Version`] on a version mismatch.
pub fn from_bytes(raw: &[u8]) -> Result<ProgramTrace, TraceError> {
    let file = TraceFile::parse(raw)?;
    let mut threads = Vec::with_capacity(file.thread_count());
    for t in 0..file.thread_count() {
        let tid = ThreadId::from_index(t);
        let totals = file.totals(tid);
        // The claimed total is bounded by the data region: one byte per
        // reference at minimum.
        let mut trace = ThreadTrace::with_capacity((totals.refs() as usize).min(raw.len()));
        for r in file.chunk_reader(tid) {
            trace.push(r?);
        }
        let decoded = KindTotals {
            instr: trace.instr_len(),
            reads: trace.read_len(),
            writes: trace.write_len(),
            barriers: trace.barrier_len(),
        };
        if decoded != totals {
            return format_err(format!(
                "footer/index mismatch: thread {t} totals disagree with decoded records"
            ));
        }
        threads.push(trace);
    }
    Ok(ProgramTrace::new(file.name, threads))
}

/// Deserializes from any reader by buffering it fully; prefer
/// [`FileReader`] for large files.
///
/// # Errors
///
/// See [`from_bytes`].
pub fn read_program<R: Read>(mut r: R) -> Result<ProgramTrace, TraceError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    from_bytes(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress;

    fn sample() -> ProgramTrace {
        let mut t0 = ThreadTrace::new();
        for i in 0..500u64 {
            t0.push(MemRef::instr(Address::new(4 * i)));
            if i % 3 == 0 {
                t0.push(MemRef::read(Address::new(0x4000_0000 + 32 * (i % 50))));
            }
            if i % 7 == 0 {
                t0.push(MemRef::write(Address::new(0x8000_0000 + 32 * (i % 20))));
            }
        }
        t0.push(MemRef::barrier(0));
        let t1: ThreadTrace = (0..100u64)
            .map(|i| MemRef::read(Address::new(0x4000_0000 + 32 * (i % 5))))
            .collect();
        ProgramTrace::new("stream-me", vec![t0, t1])
    }

    fn multi_chunk_bytes(prog: &ProgramTrace, chunk_bytes: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut sw =
            StreamWriter::with_chunk_bytes(&mut buf, prog.name(), prog.thread_count(), chunk_bytes)
                .unwrap();
        for (tid, thread) in prog.iter() {
            sw.append_thread(tid, thread.iter()).unwrap();
        }
        sw.finish().unwrap();
        buf
    }

    #[test]
    fn roundtrip_single_chunk() {
        let prog = sample();
        let bytes = to_bytes(&prog).unwrap();
        assert_eq!(from_bytes(&bytes).unwrap(), prog);
    }

    #[test]
    fn roundtrip_many_small_chunks() {
        let prog = sample();
        let bytes = multi_chunk_bytes(&prog, 32);
        assert_eq!(from_bytes(&bytes).unwrap(), prog);
    }

    #[test]
    fn summary_reports_totals() {
        let prog = sample();
        let mut buf = Vec::new();
        let mut sw = StreamWriter::new(&mut buf, prog.name(), prog.thread_count()).unwrap();
        for (tid, thread) in prog.iter() {
            sw.append_thread(tid, thread.iter()).unwrap();
        }
        let summary = sw.finish().unwrap();
        assert_eq!(summary.total_refs, prog.total_refs());
        assert_eq!(summary.bytes_written, buf.len() as u64);
        assert_eq!(
            summary.totals[0].instr,
            prog.thread(ThreadId::new(0)).instr_len()
        );
        assert_eq!(
            summary.totals[1].reads,
            prog.thread(ThreadId::new(1)).read_len()
        );
    }

    #[test]
    fn read_any_dispatches_v4() {
        let prog = sample();
        let bytes = to_bytes(&prog).unwrap();
        assert_eq!(compress::read_any(&bytes).unwrap(), prog);
    }

    #[test]
    fn per_thread_iteration_is_isolated() {
        // Corrupt a payload byte of thread 0's (only) chunk; thread 1
        // must still decode cleanly because its reader never touches
        // thread 0's bytes.
        let prog = sample();
        let mut bytes = multi_chunk_bytes(&prog, 1 << 20);
        let file = TraceFile::parse(&bytes).unwrap();
        let t0_off = file.threads[0].chunks[0].offset as usize;
        drop(file);
        bytes[t0_off + 15] ^= 0xff;

        let file = TraceFile::parse(&bytes).unwrap();
        let t1: Result<Vec<_>, _> = file.chunk_reader(ThreadId::new(1)).collect();
        let decoded = t1.unwrap();
        assert_eq!(decoded.len(), prog.thread(ThreadId::new(1)).len());
        let t0: Result<Vec<_>, _> = file.chunk_reader(ThreadId::new(0)).collect();
        assert!(t0.is_err());
    }

    #[test]
    fn chunk_reader_matches_thread_trace() {
        let prog = sample();
        let bytes = multi_chunk_bytes(&prog, 64);
        let file = TraceFile::parse(&bytes).unwrap();
        for (tid, thread) in prog.iter() {
            let decoded: Result<Vec<_>, _> = file.chunk_reader(tid).collect();
            assert_eq!(decoded.unwrap(), thread.iter().collect::<Vec<_>>());
            assert_eq!(file.totals(tid).refs(), thread.len() as u64);
        }
    }

    #[test]
    fn file_reader_matches_slice_reader() {
        let prog = sample();
        let bytes = multi_chunk_bytes(&prog, 128);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("placesim-stream-test-{}.trace", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();

        let reader = FileReader::open(&path).unwrap();
        assert_eq!(reader.name(), prog.name());
        assert_eq!(reader.thread_count(), prog.thread_count());
        assert_eq!(reader.total_refs(), prog.total_refs());
        assert_eq!(
            reader.instr_lengths(),
            prog.threads()
                .iter()
                .map(|t| t.instr_len())
                .collect::<Vec<_>>()
        );
        for (tid, thread) in prog.iter() {
            let mut chunks = reader.chunks(tid).unwrap();
            let mut decoded = Vec::new();
            while chunks.next_chunk(|r| decoded.push(r)).unwrap() {}
            assert_eq!(decoded, thread.iter().collect::<Vec<_>>());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The footer-metadata accessors describe the file exactly: chunk
    /// counts match the index, payload bytes plus chunk headers plus
    /// header and footer and trailer tile the whole file, and chunking
    /// scales with the chunk-size knob.
    #[test]
    fn footer_metadata_accessors_describe_the_file() {
        let prog = sample();
        let bytes = multi_chunk_bytes(&prog, 64);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("placesim-stream-meta-{}.trace", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();

        let reader = FileReader::open(&path).unwrap();
        let per_thread: Vec<usize> = (0..reader.thread_count())
            .map(|t| reader.chunk_count(ThreadId::from_index(t)))
            .collect();
        assert_eq!(per_thread.iter().sum::<usize>(), reader.total_chunks());
        // 64-byte chunks over a 500+-instruction thread: many chunks.
        assert!(per_thread[0] > 1, "{per_thread:?}");
        // Each indexed chunk delivers exactly one bounded read step.
        for (t, &n) in per_thread.iter().enumerate() {
            let tid = ThreadId::from_index(t);
            let mut chunks = reader.chunks(tid).unwrap();
            let mut steps = 0;
            while chunks.next_chunk(|_| {}).unwrap() {
                steps += 1;
            }
            assert_eq!(steps, n, "thread {t}");
        }
        assert_eq!(
            reader.total_payload_bytes(),
            (0..reader.thread_count())
                .map(|t| reader.payload_bytes(ThreadId::from_index(t)))
                .sum::<u64>()
        );
        // The data region [data_start, footer_start) is payload plus
        // chunk headers; footer + trailer close out the file.
        assert!(reader.total_payload_bytes() < reader.footer_start());
        assert_eq!(
            reader.footer_start() + reader.footer_bytes() + TRAILER_LEN as u64,
            bytes.len() as u64
        );

        // A generous chunk size collapses each thread to one chunk.
        let one = multi_chunk_bytes(&prog, 1 << 20);
        std::fs::write(&path, &one).unwrap();
        let reader = FileReader::open(&path).unwrap();
        assert_eq!(reader.chunk_count(ThreadId::new(0)), 1);
        assert_eq!(reader.chunk_count(ThreadId::new(1)), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_program_roundtrips() {
        let prog = ProgramTrace::new("", vec![]);
        let bytes = to_bytes(&prog).unwrap();
        assert_eq!(from_bytes(&bytes).unwrap(), prog);
        assert_eq!(compress::read_any(&bytes).unwrap(), prog);
    }

    #[test]
    fn empty_threads_roundtrip() {
        let prog = ProgramTrace::new(
            "holes",
            vec![
                ThreadTrace::new(),
                (0..10u64)
                    .map(|i| MemRef::instr(Address::new(4 * i)))
                    .collect(),
                ThreadTrace::new(),
            ],
        );
        let bytes = multi_chunk_bytes(&prog, 8);
        assert_eq!(from_bytes(&bytes).unwrap(), prog);
        let file = TraceFile::parse(&bytes).unwrap();
        assert_eq!(file.chunk_reader(ThreadId::new(0)).count(), 0);
        assert_eq!(file.chunk_reader(ThreadId::new(2)).count(), 0);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = multi_chunk_bytes(&sample(), 64);
        for cut in [0, 3, 7, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_payload_corruption() {
        let prog = sample();
        let bytes = multi_chunk_bytes(&prog, 1 << 20);
        let file = TraceFile::parse(&bytes).unwrap();
        let off = file.threads[0].chunks[0].offset as usize;
        drop(file);
        let mut bad = bytes.clone();
        bad[off + 20] ^= 0x55;
        let err = from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn rejects_footer_corruption() {
        let bytes = to_bytes(&sample()).unwrap();
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - TRAILER_LEN - 1] ^= 0x01; // last footer payload byte
        let err = from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01; // trailer magic
        assert!(from_bytes(&bad).is_err());
    }

    #[test]
    fn rejects_version_mismatch() {
        let mut bytes = to_bytes(&sample()).unwrap();
        bytes[4] = 9;
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::Version { found: 9, .. })
        ));
    }

    #[test]
    fn varint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len() as u64);
        }
    }
}
