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
//! file end, so a reader finds the footer with two positional reads and
//! never scans the data region.
//!
//! There is one reader, [`FileReader`], over any [`ReadAt`] source: a
//! [`File`] ([`FileReader::open`]) or a byte slice
//! ([`FileReader::parse`]). Opening reads only the header, trailer and
//! footer, each with a bounded positional read. [`FileReader::chunks`]
//! then reads one thread's chunks through the shared source, one chunk
//! resident at a time, and decodes each verified chunk straight into a
//! consumer. Allocation is proportional to the chunk index and one
//! chunk, never to the number of references. [`from_bytes`] drains
//! every thread of a parsed slice into a [`ProgramTrace`]; it is what
//! [`crate::compress::read_any`] runs for version 4.
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
//! // Per-thread iteration, one chunk at a time.
//! let reader = stream::FileReader::parse(&v4)?;
//! let mut chunks = reader.chunks(ThreadId::new(0));
//! let mut refs = 0;
//! while chunks.next_chunk(|_| refs += 1)? {}
//! assert_eq!(refs, 100);
//! # Ok(())
//! # }
//! ```

use crate::compress::{get_varint, put_varint, unzigzag, zigzag, MAGIC};
use crate::hash::checksum64;
use crate::record::{Address, MemRef, RefKind, ThreadId};
use crate::{ProgramTrace, ThreadTrace, TraceError};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

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

/// Checks the chunk at the front of `chunk` against its footer index
/// entry and its checksum, then decodes its v2 varint records (delta
/// base 0 at the chunk start) into `f` in order. `chunk` may run past
/// the chunk's end. This is the format's one record decoder, and no
/// record is decoded before the checksum has verified.
fn decode_chunk(
    chunk: &[u8],
    meta: &ChunkMeta,
    thread: u64,
    mut f: impl FnMut(MemRef),
) -> Result<(), TraceError> {
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
    let mut bytes = &rest[..payload_len as usize];
    if checksum64(bytes) != checksum {
        return format_err(format!("chunk checksum mismatch at offset {}", meta.offset));
    }
    let mut prev = 0i64;
    for _ in 0..ref_count {
        let word = get_varint(&mut bytes)?;
        let kind = RefKind::from_tag(word & 3).expect("2-bit tag");
        prev = match prev.checked_add(unzigzag(word >> 2)) {
            Some(a) if (0..=Address::MAX.raw() as i64).contains(&a) => a,
            _ => return format_err("decoded address out of range"),
        };
        f(MemRef::new(kind, Address::new(prev as u64)));
    }
    if !bytes.is_empty() {
        return format_err(format!("chunk payload has {} trailing bytes", bytes.len()));
    }
    Ok(())
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
// Reader
// ---------------------------------------------------------------------------

/// A byte source read at absolute offsets through a shared reference,
/// so every thread's chunk reader can share one handle.
pub trait ReadAt {
    /// The source's length in bytes.
    ///
    /// # Errors
    ///
    /// Returns the source's I/O error.
    fn size(&self) -> io::Result<u64>;

    /// Fills `buf` with the bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::UnexpectedEof`] if the source ends
    /// before `buf` is full.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
}

impl ReadAt for File {
    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }

    #[cfg(windows)]
    fn read_exact_at(&self, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
        use std::os::windows::fs::FileExt;
        while !buf.is_empty() {
            let n = self.seek_read(buf, offset)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            buf = &mut buf[n..];
            offset += n as u64;
        }
        Ok(())
    }
}

impl ReadAt for &[u8] {
    fn size(&self) -> io::Result<u64> {
        Ok(self.len() as u64)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let bytes = usize::try_from(offset)
            .ok()
            .and_then(|start| self.get(start..start.checked_add(buf.len())?))
            .ok_or(io::ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(bytes);
        Ok(())
    }
}

/// Checks the fixed prefix (`magic · version`).
fn check_magic_version(head: &[u8]) -> Result<(), TraceError> {
    if head.len() < 8 {
        return format_err("truncated header");
    }
    if head[..4] != MAGIC {
        return format_err(format!("bad magic {:?}", &head[..4]));
    }
    let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(TraceError::Version {
            found: version,
            supported: VERSION,
        });
    }
    Ok(())
}

/// Reads the varint at `offset` without reading at or past `end`;
/// returns it and the offset just past it.
fn varint_at(src: &impl ReadAt, offset: u64, end: u64) -> Result<(u64, u64), TraceError> {
    let mut buf = [0u8; 10];
    let n = end.saturating_sub(offset).min(10) as usize;
    src.read_exact_at(&mut buf[..n], offset)?;
    let mut cursor = &buf[..n];
    let v = get_varint(&mut cursor)?;
    Ok((v, offset + (n - cursor.len()) as u64))
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

/// A v4 trace opened by reading only its header, trailer and footer,
/// from a [`File`] ([`FileReader::open`]) or a byte slice
/// ([`FileReader::parse`]).
///
/// Every read is positional and bounded by the source's length, and all
/// offset arithmetic is checked, so a hostile header or trailer is a
/// [`TraceError::Format`], never an oversized allocation or a panic.
/// [`FileReader::chunks`] readers share the one source, so many threads'
/// streams can be consumed concurrently from one `FileReader`.
#[derive(Debug)]
pub struct FileReader<S = File> {
    src: S,
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
    /// Returns [`TraceError::Io`] on filesystem failures,
    /// [`TraceError::Format`] on malformed content and
    /// [`TraceError::Version`] on a version mismatch.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::read(File::open(path)?)
    }
}

impl<'a> FileReader<&'a [u8]> {
    /// Parses the header and footer of a v4 trace held in memory.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] on malformed input,
    /// [`TraceError::Version`] on a version mismatch.
    pub fn parse(raw: &'a [u8]) -> Result<Self, TraceError> {
        Self::read(raw)
    }
}

impl<S: ReadAt> FileReader<S> {
    /// The one parse path: checks the version word first, so a file of
    /// another version is refused as such, then reads the trailer, the
    /// header (bounded by the footer start) and the footer.
    fn read(src: S) -> Result<Self, TraceError> {
        let len = src.size()?;
        let mut head = [0u8; 8];
        let head = &mut head[..len.min(8) as usize];
        src.read_exact_at(head, 0)?;
        check_magic_version(head)?;
        if len < 8 + TRAILER_LEN as u64 {
            return format_err("truncated trailer");
        }

        let trailer_start = len - TRAILER_LEN as u64;
        let mut trailer = [0u8; TRAILER_LEN];
        src.read_exact_at(&mut trailer, trailer_start)?;
        if trailer[16..] != TRAILER_MAGIC {
            return format_err("missing v4 trailer magic");
        }
        let checksum = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        let footer_len = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
        let Some(footer_start) = trailer_start.checked_sub(footer_len) else {
            return format_err("footer length exceeds file");
        };

        let (name_len, name_start) = varint_at(&src, 8, footer_start)?;
        let Some(name_end) = name_start
            .checked_add(name_len)
            .filter(|&end| end <= footer_start)
        else {
            return format_err("truncated name");
        };
        let mut name = vec![0u8; (name_end - name_start) as usize];
        src.read_exact_at(&mut name, name_start)?;
        let name = String::from_utf8(name).map_err(|_| TraceError::Format {
            reason: "name is not UTF-8".into(),
        })?;
        let (thread_count, data_start) = varint_at(&src, name_end, footer_start)?;
        if thread_count > u64::from(u16::MAX) + 1 {
            return format_err(format!(
                "thread count {thread_count} exceeds ThreadId range"
            ));
        }

        let mut footer = vec![0u8; footer_len as usize];
        src.read_exact_at(&mut footer, footer_start)?;
        if checksum64(&footer) != checksum {
            return format_err("footer checksum mismatch");
        }
        let threads = parse_footer(&footer, thread_count, data_start, footer_start)?;
        Ok(Self {
            src,
            name,
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

    /// Starts a chunk-at-a-time reader over one thread's references,
    /// reading through the shared source.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[must_use]
    pub fn chunks(&self, thread: ThreadId) -> FileChunks<'_, S> {
        FileChunks {
            src: &self.src,
            chunks: &self.threads[thread.index()].chunks,
            thread: thread.index() as u64,
            footer_start: self.footer_start,
            next: 0,
            raw: Vec::new(),
        }
    }
}

/// Chunk-at-a-time reader over one thread of a v4 trace.
///
/// The chunk buffer is reused across chunks and references are decoded
/// straight into the caller's consumer, so the resident set is one
/// chunk's bytes, independent of trace length.
#[derive(Debug)]
pub struct FileChunks<'r, S = File> {
    src: &'r S,
    chunks: &'r [ChunkMeta],
    thread: u64,
    footer_start: u64,
    next: usize,
    raw: Vec<u8>,
}

impl<S: ReadAt> FileChunks<'_, S> {
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
    pub fn next_chunk(&mut self, f: impl FnMut(MemRef)) -> Result<bool, TraceError> {
        let Some(meta) = self.chunks.get(self.next) else {
            return Ok(false);
        };
        self.next += 1;

        // One read covers the worst-case header plus the indexed
        // payload; `parse_footer` bounded `offset + payload_len` by the
        // footer offset, so this allocation is bounded by the source.
        // The read overwrites every byte, so only growth is zero-filled.
        let want =
            (MAX_CHUNK_HEADER + meta.payload_len).min(self.footer_start - meta.offset) as usize;
        self.raw.resize(want, 0);
        self.src.read_exact_at(&mut self.raw, meta.offset)?;
        decode_chunk(&self.raw, meta, self.thread, f)?;
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
    let reader = FileReader::parse(raw)?;
    let mut threads = Vec::with_capacity(reader.thread_count());
    for t in 0..reader.thread_count() {
        let tid = ThreadId::from_index(t);
        let totals = reader.totals(tid);
        // The claimed total is bounded by the data region: one byte per
        // reference at minimum.
        let mut trace = ThreadTrace::with_capacity((totals.refs() as usize).min(raw.len()));
        let mut chunks = reader.chunks(tid);
        while chunks.next_chunk(|r| trace.push(r))? {}
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
    Ok(ProgramTrace::new(reader.name, threads))
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

    /// Every reference of one thread, drained chunk by chunk.
    fn drain<S: ReadAt>(reader: &FileReader<S>, tid: ThreadId) -> Result<Vec<MemRef>, TraceError> {
        let mut chunks = reader.chunks(tid);
        let mut refs = Vec::new();
        while chunks.next_chunk(|r| refs.push(r))? {}
        Ok(refs)
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
        let t0_off = FileReader::parse(&bytes).unwrap().threads[0].chunks[0].offset as usize;
        bytes[t0_off + 15] ^= 0xff;

        let reader = FileReader::parse(&bytes).unwrap();
        let decoded = drain(&reader, ThreadId::new(1)).unwrap();
        assert_eq!(decoded.len(), prog.thread(ThreadId::new(1)).len());
        assert!(drain(&reader, ThreadId::new(0)).is_err());
    }

    /// The reader over a file and over the same bytes in memory both
    /// yield each thread's exact references, and the footer accessors
    /// describe the program.
    #[test]
    fn file_and_slice_readers_match_the_trace() {
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
        let slice = FileReader::parse(&bytes).unwrap();
        for (tid, thread) in prog.iter() {
            let expect: Vec<MemRef> = thread.iter().collect();
            assert_eq!(drain(&reader, tid).unwrap(), expect);
            assert_eq!(drain(&slice, tid).unwrap(), expect);
            assert_eq!(slice.totals(tid).refs(), thread.len() as u64);
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
            let mut chunks = reader.chunks(tid);
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
        let reader = FileReader::parse(&bytes).unwrap();
        assert!(drain(&reader, ThreadId::new(0)).unwrap().is_empty());
        assert!(drain(&reader, ThreadId::new(2)).unwrap().is_empty());
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
        let off = FileReader::parse(&bytes).unwrap().threads[0].chunks[0].offset as usize;
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

    /// A slice source reads exactly the bytes asked for and refuses any
    /// range that leaves it, including one whose end overflows.
    #[test]
    fn slice_source_reads_are_bounded() {
        let src: &[u8] = &[1, 2, 3, 4];
        let mut buf = [0u8; 2];
        src.read_exact_at(&mut buf, 2).unwrap();
        assert_eq!(buf, [3, 4]);
        for offset in [3, 4, u64::MAX] {
            let err = src.read_exact_at(&mut buf, offset).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
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
