//! Sharded, sort-based address scanning: the one pass behind
//! [`crate::SharingAnalysis::measure`],
//! [`crate::SharingAnalysis::measure_access`] and
//! [`crate::SharingAnalysis::measure_streamed`].
//!
//! The reference profiling pass ([`crate::AddressProfile::build`])
//! probes one global map, whose values are per-address sharer vectors,
//! once per memory reference. This pipeline does almost all of its work
//! on *distinct* (thread, address) pairs instead, in three stages:
//!
//! 1. **Fold** (parallel over threads): each thread's data references
//!    fold into a thread-local list of `(addr, reads, writes)` runs.
//!    Traces are run-structured (many consecutive references to one
//!    address), so a last-address memo turns the common case into a
//!    single compare; most references never touch the slot index. The
//!    list is then sorted by address, once. A thread's references come
//!    from one of three [`Source`]s: an in-memory trace (the whole thread
//!    is one chunk), a generator's access lists (one entry per run, so
//!    an address may recur), or the chunks of a v4 file. Only the file
//!    source has a memory bound: whenever its fold holds
//!    [`SpillBudget`] distinct addresses, the sorted entries are flushed
//!    as one *segment* of a per-thread spill file and the fold restarts
//!    empty.
//! 2. **Splitter selection**: evenly spaced samples of every sorted run
//!    list and segment pick quantile cut points, so shards carry
//!    comparable work.
//! 3. **K-way merge** (parallel over shards): per shard, a binary heap
//!    merges the threads' run lists and segments in `(addr, thread)`
//!    order, summing the entries of one `(thread, address)` that were
//!    split across segments. Each address surfaces once with its
//!    per-thread counts sorted by thread id: the [`crate::PerAddress`]
//!    invariant.
//!
//! Shard results are combined by the caller. Every downstream quantity
//! is a commutative integer sum, so neither the shard count, nor the
//! spill budget, nor the visit order can change results (the proptests
//! below force tiny, many-segment budgets to pin this down).
//!
//! For the file source, peak memory per worker is `O(budget)` for stage
//! 1 and `O(segments × read-buffer)` for stage 3, independent of trace
//! length.

use crate::profile::PerThreadCount;
use placesim_trace::hash::FastMap;
use placesim_trace::par::{max_workers, try_parallel_map};
use placesim_trace::stream::{FileReader, ReadAt};
use placesim_trace::{AddrCounts, MemRef, ProgramTrace, ThreadId, TraceError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Addresses sampled from each sorted run list (a thread's in-memory
/// runs or one spilled segment) for splitter selection. 32 keeps the
/// sample tiny while bounding shard skew to a few percent of a thread.
const SAMPLES_PER_LIST: usize = 32;

/// Entries per file-cursor read buffer. 512 × 16 B = 8 KiB per cursor:
/// large enough for sequential read throughput, small enough that a
/// shard merge over many segments stays within a few MiB.
const CURSOR_BUF_ENTRIES: usize = 512;

/// Bytes of one spill-file entry: `addr u64 · reads u32 · writes u32`,
/// little-endian.
const ENTRY_BYTES: u64 = 16;

/// Process-unique suffix for spill file names.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Memory budget for the out-of-core scan.
///
/// `max_resident_addrs` caps the number of distinct addresses one
/// thread's stage-1 fold keeps resident before spilling a sorted
/// segment to disk. Spill files live in `dir` (the system temp
/// directory by default) and are deleted when the scan finishes.
#[derive(Debug, Clone)]
pub struct SpillBudget {
    max_resident_addrs: usize,
    dir: PathBuf,
}

impl SpillBudget {
    /// Default distinct-address cap per thread: 1 Mi entries, ≈ 40 MiB
    /// of fold state per stage-1 worker.
    pub const DEFAULT_RESIDENT_ADDRS: usize = 1 << 20;

    /// Environment variable overriding the distinct-address cap.
    pub const ENV_VAR: &'static str = "PLACESIM_SPILL_ADDRS";

    /// A budget capping each thread's resident distinct addresses,
    /// spilling to the system temp directory.
    #[must_use]
    pub fn new(max_resident_addrs: usize) -> Self {
        SpillBudget {
            // A zero budget would spill before holding anything.
            max_resident_addrs: max_resident_addrs.max(1),
            dir: std::env::temp_dir(),
        }
    }

    /// Redirects spill files to `dir` (which must exist).
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = dir.into();
        self
    }

    /// Reads the cap from [`Self::ENV_VAR`], falling back to
    /// [`Self::DEFAULT_RESIDENT_ADDRS`] when unset, unparsable or zero.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(Self::cap_from(std::env::var(Self::ENV_VAR).ok().as_deref()))
    }

    /// The cap a value of [`Self::ENV_VAR`] asks for (`None` when it is
    /// unset).
    fn cap_from(value: Option<&str>) -> usize {
        value
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(Self::DEFAULT_RESIDENT_ADDRS)
    }

    /// The distinct-address cap.
    #[must_use]
    pub fn max_resident_addrs(&self) -> usize {
        self.max_resident_addrs
    }
}

impl Default for SpillBudget {
    fn default() -> Self {
        Self::new(Self::DEFAULT_RESIDENT_ADDRS)
    }
}

/// Where the scan reads each thread's references from.
pub(crate) enum Source<'a> {
    /// An in-memory trace: each thread is one chunk, folded without a
    /// budget, so it never spills.
    Trace(&'a ProgramTrace),
    /// Per-thread access lists from the generator: `access[t]` holds
    /// thread `t`'s unaggregated entries (an address may recur, once
    /// per run).
    Access(&'a [Vec<AddrCounts>]),
    /// A v4 file read chunk by chunk, spilling under the budget.
    File(&'a FileReader, &'a SpillBudget),
}

impl Source<'_> {
    pub(crate) fn thread_count(&self) -> usize {
        match self {
            Source::Trace(prog) => prog.thread_count(),
            Source::Access(access) => access.len(),
            Source::File(reader, _) => reader.thread_count(),
        }
    }

    /// Stage 1 for one thread.
    fn thread_runs(&self, tid: ThreadId) -> Result<ThreadRuns, TraceError> {
        let mut fold = Fold::default();
        match *self {
            Source::Trace(prog) => prog.thread(tid).iter().for_each(|r| fold.add(r)),
            Source::Access(access) => {
                for e in &access[tid.index()] {
                    let slot = fold.slot(e.addr);
                    let run = &mut fold.runs[slot];
                    run.reads += e.reads;
                    run.writes += e.writes;
                }
            }
            Source::File(reader, budget) => return fold_file(reader, tid, budget),
        }
        Ok(ThreadRuns::Mem(fold.into_sorted()))
    }
}

/// Stage-1 fold state of one thread: its distinct-address runs in
/// first-touch order, their slot index and the last-address memo.
#[derive(Default)]
struct Fold {
    runs: Vec<AddrCounts>,
    index: FastMap<u64, u32>,
    /// The last data address counted and its slot.
    last: Option<(u64, usize)>,
}

impl Fold {
    /// The slot of `addr` in `runs`, created empty on first touch.
    fn slot(&mut self, addr: u64) -> usize {
        let runs = &mut self.runs;
        *self.index.entry(addr).or_insert_with(|| {
            runs.push(AddrCounts::new(addr));
            (runs.len() - 1) as u32
        }) as usize
    }

    /// Counts `r` if it is a data reference; instruction fetches and
    /// barriers are skipped. Traces are run-structured (many
    /// consecutive references to one address), so a memo of the last
    /// address lets most references skip the slot index: they cost one
    /// compare.
    #[inline]
    fn add(&mut self, r: MemRef) {
        if !r.kind.is_data() {
            return;
        }
        let addr = r.addr.raw();
        let slot = match self.last {
            Some((a, slot)) if a == addr => slot,
            _ => {
                let slot = self.slot(addr);
                self.last = Some((addr, slot));
                slot
            }
        };
        self.runs[slot].bump(r.kind.is_write());
    }

    /// The runs, sorted by address in place.
    fn sorted(&mut self) -> &[AddrCounts] {
        self.runs.sort_unstable_by_key(|r| r.addr);
        &self.runs
    }

    /// Empties the fold, keeping its allocations for the next segment.
    fn clear(&mut self) {
        self.runs.clear();
        self.index.clear();
        self.last = None;
    }

    fn into_sorted(mut self) -> Vec<AddrCounts> {
        self.sorted();
        self.runs
    }
}

/// One sorted spilled segment: a contiguous entry range of the thread's
/// spill file plus evenly spaced address samples taken at spill time.
#[derive(Debug)]
struct Segment {
    /// First entry index in the spill file.
    start: u64,
    /// Entry count.
    len: u64,
    /// Up to [`SAMPLES_PER_LIST`] evenly spaced addresses.
    samples: Vec<u64>,
}

/// Stage-1 output for one thread.
#[derive(Debug)]
enum ThreadRuns {
    /// The fold never reached a budget: plain sorted runs in memory.
    Mem(Vec<AddrCounts>),
    /// Sorted segments in a spill file (including the final residue).
    Spilled(SpilledRuns),
}

#[derive(Debug)]
struct SpilledRuns {
    /// Read by shard merges through shared positional reads.
    file: File,
    path: PathBuf,
    segments: Vec<Segment>,
}

impl Drop for SpilledRuns {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A thread's spill file while its fold still runs. `runs` owns the
/// path from creation on, so a scan that fails part-way still deletes
/// the file.
struct SpillWriter {
    runs: SpilledRuns,
    w: BufWriter<File>,
}

impl SpillWriter {
    fn create(budget: &SpillBudget, tid: ThreadId) -> Result<Self, TraceError> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = budget.dir.join(format!(
            "placesim-spill-{}-{seq}-t{}.run",
            std::process::id(),
            tid.index()
        ));
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let runs = SpilledRuns {
            file,
            path,
            segments: Vec::new(),
        };
        let w = BufWriter::new(runs.file.try_clone()?);
        Ok(SpillWriter { runs, w })
    }

    /// Appends one address-sorted segment and records it.
    fn segment(&mut self, runs: &[AddrCounts]) -> Result<(), TraceError> {
        for r in runs {
            let mut entry = [0u8; ENTRY_BYTES as usize];
            entry[..8].copy_from_slice(&r.addr.to_le_bytes());
            entry[8..12].copy_from_slice(&r.reads.to_le_bytes());
            entry[12..].copy_from_slice(&r.writes.to_le_bytes());
            self.w.write_all(&entry)?;
        }
        let segments = &mut self.runs.segments;
        segments.push(Segment {
            start: segments.last().map_or(0, |s| s.start + s.len),
            len: runs.len() as u64,
            samples: sample_addrs(runs).collect(),
        });
        Ok(())
    }

    fn finish(mut self) -> Result<ThreadRuns, TraceError> {
        self.w.flush()?;
        Ok(ThreadRuns::Spilled(self.runs))
    }
}

/// Stage 1 for one thread of a v4 file: decodes each verified chunk
/// straight into the fold, spilling a sorted segment whenever the fold
/// holds the budget's distinct addresses.
fn fold_file(
    reader: &FileReader,
    tid: ThreadId,
    budget: &SpillBudget,
) -> Result<ThreadRuns, TraceError> {
    let mut chunks = reader.chunks(tid);
    let mut fold = Fold::default();
    let mut spill: Option<SpillWriter> = None;
    while chunks.next_chunk(|r| fold.add(r))? {
        // Budget check at chunk granularity: the overshoot is bounded by
        // one chunk's worth of distinct addresses.
        if fold.runs.len() >= budget.max_resident_addrs {
            let w = match &mut spill {
                Some(w) => w,
                None => spill.insert(SpillWriter::create(budget, tid)?),
            };
            w.segment(fold.sorted())?;
            fold.clear();
        }
    }
    match spill {
        None => Ok(ThreadRuns::Mem(fold.into_sorted())),
        Some(mut w) => {
            // Spill the residue too, so the merge sees only segments.
            if !fold.runs.is_empty() {
                w.segment(fold.sorted())?;
            }
            w.finish()
        }
    }
}

/// Up to [`SAMPLES_PER_LIST`] evenly spaced addresses of a sorted run
/// list.
fn sample_addrs(runs: &[AddrCounts]) -> impl Iterator<Item = u64> + '_ {
    let take = runs.len().min(SAMPLES_PER_LIST);
    (0..take).map(move |k| runs[k * runs.len() / take].addr)
}

/// Picks up to `shards - 1` address cut points from the samples of every
/// run list and segment. Returned cuts are strictly increasing; fewer
/// cuts (down to none) simply mean fewer shards.
fn splitters(sources: &[ThreadRuns], shards: usize) -> Vec<u64> {
    if shards <= 1 {
        return Vec::new();
    }
    let mut samples: Vec<u64> = Vec::new();
    for src in sources {
        match src {
            ThreadRuns::Mem(runs) => samples.extend(sample_addrs(runs)),
            ThreadRuns::Spilled(s) => {
                for seg in &s.segments {
                    samples.extend_from_slice(&seg.samples);
                }
            }
        }
    }
    samples.sort_unstable();
    samples.dedup();
    if samples.is_empty() {
        return Vec::new();
    }
    let mut cuts: Vec<u64> = (1..shards)
        .map(|s| samples[(s * samples.len() / shards).min(samples.len() - 1)])
        .collect();
    cuts.dedup();
    cuts
}

/// Turns strictly increasing cut points into `[lo, hi)` shard bounds
/// that partition the address space (`None` = unbounded).
fn shard_bounds(cuts: &[u64]) -> Vec<(Option<u64>, Option<u64>)> {
    let lows = std::iter::once(None).chain(cuts.iter().copied().map(Some));
    let highs = cuts.iter().copied().map(Some).chain(std::iter::once(None));
    lows.zip(highs).collect()
}

/// A sorted entry stream for the merge: either a slice of in-memory
/// runs or a buffered window over one spill-file segment.
enum Cursor<'a> {
    Mem {
        entries: &'a [AddrCounts],
        pos: usize,
        end: usize,
    },
    File {
        file: &'a File,
        next: u64,
        end: u64,
        buf: Vec<AddrCounts>,
        buf_pos: usize,
    },
}

impl Cursor<'_> {
    /// The entry the cursor currently points at (must not be exhausted).
    fn current(&self) -> AddrCounts {
        match self {
            Cursor::Mem { entries, pos, .. } => entries[*pos],
            Cursor::File { buf, buf_pos, .. } => buf[*buf_pos],
        }
    }

    /// Steps past the current entry; returns the next entry's address,
    /// or `None` when exhausted.
    fn advance(&mut self) -> Result<Option<u64>, TraceError> {
        match self {
            Cursor::Mem { entries, pos, end } => {
                *pos += 1;
                Ok((*pos < *end).then(|| entries[*pos].addr))
            }
            Cursor::File {
                file,
                next,
                end,
                buf,
                buf_pos,
            } => {
                *buf_pos += 1;
                *next += 1;
                if *buf_pos >= buf.len() {
                    if *next >= *end {
                        return Ok(None);
                    }
                    refill(file, *next, *end, buf)?;
                    *buf_pos = 0;
                }
                Ok(Some(buf[*buf_pos].addr))
            }
        }
    }
}

/// Reads the next buffer-full of entries starting at entry `next`.
fn refill(file: &File, next: u64, end: u64, buf: &mut Vec<AddrCounts>) -> Result<(), TraceError> {
    let want = ((end - next) as usize).min(CURSOR_BUF_ENTRIES);
    let mut raw = vec![0u8; want * ENTRY_BYTES as usize];
    file.read_exact_at(&mut raw, next * ENTRY_BYTES)?;
    buf.clear();
    for e in raw.chunks_exact(ENTRY_BYTES as usize) {
        buf.push(AddrCounts {
            addr: u64::from_le_bytes(e[..8].try_into().expect("8 bytes")),
            reads: u32::from_le_bytes(e[8..12].try_into().expect("4 bytes")),
            writes: u32::from_le_bytes(e[12..].try_into().expect("4 bytes")),
        });
    }
    Ok(())
}

/// First entry index of `seg` whose address is `>= bound` (binary
/// search over the fixed-size file records).
fn segment_lower_bound(file: &File, seg: &Segment, bound: u64) -> Result<u64, TraceError> {
    let (mut lo, mut hi) = (0u64, seg.len);
    let mut word = [0u8; 8];
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        file.read_exact_at(&mut word, (seg.start + mid) * ENTRY_BYTES)?;
        if u64::from_le_bytes(word) < bound {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(seg.start + lo)
}

/// Merges every thread's sorted run lists and segments within `[lo, hi)`
/// (`None` = unbounded) in ascending address order, summing
/// same-`(addr, thread)` entries split across segments, and invokes
/// `visit` once per address with per-thread counts in thread-id order.
fn merge_shard<A>(
    sources: &[ThreadRuns],
    lo: Option<u64>,
    hi: Option<u64>,
    acc: &mut A,
    visit: &impl Fn(&mut A, u64, &[PerThreadCount]),
) -> Result<(), TraceError> {
    // One cursor per in-memory run list or file segment; heap keys are
    // (addr, thread, cursor index), so ties on addr pop in thread order
    // and same-thread duplicates pop adjacently.
    let mut cursors: Vec<(usize, Cursor<'_>)> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    for (t, src) in sources.iter().enumerate() {
        match src {
            ThreadRuns::Mem(runs) => {
                let start = lo.map_or(0, |l| runs.partition_point(|r| r.addr < l));
                let end = hi.map_or(runs.len(), |h| runs.partition_point(|r| r.addr < h));
                if start < end {
                    heap.push(Reverse((runs[start].addr, t, cursors.len())));
                    cursors.push((
                        t,
                        Cursor::Mem {
                            entries: runs,
                            pos: start,
                            end,
                        },
                    ));
                }
            }
            ThreadRuns::Spilled(s) => {
                for seg in &s.segments {
                    let bound = |b| segment_lower_bound(&s.file, seg, b);
                    let start = lo.map_or(Ok(seg.start), bound)?;
                    let end = hi.map_or(Ok(seg.start + seg.len), bound)?;
                    if start < end {
                        let mut buf = Vec::with_capacity(CURSOR_BUF_ENTRIES);
                        refill(&s.file, start, end, &mut buf)?;
                        heap.push(Reverse((buf[0].addr, t, cursors.len())));
                        cursors.push((
                            t,
                            Cursor::File {
                                file: &s.file,
                                next: start,
                                end,
                                buf,
                                buf_pos: 0,
                            },
                        ));
                    }
                }
            }
        }
    }

    let mut counts: Vec<PerThreadCount> = Vec::new();
    while let Some(&Reverse((addr, _, _))) = heap.peek() {
        counts.clear();
        while let Some(&Reverse((a, t, ci))) = heap.peek() {
            if a != addr {
                break;
            }
            heap.pop();
            let entry = cursors[ci].1.current();
            // Entries for one (addr, thread) split across segments pop
            // adjacently; sum them back into a single count.
            match counts.last_mut() {
                Some(last) if last.thread.index() == t => {
                    last.reads += entry.reads;
                    last.writes += entry.writes;
                }
                _ => counts.push(PerThreadCount {
                    thread: ThreadId::from_index(t),
                    reads: entry.reads,
                    writes: entry.writes,
                }),
            }
            if let Some(next_addr) = cursors[ci].1.advance()? {
                heap.push(Reverse((next_addr, t, ci)));
            }
        }
        visit(acc, addr, &counts);
    }
    Ok(())
}

/// Scans every distinct data address of `source` exactly once, in
/// parallel over disjoint address shards.
///
/// For each shard a fresh accumulator comes from `init`; `visit` sees
/// every address in that shard (ascending) with its per-thread counts in
/// thread-id order; the per-shard accumulators are returned for the
/// caller to reduce. Address shards partition the address space, so any
/// commutative reduction is independent of shard count and order.
///
/// # Errors
///
/// Only [`Source::File`] reads files: it propagates I/O and format
/// errors from the trace file and the spill files. The in-memory sources
/// never fail.
pub(crate) fn sharded_scan<A, I, V>(
    source: Source<'_>,
    init: I,
    visit: V,
) -> Result<Vec<A>, TraceError>
where
    A: Send + Sync,
    I: Fn() -> A + Sync,
    V: Fn(&mut A, u64, &[PerThreadCount]) + Sync,
{
    let tids: Vec<ThreadId> = (0..source.thread_count())
        .map(ThreadId::from_index)
        .collect();
    let runs = try_parallel_map(&tids, |&tid| source.thread_runs(tid))?;
    // Two shards per worker evens out skewed address distributions
    // without flooding the heap merge with tiny ranges.
    let cuts = splitters(&runs, max_workers().saturating_mul(2).max(1));
    try_parallel_map(&shard_bounds(&cuts), |&(lo, hi)| {
        let mut acc = init();
        merge_shard(&runs, lo, hi, &mut acc, &visit)?;
        Ok(acc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressProfile, SharingAnalysis};
    use placesim_trace::stream::StreamWriter;
    use placesim_trace::{Address, ThreadTrace};
    use proptest::prelude::*;

    fn write_v4(prog: &ProgramTrace, chunk_bytes: usize) -> PathBuf {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "placesim-stream-analysis-{}-{seq}.trace",
            std::process::id()
        ));
        let file = File::create(&path).unwrap();
        let mut w =
            StreamWriter::with_chunk_bytes(file, prog.name(), prog.thread_count(), chunk_bytes)
                .unwrap();
        for (tid, thread) in prog.iter() {
            w.append_thread(tid, thread.iter()).unwrap();
        }
        w.finish().unwrap();
        path
    }

    /// Each thread's data references as unaggregated access entries, one
    /// per reference, the way the generator leaves an address recurring.
    fn access_lists(prog: &ProgramTrace) -> Vec<Vec<AddrCounts>> {
        prog.iter()
            .map(|(_, thread)| {
                thread
                    .iter()
                    .filter(|r| r.kind.is_data())
                    .map(|r| {
                        let mut e = AddrCounts::new(r.addr.raw());
                        e.bump(r.kind.is_write());
                        e
                    })
                    .collect()
            })
            .collect()
    }

    type Visits = Vec<(u64, Vec<PerThreadCount>)>;

    /// Every `(address, per-thread counts)` the scan visits, by address.
    fn visits(source: Source<'_>) -> Visits {
        let shards = sharded_scan(source, Vec::new, |acc: &mut Visits, addr, counts| {
            assert!(counts.windows(2).all(|w| w[0].thread < w[1].thread));
            acc.push((addr, counts.to_vec()));
        })
        .expect("scan");
        let mut all: Visits = shards.into_iter().flatten().collect();
        all.sort_unstable_by_key(|&(addr, _)| addr);
        all
    }

    /// The reference profile in the same shape: each address once.
    fn reference(prog: &ProgramTrace) -> Visits {
        let mut all: Visits = AddressProfile::build(prog)
            .iter()
            .map(|(addr, pa)| (addr, pa.counts().to_vec()))
            .collect();
        all.sort_unstable_by_key(|&(addr, _)| addr);
        all
    }

    fn file_visits(prog: &ProgramTrace, chunk_bytes: usize, budget: &SpillBudget) -> Visits {
        let path = write_v4(prog, chunk_bytes);
        let reader = FileReader::open(&path).unwrap();
        let seen = visits(Source::File(&reader, budget));
        std::fs::remove_file(&path).unwrap();
        seen
    }

    fn prog() -> ProgramTrace {
        // Enough distinct addresses per thread to force several spill
        // segments under a tiny budget, with heavy cross-thread sharing.
        let threads = (0..4u64)
            .map(|t| {
                let mut tt = ThreadTrace::new();
                for i in 0..400u64 {
                    tt.push(MemRef::instr(Address::new(4 * i)));
                    tt.push(MemRef::read(Address::new(0x1_0000 + 8 * (i % 97))));
                    if i % 3 == 0 {
                        tt.push(MemRef::write(Address::new(0x1_0000 + 8 * ((i + t) % 97))));
                    }
                    tt.push(MemRef::read(Address::new(
                        0x10_0000 + (t << 12) + 8 * (i % 51),
                    )));
                }
                tt
            })
            .collect();
        ProgramTrace::new("spilly", threads)
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

        /// Differential: all three sources visit exactly the reference
        /// profile's addresses, once each, with its per-thread counts.
        /// The file source runs with chunk sizes that split threads into
        /// many chunks and resident-address budgets tiny enough to force
        /// spill files and their segment merge.
        #[test]
        fn every_source_visits_the_reference_profile(
            prog in arb_program(),
            budget in 1usize..40,
            chunk in 16usize..256,
        ) {
            let expect = reference(&prog);
            prop_assert_eq!(&visits(Source::Trace(&prog)), &expect);
            prop_assert_eq!(&visits(Source::Access(&access_lists(&prog))), &expect);
            prop_assert_eq!(&file_visits(&prog, chunk, &SpillBudget::new(budget)), &expect);
        }
    }

    #[test]
    fn fold_aggregates_reads_and_writes() {
        let t0: ThreadTrace = [
            MemRef::write(Address::new(0x900)),
            MemRef::read(Address::new(0x100)),
            MemRef::read(Address::new(0x100)),
            MemRef::instr(Address::new(0x4)),
            MemRef::write(Address::new(0x100)),
        ]
        .into_iter()
        .collect();
        let prog = ProgramTrace::new("p", vec![t0]);
        let ThreadRuns::Mem(runs) = Source::Trace(&prog).thread_runs(ThreadId::new(0)).unwrap()
        else {
            panic!("an in-memory fold never spills");
        };
        // Sorted by address; the instruction fetch is excluded.
        let counts: Vec<_> = runs.iter().map(|r| (r.addr, r.reads, r.writes)).collect();
        assert_eq!(counts, vec![(0x100, 2, 1), (0x900, 0, 1)]);
    }

    #[test]
    fn file_source_matches_the_reference_with_and_without_spills() {
        let p = prog();
        assert_eq!(
            file_visits(&p, 1 << 20, &SpillBudget::default()),
            reference(&p)
        );
        for budget in [1, 7, 50] {
            let seen = file_visits(&p, 256, &SpillBudget::new(budget));
            assert_eq!(seen, reference(&p), "budget {budget}");
        }
    }

    #[test]
    fn streamed_measure_matches_in_memory() {
        let p = prog();
        let path = write_v4(&p, 512);
        let reader = FileReader::open(&path).unwrap();
        for budget in [3, 1000] {
            let streamed =
                SharingAnalysis::measure_streamed(&reader, &SpillBudget::new(budget)).unwrap();
            assert_eq!(streamed, SharingAnalysis::measure(&p), "budget {budget}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn splitters_are_strictly_increasing() {
        let p = prog();
        let runs: Vec<ThreadRuns> = (0..p.thread_count())
            .map(|t| {
                Source::Trace(&p)
                    .thread_runs(ThreadId::from_index(t))
                    .unwrap()
            })
            .collect();
        let cuts = splitters(&runs, 8);
        assert!(!cuts.is_empty());
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn shard_bounds_partition_the_address_space() {
        assert_eq!(shard_bounds(&[]), vec![(None, None)]);
        assert_eq!(
            shard_bounds(&[5, 9]),
            vec![(None, Some(5)), (Some(5), Some(9)), (Some(9), None)]
        );
    }

    #[test]
    fn spill_files_are_cleaned_up() {
        let p = prog();
        let trace = write_v4(&p, 256);
        let dir = std::env::temp_dir().join(format!(
            "placesim-spill-dir-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let reader = FileReader::open(&trace).unwrap();
        let budget = SpillBudget::new(5).with_dir(&dir);
        SharingAnalysis::measure_streamed(&reader, &budget).unwrap();
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "spill files must be deleted after the scan"
        );
        std::fs::remove_dir(&dir).unwrap();
        std::fs::remove_file(&trace).unwrap();
    }

    #[test]
    fn a_failed_scan_leaves_no_spill_file() {
        let trace = write_v4(&prog(), 256);
        // Corrupt one byte inside thread 1's chunks: its fold spills
        // under the tiny budget, then hits the checksum error.
        let mut bytes = std::fs::read(&trace).unwrap();
        let at = bytes.len() * 3 / 8;
        bytes[at] ^= 0xff;
        std::fs::write(&trace, &bytes).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "placesim-spill-dir-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let reader = FileReader::open(&trace).unwrap();
        let budget = SpillBudget::new(5).with_dir(&dir);
        assert!(SharingAnalysis::measure_streamed(&reader, &budget).is_err());
        let left = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_file(&trace).unwrap();
        assert_eq!(left, 0, "a failed scan must delete its spill files");
    }

    /// Rewrites the first record of `thread`'s last chunk to decode
    /// below address 0 and re-seals the chunk's checksum, so the chunk
    /// verifies and only its decode fails.
    fn poison_last_chunk(bytes: &mut [u8], thread: u64) {
        fn varint(bytes: &[u8], at: &mut usize) -> u64 {
            let mut v = 0;
            for shift in (0..).step_by(7) {
                let b = bytes[*at];
                *at += 1;
                v |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break;
                }
            }
            v
        }
        let n = bytes.len();
        let footer_len = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap());
        let footer_start = n - 20 - footer_len as usize;
        let mut at = 8; // magic and version word
        let name_len = varint(bytes, &mut at) as usize;
        at += name_len;
        varint(bytes, &mut at); // thread count
        let mut last = None;
        while at < footer_start {
            let t = varint(bytes, &mut at);
            varint(bytes, &mut at); // ref count
            let len = varint(bytes, &mut at) as usize;
            if t == thread {
                last = Some((at, len));
            }
            at += 8 + len;
        }
        let (sum_at, len) = last.expect("the thread has chunks");
        let payload = sum_at + 8;
        // One varint byte, `zigzag(delta) << 2 | tag`: a read (tag 1)
        // whose delta from the chunk's base address 0 is -1 (zigzag 1).
        bytes[payload] = 1 << 2 | 1;
        let sum = placesim_trace::hash::checksum64(&bytes[payload..payload + len]);
        bytes[sum_at..payload].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn an_out_of_range_address_fails_the_scan_and_leaves_no_spill_file() {
        let trace = write_v4(&prog(), 256);
        // Thread 1's fold spills under the tiny budget before its last
        // chunk, whose checksum verifies but whose first address is -1.
        let mut bytes = std::fs::read(&trace).unwrap();
        poison_last_chunk(&mut bytes, 1);
        std::fs::write(&trace, &bytes).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "placesim-spill-dir-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let reader = FileReader::open(&trace).unwrap();
        assert!(reader.chunk_count(ThreadId::new(1)) > 1);
        let budget = SpillBudget::new(5).with_dir(&dir);
        let err = SharingAnalysis::measure_streamed(&reader, &budget).unwrap_err();
        let left = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_file(&trace).unwrap();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(left, 0, "a failed scan must delete its spill files");
    }

    #[test]
    fn empty_threads_and_programs() {
        let p = ProgramTrace::new("holes", vec![ThreadTrace::new(), ThreadTrace::new()]);
        assert!(visits(Source::Trace(&p)).is_empty());
        let path = write_v4(&p, 64);
        let reader = FileReader::open(&path).unwrap();
        let streamed = SharingAnalysis::measure_streamed(&reader, &SpillBudget::new(2)).unwrap();
        assert_eq!(streamed, SharingAnalysis::measure(&p));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn budget_env_parsing() {
        // The environment value falls back to the default when unset,
        // unparsable or zero; direct construction clamps zero to one.
        let default = SpillBudget::DEFAULT_RESIDENT_ADDRS;
        assert_eq!(SpillBudget::cap_from(None), default);
        assert_eq!(SpillBudget::cap_from(Some("lots")), default);
        assert_eq!(SpillBudget::cap_from(Some("-3")), default);
        assert_eq!(SpillBudget::cap_from(Some("0")), default);
        assert_eq!(SpillBudget::cap_from(Some("4096")), 4096);
        assert_eq!(SpillBudget::new(0).max_resident_addrs(), 1);
        assert_eq!(SpillBudget::default().max_resident_addrs(), default);
    }
}
