//! Checksummed, fsync-durable record logs: the sweep journal
//! (`placesim-journal-v1`) and the [`RecordLog`] the placement service
//! keeps its job queue in.
//!
//! Both are line-oriented text files in one format. Each line is
//! self-validating: a 16-hex-digit FNV-1a checksum of the JSON payload,
//! one space, then a single strictly-parsed JSON document carrying the
//! log's schema tag:
//!
//! ```text
//! <crc16hex> {"schema": "placesim-journal-v1", "kind": "header", ...}
//! <crc16hex> {"schema": "placesim-journal-v1", "kind": "cell", "index": 0, ...}
//! ```
//!
//! One scan recovers either log: it keeps the **longest valid prefix**,
//! and the first torn, corrupt or rejected line ends it. Everything from
//! there on is dropped with a per-line reason. One append loop writes
//! either log: write, fsync, and on failure truncate back to the last
//! committed byte and retry, a bounded number of times. A committed line
//! survives `SIGKILL` and power loss.
//!
//! A sweep journal is a [`RecordLog`] whose first record is a
//! **header** describing the exact grid being swept (app, generation
//! parameters, architecture, algorithm × processor-count axes); every
//! later record commits one completed grid cell
//! ([`JournalWriter::commit_cell`]). Its recovery ([`recover`]) adds the
//! sweep's own rules to the shared scan: the header comes first, and
//! each cell is in the grid and appears once. [`JournalWriter::resume`]
//! truncates the file back to the valid prefix, so a crashed sweep
//! restarts from exactly the set of cells whose commits are provably
//! durable.

use crate::manifest::{write_config, ManifestEntry};
use placesim_machine::{ArchConfig, MissBreakdown, Protocol};
use placesim_obs::json::{self, JsonValue, JsonWriter};
use placesim_obs::sink;
use placesim_obs::FaultCounters;
use placesim_trace::hash::fnv1a64;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// Schema tag stamped into every journal line; bump when the layout
/// changes.
pub const JOURNAL_SCHEMA: &str = "placesim-journal-v1";

/// Bounded attempts an append spends absorbing transient write
/// failures before giving up.
const MAX_COMMIT_ATTEMPTS: u32 = 3;

/// Renders a payload as a checksummed log line (with trailing newline).
fn to_line(payload: &str) -> String {
    format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()))
}

/// Any failure touching a sweep journal.
#[derive(Debug)]
pub enum JournalError {
    /// The filesystem failed underneath the journal.
    Io(io::Error),
    /// The journal is unrecoverable: missing, empty, or its header line
    /// is unreadable.
    Corrupt(String),
    /// The journal is readable but records a different sweep (other
    /// app, seed, scale, architecture or grid axes) than the one being
    /// resumed.
    Mismatch(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt(msg) => write!(f, "corrupt journal: {msg}"),
            JournalError::Mismatch(msg) => write!(f, "journal mismatch: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The sweep a journal belongs to: the exact grid and inputs. Resume
/// refuses to mix journals across sweeps — every field here must match.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Application (trace) name.
    pub app: String,
    /// Trace scale factor.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Architecture simulated.
    pub config: ArchConfig,
    /// Algorithm axis, in grid order (paper names).
    pub algorithms: Vec<String>,
    /// Processor-count axis, in grid order.
    pub processors: Vec<usize>,
}

impl JournalHeader {
    /// Number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.algorithms.len() * self.processors.len()
    }

    /// The `(algorithm, processors)` pair of a cell index
    /// (algorithm-major order, matching [`crate::run_sweep`]).
    pub fn cell(&self, index: usize) -> Option<(&str, usize)> {
        if index >= self.cell_count() || self.processors.is_empty() {
            return None;
        }
        Some((
            self.algorithms[index / self.processors.len()].as_str(),
            self.processors[index % self.processors.len()],
        ))
    }

    /// The header as a checksummed journal line (with trailing newline).
    pub fn to_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", JOURNAL_SCHEMA);
        w.field_str("kind", "header");
        w.field_str("app", &self.app);
        w.field_f64("scale", self.scale);
        w.field_u64("seed", self.seed);
        w.key("config");
        write_config(&mut w, &self.config);
        w.key("algorithms");
        w.begin_array();
        for a in &self.algorithms {
            w.value_str(a);
        }
        w.end_array();
        w.key("processors");
        w.begin_array();
        for &p in &self.processors {
            w.value_u64(p as u64);
        }
        w.end_array();
        w.end_object();
        to_line(&w.finish())
    }

    fn from_doc(doc: &JsonValue) -> Result<Self, String> {
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("header field {key:?} is not a string"))
        };
        let cfg = doc.get("config").ok_or("header has no config block")?;
        let cfg_u64 = |key: &str| {
            cfg.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("config.{key} is not an unsigned integer"))
        };
        // Additive field: headers written before protocols existed have
        // no config.protocol and mean the paper's write-invalidate
        // machine; a present-but-unknown value is corruption.
        let protocol = match cfg.get("protocol") {
            None => Protocol::Wi,
            Some(v) => v
                .as_str()
                .ok_or_else(|| "config.protocol is not a string".to_owned())?
                .parse::<Protocol>()
                .map_err(|e| e.to_string())?,
        };
        let config = ArchConfig::builder()
            .cache_size(cfg_u64("cache_bytes")?)
            .line_size(cfg_u64("line_bytes")?)
            .associativity(
                u32::try_from(cfg_u64("associativity")?)
                    .map_err(|_| "config.associativity exceeds u32".to_owned())?,
            )
            .memory_latency(cfg_u64("memory_latency")?)
            .memory_occupancy(cfg_u64("memory_occupancy")?)
            .context_switch(cfg_u64("context_switch")?)
            .protocol(protocol)
            .build()
            .map_err(|e| format!("header config is not buildable: {e}"))?;
        let algorithms = doc
            .get("algorithms")
            .and_then(JsonValue::as_array)
            .ok_or("header field \"algorithms\" is not an array")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "algorithms entry is not a string".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let processors = doc
            .get("processors")
            .and_then(JsonValue::as_array)
            .ok_or("header field \"processors\" is not an array")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|p| p as usize)
                    .ok_or_else(|| "processors entry is not an unsigned integer".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        if algorithms.is_empty() || processors.is_empty() {
            return Err("header grid axes must be non-empty".into());
        }
        Ok(JournalHeader {
            app: str_field("app")?,
            scale: doc
                .get("scale")
                .and_then(JsonValue::as_f64)
                .ok_or("header field \"scale\" is not a number")?,
            seed: doc
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("header field \"seed\" is not an unsigned integer")?,
            config,
            algorithms,
            processors,
        })
    }
}

/// One committed grid cell: its index, how many attempts it took, and
/// the manifest entry that reproduces its row of the final report
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalCell {
    /// Cell index in algorithm-major grid order.
    pub index: usize,
    /// Attempts spent before the cell succeeded (1 = first try).
    pub attempts: u32,
    /// The committed result.
    pub entry: ManifestEntry,
}

impl JournalCell {
    /// The cell as a checksummed journal line (with trailing newline).
    pub fn to_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", JOURNAL_SCHEMA);
        w.field_str("kind", "cell");
        w.field_u64("index", self.index as u64);
        w.field_u64("attempts", u64::from(self.attempts));
        self.entry.write_fields(&mut w);
        w.end_object();
        to_line(&w.finish())
    }

    fn from_doc(doc: &JsonValue) -> Result<Self, String> {
        let u = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("cell field {key:?} is not an unsigned integer"))
        };
        Ok(JournalCell {
            index: u("index")? as usize,
            attempts: u32::try_from(u("attempts")?)
                .map_err(|_| "cell attempts exceeds u32".to_owned())?,
            entry: ManifestEntry {
                algorithm: doc
                    .get("algorithm")
                    .and_then(JsonValue::as_str)
                    .ok_or("cell field \"algorithm\" is not a string")?
                    .to_owned(),
                processors: u("processors")? as usize,
                execution_time: u("execution_time")?,
                total_refs: u("total_refs")?,
                total_misses: u("total_misses")?,
                miss_rate: doc
                    .get("miss_rate")
                    .and_then(JsonValue::as_f64)
                    .ok_or("cell field \"miss_rate\" is not a number")?,
                coherence_traffic: u("coherence_traffic")?,
                // Additive-in-v1: journals written before write-update
                // protocols existed carry no update_traffic.
                update_traffic: doc
                    .get("update_traffic")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                misses: MissBreakdown {
                    compulsory: u("compulsory")?,
                    intra_thread_conflict: u("intra_thread_conflict")?,
                    inter_thread_conflict: u("inter_thread_conflict")?,
                    invalidation: u("invalidation")?,
                },
            },
        })
    }
}

/// One journal line discarded during recovery, with the exact reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedLine {
    /// 1-based line number in the journal file.
    pub line: usize,
    /// Why the line was dropped.
    pub reason: String,
}

impl fmt::Display for DroppedLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

/// The result of recovering a journal: the longest valid prefix plus an
/// exact account of everything that was dropped.
#[derive(Debug)]
pub struct JournalRecovery {
    /// The sweep the journal belongs to.
    pub header: JournalHeader,
    /// Committed cells, in append order, each index unique.
    pub cells: Vec<JournalCell>,
    /// Lines discarded (empty when the journal is pristine).
    pub dropped: Vec<DroppedLine>,
    /// Byte length of the valid prefix; everything past this offset is
    /// garbage that resume truncates away.
    pub valid_bytes: u64,
}

impl JournalRecovery {
    /// Looks up a committed cell by grid index.
    pub fn cell(&self, index: usize) -> Option<&JournalCell> {
        self.cells.iter().find(|c| c.index == index)
    }
}

/// Scans a checksummed line log, keeping the longest valid prefix.
/// `accept` sees each line's verified payload in order and may reject
/// it; the first malformed or rejected line ends the prefix, and it and
/// every later line are dropped with a reason. Returns the dropped lines
/// and the byte length of the prefix.
fn scan(
    data: &[u8],
    schema: &str,
    mut accept: impl FnMut(JsonValue) -> Result<(), String>,
) -> (Vec<DroppedLine>, u64) {
    let mut dropped = Vec::new();
    let mut valid_bytes = 0u64;
    let mut invalid_at: Option<usize> = None;
    // Newline-terminated chunks plus any unterminated tail; splitting
    // bytes, not text, keeps offsets exact across invalid UTF-8.
    for (i, chunk) in data.split_inclusive(|&b| b == b'\n').enumerate() {
        let line = i + 1;
        let reason = match invalid_at {
            Some(first_bad) => format!("discarded: follows invalid line {first_bad}"),
            None => match parse_line(chunk, schema).and_then(&mut accept) {
                Ok(()) => {
                    valid_bytes += chunk.len() as u64;
                    continue;
                }
                Err(reason) => {
                    invalid_at = Some(line);
                    reason
                }
            },
        };
        dropped.push(DroppedLine { line, reason });
    }
    (dropped, valid_bytes)
}

/// Verifies one chunk's framing — a `\n` or `\r\n` terminator, UTF-8,
/// a matching checksum, one strict JSON document, the schema tag — and
/// returns the document.
fn parse_line(chunk: &[u8], schema: &str) -> Result<JsonValue, String> {
    let body = chunk
        .strip_suffix(b"\n")
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .and_then(|line| std::str::from_utf8(line).ok())
        .ok_or("torn line (no terminating newline or invalid UTF-8)")?;
    if body.is_empty() {
        return Err("empty line".into());
    }
    let (crc_hex, payload) = body
        .split_once(' ')
        .ok_or("missing checksum prefix".to_owned())?;
    if crc_hex.len() != 16 {
        return Err("checksum prefix is not 16 hex digits".into());
    }
    let crc =
        u64::from_str_radix(crc_hex, 16).map_err(|_| "checksum prefix is not hex".to_owned())?;
    if crc != fnv1a64(payload.as_bytes()) {
        return Err("checksum mismatch (torn or corrupted line)".into());
    }
    let doc = json::parse(payload).map_err(|e| format!("payload rejected: {e}"))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(schema) {
        return Err(format!("payload is not schema {schema}"));
    }
    Ok(doc)
}

/// Recovers a journal from its raw bytes, keeping the longest valid
/// prefix. The header line must be intact — without it the journal
/// cannot be attributed to a sweep and is [`JournalError::Corrupt`].
/// Every later defect (torn final line, interleaved garbage, bad
/// checksum, invalid UTF-8, empty line, duplicate or out-of-grid cells;
/// CRLF endings are tolerated) ends the prefix: that line and
/// everything after it are reported in [`JournalRecovery::dropped`].
///
/// # Errors
///
/// [`JournalError::Corrupt`] when the header line is missing or
/// unreadable.
pub fn recover(data: &[u8]) -> Result<JournalRecovery, JournalError> {
    let mut header: Option<JournalHeader> = None;
    let mut header_fault: Option<String> = None;
    let mut cells: Vec<JournalCell> = Vec::new();
    let (dropped, valid_bytes) = scan(data, JOURNAL_SCHEMA, |doc| {
        if let Some(h) = &header {
            cells.push(validate_cell(&doc, h, &cells)?);
            return Ok(());
        }
        let parsed = if doc.get("kind").and_then(JsonValue::as_str) == Some("header") {
            JournalHeader::from_doc(&doc)
        } else {
            Err("first line is not a header record".into())
        };
        match parsed {
            Ok(h) => {
                header = Some(h);
                Ok(())
            }
            Err(e) => {
                header_fault = Some(e.clone());
                Err(e)
            }
        }
    });
    let Some(header) = header else {
        // Line 1 was dropped: rejected as a header, or not a line at all.
        return Err(JournalError::Corrupt(match dropped.first() {
            None => "journal is empty".into(),
            Some(d) => header_fault.unwrap_or_else(|| format!("header {}", d.reason)),
        }));
    };
    Ok(JournalRecovery {
        header,
        cells,
        dropped,
        valid_bytes,
    })
}

/// Validates one cell record against the header grid and the cells
/// already accepted.
fn validate_cell(
    doc: &JsonValue,
    header: &JournalHeader,
    accepted: &[JournalCell],
) -> Result<JournalCell, String> {
    match doc.get("kind").and_then(JsonValue::as_str) {
        Some("cell") => {}
        Some(other) => return Err(format!("unexpected record kind {other:?}")),
        None => return Err("record has no kind".into()),
    }
    let cell = JournalCell::from_doc(doc)?;
    let (algo, procs) = header
        .cell(cell.index)
        .ok_or_else(|| format!("cell index {} is outside the grid", cell.index))?;
    if cell.entry.algorithm != algo || cell.entry.processors != procs {
        return Err(format!(
            "cell {} claims ({}, {}p) but the grid says ({algo}, {procs}p)",
            cell.index, cell.entry.algorithm, cell.entry.processors
        ));
    }
    if accepted.iter().any(|c| c.index == cell.index) {
        return Err(format!("duplicate entry for cell {}", cell.index));
    }
    Ok(cell)
}

/// Reads and recovers a journal file.
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be read,
/// [`JournalError::Corrupt`] if its header is unreadable.
pub fn read_journal(path: &Path) -> Result<JournalRecovery, JournalError> {
    recover(&fs::read(path)?)
}

/// An open, fsync-durable sweep journal: a [`RecordLog`] whose first
/// record is the [`JournalHeader`] and whose later records are
/// [`JournalCell`]s.
#[derive(Debug)]
pub struct JournalWriter(RecordLog);

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and durably writes the
    /// header line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, JournalError> {
        let file = File::options()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // The header's own fsync makes the truncation durable too: one
        // file sync per sweep start, not one for the cut and one for
        // the header.
        let mut log = RecordLog::new(file, 0);
        log.append_line(&header.to_line(), None, &mut FaultCounters::new())?;
        sink::fsync_dir(sink::parent_dir(path))?;
        Ok(JournalWriter(log))
    }

    /// Opens an existing journal for resumption: recovers the longest
    /// valid prefix, verifies it records the same sweep as `expected`,
    /// truncates any garbage tail, and positions the writer for further
    /// commits.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] / [`JournalError::Corrupt`] as in
    /// [`read_journal`], plus [`JournalError::Mismatch`] when the
    /// journal belongs to a different sweep.
    pub fn resume(
        path: &Path,
        expected: &JournalHeader,
    ) -> Result<(Self, JournalRecovery), JournalError> {
        let recovery = read_journal(path)?;
        if &recovery.header != expected {
            return Err(JournalError::Mismatch(format!(
                "journal records a different sweep (journal app {:?} seed {} scale {} protocol \
                 {} over {}x{} cells); refusing to mix results",
                recovery.header.app,
                recovery.header.seed,
                recovery.header.scale,
                recovery.header.config.protocol(),
                recovery.header.algorithms.len(),
                recovery.header.processors.len(),
            )));
        }
        let log = RecordLog::at(path, recovery.valid_bytes)?;
        Ok((JournalWriter(log), recovery))
    }

    /// Arms this writer with a chaos plan: journal faults from the plan
    /// are injected into first append attempts.
    #[cfg(feature = "chaos")]
    pub fn with_chaos(mut self, plan: Option<crate::chaos::ChaosPlan>) -> Self {
        self.0.chaos = plan;
        self
    }

    /// Durably commits one cell through [`RecordLog`]'s append loop:
    /// append, flush, fsync, with transient failures (including
    /// injected chaos faults) absorbed by bounded retries; `faults`
    /// records every absorbed error and retry.
    ///
    /// # Errors
    ///
    /// The last I/O error when every retry is exhausted.
    pub fn commit_cell(
        &mut self,
        cell: &JournalCell,
        faults: &mut FaultCounters,
    ) -> Result<(), JournalError> {
        self.0
            .append_line(&cell.to_line(), Some(cell.index), faults)
    }

    /// Bytes durably committed so far.
    pub fn committed_bytes(&self) -> u64 {
        self.0.committed_bytes()
    }
}

/// The result of recovering a [`RecordLog`]: the longest valid prefix
/// of records plus an exact account of everything dropped.
#[derive(Debug)]
pub struct RecordRecovery {
    /// Parsed records in append order.
    pub records: Vec<JsonValue>,
    /// Lines discarded (empty when the log is pristine).
    pub dropped: Vec<DroppedLine>,
    /// Byte length of the valid prefix; everything past this offset is
    /// garbage that [`RecordLog::open`] truncates away.
    pub valid_bytes: u64,
}

/// Recovers a record log from raw bytes, keeping the longest valid
/// prefix. There is no mandatory header: an empty file is a valid,
/// empty log. A line survives when its checksum verifies, its payload
/// strictly parses, and the payload carries `"schema": <schema>`; the
/// first defect ends the prefix.
pub fn recover_records(data: &[u8], schema: &str) -> RecordRecovery {
    let mut records = Vec::new();
    let (dropped, valid_bytes) = scan(data, schema, |doc| {
        records.push(doc);
        Ok(())
    });
    RecordRecovery {
        records,
        dropped,
        valid_bytes,
    }
}

/// An append-only checksummed record log (`<crc16hex> <json>\n` lines)
/// parametrized over the payload schema. Every append is flushed and
/// fsynced before it is reported durable; a failed append is truncated
/// back to the last committed byte and retried, so a transient I/O
/// error never leaves a torn line for the *same* process to trip over
/// (a crash mid-append is handled by recovery instead). The placement
/// service layers its durable job queue on this; the sweep journal is
/// one too ([`JournalWriter`]).
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    committed: u64,
    #[cfg(feature = "chaos")]
    chaos: Option<crate::chaos::ChaosPlan>,
}

impl RecordLog {
    /// Opens (creating if absent) the log at `path`: recovers the
    /// longest valid prefix of `schema` records, truncates any garbage
    /// tail, and positions the writer for further appends.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path, schema: &str) -> Result<(Self, RecordRecovery), JournalError> {
        let data = match fs::read(path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(JournalError::Io(e)),
        };
        let recovery = recover_records(&data, schema);
        Ok((Self::at(path, recovery.valid_bytes)?, recovery))
    }

    /// Opens (creating if absent) the file at `path` for appending after
    /// its first `valid_bytes`, durably cutting off anything beyond.
    fn at(path: &Path, valid_bytes: u64) -> Result<Self, JournalError> {
        let mut file = File::options()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_bytes)?;
        file.seek(SeekFrom::Start(valid_bytes))?;
        file.sync_data()?;
        sink::fsync_dir(sink::parent_dir(path))?;
        Ok(Self::new(file, valid_bytes))
    }

    /// A log appending to `file`, whose first `committed` bytes are
    /// durable and where the file is positioned.
    fn new(file: File, committed: u64) -> Self {
        RecordLog {
            file,
            committed,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }

    /// Durably appends one record: checksum-frame, write, flush, fsync.
    /// `payload` must be one strict JSON document carrying the log's
    /// schema tag — recovery drops anything else. Transient append
    /// failures are absorbed with bounded retries, truncating back to
    /// the last committed byte between attempts; `faults` records every
    /// absorbed error and retry.
    ///
    /// # Errors
    ///
    /// The last I/O error when every retry is exhausted.
    pub fn append(
        &mut self,
        payload: &str,
        faults: &mut FaultCounters,
    ) -> Result<(), JournalError> {
        self.append_line(&to_line(payload), None, faults)
    }

    /// The append loop: write + fsync, and on failure rewind to the last
    /// committed byte and retry, up to [`MAX_COMMIT_ATTEMPTS`]. `cell`
    /// keys the chaos plan's journal faults (sweep cells only).
    fn append_line(
        &mut self,
        line: &str,
        cell: Option<usize>,
        faults: &mut FaultCounters,
    ) -> Result<(), JournalError> {
        let mut attempt = 0u32;
        loop {
            match self.write_once(line.as_bytes(), cell, attempt) {
                Ok(()) => {
                    self.committed += line.len() as u64;
                    return Ok(());
                }
                Err(e) => {
                    faults.io_errors += 1;
                    // Rewind over any partial write before retrying (or
                    // giving up): the on-disk prefix must stay valid.
                    self.file.set_len(self.committed)?;
                    self.file.seek(SeekFrom::Start(self.committed))?;
                    attempt += 1;
                    if attempt >= MAX_COMMIT_ATTEMPTS {
                        return Err(JournalError::Io(e));
                    }
                    faults.retries += 1;
                }
            }
        }
    }

    /// One raw append attempt: write + fsync, with chaos faults
    /// injected on a cell's first attempt when a plan is armed.
    fn write_once(&mut self, bytes: &[u8], cell: Option<usize>, attempt: u32) -> io::Result<()> {
        #[cfg(feature = "chaos")]
        if attempt == 0 {
            let fault = cell
                .zip(self.chaos.as_ref())
                .and_then(|(cell, plan)| plan.journal_fault(cell));
            match fault {
                Some(crate::chaos::JournalFault::ShortWrite) => {
                    // Make the torn state real on disk before failing,
                    // exactly as a crashed write would.
                    let half = bytes.len() / 2;
                    self.file.write_all(&bytes[..half])?;
                    self.file.sync_data()?;
                    return Err(io::Error::other("chaos: injected short write"));
                }
                Some(crate::chaos::JournalFault::Error) => {
                    return Err(io::Error::other("chaos: injected append error"));
                }
                None => {}
            }
        }
        #[cfg(not(feature = "chaos"))]
        let _ = (cell, attempt);
        self.file.write_all(bytes)?;
        self.file.sync_data()
    }

    /// Bytes durably committed so far.
    pub fn committed_bytes(&self) -> u64 {
        self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("placesim-journal-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    pub(crate) fn sample_header() -> JournalHeader {
        JournalHeader {
            app: "water".into(),
            scale: 0.002,
            seed: 3,
            config: ArchConfig::paper_default(),
            algorithms: vec!["RANDOM".into(), "LOAD-BAL".into()],
            processors: vec![2, 4],
        }
    }

    pub(crate) fn sample_cell(index: usize) -> JournalCell {
        let header = sample_header();
        let (algo, procs) = header.cell(index).unwrap();
        JournalCell {
            index,
            attempts: 1,
            entry: ManifestEntry {
                algorithm: algo.to_owned(),
                processors: procs,
                execution_time: 1000 + index as u64,
                total_refs: 500,
                total_misses: 50,
                miss_rate: 0.1,
                coherence_traffic: 7,
                update_traffic: 0,
                misses: MissBreakdown::default(),
            },
        }
    }

    #[test]
    fn header_grid_mapping_is_algorithm_major() {
        let h = sample_header();
        assert_eq!(h.cell_count(), 4);
        assert_eq!(h.cell(0), Some(("RANDOM", 2)));
        assert_eq!(h.cell(1), Some(("RANDOM", 4)));
        assert_eq!(h.cell(2), Some(("LOAD-BAL", 2)));
        assert_eq!(h.cell(3), Some(("LOAD-BAL", 4)));
        assert_eq!(h.cell(4), None);
    }

    #[test]
    fn lines_round_trip_through_recovery() {
        let h = sample_header();
        let mut text = h.to_line();
        text.push_str(&sample_cell(0).to_line());
        text.push_str(&sample_cell(2).to_line());
        let rec = recover(text.as_bytes()).unwrap();
        assert_eq!(rec.header, h);
        assert_eq!(rec.cells.len(), 2);
        assert_eq!(rec.cells[0], sample_cell(0));
        assert_eq!(rec.cells[1], sample_cell(2));
        assert!(rec.dropped.is_empty());
        assert_eq!(rec.valid_bytes, text.len() as u64);
        assert_eq!(rec.cell(2), Some(&sample_cell(2)));
        assert_eq!(rec.cell(1), None);
    }

    #[test]
    fn writer_creates_commits_and_resumes() {
        let dir = tmp_dir("writer");
        let path = dir.join("sweep.journal");
        let h = sample_header();
        let mut faults = FaultCounters::new();
        let mut w = JournalWriter::create(&path, &h).unwrap();
        w.commit_cell(&sample_cell(1), &mut faults).unwrap();
        assert_eq!(faults, FaultCounters::new());
        let on_disk = fs::metadata(&path).unwrap().len();
        assert_eq!(w.committed_bytes(), on_disk);
        drop(w);

        let (mut w, rec) = JournalWriter::resume(&path, &h).unwrap();
        assert_eq!(rec.cells, vec![sample_cell(1)]);
        assert!(rec.dropped.is_empty());
        w.commit_cell(&sample_cell(0), &mut faults).unwrap();
        drop(w);
        let rec = read_journal(&path).unwrap();
        assert_eq!(rec.cells.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_truncates_torn_tail() {
        let dir = tmp_dir("torn");
        let path = dir.join("sweep.journal");
        let h = sample_header();
        let mut faults = FaultCounters::new();
        let mut w = JournalWriter::create(&path, &h).unwrap();
        w.commit_cell(&sample_cell(0), &mut faults).unwrap();
        let good_len = w.committed_bytes();
        drop(w);
        // Crash mid-append: half a line, no newline.
        let torn = sample_cell(1).to_line();
        let mut f = File::options().append(true).open(&path).unwrap();
        f.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        drop(f);

        let (w, rec) = JournalWriter::resume(&path, &h).unwrap();
        assert_eq!(rec.cells, vec![sample_cell(0)]);
        assert_eq!(rec.dropped.len(), 1);
        assert!(rec.dropped[0].reason.contains("torn"), "{:?}", rec.dropped);
        assert_eq!(rec.valid_bytes, good_len);
        assert_eq!(fs::metadata(&path).unwrap().len(), good_len);
        drop(w);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_sweep() {
        let dir = tmp_dir("mismatch");
        let path = dir.join("sweep.journal");
        let h = sample_header();
        drop(JournalWriter::create(&path, &h).unwrap());
        let mut other = sample_header();
        other.seed = 99;
        assert!(matches!(
            JournalWriter::resume(&path, &other),
            Err(JournalError::Mismatch(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_protocol() {
        // The header pins the coherence protocol: resuming a wi sweep
        // with a dragon config must refuse rather than mix results.
        let dir = tmp_dir("protocol-mismatch");
        let path = dir.join("sweep.journal");
        let h = sample_header();
        drop(JournalWriter::create(&path, &h).unwrap());
        let mut other = sample_header();
        let mut builder = ArchConfig::builder();
        builder.protocol(Protocol::Dragon);
        other.config = builder.build().unwrap();
        let err = JournalWriter::resume(&path, &other)
            .expect_err("resume must refuse a protocol mismatch");
        match err {
            JournalError::Mismatch(msg) => assert!(msg.contains("protocol wi"), "{msg}"),
            other => panic!("expected mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_round_trips_non_default_protocol() {
        let mut h = sample_header();
        let mut builder = ArchConfig::builder();
        builder.protocol(Protocol::Mesi);
        h.config = builder.build().unwrap();
        let rec = recover(h.to_line().as_bytes()).unwrap();
        assert_eq!(rec.header, h);
        assert_eq!(rec.header.config.protocol(), Protocol::Mesi);
    }

    #[test]
    fn pre_protocol_header_defaults_to_write_invalidate() {
        // A header without config.protocol (written before protocols
        // existed) parses as the paper's machine; a junk protocol is
        // corruption.
        let h = sample_header();
        let line = h.to_line();
        let (_, payload) = line.split_once(' ').unwrap();
        let payload = payload.trim_end(); // drop the newline before re-checksumming
        let stripped = payload.replacen(", \"protocol\": \"wi\"", "", 1);
        assert_ne!(&stripped, payload);
        let reline = to_line(&stripped);
        let rec = recover(reline.as_bytes()).unwrap();
        assert_eq!(rec.header.config.protocol(), Protocol::Wi);

        let junk = payload.replacen("\"protocol\": \"wi\"", "\"protocol\": \"moesi\"", 1);
        assert!(matches!(
            recover(to_line(&junk).as_bytes()),
            Err(JournalError::Corrupt(msg)) if msg.contains("unknown protocol")
        ));
    }

    #[test]
    fn corrupt_header_is_unrecoverable() {
        assert!(matches!(
            recover(b""),
            Err(JournalError::Corrupt(msg)) if msg.contains("empty")
        ));
        assert!(matches!(
            recover(b"not a journal\n"),
            Err(JournalError::Corrupt(_))
        ));
        // A cell line first (no header) is unrecoverable too.
        let cell_first = sample_cell(0).to_line();
        assert!(matches!(
            recover(cell_first.as_bytes()),
            Err(JournalError::Corrupt(_))
        ));
    }

    #[test]
    fn record_log_round_trips_and_truncates_garbage() {
        let dir = tmp_dir("recordlog");
        let path = dir.join("service.journal");
        let mut faults = FaultCounters::new();
        let (mut log, rec) = RecordLog::open(&path, "placesim-service-v1").unwrap();
        assert!(rec.records.is_empty() && rec.dropped.is_empty());
        log.append(
            "{\"schema\": \"placesim-service-v1\", \"kind\": \"job\", \"id\": 1}",
            &mut faults,
        )
        .unwrap();
        log.append(
            "{\"schema\": \"placesim-service-v1\", \"kind\": \"done\", \"id\": 1}",
            &mut faults,
        )
        .unwrap();
        let good_len = log.committed_bytes();
        drop(log);
        // Torn tail: half a line appended by a crashed writer.
        let mut f = File::options().append(true).open(&path).unwrap();
        f.write_all(b"deadbeef tor").unwrap();
        drop(f);

        let (log, rec) = RecordLog::open(&path, "placesim-service-v1").unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(
            rec.records[1].get("kind").and_then(JsonValue::as_str),
            Some("done")
        );
        assert_eq!(rec.dropped.len(), 1);
        assert_eq!(rec.valid_bytes, good_len);
        assert_eq!(fs::metadata(&path).unwrap().len(), good_len);
        drop(log);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_log_rejects_foreign_schema_lines() {
        let mut text = to_line("{\"schema\": \"placesim-service-v1\", \"id\": 1}");
        text.push_str(&to_line("{\"schema\": \"placesim-journal-v1\", \"id\": 2}"));
        text.push_str(&to_line("{\"schema\": \"placesim-service-v1\", \"id\": 3}"));
        let rec = recover_records(text.as_bytes(), "placesim-service-v1");
        // The foreign line ends the prefix; the valid line after it is
        // dropped too (longest valid *prefix*, not a filter).
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.dropped.len(), 2);
        assert!(
            rec.dropped[0].reason.contains("schema"),
            "{:?}",
            rec.dropped
        );
    }

    #[test]
    fn error_display_and_source() {
        let io_err = JournalError::from(io::Error::other("disk on fire"));
        assert!(io_err.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&io_err).is_some());
        let corrupt = JournalError::Corrupt("bad".into());
        assert!(corrupt.to_string().contains("corrupt"));
        assert!(std::error::Error::source(&corrupt).is_none());
    }
}
