//! The supervised sweep runner: per-cell fault isolation, watchdog
//! timeouts, bounded retries, and checkpoint/resume through the
//! [`crate::journal`].
//!
//! [`run_supervised_sweep`] turns the all-or-nothing grid of
//! [`crate::run_sweep`] into a small job scheduler. Every grid cell
//! (algorithm × processor count) runs as an isolated attempt on its own
//! worker thread: a panic is caught and classified, a wedged simulation
//! is abandoned when the wall-clock watchdog fires, and both are
//! retried a bounded number of times before the cell degrades into an
//! annotated **hole**. Deterministic failures (typed placement or
//! simulation errors) are never retried — re-running them would produce
//! the same error. Each success is durably committed to the journal
//! *before* the cell is reported done, so a crash at any instant loses
//! at most the cells still in flight; resuming from the journal skips
//! every committed cell and reproduces the uninterrupted run's entries
//! bit-identically.

use crate::error::Error;
use crate::experiment::{run_placement, run_placement_attributed, PreparedApp};
use crate::journal::{DroppedLine, JournalCell, JournalError, JournalHeader, JournalWriter};
use crate::manifest::{ManifestEntry, RunManifest};
use placesim_machine::{AttrCollector, AttributionConfig};
use placesim_obs::json::JsonWriter;
use placesim_obs::{sink, FaultCounters};
use placesim_placement::PlacementAlgorithm;
use placesim_trace::par::{
    panic_payload_summary, parallel_map_isolated, CancelToken, IsolatedOutcome,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Exponential retry backoff with deterministic, seeded jitter.
///
/// The delay before retry attempt `n` (1-based count of failures so
/// far) is `min(cap, base · 2^(n-1))` plus a jitter drawn uniformly
/// from `[0, delay/2]` — but the "draw" is a pure splitmix64 hash of
/// `(seed, job, n)`, so the whole schedule is a deterministic function
/// of the policy and the job: chaos tests can assert it exactly, and
/// two supervisors with the same seed de-synchronize their retries
/// per-job instead of stampeding together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    base: Duration,
    cap: Duration,
    seed: u64,
}

impl BackoffPolicy {
    /// A policy backing off from `base` doubling up to `cap`, with
    /// jitter seeded by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        BackoffPolicy { base, cap, seed }
    }

    /// The delay before the next attempt of `job`, after
    /// `failed_attempts` failures (so the first retry passes 1).
    /// `failed_attempts == 0` means nothing failed yet: zero delay.
    pub fn delay(&self, job: u64, failed_attempts: u32) -> Duration {
        if failed_attempts == 0 {
            return Duration::ZERO;
        }
        let base_ms = self.base.as_millis().min(u128::from(u64::MAX)) as u64;
        let cap_ms = self.cap.as_millis().min(u128::from(u64::MAX)) as u64;
        // 2^(n-1) with the shift clamped so a huge attempt count
        // saturates at the cap instead of overflowing.
        let exp = base_ms
            .saturating_mul(1u64 << u64::from(failed_attempts - 1).min(32))
            .min(cap_ms);
        let jitter = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(job << 8)
                .wrapping_add(u64::from(failed_attempts)),
        ) % (exp / 2 + 1);
        Duration::from_millis(exp + jitter)
    }
}

/// The splitmix64 finalizer: avalanches a combined key into a uniform
/// 64-bit value. Shared by the backoff jitter and (in spirit) the
/// chaos plan's fault rolls.
fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Supervision policy for a sweep.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Maximum attempts per cell (0 is treated as 1). Deterministic
    /// errors are never retried regardless.
    pub max_attempts: u32,
    /// Wall-clock budget per attempt; `None` disables the watchdog. A
    /// timed-out attempt's thread is abandoned (detached), not joined —
    /// a wedged simulation cannot wedge the supervisor.
    pub watchdog: Option<Duration>,
    /// Attribute every cell's coherence events and fold the per-cell
    /// collectors into a sweep-level [`AttrCollector`]
    /// ([`SupervisedSweep::attribution`]).
    pub attribution: Option<AttributionConfig>,
    /// Live progress file ([`TELEMETRY_SCHEMA`]): atomically rewritten
    /// after every cell event — commit, hole, retry — with cells
    /// done/failed/retried, the sweep's refs/sec, and (when attribution
    /// is on) the current hottest addresses. Best-effort: an unwritable
    /// telemetry path never fails the sweep.
    pub telemetry: Option<PathBuf>,
    /// Delay schedule between retry attempts; `None` retries
    /// immediately (the historical behavior).
    pub backoff: Option<BackoffPolicy>,
    /// Fault-injection plan for chaos testing.
    #[cfg(feature = "chaos")]
    pub chaos: Option<crate::chaos::ChaosPlan>,
}

impl SupervisorConfig {
    /// The default policy: 3 attempts per cell, no watchdog.
    pub fn new() -> Self {
        SupervisorConfig {
            max_attempts: 3,
            watchdog: None,
            attribution: None,
            telemetry: None,
            backoff: None,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }

    /// Sets the per-cell attempt bound.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Sets the per-attempt wall-clock watchdog.
    pub fn with_watchdog(mut self, budget: Duration) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// Turns on per-cell coherence attribution with the given sizing.
    pub fn with_attribution(mut self, acfg: AttributionConfig) -> Self {
        self.attribution = Some(acfg);
        self
    }

    /// Sets the live-telemetry output path.
    pub fn with_telemetry(mut self, path: PathBuf) -> Self {
        self.telemetry = Some(path);
        self
    }

    /// Spaces retries out on an exponential-with-jitter schedule
    /// instead of re-attempting immediately.
    pub fn with_backoff(mut self, policy: BackoffPolicy) -> Self {
        self.backoff = Some(policy);
        self
    }

    /// Arms a chaos fault-injection plan.
    #[cfg(feature = "chaos")]
    pub fn with_chaos(mut self, plan: crate::chaos::ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    fn attempt_bound(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// A grid cell that failed permanently: every attempt was exhausted (or
/// the failure was deterministic). The rest of the sweep is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepHole {
    /// Cell index in algorithm-major grid order.
    pub index: usize,
    /// Algorithm of the failed cell (paper name).
    pub algorithm: String,
    /// Processor count of the failed cell.
    pub processors: usize,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// What went wrong on the final attempt.
    pub reason: String,
}

/// The outcome of a supervised sweep: every committed cell (old and
/// new), every hole, and the fault accounting.
#[derive(Debug)]
pub struct SupervisedSweep {
    /// The sweep's grid, as recorded in the journal header.
    pub header: JournalHeader,
    /// Committed cells in grid-index order. On a healthy sweep this
    /// covers the whole grid.
    pub cells: Vec<JournalCell>,
    /// Cells that failed permanently, in grid-index order.
    pub holes: Vec<SweepHole>,
    /// Journal lines dropped during resume recovery (empty for a fresh
    /// run or a pristine journal).
    pub dropped: Vec<DroppedLine>,
    /// Faults absorbed along the way: panics, timeouts, deterministic
    /// errors, journal I/O errors and retries.
    pub faults: FaultCounters,
    /// Cells skipped because the journal had already committed them.
    pub resumed: usize,
    /// Sweep-level coherence attribution: every committed cell's
    /// collector merged in commit order. `Some` exactly when
    /// [`SupervisorConfig::attribution`] was set (resumed cells were
    /// attributed by the run that committed them and are not re-run, so
    /// their events are absent — the totals cover this run's cells).
    pub attribution: Option<AttrCollector>,
}

impl SupervisedSweep {
    /// `true` when every grid cell committed (no holes).
    pub fn is_complete(&self) -> bool {
        self.holes.is_empty() && self.cells.len() == self.header.cell_count()
    }

    /// The committed cells as a [`RunManifest`], entries in grid-index
    /// order. Identical grids produce identical manifests whether the
    /// sweep ran uninterrupted or was killed and resumed — the basis of
    /// the bit-identical-resume guarantee (the manifest's `wall_secs`
    /// is left at zero: wall time is not reproducible and is excluded
    /// from report output anyway).
    pub fn manifest(&self) -> RunManifest {
        let mut m = RunManifest::new("sweep", &self.header.app, &self.header.config);
        m.scale = Some(self.header.scale);
        m.seed = Some(self.header.seed);
        m.entries = self.cells.iter().map(|c| c.entry.clone()).collect();
        m
    }
}

/// Builds the journal header describing `app`'s sweep over
/// `algorithms` × `processors`.
pub fn sweep_header(
    app: &PreparedApp,
    algorithms: &[PlacementAlgorithm],
    processors: &[usize],
) -> JournalHeader {
    JournalHeader {
        app: app.spec.name.to_owned(),
        scale: app.gen.scale,
        seed: app.gen.seed,
        config: app.config,
        algorithms: algorithms
            .iter()
            .map(|a| a.paper_name().to_owned())
            .collect(),
        processors: processors.to_vec(),
    }
}

/// Schema tag stamped into every telemetry document; bump on layout
/// changes.
pub const TELEMETRY_SCHEMA: &str = "placesim-telemetry-v1";

/// How many hot addresses the telemetry document carries.
const TELEMETRY_TOP: usize = 10;

/// Shared live-progress state: cell counters, throughput accounting and
/// the sweep-level attribution merge. One lock, taken briefly after
/// each cell event; the telemetry rewrite happens under it so documents
/// are always internally consistent.
struct SweepMonitor {
    path: Option<PathBuf>,
    app: String,
    total: usize,
    resumed: usize,
    done: usize,
    failed: usize,
    retries: u64,
    refs: u64,
    started: Instant,
    attr: Option<AttrCollector>,
}

impl SweepMonitor {
    fn new(sup: &SupervisorConfig, header: &JournalHeader, resumed: usize) -> Self {
        SweepMonitor {
            path: sup.telemetry.clone(),
            app: header.app.clone(),
            total: header.cell_count(),
            resumed,
            done: 0,
            failed: 0,
            retries: 0,
            refs: 0,
            started: Instant::now(),
            attr: sup.attribution.map(AttrCollector::new),
        }
    }

    fn record_done(&mut self, entry: &ManifestEntry, attr: Option<Box<AttrCollector>>) {
        self.done += 1;
        self.refs += entry.total_refs;
        if let (Some(merged), Some(cell)) = (&mut self.attr, attr) {
            merged.merge(*cell);
        }
        self.rewrite();
    }

    fn record_failed(&mut self) {
        self.failed += 1;
        self.rewrite();
    }

    fn record_retry(&mut self) {
        self.retries += 1;
        self.rewrite();
    }

    /// Atomically rewrites the telemetry file. Best-effort by design:
    /// telemetry is advisory, so an unwritable path degrades to silence
    /// rather than failing (or retrying inside) the sweep.
    fn rewrite(&self) {
        let Some(path) = &self.path else { return };
        let _ = sink::write_atomic(path, self.to_json().as_bytes());
    }

    fn to_json(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", TELEMETRY_SCHEMA);
        w.field_str("app", &self.app);
        w.field_u64("cells_total", self.total as u64);
        w.field_u64("cells_resumed", self.resumed as u64);
        w.field_u64("cells_done", (self.resumed + self.done) as u64);
        w.field_u64("cells_failed", self.failed as u64);
        w.field_u64("retries", self.retries);
        w.field_u64("refs_simulated", self.refs);
        w.field_f64("elapsed_secs", elapsed);
        w.field_f64(
            "refs_per_sec",
            if elapsed > 0.0 {
                // Precision loss is fine for a human-facing rate.
                #[allow(clippy::cast_precision_loss)]
                {
                    self.refs as f64 / elapsed
                }
            } else {
                0.0
            },
        );
        w.key("attribution");
        match &self.attr {
            None => w.value_null(),
            Some(attr) => {
                w.begin_object();
                w.field_str("mode", if attr.is_sketch() { "sketch" } else { "exact" });
                w.field_u64("tracked_addresses", attr.tracked_addresses() as u64);
                w.field_u64("error_bound", attr.error_bound());
                w.field_u64("events", attr.total_events());
                w.key("top");
                w.begin_array();
                for (line, events, _) in attr.top_addresses(TELEMETRY_TOP) {
                    w.begin_object();
                    w.field_u64("line", line);
                    w.field_u64("events", events);
                    w.end_object();
                }
                w.end_array();
                w.end_object();
            }
        }
        w.end_object();
        w.finish()
    }
}

/// What one supervised attempt produced.
enum Attempt {
    /// Success: the entry, plus the cell's collector when attribution
    /// was requested (boxed — the collector dwarfs the other variants).
    Done(ManifestEntry, Option<Box<AttrCollector>>),
    /// A typed (deterministic) placement/simulation error.
    Failed(String),
    /// The attempt panicked; payload already summarized.
    Panicked(String),
    /// The watchdog fired; the attempt thread was abandoned.
    TimedOut,
}

/// What one supervised cell produced.
enum CellResult {
    Committed(JournalCell),
    Hole(SweepHole),
    /// The journal itself failed terminally; the sweep must stop.
    Fatal(JournalError),
}

/// Runs a supervised, journaled sweep of `app` over `algorithms` ×
/// `processors`, committing each completed cell to the journal at
/// `journal_path`.
///
/// With `resume` set and an existing journal at the path, committed
/// cells are recovered (longest valid prefix) and skipped; otherwise a
/// fresh journal is created (truncating any previous one). The caller
/// must have run [`PreparedApp::run_probe`] if `algorithms` includes
/// [`PlacementAlgorithm::CoherenceTraffic`] — a missing probe is a
/// deterministic error and degrades those cells into holes.
///
/// # Errors
///
/// [`Error::Journal`] when the journal cannot be created, resumed
/// (corrupt header / different sweep), or written despite retries.
/// Per-cell failures are **not** errors — they come back as
/// [`SupervisedSweep::holes`].
pub fn run_supervised_sweep(
    app: &Arc<PreparedApp>,
    algorithms: &[PlacementAlgorithm],
    processors: &[usize],
    journal_path: &Path,
    resume: bool,
    sup: &SupervisorConfig,
) -> Result<SupervisedSweep, Error> {
    let header = sweep_header(app, algorithms, processors);
    let (writer, mut cells, dropped) = if resume && journal_path.exists() {
        let (writer, recovery) = JournalWriter::resume(journal_path, &header)?;
        (writer, recovery.cells, recovery.dropped)
    } else {
        (
            JournalWriter::create(journal_path, &header)?,
            Vec::new(),
            Vec::new(),
        )
    };
    #[cfg(feature = "chaos")]
    let writer = writer.with_chaos(sup.chaos.clone());
    let resumed = cells.len();

    let pending: Vec<usize> = (0..header.cell_count())
        .filter(|i| !cells.iter().any(|c| c.index == *i))
        .collect();

    let writer = Mutex::new(writer);
    let faults = Mutex::new(FaultCounters::new());
    let monitor = Mutex::new(SweepMonitor::new(sup, &header, resumed));
    // Surface the telemetry file immediately (zero cells done) so
    // watchers can start polling before the first cell lands.
    monitor.lock().unwrap_or_else(|p| p.into_inner()).rewrite();
    let cancel = CancelToken::new();
    let outcomes = parallel_map_isolated(&pending, Some(&cancel), |&index| {
        supervise_cell(
            app, algorithms, &header, index, sup, &writer, &faults, &monitor, &cancel,
        )
    });

    let mut holes = Vec::new();
    let mut fatal: Option<JournalError> = None;
    for (slot, outcome) in outcomes.into_iter().enumerate() {
        let index = pending[slot];
        match outcome {
            IsolatedOutcome::Done(CellResult::Committed(cell)) => cells.push(cell),
            IsolatedOutcome::Done(CellResult::Hole(hole)) => holes.push(hole),
            IsolatedOutcome::Done(CellResult::Fatal(e)) => fatal = Some(e),
            IsolatedOutcome::Panicked(payload) => {
                // The supervision wrapper itself panicked — not an
                // attempt (those are caught on their own threads). Keep
                // the sweep alive and annotate the cell.
                let (algorithm, procs) = grid_slot(&header, index);
                holes.push(SweepHole {
                    index,
                    algorithm,
                    processors: procs,
                    attempts: 0,
                    reason: format!(
                        "supervisor worker panicked: {}",
                        panic_payload_summary(payload.as_ref())
                    ),
                });
            }
            IsolatedOutcome::Cancelled => {
                let (algorithm, procs) = grid_slot(&header, index);
                holes.push(SweepHole {
                    index,
                    algorithm,
                    processors: procs,
                    attempts: 0,
                    reason: "cancelled before completion".into(),
                });
            }
        }
    }
    if let Some(e) = fatal {
        return Err(Error::Journal(e));
    }

    cells.sort_by_key(|c| c.index);
    holes.sort_by_key(|h| h.index);
    let faults = faults.into_inner().unwrap_or_else(|p| p.into_inner());
    let monitor = monitor.into_inner().unwrap_or_else(|p| p.into_inner());
    // One final rewrite so the document on disk reflects the finished
    // sweep even if the last cell event raced with a reader.
    monitor.rewrite();
    Ok(SupervisedSweep {
        header,
        cells,
        holes,
        dropped,
        faults,
        resumed,
        attribution: monitor.attr,
    })
}

/// The `(algorithm, processors)` labels of a cell index; falls back to
/// placeholders if the index is somehow out of grid (cannot happen for
/// indices drawn from `0..cell_count()`).
fn grid_slot(header: &JournalHeader, index: usize) -> (String, usize) {
    header
        .cell(index)
        .map(|(a, p)| (a.to_owned(), p))
        .unwrap_or_else(|| ("?".to_owned(), 0))
}

/// Supervises one cell to completion: retry loop, fault classification,
/// journal commit.
#[allow(clippy::too_many_arguments)]
fn supervise_cell(
    app: &Arc<PreparedApp>,
    algorithms: &[PlacementAlgorithm],
    header: &JournalHeader,
    index: usize,
    sup: &SupervisorConfig,
    writer: &Mutex<JournalWriter>,
    faults: &Mutex<FaultCounters>,
    monitor: &Mutex<SweepMonitor>,
    cancel: &CancelToken,
) -> CellResult {
    let algorithm = algorithms[index / header.processors.len()];
    let processors = header.processors[index % header.processors.len()];
    let bound = sup.attempt_bound();
    let mut attempt = 0u32;
    loop {
        let outcome = {
            #[cfg(feature = "chaos")]
            {
                let fault = sup
                    .chaos
                    .as_ref()
                    .and_then(|plan| plan.worker_fault(index, attempt));
                run_attempt(
                    app,
                    algorithm,
                    processors,
                    sup.watchdog,
                    sup.attribution,
                    fault,
                )
            }
            #[cfg(not(feature = "chaos"))]
            {
                run_attempt(app, algorithm, processors, sup.watchdog, sup.attribution)
            }
        };
        let reason = match outcome {
            Attempt::Done(entry, attr) => {
                let cell = JournalCell {
                    index,
                    attempts: attempt + 1,
                    entry,
                };
                let committed = {
                    let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
                    let mut f = faults.lock().unwrap_or_else(|p| p.into_inner());
                    w.commit_cell(&cell, &mut f)
                };
                return match committed {
                    Ok(()) => {
                        // Fold the cell into the live state only after
                        // it is durable, so telemetry never reports a
                        // cell the journal could still lose.
                        monitor
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .record_done(&cell.entry, attr);
                        CellResult::Committed(cell)
                    }
                    Err(e) => {
                        // The journal is unwritable: nothing further can
                        // be made durable, so stop claiming new cells.
                        cancel.cancel();
                        CellResult::Fatal(e)
                    }
                };
            }
            Attempt::Failed(msg) => {
                // Typed errors are deterministic — retrying replays the
                // same failure, so degrade to a hole immediately.
                let mut f = faults.lock().unwrap_or_else(|p| p.into_inner());
                f.errors += 1;
                drop(f);
                monitor
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .record_failed();
                return CellResult::Hole(SweepHole {
                    index,
                    algorithm: algorithm.paper_name().to_owned(),
                    processors,
                    attempts: attempt + 1,
                    reason: format!("deterministic error: {msg}"),
                });
            }
            Attempt::Panicked(msg) => {
                let mut f = faults.lock().unwrap_or_else(|p| p.into_inner());
                f.panics += 1;
                format!("worker panicked: {msg}")
            }
            Attempt::TimedOut => {
                let mut f = faults.lock().unwrap_or_else(|p| p.into_inner());
                f.timeouts += 1;
                // The timed-out attempt's thread was detached, not
                // joined — account for it so leaked workers show up in
                // sweep and service reports instead of vanishing.
                f.abandoned += 1;
                format!(
                    "watchdog fired after {:?} (attempt thread abandoned)",
                    sup.watchdog.unwrap_or_default()
                )
            }
        };
        attempt += 1;
        if attempt >= bound || cancel.is_cancelled() {
            monitor
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .record_failed();
            return CellResult::Hole(SweepHole {
                index,
                algorithm: algorithm.paper_name().to_owned(),
                processors,
                attempts: attempt,
                reason,
            });
        }
        let mut f = faults.lock().unwrap_or_else(|p| p.into_inner());
        f.retries += 1;
        drop(f);
        monitor
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record_retry();
        if let Some(backoff) = &sup.backoff {
            std::thread::sleep(backoff.delay(index as u64, attempt));
        }
    }
}

/// One isolated attempt on a fresh, detached thread. Panics are caught
/// on that thread and come back classified; when the watchdog fires the
/// thread is abandoned (it parks on a dead channel and exits whenever
/// the wedged work finishes, if ever) and the supervisor moves on.
fn run_attempt(
    app: &Arc<PreparedApp>,
    algorithm: PlacementAlgorithm,
    processors: usize,
    watchdog: Option<Duration>,
    attribution: Option<AttributionConfig>,
    #[cfg(feature = "chaos")] fault: Option<crate::chaos::WorkerFault>,
) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let app = Arc::clone(app);
    std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "chaos")]
            match fault {
                Some(crate::chaos::WorkerFault::Panic) => {
                    panic!("chaos: injected worker panic")
                }
                Some(crate::chaos::WorkerFault::Stall(d)) => std::thread::sleep(d),
                None => {}
            }
            match attribution {
                Some(acfg) => run_placement_attributed(&app, algorithm, processors, acfg)
                    .map(|(r, attr)| (r, Some(Box::new(attr)))),
                None => run_placement(&app, algorithm, processors).map(|r| (r, None)),
            }
        }));
        let outcome = match result {
            Ok(Ok((r, attr))) => Attempt::Done(
                ManifestEntry::from_stats(algorithm.paper_name(), processors, &r.stats),
                attr,
            ),
            Ok(Err(e)) => Attempt::Failed(e.to_string()),
            Err(payload) => Attempt::Panicked(panic_payload_summary(payload.as_ref())),
        };
        let _ = tx.send(outcome);
    });
    match watchdog {
        Some(budget) => match rx.recv_timeout(budget) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Attempt::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Attempt::Panicked("attempt thread vanished without reporting".into())
            }
        },
        None => rx.recv().unwrap_or_else(|_| {
            Attempt::Panicked("attempt thread vanished without reporting".into())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::read_journal;
    use placesim_workloads::{spec, GenOptions};
    use std::path::PathBuf;

    fn tiny(name: &str) -> Arc<PreparedApp> {
        Arc::new(PreparedApp::prepare(
            &spec(name).unwrap(),
            &GenOptions {
                scale: 0.002,
                seed: 3,
            },
        ))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("placesim-supervisor-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const ALGOS: [PlacementAlgorithm; 2] =
        [PlacementAlgorithm::Random, PlacementAlgorithm::LoadBal];

    #[test]
    fn healthy_sweep_commits_every_cell() {
        let dir = tmp_dir("healthy");
        let path = dir.join("sweep.journal");
        let app = tiny("water");
        let sweep = run_supervised_sweep(
            &app,
            &ALGOS,
            &[2, 4],
            &path,
            false,
            &SupervisorConfig::new(),
        )
        .unwrap();
        assert!(sweep.is_complete());
        assert_eq!(sweep.cells.len(), 4);
        assert!(sweep.holes.is_empty());
        assert_eq!(sweep.resumed, 0);
        assert_eq!(sweep.faults, FaultCounters::new());
        // Cells come back in grid order and match a plain run_sweep.
        let plain = crate::run_sweep(&app, &ALGOS, &[2, 4]).unwrap();
        for (cell, r) in sweep.cells.iter().zip(&plain) {
            assert_eq!(cell.entry.algorithm, r.algorithm.paper_name());
            assert_eq!(cell.entry.execution_time, r.execution_time());
            assert_eq!(cell.attempts, 1);
        }
        // The journal on disk recovers to the same cells.
        let rec = read_journal(&path).unwrap();
        assert_eq!(rec.cells.len(), 4);
        assert!(rec.dropped.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_committed_cells_and_matches_uninterrupted_manifest() {
        let dir = tmp_dir("resume");
        let full_path = dir.join("full.journal");
        let app = tiny("water");
        let sup = SupervisorConfig::new();
        let full = run_supervised_sweep(&app, &ALGOS, &[2, 4], &full_path, false, &sup).unwrap();

        // Simulate an interrupted run: journal holding only 2 of the 4
        // cells (truncate the full journal after 3 lines).
        let part_path = dir.join("part.journal");
        let text = std::fs::read_to_string(&full_path).unwrap();
        let prefix: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&part_path, prefix).unwrap();

        let resumed = run_supervised_sweep(&app, &ALGOS, &[2, 4], &part_path, true, &sup).unwrap();
        assert_eq!(resumed.resumed, 2);
        assert!(resumed.is_complete());
        assert_eq!(
            resumed.manifest().to_json(),
            full.manifest().to_json(),
            "resumed sweep must reproduce the uninterrupted manifest bit-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_error_becomes_hole_without_retry() {
        let dir = tmp_dir("hole");
        let path = dir.join("sweep.journal");
        let app = tiny("water");
        // CoherenceTraffic without a probe is a deterministic typed
        // error: both its cells must degrade to holes on attempt 1,
        // while the healthy algorithm's cells commit.
        let algos = [
            PlacementAlgorithm::Random,
            PlacementAlgorithm::CoherenceTraffic,
        ];
        let sweep = run_supervised_sweep(
            &app,
            &algos,
            &[2, 4],
            &path,
            false,
            &SupervisorConfig::new(),
        )
        .unwrap();
        assert!(!sweep.is_complete());
        assert_eq!(sweep.cells.len(), 2);
        assert_eq!(sweep.holes.len(), 2);
        assert_eq!(sweep.faults.errors, 2);
        assert_eq!(sweep.faults.retries, 0, "deterministic errors never retry");
        for hole in &sweep.holes {
            assert_eq!(hole.algorithm, "COHERENCE");
            assert_eq!(hole.attempts, 1);
            assert!(hole.reason.contains("probe"), "{}", hole.reason);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_mismatched_journal_is_refused() {
        let dir = tmp_dir("refuse");
        let path = dir.join("sweep.journal");
        let app = tiny("water");
        let sup = SupervisorConfig::new();
        run_supervised_sweep(&app, &ALGOS, &[2], &path, false, &sup).unwrap();
        // Same journal, different grid: must be a typed journal error.
        let err = run_supervised_sweep(&app, &ALGOS, &[2, 4], &path, true, &sup).unwrap_err();
        assert!(
            matches!(err, Error::Journal(JournalError::Mismatch(_))),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_flag_without_existing_journal_starts_fresh() {
        let dir = tmp_dir("fresh");
        let path = dir.join("sweep.journal");
        let app = tiny("water");
        let sweep = run_supervised_sweep(&app, &ALGOS, &[2], &path, true, &SupervisorConfig::new())
            .unwrap();
        assert!(sweep.is_complete());
        assert_eq!(sweep.resumed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
