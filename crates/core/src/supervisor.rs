//! The supervised sweep runner: per-cell fault isolation, watchdog
//! timeouts, bounded retries, and checkpoint/resume through the
//! [`crate::journal`].
//!
//! [`run_supervised_sweep`] turns the all-or-nothing grid of
//! [`crate::run_sweep`] into a small job scheduler. Every pending grid
//! cell (algorithm × processor count) is placed first; cells whose
//! placement maps are equal then form one **job**, simulated once. Each
//! placement and each job simulation runs through the crate's one
//! attempt runner, which the placement service shares: every attempt is
//! isolated on its own worker thread, a panic is caught and classified,
//! a wedged attempt is abandoned when the wall-clock watchdog fires, and
//! both are retried a bounded number of times before the cell (or every
//! member of the job) degrades into an annotated **hole**. Deterministic
//! failures (typed placement or simulation errors) are never retried —
//! re-running them would produce the same error. Each member is durably
//! committed to the journal as its own cell *before* it is reported
//! done, so a crash at any instant loses at most the cells still in
//! flight; resuming from the journal skips every committed cell and
//! reproduces the uninterrupted run's entries bit-identically.

pub use crate::attempt::BackoffPolicy;
use crate::attempt::{lock, GaveUp, RetryPolicy};
use crate::error::Error;
use crate::experiment::{grid_cells, group_equal_maps, PreparedApp};
use crate::journal::{DroppedLine, JournalCell, JournalError, JournalHeader, JournalWriter};
use crate::manifest::{ManifestEntry, RunManifest};
use placesim_machine::{simulate, AttrCollector, AttributionConfig};
use placesim_obs::json::JsonWriter;
use placesim_obs::{sink, FaultCounters};
use placesim_placement::{PlacementAlgorithm, PlacementMap};
use placesim_trace::par::{
    panic_payload_summary, parallel_map_isolated, CancelToken, IsolatedOutcome,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

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
    /// Simulations this run executed: one per group of pending cells
    /// with equal placement maps (retries of a group not counted).
    pub simulations: usize,
    /// Sweep-level coherence attribution: every committed cell's
    /// collector merged in commit order (a group's collector once per
    /// member). `Some` exactly when [`SupervisorConfig::attribution`]
    /// was set (resumed cells were attributed by the run that committed
    /// them and are not re-run, so their events are absent — the totals
    /// cover this run's cells).
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

    /// Counts one committed cell. A group's collector is merged once per
    /// member, so the totals match one simulation per cell.
    fn record_done(&mut self, entry: &ManifestEntry, attr: Option<&AttrCollector>) {
        self.done += 1;
        self.refs += entry.total_refs;
        if let (Some(merged), Some(cell)) = (&mut self.attr, attr) {
            merged.merge(cell.clone());
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

/// A pending cell after the placement phase.
struct Placed {
    index: usize,
    map: PlacementMap,
    /// Placement attempts beyond the first (panics or timeouts retried).
    retries: u32,
}

/// What one supervised group produced.
enum GroupResult {
    Committed(Vec<JournalCell>),
    Holes(Vec<SweepHole>),
    /// The journal itself failed terminally; the sweep must stop.
    Fatal(JournalError),
}

/// Runs a supervised, journaled sweep of `app` over `algorithms` ×
/// `processors`, committing each completed cell to the journal at
/// `journal_path`.
///
/// The sweep runs in two phases. First every pending cell is placed, in
/// parallel, each placement an isolated attempt. Then the cells are
/// grouped by equal [`PlacementMap`]s ([`crate::group_equal_maps`]) and
/// each group is simulated once, as one supervised job, after which
/// every member is committed as its own journal cell.
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

    let pending: Vec<(usize, PlacementAlgorithm, usize)> = grid_cells(algorithms, processors)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !cells.iter().any(|c| c.index == *i))
        .map(|(i, (algorithm, procs))| (i, algorithm, procs))
        .collect();

    let run = Supervision {
        app,
        header: &header,
        sup,
        writer: Mutex::new(writer),
        faults: Mutex::new(FaultCounters::new()),
        monitor: Mutex::new(SweepMonitor::new(sup, &header, resumed)),
        cancel: CancelToken::new(),
    };
    // Surface the telemetry file immediately (zero cells done) so
    // watchers can start polling before the first cell lands.
    lock(&run.monitor).rewrite();

    let mut holes = Vec::new();
    let mut placed = Vec::new();
    let placements = parallel_map_isolated(&pending, None, |&(index, algorithm, procs)| {
        run.place_cell(index, algorithm, procs)
    });
    for (&(index, ..), outcome) in pending.iter().zip(placements) {
        match outcome {
            IsolatedOutcome::Done(Ok(p)) => placed.push(p),
            IsolatedOutcome::Done(Err(hole)) => holes.push(hole),
            lost => holes.push(run.hole(index, 0, lost_reason(&lost))),
        }
    }

    let by_map = group_equal_maps(placed.iter().map(|p| &p.map));
    let mut placed: Vec<Option<Placed>> = placed.into_iter().map(Some).collect();
    let groups: Vec<Vec<Placed>> = by_map
        .into_iter()
        .map(|g| g.into_iter().filter_map(|i| placed[i].take()).collect())
        .collect();
    let outcomes = parallel_map_isolated(&groups, Some(&run.cancel), |members| {
        run.supervise_group(members)
    });

    let mut simulations = 0;
    let mut fatal: Option<JournalError> = None;
    for (members, outcome) in groups.iter().zip(outcomes) {
        match outcome {
            IsolatedOutcome::Done(result) => {
                simulations += 1;
                match result {
                    GroupResult::Committed(committed) => cells.extend(committed),
                    GroupResult::Holes(lost) => holes.extend(lost),
                    GroupResult::Fatal(e) => fatal = Some(e),
                }
            }
            lost => {
                let reason = lost_reason(&lost);
                holes.extend(members.iter().map(|m| run.hole(m.index, 0, reason.clone())));
            }
        }
    }
    if let Some(e) = fatal {
        return Err(Error::Journal(e));
    }

    cells.sort_by_key(|c| c.index);
    holes.sort_by_key(|h| h.index);
    let Supervision {
        faults, monitor, ..
    } = run;
    let faults = faults.into_inner().unwrap_or_else(PoisonError::into_inner);
    let monitor = monitor.into_inner().unwrap_or_else(PoisonError::into_inner);
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
        simulations,
        attribution: monitor.attr,
    })
}

/// Why a supervision wrapper never returned: it panicked (not an
/// attempt — those are caught on their own threads) or was cancelled
/// before it started.
fn lost_reason<R>(outcome: &IsolatedOutcome<R>) -> String {
    match outcome {
        IsolatedOutcome::Panicked(payload) => format!(
            "supervisor worker panicked: {}",
            panic_payload_summary(payload.as_ref())
        ),
        _ => "cancelled before completion".into(),
    }
}

/// The shared state of one supervised sweep.
struct Supervision<'a> {
    app: &'a Arc<PreparedApp>,
    header: &'a JournalHeader,
    sup: &'a SupervisorConfig,
    writer: Mutex<JournalWriter>,
    faults: Mutex<FaultCounters>,
    monitor: Mutex<SweepMonitor>,
    cancel: CancelToken,
}

impl Supervision<'_> {
    /// A hole for cell `index`, labelled from the journal header.
    fn hole(&self, index: usize, attempts: u32, reason: String) -> SweepHole {
        let (algorithm, processors) = self
            .header
            .cell(index)
            .map_or_else(|| ("?".to_owned(), 0), |(a, p)| (a.to_owned(), p));
        SweepHole {
            index,
            algorithm,
            processors,
            attempts,
            reason,
        }
    }

    /// Places one cell under supervision.
    fn place_cell(
        &self,
        index: usize,
        algorithm: PlacementAlgorithm,
        processors: usize,
    ) -> Result<Placed, SweepHole> {
        let outcome = self.retry(index as u64, |_| {
            let app = Arc::clone(self.app);
            move || app.place(algorithm, processors)
        });
        match outcome {
            Ok((map, attempts)) => Ok(Placed {
                index,
                map,
                retries: attempts - 1,
            }),
            Err((attempts, reason)) => {
                lock(&self.monitor).record_failed();
                Err(self.hole(index, attempts, reason))
            }
        }
    }

    /// Simulates one group of equal-map cells under supervision and
    /// commits every member. A worker fault planned for any member fires
    /// on the group's attempt; every member gets the group's attempts.
    fn supervise_group(&self, members: &[Placed]) -> GroupResult {
        let map = Arc::new(members[0].map.clone());
        let acfg = self.sup.attribution;
        // Only chaos builds read the attempt number.
        let outcome = self.retry(members[0].index as u64, |_attempt| {
            #[cfg(feature = "chaos")]
            let fault = self.sup.chaos.as_ref().and_then(|plan| {
                members
                    .iter()
                    .find_map(|m| plan.worker_fault(m.index, _attempt))
            });
            let app = Arc::clone(self.app);
            let map = Arc::clone(&map);
            move || {
                #[cfg(feature = "chaos")]
                match fault {
                    Some(crate::chaos::WorkerFault::Panic) => {
                        panic!("chaos: injected worker panic")
                    }
                    Some(crate::chaos::WorkerFault::Stall(d)) => std::thread::sleep(d),
                    None => {}
                }
                match acfg {
                    Some(acfg) => app
                        .simulate_attributed(&map, acfg)
                        .map(|(stats, attr)| (stats, Some(attr))),
                    None => Ok((simulate(&app.prog, &map, &app.config)?, None)),
                }
            }
        });
        let ((stats, attr), attempts) = match outcome {
            Ok(done) => done,
            Err((attempts, reason)) => {
                let mut monitor = lock(&self.monitor);
                return GroupResult::Holes(
                    members
                        .iter()
                        .map(|m| {
                            monitor.record_failed();
                            self.hole(m.index, attempts + m.retries, reason.clone())
                        })
                        .collect(),
                );
            }
        };
        let mut committed = Vec::with_capacity(members.len());
        for m in members {
            let (algorithm, processors) = self.header.cell(m.index).unwrap_or(("?", 0));
            let cell = JournalCell {
                index: m.index,
                attempts: attempts + m.retries,
                entry: ManifestEntry::from_stats(algorithm, processors, &stats),
            };
            let result = {
                let mut w = lock(&self.writer);
                let mut f = lock(&self.faults);
                w.commit_cell(&cell, &mut f)
            };
            if let Err(e) = result {
                // The journal is unwritable: nothing further can be made
                // durable, so stop claiming new groups.
                self.cancel.cancel();
                return GroupResult::Fatal(e);
            }
            // Fold the cell into the live state only after it is
            // durable, so telemetry never reports a cell the journal
            // could still lose.
            lock(&self.monitor).record_done(&cell.entry, attr.as_ref());
            committed.push(cell);
        }
        GroupResult::Committed(committed)
    }

    /// Runs the work `attempt(n)` builds (n is 0-based) through the
    /// shared attempt runner under this sweep's policy and cancel token.
    /// Returns the value and the attempts used, or the attempts used and
    /// the final reason. `job` keys the backoff jitter.
    fn retry<T, W>(&self, job: u64, attempt: impl Fn(u32) -> W) -> Result<(T, u32), (u32, String)>
    where
        T: Send + 'static,
        W: FnOnce() -> Result<T, Error> + Send + 'static,
    {
        let policy = RetryPolicy {
            max_attempts: self.sup.max_attempts,
            watchdog: self.sup.watchdog,
            backoff: self.sup.backoff.as_ref(),
            cancel: Some(&self.cancel),
        };
        let mut faults = FaultCounters::new();
        let outcome = policy.run(job, &mut faults, attempt, || {
            lock(&self.monitor).record_retry();
        });
        lock(&self.faults).merge(&faults);
        outcome.map_err(|(attempts, gave_up)| {
            let reason = match gave_up {
                GaveUp::Error(e) => format!("deterministic error: {e}"),
                GaveUp::Transient(reason) => reason,
            };
            (attempts, reason)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_placement, run_placement_attributed};
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

    /// A grid with equal maps: on tiny gauss these three metrics place
    /// identically, so the six cells form two groups.
    const SAME_MAP_ALGOS: [PlacementAlgorithm; 3] = [
        PlacementAlgorithm::ShareRefs,
        PlacementAlgorithm::ShareAddr,
        PlacementAlgorithm::MinPriv,
    ];

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

    #[test]
    fn equal_maps_are_simulated_once_and_committed_per_cell() {
        let dir = tmp_dir("groups");
        let path = dir.join("sweep.journal");
        let app = tiny("gauss");
        let sweep = run_supervised_sweep(
            &app,
            &SAME_MAP_ALGOS,
            &[2, 4],
            &path,
            false,
            &SupervisorConfig::new(),
        )
        .unwrap();
        assert!(sweep.is_complete());
        assert!(
            sweep.simulations < sweep.cells.len(),
            "{} simulations for {} cells",
            sweep.simulations,
            sweep.cells.len()
        );
        // Every member is its own cell, with the statistics a separate
        // run of its algorithm produces.
        for (cell, &(algorithm, procs)) in sweep
            .cells
            .iter()
            .zip(&grid_cells(&SAME_MAP_ALGOS, &[2, 4]))
        {
            let alone = run_placement(&app, algorithm, procs).unwrap();
            let want = ManifestEntry::from_stats(algorithm.paper_name(), procs, &alone.stats);
            assert_eq!(cell.entry, want);
            assert_eq!(cell.attempts, 1);
        }
        assert_eq!(read_journal(&path).unwrap().cells.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_simulates_the_missing_members_of_a_partial_group() {
        let dir = tmp_dir("partial-group");
        let full_path = dir.join("full.journal");
        let app = tiny("gauss");
        let sup = SupervisorConfig::new();
        let full =
            run_supervised_sweep(&app, &SAME_MAP_ALGOS, &[2, 4], &full_path, false, &sup).unwrap();
        assert!(full.is_complete());

        // A journal holding the leader of the first group and none of
        // its followers: the kill landed between the group's commits.
        let maps: Vec<PlacementMap> = grid_cells(&SAME_MAP_ALGOS, &[2, 4])
            .into_iter()
            .map(|(a, p)| app.place(a, p).unwrap())
            .collect();
        let group = &group_equal_maps(&maps)[0];
        assert!(group.len() > 1, "the grid must have a multi-cell group");
        let part_path = dir.join("part.journal");
        let leader = full.cells.iter().find(|c| c.index == group[0]).unwrap();
        std::fs::write(&part_path, full.header.to_line() + &leader.to_line()).unwrap();

        let resumed =
            run_supervised_sweep(&app, &SAME_MAP_ALGOS, &[2, 4], &part_path, true, &sup).unwrap();
        assert_eq!(resumed.resumed, 1);
        assert!(resumed.is_complete());
        assert!(resumed.simulations >= 1, "the followers were simulated");
        assert_eq!(resumed.manifest().to_json(), full.manifest().to_json());

        let report = |m: &RunManifest| {
            let r = crate::Report::from_manifests([m]);
            (r.to_json(), r.render_text())
        };
        let rec = read_journal(&part_path).unwrap();
        assert!(rec.dropped.is_empty());
        let mut from_journal = resumed.manifest();
        let mut cells = rec.cells;
        cells.sort_by_key(|c| c.index);
        from_journal.entries = cells.into_iter().map(|c| c.entry).collect();
        assert_eq!(report(&from_journal), report(&full.manifest()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_attribution_counts_once_per_member() {
        let dir = tmp_dir("group-attr");
        let path = dir.join("sweep.journal");
        let app = tiny("gauss");
        let acfg = AttributionConfig::default();
        let sup = SupervisorConfig::new()
            .with_attribution(acfg)
            .with_telemetry(dir.join("live.json"));
        let sweep =
            run_supervised_sweep(&app, &SAME_MAP_ALGOS, &[2, 4], &path, false, &sup).unwrap();
        assert!(sweep.simulations < sweep.cells.len());

        let mut want = AttrCollector::new(acfg);
        for (algorithm, procs) in grid_cells(&SAME_MAP_ALGOS, &[2, 4]) {
            let (_, attr) = run_placement_attributed(&app, algorithm, procs, acfg).unwrap();
            want.merge(attr);
        }
        let got = sweep.attribution.expect("attribution was requested");
        assert!(got.total_events() > 0);
        assert_eq!(got, want);

        // Telemetry counts cells, not simulations.
        let live = std::fs::read_to_string(dir.join("live.json")).unwrap();
        assert!(live.contains("\"cells_done\": 6"), "{live}");
        let refs = 6 * app.prog.total_refs();
        assert!(
            live.contains(&format!("\"refs_simulated\": {refs}")),
            "{live}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
