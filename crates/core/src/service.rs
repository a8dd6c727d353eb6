//! The fault-tolerant placement service behind `placesim-cli serve`.
//!
//! The service turns the batch pipeline (profile sharing → place
//! threads → simulate) into a long-lived daemon with a **specified**
//! failure story, composed from parts the repo already trusts:
//!
//! * **Durable queue** — every accepted job is appended to a
//!   [`RecordLog`] (the sweep journal's checksummed, fsync'd line
//!   format under the `placesim-service-v1` schema) *before* the
//!   submit is acknowledged, and its result (or permanent failure) is
//!   journaled on completion. A `SIGKILL`'d daemon restarts from the
//!   journal's longest valid prefix: finished jobs come back from the
//!   `done` records byte-identically, unfinished jobs re-enqueue and —
//!   because trace generation and simulation are deterministic in the
//!   spec — produce byte-identical results on the second run.
//! * **Admission control** — the queue is bounded; a submit beyond
//!   capacity gets a typed `overload` rejection instead of an
//!   allocation. Load is shed, memory stays bounded.
//! * **Supervised execution** — jobs run through the same attempt
//!   runner as the sweep supervisor: each attempt on a detached thread
//!   behind `catch_unwind` and an optional wall-clock watchdog, with
//!   bounded retries spaced by a [`BackoffPolicy`] (exponential,
//!   deterministically jittered). Panics and timeouts are transient
//!   (retried; a job that exhausts them fails with `gave up after N
//!   attempts: <reason>`); domain errors are deterministic (failed
//!   immediately with their own message). Watchdog-abandoned threads
//!   are counted in [`FaultCounters::abandoned`].
//! * **Exclusive lockfile** — a second daemon on the same directory
//!   gets a typed [`ServiceError::Locked`]; a stale lock left by a
//!   dead PID is reclaimed.
//! * **Result cache** — completed results are retained under a
//!   fingerprint key (the canonical job spec, which pins the trace via
//!   its deterministic `(app, scale, seed)` generation; every result
//!   additionally embeds the trace's fnv1a64 fingerprint as the
//!   cross-restart identity check). Retention is a bounded LRU:
//!   evicted results drop their bytes but stay on disk in the journal.
//! * **Graceful drain** — `shutdown` (or `SIGTERM` in the CLI) stops
//!   admission with typed `draining` rejections, lets running jobs
//!   finish, and leaves queued jobs journaled for the next start.
//!
//! [`PlacementService::handle_request`] is the single entry point the
//! socket loop and the tests share: one request line in, one response
//! line out, never a panic.

use crate::attempt::{lock, BackoffPolicy, GaveUp, RetryPolicy};
use crate::journal::{JournalError, RecordLog};
use crate::manifest::ManifestEntry;
use crate::{run_placement_with_config, PreparedApp};
use placesim_machine::Protocol;
use placesim_obs::json::{JsonValue, JsonWriter};
use placesim_obs::proto::{self, JobOp, JobSpec, ProtoError, Request, ServiceMetrics};
use placesim_obs::FaultCounters;
use placesim_placement::PlacementAlgorithm;
use placesim_trace::hash::{fnv1a64, program_fingerprint};
use placesim_workloads::GenOptions;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Journal file name inside the service directory.
pub const SERVICE_JOURNAL: &str = "service.journal";
/// Lockfile name inside the service directory.
pub const SERVICE_LOCK: &str = "service.lock";

/// Any failure starting or running the placement service.
#[derive(Debug)]
pub enum ServiceError {
    /// Another daemon holds the service directory's lockfile.
    Locked {
        /// The PID recorded in the lockfile, when readable.
        pid: Option<u32>,
    },
    /// The durable queue journal failed.
    Journal(JournalError),
    /// The filesystem or socket failed underneath the service.
    Io(io::Error),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Locked { pid: Some(pid) } => {
                write!(f, "service directory is locked by live pid {pid}")
            }
            ServiceError::Locked { pid: None } => {
                write!(f, "service directory is locked by another daemon")
            }
            ServiceError::Journal(e) => write!(f, "service journal error: {e}"),
            ServiceError::Io(e) => write!(f, "service I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Journal(e) => Some(e),
            ServiceError::Io(e) => Some(e),
            ServiceError::Locked { .. } => None,
        }
    }
}

impl From<JournalError> for ServiceError {
    fn from(e: JournalError) -> Self {
        ServiceError::Journal(e)
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// Whether `pid` names a live process. Uses `/proc` where it exists;
/// on systems without it the answer is conservatively "alive", so a
/// stale lock is never reclaimed by mistake.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if proc_root.is_dir() {
        proc_root.join(pid.to_string()).exists()
    } else {
        true
    }
}

/// An exclusive PID lockfile guarding a service directory. Created
/// with `create_new` (atomic on every real filesystem); removed on
/// drop. A lock whose recorded PID is provably dead is reclaimed.
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
}

impl LockFile {
    /// Acquires the lock at `path`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Locked`] when a live daemon holds it;
    /// [`ServiceError::Io`] on filesystem failure.
    pub fn acquire(path: &Path) -> Result<Self, ServiceError> {
        // Two rounds: the second retries after reclaiming a stale lock.
        for _ in 0..2 {
            match File::options().write(true).create_new(true).open(path) {
                Ok(mut f) => {
                    writeln!(f, "{}", std::process::id())?;
                    f.sync_data()?;
                    return Ok(LockFile {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let pid = fs::read_to_string(path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match pid {
                        Some(pid) if !pid_alive(pid) => {
                            // Stale lock from a dead daemon: reclaim.
                            fs::remove_file(path)?;
                        }
                        other => return Err(ServiceError::Locked { pid: other }),
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(ServiceError::Locked { pid: None })
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Tunables for a [`PlacementService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs. Zero is legal (accept-only; jobs
    /// stay journaled until a worker-ful daemon picks them up).
    pub workers: usize,
    /// Admission bound: queued (not yet running) jobs beyond this are
    /// shed with a typed `overload` rejection.
    pub queue_capacity: usize,
    /// Per-attempt wall-clock watchdog; `None` disables it.
    pub job_timeout: Option<Duration>,
    /// Attempts per job before it fails permanently (minimum 1).
    /// Only transient faults (panics, timeouts) are retried.
    pub max_attempts: u32,
    /// Delay schedule between retries; `None` retries immediately.
    pub backoff: Option<BackoffPolicy>,
    /// Completed results retained in memory (LRU; older results are
    /// evicted from memory but survive in the journal).
    pub cache_capacity: usize,
}

impl ServiceConfig {
    /// Production-shaped defaults: 2 workers, a 64-deep queue, no
    /// watchdog, 3 attempts with a 50 ms-based capped backoff, 128
    /// cached results.
    pub fn new() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            job_timeout: None,
            max_attempts: 3,
            backoff: Some(BackoffPolicy::new(
                Duration::from_millis(50),
                Duration::from_secs(2),
                0x5e21_11ce,
            )),
            cache_capacity: 128,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What the journal replay found at startup.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServiceRecovery {
    /// Unfinished jobs re-enqueued for execution, in submission order.
    pub resumed: Vec<u64>,
    /// Jobs restored as completed (results served from the journal).
    pub completed: u64,
    /// Jobs restored as permanently failed.
    pub failed: u64,
    /// Journal lines dropped during recovery (torn tail, foreign
    /// schema) plus records that replay could not apply.
    pub dropped: usize,
}

#[derive(Debug)]
enum JobState {
    Queued,
    Running,
    Done(String),
    /// Completed, result bytes evicted from memory (still journaled).
    Evicted,
    Failed(String),
}

impl JobState {
    /// Queued, running or done: a resubmission of the same spec is
    /// answered with this job.
    fn is_live(&self) -> bool {
        !matches!(self, JobState::Failed(_) | JobState::Evicted)
    }

    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Evicted => "evicted",
            JobState::Failed(_) => "failed",
        }
    }
}

#[derive(Debug)]
struct Job {
    spec: JobSpec,
    /// fnv1a64 of the canonical spec JSON: the dedup/cache key.
    spec_fp: u64,
    state: JobState,
}

#[derive(Debug)]
struct State {
    log: RecordLog,
    _lock: LockFile,
    /// Queued job ids in submission order.
    queue: VecDeque<u64>,
    /// Every job accepted. Add jobs and change their states only
    /// through [`State::insert_job`] and [`State::set_job_state`], which
    /// keep `index` in step.
    jobs: BTreeMap<u64, Job>,
    index: JobIndex,
    /// LRU of in-memory results: `(spec_fp, job_id)`, newest at the
    /// back. Overflow evicts the front job's result bytes.
    cache: VecDeque<(u64, u64)>,
    metrics: ServiceMetrics,
    faults: FaultCounters,
    next_id: u64,
    draining: bool,
}

/// What `submit` and `status` need to know about the job table without
/// walking it.
#[derive(Debug, Default)]
struct JobIndex {
    /// `(spec_fp, id)` of every live job. Replay can leave two live jobs
    /// with one fingerprint (a job re-queued from the journal next to its
    /// resubmission); dedup answers with the lower id, the first in this
    /// order.
    live: BTreeSet<(u64, u64)>,
    /// Jobs in [`JobState::Running`]. (The queued ones are `State::queue`.)
    running: u64,
}

impl JobIndex {
    /// Counts job `id`, with spec fingerprint `fp`, entering (`add`) or
    /// leaving `state`.
    fn update(&mut self, id: u64, fp: u64, state: &JobState, add: bool) {
        if state.is_live() {
            if add {
                self.live.insert((fp, id));
            } else {
                self.live.remove(&(fp, id));
            }
        }
        if matches!(state, JobState::Running) {
            if add {
                self.running += 1;
            } else {
                self.running -= 1;
            }
        }
    }

    /// The live job with spec fingerprint `fp`, lowest id first.
    fn live_job(&self, fp: u64) -> Option<u64> {
        self.live
            .range((fp, 0)..=(fp, u64::MAX))
            .next()
            .map(|&(_, id)| id)
    }
}

impl State {
    /// Adds job `id` as queued. A replayed journal that names an id twice
    /// keeps the later job.
    fn insert_job(&mut self, id: u64, spec: JobSpec, spec_fp: u64) {
        let job = Job {
            spec,
            spec_fp,
            state: JobState::Queued,
        };
        if let Some(old) = self.jobs.insert(id, job) {
            self.index.update(id, old.spec_fp, &old.state, false);
        }
        self.index.update(id, spec_fp, &JobState::Queued, true);
    }

    /// Moves job `id` to `next`; unknown ids are ignored.
    fn set_job_state(&mut self, id: u64, next: JobState) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        self.index.update(id, job.spec_fp, &job.state, false);
        self.index.update(id, job.spec_fp, &next, true);
        job.state = next;
    }
}

#[derive(Debug)]
struct Inner {
    config: ServiceConfig,
    state: Mutex<State>,
    /// Signalled when work is queued or drain begins.
    work: Condvar,
    /// Signalled when a job reaches a terminal state.
    done: Condvar,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A running placement service: durable queue, worker pool, request
/// handler. Cheap to clone (shared handle); one instance per service
/// directory, enforced by the lockfile.
#[derive(Debug, Clone)]
pub struct PlacementService {
    inner: Arc<Inner>,
}

impl PlacementService {
    /// Starts a service over `dir`: acquires the lockfile, opens (or
    /// creates) the journal, replays it, and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Locked`] when another live daemon owns `dir`;
    /// journal and filesystem errors otherwise.
    pub fn start(
        dir: &Path,
        config: ServiceConfig,
    ) -> Result<(Self, ServiceRecovery), ServiceError> {
        fs::create_dir_all(dir)?;
        let lockfile = LockFile::acquire(&dir.join(SERVICE_LOCK))?;
        let (log, raw) = RecordLog::open(&dir.join(SERVICE_JOURNAL), proto::SERVICE_SCHEMA)?;

        let mut state = State {
            log,
            _lock: lockfile,
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            index: JobIndex::default(),
            cache: VecDeque::new(),
            metrics: ServiceMetrics::new(),
            faults: FaultCounters::new(),
            next_id: 1,
            draining: false,
        };
        let mut recovery = ServiceRecovery {
            dropped: raw.dropped.len(),
            ..ServiceRecovery::default()
        };
        for doc in &raw.records {
            if !replay_record(&mut state, doc, config.cache_capacity, &mut recovery) {
                recovery.dropped += 1;
            }
        }
        state.queue = state
            .jobs
            .iter()
            .filter(|(_, j)| matches!(j.state, JobState::Queued))
            .map(|(&id, _)| id)
            .collect();
        recovery.resumed = state.queue.iter().copied().collect();

        let inner = Arc::new(Inner {
            config,
            state: Mutex::new(state),
            work: Condvar::new(),
            done: Condvar::new(),
            workers: Mutex::new(Vec::new()),
        });
        let service = PlacementService {
            inner: Arc::clone(&inner),
        };
        let mut handles = lock(&inner.workers);
        for _ in 0..inner.config.workers {
            let worker = Arc::clone(&inner);
            handles.push(thread::spawn(move || worker_loop(&worker)));
        }
        drop(handles);
        Ok((service, recovery))
    }

    /// Handles one request line, returning one response line (no
    /// trailing newline). Total: every input produces a response,
    /// never a panic.
    pub fn handle_request(&self, line: &str) -> String {
        match proto::parse_request(line) {
            Err(e) => {
                lock(&self.inner.state).metrics.rejected_malformed += 1;
                reject(proto_error_kind(&e), &e.to_string())
            }
            Ok(Request::Submit(spec)) => self.submit(spec),
            Ok(Request::Status) => self.status(),
            Ok(Request::Result { id }) => self.result_of(id, Duration::ZERO),
            Ok(Request::Wait { id, timeout_ms }) => {
                self.result_of(id, Duration::from_millis(timeout_ms))
            }
            Ok(Request::Shutdown) => {
                self.begin_drain();
                let mut w = JsonWriter::new();
                w.begin_object();
                w.field_str("schema", proto::SERVICE_SCHEMA);
                w.field_bool("ok", true);
                w.field_str("op", "shutdown");
                w.field_bool("draining", true);
                w.end_object();
                w.finish()
            }
        }
    }

    fn submit(&self, spec: JobSpec) -> String {
        let fp = fnv1a64(spec.canonical_json().as_bytes());
        let mut st = lock(&self.inner.state);
        let depth = st.queue.len() as u64;
        st.metrics.queue_depth.record(depth);
        if st.draining {
            st.metrics.rejected_draining += 1;
            return reject(
                "draining",
                "service is draining; resubmit to the next daemon",
            );
        }
        // Dedup: an identical spec that is queued, running or done is
        // answered with the existing job id — the journal sees nothing.
        if let Some(id) = st.index.live_job(fp) {
            st.metrics.cache_hits += 1;
            return submit_ok(id, true);
        }
        if st.queue.len() >= self.inner.config.queue_capacity {
            st.metrics.rejected_overload += 1;
            return reject(
                "overload",
                &format!(
                    "queue is at capacity {}; shedding load",
                    self.inner.config.queue_capacity
                ),
            );
        }
        let id = st.next_id;
        // Journal BEFORE acknowledging: an acked job survives SIGKILL.
        let payload = job_record(id, &spec);
        let State { log, faults, .. } = &mut *st;
        if let Err(e) = log.append(&payload, faults) {
            return reject("journal", &format!("could not journal the job: {e}"));
        }
        st.next_id += 1;
        st.insert_job(id, spec, fp);
        st.queue.push_back(id);
        st.metrics.accepted += 1;
        drop(st);
        self.inner.work.notify_one();
        submit_ok(id, false)
    }

    fn status(&self) -> String {
        let st = lock(&self.inner.state);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", proto::SERVICE_SCHEMA);
        w.field_bool("ok", true);
        w.field_str("op", "status");
        w.field_u64("pid", u64::from(std::process::id()));
        w.field_bool("draining", st.draining);
        w.field_u64("queued", st.queue.len() as u64);
        w.field_u64("running", st.index.running);
        w.field_u64("workers", self.inner.config.workers as u64);
        w.field_u64("queue_capacity", self.inner.config.queue_capacity as u64);
        w.key("metrics");
        st.metrics.write_json(&mut w, &st.faults);
        w.end_object();
        w.finish()
    }

    fn result_of(&self, id: u64, wait: Duration) -> String {
        let deadline = Instant::now() + wait;
        let mut st = lock(&self.inner.state);
        loop {
            let Some(job) = st.jobs.get(&id) else {
                return reject("unknown_id", &format!("no job {id}"));
            };
            match &job.state {
                JobState::Done(result) => return result_resp(id, "done", Some(result), None),
                JobState::Evicted => return result_resp(id, "evicted", None, None),
                JobState::Failed(reason) => return result_resp(id, "failed", None, Some(reason)),
                JobState::Queued | JobState::Running => {
                    let now = Instant::now();
                    if now >= deadline {
                        return result_resp(id, job.state.name(), None, None);
                    }
                    let (guard, _) = self
                        .inner
                        .done
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|p| p.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// Begins a graceful drain: stop accepting, let running jobs
    /// finish; queued jobs stay journaled for the next start.
    pub fn begin_drain(&self) {
        lock(&self.inner.state).draining = true;
        self.inner.work.notify_all();
        self.inner.done.notify_all();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        lock(&self.inner.state).draining
    }

    /// Waits for every worker to exit (call after [`Self::begin_drain`];
    /// without a drain this blocks until the workers are told to stop).
    pub fn join(&self) {
        let handles: Vec<_> = lock(&self.inner.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// [`Self::begin_drain`] then [`Self::join`]: the graceful-stop
    /// sequence. The journal needs no separate flush — every append
    /// was fsync'd when it was made.
    pub fn drain_and_join(&self) {
        self.begin_drain();
        self.join();
    }

    /// Snapshot of the fault counters (test and report surface).
    pub fn fault_counters(&self) -> FaultCounters {
        lock(&self.inner.state).faults
    }
}

/// Applies one replayed journal record; `false` when it cannot apply.
fn replay_record(
    state: &mut State,
    doc: &JsonValue,
    cache_capacity: usize,
    recovery: &mut ServiceRecovery,
) -> bool {
    let id = match doc.get("id").and_then(JsonValue::as_u64) {
        Some(id) => id,
        None => return false,
    };
    match doc.get("kind").and_then(JsonValue::as_str) {
        Some("job") => {
            let Some(spec_doc) = doc.get("job") else {
                return false;
            };
            let Ok(spec) = JobSpec::from_doc(spec_doc) else {
                return false;
            };
            let fp = fnv1a64(spec.canonical_json().as_bytes());
            state.insert_job(id, spec, fp);
            state.next_id = state.next_id.max(id + 1);
            true
        }
        Some("done") => {
            let Some(result) = doc.get("result").and_then(JsonValue::as_str) else {
                return false;
            };
            let Some(fp) = state.jobs.get(&id).map(|j| j.spec_fp) else {
                return false;
            };
            state.set_job_state(id, JobState::Done(result.to_owned()));
            retain_result(state, fp, id, cache_capacity);
            recovery.completed += 1;
            true
        }
        Some("failed") => {
            let Some(reason) = doc.get("reason").and_then(JsonValue::as_str) else {
                return false;
            };
            if !state.jobs.contains_key(&id) {
                return false;
            }
            state.set_job_state(id, JobState::Failed(reason.to_owned()));
            recovery.failed += 1;
            true
        }
        _ => false,
    }
}

/// Records a completed job in the LRU, evicting the oldest retained
/// result's bytes when over capacity.
fn retain_result(state: &mut State, spec_fp: u64, id: u64, capacity: usize) {
    state.cache.retain(|&(_, cached_id)| cached_id != id);
    state.cache.push_back((spec_fp, id));
    while state.cache.len() > capacity.max(1) {
        if let Some((_, old)) = state.cache.pop_front() {
            if matches!(
                state.jobs.get(&old).map(|j| &j.state),
                Some(JobState::Done(_))
            ) {
                state.set_job_state(old, JobState::Evicted);
            }
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (id, spec) = {
            let mut st = lock(&inner.state);
            loop {
                if st.draining {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    st.set_job_state(id, JobState::Running);
                    let job = st.jobs.get(&id).expect("queued id has a job");
                    break (id, job.spec.clone());
                }
                st = inner.work.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        let started = Instant::now();
        let policy = RetryPolicy {
            max_attempts: inner.config.max_attempts,
            watchdog: inner.config.job_timeout,
            backoff: inner.config.backoff.as_ref(),
            cancel: None,
        };
        let mut faults = FaultCounters::new();
        let outcome = policy
            .run(
                id,
                &mut faults,
                |_| {
                    let spec = spec.clone();
                    move || execute_job(&spec)
                },
                || {},
            )
            .map(|(result, _)| result)
            .map_err(|(attempts, gave_up)| match gave_up {
                // Deterministic failures pass their message through raw.
                GaveUp::Error(reason) => reason,
                GaveUp::Transient(reason) => {
                    format!("gave up after {attempts} attempts: {reason}")
                }
            });
        let wall_ms = started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        finish_job(inner, id, outcome, &faults, wall_ms);
    }
}

/// Journals and applies a job's terminal state, folding in the faults
/// its attempts absorbed. A journal append failure at this point
/// degrades the result to an in-memory-only failure (counted, reported)
/// rather than tearing the daemon down.
fn finish_job(
    inner: &Arc<Inner>,
    id: u64,
    outcome: Result<String, String>,
    attempt_faults: &FaultCounters,
    wall_ms: u64,
) {
    let mut st = lock(&inner.state);
    st.faults.merge(attempt_faults);
    let payload = match &outcome {
        Ok(result) => done_record(id, result),
        Err(reason) => failed_record(id, reason),
    };
    let State { log, faults, .. } = &mut *st;
    let appended = log.append(&payload, faults);
    match (appended, outcome) {
        (Ok(()), Ok(result)) => {
            let fp = st.jobs.get(&id).map_or(0, |j| j.spec_fp);
            st.set_job_state(id, JobState::Done(result));
            retain_result(&mut st, fp, id, inner.config.cache_capacity);
            st.metrics.completed += 1;
            st.metrics.job_wall_ms.record(wall_ms);
        }
        (Ok(()), Err(reason)) => {
            st.set_job_state(id, JobState::Failed(reason));
            st.metrics.failed += 1;
        }
        (Err(je), _) => {
            // io_errors/retries were already counted by append().
            st.set_job_state(
                id,
                JobState::Failed(format!("result could not be journaled: {je}")),
            );
            st.metrics.failed += 1;
        }
    }
    drop(st);
    inner.done.notify_all();
}

// ---- journal records ------------------------------------------------

fn job_record(id: u64, spec: &JobSpec) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", proto::SERVICE_SCHEMA);
    w.field_str("kind", "job");
    w.field_u64("id", id);
    w.key("job");
    spec.write_json(&mut w);
    w.end_object();
    w.finish()
}

fn done_record(id: u64, result: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", proto::SERVICE_SCHEMA);
    w.field_str("kind", "done");
    w.field_u64("id", id);
    // The result is stored as an escaped string so recovery hands back
    // the exact bytes the first run produced.
    w.field_str("result", result);
    w.end_object();
    w.finish()
}

fn failed_record(id: u64, reason: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", proto::SERVICE_SCHEMA);
    w.field_str("kind", "failed");
    w.field_u64("id", id);
    w.field_str("reason", reason);
    w.end_object();
    w.finish()
}

// ---- responses ------------------------------------------------------

fn proto_error_kind(e: &ProtoError) -> &'static str {
    match e {
        ProtoError::Oversized { .. } => "oversized",
        ProtoError::Truncated => "truncated",
        ProtoError::Syntax(_) => "malformed",
        ProtoError::Schema(_) => "schema",
        ProtoError::UnknownOp(_) => "unknown_op",
        ProtoError::BadField(_) => "bad_field",
    }
}

/// A typed rejection line: `ok: false` plus a machine-readable kind.
fn reject(kind: &str, detail: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", proto::SERVICE_SCHEMA);
    w.field_bool("ok", false);
    w.field_str("error", kind);
    w.field_str("detail", detail);
    w.end_object();
    w.finish()
}

fn submit_ok(id: u64, cached: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", proto::SERVICE_SCHEMA);
    w.field_bool("ok", true);
    w.field_str("op", "submit");
    w.field_u64("id", id);
    w.field_bool("cached", cached);
    w.end_object();
    w.finish()
}

fn result_resp(id: u64, state: &str, result: Option<&str>, reason: Option<&str>) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", proto::SERVICE_SCHEMA);
    w.field_bool("ok", true);
    w.field_str("op", "result");
    w.field_u64("id", id);
    w.field_str("state", state);
    if let Some(result) = result {
        w.field_str("result", result);
    }
    if let Some(reason) = reason {
        w.field_str("reason", reason);
    }
    w.end_object();
    w.finish()
}

// ---- job execution --------------------------------------------------

fn parse_algorithm(name: &str) -> Result<PlacementAlgorithm, String> {
    PlacementAlgorithm::from_paper_name(name).ok_or_else(|| format!("unknown algorithm {name:?}"))
}

/// Executes one job to its canonical result JSON. Deterministic: the
/// trace is regenerated from `(app, scale, seed)` and the writer emits
/// a fixed field order, so the same spec always produces the same
/// bytes — the property the crash-resume proof and the result cache
/// both rest on. Any `Err` is a deterministic failure (bad spec, bad
/// grid): the service fails the job without retrying.
fn execute_job(spec: &JobSpec) -> Result<String, String> {
    let app_spec =
        placesim_workloads::spec(&spec.app).ok_or_else(|| format!("unknown app {:?}", spec.app))?;
    let protocol = match &spec.protocol {
        None => None,
        Some(name) => Some(name.parse::<Protocol>().map_err(|e| e.to_string())?),
    };
    let algorithms = spec
        .algorithms
        .iter()
        .map(|n| parse_algorithm(n))
        .collect::<Result<Vec<_>, _>>()?;
    let mut app = PreparedApp::prepare(
        &app_spec,
        &GenOptions {
            scale: spec.scale,
            seed: spec.seed,
        },
    );
    if let Some(p) = protocol {
        app.config = app.config.with_protocol(p);
    }
    if algorithms.contains(&PlacementAlgorithm::CoherenceTraffic) {
        app.run_probe().map_err(|e| e.to_string())?;
    }
    let trace_fp = format!("{:016x}", program_fingerprint(&app.prog));

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", proto::SERVICE_SCHEMA);
    w.field_str("kind", "job-result");
    w.field_str("op", spec.op.as_str());
    w.field_str("app", &spec.app);
    w.field_str("trace_fingerprint", &trace_fp);
    match spec.op {
        JobOp::Analyze => {
            w.field_u64("threads", app.threads() as u64);
            w.field_u64("total_refs", app.prog.total_refs());
            w.field_u64("shared_addresses", app.sharing.shared_address_count());
            w.field_u64("total_addresses", app.sharing.total_address_count());
        }
        JobOp::Place => {
            let algorithm = algorithms[0];
            let processors = spec.processors[0];
            let map = algorithm
                .place(&app.placement_inputs(), processors)
                .map_err(|e| e.to_string())?;
            w.field_str("algorithm", algorithm.paper_name());
            w.field_u64("processors", processors as u64);
            w.field_f64("load_imbalance", map.load_imbalance(&app.lengths));
            w.key("assignment");
            w.begin_array();
            for (_, threads) in map.iter() {
                w.begin_array();
                for &t in threads {
                    w.value_u64(t.index() as u64);
                }
                w.end_array();
            }
            w.end_array();
        }
        JobOp::Simulate => {
            let algorithm = algorithms[0];
            let processors = spec.processors[0];
            let result = run_placement_with_config(&app, algorithm, processors, &app.config)
                .map_err(|e| e.to_string())?;
            let entry =
                ManifestEntry::from_stats(algorithm.paper_name(), processors, &result.stats);
            entry.write_fields(&mut w);
        }
        JobOp::Sweep => {
            w.key("cells");
            w.begin_array();
            for &algorithm in &algorithms {
                for &processors in &spec.processors {
                    let result =
                        run_placement_with_config(&app, algorithm, processors, &app.config)
                            .map_err(|e| e.to_string())?;
                    let entry = ManifestEntry::from_stats(
                        algorithm.paper_name(),
                        processors,
                        &result.stats,
                    );
                    w.begin_object();
                    entry.write_fields(&mut w);
                    w.end_object();
                }
            }
            w.end_array();
        }
    }
    w.end_object();
    Ok(w.finish())
}

// ---- socket front end -----------------------------------------------

/// Connection threads the socket loop will run at once; excess
/// connections get a typed `overload` line and are closed.
#[cfg(unix)]
const MAX_CONNECTIONS: usize = 32;

/// Serves `service` on a Unix socket at `socket` until a drain begins
/// (via a `shutdown` request) or `stop` is raised (the CLI's SIGTERM
/// flag). Removes the socket file on the way out; the caller still
/// owns the drain-and-join.
///
/// # Errors
///
/// Socket bind/accept failures.
#[cfg(unix)]
pub fn serve_unix(
    service: &PlacementService,
    socket: &Path,
    stop: &AtomicBool,
) -> Result<(), ServiceError> {
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::AtomicUsize;

    let _ = fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    listener.set_nonblocking(true)?;
    let live = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::SeqCst) && !service.is_draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    let mut stream = stream;
                    let _ = writeln!(
                        stream,
                        "{}",
                        reject("overload", "too many concurrent connections")
                    );
                    continue;
                }
                live.fetch_add(1, Ordering::SeqCst);
                let svc = service.clone();
                let live_count = Arc::clone(&live);
                thread::spawn(move || {
                    handle_connection(&svc, stream);
                    live_count.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(15));
            }
            Err(e) => {
                let _ = fs::remove_file(socket);
                return Err(e.into());
            }
        }
    }
    let _ = fs::remove_file(socket);
    Ok(())
}

#[cfg(unix)]
fn handle_connection(service: &PlacementService, stream: std::os::unix::net::UnixStream) {
    use std::io::BufReader;
    let _ = stream.set_nonblocking(false);
    // An idle or wedged client must not pin a connection slot forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(600)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match proto::read_frame(&mut reader) {
            Ok(None) => return,
            Ok(Some(line)) => {
                let response = service.handle_request(&line);
                if writeln!(writer, "{response}").is_err() {
                    return;
                }
            }
            Err(e) => {
                // A framing error desynchronizes the stream: answer
                // once, then close.
                lock(&service.inner.state).metrics.rejected_malformed += 1;
                let _ = writeln!(writer, "{}", reject(proto_error_kind(&e), &e.to_string()));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_obs::json;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("placesim-service-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn submit_line(job: &str) -> String {
        format!(
            "{{\"schema\": \"{}\", \"op\": \"submit\", \"job\": {job}}}",
            proto::SERVICE_SCHEMA
        )
    }

    const ANALYZE_JOB: &str =
        "{\"op\": \"analyze\", \"app\": \"water\", \"scale\": 0.002, \"seed\": 3}";

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            job_timeout: None,
            max_attempts: 2,
            backoff: None,
            cache_capacity: 8,
        }
    }

    #[test]
    fn submit_execute_and_fetch_result() {
        let dir = tmp_dir("roundtrip");
        let (svc, rec) = PlacementService::start(&dir, quick_config()).unwrap();
        assert_eq!(rec, ServiceRecovery::default());
        let resp = svc.handle_request(&submit_line(ANALYZE_JOB));
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        let id = doc.get("id").and_then(JsonValue::as_u64).unwrap();

        let wait = format!(
            "{{\"schema\": \"{}\", \"op\": \"wait\", \"id\": {id}, \"timeout_ms\": 30000}}",
            proto::SERVICE_SCHEMA
        );
        let resp = svc.handle_request(&wait);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));
        let result = doc.get("result").and_then(JsonValue::as_str).unwrap();
        let result_doc = json::parse(result).expect("result is strict JSON");
        assert_eq!(
            result_doc.get("op").and_then(JsonValue::as_str),
            Some("analyze")
        );
        assert!(result_doc.get("trace_fingerprint").is_some());

        // An identical resubmit is a cache hit on the same id.
        let resp = svc.handle_request(&submit_line(ANALYZE_JOB));
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("cached").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("id").and_then(JsonValue::as_u64), Some(id));

        svc.drain_and_join();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overload_is_typed_and_draining_rejects() {
        let dir = tmp_dir("overload");
        let mut cfg = quick_config();
        cfg.workers = 0; // nothing drains the queue
        cfg.queue_capacity = 2;
        let (svc, _) = PlacementService::start(&dir, cfg).unwrap();
        // Distinct specs (different seeds) so dedup doesn't absorb them.
        for seed in 0..2 {
            let job = ANALYZE_JOB.replace("\"seed\": 3", &format!("\"seed\": {seed}"));
            let doc = json::parse(&svc.handle_request(&submit_line(&job))).unwrap();
            assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        }
        let job = ANALYZE_JOB.replace("\"seed\": 3", "\"seed\": 99");
        let doc = json::parse(&svc.handle_request(&submit_line(&job))).unwrap();
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            doc.get("error").and_then(JsonValue::as_str),
            Some("overload")
        );

        svc.begin_drain();
        let doc = json::parse(&svc.handle_request(&submit_line(ANALYZE_JOB))).unwrap();
        assert_eq!(
            doc.get("error").and_then(JsonValue::as_str),
            Some("draining")
        );
        svc.join();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_requests_get_typed_rejections() {
        let dir = tmp_dir("malformed");
        let mut cfg = quick_config();
        cfg.workers = 0;
        let (svc, _) = PlacementService::start(&dir, cfg).unwrap();
        for (line, kind) in [
            ("not json at all", "malformed"),
            (
                "{\"schema\": \"placesim-service-v1\", \"op\": \"explode\"}",
                "unknown_op",
            ),
            ("{\"op\": \"status\"}", "schema"),
        ] {
            let doc = json::parse(&svc.handle_request(line)).unwrap();
            assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
            assert_eq!(doc.get("error").and_then(JsonValue::as_str), Some(kind));
        }
        let status =
            svc.handle_request("{\"schema\": \"placesim-service-v1\", \"op\": \"status\"}");
        let doc = json::parse(&status).unwrap();
        let malformed = doc
            .get("metrics")
            .and_then(|m| m.get("rejected_malformed"))
            .and_then(JsonValue::as_u64);
        assert_eq!(malformed, Some(3));
        svc.drain_and_join();
        fs::remove_dir_all(&dir).ok();
    }

    /// The dedup answer and the counts the service used to get by
    /// walking every job, compared with its index.
    fn assert_index_matches_scan(svc: &PlacementService) {
        let st = lock(&svc.inner.state);
        for fp in st.jobs.values().map(|j| j.spec_fp) {
            let scan = st.jobs.iter().find_map(|(&id, j)| {
                (j.spec_fp == fp && !matches!(j.state, JobState::Failed(_) | JobState::Evicted))
                    .then_some(id)
            });
            assert_eq!(st.index.live_job(fp), scan);
        }
        let count = |f: fn(&JobState) -> bool| st.jobs.values().filter(|j| f(&j.state)).count();
        assert_eq!(st.index.live.len(), count(JobState::is_live));
        assert_eq!(st.queue.len(), count(|s| matches!(s, JobState::Queued)));
        assert_eq!(
            st.index.running as usize,
            count(|s| matches!(s, JobState::Running))
        );
    }

    /// Submits `job`, checks the index, and returns `(id, cached)`.
    fn submit_checked(svc: &PlacementService, job: &str) -> (u64, bool) {
        let doc = json::parse(&svc.handle_request(&submit_line(job))).unwrap();
        assert_index_matches_scan(svc);
        (
            doc.get("id").and_then(JsonValue::as_u64).unwrap(),
            doc.get("cached").and_then(JsonValue::as_bool).unwrap(),
        )
    }

    /// Waits for job `id` to finish, checks the index, and returns its
    /// state.
    fn wait_checked(svc: &PlacementService, id: u64) -> String {
        let wait = format!(
            "{{\"schema\": \"{}\", \"op\": \"wait\", \"id\": {id}, \"timeout_ms\": 30000}}",
            proto::SERVICE_SCHEMA
        );
        let doc = json::parse(&svc.handle_request(&wait)).unwrap();
        assert_index_matches_scan(svc);
        doc.get("state")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_owned()
    }

    #[test]
    fn dedup_index_agrees_with_a_scan_through_failures_evictions_and_restart() {
        let dir = tmp_dir("dedup-index");
        let a = ANALYZE_JOB.replace("\"seed\": 3", "\"seed\": 1");
        let b = ANALYZE_JOB.replace("\"seed\": 3", "\"seed\": 2");
        let bad = ANALYZE_JOB.replace("water", "no-such-app");
        let mut cfg = quick_config();
        cfg.cache_capacity = 1;
        let (svc, _) = PlacementService::start(&dir, cfg).unwrap();
        assert_index_matches_scan(&svc);

        let (a1, cached) = submit_checked(&svc, &a);
        assert!(!cached);
        assert_eq!(wait_checked(&svc, a1), "done");
        let (f1, _) = submit_checked(&svc, &bad);
        assert_eq!(wait_checked(&svc, f1), "failed");
        assert_eq!(submit_checked(&svc, &a), (a1, true));
        // B's result evicts A's, so A's next submission is a new job.
        let (b1, _) = submit_checked(&svc, &b);
        assert_eq!(wait_checked(&svc, b1), "done");
        assert_eq!(wait_checked(&svc, a1), "evicted");
        let (a2, cached) = submit_checked(&svc, &a);
        assert!(!cached && a2 > b1);
        assert_eq!(wait_checked(&svc, a2), "done");
        // A failed job is never the dedup answer.
        let (f2, cached) = submit_checked(&svc, &bad);
        assert!(!cached && f2 > f1);
        assert_eq!(wait_checked(&svc, f2), "failed");
        svc.drain_and_join();
        drop(svc); // releases the lockfile

        // A restart with room for every result keeps A's first job live
        // next to its resubmission; dedup answers with the lower id.
        let mut cfg = quick_config();
        cfg.workers = 0;
        let (svc, rec) = PlacementService::start(&dir, cfg).unwrap();
        assert_eq!((rec.completed, rec.failed), (3, 2));
        assert_index_matches_scan(&svc);
        assert_eq!(submit_checked(&svc, &a), (a1, true));
        let c = ANALYZE_JOB.replace("\"seed\": 3", "\"seed\": 4");
        let (c1, cached) = submit_checked(&svc, &c);
        assert!(!cached);
        assert_eq!(submit_checked(&svc, &c), (c1, true));
        assert_eq!(lock(&svc.inner.state).queue.len(), 1);
        svc.drain_and_join();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_failures_do_not_retry() {
        let dir = tmp_dir("detfail");
        let (svc, _) = PlacementService::start(&dir, quick_config()).unwrap();
        let job = ANALYZE_JOB.replace("water", "no-such-app");
        let doc = json::parse(&svc.handle_request(&submit_line(&job))).unwrap();
        let id = doc.get("id").and_then(JsonValue::as_u64).unwrap();
        let wait = format!(
            "{{\"schema\": \"{}\", \"op\": \"wait\", \"id\": {id}, \"timeout_ms\": 30000}}",
            proto::SERVICE_SCHEMA
        );
        let doc = json::parse(&svc.handle_request(&wait)).unwrap();
        assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("failed"));
        assert!(doc
            .get("reason")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("unknown app"));
        let faults = svc.fault_counters();
        assert_eq!(faults.errors, 1);
        assert_eq!(faults.retries, 0);
        svc.drain_and_join();
        fs::remove_dir_all(&dir).ok();
    }
}
