//! `service-mixed`: the placement daemon under a closed loop of small
//! jobs.
//!
//! An in-process `PlacementService` (`ServiceConfig::new()`) on a fresh
//! directory is served by `serve_unix`. Two client connections run a
//! closed loop over a job mix generated from the seed: each client
//! submits, waits for `done`, then takes the next job. The mix is mostly
//! small `simulate` jobs over water, locusroute and fft with the `wi`,
//! `mesi` and `dragon` protocols in rotation, some `place` and `analyze`
//! jobs and an occasional small `sweep`. About one submission in four
//! repeats an earlier spec: most take the dedup/result-cache path, and a
//! few reach past the result cache and are computed again.

use crate::metrics::{max, median, percentile, windowed, Metrics, Tally};
use crate::spans::{self, Recorder};
use crate::{Ctx, RunOut, SetupOut};
use placesim::service::serve_unix;
use placesim::{
    run_placement_with_config, ManifestEntry, PlacementService, PreparedApp, RecordLog,
    ServiceConfig,
};
use placesim_machine::{simulate, Protocol};
use placesim_obs::json::{self, JsonValue, JsonWriter};
use placesim_obs::proto::{JobOp, JobSpec, SERVICE_SCHEMA};
use placesim_obs::FaultCounters;
use placesim_placement::PlacementAlgorithm;
use placesim_workloads::GenOptions;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Client connections in the closed loop.
pub const CLIENTS: usize = 2;
/// Consecutive jobs of the mix that form one timed pass (`wall_s`).
const BATCH: usize = 50;
/// Consecutive jobs per tail window: `job_p99_ms` is the median over
/// windows of each window's 99th percentile, which has 10 jobs beyond it.
/// A burst of slow fsyncs then moves one window, not the run's tail.
const TAIL_WINDOW: usize = 1000;
/// Daemon starts per set-up; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Jobs generated per mix; the loop stops at the deadline long before.
const MIX_LEN: usize = 100_000;
/// Applications and the trace scale each runs at.
const APPS: [(&str, f64); 3] = [("water", 0.02), ("locusroute", 0.01), ("fft", 0.01)];
/// Protocols, rotated over `simulate` jobs.
const PROTOCOLS: [&str; 3] = ["wi", "mesi", "dragon"];
/// Algorithms drawn for `place` and `simulate` jobs.
const ALGORITHMS: [&str; 5] = [
    "LOAD-BAL",
    "RANDOM",
    "SHARE-REFS",
    "MIN-PRIV+LB",
    "SHARE-ADDR+LB",
];
/// Processor counts drawn for `place` and `simulate` jobs.
const PROCESSORS: [usize; 3] = [2, 4, 8];
/// How far back a near repeat reaches: well inside the service's
/// 128-result cache, so it takes the dedup path.
const REPEAT_WINDOW: usize = 48;
/// One repeat in this many is a far repeat.
const FAR_REPEAT_EVERY: usize = 10;
/// How far back a far repeat reaches: more fresh jobs than the service's
/// 128-result cache holds, so the spec is computed again and its result
/// must match the first byte for byte.
const FAR_REPEAT: std::ops::Range<usize> = 300..500;
/// Simulate results re-computed by direct calls and compared.
const SAMPLE_CHECKS: usize = 4;
/// Simulate specs timed layer by layer in the traced run.
const DIRECT_SPECS: usize = 12;
/// Scratch-log appends timed in the traced run.
const APPENDS: usize = 40;
/// Longest a client waits for one job.
const WAIT_MS: u64 = 120_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The job mix for `seed`: `len` submissions, in order.
///
/// The workload's specification gives the mix only qualitatively:
/// mostly small `simulate` jobs, some `place` and `analyze`, an
/// occasional small `sweep`, and about one submission in four repeating
/// an earlier spec. The split below is one reading of that, not observed
/// traffic.
pub fn mix(seed: u64, len: usize) -> Vec<JobSpec> {
    let mut rng = seed ^ 0x005e_ed0f_6a0b;
    let mut pick = |n: usize| (splitmix(&mut rng) % n as u64) as usize;
    let mut specs: Vec<JobSpec> = Vec::with_capacity(len);
    let (mut simulates, mut sweeps) = (0usize, 0usize);
    for i in 0..len {
        if i >= REPEAT_WINDOW && pick(4) == 0 {
            let back = if i >= FAR_REPEAT.end && pick(FAR_REPEAT_EVERY) == 0 {
                FAR_REPEAT.start + pick(FAR_REPEAT.len())
            } else {
                1 + pick(REPEAT_WINDOW)
            };
            specs.push(specs[i - back].clone());
            continue;
        }
        // Per cent: 80 simulate, 10 place, 7 analyze, 3 sweep. A sweep
        // takes several times as long as a `simulate` job, and at 3% a
        // 1,000-job window holds about 22 of them, so the window's 99th
        // percentile (the 11th slowest job) is a sweep.
        let roll = pick(100);
        let (app, scale) = APPS[pick(APPS.len())];
        let seed = pick(1_000_000) as u64;
        let algorithm = ALGORITHMS[pick(ALGORITHMS.len())].to_owned();
        let processors = PROCESSORS[pick(PROCESSORS.len())];
        let spec = |op, app: &str, scale, protocol: Option<&str>, algorithms, processors| JobSpec {
            op,
            app: app.to_owned(),
            scale,
            seed,
            protocol: protocol.map(str::to_owned),
            algorithms,
            processors,
        };
        specs.push(if roll < 80 {
            simulates += 1;
            let protocol = PROTOCOLS[simulates % PROTOCOLS.len()];
            spec(
                JobOp::Simulate,
                app,
                scale,
                Some(protocol),
                vec![algorithm],
                vec![processors],
            )
        } else if roll < 90 {
            spec(
                JobOp::Place,
                app,
                scale,
                None,
                vec![algorithm],
                vec![processors],
            )
        } else if roll < 97 {
            spec(JobOp::Analyze, app, scale, None, Vec::new(), Vec::new())
        } else {
            // Sweeps cycle through every app and protocol, as `simulate`
            // jobs cycle through protocols, so every stretch of the mix
            // holds the same kinds of sweep.
            sweeps += 1;
            let (app, scale) = APPS[sweeps % APPS.len()];
            let protocol = PROTOCOLS[sweeps / APPS.len() % PROTOCOLS.len()];
            spec(
                JobOp::Sweep,
                app,
                scale,
                Some(protocol),
                vec!["LOAD-BAL".into(), "RANDOM".into()],
                vec![2, 4],
            )
        });
    }
    specs
}

fn request(op: &str, fill: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SERVICE_SCHEMA);
    w.field_str("op", op);
    fill(&mut w);
    w.end_object();
    w.finish()
}

/// One line-oriented connection to the daemon.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path, patience: Duration) -> Result<Self, String> {
        let deadline = Instant::now() + patience;
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("cannot connect to the daemon: {e}"))
                }
                Err(_) => thread::sleep(Duration::from_millis(1)),
            }
        };
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn call(&mut self, line: &str) -> Result<JsonValue, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send failed: {e}"))?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive failed: {e}"))?;
        json::parse(resp.trim_end()).map_err(|e| format!("bad response {resp:?}: {e}"))
    }
}

/// A daemon served on a Unix socket from a scoped thread.
fn with_daemon<R>(dir: &Path, f: impl FnOnce(&Path) -> Result<R, String>) -> Result<R, String> {
    let socket = dir.join("svc.sock");
    let (service, _) =
        PlacementService::start(dir, ServiceConfig::new()).map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let out = thread::scope(|s| {
        let server = s.spawn(|| serve_unix(&service, &socket, &stop));
        let out = f(&socket);
        // Whatever `f` did, ask the daemon to drain so the socket loop
        // exits; the stop flag covers a failed shutdown request.
        let shutdown = Client::connect(&socket, Duration::from_secs(5))
            .and_then(|mut c| c.call(&request("shutdown", |_| {})));
        if shutdown.is_err() {
            stop.store(true, Ordering::SeqCst);
        }
        let served = server.join().map_err(|_| "socket loop panicked".to_owned());
        (out, served)
    });
    service.drain_and_join();
    let (out, served) = out;
    served?.map_err(|e| e.to_string())?;
    out
}

/// Starts the daemon `SETUP_REPEATS` times on fresh directories, timing
/// each start up to the first answered `status` request.
pub fn setup(work: &Path, _seed: u64) -> Result<SetupOut, String> {
    let mut times = Vec::new();
    for k in 0..SETUP_REPEATS {
        let dir = work.join(format!("setup-{k}"));
        let t = Instant::now();
        let mut ready = None;
        with_daemon(&dir, |socket| {
            let mut c = Client::connect(socket, Duration::from_secs(10))?;
            let status = c.call(&request("status", |_| {}))?;
            ready = Some(t.elapsed().as_secs_f64());
            match status.get("ok").and_then(JsonValue::as_bool) {
                Some(true) => Ok(()),
                _ => Err("status refused".to_owned()),
            }
        })?;
        times.push(ready.ok_or("daemon never answered")?);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok(SetupOut {
        setup_s: median(&times),
        layers: Metrics::default(),
        extras: Vec::new(),
    })
}

/// One submission as a client saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Position in the mix.
    pub index: usize,
    /// Seconds from loop start to the submit being sent.
    pub sent_s: f64,
    /// Submit round trip (ack received), ms.
    pub submit_ms: f64,
    /// Wait round trip, ms.
    pub wait_ms: f64,
    /// The job id the submit was acknowledged with.
    pub id: Option<u64>,
    /// Whether the service answered the submit from an existing job.
    pub cached: bool,
    /// Submit sent to `done` received, ms.
    pub latency_ms: f64,
    /// `Ok(result bytes)` when the job reached `done`, else why not.
    pub outcome: Result<String, String>,
}

/// What one submit-and-wait produced.
struct JobOutcome {
    submit_ms: f64,
    wait_ms: f64,
    id: Option<u64>,
    cached: bool,
    outcome: Result<String, String>,
}

fn run_job(client: &mut Client, spec: &JobSpec, rec: &Recorder, parent: Option<u64>) -> JobOutcome {
    let t = Instant::now();
    let submit = rec.time("core.service.submit", parent, |_| {
        client.call(&request("submit", |w| {
            w.key("job");
            spec.write_json(w);
        }))
    });
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut out = JobOutcome {
        submit_ms,
        wait_ms: 0.0,
        id: None,
        cached: false,
        outcome: Err(String::new()),
    };
    let id = match submit {
        Err(e) => {
            out.outcome = Err(e);
            return out;
        }
        Ok(ack) => match (
            ack.get("ok").and_then(JsonValue::as_bool),
            ack.get("id").and_then(JsonValue::as_u64),
        ) {
            (Some(true), Some(id)) => {
                out.cached = ack.get("cached").and_then(JsonValue::as_bool) == Some(true);
                id
            }
            _ => {
                let why = ack.get("error").and_then(JsonValue::as_str).unwrap_or("?");
                out.outcome = Err(format!("submit rejected: {why}"));
                return out;
            }
        },
    };
    out.id = Some(id);
    let t = Instant::now();
    let done = rec.time("core.service.wait", parent, |_| {
        client.call(&request("wait", |w| {
            w.field_u64("id", id);
            w.field_u64("timeout_ms", WAIT_MS);
        }))
    });
    out.wait_ms = t.elapsed().as_secs_f64() * 1e3;
    out.outcome = done.and_then(|resp| {
        match (
            resp.get("state").and_then(JsonValue::as_str),
            resp.get("result").and_then(JsonValue::as_str),
        ) {
            (Some("done"), Some(result)) => Ok(result.to_owned()),
            (state, _) => Err(format!(
                "job {id} ended {:?}: {}",
                state.unwrap_or("?"),
                resp.get("reason").and_then(JsonValue::as_str).unwrap_or("")
            )),
        }
    });
    out
}

/// Every submission of a spec must come back with byte-identical
/// results, whether it was computed again or answered from the cache,
/// and a submission answered from the cache must carry the id of a
/// submission of the same spec that the service computed. Returns how
/// many repeats were computed again.
pub fn check_repeats(specs: &[JobSpec], jobs: &[JobRecord], tally: &mut Tally) -> usize {
    let mut computed: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for j in jobs {
        if let (Some(id), false) = (j.id, j.cached) {
            computed
                .entry(specs[j.index].canonical_json())
                .or_default()
                .push(id);
        }
    }
    let mut first: BTreeMap<String, &str> = BTreeMap::new();
    let mut recomputed = 0;
    for j in jobs {
        let Ok(result) = &j.outcome else { continue };
        let key = specs[j.index].canonical_json();
        let ids = computed.get(&key).map_or(&[][..], Vec::as_slice);
        if j.cached && !j.id.is_some_and(|id| ids.contains(&id)) {
            tally.fail(format!(
                "job {} was answered from the cache with id {:?}, which no submission of its spec was given",
                j.index, j.id
            ));
            continue;
        }
        match first.get(&key) {
            None => {
                first.insert(key, result);
            }
            Some(&earlier) => {
                recomputed += usize::from(!j.cached);
                if earlier != result {
                    tally.fail(format!(
                        "job {} repeats a spec but its result bytes differ",
                        j.index
                    ));
                }
            }
        }
    }
    recomputed
}

/// Recomputes a `simulate` job by direct calls and compares the
/// statistics the service returned.
pub fn check_simulate_result(spec: &JobSpec, result: &str) -> Result<(), String> {
    let app_spec = placesim_workloads::spec(&spec.app).ok_or("unknown app")?;
    let mut app = PreparedApp::prepare(
        &app_spec,
        &GenOptions {
            scale: spec.scale,
            seed: spec.seed,
        },
    );
    if let Some(p) = &spec.protocol {
        app.config = app
            .config
            .with_protocol(p.parse::<Protocol>().map_err(|e| e.to_string())?);
    }
    let algorithm = algorithm(&spec.algorithms[0])?;
    let processors = spec.processors[0];
    let r = run_placement_with_config(&app, algorithm, processors, &app.config)
        .map_err(|e| e.to_string())?;
    let e = ManifestEntry::from_stats(algorithm.paper_name(), processors, &r.stats);
    let doc = json::parse(result).map_err(|e| format!("result is not JSON: {e}"))?;
    let want = [
        ("execution_time", e.execution_time),
        ("total_refs", e.total_refs),
        ("total_misses", e.total_misses),
        ("coherence_traffic", e.coherence_traffic),
        ("update_traffic", e.update_traffic),
        ("compulsory", e.misses.compulsory),
        ("intra_thread_conflict", e.misses.intra_thread_conflict),
        ("inter_thread_conflict", e.misses.inter_thread_conflict),
        ("invalidation", e.misses.invalidation),
    ];
    for (field, value) in want {
        let got = doc.get(field).and_then(JsonValue::as_u64);
        if got != Some(value) {
            return Err(format!(
                "service {field} {got:?} differs from the direct call's {value}"
            ));
        }
    }
    Ok(())
}

fn algorithm(name: &str) -> Result<PlacementAlgorithm, String> {
    PlacementAlgorithm::ALL
        .into_iter()
        .find(|a| a.paper_name() == name)
        .ok_or_else(|| format!("unknown algorithm {name}"))
}

/// Runs the closed loop for `ctx.seconds`; in the traced run, batches
/// alternate untraced and traced, and after the loop one job's layers
/// are timed by direct calls.
pub fn run(ctx: &Ctx) -> Result<RunOut, String> {
    let specs = mix(ctx.seed, MIX_LEN);
    let dir = ctx.work.join("daemon");
    let traced_rec = Recorder::new(true);
    let quiet = Recorder::new(false);
    let next = AtomicUsize::new(0);
    let jobs = Mutex::new(Vec::new());
    let mut loop_wall = 0.0;
    let mut peak = 0.0;
    let status = with_daemon(&dir, |socket| {
        crate::rss::reset_peak()?;
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(ctx.seconds);
        thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| -> Result<(), String> {
                        let mut client = Client::connect(socket, Duration::from_secs(10))?;
                        loop {
                            let index = next.fetch_add(1, Ordering::SeqCst);
                            if index >= specs.len() || Instant::now() >= deadline {
                                return Ok(());
                            }
                            let traced = ctx.trace && (index / BATCH) % 2 == 1;
                            let rec = if traced { &traced_rec } else { &quiet };
                            let sent_s = start.elapsed().as_secs_f64();
                            let t = Instant::now();
                            let o = rec.time("job", None, |root| {
                                run_job(&mut client, &specs[index], rec, root)
                            });
                            let record = JobRecord {
                                index,
                                sent_s,
                                submit_ms: o.submit_ms,
                                wait_ms: o.wait_ms,
                                id: o.id,
                                cached: o.cached,
                                latency_ms: t.elapsed().as_secs_f64() * 1e3,
                                outcome: o.outcome,
                            };
                            jobs.lock().map_err(|_| "job list poisoned")?.push(record);
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().map_err(|_| "client panicked".to_owned())??;
            }
            Ok::<_, String>(())
        })?;
        loop_wall = start.elapsed().as_secs_f64();
        peak = crate::rss::peak_mib()?;
        let mut c = Client::connect(socket, Duration::from_secs(10))?;
        c.call(&request("status", |_| {}))
    })?;
    let mut jobs = jobs.into_inner().map_err(|_| "job list poisoned")?;
    jobs.sort_by_key(|j| j.index);

    let mut tally = Tally::default();
    for j in &jobs {
        tally.check(
            j.outcome
                .as_ref()
                .map(|_| ())
                .map_err(|e| format!("job {}: {e}", j.index)),
        );
    }
    let recomputed = check_repeats(&specs, &jobs, &mut tally);
    let mut sampled = BTreeMap::new();
    for j in &jobs {
        let spec = &specs[j.index];
        if sampled.len() >= SAMPLE_CHECKS || spec.op != JobOp::Simulate {
            continue;
        }
        if let Ok(result) = &j.outcome {
            sampled
                .entry(spec.canonical_json())
                .or_insert_with(|| check_simulate_result(spec, result));
        }
    }
    for (_, outcome) in sampled {
        tally.check(outcome);
    }

    let metrics_doc = status.get("metrics").ok_or("status carries no metrics")?;
    let count = |k: &str| {
        metrics_doc
            .get(k)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let hist = |h: &str, k: &str| {
        metrics_doc
            .get(h)
            .and_then(|v| v.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let rejected =
        count("rejected_overload") + count("rejected_draining") + count("rejected_malformed");

    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_ms).collect();
    let sweep_latencies: Vec<f64> = jobs
        .iter()
        .filter(|j| specs[j.index].op == JobOp::Sweep && !j.cached)
        .map(|j| j.latency_ms)
        .collect();
    let batch_walls = |traced: bool| -> Vec<f64> {
        let mut spans: BTreeMap<usize, (f64, f64, usize)> = BTreeMap::new();
        for j in &jobs {
            let b = j.index / BATCH;
            if ctx.trace && ((b % 2 == 1) != traced) {
                continue;
            }
            let e = spans.entry(b).or_insert((f64::MAX, 0.0, 0));
            e.0 = e.0.min(j.sent_s);
            e.1 = e.1.max(j.sent_s + j.latency_ms / 1e3);
            e.2 += 1;
        }
        spans
            .values()
            .filter(|(_, _, n)| *n == BATCH)
            .map(|(a, b, _)| b - a)
            .collect()
    };

    let mut metrics = Metrics::default();
    let mut spans_out = Vec::new();
    if ctx.trace {
        let submit: Vec<f64> = jobs.iter().map(|j| j.submit_ms).collect();
        let wait: Vec<f64> = jobs.iter().map(|j| j.wait_ms).collect();
        metrics.set("core.service.submit_ms.p50", median(&submit));
        metrics.set("core.service.submit_ms.p99", percentile(&submit, 99.0));
        metrics.set("core.service.wait_ms.p50", median(&wait));
        metrics.set("core.service.exec_ms.p50", hist("job_wall_ms", "p50"));
        metrics.set("core.service.exec_ms.p99", hist("job_wall_ms", "p99"));
        metrics.set("core.service.queue_depth.p50", hist("queue_depth", "p50"));
        metrics.set("core.service.queue_depth.max", hist("queue_depth", "max"));
        metrics.set(
            "core.service.cache_hit_frac",
            count("cache_hits") / (count("accepted") + count("cache_hits")),
        );
        metrics.set("core.service.rejected", rejected);
        metrics.set("core.service.jobs", jobs.len() as f64);
        metrics.set(
            "trace_overhead_frac",
            median(&batch_walls(true)) / median(&batch_walls(false)) - 1.0,
        );
        let loop_spans = traced_rec.spans();
        let selfs = spans::self_times(&loop_spans);
        let (mut uncovered, mut total) = (0u64, 0u64);
        for s in loop_spans.iter().filter(|s| s.name == "job") {
            uncovered += selfs[&s.id];
            total += s.dur_ns();
        }
        metrics.set("unattributed_frac", uncovered as f64 / total.max(1) as f64);

        direct_layers(&traced_rec, &specs, &ctx.work, &mut metrics)?;
        spans_out = traced_rec.spans();
    } else {
        metrics.set("wall_s", median(&batch_walls(false)));
        metrics.set("peak_rss_mib", peak);
        metrics.set("job_p50_ms", median(&latencies));
        metrics.set(
            "job_p99_ms",
            windowed(&latencies, TAIL_WINDOW, |w| percentile(w, 99.0)),
        );
        metrics.set("jobs_per_s", jobs.len() as f64 / loop_wall);
    }
    Ok(RunOut {
        tally,
        metrics,
        spans: spans_out,
        info: vec![
            ("jobs", jobs.len().to_string()),
            ("rejected", rejected.to_string()),
            ("cache_hits", count("cache_hits").to_string()),
            ("repeats_recomputed", recomputed.to_string()),
            ("slowest_job_ms", max(&latencies).to_string()),
            ("sweeps_computed", sweep_latencies.len().to_string()),
            ("sweep_p50_ms", median(&sweep_latencies).to_string()),
        ],
    })
}

/// Times the layers of single jobs by direct calls: the fused
/// generate-and-profile front end, placement, simulation under each
/// protocol, and one durable journal append.
fn direct_layers(
    rec: &Recorder,
    specs: &[JobSpec],
    work: &Path,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let chosen: Vec<&JobSpec> = specs
        .iter()
        .filter(|s| s.op == JobOp::Simulate && seen.insert(s.canonical_json()))
        .take(DIRECT_SPECS)
        .collect();
    let ms = |name: &str, spans: &[spans::Span]| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        median(&v)
    };
    let mut root_id = None;
    rec.time("direct", None, |root| -> Result<(), String> {
        root_id = root;
        for spec in &chosen {
            let app_spec = placesim_workloads::spec(&spec.app).ok_or("unknown app")?;
            let opts = GenOptions {
                scale: spec.scale,
                seed: spec.seed,
            };
            let app = rec.time("workloads.prepare", root, |_| {
                PreparedApp::prepare(&app_spec, &opts)
            });
            let algorithm = algorithm(&spec.algorithms[0])?;
            let map = rec
                .time("placement.place", root, |_| {
                    algorithm.place(&app.placement_inputs(), spec.processors[0])
                })
                .map_err(|e| e.to_string())?;
            for (protocol, name) in [
                (Protocol::Wi, "machine.simulate.wi"),
                (Protocol::Mesi, "machine.simulate.mesi"),
                (Protocol::Dragon, "machine.simulate.dragon"),
            ] {
                let config = app.config.with_protocol(protocol);
                rec.time(name, root, |_| simulate(&app.prog, &map, &config))
                    .map_err(|e| e.to_string())?;
            }
        }
        let (mut log, _) = RecordLog::open(&work.join("scratch.log"), SERVICE_SCHEMA)
            .map_err(|e| e.to_string())?;
        let mut faults = FaultCounters::new();
        for (i, spec) in chosen.iter().cycle().take(APPENDS).enumerate() {
            let payload = request("job", |w| {
                w.field_u64("id", i as u64);
                w.key("job");
                spec.write_json(w);
            });
            rec.time("core.journal.append", root, |_| {
                log.append(&payload, &mut faults)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    let root = root_id.ok_or("direct calls need a recording recorder")?;
    let spans = spans::descendants(&rec.spans(), root);
    metrics.set("workloads.prepare_ms", ms("workloads.prepare", &spans));
    metrics.set("placement.place_ms", ms("placement.place", &spans));
    metrics.set("machine.simulate_ms.wi", ms("machine.simulate.wi", &spans));
    metrics.set(
        "machine.simulate_ms.mesi",
        ms("machine.simulate.mesi", &spans),
    );
    metrics.set(
        "machine.simulate_ms.dragon",
        ms("machine.simulate.dragon", &spans),
    );
    metrics.set("core.journal.append_ms", ms("core.journal.append", &spans));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, id: u64, cached: bool, result: &str) -> JobRecord {
        JobRecord {
            index,
            sent_s: 0.0,
            submit_ms: 0.0,
            wait_ms: 0.0,
            id: Some(id),
            cached,
            latency_ms: 1.0,
            outcome: Ok(result.to_owned()),
        }
    }

    #[test]
    fn mix_is_seeded_and_about_a_quarter_repeats() {
        assert_eq!(mix(3, 500), mix(3, 500));
        assert_ne!(mix(3, 500), mix(4, 500));
        let m = mix(3, 4000);
        let mut last_seen = BTreeMap::new();
        let (mut repeats, mut far) = (0, 0);
        for (i, s) in m.iter().enumerate() {
            if let Some(j) = last_seen.insert(s.canonical_json(), i) {
                repeats += 1;
                far += usize::from(i - j >= FAR_REPEAT.start);
            }
        }
        let frac = repeats as f64 / m.len() as f64;
        assert!((0.18..0.30).contains(&frac), "repeat share {frac}");
        assert!(far > 0, "no repeat reaches past the result cache");
        let sims = m.iter().filter(|s| s.op == JobOp::Simulate).count();
        assert!(sims * 10 > m.len() * 6);
        let sweeps = m.iter().filter(|s| s.op == JobOp::Sweep).count();
        assert!(sweeps * 100 > m.len(), "sweep share {sweeps}/{}", m.len());
    }

    #[test]
    fn repeat_check_bites_on_differing_bytes_and_foreign_ids() {
        let specs = mix(1, 200);
        let b = (REPEAT_WINDOW..200)
            .find(|&i| specs[..i].contains(&specs[i]))
            .unwrap();
        let original = specs[..b].iter().position(|s| *s == specs[b]).unwrap();
        let other = (0..b).find(|&i| specs[i] != specs[b]).unwrap();
        let check = |jobs: &[JobRecord]| {
            let mut t = Tally::default();
            let recomputed = check_repeats(&specs, jobs, &mut t);
            (t.failed, recomputed)
        };
        // Answered from the cache with the original's id, or computed
        // again with equal bytes: both pass.
        let healthy = [
            record(other, 1, false, "x"),
            record(original, 2, false, "same"),
            record(b, 2, true, "same"),
        ];
        assert_eq!(check(&healthy), (0, 0));
        let recomputed = [
            record(original, 2, false, "same"),
            record(b, 3, false, "same"),
        ];
        assert_eq!(check(&recomputed), (0, 1));
        // A recomputed result that differs.
        let differs = [
            record(original, 2, false, "same"),
            record(b, 3, false, "different"),
        ];
        assert_eq!(check(&differs).0, 1);
        // A cache answer carrying another spec's id.
        let foreign = [
            record(other, 1, false, "x"),
            record(original, 2, false, "same"),
            record(b, 1, true, "same"),
        ];
        assert_eq!(check(&foreign).0, 1);
    }

    #[test]
    fn a_tampered_simulate_result_fails_the_direct_call_check() {
        let spec = JobSpec {
            op: JobOp::Simulate,
            app: "water".into(),
            scale: 0.002,
            seed: 4,
            protocol: Some("mesi".into()),
            algorithms: vec!["LOAD-BAL".into()],
            processors: vec![2],
        };
        let app_spec = placesim_workloads::spec("water").unwrap();
        let mut app = PreparedApp::prepare(
            &app_spec,
            &GenOptions {
                scale: 0.002,
                seed: 4,
            },
        );
        app.config = app.config.with_protocol(Protocol::Mesi);
        let r =
            run_placement_with_config(&app, PlacementAlgorithm::LoadBal, 2, &app.config).unwrap();
        let e = ManifestEntry::from_stats("LOAD-BAL", 2, &r.stats);
        let result = |refs: u64| {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_u64("execution_time", e.execution_time);
            w.field_u64("total_refs", refs);
            w.field_u64("total_misses", e.total_misses);
            w.field_u64("coherence_traffic", e.coherence_traffic);
            w.field_u64("update_traffic", e.update_traffic);
            w.field_u64("compulsory", e.misses.compulsory);
            w.field_u64("intra_thread_conflict", e.misses.intra_thread_conflict);
            w.field_u64("inter_thread_conflict", e.misses.inter_thread_conflict);
            w.field_u64("invalidation", e.misses.invalidation);
            w.end_object();
            w.finish()
        };
        assert_eq!(check_simulate_result(&spec, &result(e.total_refs)), Ok(()));
        let mut t = Tally::default();
        t.check(check_simulate_result(&spec, &result(e.total_refs + 1)));
        assert!(t.failed_frac() > 0.0);
    }

    #[test]
    fn the_loop_runs_against_a_live_daemon() {
        let work = std::env::temp_dir().join(format!("placebench-svc-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let ctx = Ctx {
            work: work.clone(),
            seed: 2,
            seconds: 0.5,
            trace: false,
        };
        let out = run(&ctx).unwrap();
        assert!(out.tally.attempted > 0);
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.messages);
        assert!(out.metrics.0["job_p50_ms"] > 0.0);
        std::fs::remove_dir_all(work).ok();
    }
}
