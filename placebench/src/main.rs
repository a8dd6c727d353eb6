//! The placesim benchmark's measuring program.
//!
//! `run.py` drives it in two processes per run, so that the measuring
//! process starts with none of the set-up's allocations in its heap:
//!
//! ```text
//! placebench setup --workload W --seed N --work DIR
//! placebench run   --workload W --seed N --seconds S --trace 0|1 --work DIR [--spans FILE]
//! placebench pin   --workload paper-sweep --seed N --work DIR
//! ```
//!
//! `setup` makes the workload's inputs from the seed inside `DIR` (or, for
//! `service-mixed`, times daemon starts) and writes `DIR/setup.json`.
//! `run` measures for `S` seconds and prints one JSON line: operations
//! attempted and failed, failure messages and metrics as name → value
//! (`run.py` takes their units from `BENCHMARK.json`). With `--trace 1`
//! it records spans and reports per-layer metrics instead of end-to-end
//! ones. `pin` prints the seed's grid digest as a line for
//! `paper_sweep_digests.txt` (see `README.md`).

mod metrics;
mod paper_sweep;
mod rss;
mod service_mixed;
mod spans;
mod stream_profile;

use metrics::{Metrics, Tally};
use placesim_obs::json::{self, JsonValue, JsonWriter};
use spans::Span;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// What a run needs to know.
pub struct Ctx {
    /// Scratch directory for the run's inputs and outputs.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// What a set-up produced.
pub struct SetupOut {
    /// Median set-up time.
    pub setup_s: f64,
    /// Per-layer metrics observed during set-up.
    pub layers: Metrics,
    /// Values the run needs (digests, budgets).
    pub extras: Vec<(&'static str, String)>,
}

/// What a run produced.
pub struct RunOut {
    /// Output-check accounting.
    pub tally: Tally,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Free-form facts for the log.
    pub info: Vec<(&'static str, String)>,
}

/// Set-up values handed to the run.
pub struct Extras(BTreeMap<String, String>);

impl Extras {
    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("setup.json lacks {key}"))
    }
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (setup | run)")?;
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_owned();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = match flags.get("seconds") {
        Some(s) => s.parse().map_err(|_| "--seconds is not a number")?,
        None => 0.0,
    };
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        command,
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed is not an integer")?,
        seconds,
        trace,
        work: PathBuf::from(get("work")?),
        spans: flags.get("spans").map(PathBuf::from),
    })
}

fn setup(args: &Args) -> Result<String, String> {
    let out = match args.workload.as_str() {
        "paper-sweep" => paper_sweep::setup(&args.work, args.seed)?,
        "stream-profile" => stream_profile::setup(&args.work, args.seed)?,
        _ => service_mixed::setup(&args.work, args.seed)?,
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_f64("setup_s", out.setup_s);
    w.key("layers");
    out.layers.write_json(&mut w);
    w.key("extras");
    w.begin_object();
    for (k, v) in &out.extras {
        w.field_str(k, v);
    }
    w.end_object();
    w.end_object();
    let line = w.finish();
    std::fs::write(args.work.join("setup.json"), &line).map_err(|e| e.to_string())?;
    Ok(line)
}

fn read_extras(args: &Args) -> Result<Extras, String> {
    let text = std::fs::read_to_string(args.work.join("setup.json"))
        .map_err(|e| format!("run needs a set-up first: {e}"))?;
    let doc = json::parse(&text)?;
    let mut map = BTreeMap::new();
    for (k, v) in doc
        .get("extras")
        .and_then(JsonValue::as_object)
        .unwrap_or(&[])
    {
        map.insert(k.clone(), v.as_str().unwrap_or_default().to_owned());
    }
    Ok(Extras(map))
}

fn run(args: &Args) -> Result<String, String> {
    let extras = read_extras(args)?;
    let ctx = Ctx {
        work: args.work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let out = match args.workload.as_str() {
        "paper-sweep" => paper_sweep::run(&ctx, &extras)?,
        "stream-profile" => stream_profile::run(&ctx, &extras)?,
        _ => service_mixed::run(&ctx)?,
    };
    if let Some(path) = &args.spans {
        std::fs::write(path, spans::to_jsonl(&out.spans)).map_err(|e| e.to_string())?;
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("attempted", out.tally.attempted);
    w.field_u64("failed", out.tally.failed);
    w.field_f64("failed_frac", out.tally.failed_frac());
    w.key("failures");
    w.begin_array();
    for m in &out.tally.messages {
        w.value_str(m);
    }
    w.end_array();
    w.key("metrics");
    out.metrics.write_json(&mut w);
    w.key("info");
    w.begin_object();
    for (k, v) in &out.info {
        w.field_str(k, v);
    }
    w.end_object();
    w.end_object();
    Ok(w.finish())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "setup" => setup(&args),
        "run" => run(&args),
        "pin" if args.workload == "paper-sweep" => paper_sweep::pin(&args.work, args.seed),
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("placebench: {e}");
            ExitCode::FAILURE
        }
    }
}
