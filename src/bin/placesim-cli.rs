//! `placesim-cli`: command-line trace tooling for the reproduction.
//!
//! Commands and flags are listed once, in the `USAGE` constant, which
//! `main` prints.
//!
//! Traces use the `placesim-trace` binary format, so generated traces
//! can be archived and re-analyzed like MPtrace outputs were.

use placesim::journal::JournalError;
use placesim::manifest::{ManifestEntry, RunManifest};
use placesim::report::{Report, ReportHole};
use placesim::supervisor::SupervisorConfig;
use placesim::{Error, PreparedApp};
use placesim_analysis::{CharacteristicsRow, SharingAnalysis, SpillBudget};
use placesim_machine::{
    probe_coherence, simulate_probed, ArchConfig, AttrCollector, AttributionConfig, EngineObs,
    EngineObsReport, EventTrace, Protocol,
};
use placesim_obs::{out, outln, sink, FaultCounters, SpanTimer};
use placesim_placement::{thread_lengths, PlacementAlgorithm, PlacementInputs};
use placesim_trace::{compress, stream, ProgramTrace};
use placesim_workloads::{generate, generate_streamed, suite, GenOptions};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// A CLI failure carrying its process exit code. The taxonomy (documented
/// in the README):
///
/// * 1 — a runtime failure (I/O, simulation) after arguments parsed fine
/// * 2 — a usage error; the usage text is printed
/// * 3 — a sweep finished but with holes (partial results were written)
/// * 4 — a corrupt journal, or a resume against a different sweep's journal
/// * 5 — the service directory is locked by another live daemon
#[derive(Debug)]
enum CliError {
    /// Bad arguments or an unusable command line (exit 2).
    Usage(String),
    /// The command ran and failed (exit 1).
    Runtime(String),
    /// A supervised sweep completed with annotated holes (exit 3).
    PartialSweep(String),
    /// The checkpoint journal is corrupt or mismatched (exit 4).
    CorruptJournal(String),
    /// `serve` found a live daemon already holding the directory (exit 5).
    ServiceLocked(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Runtime(_) => 1,
            CliError::Usage(_) => 2,
            CliError::PartialSweep(_) => 3,
            CliError::CorruptJournal(_) => 4,
            CliError::ServiceLocked(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Runtime(m)
            | CliError::PartialSweep(m)
            | CliError::CorruptJournal(m)
            | CliError::ServiceLocked(m) => m,
        }
    }
}

// Legacy command paths still produce bare `String` errors; they keep
// their historical exit code 2 (and the usage print) via this mapping.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            if matches!(e, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.code())
        }
    }
}

const USAGE: &str = "\
usage:
  placesim-cli suite
  placesim-cli gen <app> <out.trace> [--scale S] [--seed N]
               [--format v2|v4]
  placesim-cli info <trace>
  placesim-cli analyze <trace> [--metrics out.json]
  placesim-cli place <trace> <algorithm> <processors> [--metrics out.json]
  placesim-cli simulate <trace> <algorithm> <processors>
               [--protocol wi|mesi|dragon] [--cache-kb K] [--assoc W]
               [--latency L] [--switch C]
               [--metrics out.json] [--timeline out.json]
               [--attribution out.json]
  placesim-cli attribute <report.json> [--top N] [--pairs N]
  placesim-cli probe <trace> [--metrics out.json]
  placesim-cli report <manifest-or-dir...> [--protocol wi|mesi|dragon]
               [--baseline file-or-dir] [--threshold PCT] [--json out.json]
  placesim-cli sweep <app> --journal <file> [--resume]
               [--protocol wi|mesi|dragon] [--scale S] [--seed N]
               [--algos A,B,...] [--procs 2,4,...]
               [--max-attempts N] [--timeout-ms T]
               [--report out.json] [--attribution out.json]
               [--telemetry live.json]
  placesim-cli serve --dir <dir> [--socket path] [--workers N]
               [--queue N] [--timeout-ms T] [--max-attempts N] [--cache N]
  placesim-cli client <status|shutdown|submit|result|wait> --socket <path>
               [submit: --op analyze|place|simulate|sweep --app A
                [--scale S] [--seed N] [--protocol wi|mesi|dragon]
                [--algos A,B,...] [--procs 2,4,...]]
               [result/wait: --id N [--timeout-ms T] [--raw]]
exit codes: 0 ok; 1 runtime failure; 2 usage error;
            3 sweep finished with holes; 4 corrupt/mismatched journal;
            5 service directory locked by a live daemon";

/// Ring capacity for `simulate --timeline`: 1M events ≈ 48 MB, enough
/// to retain every event of a scale-0.002 run and the tail of larger
/// ones (the export reports how many were dropped).
const TIMELINE_CAPACITY: usize = 1 << 20;

/// Hot-address rows carried in an attribution report file. The
/// `attribute` renderer trims further (`--top`); the file keeps enough
/// to make re-rendering at different depths cheap.
const ATTRIBUTION_TOP: usize = 1024;

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("suite") => Ok(cmd_suite()?),
        Some("gen") => Ok(cmd_gen(&args[1..])?),
        Some("info") => Ok(cmd_info(&args[1..])?),
        Some("analyze") => Ok(cmd_analyze(&args[1..])?),
        Some("place") => Ok(cmd_place(&args[1..])?),
        Some("simulate") => Ok(cmd_simulate(&args[1..])?),
        Some("attribute") => cmd_attribute(&args[1..]),
        Some("probe") => Ok(cmd_probe(&args[1..])?),
        Some("report") => Ok(cmd_report(&args[1..])?),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some(other) => Err(CliError::Usage(format!("unknown command {other}"))),
        None => Err(CliError::Usage("missing command".into())),
    }
}

/// Returns the raw value of a `--key value` flag, if present.
fn raw_flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{name} needs a value"));
        }
    }
    Ok(None)
}

/// Parses a floating-point `--key value` flag (only `--scale` is
/// genuinely fractional; every other numeric flag is an integer).
fn flag(args: &[String], name: &str) -> Result<Option<f64>, String> {
    raw_flag(args, name)?
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("{name} value must be a finite number, got {v}"))
        })
        .transpose()
}

/// Parses an unsigned-integer `--key value` flag. Unlike the historical
/// parse-as-f64-then-cast path, this rejects negative, fractional and
/// out-of-range values instead of silently saturating them.
fn uint_flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    raw_flag(args, name)?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} value must be a non-negative integer, got {v}"))
        })
        .transpose()
}

/// Parses the `--protocol` flag into a coherence protocol. Junk values
/// are usage errors (exit 2) carrying the valid names, like the other
/// strict flag parsers.
fn protocol_flag(args: &[String]) -> Result<Option<Protocol>, String> {
    raw_flag(args, "--protocol")?
        .map(|v| v.parse::<Protocol>().map_err(|e| e.to_string()))
        .transpose()
}

fn parse_algorithm(name: &str) -> Result<PlacementAlgorithm, String> {
    PlacementAlgorithm::from_paper_name(name).ok_or_else(|| {
        let names: Vec<&str> = PlacementAlgorithm::ALL
            .iter()
            .map(|a| a.paper_name())
            .collect();
        format!(
            "unknown algorithm {name}; choose one of {}",
            names.join(", ")
        )
    })
}

fn load_trace(path: &str) -> Result<ProgramTrace, String> {
    let mut file =
        BufReader::new(File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?);
    let mut raw = Vec::new();
    std::io::Read::read_to_end(&mut file, &mut raw)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    // Accepts the compressed v2 and streaming v4 formats.
    compress::read_any(&raw).map_err(|e| format!("cannot decode {path}: {e}"))
}

/// Reads the trace file's version field without loading the body, so
/// commands can route v4 files through the streaming readers. Returns
/// `None` when the file is not a placesim trace (the full decoder then
/// produces the proper error).
fn trace_version(path: &str) -> Result<Option<u32>, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut head = [0u8; 8];
    match std::io::Read::read_exact(&mut file, &mut head) {
        Ok(()) if head[..4] == compress::MAGIC => Ok(Some(u32::from_le_bytes(
            head[4..].try_into().expect("4 bytes"),
        ))),
        Ok(()) => Ok(None),
        Err(_) => Ok(None),
    }
}

/// Opens a v4 trace for streaming access.
fn open_streamed(path: &str) -> Result<stream::FileReader, String> {
    stream::FileReader::open(path).map_err(|e| format!("cannot open {path} for streaming: {e}"))
}

fn cmd_suite() -> Result<(), String> {
    outln!(
        "{:<14} {:<8} {:>8} {:>16} {:>14}",
        "app",
        "grain",
        "threads",
        "mean length",
        "shared refs %"
    );
    for s in suite() {
        outln!(
            "{:<14} {:<8} {:>8} {:>16} {:>13.1}%",
            s.name,
            format!("{:?}", s.granularity),
            s.threads,
            s.thread_length.mean as u64,
            s.shared_percent
        );
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let app = args.first().ok_or("gen needs an app name")?;
    let out = args.get(1).ok_or("gen needs an output path")?;
    let spec = placesim_workloads::spec(app).ok_or_else(|| format!("unknown app {app}"))?;
    let opts = GenOptions {
        // --scale wins; otherwise PLACESIM_SCALE, like the bench harness.
        scale: flag(args, "--scale")?.unwrap_or_else(|| placesim::scale_from_env(0.1)),
        seed: uint_flag(args, "--seed")?.unwrap_or(1994),
    };
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !["--scale", "--seed", "--format"].contains(&a.as_str()))
    {
        return Err(format!(
            "gen does not take {bad}; its flags are --scale, --seed and --format v2|v4"
        ));
    }
    let streamed = match raw_flag(args, "--format")? {
        None | Some("v2") => false,
        Some("v4") => true,
        Some(other) => return Err(format!("--format must be v2 or v4, got {other}")),
    };

    // Stream into a temporary sibling and rename into place only once
    // the write succeeded, so a full disk or crash never leaves a
    // truncated `.trace` masquerading as a valid one.
    let out_path = Path::new(out);
    let tmp = sink::tmp_sibling(out_path);
    let written = File::create(&tmp)
        .map_err(|e| format!("cannot create {}: {e}", tmp.display()))
        .and_then(|file| {
            // v4 streams thread-at-a-time and never materializes the
            // program; v2 builds it in memory.
            let result = if streamed {
                generate_streamed(&spec, &opts, BufWriter::new(file))
                    .map(|summary: stream::StreamSummary| (spec.threads, summary.total_refs))
            } else {
                let prog = generate(&spec, &opts);
                let counts = (prog.thread_count(), prog.total_refs());
                compress::write_program(&prog, BufWriter::new(file)).map(|()| counts)
            };
            result.map_err(|e| format!("cannot write {out}: {e}"))
        })
        .and_then(|counts| {
            std::fs::rename(&tmp, out_path)
                .map(|()| counts)
                .map_err(|e| format!("cannot finalize {out}: {e}"))
        });
    let (threads, total_refs) = match written {
        Ok(counts) => counts,
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            return Err(e);
        }
    };
    outln!(
        "wrote {out}: {threads} threads, {total_refs} references (scale {}, seed {}, {} format)",
        opts.scale,
        opts.seed,
        if streamed {
            "streaming v4"
        } else {
            "compressed v2"
        }
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("info needs a trace path")?;
    if trace_version(path)? == Some(stream::VERSION) {
        // v4 answers everything from the footer index: no decode, no
        // memory proportional to the trace.
        let reader = open_streamed(path)?;
        let per_thread: Vec<stream::KindTotals> = (0..reader.thread_count())
            .map(|t| reader.totals(placesim_trace::ThreadId::from_index(t)))
            .collect();
        outln!("program:      {}", reader.name());
        outln!("threads:      {}", reader.thread_count());
        outln!("references:   {}", reader.total_refs());
        outln!(
            "instructions: {}",
            per_thread.iter().map(|k| k.instr).sum::<u64>()
        );
        outln!(
            "data refs:    {}",
            per_thread.iter().map(|k| k.reads + k.writes).sum::<u64>()
        );
        outln!(
            "chunks:       {} ({} checksummed payload bytes)",
            reader.total_chunks(),
            reader.total_payload_bytes()
        );
        outln!(
            "footer:       {} index bytes at offset {}",
            reader.footer_bytes(),
            reader.footer_start()
        );
        for (t, k) in per_thread.iter().enumerate() {
            let tid = placesim_trace::ThreadId::from_index(t);
            outln!(
                "  T{t}: {} instrs, {} reads, {} writes, {} chunks ({} bytes)",
                k.instr,
                k.reads,
                k.writes,
                reader.chunk_count(tid),
                reader.payload_bytes(tid)
            );
        }
        return Ok(());
    }
    let prog = load_trace(path)?;
    outln!("program:      {}", prog.name());
    outln!("threads:      {}", prog.thread_count());
    outln!("references:   {}", prog.total_refs());
    outln!("instructions: {}", prog.total_instrs());
    outln!("data refs:    {}", prog.total_data_refs());
    for (id, t) in prog.iter() {
        outln!(
            "  {id}: {} instrs, {} reads, {} writes",
            t.instr_len(),
            t.read_len(),
            t.write_len()
        );
    }
    Ok(())
}

/// Profiles the trace at `path` for `analyze` and `place`: its name,
/// total references, per-thread instruction counts and sharing analysis.
/// v4 traces are profiled out of core: the sharded scan reads chunk
/// iterators and spills past the `PLACESIM_SPILL_ADDRS` budget, and the
/// rest comes from the footer, so the trace never has to fit in memory.
/// Results are bit-identical to the in-memory path.
fn profile_trace(path: &str) -> Result<(String, u64, Vec<u64>, SharingAnalysis), String> {
    if trace_version(path)? == Some(stream::VERSION) {
        let reader = open_streamed(path)?;
        let sharing = SharingAnalysis::measure_streamed(&reader, &SpillBudget::from_env())
            .map_err(|e| format!("cannot analyze {path}: {e}"))?;
        let name = reader.name().to_owned();
        Ok((name, reader.total_refs(), reader.instr_lengths(), sharing))
    } else {
        let prog = load_trace(path)?;
        let sharing = SharingAnalysis::measure(&prog);
        let name = prog.name().to_owned();
        Ok((name, prog.total_refs(), thread_lengths(&prog), sharing))
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("analyze needs a trace path")?;
    let timer = SpanTimer::start("analyze");
    let (name, _, lengths, sharing) = profile_trace(path)?;
    let row = CharacteristicsRow::from_sharing_parts(&name, lengths, &sharing, 1994);

    if let Some(metrics) = raw_flag(args, "--metrics")? {
        // Analysis runs no simulation: the manifest records the tool,
        // app and wall time with an empty results array, so sweeps can
        // account the front-end cost alongside the simulated entries.
        let mut manifest = RunManifest::new("analyze", &row.app, &ArchConfig::paper_default());
        manifest.wall_secs = timer.elapsed_secs();
        manifest.write(Path::new(metrics))?;
        outln!("metrics: {metrics}");
    }

    outln!("app: {}", row.app);
    outln!(
        "pairwise sharing:      mean {:.0}  dev {:.1}%",
        row.pairwise_sharing.mean,
        row.pairwise_sharing.dev_percent()
    );
    outln!(
        "n-way sharing:         mean {:.0}  dev {:.1}%",
        row.nway_sharing.mean,
        row.nway_sharing.dev_percent()
    );
    outln!(
        "refs per shared addr:  mean {:.1}  dev {:.1}%",
        row.refs_per_shared_addr.mean,
        row.refs_per_shared_addr.dev_percent()
    );
    outln!(
        "shared refs:           {:.1}%",
        row.shared_refs_percent.mean
    );
    outln!(
        "thread length:         mean {:.0}  dev {:.1}%",
        row.thread_length.mean,
        row.thread_length.dev_percent()
    );
    outln!(
        "shared addresses:      {} of {}",
        sharing.shared_address_count(),
        sharing.total_address_count()
    );
    Ok(())
}

fn cmd_place(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("place needs a trace path")?;
    let algo = parse_algorithm(args.get(1).ok_or("place needs an algorithm")?)?;
    let processors: usize = args
        .get(2)
        .ok_or("place needs a processor count")?
        .parse()
        .map_err(|_| "processor count must be an integer".to_string())?;
    let timer = SpanTimer::start("place");
    let (name, total_refs, lengths, sharing) = profile_trace(path)?;
    let inputs = PlacementInputs::new(&sharing, &lengths);
    let map = algo.place(&inputs, processors).map_err(|e| e.to_string())?;

    if let Some(metrics) = raw_flag(args, "--metrics")? {
        // Placement runs no simulation either: the entry records which
        // algorithm placed how many references onto how many
        // processors; the cycle fields stay zero.
        let mut manifest = RunManifest::new("place", &name, &ArchConfig::paper_default());
        manifest.wall_secs = timer.elapsed_secs();
        manifest.entries = vec![ManifestEntry {
            algorithm: algo.paper_name().to_owned(),
            processors,
            execution_time: 0,
            total_refs,
            total_misses: 0,
            miss_rate: 0.0,
            coherence_traffic: 0,
            update_traffic: 0,
            misses: placesim_machine::MissBreakdown::default(),
        }];
        manifest.write(Path::new(metrics))?;
        outln!("metrics: {metrics}");
    }

    outln!("{} onto {processors} processors:", algo.paper_name());
    out!("{map}");
    outln!("loads: {:?}", map.loads(&lengths));
    outln!("load imbalance: {:.3}", map.load_imbalance(&lengths));
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    // Validate pure arguments before touching the filesystem.
    let protocol = protocol_flag(args)?;
    let prog = load_trace(args.first().ok_or("simulate needs a trace path")?)?;
    let algo = parse_algorithm(args.get(1).ok_or("simulate needs an algorithm")?)?;
    let processors: usize = args
        .get(2)
        .ok_or("simulate needs a processor count")?
        .parse()
        .map_err(|_| "processor count must be an integer".to_string())?;

    let mut builder = ArchConfig::builder();
    if let Some(kb) = uint_flag(args, "--cache-kb")? {
        builder.cache_size(
            kb.checked_mul(1024)
                .ok_or("--cache-kb value overflows bytes")?,
        );
    }
    if let Some(w) = uint_flag(args, "--assoc")? {
        builder
            .associativity(u32::try_from(w).map_err(|_| format!("--assoc value {w} exceeds u32"))?);
    }
    if let Some(l) = uint_flag(args, "--latency")? {
        builder.memory_latency(l);
    }
    if let Some(c) = uint_flag(args, "--switch")? {
        builder.context_switch(c);
    }
    if let Some(p) = protocol {
        builder.protocol(p);
    }
    let config = builder.build().map_err(|e| e.to_string())?;

    let timer = SpanTimer::start("simulate");
    let sharing = SharingAnalysis::measure(&prog);
    let lengths = thread_lengths(&prog);
    let inputs = PlacementInputs::new(&sharing, &lengths);
    let map = algo.place(&inputs, processors).map_err(|e| e.to_string())?;

    // One pass records everything asked for; with no output flag the
    // recorder is idle and the run takes the uninstrumented path.
    let timeline_path = raw_flag(args, "--timeline")?;
    let attribution_path = raw_flag(args, "--attribution")?;
    let metrics_path = raw_flag(args, "--metrics")?;
    let mut obs = EngineObs {
        counters: metrics_path.map(|_| EngineObsReport::default()),
        timeline: timeline_path.map(|_| EventTrace::new(TIMELINE_CAPACITY)),
        attribution: attribution_path.map(|_| AttrCollector::new(AttributionConfig::default())),
        ..EngineObs::default()
    };
    let stats = simulate_probed(&prog, &map, &config, &mut obs).map_err(|e| e.to_string())?;

    if let (Some(path), Some(trace)) = (timeline_path, &obs.timeline) {
        sink::write_atomic(Path::new(path), trace.to_chrome_json().as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!(
            "timeline:       {path} ({} events retained, {} dropped)",
            trace.len(),
            trace.dropped()
        );
        let runs = trace.sharing_runs();
        let longest = runs.iter().map(placesim_machine::SharingRun::cycles).max();
        outln!(
            "  sequential-sharing runs: {}{}",
            runs.len(),
            longest.map_or_else(String::new, |c| format!(" (longest {c} cycles)"))
        );
    }

    if let (Some(path), Some(attr)) = (attribution_path, &obs.attribution) {
        let body = attr.report_json(
            &config.protocol().to_string(),
            prog.thread_count(),
            ATTRIBUTION_TOP,
        );
        placesim_obs::attribution::validate(&body)
            .map_err(|e| format!("internal: attribution report invalid: {e}"))?;
        sink::write_atomic(Path::new(path), body.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!(
            "attribution:    {path} ({} events over {} addresses, {} mode)",
            attr.total_events(),
            attr.tracked_addresses(),
            if attr.is_sketch() { "sketch" } else { "exact" }
        );
    }

    if let Some(metrics) = metrics_path {
        let mut manifest = RunManifest::new("simulate", prog.name(), &config);
        manifest.wall_secs = timer.elapsed_secs();
        manifest.entries = vec![ManifestEntry::from_stats(
            algo.paper_name(),
            processors,
            &stats,
        )];
        manifest.obs = obs.counters;
        manifest.write(Path::new(metrics))?;
        outln!("metrics:        {metrics}");
    }

    let m = stats.total_misses();
    outln!("execution time: {} cycles", stats.execution_time());
    outln!("references:     {}", stats.total_refs());
    outln!("miss rate:      {:.3}%", 100.0 * stats.miss_rate());
    outln!("misses:");
    outln!("  compulsory            {}", m.compulsory);
    outln!("  intra-thread conflict {}", m.intra_thread_conflict);
    outln!("  inter-thread conflict {}", m.inter_thread_conflict);
    outln!("  invalidation          {}", m.invalidation);
    outln!("coherence traffic: {}", stats.coherence_traffic());
    outln!("update traffic:    {}", stats.total_updates());
    Ok(())
}

/// Renders a `placesim-attribution-v1` report as paper-style tables:
/// the hottest shared lines (with their sharing-run shape) and the
/// hottest writer/victim thread pairs.
fn cmd_attribute(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("attribute needs a report path".into()))?;
    let top_n = uint_flag(args, "--top")?.unwrap_or(10) as usize;
    let pairs_n = uint_flag(args, "--pairs")?.unwrap_or(10) as usize;
    let body = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    // The strict parser rejects malformed documents before anything is
    // rendered, so a truncated or tampered report is a clean exit 1.
    let doc = placesim_obs::attribution::parse(&body)
        .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;

    if !doc.enabled {
        outln!(
            "attribution was disabled in the producing build; re-run \
             `simulate --attribution` to record it"
        );
        return Ok(());
    }
    outln!(
        "coherence attribution: protocol {}, {} threads, {} mode ({} addresses tracked)",
        doc.protocol,
        doc.threads,
        doc.mode,
        doc.tracked_addresses
    );
    if doc.mode == "sketch" {
        outln!(
            "  sketch counts may undercount by up to {} events per address",
            doc.error_bound
        );
    }
    outln!(
        "totals: {} invalidations, {} updates, {} coherence misses ({} unattributed)",
        doc.invalidations,
        doc.updates,
        doc.coherence_misses,
        doc.unattributed
    );
    outln!("hot shared lines:");
    outln!(
        "  {:<14} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9} {:>8}",
        "line",
        "events",
        "inval",
        "update",
        "miss",
        "runs",
        "mean-run",
        "max-run"
    );
    for a in doc.top.iter().take(top_n) {
        outln!(
            "  {:<#14x} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9.1} {:>8}",
            a.line,
            a.events,
            a.invalidations,
            a.updates,
            a.coherence_misses,
            a.run_count,
            a.run_mean,
            a.run_max
        );
    }
    if doc.top.is_empty() {
        outln!("  (no attributed events)");
    }
    outln!("hottest thread pairs:");
    for (a, b, c) in doc.pairs.iter().take(pairs_n) {
        outln!("  T{a} <-> T{b}: {c}");
    }
    if doc.pairs.is_empty() {
        outln!("  (none)");
    }
    Ok(())
}

fn cmd_probe(args: &[String]) -> Result<(), String> {
    let prog = load_trace(args.first().ok_or("probe needs a trace path")?)?;
    let config = ArchConfig::paper_default();
    let timer = SpanTimer::start("probe");
    let result = probe_coherence(&prog, &config).map_err(|e| e.to_string())?;

    if let Some(metrics) = raw_flag(args, "--metrics")? {
        let mut manifest = RunManifest::new("probe", prog.name(), &config);
        manifest.wall_secs = timer.elapsed_secs();
        // The probe places one thread per processor by construction.
        manifest.entries = vec![ManifestEntry::from_stats(
            "ONE-PER-PROC",
            prog.thread_count(),
            &result.stats,
        )];
        manifest.write(Path::new(metrics))?;
        outln!("metrics: {metrics}");
    }

    outln!("one-thread-per-processor coherence probe:");
    outln!("  compulsory misses: {}", result.compulsory_misses());
    outln!("  coherence traffic: {}", result.total_traffic());
    outln!(
        "  traffic fraction:  {:.4}% of references",
        100.0 * result.traffic_fraction()
    );
    // Top-5 hottest thread pairs.
    let mut pairs: Vec<(usize, usize, u64)> = result.traffic.iter_pairs().collect();
    pairs.sort_by_key(|&(_, _, v)| std::cmp::Reverse(v));
    outln!("  hottest thread pairs:");
    for (a, b, v) in pairs.into_iter().take(5) {
        outln!("    T{a} <-> T{b}: {v}");
    }
    Ok(())
}

/// Expands each operand into manifest files: a directory contributes
/// its `*.json` entries in sorted order (unreadable or invalid ones are
/// skipped with a warning, so a results directory may hold reports or
/// baselines alongside the manifests), while an explicitly named file
/// must parse.
fn collect_manifests(operands: &[&str]) -> Result<Vec<RunManifest>, String> {
    let mut manifests = Vec::new();
    for op in operands {
        let path = Path::new(op);
        if path.is_dir() {
            let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read directory {op}: {e}"))?
                .filter_map(Result::ok)
                .map(|entry| entry.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect();
            files.sort();
            for file in files {
                match std::fs::read_to_string(&file)
                    .map_err(|e| e.to_string())
                    .and_then(|body| RunManifest::parse(&body))
                {
                    Ok(m) => manifests.push(m),
                    Err(e) => eprintln!("skipping {}: {e}", file.display()),
                }
            }
        } else {
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {op}: {e}"))?;
            manifests.push(RunManifest::parse(&body).map_err(|e| format!("{op}: {e}"))?);
        }
    }
    Ok(manifests)
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    // Split positional manifest paths from `--flag value` pairs.
    const VALUE_FLAGS: [&str; 4] = ["--baseline", "--threshold", "--json", "--protocol"];
    let mut operands: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2; // flag + value, validated by the flag helpers below
        } else if a.starts_with("--") {
            return Err(format!("unknown report flag {a}"));
        } else {
            operands.push(a);
            i += 1;
        }
    }
    if operands.is_empty() {
        return Err("report needs at least one manifest file or directory".into());
    }

    let protocol = protocol_flag(args)?;
    let mut manifests = collect_manifests(&operands)?;
    if let Some(p) = protocol {
        // Restrict the report (but not the baseline) to one protocol's
        // manifests; the grouping key still carries the protocol, so
        // mixed inputs without the filter stay correct too.
        manifests.retain(|m| m.config.protocol() == p);
        if manifests.is_empty() {
            return Err(format!("no valid manifests for protocol {p}"));
        }
    }
    if manifests.is_empty() {
        return Err("no valid manifests found".into());
    }
    let report = Report::from_manifests(&manifests);
    out!("{}", report.render_text());

    if let Some(out) = raw_flag(args, "--json")? {
        sink::write_atomic(Path::new(out), report.to_json().as_bytes())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        outln!("report json: {out}");
    }

    if let Some(base) = raw_flag(args, "--baseline")? {
        let threshold = flag(args, "--threshold")?.unwrap_or(2.0);
        let base_manifests = collect_manifests(&[base])?;
        if base_manifests.is_empty() {
            return Err(format!("baseline {base} holds no valid manifests"));
        }
        let baseline = Report::from_manifests(&base_manifests);
        let regressions = report.compare(&baseline, threshold);
        if regressions.is_empty() {
            outln!("baseline check: no regressions beyond {threshold:.1}%");
        } else {
            for r in &regressions {
                eprintln!(
                    "regression: {} {} p={} {}: {} -> {} (+{:.2}%)",
                    r.app, r.algorithm, r.processors, r.metric, r.baseline, r.current, r.delta_pct
                );
            }
            return Err(format!(
                "{} regression(s) beyond {threshold:.1}% vs baseline",
                regressions.len()
            ));
        }
    }
    Ok(())
}

/// Parses a comma-separated `--procs` list into processor counts.
fn parse_procs(list: &str) -> Result<Vec<usize>, String> {
    let procs: Vec<usize> = list
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("--procs entries must be positive integers, got {p:?}"))
        })
        .collect::<Result<_, _>>()?;
    if procs.is_empty() {
        return Err("--procs list is empty".into());
    }
    Ok(procs)
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let app_name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("sweep needs an app name".into()))?;
    let spec = placesim_workloads::spec(app_name)
        .ok_or_else(|| CliError::Usage(format!("unknown app {app_name}")))?;
    let journal = raw_flag(args, "--journal")?
        .ok_or_else(|| CliError::Usage("sweep needs --journal <file>".into()))?
        .to_owned();
    let resume = args.iter().any(|a| a == "--resume");

    let opts = GenOptions {
        scale: flag(args, "--scale")?.unwrap_or_else(|| placesim::scale_from_env(0.1)),
        seed: uint_flag(args, "--seed")?.unwrap_or(1994),
    };
    let algorithms: Vec<PlacementAlgorithm> = match raw_flag(args, "--algos")? {
        Some(list) => list
            .split(',')
            .map(|name| parse_algorithm(name.trim()))
            .collect::<Result<_, _>>()?,
        None => PlacementAlgorithm::STATIC.to_vec(),
    };
    let processors = match raw_flag(args, "--procs")? {
        Some(list) => parse_procs(list)?,
        None => vec![2, 4, 8, 16],
    };

    let mut sup = SupervisorConfig::new();
    let (max_attempts, timeout) = retry_flags(args)?;
    if let Some(n) = max_attempts {
        sup.max_attempts = n;
    }
    if timeout.is_some() {
        sup.watchdog = timeout;
    }
    let attribution_out = raw_flag(args, "--attribution")?.map(str::to_owned);
    if attribution_out.is_some() {
        sup = sup.with_attribution(AttributionConfig::default());
    }
    if let Some(t) = raw_flag(args, "--telemetry")? {
        sup = sup.with_telemetry(std::path::PathBuf::from(t));
    }

    let protocol = protocol_flag(args)?;

    let mut app = PreparedApp::prepare(&spec, &opts);
    if let Some(p) = protocol {
        // The journal header pins the whole ArchConfig, protocol
        // included, so `--resume` under a different protocol is a
        // mismatch (exit 4) rather than a silently mixed sweep.
        app.config = app.config.with_protocol(p);
    }
    if algorithms.contains(&PlacementAlgorithm::CoherenceTraffic) {
        app.run_probe()
            .map_err(|e| CliError::Runtime(format!("coherence probe failed: {e}")))?;
    }
    let app = Arc::new(app);

    let sweep = placesim::run_supervised_sweep(
        &app,
        &algorithms,
        &processors,
        Path::new(&journal),
        resume,
        &sup,
    )
    .map_err(|e| match e {
        // A journal the supervisor cannot trust or even read gets its
        // own exit code so orchestration can tell "fix the journal"
        // from "re-run the sweep".
        Error::Journal(JournalError::Corrupt(_)) | Error::Journal(JournalError::Mismatch(_)) => {
            CliError::CorruptJournal(e.to_string())
        }
        other => CliError::Runtime(other.to_string()),
    })?;

    for d in &sweep.dropped {
        eprintln!("journal recovery dropped {d}");
    }
    if sweep.resumed > 0 {
        outln!(
            "resumed: {} of {} cells recovered from {journal}",
            sweep.resumed,
            sweep.header.cell_count()
        );
    }

    let manifest = sweep.manifest();
    let mut report = Report::from_manifests([&manifest]);
    report.holes = sweep
        .holes
        .iter()
        .map(|h| ReportHole {
            app: sweep.header.app.clone(),
            algorithm: h.algorithm.clone(),
            processors: h.processors,
            attempts: u64::from(h.attempts),
            reason: h.reason.clone(),
        })
        .collect();
    out!("{}", report.render_text());
    print_faults(&sweep.faults);
    if let Some(out) = raw_flag(args, "--report")? {
        sink::write_atomic(Path::new(out), report.to_json().as_bytes())
            .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
        outln!("report json: {out}");
    }
    if let (Some(out), Some(attr)) = (&attribution_out, &sweep.attribution) {
        // The sweep-level collector merges every committed cell of this
        // run (resumed cells were attributed by the run that committed
        // them). Written even on a partial sweep, like --report.
        let body = attr.report_json(
            &app.config.protocol().to_string(),
            app.prog.thread_count(),
            ATTRIBUTION_TOP,
        );
        placesim_obs::attribution::validate(&body)
            .map_err(|e| CliError::Runtime(format!("internal: attribution report invalid: {e}")))?;
        sink::write_atomic(Path::new(out), body.as_bytes())
            .map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
        outln!("attribution json: {out}");
    }
    outln!("journal: {journal}");

    if sweep.is_complete() {
        Ok(())
    } else {
        // Outputs above were still written: healthy cells survive; the
        // exit code flags the holes for orchestration.
        Err(CliError::PartialSweep(format!(
            "sweep finished with {} hole(s) out of {} cells",
            sweep.holes.len(),
            sweep.header.cell_count()
        )))
    }
}

/// The retry flags `sweep` and `serve` share: `--max-attempts N` and
/// `--timeout-ms T` (the per-attempt watchdog).
fn retry_flags(args: &[String]) -> Result<(Option<u32>, Option<Duration>), CliError> {
    let max_attempts = match uint_flag(args, "--max-attempts")? {
        Some(n) => {
            Some(u32::try_from(n).map_err(|_| format!("--max-attempts value {n} exceeds u32"))?)
        }
        None => None,
    };
    let timeout = uint_flag(args, "--timeout-ms")?.map(Duration::from_millis);
    Ok((max_attempts, timeout))
}

/// Prints the one-line fault summary of a sweep or a drained daemon,
/// when anything was absorbed.
fn print_faults(f: &FaultCounters) {
    if f.total() > 0 {
        outln!(
            "faults absorbed: {} panics, {} timeouts ({} threads abandoned), {} errors, \
             {} journal I/O errors, {} retries",
            f.panics,
            f.timeouts,
            f.abandoned,
            f.errors,
            f.io_errors,
            f.retries
        );
    }
}

/// SIGTERM/SIGINT flag for `serve`: the handler only raises an atomic,
/// the accept loop notices and begins a graceful drain.
#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the handler for SIGTERM (15) and SIGINT (2).
    pub fn install() {
        // SAFETY: the handler is async-signal-safe (one atomic store),
        // and `signal` is only given a valid function pointer.
        unsafe {
            signal(15, on_term as *const () as usize);
            signal(2, on_term as *const () as usize);
        }
    }
}

#[cfg(unix)]
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use placesim::service::{self, PlacementService, ServiceConfig, ServiceError};

    let dir = raw_flag(args, "--dir")?
        .ok_or_else(|| CliError::Usage("serve needs --dir <dir>".into()))?
        .to_owned();
    let dir = std::path::PathBuf::from(dir);
    let mut cfg = ServiceConfig::new();
    if let Some(n) = uint_flag(args, "--workers")? {
        cfg.workers =
            usize::try_from(n).map_err(|_| format!("--workers value {n} exceeds usize"))?;
    }
    if let Some(n) = uint_flag(args, "--queue")? {
        if n == 0 {
            return Err(CliError::Usage("--queue must be at least 1".into()));
        }
        cfg.queue_capacity =
            usize::try_from(n).map_err(|_| format!("--queue value {n} exceeds usize"))?;
    }
    let (max_attempts, timeout) = retry_flags(args)?;
    if let Some(n) = max_attempts {
        cfg.max_attempts = n;
    }
    if timeout.is_some() {
        cfg.job_timeout = timeout;
    }
    if let Some(n) = uint_flag(args, "--cache")? {
        cfg.cache_capacity =
            usize::try_from(n).map_err(|_| format!("--cache value {n} exceeds usize"))?;
    }
    let socket = raw_flag(args, "--socket")?
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| dir.join("service.sock"));

    term::install();
    let (svc, recovery) = PlacementService::start(&dir, cfg).map_err(|e| match e {
        ServiceError::Locked { .. } => CliError::ServiceLocked(e.to_string()),
        other => CliError::Runtime(other.to_string()),
    })?;
    if !recovery.resumed.is_empty() || recovery.completed > 0 {
        outln!(
            "recovered from journal: {} finished, {} failed, {} resumed, {} line(s) dropped",
            recovery.completed,
            recovery.failed,
            recovery.resumed.len(),
            recovery.dropped
        );
    }
    outln!("serving on {}", socket.display());
    let served = service::serve_unix(&svc, &socket, &term::STOP);
    // Drain even when the socket loop failed: accepted jobs finish or
    // stay journaled either way.
    svc.drain_and_join();
    served.map_err(|e| CliError::Runtime(e.to_string()))?;
    print_faults(&svc.fault_counters());
    outln!("drained");
    Ok(())
}

#[cfg(not(unix))]
fn cmd_serve(_args: &[String]) -> Result<(), CliError> {
    Err(CliError::Runtime(
        "serve needs a Unix socket; this platform has none".into(),
    ))
}

#[cfg(unix)]
fn cmd_client(args: &[String]) -> Result<(), CliError> {
    use placesim_obs::json::{self, JsonValue, JsonWriter};
    use std::io::{BufRead, Write};
    use std::os::unix::net::UnixStream;

    let verb = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| {
            CliError::Usage("client needs a verb: status, shutdown, submit, result, wait".into())
        })?
        .as_str();
    let socket = raw_flag(args, "--socket")?
        .ok_or_else(|| CliError::Usage("client needs --socket <path>".into()))?
        .to_owned();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "placesim-service-v1");
    match verb {
        "status" | "shutdown" => {
            w.field_str("op", verb);
        }
        "result" | "wait" => {
            w.field_str("op", verb);
            let id = uint_flag(args, "--id")?
                .ok_or_else(|| CliError::Usage(format!("{verb} needs --id <job>")))?;
            w.field_u64("id", id);
            if verb == "wait" {
                w.field_u64(
                    "timeout_ms",
                    uint_flag(args, "--timeout-ms")?.unwrap_or(60_000),
                );
            }
        }
        "submit" => {
            w.field_str("op", "submit");
            let op = raw_flag(args, "--op")?.ok_or_else(|| {
                CliError::Usage("submit needs --op <analyze|place|simulate|sweep>".into())
            })?;
            let app = raw_flag(args, "--app")?
                .ok_or_else(|| CliError::Usage("submit needs --app <name>".into()))?;
            w.key("job");
            w.begin_object();
            w.field_str("op", op);
            w.field_str("app", app);
            w.field_f64(
                "scale",
                flag(args, "--scale")?.unwrap_or_else(|| placesim::scale_from_env(0.1)),
            );
            w.field_u64("seed", uint_flag(args, "--seed")?.unwrap_or(1994));
            if let Some(p) = raw_flag(args, "--protocol")? {
                w.field_str("protocol", p);
            }
            if let Some(list) = raw_flag(args, "--algos")? {
                w.key("algorithms");
                w.begin_array();
                for a in list.split(',') {
                    w.value_str(a.trim());
                }
                w.end_array();
            }
            if let Some(list) = raw_flag(args, "--procs")? {
                w.key("processors");
                w.begin_array();
                for p in parse_procs(list)? {
                    w.value_u64(p as u64);
                }
                w.end_array();
            }
            w.end_object();
        }
        other => {
            return Err(CliError::Usage(format!("unknown client verb {other}")));
        }
    }
    w.end_object();
    let request = w.finish();

    let mut stream = UnixStream::connect(&socket)
        .map_err(|e| CliError::Runtime(format!("cannot connect to {socket}: {e}")))?;
    stream.set_read_timeout(Some(Duration::from_secs(630))).ok();
    writeln!(stream, "{request}").map_err(|e| CliError::Runtime(format!("send failed: {e}")))?;
    let mut response = String::new();
    BufReader::new(&stream)
        .read_line(&mut response)
        .map_err(|e| CliError::Runtime(format!("receive failed: {e}")))?;
    let response = response.trim_end().to_owned();
    if response.is_empty() {
        return Err(CliError::Runtime("daemon closed the connection".into()));
    }

    let doc = json::parse(&response)
        .map_err(|e| CliError::Runtime(format!("unparseable response: {e}")))?;
    if args.iter().any(|a| a == "--raw") {
        // Print only the embedded result document (the canonical bytes
        // the byte-identity proof compares).
        let result = doc
            .get("result")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CliError::Runtime(format!("no result in response: {response}")))?;
        outln!("{result}");
    } else {
        outln!("{response}");
    }
    if doc.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(CliError::Runtime(format!(
            "daemon rejected the request: {}",
            doc.get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown error")
        )));
    }
    if let Some("failed") = doc.get("state").and_then(JsonValue::as_str) {
        return Err(CliError::Runtime(format!(
            "job failed: {}",
            doc.get("reason")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown reason")
        )));
    }
    Ok(())
}

#[cfg(not(unix))]
fn cmd_client(_args: &[String]) -> Result<(), CliError> {
    Err(CliError::Runtime(
        "client needs a Unix socket; this platform has none".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["gen", "fft", "--scale", "0.25", "--seed", "7"]);
        assert_eq!(flag(&args, "--scale").unwrap(), Some(0.25));
        assert_eq!(uint_flag(&args, "--seed").unwrap(), Some(7));
        assert_eq!(flag(&args, "--missing").unwrap(), None);
        assert_eq!(uint_flag(&args, "--missing").unwrap(), None);
        assert!(flag(&s(&["--scale"]), "--scale").is_err());
        assert!(flag(&s(&["--scale", "abc"]), "--scale").is_err());
        assert!(flag(&s(&["--scale", "inf"]), "--scale").is_err());
    }

    #[test]
    fn integer_flags_reject_non_integers() {
        // The historical parser accepted any f64 and `as`-cast it, so
        // `--seed -3` silently became 0 and `--latency 2.7` became 2.
        for bad in ["-3", "2.7", "abc", "1e3", "99999999999999999999999"] {
            let args = s(&["--seed", bad]);
            let err = uint_flag(&args, "--seed").unwrap_err();
            assert!(err.contains("non-negative integer"), "{bad}: {err}");
        }
        assert!(uint_flag(&s(&["--seed"]), "--seed").is_err());
        // Full-command paths reject too.
        assert!(run(&s(&["gen", "fft", "/tmp/x.trace", "--seed", "-1"])).is_err());
    }

    #[test]
    fn protocol_flag_parses_strictly() {
        assert_eq!(protocol_flag(&s(&[])).unwrap(), None);
        assert_eq!(
            protocol_flag(&s(&["--protocol", "wi"])).unwrap(),
            Some(Protocol::Wi)
        );
        assert_eq!(
            protocol_flag(&s(&["--protocol", "mesi"])).unwrap(),
            Some(Protocol::Mesi)
        );
        assert_eq!(
            protocol_flag(&s(&["--protocol", "dragon"])).unwrap(),
            Some(Protocol::Dragon)
        );
        for bad in ["moesi", "MESI", "wi ", "", "2"] {
            let err = protocol_flag(&s(&["--protocol", bad])).unwrap_err();
            assert!(err.contains("unknown protocol"), "{bad:?}: {err}");
        }
        assert!(protocol_flag(&s(&["--protocol"])).is_err());
    }

    #[test]
    fn protocol_junk_is_a_usage_error() {
        // Junk --protocol is exit 2 on every command that takes it,
        // before the filesystem is touched.
        for argv in [
            vec![
                "simulate",
                "/nonexistent.trace",
                "LOAD-BAL",
                "4",
                "--protocol",
                "moesi",
            ],
            vec![
                "sweep",
                "fft",
                "--journal",
                "/tmp/never-written.journal",
                "--protocol",
                "moesi",
            ],
            vec!["report", "/nonexistent.json", "--protocol", "moesi"],
        ] {
            let err = run(&s(&argv)).unwrap_err();
            assert_eq!(err.code(), 2, "{argv:?} -> {err:?}");
            assert!(err.message().contains("unknown protocol"), "{err:?}");
        }
    }

    /// `simulate --protocol` flows into the metrics manifest, and the
    /// report's grouping carries it; MESI never takes upgrade traffic
    /// where WI does.
    #[test]
    fn simulate_protocol_reaches_manifest_and_report() {
        let dir = std::env::temp_dir().join("placesim-cli-protocol-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("fft.trace");
        let trace_s = trace.to_str().unwrap().to_string();
        run(&s(&[
            "gen", "fft", &trace_s, "--scale", "0.002", "--seed", "3",
        ]))
        .unwrap();

        for protocol in ["wi", "mesi", "dragon"] {
            let metrics = dir.join(format!("{protocol}.json"));
            let metrics_s = metrics.to_str().unwrap().to_string();
            run(&s(&[
                "simulate",
                &trace_s,
                "LOAD-BAL",
                "4",
                "--protocol",
                protocol,
                "--metrics",
                &metrics_s,
            ]))
            .unwrap();
            let body = std::fs::read_to_string(&metrics).unwrap();
            RunManifest::validate(&body).unwrap();
            assert!(
                body.contains(&format!("\"protocol\": \"{protocol}\"")),
                "{protocol} missing from manifest config"
            );
        }

        // Filtered report keeps only the requested protocol's manifests.
        let dir_s = dir.to_str().unwrap().to_string();
        let out = dir.join("report.json");
        let out_s = out.to_str().unwrap().to_string();
        std::fs::remove_file(&trace).unwrap();
        run(&s(&[
            "report",
            &dir_s,
            "--protocol",
            "dragon",
            "--json",
            &out_s,
        ]))
        .unwrap();
        let doc = placesim_obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let groups = doc.get("groups").and_then(|v| v.as_array()).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(
            groups[0].get("protocol").and_then(|v| v.as_str()),
            Some("dragon")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn algorithm_parsing() {
        assert_eq!(
            parse_algorithm("share-refs").unwrap(),
            PlacementAlgorithm::ShareRefs
        );
        assert_eq!(
            parse_algorithm("LOAD-BAL").unwrap(),
            PlacementAlgorithm::LoadBal
        );
        assert!(parse_algorithm("bogus").is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn suite_command_runs() {
        run(&s(&["suite"])).unwrap();
    }

    #[test]
    fn gen_info_analyze_roundtrip() {
        let dir = std::env::temp_dir().join("placesim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fft.trace");
        let path_s = path.to_str().unwrap().to_string();

        run(&s(&[
            "gen", "fft", &path_s, "--scale", "0.002", "--seed", "3",
        ]))
        .unwrap();
        run(&s(&["info", &path_s])).unwrap(); // compressed v2 loads
                                              // The retired v1 format can no longer be written.
        let err = run(&s(&[
            "gen", "fft", &path_s, "--scale", "0.002", "--seed", "3", "--flat",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        run(&s(&["info", &path_s])).unwrap();
        run(&s(&["analyze", &path_s])).unwrap();
        run(&s(&["place", &path_s, "LOAD-BAL", "4"])).unwrap();
        run(&s(&[
            "simulate",
            &path_s,
            "RANDOM",
            "4",
            "--cache-kb",
            "32",
            "--assoc",
            "2",
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// `gen --format v4` writes a streaming trace that decodes to the
    /// exact program v2 stores, and every subcommand accepts it — the
    /// analysis commands without materializing it.
    #[test]
    fn gen_v4_roundtrips_and_all_commands_accept_it() {
        let dir = std::env::temp_dir().join("placesim-cli-v4-test");
        std::fs::create_dir_all(&dir).unwrap();
        let v2 = dir.join("fft-v2.trace");
        let v4 = dir.join("fft-v4.trace");
        let v2_s = v2.to_str().unwrap().to_string();
        let v4_s = v4.to_str().unwrap().to_string();
        let base = ["gen", "fft", "", "--scale", "0.002", "--seed", "3"];
        let mut argv = base;
        argv[2] = &v2_s;
        run(&s(&argv)).unwrap();
        let mut argv: Vec<&str> = base.to_vec();
        argv[2] = &v4_s;
        argv.extend(["--format", "v4"]);
        run(&s(&argv)).unwrap();

        assert_eq!(trace_version(&v4_s).unwrap(), Some(stream::VERSION));
        assert_eq!(
            load_trace(&v4_s).unwrap(),
            load_trace(&v2_s).unwrap(),
            "v4 must decode to the identical program"
        );

        run(&s(&["info", &v4_s])).unwrap();
        run(&s(&["analyze", &v4_s])).unwrap();
        run(&s(&["place", &v4_s, "SHARE-REFS", "4"])).unwrap();
        run(&s(&["simulate", &v4_s, "LOAD-BAL", "4"])).unwrap();

        // The streamed analysis feeds placement the same inputs.
        let prog = load_trace(&v2_s).unwrap();
        let reader = stream::FileReader::open(&v4).unwrap();
        let streamed =
            SharingAnalysis::measure_streamed(&reader, &SpillBudget::from_env()).unwrap();
        assert_eq!(streamed, SharingAnalysis::measure(&prog));
        assert_eq!(reader.instr_lengths(), thread_lengths(&prog));

        std::fs::remove_file(&v2).ok();
        std::fs::remove_file(&v4).ok();
    }

    /// A trace whose version word is 3, the retired streaming version,
    /// is refused by `info` with the version error, not decoded or
    /// reported as corrupt.
    #[test]
    fn info_refuses_a_version_3_file_by_its_version() {
        let dir = std::env::temp_dir().join(format!("placesim-cli-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.trace");
        let path_s = path.to_str().unwrap().to_string();
        let prog = ProgramTrace::new("old", vec![placesim_trace::ThreadTrace::new()]);
        let mut bytes = stream::to_bytes(&prog).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = run(&s(&["info", &path_s])).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            err.message().contains("version 3 (supported: 4)"),
            "{}",
            err.message()
        );
    }

    #[test]
    fn gen_format_flag_is_strict() {
        for argv in [
            vec!["gen", "fft", "/tmp/x.trace", "--format", "v9"],
            vec!["gen", "fft", "/tmp/x.trace", "--format", "3"],
            vec!["gen", "fft", "/tmp/x.trace", "--format"],
        ] {
            assert!(run(&s(&argv)).is_err(), "{argv:?} must be rejected");
        }
        // Asking for the retired v1 format is a usage error naming the
        // two formats that remain.
        for argv in [
            vec!["gen", "fft", "/tmp/x.trace", "--flat"],
            vec!["gen", "fft", "/tmp/x.trace", "--flat", "--format", "v4"],
            vec!["gen", "fft", "/tmp/x.trace", "--format", "v1"],
        ] {
            let err = run(&s(&argv)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{argv:?} -> {err:?}");
            let msg = err.message();
            assert!(
                msg.contains("v2") && msg.contains("v4"),
                "{argv:?} -> {msg}"
            );
        }
        // The retired streaming version is refused with the one to use.
        let err = run(&s(&["gen", "fft", "/tmp/x.trace", "--format", "v3"])).unwrap_err();
        assert!(err.message().contains("v4"), "{}", err.message());
    }

    #[test]
    fn simulate_and_probe_emit_valid_metrics() {
        let dir = std::env::temp_dir().join("placesim-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("fft.trace");
        let trace_s = trace.to_str().unwrap().to_string();
        let metrics = dir.join("run.json");
        let metrics_s = metrics.to_str().unwrap().to_string();

        run(&s(&[
            "gen", "fft", &trace_s, "--scale", "0.002", "--seed", "3",
        ]))
        .unwrap();
        run(&s(&[
            "simulate",
            &trace_s,
            "LOAD-BAL",
            "4",
            "--metrics",
            &metrics_s,
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&metrics).unwrap();
        RunManifest::validate(&body).unwrap();
        assert!(body.contains("\"tool\": \"simulate\""));
        assert!(body.contains("\"algorithm\": \"LOAD-BAL\""));
        assert!(!sink::tmp_sibling(&metrics).exists());

        run(&s(&["probe", &trace_s, "--metrics", &metrics_s])).unwrap();
        let body = std::fs::read_to_string(&metrics).unwrap();
        RunManifest::validate(&body).unwrap();
        assert!(body.contains("\"tool\": \"probe\""));

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn failed_gen_leaves_no_partial_trace() {
        let dir = std::env::temp_dir().join("placesim-cli-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        // A target inside a nonexistent directory: the temporary file
        // cannot even be created, and nothing may appear at the target.
        let out = dir.join("no-such-subdir").join("x.trace");
        let out_s = out.to_str().unwrap().to_string();
        assert!(run(&s(&["gen", "fft", &out_s, "--scale", "0.002"])).is_err());
        assert!(!out.exists());
        assert!(!sink::tmp_sibling(&out).exists());

        // A successful gen cleans up its temporary sibling.
        let ok = dir.join("ok.trace");
        let ok_s = ok.to_str().unwrap().to_string();
        run(&s(&["gen", "fft", &ok_s, "--scale", "0.002"])).unwrap();
        assert!(ok.exists());
        assert!(!sink::tmp_sibling(&ok).exists());
        std::fs::remove_file(&ok).ok();
    }

    #[test]
    fn analyze_and_place_emit_valid_metrics() {
        let dir = std::env::temp_dir().join("placesim-cli-frontend-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("fft.trace");
        let trace_s = trace.to_str().unwrap().to_string();
        run(&s(&[
            "gen", "fft", &trace_s, "--scale", "0.002", "--seed", "3",
        ]))
        .unwrap();

        for (cmd, extra) in [("analyze", vec![]), ("place", vec!["LOAD-BAL", "4"])] {
            let metrics = dir.join(format!("{cmd}.json"));
            let metrics_s = metrics.to_str().unwrap().to_string();
            let mut argv = vec![cmd, &trace_s];
            argv.extend(extra);
            argv.extend(["--metrics", &metrics_s]);
            run(&s(&argv)).unwrap();
            let body = std::fs::read_to_string(&metrics).unwrap();
            RunManifest::validate(&body).unwrap();
            assert!(body.contains(&format!("\"tool\": \"{cmd}\"")));
            std::fs::remove_file(&metrics).ok();
        }
        std::fs::remove_file(&trace).ok();
    }

    /// End-to-end: two simulated manifests aggregate into one report,
    /// the report survives a `--json` round-trip, an identical baseline
    /// passes, and an injected regression fails with a nonzero exit.
    #[test]
    fn report_aggregates_and_checks_baseline() {
        let dir = std::env::temp_dir().join("placesim-cli-report-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("fft.trace");
        let trace_s = trace.to_str().unwrap().to_string();
        run(&s(&[
            "gen", "fft", &trace_s, "--scale", "0.002", "--seed", "3",
        ]))
        .unwrap();

        let mut paths = Vec::new();
        for algo in ["RANDOM", "LOAD-BAL"] {
            let m = dir.join(format!("{algo}.json"));
            run(&s(&[
                "simulate",
                &trace_s,
                algo,
                "4",
                "--metrics",
                m.to_str().unwrap(),
            ]))
            .unwrap();
            paths.push(m.to_str().unwrap().to_string());
        }

        // Aggregate explicit files and the directory form identically.
        let out = dir.join("report.json");
        let out_s = out.to_str().unwrap().to_string();
        run(&s(&["report", &paths[0], &paths[1], "--json", &out_s])).unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        let doc = placesim_obs::json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(placesim::REPORT_SCHEMA)
        );
        std::fs::remove_file(&trace).unwrap();
        // The directory now holds the two manifests plus report.json,
        // which is skipped with a warning rather than failing the scan.
        let dir_s = dir.to_str().unwrap().to_string();
        run(&s(&["report", &dir_s])).unwrap();

        // Identical baseline: clean pass. Injected 50% slowdown: exit
        // nonzero via Err.
        run(&s(&["report", &paths[0], "--baseline", &paths[0]])).unwrap();
        let slow = std::fs::read_to_string(&paths[0]).unwrap();
        let fast_time: u64 = {
            let doc = placesim_obs::json::parse(&slow).unwrap();
            let results = doc.get("results").and_then(|v| v.as_array()).unwrap();
            results[0]
                .get("execution_time")
                .and_then(|v| v.as_u64())
                .unwrap()
        };
        let injected = slow.replace(
            &format!("\"execution_time\": {fast_time}"),
            &format!("\"execution_time\": {}", fast_time + fast_time / 2),
        );
        let slow_path = dir.join("slow.json");
        std::fs::write(&slow_path, injected).unwrap();
        let err = run(&s(&[
            "report",
            slow_path.to_str().unwrap(),
            "--baseline",
            &paths[0],
            "--threshold",
            "2",
        ]))
        .unwrap_err();
        assert!(err.message().contains("regression"), "{err:?}");
        assert!(run(&s(&["report", &dir_s, "--bogus"])).is_err());
        assert!(run(&s(&["report"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `simulate --attribution` writes a report with events that the
    /// strict parser accepts and `attribute` renders; combined with
    /// `--timeline` in one pass, both files are byte-identical to the
    /// single-flag runs.
    #[test]
    fn simulate_attribution_roundtrips_through_attribute() {
        let dir = std::env::temp_dir().join("placesim-cli-attribution-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("water.trace");
        let trace_s = trace.to_str().unwrap().to_string();
        run(&s(&[
            "gen", "water", &trace_s, "--scale", "0.002", "--seed", "3",
        ]))
        .unwrap();

        let attr_path = dir.join("attr.json");
        run(&s(&[
            "simulate",
            &trace_s,
            "SHARE-REFS",
            "4",
            "--protocol",
            "mesi",
            "--attribution",
            attr_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(!sink::tmp_sibling(&attr_path).exists());
        let body = std::fs::read_to_string(&attr_path).unwrap();

        let doc = placesim_obs::attribution::parse(&body).unwrap();
        assert_eq!(doc.protocol, "mesi");
        assert!(doc.enabled);
        assert!(doc.events() > 0, "water shares lines: events expected");
        assert!(!doc.top.is_empty());

        // The renderer accepts the file; junk does not.
        run(&s(&["attribute", attr_path.to_str().unwrap()])).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, b"{\"schema\": \"nope\"}").unwrap();
        let err = run(&s(&["attribute", bad.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.code(), 1, "{err:?}");
        assert!(run(&s(&["attribute"])).is_err());

        // --timeline and --attribution compose in one invocation.
        let both_attr = dir.join("both-attr.json");
        let both_tl = dir.join("both-tl.json");
        run(&s(&[
            "simulate",
            &trace_s,
            "SHARE-REFS",
            "4",
            "--protocol",
            "mesi",
            "--timeline",
            both_tl.to_str().unwrap(),
            "--attribution",
            both_attr.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&both_attr).unwrap(),
            body,
            "attribution must not depend on --timeline"
        );
        let tl = dir.join("tl.json");
        run(&s(&[
            "simulate",
            &trace_s,
            "SHARE-REFS",
            "4",
            "--protocol",
            "mesi",
            "--timeline",
            tl.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&both_tl).unwrap(),
            std::fs::read(&tl).unwrap(),
            "the timeline must not depend on --attribution"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `sweep --attribution --telemetry` writes a merged sweep-level
    /// attribution report and a final telemetry document with every
    /// cell folded in.
    #[test]
    fn sweep_attribution_and_telemetry_outputs_validate() {
        let dir = std::env::temp_dir().join("placesim-cli-sweep-attr-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("sweep.journal");
        let attr_out = dir.join("attr.json");
        let telemetry = dir.join("live.json");
        run(&s(&[
            "sweep",
            "water",
            "--journal",
            journal.to_str().unwrap(),
            "--scale",
            "0.002",
            "--seed",
            "3",
            "--algos",
            "RANDOM,LOAD-BAL",
            "--procs",
            "2,4",
            "--attribution",
            attr_out.to_str().unwrap(),
            "--telemetry",
            telemetry.to_str().unwrap(),
        ]))
        .unwrap();

        let body = std::fs::read_to_string(&attr_out).unwrap();
        let doc = placesim_obs::attribution::parse(&body).unwrap();
        assert!(doc.enabled);
        assert!(doc.events() > 0, "four attributed cells: events expected");

        let live =
            placesim_obs::json::parse(&std::fs::read_to_string(&telemetry).unwrap()).unwrap();
        assert_eq!(
            live.get("schema").and_then(|v| v.as_str()),
            Some(placesim::TELEMETRY_SCHEMA)
        );
        assert_eq!(live.get("cells_total").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(live.get("cells_done").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(live.get("cells_failed").and_then(|v| v.as_u64()), Some(0));
        assert!(!sink::tmp_sibling(&telemetry).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `simulate --timeline` writes a non-empty Chrome trace-event file
    /// that the strict parser accepts.
    #[test]
    fn simulate_timeline_writes_chrome_json() {
        let dir = std::env::temp_dir().join("placesim-cli-timeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("water.trace");
        let trace_s = trace.to_str().unwrap().to_string();
        run(&s(&[
            "gen", "water", &trace_s, "--scale", "0.002", "--seed", "3",
        ]))
        .unwrap();
        let out = dir.join("timeline.json");
        let out_s = out.to_str().unwrap().to_string();
        run(&s(&[
            "simulate",
            &trace_s,
            "SHARE-REFS",
            "4",
            "--timeline",
            &out_s,
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        let doc = placesim_obs::json::parse(&body).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(events.len() > 1, "a traced run records events");
        assert!(!sink::tmp_sibling(&out).exists());
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run(&s(&["info", "/nonexistent/x.trace"])).unwrap_err();
        assert!(err.message().contains("cannot open"));
    }

    #[test]
    fn exit_codes_are_distinct() {
        assert_eq!(CliError::Runtime("x".into()).code(), 1);
        assert_eq!(CliError::Usage("x".into()).code(), 2);
        assert_eq!(CliError::PartialSweep("x".into()).code(), 3);
        assert_eq!(CliError::CorruptJournal("x".into()).code(), 4);
        // Legacy String errors keep their historical usage classification.
        let legacy: CliError = String::from("old-style").into();
        assert!(matches!(legacy, CliError::Usage(_)));
        assert_eq!(legacy.message(), "old-style");
    }

    #[test]
    fn sweep_usage_errors() {
        // Missing journal, unknown app, bad lists: all usage (exit 2).
        for argv in [
            vec!["sweep"],
            vec!["sweep", "water"],
            vec!["sweep", "no-such-app", "--journal", "/tmp/x.journal"],
            vec![
                "sweep",
                "water",
                "--journal",
                "/tmp/x.journal",
                "--procs",
                "0",
            ],
            vec![
                "sweep",
                "water",
                "--journal",
                "/tmp/x.journal",
                "--algos",
                "BOGUS",
            ],
        ] {
            let err = run(&s(&argv)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{argv:?} -> {err:?}");
        }
        assert!(parse_procs("2,4,8").unwrap() == vec![2, 4, 8]);
        assert!(parse_procs("").is_err());
        assert!(parse_procs("2,x").is_err());
    }

    /// End-to-end sweep → kill-free resume → byte-identical report: a
    /// full sweep writes a report; the journal is truncated to simulate
    /// an interrupted run; `--resume` completes the grid and the second
    /// report is byte-identical to the first.
    #[test]
    fn sweep_resume_reproduces_report_bit_identically() {
        let dir = std::env::temp_dir().join("placesim-cli-sweep-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("sweep.journal");
        let journal_s = journal.to_str().unwrap().to_string();
        let report1 = dir.join("full.json");
        let report2 = dir.join("resumed.json");

        let base = [
            "sweep",
            "water",
            "--journal",
            &journal_s,
            "--scale",
            "0.002",
            "--seed",
            "3",
            "--algos",
            "RANDOM,LOAD-BAL",
            "--procs",
            "2,4",
        ];
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--report", report1.to_str().unwrap()]);
        run(&s(&argv)).unwrap();

        // Chop the journal down to the header + 2 committed cells, as a
        // mid-sweep SIGKILL would leave it (plus a torn half-line).
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(text.lines().count(), 5, "header + 4 cells");
        let mut prefix: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        prefix.push_str("deadbeef"); // torn tail
        std::fs::write(&journal, prefix).unwrap();

        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--resume", "--report", report2.to_str().unwrap()]);
        run(&s(&argv)).unwrap();

        let a = std::fs::read(&report1).unwrap();
        let b = std::fs::read(&report2).unwrap();
        assert_eq!(a, b, "resumed report must be byte-identical");

        // Resuming under a different grid is a corrupt-journal error
        // (exit 4), not a silent mixed report.
        let err = run(&s(&[
            "sweep",
            "water",
            "--journal",
            &journal_s,
            "--scale",
            "0.002",
            "--seed",
            "3",
            "--algos",
            "RANDOM",
            "--procs",
            "2,4",
            "--resume",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::CorruptJournal(_)), "{err:?}");

        // Same grid, different protocol: the header pins the protocol,
        // so this is also a mismatch (exit 4), not a mixed sweep.
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--protocol", "mesi", "--resume"]);
        let err = run(&s(&argv)).unwrap_err();
        assert!(matches!(err, CliError::CorruptJournal(_)), "{err:?}");
        assert!(err.message().contains("protocol"), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Archived-trace round-trip through the new sharded front-end: the
    /// analysis of a loaded trace matches the in-memory original (both
    /// via the fused path and the reference path), and placements on the
    /// archive agree between cached and fresh engine scoring — i.e. the
    /// `analyze`/`place` subcommands see exactly what `gen` measured.
    #[test]
    fn archived_trace_analysis_matches_original() {
        use placesim_placement::ScoreMode;

        let dir = std::env::temp_dir().join("placesim-cli-archive-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("water.trace");
        let path_s = path.to_str().unwrap().to_string();

        let spec = placesim_workloads::spec("water").unwrap();
        let opts = GenOptions {
            scale: 0.002,
            seed: 11,
        };
        let prog = generate(&spec, &opts);
        let file = File::create(&path).unwrap();
        compress::write_program(&prog, BufWriter::new(file)).unwrap();

        let loaded = load_trace(&path_s).unwrap();
        let archived = SharingAnalysis::measure(&loaded);
        assert_eq!(archived, SharingAnalysis::measure(&prog));
        assert_eq!(archived, SharingAnalysis::measure_reference(&loaded));

        let lengths = thread_lengths(&loaded);
        let inputs = PlacementInputs::new(&archived, &lengths);
        for algo in [
            PlacementAlgorithm::ShareRefs,
            PlacementAlgorithm::ShareAddrLb,
            PlacementAlgorithm::MinPriv,
        ] {
            assert_eq!(
                algo.place_with_mode(&inputs, 4, ScoreMode::Cached).unwrap(),
                algo.place_with_mode(&inputs, 4, ScoreMode::Fresh).unwrap(),
                "{algo} diverged on the archived trace"
            );
        }

        // The user-facing subcommands run end-to-end on the archive.
        run(&s(&["analyze", &path_s])).unwrap();
        run(&s(&["place", &path_s, "SHARE-REFS", "4"])).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
