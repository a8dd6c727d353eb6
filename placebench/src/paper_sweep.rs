//! `paper-sweep`: the pipeline behind every paper figure.
//!
//! Setup writes gauss as a v2 trace file. One timed pass decodes it,
//! profiles it (`PreparedApp::from_trace`), runs the coherence probe,
//! runs the supervised, journaled sweep over all 15 algorithms ×
//! {2, 4, 8, 16} processors under the default write-invalidate
//! protocol, and renders the report as JSON and text.

use crate::metrics::{max, median, min, windowed, Metrics, Tally, PASS_TAIL_WINDOW};
use crate::spans::{self, Recorder};
use crate::{Ctx, RunOut, SetupOut};
use placesim::journal::{read_journal, JournalCell, JournalWriter};
use placesim::{
    run_supervised_sweep, sweep_header, ManifestEntry, PreparedApp, Report, RunManifest,
    SupervisedSweep, SupervisorConfig,
};
use placesim_machine::simulate;
use placesim_obs::FaultCounters;
use placesim_placement::PlacementAlgorithm;
use placesim_trace::hash::fnv1a64;
use placesim_trace::par::{max_workers, parallel_map, sim_workers, split_worker_budget};
use placesim_workloads::GenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The application: most threads (127) and most invalidations.
pub const APP: &str = "gauss";
/// Trace scale (1.0 = the paper's lengths) of the calibration trace.
const PROBE_SCALE: f64 = 0.05;
/// References in the measured trace. Thread lengths are drawn from the
/// seed, so at a fixed scale the trace size varies by ±12% from seed to
/// seed; set-up rescales so that every seed gives the same amount of
/// work.
const TARGET_REFS: f64 = 1.0e6;
/// Processor counts of the grid.
pub const PROCESSORS: [usize; 4] = [2, 4, 8, 16];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

fn trace_path(work: &Path) -> PathBuf {
    work.join("gauss.v2.trace")
}

/// Generation options that give this seed's gauss `TARGET_REFS`
/// references.
fn scaled_opts(seed: u64) -> Result<GenOptions, String> {
    let spec = placesim_workloads::spec(APP).ok_or("gauss is in the suite")?;
    let probe = GenOptions {
        scale: PROBE_SCALE,
        seed,
    };
    let probe_refs = placesim_workloads::generate(&spec, &probe).total_refs();
    Ok(GenOptions {
        scale: PROBE_SCALE * TARGET_REFS / probe_refs as f64,
        seed,
    })
}

/// Writes the v2 trace file; returns its reference count.
fn write_trace(work: &Path, opts: &GenOptions) -> Result<u64, String> {
    let spec = placesim_workloads::spec(APP).ok_or("gauss is in the suite")?;
    let prog = placesim_workloads::generate(&spec, opts);
    let file = std::fs::File::create(trace_path(work)).map_err(|e| e.to_string())?;
    let mut w = std::io::BufWriter::new(file);
    placesim_trace::compress::write_program(&prog, &mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    Ok(prog.total_refs())
}

/// Generates the trace file `SETUP_REPEATS` times, at the scale that
/// gives this seed's trace `TARGET_REFS` references.
pub fn setup(work: &Path, seed: u64) -> Result<SetupOut, String> {
    let opts = scaled_opts(seed)?;
    let mut times = Vec::new();
    let mut refs = 0;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        refs = write_trace(work, &opts)?;
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&times);
    let mut layers = Metrics::default();
    layers.set("workloads.gen_refs_per_s", refs as f64 / setup_s);
    Ok(SetupOut {
        setup_s,
        layers,
        extras: vec![("scale", opts.scale.to_string())],
    })
}

/// Grid statistics digests pinned per seed, one `seed digest` pair per
/// line, made by `placebench pin`.
const PINNED: &str = include_str!("../paper_sweep_digests.txt");

/// The pinned digest of `seed`'s grid, if the seed is pinned.
pub fn pinned_digest(pins: &str, seed: u64) -> Option<u64> {
    pins.lines().find_map(|line| {
        let (s, d) = line.split_once(' ')?;
        (s.parse::<u64>().ok() == Some(seed)).then(|| u64::from_str_radix(d.trim(), 16).ok())?
    })
}

/// One untraced pass; returns the `seed digest` line for
/// `paper_sweep_digests.txt`.
pub fn pin(work: &Path, seed: u64) -> Result<String, String> {
    let opts = scaled_opts(seed)?;
    write_trace(work, &opts)?;
    let pass = one_pass(
        &Recorder::new(false),
        None,
        work,
        &opts,
        &work.join("pin.journal"),
    )?;
    let mut tally = Tally::default();
    check_cells(&pass.sweep, pass.app.prog.total_refs(), &mut tally);
    if tally.failed > 0 {
        return Err(format!("seed {seed}: {}", tally.messages.join("; ")));
    }
    Ok(format!("{seed} {:016x}", digest(&pass.sweep)))
}

/// What one pass produced, for the output checks.
struct PassOut {
    app: Arc<PreparedApp>,
    sweep: SupervisedSweep,
    report_json: String,
    report_text: String,
}

fn one_pass(
    rec: &Recorder,
    root: Option<u64>,
    work: &Path,
    opts: &GenOptions,
    journal: &Path,
) -> Result<PassOut, String> {
    let spec = placesim_workloads::spec(APP).ok_or("gauss is in the suite")?;
    let prog = rec.time("trace.decode", root, |_| {
        let raw = std::fs::read(trace_path(work)).map_err(|e| e.to_string())?;
        placesim_trace::compress::read_any(&raw).map_err(|e| e.to_string())
    })?;
    let mut app = rec.time("analysis.profile", root, |_| {
        PreparedApp::from_trace(&spec, prog, opts)
    });
    rec.time("machine.probe", root, |_| app.run_probe())
        .map_err(|e| e.to_string())?;
    let app = Arc::new(app);
    let sweep = rec
        .time("core.supervisor.sweep", root, |_| {
            run_supervised_sweep(
                &app,
                &PlacementAlgorithm::ALL,
                &PROCESSORS,
                journal,
                false,
                &SupervisorConfig::new(),
            )
        })
        .map_err(|e| e.to_string())?;
    let (report_json, report_text) = rec.time("core.report", root, |_| {
        let report = Report::from_manifests([&sweep.manifest()]);
        (report.to_json(), report.render_text())
    });
    Ok(PassOut {
        app,
        sweep,
        report_json,
        report_text,
    })
}

/// Checks every grid cell: present, not a hole, simulated exactly the
/// trace's references, and its miss components sum to its miss total.
pub fn check_cells(sweep: &SupervisedSweep, trace_refs: u64, tally: &mut Tally) {
    for index in 0..sweep.header.cell_count() {
        let outcome = match sweep.cells.iter().find(|c| c.index == index) {
            None => match sweep.holes.iter().find(|h| h.index == index) {
                Some(h) => Err(format!("cell {index} is a hole: {}", h.reason)),
                None => Err(format!("cell {index} is missing")),
            },
            Some(c) => check_entry(&c.entry, trace_refs),
        };
        tally.check(outcome.map_err(|e| format!("cell {index}: {e}")));
    }
}

fn check_entry(e: &ManifestEntry, trace_refs: u64) -> Result<(), String> {
    if e.total_refs != trace_refs {
        return Err(format!(
            "simulated {} references, the trace holds {trace_refs}",
            e.total_refs
        ));
    }
    let m = &e.misses;
    let sum = m.compulsory + m.intra_thread_conflict + m.inter_thread_conflict + m.invalidation;
    if sum != e.total_misses {
        return Err(format!(
            "miss components sum to {sum}, total is {}",
            e.total_misses
        ));
    }
    Ok(())
}

/// Rebuilds the report from the journal on disk and compares it byte for
/// byte with the in-memory one.
pub fn check_report_roundtrip(journal: &Path, json: &str, text: &str) -> Result<(), String> {
    let rec = read_journal(journal).map_err(|e| format!("journal unreadable: {e}"))?;
    if !rec.dropped.is_empty() {
        return Err(format!(
            "journal recovery dropped {} line(s): {}",
            rec.dropped.len(),
            rec.dropped[0]
        ));
    }
    let mut cells = rec.cells;
    cells.sort_by_key(|c| c.index);
    let mut m = RunManifest::new("sweep", &rec.header.app, &rec.header.config);
    m.scale = Some(rec.header.scale);
    m.seed = Some(rec.header.seed);
    m.entries = cells.into_iter().map(|c| c.entry).collect();
    let report = Report::from_manifests([&m]);
    if report.to_json() != json || report.render_text() != text {
        return Err("report rebuilt from the journal differs from the in-memory report".into());
    }
    Ok(())
}

/// Digest of every cell's simulated statistics in grid order.
pub fn digest_entries(entries: &[ManifestEntry]) -> u64 {
    let mut s = String::new();
    for e in entries {
        let m = &e.misses;
        s.push_str(&format!(
            "{} {} {} {} {} {} {} {} {} {} {}\n",
            e.algorithm,
            e.processors,
            e.execution_time,
            e.total_refs,
            e.total_misses,
            e.coherence_traffic,
            e.update_traffic,
            m.compulsory,
            m.intra_thread_conflict,
            m.inter_thread_conflict,
            m.invalidation,
        ));
    }
    fnv1a64(s.as_bytes())
}

/// Digest of a sweep's committed cells in grid order.
pub fn digest(sweep: &SupervisedSweep) -> u64 {
    let mut cells: Vec<&JournalCell> = sweep.cells.iter().collect();
    cells.sort_by_key(|c| c.index);
    let entries: Vec<ManifestEntry> = cells.into_iter().map(|c| c.entry.clone()).collect();
    digest_entries(&entries)
}

/// Compares a digest with the expected one.
pub fn check_digest(want: u64, got: u64, what: &str) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: statistics digest {got:016x} differs from {want:016x}"
        ))
    }
}

/// Per-cell layer times of the replay.
struct Replay {
    place: Vec<f64>,
    simulate: Vec<f64>,
    commit: Vec<f64>,
    cell: Vec<f64>,
    /// Wall time of the whole replay.
    wall: f64,
    /// Cell statistics in grid order.
    entries: Vec<ManifestEntry>,
}

/// Replays the grid with direct calls to the layers the supervisor
/// calls per cell (place, simulate, commit), timing each from outside.
fn replay(rec: &Recorder, app: &Arc<PreparedApp>, work: &Path) -> Result<Replay, String> {
    let header = sweep_header(app, &PlacementAlgorithm::ALL, &PROCESSORS);
    let writer =
        JournalWriter::create(&work.join("replay.journal"), &header).map_err(|e| e.to_string())?;
    let writer = Mutex::new((writer, FaultCounters::new()));
    let cells: Vec<usize> = (0..header.cell_count()).collect();
    let mut root_id = None;
    let outcomes = rec.time("replay", None, |root| {
        root_id = root;
        parallel_map(&cells, |&index| {
            rec.time("replay.cell", root, |cell| {
                let algorithm = PlacementAlgorithm::ALL[index / PROCESSORS.len()];
                let processors = PROCESSORS[index % PROCESSORS.len()];
                let map = rec
                    .time("placement.place", cell, |_| {
                        algorithm.place(&app.placement_inputs(), processors)
                    })
                    .map_err(|e| e.to_string())?;
                let stats = rec
                    .time("machine.simulate", cell, |_| {
                        simulate(&app.prog, &map, &app.config)
                    })
                    .map_err(|e| e.to_string())?;
                let entry = ManifestEntry::from_stats(algorithm.paper_name(), processors, &stats);
                let jc = JournalCell {
                    index,
                    attempts: 1,
                    entry: entry.clone(),
                };
                let mut guard = writer.lock().map_err(|_| "journal lock poisoned")?;
                let (w, faults) = &mut *guard;
                rec.time("core.journal.commit", cell, |_| w.commit_cell(&jc, faults))
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>(entry)
            })
        })
    });
    let all = rec.spans();
    let root = root_id.ok_or("the replay needs a recording recorder")?;
    let wall = all
        .iter()
        .find(|s| s.id == root)
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
    let spans = spans::descendants(&all, root);
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    };
    let entries = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Replay {
        place: durs("placement.place"),
        simulate: durs("machine.simulate"),
        commit: durs("core.journal.commit"),
        cell: durs("replay.cell"),
        wall,
        entries,
    })
}

/// Runs timed passes for `ctx.seconds`; in the traced run, passes
/// alternate untraced and traced, then the grid is replayed once by
/// direct calls to split the sweep into layers.
pub fn run(ctx: &Ctx, extras: &crate::Extras) -> Result<RunOut, String> {
    let opts = GenOptions {
        scale: extras.get("scale")?.parse().map_err(|_| "bad scale")?,
        seed: ctx.seed,
    };
    let traced_rec = Recorder::new(true);
    let quiet = Recorder::new(false);
    let journal = ctx.work.join("sweep.journal");
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut peaks = Vec::new();
    // Every pass's grid must match the seed's pinned digest, or, for a
    // seed not pinned, the run's first pass.
    let pinned = pinned_digest(PINNED, ctx.seed);
    let mut want_digest = pinned;
    let mut first_digest = None;
    let mut last_app = None;
    let mut pass_roots = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds
        || walls.is_empty()
        || (ctx.trace && traced_walls.is_empty())
    {
        let traced = ctx.trace && walls.len() > traced_walls.len();
        let rec = if traced { &traced_rec } else { &quiet };
        // The previous pass's trace is dropped first, so that the peak
        // resident memory is one pass's.
        drop(last_app.take());
        crate::rss::reset_peak()?;
        let t = Instant::now();
        let mut root_id = None;
        let out = rec.time("pass", None, |root| {
            root_id = root;
            one_pass(rec, root, &ctx.work, &opts, &journal)
        })?;
        let wall = t.elapsed().as_secs_f64();
        let peak = crate::rss::peak_mib()?;
        if traced {
            traced_walls.push(wall);
            pass_roots.extend(root_id);
        } else {
            walls.push(wall);
            peaks.push(peak);
        }

        check_cells(&out.sweep, out.app.prog.total_refs(), &mut tally);
        tally.check(check_report_roundtrip(
            &journal,
            &out.report_json,
            &out.report_text,
        ));
        let d = digest(&out.sweep);
        first_digest.get_or_insert(d);
        let what = if pinned.is_some() {
            "pass vs pinned"
        } else {
            "pass vs first pass"
        };
        tally.check(check_digest(*want_digest.get_or_insert(d), d, what));
        last_app = Some(out.app);
    }

    let mut metrics = Metrics::default();
    let mut spans_out = Vec::new();
    if ctx.trace {
        let app = last_app.ok_or("no pass ran")?;
        let (selfs, unattributed) = spans::median_self_secs(&traced_rec.spans(), &pass_roots);
        let secs = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        metrics.set("trace.decode_s", secs("trace.decode"));
        metrics.set("analysis.profile_s", secs("analysis.profile"));
        metrics.set("machine.probe_s", secs("machine.probe"));
        metrics.set("core.supervisor.sweep_s", secs("core.supervisor.sweep"));
        metrics.set("core.report_ms", secs("core.report") * 1e3);
        metrics.set("unattributed_frac", unattributed);
        metrics.set(
            "trace_overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );

        let r = replay(&traced_rec, &app, &ctx.work)?;
        tally.check(check_digest(
            want_digest.unwrap_or(0),
            digest_entries(&r.entries),
            "replay",
        ));
        let total = |f: fn(&ManifestEntry) -> u64| r.entries.iter().map(f).sum::<u64>() as f64;
        let refs = total(|e| e.total_refs);
        let sim_s: f64 = r.simulate.iter().sum();
        let busy: f64 = r.place.iter().sum::<f64>() + sim_s + r.commit.iter().sum::<f64>();
        let workers = split_worker_budget(max_workers(), sim_workers()) as f64;
        let commit_ms: Vec<f64> = r.commit.iter().map(|s| s * 1e3).collect();
        metrics.set("placement.place_s", r.place.iter().sum());
        metrics.set("placement.place_max_ms", max(&r.place) * 1e3);
        metrics.set("machine.simulate_s", sim_s);
        metrics.set("machine.cell_max_s", max(&r.cell));
        metrics.set("machine.ns_per_ref", sim_s * 1e9 / refs);
        metrics.set("machine.refs", refs);
        metrics.set("machine.misses", total(|e| e.total_misses));
        metrics.set("machine.coherence_traffic", total(|e| e.coherence_traffic));
        metrics.set("core.journal.commit_ms.p50", median(&commit_ms));
        metrics.set("core.journal.commit_ms.max", max(&commit_ms));
        metrics.set("core.supervisor.idle_frac", 1.0 - busy / (workers * r.wall));
        spans_out = traced_rec.spans();
    } else {
        let wall = median(&walls);
        metrics.set("wall_s", wall);
        metrics.set("peak_rss_mib", min(&peaks));
        metrics.set("job_p50_ms", wall * 1e3);
        metrics.set("job_p99_ms", windowed(&walls, PASS_TAIL_WINDOW, max) * 1e3);
        metrics.set("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    }
    Ok(RunOut {
        tally,
        metrics,
        spans: spans_out,
        info: vec![
            ("passes", (walls.len() + traced_walls.len()).to_string()),
            ("app", APP.to_owned()),
            ("scale", opts.scale.to_string()),
            ("digest", format!("{:016x}", first_digest.unwrap_or(0))),
            ("digest_pinned", pinned.is_some().to_string()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep(dir: &Path) -> (Arc<PreparedApp>, SupervisedSweep, PathBuf) {
        let spec = placesim_workloads::spec("water").unwrap();
        let app = Arc::new(PreparedApp::prepare(
            &spec,
            &GenOptions {
                scale: 0.002,
                seed: 5,
            },
        ));
        let journal = dir.join("tiny.journal");
        let sweep = run_supervised_sweep(
            &app,
            &[PlacementAlgorithm::LoadBal, PlacementAlgorithm::Random],
            &[2, 4],
            &journal,
            false,
            &SupervisorConfig::new(),
        )
        .unwrap();
        (app, sweep, journal)
    }

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("placebench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn checks_pass_on_a_healthy_sweep_and_bite_on_a_wrong_ref_count() {
        let dir = scratch("cells");
        let (app, sweep, _) = tiny_sweep(&dir);
        let mut ok = Tally::default();
        check_cells(&sweep, app.prog.total_refs(), &mut ok);
        assert_eq!((ok.attempted, ok.failed), (4, 0), "{:?}", ok.messages);

        let mut bad = Tally::default();
        check_cells(&sweep, app.prog.total_refs() + 1, &mut bad);
        assert_eq!(bad.failed, 4);
        assert!(bad.failed_frac() > 0.0);

        let mut holed = sweep;
        holed.cells.pop();
        let mut t = Tally::default();
        check_cells(&holed, app.prog.total_refs(), &mut t);
        assert_eq!(t.failed, 1);

        let mut e = holed.cells[0].entry.clone();
        e.misses.invalidation += 1;
        assert!(check_entry(&e, app.prog.total_refs()).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_tampered_journal_line_fails_the_report_roundtrip() {
        let dir = scratch("journal");
        let (_, sweep, journal) = tiny_sweep(&dir);
        let report = Report::from_manifests([&sweep.manifest()]);
        let (json, text) = (report.to_json(), report.render_text());
        assert_eq!(check_report_roundtrip(&journal, &json, &text), Ok(()));

        let body = std::fs::read_to_string(&journal).unwrap();
        let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
        let last = lines.last_mut().unwrap();
        let pos = last.find("\"execution_time\":").unwrap() + "\"execution_time\":".len();
        let digit = last.as_bytes()[pos];
        let flipped = if digit == b'9' {
            '1'
        } else {
            (digit + 1) as char
        };
        last.replace_range(pos..pos + 1, &flipped.to_string());
        std::fs::write(&journal, lines.join("\n") + "\n").unwrap();

        let mut t = Tally::default();
        t.check(check_report_roundtrip(&journal, &json, &text));
        assert_eq!(t.failed, 1);
        assert!(t.failed_frac() > 0.0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn pinned_digests_parse_and_cover_the_held_out_seed() {
        let pins = "3 00000000000000ff\n17 0123456789abcdef\n";
        assert_eq!(pinned_digest(pins, 3), Some(0xff));
        assert_eq!(pinned_digest(pins, 17), Some(0x0123_4567_89ab_cdef));
        assert_eq!(pinned_digest(pins, 1), None);
        assert!(pinned_digest(PINNED, 7919).is_some());
        assert!((0..=100).all(|seed| pinned_digest(PINNED, seed).is_some()));
    }

    #[test]
    fn digest_check_bites_on_changed_statistics() {
        let dir = scratch("digest");
        let (_, sweep, _) = tiny_sweep(&dir);
        let entries: Vec<ManifestEntry> = sweep.cells.iter().map(|c| c.entry.clone()).collect();
        let d = digest(&sweep);
        assert_eq!(check_digest(d, digest_entries(&entries), "same"), Ok(()));
        let mut changed = entries.clone();
        changed[0].coherence_traffic += 1;
        assert!(check_digest(d, digest_entries(&changed), "changed").is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
