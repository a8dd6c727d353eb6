//! `stream-profile`: the out-of-core front end, with no simulation.
//!
//! Setup writes cholesky as a v3 streaming trace. One timed pass opens
//! it with `FileReader::open`, profiles it with
//! `SharingAnalysis::measure_streamed` under a per-thread spill budget a
//! quarter of the smallest per-thread distinct-address count (so every
//! thread spills and the k-way merge runs), and places it with the six
//! sharing-based algorithms on {2, 4, 8, 16} processors.

use crate::metrics::{max, median, min, windowed, Metrics, Tally, PASS_TAIL_WINDOW};
use crate::spans::{self, Recorder};
use crate::{Ctx, RunOut, SetupOut};
use placesim_analysis::{SharingAnalysis, SpillBudget};
use placesim_placement::{PlacementAlgorithm, PlacementInputs};
use placesim_trace::hash::fnv1a64;
use placesim_trace::stream::FileReader;
use placesim_workloads::GenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The application: the largest data footprint in the suite.
pub const APP: &str = "cholesky";
/// Trace length scale (1.0 = the paper's lengths).
pub const SCALE: f64 = 0.25;
/// Processor counts each algorithm places onto.
pub const PROCESSORS: [usize; 4] = [2, 4, 8, 16];
/// The spill budget is the smallest per-thread distinct-address count
/// divided by this.
const BUDGET_DIVISOR: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

fn trace_path(work: &Path) -> PathBuf {
    work.join("cholesky.v3.trace")
}

/// Digest of a complete sharing analysis.
pub fn analysis_digest(a: &SharingAnalysis) -> String {
    format!("{:016x}", fnv1a64(format!("{a:?}").as_bytes()))
}

/// Distinct addresses each thread touched.
fn per_thread_distinct(a: &SharingAnalysis) -> Vec<u64> {
    a.per_thread()
        .iter()
        .map(|t| t.shared_addrs + t.private_addrs)
        .collect()
}

/// Generates the v3 file `SETUP_REPEATS` times, then (untimed) decodes
/// it whole and profiles it in memory: the reference the streamed
/// profile must equal, and the per-thread footprint the budget is cut
/// from.
pub fn setup(work: &Path, seed: u64) -> Result<SetupOut, String> {
    let spec = placesim_workloads::spec(APP).ok_or("cholesky is in the suite")?;
    let opts = GenOptions { scale: SCALE, seed };
    let mut times = Vec::new();
    let mut refs = 0;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let file = std::fs::File::create(trace_path(work)).map_err(|e| e.to_string())?;
        let mut w = std::io::BufWriter::new(file);
        let summary = placesim_workloads::generate_streamed(&spec, &opts, &mut w)
            .map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        refs = summary.total_refs;
    }
    let setup_s = median(&times);

    let raw = std::fs::read(trace_path(work)).map_err(|e| e.to_string())?;
    let prog = placesim_trace::compress::read_any(&raw).map_err(|e| e.to_string())?;
    drop(raw);
    let reference = SharingAnalysis::measure(&prog);
    let distinct = per_thread_distinct(&reference);
    let budget = (distinct.iter().copied().min().unwrap_or(0) / BUDGET_DIVISOR).max(1);

    let mut layers = Metrics::default();
    layers.set("workloads.gen_refs_per_s", refs as f64 / setup_s);
    Ok(SetupOut {
        setup_s,
        layers,
        extras: vec![
            ("reference_digest", analysis_digest(&reference)),
            ("spill_budget", budget.to_string()),
            (
                "max_thread_distinct",
                distinct.iter().max().unwrap_or(&0).to_string(),
            ),
        ],
    })
}

/// The streamed profile must equal the in-memory reference.
pub fn check_profile(reference_digest: &str, streamed: &SharingAnalysis) -> Result<(), String> {
    let got = analysis_digest(streamed);
    if got == reference_digest {
        Ok(())
    } else {
        Err(format!(
            "streamed analysis digest {got} differs from the in-memory reference {reference_digest}"
        ))
    }
}

/// Runs timed passes for `ctx.seconds`; in the traced run, passes
/// alternate untraced and traced.
pub fn run(ctx: &Ctx, extras: &crate::Extras) -> Result<RunOut, String> {
    let reference = extras.get("reference_digest")?;
    let budget: usize = extras
        .get("spill_budget")?
        .parse()
        .map_err(|_| "bad spill budget")?;
    let max_distinct: f64 = extras
        .get("max_thread_distinct")?
        .parse()
        .map_err(|_| "bad distinct count")?;
    let spill_dir = ctx.work.join("spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| e.to_string())?;
    let budget = SpillBudget::new(budget).with_dir(&spill_dir);
    let path = trace_path(&ctx.work);

    let traced_rec = Recorder::new(true);
    let quiet = Recorder::new(false);
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut peaks = Vec::new();
    let mut roots = Vec::new();
    let mut refs = 0u64;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds
        || walls.is_empty()
        || (ctx.trace && traced_walls.is_empty())
    {
        let traced = ctx.trace && walls.len() > traced_walls.len();
        let rec = if traced { &traced_rec } else { &quiet };
        crate::rss::reset_peak()?;
        let t = Instant::now();
        let mut root_id = None;
        let (analysis, maps) = rec.time("pass", None, |root| {
            root_id = root;
            let reader = rec
                .time("trace.open", root, |_| FileReader::open(&path))
                .map_err(|e| e.to_string())?;
            let analysis = rec
                .time("analysis.stream_profile", root, |_| {
                    SharingAnalysis::measure_streamed(&reader, &budget)
                })
                .map_err(|e| e.to_string())?;
            refs = reader.total_refs();
            let lengths = reader.instr_lengths();
            let maps = rec.time("placement.place", root, |_| {
                let inputs = PlacementInputs::new(&analysis, &lengths).with_seed(ctx.seed);
                PlacementAlgorithm::SHARING_BASED
                    .iter()
                    .flat_map(|a| PROCESSORS.iter().map(move |&p| (a, p)))
                    .map(|(a, p)| (a.paper_name(), p, a.place(&inputs, p)))
                    .collect::<Vec<_>>()
            });
            Ok::<_, String>((analysis, maps))
        })?;
        let wall = t.elapsed().as_secs_f64();
        let peak = crate::rss::peak_mib()?;
        if traced {
            traced_walls.push(wall);
            roots.extend(root_id);
        } else {
            walls.push(wall);
            peaks.push(peak);
        }

        tally.check(check_profile(reference, &analysis));
        let reader_threads = analysis.thread_count();
        for (name, p, placed) in maps {
            tally.check(match placed {
                Ok(map) if map.processor_count() == p && map.thread_count() == reader_threads => {
                    Ok(())
                }
                Ok(map) => Err(format!(
                    "{name} placed {} threads onto {} processors, asked {reader_threads} onto {p}",
                    map.thread_count(),
                    map.processor_count()
                )),
                Err(e) => Err(format!("{name} on {p} processors: {e}")),
            });
        }
    }

    let mut metrics = Metrics::default();
    let mut spans_out = Vec::new();
    if ctx.trace {
        let spans_all = traced_rec.spans();
        let (selfs, unattributed) = spans::median_self_secs(&spans_all, &roots);
        let secs = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        let profile_s = secs("analysis.stream_profile");
        metrics.set("trace.open_ms", secs("trace.open") * 1e3);
        metrics.set("analysis.stream_profile_s", profile_s);
        metrics.set("analysis.profile_refs_per_s", refs as f64 / profile_s);
        metrics.set("analysis.distinct_addrs", max_distinct);
        metrics.set(
            "analysis.spill_budget_addrs",
            budget.max_resident_addrs() as f64,
        );
        metrics.set("placement.place_s", secs("placement.place"));
        metrics.set("unattributed_frac", unattributed);
        metrics.set(
            "trace_overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        spans_out = spans_all;
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
            ("scale", SCALE.to_string()),
            ("refs", refs.to_string()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_profile_check_passes_on_equal_and_bites_on_different_analyses() {
        let dir = std::env::temp_dir().join(format!("placebench-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.v3");
        let spec = placesim_workloads::spec("water").unwrap();
        let opts = GenOptions {
            scale: 0.002,
            seed: 9,
        };
        let file = std::fs::File::create(&path).unwrap();
        placesim_workloads::generate_streamed(&spec, &opts, std::io::BufWriter::new(file)).unwrap();
        let prog = placesim_trace::compress::read_any(&std::fs::read(&path).unwrap()).unwrap();
        let reference = analysis_digest(&SharingAnalysis::measure(&prog));

        let reader = FileReader::open(&path).unwrap();
        let tight = SpillBudget::new(8).with_dir(&dir);
        let streamed = SharingAnalysis::measure_streamed(&reader, &tight).unwrap();
        assert_eq!(check_profile(&reference, &streamed), Ok(()));

        let other = placesim_workloads::generate(&spec, &GenOptions { seed: 10, ..opts });
        let mut t = Tally::default();
        t.check(check_profile(&reference, &SharingAnalysis::measure(&other)));
        assert!(t.failed_frac() > 0.0);
        std::fs::remove_dir_all(dir).ok();
    }
}
