//! Measures engine throughput (references per second) for the batched
//! hit-run engine against the per-reference reference engine and writes
//! `BENCH_engine.json` at the repository root.
//!
//! Scenarios are chosen to bracket the optimisation:
//!
//! * `p1-hot-loop` — one processor, four contexts, cache-resident
//!   working sets: the queue is empty after each pop, so entire hit runs
//!   go by under a single event. This is the fast path's best case.
//! * `p1-water` — a paper workload multiprogrammed onto one processor.
//! * `p4-water` / `p8-water` — the paper's actual sharing experiments:
//!   each pop runs a processor's hits up to its next miss, upgrade,
//!   update or barrier, bounded by the per-processor hit lookahead.
//! * `p16-gauss` — the lockstep case: gauss under SHARE-REFS on 16
//!   processors, where every processor has an event pending at nearly
//!   every cycle.
//!
//! Each engine's rate is the median of 9 timed runs; the spread is the
//! fastest and slowest run.
//!
//! Usage: `cargo run --release -p placesim-bench --bin bench_engine`.

use placesim::manifest::{ManifestEntry, RunManifest};
use placesim::PreparedApp;
use placesim_machine::{reference, simulate, ArchConfig};
use placesim_placement::{PlacementAlgorithm, PlacementMap};
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use placesim_workloads::{spec, GenOptions};
use std::time::Instant;

/// One measured scenario: both engines over the same inputs.
struct Scenario {
    name: &'static str,
    note: &'static str,
    prog: ProgramTrace,
    map: PlacementMap,
    config: ArchConfig,
}

/// Wall-clock seconds per run over `samples` timed runs (after one
/// warmup), for a closure executing one full simulation: the median,
/// the fastest and the slowest.
fn timed_secs(samples: usize, mut run: impl FnMut()) -> (f64, f64, f64) {
    run(); // warmup: touch caches, fault pages
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (times[times.len() / 2], times[0], times[times.len() - 1])
}

fn hot_loop_program() -> (ProgramTrace, PlacementMap) {
    // Four threads, each looping over a 4-line working set disjoint from
    // the others (16 lines total fit the paper cache easily): after the
    // compulsory fills, every reference hits.
    let threads: Vec<ThreadTrace> = (0..4u64)
        .map(|t| {
            (0..200_000u64)
                .map(|i| MemRef::read(Address::new(t * 0x1000 + (i % 4) * 64)))
                .collect()
        })
        .collect();
    let prog = ProgramTrace::new("hot-loop", threads);
    let map = PlacementMap::from_clusters(vec![vec![0, 1, 2, 3]]).unwrap();
    (prog, map)
}

fn main() {
    // PLACESIM_SCALE overrides for CI smoke runs; 0.05 is the recorded
    // benchmark scale.
    let opts = GenOptions {
        scale: placesim::scale_from_env(0.05),
        seed: 1994,
    };
    let app = PreparedApp::prepare(&spec("water").expect("known app"), &opts);

    let mut scenarios = Vec::new();
    let (prog, map) = hot_loop_program();
    scenarios.push(Scenario {
        name: "p1-hot-loop",
        note: "1 processor, 4 contexts, cache-resident: maximal hit-run batching",
        prog,
        map,
        config: ArchConfig::paper_default(),
    });
    for p in [1usize, 4, 8] {
        let name = match p {
            1 => "p1-water",
            4 => "p4-water",
            _ => "p8-water",
        };
        let note = if p == 1 {
            "water multiprogrammed on 1 processor: long uncontested hit runs"
        } else {
            "paper configuration: hit runs bounded by the per-processor lookahead"
        };
        scenarios.push(Scenario {
            name,
            note,
            prog: app.prog.clone(),
            map: PlacementAlgorithm::LoadBal
                .place(&app.placement_inputs(), p)
                .expect("placement"),
            config: app.config,
        });
    }

    let gauss = PreparedApp::prepare(&spec("gauss").expect("known app"), &opts);
    scenarios.push(Scenario {
        name: "p16-gauss",
        note: "gauss under SHARE-REFS on 16 processors: lockstep events every cycle",
        map: PlacementAlgorithm::ShareRefs
            .place(&gauss.placement_inputs(), 16)
            .expect("placement"),
        prog: gauss.prog,
        config: gauss.config,
    });

    let samples = 9;
    let wall = Instant::now();
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for s in &scenarios {
        let refs = s.prog.total_refs() as f64;
        // One untimed run feeds the manifest's per-scenario summary.
        let stats = simulate(&s.prog, &s.map, &s.config).unwrap();
        entries.push(ManifestEntry::from_stats(
            s.name,
            s.map.processor_count(),
            &stats,
        ));
        let (batched, batched_min, batched_max) = timed_secs(samples, || {
            drop(simulate(&s.prog, &s.map, &s.config).unwrap());
        });
        let (refr, refr_min, refr_max) = timed_secs(samples, || {
            drop(reference::simulate(&s.prog, &s.map, &s.config).unwrap());
        });
        let speedup = refr / batched;
        println!(
            "{:<12} {:>12.0} refs/s batched | {:>12.0} refs/s reference | {:.2}x ({:.2}-{:.2}x)",
            s.name,
            refs / batched,
            refs / refr,
            speedup,
            refr_min / batched_max,
            refr_max / batched_min
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"note\": \"{}\",\n",
                "      \"total_refs\": {},\n",
                "      \"batched_refs_per_sec\": {:.0},\n",
                "      \"batched_refs_per_sec_range\": [{:.0}, {:.0}],\n",
                "      \"reference_refs_per_sec\": {:.0},\n",
                "      \"reference_refs_per_sec_range\": [{:.0}, {:.0}],\n",
                "      \"speedup\": {:.3},\n",
                "      \"speedup_range\": [{:.3}, {:.3}]\n",
                "    }}"
            ),
            s.name,
            s.note,
            s.prog.total_refs(),
            refs / batched,
            refs / batched_max,
            refs / batched_min,
            refs / refr,
            refs / refr_max,
            refs / refr_min,
            speedup,
            refr_min / batched_max,
            refr_max / batched_min
        ));
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"engine-throughput\",\n",
            "  \"unit\": \"references per second, median of {} runs; ranges are [slowest, fastest]\",\n",
            "  \"engines\": {{\n",
            "    \"batched\": \"per-processor hit lookahead + flat cache slab + fused access\",\n",
            "    \"reference\": \"one heap event per reference (pre-optimisation engine)\"\n",
            "  }},\n",
            "  \"host_cpus\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}\n"
        ),
        samples,
        host_cpus,
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(out, json).expect("write BENCH_engine.json");
    println!("wrote {out}");

    // The run manifest: the machine-readable receipt of what this bench
    // actually simulated (schema-validated and atomically written).
    let mut manifest = RunManifest::new("bench_engine", "water", &app.config);
    manifest.scale = Some(opts.scale);
    manifest.seed = Some(opts.seed);
    manifest.wall_secs = wall.elapsed().as_secs_f64();
    manifest.entries = entries;
    let manifest_out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.manifest.json"
    );
    manifest
        .write(std::path::Path::new(manifest_out))
        .expect("write BENCH_engine.manifest.json");
    println!("wrote {manifest_out}");
}
