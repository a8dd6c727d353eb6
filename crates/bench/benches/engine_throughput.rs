//! Criterion comparison of the batched hit-run engine against the
//! per-reference reference engine, in references per second.
//!
//! `hot-loop` is the fast path's best case (one processor, four
//! cache-resident contexts, no competing events); `water-p4` is the
//! paper's configuration, where each pop runs a processor's hits up to
//! its next globally visible reference, bounded by the per-processor
//! hit lookahead. `BENCH_engine.json` (see the `bench_engine` binary)
//! records the same comparison as committed numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use placesim::PreparedApp;
use placesim_machine::{reference, simulate, ArchConfig};
use placesim_placement::{PlacementAlgorithm, PlacementMap};
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use placesim_workloads::{spec, GenOptions};

fn hot_loop_program() -> (ProgramTrace, PlacementMap) {
    let threads: Vec<ThreadTrace> = (0..4u64)
        .map(|t| {
            (0..50_000u64)
                .map(|i| MemRef::read(Address::new(t * 0x1000 + (i % 4) * 64)))
                .collect()
        })
        .collect();
    let prog = ProgramTrace::new("hot-loop", threads);
    let map = PlacementMap::from_clusters(vec![vec![0, 1, 2, 3]]).unwrap();
    (prog, map)
}

fn bench_engines(c: &mut Criterion) {
    let opts = GenOptions {
        scale: 0.02,
        seed: 1994,
    };
    let app = PreparedApp::prepare(&spec("water").unwrap(), &opts);
    let water_map = PlacementAlgorithm::LoadBal
        .place(&app.placement_inputs(), 4)
        .expect("placement");
    let (hot_prog, hot_map) = hot_loop_program();

    let cases: [(&str, &ProgramTrace, &PlacementMap, ArchConfig); 2] = [
        (
            "hot-loop-p1",
            &hot_prog,
            &hot_map,
            ArchConfig::paper_default(),
        ),
        ("water-p4", &app.prog, &water_map, app.config),
    ];

    let mut group = c.benchmark_group("engine-throughput");
    for (name, prog, map, config) in &cases {
        group.throughput(Throughput::Elements(prog.total_refs()));
        group.bench_with_input(BenchmarkId::new("batched", name), prog, |b, prog| {
            b.iter(|| simulate(prog, map, config).expect("simulate"));
        });
        group.bench_with_input(BenchmarkId::new("reference", name), prog, |b, prog| {
            b.iter(|| reference::simulate(prog, map, config).expect("simulate"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_engines
}
criterion_main!(benches);
