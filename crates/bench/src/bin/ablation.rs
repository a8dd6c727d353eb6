//! Design-choice ablation study: how each architectural knob moves the
//! *simulated* results, and whether the paper's conclusion (load balance
//! beats sharing-based placement) is robust to them.
//!
//! Knobs swept: context-switch cost, memory latency, cache line size,
//! and upgrade stalling. For each configuration we report LOAD-BAL and
//! SHARE-REFS execution times normalized to RANDOM — the paper's
//! conclusion holds whenever LOAD-BAL ≤ RANDOM and SHARE-REFS shows no
//! consistent advantage.

use placesim::report::{fmt_f, TextTable};
use placesim::run_placement_with_config;
use placesim_bench::{harness_opts, prepare};
use placesim_machine::{simulate, ArchConfig, ArchConfigBuilder};
use placesim_obs::outln;
use placesim_placement::{kl, PlacementAlgorithm};

fn main() {
    let apps = ["locusroute", "fft"];
    let processors = 8;
    outln!(
        "Ablation: robustness of the placement conclusion to architectural\n\
         knobs (p = {processors}, scale {})\n",
        harness_opts().scale
    );

    let knobs: Vec<(&str, ArchConfig)> = vec![
        (
            "baseline (switch 6, latency 50, line 32)",
            ArchConfig::paper_default(),
        ),
        (
            "switch 0",
            build(|b| {
                b.context_switch(0);
            }),
        ),
        (
            "switch 16",
            build(|b| {
                b.context_switch(16);
            }),
        ),
        (
            "latency 25",
            build(|b| {
                b.memory_latency(25);
            }),
        ),
        (
            "latency 200",
            build(|b| {
                b.memory_latency(200);
            }),
        ),
        (
            "line 16",
            build(|b| {
                b.line_size(16);
            }),
        ),
        (
            "line 128",
            build(|b| {
                b.line_size(128);
            }),
        ),
        (
            "upgrade stalls",
            build(|b| {
                b.upgrade_stalls(true);
            }),
        ),
        (
            "memory occupancy 8",
            build(|b| {
                b.memory_occupancy(8);
            }),
        ),
        (
            "2-way associative",
            build(|b| {
                b.associativity(2);
            }),
        ),
        (
            "4-way associative",
            build(|b| {
                b.associativity(4);
            }),
        ),
    ];

    for app_name in apps {
        let app = prepare(app_name);
        outln!("== {app_name} ==");
        let mut t = TextTable::new(["knob", "LOAD-BAL/RANDOM", "SHARE-REFS/RANDOM"]);
        for (label, base) in &knobs {
            // Use the app's paper cache size with the knob applied.
            let config = ArchConfigBuilder::from(*base)
                .cache_size(app.spec.cache_bytes())
                .build()
                .expect("valid config");
            let rnd =
                run_placement_with_config(&app, PlacementAlgorithm::Random, processors, &config)
                    .expect("random");
            let lb =
                run_placement_with_config(&app, PlacementAlgorithm::LoadBal, processors, &config)
                    .expect("load-bal");
            let sr =
                run_placement_with_config(&app, PlacementAlgorithm::ShareRefs, processors, &config)
                    .expect("share-refs");
            let r = rnd.execution_time() as f64;
            t.row([
                label.to_string(),
                fmt_f(lb.execution_time() as f64 / r, 3),
                fmt_f(sr.execution_time() as f64 / r, 3),
            ]);
        }
        outln!("{t}");

        // A stronger sharing optimizer: Kernighan-Lin refinement of the
        // SHARE-REFS placement (maximizes in-cluster shared references
        // far beyond the greedy). If sharing-based placement could win,
        // this is where it would show.
        let config = ArchConfigBuilder::from(ArchConfig::paper_default())
            .cache_size(app.spec.cache_bytes())
            .build()
            .expect("valid config");
        let inputs = app.placement_inputs();
        let seed_map = PlacementAlgorithm::ShareRefs
            .place(&inputs, processors)
            .expect("share-refs");
        let before = kl::in_cluster_weight(&seed_map, app.sharing.pair_refs_matrix());
        let (kl_map, after) =
            kl::refine(&seed_map, app.sharing.pair_refs_matrix()).expect("kl refine");
        let kl_time = simulate(&app.prog, &kl_map, &config)
            .expect("simulate")
            .execution_time();
        let rnd_time =
            run_placement_with_config(&app, PlacementAlgorithm::Random, processors, &config)
                .expect("random")
                .execution_time();
        outln!(
            "KL-refined SHARE-REFS: in-cluster sharing {} -> {} (+{:.1}%), exec/RANDOM = {:.3}\n",
            before,
            after,
            100.0 * (after as f64 / before.max(1) as f64 - 1.0),
            kl_time as f64 / rnd_time as f64
        );
    }
}

fn build(f: impl FnOnce(&mut ArchConfigBuilder)) -> ArchConfig {
    let mut b = ArchConfig::builder();
    f(&mut b);
    b.build().expect("valid ablation config")
}
