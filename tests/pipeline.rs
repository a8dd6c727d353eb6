//! End-to-end pipeline tests: workload generation → static analysis →
//! placement → simulation, across crates.

use placesim_repro::prelude::*;

fn opts() -> GenOptions {
    GenOptions {
        scale: 0.003,
        seed: 2024,
    }
}

#[test]
fn every_app_runs_every_algorithm_end_to_end() {
    for app_spec in suite() {
        let mut app = PreparedApp::prepare(&app_spec, &opts());
        // Skip probe for the 127-thread app to keep this test fast; the
        // static algorithms don't need it.
        let algos: Vec<PlacementAlgorithm> = PlacementAlgorithm::STATIC.to_vec();
        let p = 4.min(app.threads());
        for algo in algos {
            let r = placesim::run_placement(&app, algo, p)
                .unwrap_or_else(|e| panic!("{} {algo}: {e}", app_spec.name));
            assert_eq!(
                r.stats.total_refs(),
                app.prog.total_refs(),
                "{} {algo}: reference conservation",
                app_spec.name
            );
            assert!(r.execution_time() > 0);
        }
        // One dynamic-probe-driven placement per app (cheap at this scale).
        app.run_probe().expect("probe");
        let r = placesim::run_placement(&app, PlacementAlgorithm::CoherenceTraffic, p)
            .expect("coherence placement");
        assert!(r.execution_time() > 0);
    }
}

#[test]
fn trace_io_roundtrip_preserves_analysis() {
    use placesim_repro::analysis::SharingAnalysis;
    use placesim_repro::trace::stream;

    let spec = spec("pverify").unwrap();
    let prog = generate(&spec, &opts());
    let bytes = stream::to_bytes(&prog).expect("serialize");
    let back = stream::from_bytes(&bytes).expect("deserialize");
    assert_eq!(back, prog);

    let a = SharingAnalysis::measure(&prog);
    let b = SharingAnalysis::measure(&back);
    assert_eq!(
        a, b,
        "analysis must be identical on the round-tripped trace"
    );
}

#[test]
fn prepared_app_from_trace_matches_prepare() {
    let spec = spec("patch").unwrap();
    let prog = generate(&spec, &opts());
    let via_trace = PreparedApp::from_trace(&spec, prog, &opts());
    let via_prepare = PreparedApp::prepare(&spec, &opts());
    assert_eq!(via_trace.prog, via_prepare.prog);
    assert_eq!(via_trace.lengths, via_prepare.lengths);
}

#[test]
fn simulation_is_deterministic_across_sweeps() {
    let app = PreparedApp::prepare(&spec("grav").unwrap(), &opts());
    let algos = [PlacementAlgorithm::LoadBal, PlacementAlgorithm::ShareRefs];
    let a = placesim::run_sweep(&app, &algos, &[2, 4]).unwrap();
    let b = placesim::run_sweep(&app, &algos, &[2, 4]).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.stats, y.stats);
        assert_eq!(x.map, y.map);
    }
}

#[test]
fn context_count_follows_placement() {
    // The machine sizes hardware contexts from the placement map: with
    // p processors and t threads the largest cluster is ⌈t/p⌉ for every
    // thread-balanced algorithm.
    let app = PreparedApp::prepare(&spec("water").unwrap(), &opts());
    for p in [2usize, 4, 8] {
        let r = placesim::run_placement(&app, PlacementAlgorithm::Random, p).unwrap();
        assert_eq!(r.map.max_cluster_size(), app.threads().div_ceil(p));
    }
}

#[test]
fn twelve_algorithm_manifested_sweep_emits_valid_metrics() {
    // The full clustering set (the twelve sharing-based algorithms) on
    // one app, through the journaled sweep's manifest. Under `--features
    // audit` every simulation in here is re-validated by the engine's
    // post-drain invariant auditor; the manifest must always pass its
    // own schema check and agree with the results it summarizes.
    use placesim::manifest::RunManifest;
    use std::sync::Arc;

    let app = Arc::new(PreparedApp::prepare(&spec("water").unwrap(), &opts()));
    let algos: Vec<PlacementAlgorithm> = PlacementAlgorithm::SHARING_BASED
        .into_iter()
        .chain(PlacementAlgorithm::STATIC.into_iter().filter(|a| {
            matches!(
                a.paper_name(),
                n if n.ends_with("+LB") && n != "LOAD-BAL"
            )
        }))
        .collect();
    assert_eq!(algos.len(), 12, "the paper's twelve clustering algorithms");

    let dir = std::env::temp_dir().join(format!("placesim-pipeline-twelve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = placesim::run_supervised_sweep(
        &app,
        &algos,
        &[4],
        &dir.join("sweep.journal"),
        false,
        &placesim::SupervisorConfig::new(),
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(sweep.is_complete());
    let manifest = sweep.manifest();

    let results = placesim::run_sweep(&app, &algos, &[4]).unwrap();
    assert_eq!(results.len(), 12);
    assert_eq!(manifest.entries.len(), 12);
    let json = manifest.to_json();
    RunManifest::validate(&json).unwrap();
    for (r, e) in results.iter().zip(&manifest.entries) {
        assert_eq!(e.algorithm, r.algorithm.paper_name());
        assert_eq!(e.execution_time, r.execution_time());
        assert_eq!(e.total_refs, r.stats.total_refs());
        assert!(json.contains(&format!("\"algorithm\": \"{}\"", e.algorithm)));
    }
}
