//! Prepared applications and placement experiments.

use crate::error::Error;
use placesim_analysis::{SharingAnalysis, SymMatrix};
use placesim_machine::{
    probe_coherence, simulate, simulate_probed, ArchConfig, AttrCollector, AttributionConfig,
    EngineObs, ProbeResult, SimStats,
};
use placesim_placement::{thread_lengths, PlacementAlgorithm, PlacementInputs, PlacementMap};
use placesim_trace::par::try_parallel_map;
use placesim_trace::ProgramTrace;
use placesim_workloads::{generate_with_access, AppSpec, GenOptions};

/// An application prepared for experimentation: its trace, static
/// analysis, per-thread lengths, per-app cache configuration and —
/// optionally — the measured coherence-traffic matrix.
#[derive(Debug)]
pub struct PreparedApp {
    /// The spec the trace was generated from.
    pub spec: AppSpec,
    /// The generated program trace.
    pub prog: ProgramTrace,
    /// Static sharing analysis (input to the placement algorithms).
    pub sharing: SharingAnalysis,
    /// Per-thread dynamic lengths in instructions.
    pub lengths: Vec<u64>,
    /// The paper's cache configuration for this app (32 or 64 KB).
    pub config: ArchConfig,
    /// Generation options used (records scale and seed).
    pub gen: GenOptions,
    /// Measured thread-pair coherence traffic, after
    /// [`PreparedApp::run_probe`].
    pub traffic: Option<SymMatrix<u64>>,
}

impl PreparedApp {
    /// Generates and analyzes an application through the fused front
    /// end: the generator emits its access profile alongside the trace,
    /// so the sharing analysis never re-scans the references. The result
    /// is bit-identical to analyzing the trace (the differential
    /// proptests in `placesim-workloads` pin this).
    ///
    /// # Panics
    ///
    /// Panics if the spec's cache size is invalid (cannot happen for the
    /// built-in suite).
    pub fn prepare(spec: &AppSpec, opts: &GenOptions) -> Self {
        let (prog, access) = generate_with_access(spec, opts);
        let sharing = SharingAnalysis::measure_access(&access);
        drop(access);
        let lengths = thread_lengths(&prog);
        let config = ArchConfig::paper_default()
            .with_cache_size(spec.cache_bytes())
            .expect("suite cache sizes are powers of two");
        PreparedApp {
            spec: spec.clone(),
            prog,
            sharing,
            lengths,
            config,
            gen: *opts,
            traffic: None,
        }
    }

    /// Wraps an existing trace (e.g. loaded from disk) instead of
    /// generating one.
    pub fn from_trace(spec: &AppSpec, prog: ProgramTrace, opts: &GenOptions) -> Self {
        let sharing = SharingAnalysis::measure(&prog);
        let lengths = thread_lengths(&prog);
        let config = ArchConfig::paper_default()
            .with_cache_size(spec.cache_bytes())
            .expect("suite cache sizes are powers of two");
        PreparedApp {
            spec: spec.clone(),
            prog,
            sharing,
            lengths,
            config,
            gen: *opts,
            traffic: None,
        }
    }

    /// Runs the one-thread-per-processor coherence probe (paper §4.2)
    /// and caches its traffic matrix for
    /// [`PlacementAlgorithm::CoherenceTraffic`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] if the app has more than 128 threads.
    pub fn run_probe(&mut self) -> Result<ProbeResult, Error> {
        let result = probe_coherence(&self.prog, &self.config)?;
        self.traffic = Some(result.traffic.clone());
        Ok(result)
    }

    /// The placement inputs for this app.
    pub fn placement_inputs(&self) -> PlacementInputs<'_> {
        let mut inputs =
            PlacementInputs::new(&self.sharing, &self.lengths).with_seed(self.gen.seed);
        if let Some(traffic) = &self.traffic {
            inputs = inputs.with_traffic(traffic);
        }
        inputs
    }

    /// Thread count of the application.
    pub fn threads(&self) -> usize {
        self.prog.thread_count()
    }
}

/// Outcome of one placement + simulation run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Algorithm that produced the placement.
    pub algorithm: PlacementAlgorithm,
    /// Processor count.
    pub processors: usize,
    /// The placement used.
    pub map: PlacementMap,
    /// Simulation statistics.
    pub stats: SimStats,
}

impl ExperimentResult {
    /// Execution time (max finish over processors).
    pub fn execution_time(&self) -> u64 {
        self.stats.execution_time()
    }
}

/// Places `app`'s threads with `algorithm` onto `processors` processors
/// and simulates, using the app's per-paper cache configuration.
///
/// # Errors
///
/// Propagates placement and simulation errors; see [`Error`].
pub fn run_placement(
    app: &PreparedApp,
    algorithm: PlacementAlgorithm,
    processors: usize,
) -> Result<ExperimentResult, Error> {
    run_placement_with_config(app, algorithm, processors, &app.config)
}

/// Like [`run_placement`] but with an explicit architecture (used for the
/// 8 MB "infinite cache" experiments and ablations).
///
/// # Errors
///
/// Propagates placement and simulation errors; see [`Error`].
pub fn run_placement_with_config(
    app: &PreparedApp,
    algorithm: PlacementAlgorithm,
    processors: usize,
    config: &ArchConfig,
) -> Result<ExperimentResult, Error> {
    if algorithm == PlacementAlgorithm::CoherenceTraffic && app.traffic.is_none() {
        return Err(Error::ProbeMissing);
    }
    let map = algorithm.place(&app.placement_inputs(), processors)?;
    let stats = simulate(&app.prog, &map, config)?;
    Ok(ExperimentResult {
        algorithm,
        processors,
        map,
        stats,
    })
}

/// Like [`run_placement`], but also attributes every coherence event to
/// its (address, writer-thread, victim-thread) triple through an online
/// [`AttrCollector`]. The statistics are bit-identical to
/// [`run_placement`]'s — attribution observes, never perturbs.
///
/// # Errors
///
/// Propagates placement and simulation errors; see [`Error`].
pub fn run_placement_attributed(
    app: &PreparedApp,
    algorithm: PlacementAlgorithm,
    processors: usize,
    acfg: AttributionConfig,
) -> Result<(ExperimentResult, AttrCollector), Error> {
    if algorithm == PlacementAlgorithm::CoherenceTraffic && app.traffic.is_none() {
        return Err(Error::ProbeMissing);
    }
    let map = algorithm.place(&app.placement_inputs(), processors)?;
    let mut obs = EngineObs {
        attribution: Some(AttrCollector::new(acfg)),
        ..EngineObs::default()
    };
    let stats = simulate_probed(&app.prog, &map, &app.config, &mut obs)?;
    let attr = obs.attribution.expect("the recorder keeps its collector");
    Ok((
        ExperimentResult {
            algorithm,
            processors,
            map,
            stats,
        },
        attr,
    ))
}

/// Runs every `(algorithm, processors)` combination in parallel worker
/// threads and returns results in deterministic (algorithm-major) order.
///
/// A failing combination short-circuits the sweep: the shared stop flag
/// inside [`try_parallel_map`] keeps workers from claiming further
/// combinations, so a bad grid fails in one simulation's time rather
/// than the whole grid's.
///
/// # Errors
///
/// Returns the lowest-indexed (algorithm-major) error encountered.
pub fn run_sweep(
    app: &PreparedApp,
    algorithms: &[PlacementAlgorithm],
    processor_counts: &[usize],
) -> Result<Vec<ExperimentResult>, Error> {
    let combos: Vec<(PlacementAlgorithm, usize)> = algorithms
        .iter()
        .flat_map(|&a| processor_counts.iter().map(move |&p| (a, p)))
        .collect();
    try_parallel_map(&combos, |&(algo, p)| run_placement(app, algo, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_workloads::{spec, GenOptions};

    fn tiny(name: &str) -> PreparedApp {
        PreparedApp::prepare(
            &spec(name).unwrap(),
            &GenOptions {
                scale: 0.002,
                seed: 3,
            },
        )
    }

    #[test]
    fn prepare_builds_everything() {
        let app = tiny("water");
        assert_eq!(app.threads(), 16);
        assert_eq!(app.lengths.len(), 16);
        assert_eq!(app.config.cache_size(), 32 * 1024);
        assert!(app.traffic.is_none());
    }

    #[test]
    fn prepare_fused_analysis_matches_trace_analysis() {
        let app = tiny("gauss");
        assert_eq!(app.sharing, SharingAnalysis::measure(&app.prog));
        assert_eq!(app.sharing, SharingAnalysis::measure_reference(&app.prog));
    }

    #[test]
    fn run_placement_produces_stats() {
        let app = tiny("water");
        let r = run_placement(&app, PlacementAlgorithm::Random, 4).unwrap();
        assert_eq!(r.processors, 4);
        assert_eq!(r.stats.total_refs(), app.prog.total_refs());
        assert!(r.execution_time() > 0);
    }

    #[test]
    fn coherence_requires_probe() {
        let mut app = tiny("water");
        assert!(matches!(
            run_placement(&app, PlacementAlgorithm::CoherenceTraffic, 4),
            Err(Error::ProbeMissing)
        ));
        let probe = app.run_probe().unwrap();
        assert!(probe.stats.total_refs() > 0);
        let r = run_placement(&app, PlacementAlgorithm::CoherenceTraffic, 4).unwrap();
        assert_eq!(r.processors, 4);
    }

    #[test]
    fn sweep_covers_grid_in_order() {
        let app = tiny("barnes-hut");
        let algos = [PlacementAlgorithm::Random, PlacementAlgorithm::LoadBal];
        let procs = [2, 4];
        let results = run_sweep(&app, &algos, &procs).unwrap();
        assert_eq!(results.len(), 4);
        let got: Vec<(PlacementAlgorithm, usize)> = results
            .iter()
            .map(|r| (r.algorithm, r.processors))
            .collect();
        assert_eq!(
            got,
            vec![
                (PlacementAlgorithm::Random, 2),
                (PlacementAlgorithm::Random, 4),
                (PlacementAlgorithm::LoadBal, 2),
                (PlacementAlgorithm::LoadBal, 4),
            ]
        );
    }

    #[test]
    fn explicit_config_overrides_cache() {
        let app = tiny("water");
        let inf = placesim_machine::ArchConfig::infinite_cache();
        let r = run_placement_with_config(&app, PlacementAlgorithm::LoadBal, 2, &inf).unwrap();
        assert_eq!(r.stats.total_misses().conflicts(), 0);
    }
}
