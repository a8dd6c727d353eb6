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

    /// Places the app's threads with `algorithm` onto `processors`
    /// processors.
    ///
    /// # Errors
    ///
    /// [`Error::ProbeMissing`] for [`PlacementAlgorithm::CoherenceTraffic`]
    /// before [`PreparedApp::run_probe`]; otherwise propagates placement
    /// errors.
    pub fn place(
        &self,
        algorithm: PlacementAlgorithm,
        processors: usize,
    ) -> Result<PlacementMap, Error> {
        if algorithm == PlacementAlgorithm::CoherenceTraffic && self.traffic.is_none() {
            return Err(Error::ProbeMissing);
        }
        Ok(algorithm.place(&self.placement_inputs(), processors)?)
    }

    /// Simulates `map` under the app's configuration with an online
    /// [`AttrCollector`] attached (see [`run_placement_attributed`]).
    pub(crate) fn simulate_attributed(
        &self,
        map: &PlacementMap,
        acfg: AttributionConfig,
    ) -> Result<(SimStats, AttrCollector), Error> {
        let mut obs = EngineObs {
            attribution: Some(AttrCollector::new(acfg)),
            ..EngineObs::default()
        };
        let stats = simulate_probed(&self.prog, map, &self.config, &mut obs)?;
        let attr = obs.attribution.expect("the recorder keeps its collector");
        Ok((stats, attr))
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
    let map = app.place(algorithm, processors)?;
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
    let map = app.place(algorithm, processors)?;
    let (stats, attr) = app.simulate_attributed(&map, acfg)?;
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

/// The cells of an `algorithms` × `processor_counts` grid in
/// algorithm-major order: cell `i` of a sweep is element `i`.
pub fn grid_cells(
    algorithms: &[PlacementAlgorithm],
    processor_counts: &[usize],
) -> Vec<(PlacementAlgorithm, usize)> {
    algorithms
        .iter()
        .flat_map(|&a| processor_counts.iter().map(move |&p| (a, p)))
        .collect()
}

/// Groups the cells of one sweep by placement: each group lists the
/// positions of one distinct map in `maps`, ascending, and groups come
/// in order of their first (leading) position.
///
/// Within a sweep the trace and [`ArchConfig`] are fixed, so cells with
/// equal maps have equal statistics and one simulation serves the whole
/// group. The key is the exact map: two maps that differ only by
/// processor labels stay apart, because per-processor statistics and
/// the engine's tie order depend on the processor index.
pub fn group_equal_maps<'a>(maps: impl IntoIterator<Item = &'a PlacementMap>) -> Vec<Vec<usize>> {
    let mut leaders: Vec<&PlacementMap> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, map) in maps.into_iter().enumerate() {
        match leaders.iter().position(|&l| l == map) {
            Some(g) => groups[g].push(i),
            None => {
                leaders.push(map);
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Runs every `(algorithm, processors)` combination in parallel worker
/// threads and returns results in deterministic (algorithm-major) order.
///
/// Every cell is placed first; then each group of cells with equal maps
/// ([`group_equal_maps`]) is simulated once and every member gets the
/// group's statistics. A failure short-circuits its phase: the shared
/// stop flag inside [`try_parallel_map`] keeps workers from claiming
/// further cells or groups.
///
/// # Errors
///
/// Returns the lowest-indexed (algorithm-major) placement error or,
/// when every cell places, the simulation error of the lowest-indexed
/// group.
pub fn run_sweep(
    app: &PreparedApp,
    algorithms: &[PlacementAlgorithm],
    processor_counts: &[usize],
) -> Result<Vec<ExperimentResult>, Error> {
    sweep_with_config(app, algorithms, processor_counts, &app.config)
}

/// [`run_sweep`] under an explicit architecture.
pub(crate) fn sweep_with_config(
    app: &PreparedApp,
    algorithms: &[PlacementAlgorithm],
    processor_counts: &[usize],
    config: &ArchConfig,
) -> Result<Vec<ExperimentResult>, Error> {
    let cells = grid_cells(algorithms, processor_counts);
    let maps = try_parallel_map(&cells, |&(algo, p)| app.place(algo, p))?;
    let groups = group_equal_maps(&maps);
    let group_stats = try_parallel_map(&groups, |members| {
        simulate(&app.prog, &maps[members[0]], config)
    })?;
    let mut stats: Vec<Option<SimStats>> = vec![None; cells.len()];
    for (members, s) in groups.iter().zip(&group_stats) {
        for &i in members {
            stats[i] = Some(s.clone());
        }
    }
    Ok(cells
        .into_iter()
        .zip(maps)
        .zip(stats)
        .map(|(((algorithm, processors), map), stats)| ExperimentResult {
            algorithm,
            processors,
            map,
            stats: stats.expect("every cell belongs to a group"),
        })
        .collect())
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

    /// Generation and the sharded sharing scan give the same trace and
    /// analysis when their pools run inline, as they do inside a
    /// service job, as at top level.
    #[test]
    fn the_front_end_inside_a_pool_matches_the_top_level() {
        use placesim_trace::par::{max_workers, with_pool_mark};
        let front_end = |name: &str, scale: f64| {
            let opts = GenOptions { scale, seed: 1 };
            let (prog, access) = generate_with_access(&spec(name).unwrap(), &opts);
            (prog, SharingAnalysis::measure_access(&access))
        };
        // The scales of the service benchmark's job mix.
        for (name, scale) in [("water", 0.02), ("locusroute", 0.01), ("fft", 0.01)] {
            let top = front_end(name, scale);
            let inline = with_pool_mark(true, || {
                assert_eq!(max_workers(), 1);
                front_end(name, scale)
            });
            assert!(top.0 == inline.0, "{name}: traces differ");
            assert!(top.1 == inline.1, "{name}: sharing analyses differ");
        }
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

    #[test]
    fn groups_key_on_the_exact_map() {
        let map = |clusters: Vec<Vec<usize>>| PlacementMap::from_clusters(clusters).unwrap();
        let a = map(vec![vec![0, 1], vec![2]]);
        // The same clusters on swapped processors are a different map.
        let relabelled = map(vec![vec![2], vec![0, 1]]);
        let maps = [
            a.clone(),
            relabelled.clone(),
            a,
            relabelled.clone(),
            relabelled,
        ];
        assert_eq!(group_equal_maps(&maps), vec![vec![0, 2], vec![1, 3, 4]]);
        assert!(group_equal_maps(&[]).is_empty());
    }

    #[test]
    fn sweep_shares_simulations_without_changing_results() {
        let app = tiny("gauss");
        let algos = [
            PlacementAlgorithm::ShareRefs,
            PlacementAlgorithm::ShareAddr,
            PlacementAlgorithm::MinPriv,
        ];
        let results = run_sweep(&app, &algos, &[2, 4]).unwrap();
        let maps: Vec<&PlacementMap> = results.iter().map(|r| &r.map).collect();
        assert!(group_equal_maps(maps).len() < results.len());
        for (r, (algorithm, procs)) in results.iter().zip(grid_cells(&algos, &[2, 4])) {
            let alone = run_placement(&app, algorithm, procs).unwrap();
            assert_eq!((r.algorithm, r.processors), (algorithm, procs));
            assert_eq!(r.map, alone.map);
            assert_eq!(r.stats, alone.stats);
        }
    }
}
