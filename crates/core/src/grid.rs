//! Full experiment grids: app × algorithm × processor-count sweeps with
//! a tidy record per cell, for custom studies beyond the paper's fixed
//! tables.

use crate::error::Error;
use crate::experiment::{sweep_with_config, PreparedApp};
use crate::export::to_csv;
use placesim_machine::{ArchConfig, MissBreakdown};
use placesim_placement::PlacementAlgorithm;

/// One cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct GridRecord {
    /// Application name.
    pub app: String,
    /// Placement algorithm.
    pub algorithm: PlacementAlgorithm,
    /// Processor count.
    pub processors: usize,
    /// Hardware contexts on the fullest processor.
    pub contexts: usize,
    /// Execution time in cycles.
    pub execution_time: u64,
    /// Aggregated miss components.
    pub misses: MissBreakdown,
    /// Miss rate over all references (0–1).
    pub miss_rate: f64,
    /// Max processor load over ideal load (1.0 = perfectly balanced).
    pub load_imbalance: f64,
    /// Coherence traffic (invalidations + invalidation misses).
    pub coherence_traffic: u64,
}

/// Runs the full grid for one prepared application, in parallel,
/// simulating each distinct placement once (see [`crate::run_sweep`]).
///
/// Uses `config` if given, the app's paper cache configuration
/// otherwise.
///
/// # Errors
///
/// Returns the first placement/simulation error encountered.
pub fn run_grid(
    app: &PreparedApp,
    algorithms: &[PlacementAlgorithm],
    processor_counts: &[usize],
    config: Option<&ArchConfig>,
) -> Result<Vec<GridRecord>, Error> {
    let cfg = config.unwrap_or(&app.config);
    let results = sweep_with_config(app, algorithms, processor_counts, cfg)?;
    Ok(results
        .into_iter()
        .map(|r| GridRecord {
            app: app.spec.name.to_owned(),
            algorithm: r.algorithm,
            processors: r.processors,
            contexts: r.map.max_cluster_size(),
            execution_time: r.execution_time(),
            misses: r.stats.total_misses(),
            miss_rate: r.stats.miss_rate(),
            load_imbalance: r.map.load_imbalance(&app.lengths),
            coherence_traffic: r.stats.coherence_traffic(),
        })
        .collect())
}

/// Renders grid records as long-format CSV.
pub fn grid_to_csv(records: &[GridRecord]) -> String {
    let rows = records.iter().map(|r| {
        vec![
            r.app.clone(),
            r.algorithm.paper_name().to_owned(),
            r.processors.to_string(),
            r.contexts.to_string(),
            r.execution_time.to_string(),
            r.misses.compulsory.to_string(),
            r.misses.intra_thread_conflict.to_string(),
            r.misses.inter_thread_conflict.to_string(),
            r.misses.invalidation.to_string(),
            format!("{:.6}", r.miss_rate),
            format!("{:.4}", r.load_imbalance),
            r.coherence_traffic.to_string(),
        ]
    });
    to_csv(
        [
            "app",
            "algorithm",
            "processors",
            "contexts",
            "execution_time",
            "compulsory",
            "intra_conflict",
            "inter_conflict",
            "invalidation",
            "miss_rate",
            "load_imbalance",
            "coherence_traffic",
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_workloads::{spec, GenOptions};

    fn tiny() -> PreparedApp {
        PreparedApp::prepare(
            &spec("barnes-hut").unwrap(),
            &GenOptions {
                scale: 0.002,
                seed: 6,
            },
        )
    }

    #[test]
    fn grid_covers_all_cells() {
        let app = tiny();
        let algos = [PlacementAlgorithm::Random, PlacementAlgorithm::LoadBal];
        let records = run_grid(&app, &algos, &[2, 4], None).unwrap();
        assert_eq!(records.len(), 4);
        for r in &records {
            assert!(r.execution_time > 0);
            assert!(r.miss_rate > 0.0 && r.miss_rate < 1.0);
            assert!(r.load_imbalance >= 1.0 - 1e-9);
            assert_eq!(r.contexts, app.threads().div_ceil(r.processors));
        }
    }

    #[test]
    fn grid_with_explicit_config() {
        let app = tiny();
        let inf = ArchConfig::infinite_cache();
        let records = run_grid(&app, &[PlacementAlgorithm::Random], &[2], Some(&inf)).unwrap();
        assert_eq!(records[0].misses.conflicts(), 0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let app = tiny();
        let records = run_grid(&app, &[PlacementAlgorithm::Random], &[2], None).unwrap();
        let csv = grid_to_csv(&records);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("app,algorithm,processors"));
        assert!(lines[1].starts_with("barnes-hut,RANDOM,2,"));
    }
}
