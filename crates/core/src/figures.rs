//! The series behind the paper's Figures 2–5.

use crate::error::Error;
use crate::experiment::{run_sweep, PreparedApp};
use placesim_machine::MissBreakdown;
use placesim_placement::PlacementAlgorithm;

/// Processor counts the paper sweeps, filtered to those feasible for a
/// `threads`-thread application (at least one thread per processor).
pub fn default_processor_counts(threads: usize) -> Vec<usize> {
    [2usize, 4, 8, 16]
        .into_iter()
        .filter(|&p| p <= threads)
        .collect()
}

/// Execution time of every static placement algorithm, normalized to
/// RANDOM, across processor configurations — one of the paper's
/// Figure 2/3/4 bar charts.
#[derive(Debug, Clone)]
pub struct ExecTimeFigure {
    /// Application name.
    pub app: String,
    /// Processor counts on the X axis.
    pub processor_counts: Vec<usize>,
    /// Algorithms (one bar group each).
    pub algorithms: Vec<PlacementAlgorithm>,
    /// `raw[a][p]` = execution time of `algorithms[a]` at
    /// `processor_counts[p]`.
    pub raw: Vec<Vec<u64>>,
    /// `normalized[a][p]` = raw time over RANDOM's time at the same
    /// processor count (the paper's Y axis).
    pub normalized: Vec<Vec<f64>>,
}

impl ExecTimeFigure {
    /// The normalized time of one algorithm at one processor count.
    pub fn normalized_time(&self, algo: PlacementAlgorithm, processors: usize) -> Option<f64> {
        let a = self.algorithms.iter().position(|&x| x == algo)?;
        let p = self
            .processor_counts
            .iter()
            .position(|&x| x == processors)?;
        Some(self.normalized[a][p])
    }
}

/// Runs the Figure 2/3/4 experiment for one application.
///
/// # Errors
///
/// Propagates placement/simulation failures.
pub fn exec_time_figure(
    app: &PreparedApp,
    processor_counts: &[usize],
) -> Result<ExecTimeFigure, Error> {
    let algorithms: Vec<PlacementAlgorithm> = PlacementAlgorithm::STATIC.to_vec();
    let results = run_sweep(app, &algorithms, processor_counts)?;

    let pc = processor_counts.len();
    let mut raw = vec![vec![0u64; pc]; algorithms.len()];
    for (i, r) in results.iter().enumerate() {
        let (a, p) = (i / pc, i % pc);
        raw[a][p] = r.execution_time();
    }
    let random_idx = algorithms
        .iter()
        .position(|&a| a == PlacementAlgorithm::Random)
        .expect("STATIC includes RANDOM");
    let normalized = raw
        .iter()
        .map(|times| {
            times
                .iter()
                .enumerate()
                .map(|(p, &t)| t as f64 / raw[random_idx][p].max(1) as f64)
                .collect()
        })
        .collect();

    Ok(ExecTimeFigure {
        app: app.spec.name.to_owned(),
        processor_counts: processor_counts.to_vec(),
        algorithms,
        raw,
        normalized,
    })
}

/// Cache-miss components per algorithm per configuration — the paper's
/// Figure 5.
#[derive(Debug, Clone)]
pub struct MissComponentsFigure {
    /// Application name.
    pub app: String,
    /// Processor counts.
    pub processor_counts: Vec<usize>,
    /// Algorithms.
    pub algorithms: Vec<PlacementAlgorithm>,
    /// `breakdown[a][p]` = aggregated miss components.
    pub breakdown: Vec<Vec<MissBreakdown>>,
}

impl MissComponentsFigure {
    /// The breakdown of one algorithm at one processor count.
    pub fn get(&self, algo: PlacementAlgorithm, processors: usize) -> Option<&MissBreakdown> {
        let a = self.algorithms.iter().position(|&x| x == algo)?;
        let p = self
            .processor_counts
            .iter()
            .position(|&x| x == processors)?;
        Some(&self.breakdown[a][p])
    }
}

/// Runs the Figure 5 experiment for one application.
///
/// # Errors
///
/// Propagates placement/simulation failures.
pub fn miss_components_figure(
    app: &PreparedApp,
    processor_counts: &[usize],
    algorithms: &[PlacementAlgorithm],
) -> Result<MissComponentsFigure, Error> {
    let results = run_sweep(app, algorithms, processor_counts)?;
    let pc = processor_counts.len();
    let mut breakdown = vec![vec![MissBreakdown::default(); pc]; algorithms.len()];
    for (i, r) in results.iter().enumerate() {
        breakdown[i / pc][i % pc] = r.stats.total_misses();
    }
    Ok(MissComponentsFigure {
        app: app.spec.name.to_owned(),
        processor_counts: processor_counts.to_vec(),
        algorithms: algorithms.to_vec(),
        breakdown,
    })
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
                seed: 21,
            },
        )
    }

    #[test]
    fn processor_count_filtering() {
        assert_eq!(default_processor_counts(16), vec![2, 4, 8, 16]);
        assert_eq!(default_processor_counts(8), vec![2, 4, 8]);
        assert_eq!(default_processor_counts(127), vec![2, 4, 8, 16]);
        assert_eq!(default_processor_counts(3), vec![2]);
    }

    #[test]
    fn exec_time_figure_normalizes_random_to_one() {
        let app = tiny("barnes-hut");
        let fig = exec_time_figure(&app, &[2, 4]).unwrap();
        for (p, _) in fig.processor_counts.iter().enumerate() {
            let r = fig.normalized_time(PlacementAlgorithm::Random, fig.processor_counts[p]);
            assert!((r.unwrap() - 1.0).abs() < 1e-12);
        }
        assert_eq!(fig.raw.len(), PlacementAlgorithm::STATIC.len());
        assert!(fig.raw.iter().flatten().all(|&t| t > 0));
    }

    #[test]
    fn miss_components_figure_shape() {
        let app = tiny("water");
        let algos = [PlacementAlgorithm::Random, PlacementAlgorithm::ShareRefs];
        let fig = miss_components_figure(&app, &[2, 4], &algos).unwrap();
        assert_eq!(fig.breakdown.len(), 2);
        assert_eq!(fig.breakdown[0].len(), 2);
        let b = fig.get(PlacementAlgorithm::Random, 2).unwrap();
        assert!(b.total() > 0);
        assert!(fig.get(PlacementAlgorithm::LoadBal, 2).is_none());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::experiment::PreparedApp;
    use placesim_workloads::{spec, GenOptions};

    /// Raw times and normalized values are mutually consistent.
    #[test]
    fn normalization_is_consistent_with_raw() {
        let app = PreparedApp::prepare(
            &spec("patch").unwrap(),
            &GenOptions {
                scale: 0.002,
                seed: 31,
            },
        );
        let fig = exec_time_figure(&app, &[2, 4]).unwrap();
        let random_idx = fig
            .algorithms
            .iter()
            .position(|&a| a == PlacementAlgorithm::Random)
            .unwrap();
        for (a, row) in fig.normalized.iter().enumerate() {
            for (p, &norm) in row.iter().enumerate() {
                let expect = fig.raw[a][p] as f64 / fig.raw[random_idx][p] as f64;
                assert!((norm - expect).abs() < 1e-9, "algo {a} p {p}");
            }
        }
        // Accessor agrees with the matrix.
        assert_eq!(
            fig.normalized_time(PlacementAlgorithm::LoadBal, 4),
            Some(
                fig.normalized[fig
                    .algorithms
                    .iter()
                    .position(|&a| a == PlacementAlgorithm::LoadBal)
                    .unwrap()][1]
            )
        );
        assert_eq!(fig.normalized_time(PlacementAlgorithm::LoadBal, 32), None);
    }
}
