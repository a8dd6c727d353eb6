//! High-level experiment runner for the ISCA 1994 thread-placement
//! reproduction.
//!
//! This crate glues the substrate crates together the way the paper's
//! methodology does (§3): generate (or load) an application's traces,
//! statically analyze them, run a placement algorithm, feed the placement
//! map and traces to the machine simulator, and report cycle/miss
//! statistics. It adds:
//!
//! * [`PreparedApp`] — an application with its analysis cached, ready to
//!   place and simulate many times,
//! * [`run_placement`] / [`run_sweep`] — single runs and parallel
//!   algorithm × processor-count sweeps that simulate each distinct
//!   placement once,
//! * [`figures`] — the series behind the paper's Figures 2–5,
//! * [`tables`] — the rows behind Tables 1–5,
//! * [`report`] — plain-text table rendering.
//!
//! # Example
//!
//! ```
//! use placesim::{PreparedApp, run_placement};
//! use placesim_placement::PlacementAlgorithm;
//! use placesim_workloads::GenOptions;
//!
//! let spec = placesim_workloads::spec("water").unwrap();
//! let app = PreparedApp::prepare(&spec, &GenOptions { scale: 0.002, seed: 1 });
//! let result = run_placement(&app, PlacementAlgorithm::LoadBal, 4)?;
//! assert!(result.stats.execution_time() > 0);
//! # Ok::<(), placesim::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attempt;
#[cfg(feature = "chaos")]
pub mod chaos;
mod error;
mod experiment;
pub mod export;
pub mod figures;
pub mod grid;
pub mod journal;
pub mod manifest;
pub mod report;
pub mod service;
pub mod supervisor;
pub mod tables;

pub use error::Error;
pub use experiment::{
    grid_cells, group_equal_maps, run_placement, run_placement_attributed,
    run_placement_with_config, run_sweep, ExperimentResult, PreparedApp,
};
pub use journal::{
    JournalError, JournalHeader, JournalRecovery, RecordLog, RecordRecovery, JOURNAL_SCHEMA,
};
pub use manifest::{ManifestEntry, RunManifest, METRICS_SCHEMA};
pub use report::{Regression, Report, ReportGroup, ReportHole, REPORT_SCHEMA};
pub use service::{
    LockFile, PlacementService, ServiceConfig, ServiceError, ServiceRecovery, SERVICE_JOURNAL,
    SERVICE_LOCK,
};
pub use supervisor::{
    run_supervised_sweep, sweep_header, BackoffPolicy, SupervisedSweep, SupervisorConfig,
    SweepHole, TELEMETRY_SCHEMA,
};
// The worker pool lives in the trace crate (the bottom of the stack) so
// the analysis passes can share it; re-exported here for sweep callers.
pub use placesim_trace::par::{
    max_workers, parallel_map, parallel_map_isolated, try_parallel_map, CancelToken, IndexedPanic,
    IsolatedOutcome,
};

/// Reads the global scale factor from the `PLACESIM_SCALE` environment
/// variable, defaulting to `default` when unset or unparsable.
///
/// The bench binaries default to 0.1 (10% of paper trace lengths) so a
/// full table regeneration finishes in minutes; set `PLACESIM_SCALE=1.0`
/// for paper-scale runs.
pub fn scale_from_env(default: f64) -> f64 {
    std::env::var("PLACESIM_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_env_parsing() {
        // No unsafe env mutation in tests: just exercise the default path.
        assert_eq!(super::scale_from_env(0.25), 0.25);
    }
}
