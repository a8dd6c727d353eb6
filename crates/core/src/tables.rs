//! The rows behind the paper's Tables 1–5.

use crate::error::Error;
use crate::experiment::{run_placement_with_config, PreparedApp};
use placesim_analysis::CharacteristicsRow;
use placesim_machine::ArchConfig;
use placesim_placement::PlacementAlgorithm;
use placesim_trace::par::parallel_map;
use placesim_workloads::{AppSpec, GenOptions, Granularity};

/// One row of Table 1: the application suite.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application name.
    pub app: String,
    /// Coarse or medium grain.
    pub granularity: Granularity,
    /// Thread count.
    pub threads: usize,
    /// Total instructions across all threads.
    pub total_instructions: u64,
    /// Mean thread length in instructions.
    pub mean_thread_length: f64,
}

/// Builds Table 1 from prepared applications.
pub fn table1(apps: &[PreparedApp]) -> Vec<Table1Row> {
    apps.iter()
        .map(|app| Table1Row {
            app: app.spec.name.to_owned(),
            granularity: app.spec.granularity,
            threads: app.threads(),
            total_instructions: app.prog.total_instrs(),
            mean_thread_length: app.prog.total_instrs() as f64 / app.threads().max(1) as f64,
        })
        .collect()
}

/// Builds Table 2 (measured characteristics) from prepared applications.
pub fn table2(apps: &[PreparedApp]) -> Vec<CharacteristicsRow> {
    apps.iter()
        .map(|app| CharacteristicsRow::from_sharing(&app.prog, &app.sharing, app.gen.seed))
        .collect()
}

/// One row of Table 3: an architectural parameter and its value range.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Parameter name.
    pub parameter: &'static str,
    /// Value (or range) used in the experiments.
    pub value: String,
}

/// Builds Table 3 (architectural inputs to the simulator).
pub fn table3() -> Vec<Table3Row> {
    let c = ArchConfig::paper_default();
    vec![
        Table3Row {
            parameter: "Number of processors",
            value: "2 - 16 (up to 127 for the coherence probe)".into(),
        },
        Table3Row {
            parameter: "Hardware contexts per processor",
            value: "threads/processors (1 - 64)".into(),
        },
        Table3Row {
            parameter: "Context switch policy",
            value: "round-robin, switch on cache miss".into(),
        },
        Table3Row {
            parameter: "Context switch time",
            value: format!("{} cycles (pipeline drain)", c.context_switch()),
        },
        Table3Row {
            parameter: "Cache organization",
            value: "direct-mapped, unified".into(),
        },
        Table3Row {
            parameter: "Cache size",
            value: "32 KB / 64 KB (8 MB for the infinite-cache study)".into(),
        },
        Table3Row {
            parameter: "Cache line size",
            value: format!("{} bytes", c.line_size()),
        },
        Table3Row {
            parameter: "Cache hit time",
            value: "1 cycle".into(),
        },
        Table3Row {
            parameter: "Memory latency",
            value: format!(
                "{} cycles (contention-free multipath network)",
                c.memory_latency()
            ),
        },
        Table3Row {
            parameter: "Coherence protocol",
            value: "distributed full-map directory, write-invalidate (MSI)".into(),
        },
    ]
}

/// One row of Table 4: statically counted sharing vs. dynamically
/// measured coherence traffic (one thread per processor).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Application name.
    pub app: String,
    /// Total statically counted pairwise shared references.
    pub static_pairwise_refs: u64,
    /// Static pairwise shared references as % of total references.
    pub static_percent: f64,
    /// Measured compulsory misses + coherence traffic.
    pub dynamic_traffic: u64,
    /// Measured traffic as % of total references.
    pub dynamic_percent: f64,
    /// Orders of magnitude between static and dynamic counts.
    pub reduction_factor: f64,
}

/// Builds one Table 4 row (runs the coherence probe; the probe's traffic
/// matrix is cached on `app` for later COHERENCE placements).
///
/// # Errors
///
/// Propagates probe failures (e.g. > 128 threads).
pub fn table4_row(app: &mut PreparedApp) -> Result<Table4Row, Error> {
    let probe = app.run_probe()?;
    let total_refs = app.prog.total_refs();
    let static_refs = app.sharing.total_pairwise_shared_refs();
    let dynamic = probe.compulsory_misses() + probe.total_traffic();
    Ok(Table4Row {
        app: app.spec.name.to_owned(),
        static_pairwise_refs: static_refs,
        static_percent: 100.0 * static_refs as f64 / total_refs.max(1) as f64,
        dynamic_traffic: dynamic,
        dynamic_percent: 100.0 * dynamic as f64 / total_refs.max(1) as f64,
        reduction_factor: static_refs as f64 / dynamic.max(1) as f64,
    })
}

/// The applications the paper selects for Table 5 (three per grain with
/// the least-uniform measured sharing).
pub const TABLE5_APPS: [&str; 6] = ["water", "locusroute", "pverify", "grav", "fft", "health"];

/// One row of Table 5: infinite-cache execution times normalized to
/// LOAD-BAL.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Application name.
    pub app: String,
    /// Processor counts (columns).
    pub processor_counts: Vec<usize>,
    /// Which sharing-based algorithm was best (per processor count).
    pub best_static_algorithm: Vec<PlacementAlgorithm>,
    /// Best static sharing algorithm's time / LOAD-BAL's time.
    pub best_static_normalized: Vec<f64>,
    /// Coherence-traffic algorithm's time / LOAD-BAL's time.
    pub coherence_normalized: Vec<f64>,
}

/// Builds one Table 5 row with an 8 MB cache. Requires the probe to have
/// been run (for the coherence-traffic placement).
///
/// # Errors
///
/// Returns [`Error::ProbeMissing`] if the probe has not been run, and
/// propagates placement/simulation failures.
pub fn table5_row(app: &PreparedApp, processor_counts: &[usize]) -> Result<Table5Row, Error> {
    if app.traffic.is_none() {
        return Err(Error::ProbeMissing);
    }
    let infinite = ArchConfig::infinite_cache();
    // All twelve sharing-based algorithms compete for "best static".
    let sharing_algos: Vec<PlacementAlgorithm> = PlacementAlgorithm::STATIC
        .into_iter()
        .filter(|a| a.is_sharing_based())
        .collect();

    let mut best_alg = Vec::new();
    let mut best_norm = Vec::new();
    let mut coh_norm = Vec::new();
    for &p in processor_counts {
        let lb = run_placement_with_config(app, PlacementAlgorithm::LoadBal, p, &infinite)?
            .execution_time();
        let candidates = parallel_map(&sharing_algos, |&a| {
            run_placement_with_config(app, a, p, &infinite).map(|r| (a, r.execution_time()))
        });
        let mut best: Option<(PlacementAlgorithm, u64)> = None;
        for c in candidates {
            let (a, t) = c?;
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((a, t));
            }
        }
        let (ba, bt) = best.expect("at least one sharing algorithm");
        let coh =
            run_placement_with_config(app, PlacementAlgorithm::CoherenceTraffic, p, &infinite)?
                .execution_time();
        best_alg.push(ba);
        best_norm.push(bt as f64 / lb.max(1) as f64);
        coh_norm.push(coh as f64 / lb.max(1) as f64);
    }

    Ok(Table5Row {
        app: app.spec.name.to_owned(),
        processor_counts: processor_counts.to_vec(),
        best_static_algorithm: best_alg,
        best_static_normalized: best_norm,
        coherence_normalized: coh_norm,
    })
}

/// Prepares a list of applications in parallel.
pub fn prepare_suite(specs: &[AppSpec], opts: &GenOptions) -> Vec<PreparedApp> {
    parallel_map(specs, |spec| PreparedApp::prepare(spec, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_workloads::spec;

    fn tiny(name: &str) -> PreparedApp {
        PreparedApp::prepare(
            &spec(name).unwrap(),
            &GenOptions {
                scale: 0.002,
                seed: 8,
            },
        )
    }

    #[test]
    fn table1_counts() {
        let apps = vec![tiny("water"), tiny("fft")];
        let rows = table1(&apps);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].app, "water");
        assert_eq!(rows[0].threads, 16);
        assert!(rows[0].total_instructions > 0);
        assert!(
            (rows[0].mean_thread_length
                - rows[0].total_instructions as f64 / rows[0].threads as f64)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn table2_has_all_columns() {
        let apps = vec![tiny("water")];
        let rows = table2(&apps);
        assert_eq!(rows[0].app, "water");
        assert!(rows[0].shared_refs_percent.mean > 0.0);
        assert!(rows[0].pairwise_sharing.mean > 0.0);
    }

    #[test]
    fn table3_covers_paper_parameters() {
        let rows = table3();
        assert!(rows.len() >= 9);
        let all: String = rows
            .iter()
            .map(|r| format!("{} {}", r.parameter, r.value))
            .collect();
        for needle in [
            "50 cycles",
            "6 cycles",
            "direct-mapped",
            "round-robin",
            "directory",
        ] {
            assert!(all.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn table4_shows_static_dynamic_gap() {
        let mut app = tiny("water");
        let row = table4_row(&mut app).unwrap();
        assert!(row.static_pairwise_refs > 0);
        assert!(row.dynamic_traffic > 0);
        assert!(
            row.reduction_factor > 1.0,
            "static {} dynamic {}",
            row.static_pairwise_refs,
            row.dynamic_traffic
        );
        assert!(app.traffic.is_some(), "probe result cached");
    }

    #[test]
    fn table5_normalizes_to_load_bal() {
        let mut app = tiny("fft");
        app.run_probe().unwrap();
        let row = table5_row(&app, &[2, 4]).unwrap();
        assert_eq!(row.best_static_normalized.len(), 2);
        assert!(row.best_static_normalized.iter().all(|&x| x > 0.0));
        assert!(row.coherence_normalized.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn table5_requires_probe() {
        let app = tiny("fft");
        assert!(matches!(table5_row(&app, &[2]), Err(Error::ProbeMissing)));
    }
}
