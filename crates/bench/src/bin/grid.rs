//! Custom experiment grids as CSV on stdout.
//!
//! ```sh
//! cargo run --release -p placesim-bench --bin grid -- \
//!     --apps water,fft --algos LOAD-BAL,RANDOM,SHARE-REFS --procs 2,4,8
//! ```
//!
//! Defaults: all 14 applications, all 14 static algorithms, the paper's
//! processor counts. `--infinite` switches to the 8 MB cache.

use placesim::figures::default_processor_counts;
use placesim::grid::{grid_to_csv, run_grid};
use placesim_bench::{harness_opts, prepare};
use placesim_machine::ArchConfig;
use placesim_obs::out;
use placesim_placement::PlacementAlgorithm;
use placesim_workloads::SUITE_NAMES;

fn list_arg(args: &[String], name: &str) -> Option<Vec<String>> {
    args.iter().position(|a| a == name).and_then(|i| {
        args.get(i + 1)
            .map(|v| v.split(',').map(str::to_owned).collect())
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let apps = list_arg(&args, "--apps")
        .unwrap_or_else(|| SUITE_NAMES.iter().map(|s| s.to_string()).collect());
    let algos: Vec<PlacementAlgorithm> = match list_arg(&args, "--algos") {
        None => PlacementAlgorithm::STATIC.to_vec(),
        Some(names) => names
            .iter()
            .map(|n| {
                PlacementAlgorithm::from_paper_name(n).unwrap_or_else(|| {
                    eprintln!("unknown algorithm {n}");
                    std::process::exit(2);
                })
            })
            .collect(),
    };
    let procs: Option<Vec<usize>> = list_arg(&args, "--procs").map(|ps| {
        ps.iter()
            .map(|p| p.parse().expect("--procs takes integers"))
            .collect()
    });
    let infinite = args.iter().any(|a| a == "--infinite");
    let config = infinite.then(ArchConfig::infinite_cache);

    let opts = harness_opts();
    eprintln!(
        "grid: {} apps x {} algorithms (scale {})",
        apps.len(),
        algos.len(),
        opts.scale
    );

    let mut all = Vec::new();
    for name in &apps {
        let app = prepare(name);
        let pcs = procs
            .clone()
            .unwrap_or_else(|| default_processor_counts(app.threads()));
        let records = run_grid(&app, &algos, &pcs, config.as_ref()).expect("grid cell failed");
        all.extend(records);
    }
    out!("{}", grid_to_csv(&all));
}
