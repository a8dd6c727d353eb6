//! Processor-efficiency study (related work, paper §5): sweep the number
//! of hardware contexts per processor and compare simulated efficiency
//! against the analytic Erlang/Markov model of Saavedra-Barrera et al.
//!
//! Reproduces the two related-work conclusions the paper cites: a
//! multithreaded architecture substantially improves processor
//! efficiency (Weber & Gupta), and a small number of contexts cannot
//! hide very long memory latencies (Saavedra-Barrera).

use placesim::report::{fmt_f, TextTable};
use placesim::run_placement;
use placesim_bench::{harness_opts, prepare};
use placesim_machine::{simulated_efficiency, EfficiencyModel};
use placesim_obs::outln;
use placesim_placement::PlacementAlgorithm;

fn main() {
    let app_name = std::env::args().nth(1).unwrap_or_else(|| "mp3d".into());
    let app = prepare(&app_name);
    let threads = app.threads();
    outln!(
        "Processor efficiency vs. hardware contexts — {app_name} ({} threads, scale {})\n",
        threads,
        harness_opts().scale
    );

    let mut t = TextTable::new([
        "processors",
        "contexts/proc",
        "simulated efficiency",
        "model efficiency",
        "model saturation",
    ]);
    for p in [16usize, 8, 4, 2] {
        if p > threads {
            continue;
        }
        let r = run_placement(&app, PlacementAlgorithm::Random, p).expect("experiment");
        let sim_eff = simulated_efficiency(&r.stats);
        let contexts = r.map.max_cluster_size();
        match EfficiencyModel::from_stats(&r.stats, &app.config) {
            Some(model) => t.row([
                p.to_string(),
                contexts.to_string(),
                fmt_f(sim_eff, 3),
                fmt_f(model.efficiency(contexts), 3),
                fmt_f(model.saturation_efficiency(), 3),
            ]),
            None => t.row([p.to_string(), contexts.to_string(), fmt_f(sim_eff, 3)]),
        };
    }
    outln!("{t}");
    outln!(
        "More contexts per processor push efficiency toward the R/(R+C)\n\
         saturation ceiling — multithreading hides the memory latency, at\n\
         the cost of the cache interference the main experiments measure."
    );
}
