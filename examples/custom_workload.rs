//! Custom workload: a program trace built by hand
//! ([`placesim_repro::pingpong`]) with deliberately extreme,
//! *non-sequential* sharing, on which sharing-based placement finally
//! earns its keep.
//!
//! The paper's negative result hinges on real programs sharing data
//! sequentially and uniformly. This example constructs the opposite: a
//! pathological workload where pairs of threads ping-pong cache lines at
//! high frequency. Here SHARE-REFS genuinely beats RANDOM — which shows
//! the simulator can detect a sharing effect when one exists, and that
//! its absence on the realistic suite is a property of the workloads,
//! not a blind spot of the pipeline.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use placesim_repro::pingpong::pingpong_app;
use placesim_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pairs = 8;
    let rounds = 2_000;
    let app = pingpong_app(pairs, rounds);

    println!(
        "pathological ping-pong workload: {} thread pairs, {} rounds\n",
        pairs, rounds
    );
    let processors = 4;
    for algo in [
        PlacementAlgorithm::Random,
        PlacementAlgorithm::LoadBal,
        PlacementAlgorithm::ShareRefs,
    ] {
        let r = placesim::run_placement(&app, algo, processors)?;
        let m = r.stats.total_misses();
        println!(
            "{:<12} exec={:>9} invalidation misses={:>7} coherence traffic={:>7}",
            algo.paper_name(),
            r.execution_time(),
            m.invalidation,
            r.stats.coherence_traffic(),
        );
    }

    println!(
        "\nWith genuinely fine-grain sharing, SHARE-REFS co-locates each\n\
         ping-pong pair and eliminates their coherence traffic outright —\n\
         the effect the paper went looking for and real programs didn't\n\
         have. (LOAD-BAL can still win wall-clock here: a multithreaded\n\
         processor hides much of the coherence latency that co-location\n\
         avoids, which is the other half of the paper's argument.)"
    );
    Ok(())
}
