//! Timeline tracing: run one placement with the cycle-level event
//! timeline enabled, export a Chrome trace-event file (load it at
//! <https://ui.perfetto.dev>), and print the five longest sequential-
//! sharing runs — the paper's §5 observation that write-shared lines
//! are used by one thread at a time for an extended stretch, which is
//! exactly the structure sharing-based placement harvests.
//!
//! ```sh
//! cargo run --release --example timeline_trace -- water
//! ```

use placesim_repro::prelude::*;

use placesim_repro::analysis::SharingAnalysis;
use placesim_repro::machine::{simulate_probed, EngineObs, EventTrace};
use placesim_repro::placement::thread_lengths;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "water".into());
    let spec = spec(&name).ok_or_else(|| format!("unknown application {name}"))?;
    let prog = generate(
        &spec,
        &GenOptions {
            scale: 0.002,
            seed: 13,
        },
    );

    let sharing = SharingAnalysis::measure(&prog);
    let lengths = thread_lengths(&prog);
    let inputs = PlacementInputs::new(&sharing, &lengths);
    let algo = PlacementAlgorithm::ShareRefs;
    let map = algo.place(&inputs, 4)?;

    let mut obs = EngineObs {
        timeline: Some(EventTrace::new(1 << 20)),
        ..EngineObs::default()
    };
    let stats = simulate_probed(&prog, &map, &ArchConfig::paper_default(), &mut obs)?;
    let trace = obs.timeline.expect("the recorder keeps its timeline");
    println!(
        "{name}: {} on 4 processors, {} cycles, {} timeline events ({} dropped)",
        algo.paper_name(),
        stats.execution_time(),
        trace.len(),
        trace.dropped()
    );

    let out = std::env::temp_dir().join(format!("placesim-{name}-timeline.json"));
    std::fs::write(&out, trace.to_chrome_json())?;
    println!(
        "chrome trace written to {} (open in Perfetto)",
        out.display()
    );

    // Rank maximal single-tenant tenures on write-shared lines by length.
    let mut runs = trace.sharing_runs();
    runs.sort_by_key(|r| std::cmp::Reverse(r.cycles()));
    println!("\nlongest sequential-sharing runs ({} total):", runs.len());
    println!(
        "{:>14} {:>7} {:>5} {:>12} {:>12} {:>13}",
        "line", "thread", "proc", "start", "end", "transactions"
    );
    for r in runs.iter().take(5) {
        println!(
            "{:>#14x} {:>7} {:>5} {:>12} {:>12} {:>13}",
            r.line, r.thread, r.processor, r.start_cycle, r.end_cycle, r.transactions
        );
    }
    if let Some(longest) = runs.first() {
        println!(
            "\nT{} held line {:#x} for {} cycles across {} directory\n\
             transactions before another thread touched it: sharing is\n\
             sequential, so co-locating the sharers is cheap.",
            longest.thread,
            longest.line,
            longest.cycles(),
            longest.transactions
        );
    }
    Ok(())
}
