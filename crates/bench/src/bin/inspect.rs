//! Inspect one application × algorithm × processor-count configuration
//! in depth: placement map, per-processor loads, cycle accounting and
//! miss components.
//!
//! ```sh
//! cargo run --release -p placesim-bench --bin inspect -- fft LOAD-BAL 4
//! ```

use placesim::report::TextTable;
use placesim::run_placement;
use placesim_bench::prepare;
use placesim_obs::outln;
use placesim_placement::{PlacementAlgorithm, PlacementQuality, ProcessorId};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "fft".into());
    let algo_name = args.next().unwrap_or_else(|| "LOAD-BAL".into());
    let processors: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let algo = PlacementAlgorithm::from_paper_name(&algo_name).unwrap_or_else(|| {
        eprintln!("unknown algorithm {algo_name}; use a paper name like SHARE-REFS");
        std::process::exit(2);
    });

    let mut app = prepare(&name);
    if algo == PlacementAlgorithm::CoherenceTraffic {
        app.run_probe().expect("probe");
    }
    let r = run_placement(&app, algo, processors).expect("experiment");

    outln!(
        "{name} × {} × {processors} processors — execution time {} cycles\n",
        algo.paper_name(),
        r.execution_time()
    );

    let loads = r.map.loads(&app.lengths);
    let mut t = TextTable::new([
        "proc",
        "threads",
        "load",
        "finish",
        "busy",
        "switch",
        "idle",
        "hits",
        "compulsory",
        "intra",
        "inter",
        "invalid",
    ]);
    for (i, ps) in r.stats.per_proc().iter().enumerate() {
        let cluster = r.map.threads_on(ProcessorId::from_index(i));
        t.row([
            format!("P{i}"),
            cluster.len().to_string(),
            loads[i].to_string(),
            ps.finish_time.to_string(),
            ps.busy.to_string(),
            ps.switching.to_string(),
            ps.idle.to_string(),
            ps.hits.to_string(),
            ps.misses.compulsory.to_string(),
            ps.misses.intra_thread_conflict.to_string(),
            ps.misses.inter_thread_conflict.to_string(),
            ps.misses.invalidation.to_string(),
        ]);
    }
    outln!("{t}");

    let q = PlacementQuality::measure(&r.map, &app.sharing, &app.lengths);
    outln!(
        "quality: sharing captured {:.1}% (write-shared {:.1}%), load imbalance {:.3}, contexts {}\n",
        100.0 * q.sharing_captured,
        100.0 * q.write_sharing_captured,
        q.load_imbalance,
        q.max_contexts
    );
    outln!("placement map:\n{}", r.map);
}
