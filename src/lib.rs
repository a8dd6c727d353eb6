//! Umbrella crate for the reproduction of Thekkath & Eggers,
//! *Impact of Sharing-Based Thread Placement on Multithreaded
//! Architectures* (ISCA 1994).
//!
//! This crate re-exports the whole stack so examples and downstream
//! users can depend on one crate:
//!
//! * [`trace`] — memory-reference trace model,
//! * [`workloads`] — the synthetic 14-application suite,
//! * [`analysis`] — static sharing analysis,
//! * [`placement`] — the placement algorithms,
//! * [`machine`] — the multithreaded multiprocessor simulator,
//! * [`runner`] — the high-level experiment runner,
//! * [`pingpong`] — the positive-control workload.
//!
//! See `README.md` for a tour and `examples/` for runnable entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pingpong;

pub use placesim as runner;
pub use placesim_analysis as analysis;
pub use placesim_machine as machine;
pub use placesim_placement as placement;
pub use placesim_trace as trace;
pub use placesim_workloads as workloads;

/// Convenience re-exports of the most common entry points.
pub mod prelude {
    pub use placesim::{run_placement, ExperimentResult, PreparedApp};
    pub use placesim_machine::{simulate, ArchConfig, MissKind, SimStats};
    pub use placesim_placement::{PlacementAlgorithm, PlacementInputs, PlacementMap};
    pub use placesim_trace::{Address, MemRef, ProgramTrace, RefKind, ThreadId, ThreadTrace};
    pub use placesim_workloads::{generate, spec, suite, GenOptions};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let spec = spec("water").expect("suite app");
        let prog = generate(
            &spec,
            &GenOptions {
                scale: 0.001,
                seed: 1,
            },
        );
        assert_eq!(prog.thread_count(), 16);
    }
}
