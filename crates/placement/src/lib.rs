//! Thread placement algorithms from Thekkath & Eggers (ISCA 1994).
//!
//! Given `t` threads and `p` processors, a placement algorithm maps each
//! thread to a processor. The paper's algorithms start with every thread
//! in its own *cluster* and iteratively combine clusters until exactly
//! `p` remain, subject to a *thread-balance* constraint (final cluster
//! sizes are ⌊t/p⌋ or ⌈t/p⌉) and, for the `+LB` variants, a *load*
//! constraint. What varies between algorithms is the pairwise metric that
//! decides which clusters combine next.
//!
//! This crate provides:
//!
//! * [`PlacementAlgorithm`] — every algorithm of the paper's §2
//!   (SHARE-REFS, SHARE-ADDR, MIN-PRIV, MIN-INVS, MAX-WRITES, MIN-SHARE,
//!   their `+LB` variants, LOAD-BAL, RANDOM) plus the §4.2
//!   coherence-traffic placement,
//! * [`PlacementInputs`] — the statically measured program
//!   characteristics an algorithm consumes,
//! * [`PlacementMap`] — the thread → processor map fed to the simulator,
//! * [`engine`] — the generic cluster-combining engine (paper §2.1):
//!   greedy combines with a thread-balance feasibility check, which
//!   replaces the paper's step-4 backtracking.
//!
//! # Example
//!
//! ```
//! use placesim_trace::{Address, MemRef, ProgramTrace, ThreadId, ThreadTrace};
//! use placesim_analysis::SharingAnalysis;
//! use placesim_placement::{PlacementAlgorithm, PlacementInputs};
//!
//! // Four threads; 0 & 1 share heavily, 2 & 3 share heavily.
//! let mk = |addr: u64| -> ThreadTrace {
//!     std::iter::repeat(MemRef::read(Address::new(addr))).take(10).collect()
//! };
//! let prog = ProgramTrace::new("pairs", vec![mk(0x10), mk(0x10), mk(0x20), mk(0x20)]);
//! let sharing = SharingAnalysis::measure(&prog);
//! let lengths = vec![10, 10, 10, 10];
//!
//! let inputs = PlacementInputs::new(&sharing, &lengths);
//! let map = PlacementAlgorithm::ShareRefs.place(&inputs, 2)?;
//! // The sharers are co-located.
//! assert_eq!(map.processor_of(ThreadId::new(0)), map.processor_of(ThreadId::new(1)));
//! assert_eq!(map.processor_of(ThreadId::new(2)), map.processor_of(ThreadId::new(3)));
//! # Ok::<(), placesim_placement::PlacementError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithms;
pub mod engine;
mod error;
pub mod kl;
mod map;
mod metrics;
mod partition;
pub mod quality;
mod score;

pub use algorithms::{thread_lengths, PlacementAlgorithm, PlacementInputs};
pub use engine::ScoreMode;
pub use error::PlacementError;
pub use map::{PlacementMap, ProcessorId};
pub use metrics::{
    CoherenceMetric, MaxWritesMetric, MetricCache, MinInvsMetric, MinPrivMetric, MinShareMetric,
    PairMetric, ShareAddrMetric, ShareRefsMetric,
};
pub use partition::{BalanceSpec, CrossId, Partition, SumId};
pub use quality::PlacementQuality;
pub use score::Score;
