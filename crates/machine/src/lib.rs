//! Event-driven simulator of a multithreaded shared-memory multiprocessor.
//!
//! This is the machine of Thekkath & Eggers (ISCA 1994) §3.2: processors
//! with multiple hardware contexts and a round-robin switch-on-miss
//! policy, per-processor direct-mapped caches, a full-map directory-based
//! write-invalidate coherence protocol, and a contention-free
//! interconnect modeled as a fixed memory latency. The simulator is
//! trace-driven: it consumes a [`placesim_trace::ProgramTrace`] and a
//! [`placesim_placement::PlacementMap`] and produces cycle and miss
//! statistics ([`SimStats`]).
//! [`simulate_probed`] runs the same simulation and records, in the same
//! pass, whatever an [`EngineObs`] recorder asks for: the coherence
//! traffic matrix, the engine counters, an event timeline and coherence
//! attribution.
//!
//! The coherence protocol is pluggable ([`Protocol`]): the paper's
//! write-invalidate machine is the default, with MESI (exclusive-clean
//! fills eliminating upgrade traffic on private lines) and Dragon
//! write-update (sharers refreshed in place, counted in the dedicated
//! update-traffic statistics) selectable through
//! [`ArchConfig`]'s builder.
//!
//! Cache misses are classified exactly as the paper requires
//! ([`MissKind`]): compulsory, intra-thread conflict, inter-thread
//! conflict, and invalidation misses.
//!
//! # Example
//!
//! ```
//! use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
//! use placesim_placement::PlacementMap;
//! use placesim_machine::{ArchConfig, simulate};
//!
//! let t0: ThreadTrace = (0..100).map(|i| MemRef::instr(Address::new(4 * i))).collect();
//! let t1: ThreadTrace = (0..50).map(|i| MemRef::instr(Address::new(0x8000 + 4 * i))).collect();
//! let prog = ProgramTrace::new("two-threads", vec![t0, t1]);
//! let map = PlacementMap::from_clusters(vec![vec![0], vec![1]])?;
//!
//! let stats = simulate(&prog, &map, &ArchConfig::paper_default())?;
//! assert!(stats.execution_time() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "audit")]
mod audit;
mod cache;
mod config;
mod directory;
mod engine;
pub mod model;
mod obs;
pub mod probe;
mod protocol;
mod stats;

pub use cache::{Access, AccessOutcome, Evicted, GoneReason, LineState, Lookahead, ProcessorCache};
pub use config::{ArchConfig, ArchConfigBuilder, ConfigError};
pub use directory::{Directory, SharerSet, MAX_PROCESSORS};
#[cfg(feature = "reference-engine")]
pub use engine::reference;
pub use engine::{simulate, simulate_probed, SimError};
pub use model::{simulated_efficiency, EfficiencyModel};
pub use obs::{EngineObs, EngineObsReport};
pub use placesim_obs::{
    AttrCollector, AttrKind, AttributionConfig, EventKind, EventTrace, SharingRun, TimelineEvent,
};
pub use probe::{probe_coherence, ProbeResult};
pub use protocol::{
    CoherenceProtocol, Dragon, Mesi, Protocol, RemoteAction, UnknownProtocol, WriteHit,
    WriteInvalidate,
};
pub use stats::{MissBreakdown, MissKind, ProcStats, SimStats};
