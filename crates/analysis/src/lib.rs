//! Static per-thread trace analysis for the thread-placement study.
//!
//! The placement algorithms of Thekkath & Eggers (ISCA 1994) consume
//! *statically measured* program characteristics: inter-thread sharing
//! metrics extracted by analyzing each thread's trace separately (the
//! paper's §3.1, Table 2). This crate computes all of them:
//!
//! * [`SharingAnalysis`] — pairwise shared-reference matrices
//!   (all-shared, write-shared, common-address counts) and per-thread
//!   aggregates (% shared refs, private footprints). One sharded
//!   sort-merge address scan feeds them from any of three sources: an
//!   in-memory trace (`measure`), a generator's per-thread access lists
//!   (`measure_access`), or a streaming v4 file read chunk by chunk under
//!   a [`SpillBudget`] (`measure_streamed`),
//! * [`AddressProfile`] — per-address, per-thread reference counts built
//!   by one hash-map probe per reference; `measure_reference` derives the
//!   metrics from it, and it is the reference the scan is tested against,
//! * [`nway`] — group ("N-way") sharing metrics over clusters of threads,
//! * [`write_runs`] — write-run and migratory-data analysis over an
//!   interleaved reference stream (the paper's §4.2 FFT discussion),
//! * [`CharacteristicsRow`] — one row of the paper's Table 2.
//!
//! # Example
//!
//! ```
//! use placesim_trace::{Address, MemRef, ProgramTrace, ThreadId, ThreadTrace};
//! use placesim_analysis::SharingAnalysis;
//!
//! // Two threads both touching 0x100; thread 1 also has a private address.
//! let t0: ThreadTrace = [MemRef::read(Address::new(0x100))].into_iter().collect();
//! let t1: ThreadTrace = [
//!     MemRef::read(Address::new(0x100)),
//!     MemRef::write(Address::new(0x200)),
//! ].into_iter().collect();
//! let prog = ProgramTrace::new("ex", vec![t0, t1]);
//!
//! let sharing = SharingAnalysis::measure(&prog);
//! // One ref each to the common address 0x100.
//! assert_eq!(sharing.pair_shared_refs(ThreadId::new(0), ThreadId::new(1)), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod locality;
mod matrix;
pub mod nway;
mod profile;
mod scan;
mod sharing;
mod summary;
pub mod write_runs;

pub use locality::{LocalityProfile, WorkingSetSummary};
pub use matrix::SymMatrix;
pub use profile::{AddressProfile, PerAddress, PerThreadCount};
pub use scan::SpillBudget;
pub use sharing::{SharingAnalysis, ThreadSharing};
pub use summary::CharacteristicsRow;
