//! Memory-reference trace model for the placesim thread-placement study.
//!
//! This crate is the foundation of the reproduction of Thekkath & Eggers,
//! *Impact of Sharing-Based Thread Placement on Multithreaded
//! Architectures* (ISCA 1994). The paper's experiments are trace-driven:
//! every thread of an application is represented by a sequence of
//! instruction fetches and data reads/writes to a flat address space, and
//! both the static analyses (sharing metrics) and the machine simulator
//! consume those sequences.
//!
//! The crate provides:
//!
//! * [`MemRef`] / [`RefKind`] — a single memory reference,
//! * [`Address`] / [`ThreadId`] — newtypes for the two identifier domains,
//! * [`ThreadTrace`] — the packed, append-only trace of one thread,
//! * [`AddrCounts`] — aggregated per-address access counts, the currency
//!   of the fused generate-and-profile front end,
//! * [`ProgramTrace`] — all threads of one application plus metadata,
//! * [`compress`] and [`stream`] — the compressed (v2) and streaming,
//!   chunked (v4) serializations of program traces,
//! * [`stats`] — cheap per-trace counting statistics,
//! * [`par`] — the worker-pool `parallel_map` shared by the analysis
//!   passes and the experiment sweeps (honours `PLACESIM_THREADS`).
//!
//! # Example
//!
//! ```
//! use placesim_trace::{Address, MemRef, ProgramTrace, RefKind, ThreadTrace};
//!
//! let mut t0 = ThreadTrace::new();
//! t0.push(MemRef::instr(Address::new(0x1000)));
//! t0.push(MemRef::read(Address::new(0x8000)));
//! t0.push(MemRef::write(Address::new(0x8000)));
//!
//! let program = ProgramTrace::new("tiny", vec![t0]);
//! assert_eq!(program.thread_count(), 1);
//! assert_eq!(program.total_refs(), 3);
//! assert_eq!(program.thread(placesim_trace::ThreadId::new(0)).data_len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
pub mod compress;
mod error;
pub mod hash;
pub mod par;
mod program_trace;
mod record;
pub mod stats;
pub mod stream;
mod thread_trace;

pub use access::AddrCounts;
pub use error::TraceError;
pub use program_trace::ProgramTrace;
pub use record::{Address, LineAddr, MemRef, RefKind, ThreadId};
pub use thread_trace::{ThreadTrace, ThreadTraceIter};
