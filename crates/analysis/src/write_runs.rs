//! Write-run and migratory-data analysis.
//!
//! §4.2 of the paper explains the tiny runtime coherence traffic by the
//! *sequential* sharing of the applications: "a processor accesses a
//! shared location multiple times before there is contention from another
//! processor", and cites an FFT analysis where "73% of all shared
//! elements are migratory, i.e., accessed in long write runs". A *write
//! run* (Eggers' terminology) is a maximal sequence of accesses to an
//! address by a single thread, beginning with that thread's first access
//! after another thread touched the address.
//!
//! Static per-thread traces carry no cross-thread temporal information,
//! so this module analyzes an *interleaving* of the threads. The default
//! interleaving is round-robin one-reference-at-a-time, which approximates
//! the fine-grain interleaving of a multiprocessor execution.

use placesim_trace::{ProgramTrace, ThreadId};
use std::collections::HashMap;

/// Per-program write-run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WriteRunStats {
    /// Number of shared addresses examined.
    pub shared_addresses: u64,
    /// Shared addresses classified as migratory (their accesses occur in
    /// runs of length ≥ [`MIGRATORY_MIN_RUN`] at least
    /// [`MIGRATORY_MIN_FRACTION`] of the time).
    pub migratory_addresses: u64,
    /// Mean run length over all runs at shared addresses.
    pub mean_run_length: f64,
    /// Total number of runs observed at shared addresses.
    pub runs: u64,
}

impl WriteRunStats {
    /// Fraction (0–1) of shared addresses that are migratory.
    pub fn migratory_fraction(&self) -> f64 {
        if self.shared_addresses == 0 {
            0.0
        } else {
            self.migratory_addresses as f64 / self.shared_addresses as f64
        }
    }
}

/// A run counts toward migratory classification if at least this long.
pub const MIGRATORY_MIN_RUN: u64 = 2;
/// An address is migratory if this fraction of its accesses fall in
/// qualifying runs.
pub const MIGRATORY_MIN_FRACTION: f64 = 0.5;

/// Analyzes write runs under a round-robin interleaving of the threads.
///
/// Each scheduling step takes one data reference from each non-exhausted
/// thread in thread-id order. Only *shared* addresses (touched by ≥ 2
/// threads across the whole program) are analyzed.
pub fn analyze_round_robin(prog: &ProgramTrace) -> WriteRunStats {
    let mut cursors: Vec<_> = prog
        .threads()
        .iter()
        .map(|t| t.iter().filter(|r| r.kind.is_data()))
        .collect();
    let stream = RoundRobin {
        cursors: &mut cursors,
        next: 0,
        live: prog.thread_count(),
    };
    analyze_stream(stream)
}

/// Analyzes write runs over an arbitrary interleaved `(thread, address)`
/// stream of data references.
pub fn analyze_stream<I>(stream: I) -> WriteRunStats
where
    I: IntoIterator<Item = (ThreadId, u64)>,
{
    #[derive(Default)]
    struct AddrState {
        last_thread: Option<ThreadId>,
        current_run: u64,
        total_refs: u64,
        refs_in_long_runs: u64,
        runs: u64,
        run_length_sum: u64,
        threads_seen: Vec<ThreadId>,
    }

    impl AddrState {
        fn close_run(&mut self) {
            if self.current_run > 0 {
                self.runs += 1;
                self.run_length_sum += self.current_run;
                if self.current_run >= MIGRATORY_MIN_RUN {
                    self.refs_in_long_runs += self.current_run;
                }
            }
            self.current_run = 0;
        }
    }

    let mut states: HashMap<u64, AddrState> = HashMap::new();
    for (tid, addr) in stream {
        let st = states.entry(addr).or_default();
        st.total_refs += 1;
        if !st.threads_seen.contains(&tid) {
            st.threads_seen.push(tid);
        }
        if st.last_thread == Some(tid) {
            st.current_run += 1;
        } else {
            st.close_run();
            st.last_thread = Some(tid);
            st.current_run = 1;
        }
    }

    let mut out = WriteRunStats::default();
    let mut total_run_len = 0u64;
    for st in states.values_mut() {
        st.close_run();
        if st.threads_seen.len() < 2 {
            continue; // private address: not part of sharing analysis
        }
        out.shared_addresses += 1;
        out.runs += st.runs;
        total_run_len += st.run_length_sum;
        if st.total_refs > 0
            && st.refs_in_long_runs as f64 / st.total_refs as f64 >= MIGRATORY_MIN_FRACTION
        {
            out.migratory_addresses += 1;
        }
    }
    out.mean_run_length = if out.runs == 0 {
        0.0
    } else {
        total_run_len as f64 / out.runs as f64
    };
    out
}

/// Round-robin interleaver over per-thread data-reference iterators.
struct RoundRobin<'a, I> {
    cursors: &'a mut [I],
    next: usize,
    live: usize,
}

impl<I> Iterator for RoundRobin<'_, I>
where
    I: Iterator<Item = placesim_trace::MemRef>,
{
    type Item = (ThreadId, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursors.is_empty() {
            return None;
        }
        let n = self.cursors.len();
        for _ in 0..n {
            let idx = self.next;
            self.next = (self.next + 1) % n;
            if let Some(r) = self.cursors[idx].next() {
                return Some((ThreadId::from_index(idx), r.addr.raw()));
            }
        }
        self.live = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_trace::{Address, MemRef, ThreadTrace};

    #[test]
    fn single_owner_address_is_ignored() {
        let stream = vec![(ThreadId::new(0), 1u64), (ThreadId::new(0), 1)];
        let stats = analyze_stream(stream);
        assert_eq!(stats.shared_addresses, 0);
        assert_eq!(stats.migratory_fraction(), 0.0);
    }

    #[test]
    fn migratory_address_detected() {
        // T0 accesses addr 5 three times, then T1 three times: two runs of
        // length 3 — all refs in long runs → migratory.
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        let stream = vec![(t0, 5u64), (t0, 5), (t0, 5), (t1, 5), (t1, 5), (t1, 5)];
        let stats = analyze_stream(stream);
        assert_eq!(stats.shared_addresses, 1);
        assert_eq!(stats.migratory_addresses, 1);
        assert_eq!(stats.runs, 2);
        assert!((stats.mean_run_length - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ping_pong_address_is_not_migratory() {
        // Strict alternation: every run has length 1.
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        let stream = vec![(t0, 9u64), (t1, 9), (t0, 9), (t1, 9)];
        let stats = analyze_stream(stream);
        assert_eq!(stats.shared_addresses, 1);
        assert_eq!(stats.migratory_addresses, 0);
        assert_eq!(stats.runs, 4);
        assert!((stats.mean_run_length - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_robin_interleaves_fairly() {
        // T0: A A, T1: A A. Round-robin gives A(T0) A(T1) A(T0) A(T1):
        // four runs of length 1 → not migratory.
        let t0: ThreadTrace = [
            MemRef::read(Address::new(0xA)),
            MemRef::read(Address::new(0xA)),
        ]
        .into_iter()
        .collect();
        let t1: ThreadTrace = [
            MemRef::read(Address::new(0xA)),
            MemRef::read(Address::new(0xA)),
        ]
        .into_iter()
        .collect();
        let prog = ProgramTrace::new("pp", vec![t0, t1]);
        let stats = analyze_round_robin(&prog);
        assert_eq!(stats.shared_addresses, 1);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.migratory_addresses, 0);
    }

    #[test]
    fn round_robin_handles_uneven_lengths() {
        let t0: ThreadTrace = [
            MemRef::read(Address::new(0xA)),
            MemRef::read(Address::new(0xA)),
            MemRef::read(Address::new(0xA)),
            MemRef::read(Address::new(0xA)),
        ]
        .into_iter()
        .collect();
        let t1: ThreadTrace = [MemRef::read(Address::new(0xA))].into_iter().collect();
        let prog = ProgramTrace::new("uneven", vec![t0, t1]);
        let stats = analyze_round_robin(&prog);
        // Interleaving: T0 T1 T0 T0 T0 → runs: 1 (T0), 1 (T1), 3 (T0).
        assert_eq!(stats.runs, 3);
        assert!((stats.mean_run_length - 5.0 / 3.0).abs() < 1e-12);
        // 3 of 5 refs in long runs → migratory.
        assert_eq!(stats.migratory_addresses, 1);
    }

    #[test]
    fn empty_program() {
        let stats = analyze_round_robin(&ProgramTrace::new("e", vec![]));
        assert_eq!(stats.shared_addresses, 0);
        assert_eq!(stats.mean_run_length, 0.0);
    }
}
